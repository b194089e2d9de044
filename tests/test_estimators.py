"""Monte Carlo experiment layer: exact pieces against independent
oracles, statistical pieces against pinned-seed expectations."""

import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lppnoise import estimators, lattice
from lppnoise.estimators import (EstimateWithCI, corr_decay,
                                 corr_difference_ci,
                                 covariance_monotonicity_bruteforce,
                                 envelope_frequencies, fraction_estimate,
                                 geodesic_heatmap, mean_estimate,
                                 noise_comparison, pearson_estimate,
                                 resample_covariance_exact, rw_exact_nonneg, rw_nonneg_bound,
                                 sandwich_experiment, transversal_exponent,
                                 variance_scaling, visit_vs_influence,
                                 walk_spec)
from lppnoise.lattice import (NoiseKind, Rect, RngIntegrityError, coupled_cap,
                              coupled_group, scan_cap, site_bits, weights)
from lppnoise.lpp import (backward_table, forward_table, geodesic_report,
                          travel_time)
from lppnoise.rng import Stream, derive_seed, hash_array, uniform_array
from lppnoise.stationary import lambda_params


# ------------------------------------------------------------ basic estimates

def test_mean_estimate():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    est = mean_estimate(x)
    assert est.estimate == 2.5
    assert est.stderr == pytest.approx(x.std(ddof=1) / 2.0)
    assert est.ci_low < 2.5 < est.ci_high
    assert est.replicas == 4 and not est.degenerate


def test_fraction_estimate_clipping():
    z = fraction_estimate(0, 50)
    assert z.estimate == 0.0 and z.ci_low == 0.0
    o = fraction_estimate(50, 50)
    assert o.estimate == 1.0 and o.ci_high == 1.0
    h = fraction_estimate(25, 50)
    assert h.estimate == 0.5 and h.ci_low < 0.5 < h.ci_high


def test_pearson_estimate_paths():
    rng = np.random.default_rng(1)
    x = rng.normal(size=100)
    est = pearson_estimate(x, 0.6 * x + rng.normal(size=100))
    assert -1 <= est.ci_low < est.estimate < est.ci_high <= 1
    ident = pearson_estimate(x, x)
    assert (ident.estimate, ident.stderr, ident.ci_low, ident.ci_high) == (1.0, 0.0, 1.0, 1.0)
    flat = pearson_estimate(np.ones(10), x[:10])
    assert flat.degenerate and np.isnan(flat.estimate)
    with pytest.raises(ValueError):
        pearson_estimate(x[:3], x[:3])
    with pytest.raises(ValueError):
        pearson_estimate(x, x[:50])


def test_pearson_ci_calibration():
    # Fisher-z CIs covering a known correlation on synthetic bivariate
    # normal data (keyed Box-Muller draws)
    rho, n_pairs, trials, seed = 0.5, 200, 200, 5
    covered = 0
    c = np.sqrt(1.0 - rho * rho)
    idx = np.arange(n_pairs, dtype=np.int64)
    for trial in range(trials):
        sub = derive_seed(seed, Stream.GENERIC, trial)
        u1 = uniform_array(sub, Stream.GENERIC, idx, 0, 0)
        u2 = uniform_array(sub, Stream.GENERIC, idx, 1, 0)
        rad = np.sqrt(-2.0 * np.log1p(-u1))
        z1 = rad * np.cos(2.0 * np.pi * u2)
        z2 = rad * np.sin(2.0 * np.pi * u2)
        est = pearson_estimate(z1, rho * z1 + c * z2)
        covered += est.ci_low <= rho <= est.ci_high
    assert 180 <= covered <= 200


# ----------------------------------------------------------------- corr decay

def test_corr_decay_t0_exact():
    res = corr_decay(0.5, 16, (0.0, 0.5), NoiseKind.BIT, replicas=40, seed=9)
    assert res.estimates[0].estimate == 1.0
    assert res.estimates[0].ci_low == res.estimates[0].ci_high == 1.0
    assert res.samples.shape == (40, 3)
    assert np.array_equal(res.samples[:, 0], res.samples[:, 1])  # t = 0 reuse


def test_corr_decay_matches_direct_recomputation():
    # replicas are pure functions of the replica sub-seed
    p, n, t, seed = 0.5, 10, 0.7, 13
    res = corr_decay(p, n, (t,), NoiseKind.SITE, replicas=30, seed=seed)
    for r in (0, 7, 29):
        w = weights(p, derive_seed(seed, Stream.REPLICA, r),
                    Rect((0, 0), (n, n)))
        assert res.samples[r, 0] == travel_time(w)


def test_corr_decay_validation():
    with pytest.raises(ValueError):
        corr_decay(0.5, 10, (-1.0,), NoiseKind.BIT, 40, 1)
    with pytest.raises(ValueError):
        corr_decay(0.5, 10, (1.0,), NoiseKind.BIT, 10, 1)


def test_corr_difference_ci_is_deterministic_and_centered():
    res = corr_decay(0.5, 20, (0.25, 4.0), NoiseKind.BIT, replicas=60, seed=17)
    d1 = corr_difference_ci(res, 0, 1)
    d2 = corr_difference_ci(res, 0, 1)
    assert (d1.estimate, d1.ci_low, d1.ci_high) == (d2.estimate, d2.ci_low, d2.ci_high)
    base, a, b = res.samples[:, 0], res.samples[:, 1], res.samples[:, 2]
    want = (np.corrcoef(base, a)[0, 1] - np.corrcoef(base, b)[0, 1])
    assert d1.estimate == pytest.approx(want, abs=1e-12)
    assert d1.ci_low <= d1.estimate <= d1.ci_high
    with pytest.raises(ValueError):
        corr_difference_ci(res, 0, 2)


# The three resampling loops that estimators._bootstrap replaced, as they
# were written: corr_difference_ci, noise_comparison (1000 resamples) and
# _bootstrap_slope.  The last also says whether it clamped a resample
# statistic <= 0; _bootstrap_slope now rejects such a resample.

def _corr_difference_loop(seed, n_boot, base, a, b):
    rng = np.random.default_rng(seed)
    boots = np.empty(n_boot)
    m = base.size
    for j in range(n_boot):
        idx = rng.integers(0, m, m)
        boots[j] = (np.corrcoef(base[idx], a[idx])[0, 1]
                    - np.corrcoef(base[idx], b[idx])[0, 1])
    return boots


def _noise_comparison_loop(seed, n_boot, t0, ts, tb):
    replicas = t0.size
    rng = np.random.default_rng(seed)
    boots = np.empty(n_boot)
    for b in range(n_boot):
        idx = rng.integers(0, replicas, replicas)
        boots[b] = (np.corrcoef(t0[idx], ts[idx])[0, 1]
                    - np.corrcoef(t0[idx], tb[idx])[0, 1])
    return boots


def _bootstrap_slope_loop(seed, n_boot, log_n, samples, stat_fn):
    rng = np.random.default_rng(seed)
    boots = np.empty(n_boot)
    clamped = False
    for b in range(n_boot):
        ys = np.array([stat_fn(s[rng.integers(0, s.size, s.size)])
                       for s in samples])
        clamped |= bool((ys <= 0).any())
        boots[b] = np.polyfit(log_n, np.log(np.maximum(ys, 1e-300)), 1)[0]
    return boots, clamped


def _slope_fit_or_rejection(n_list, samples, stat_fn, n_boot, seed, clamped):
    """``_bootstrap_slope``'s fit, or None where the old loop clamped a
    resample statistic, which must now raise."""
    if not clamped:
        return estimators._bootstrap_slope(0.5, n_list, samples, stat_fn,
                                           n_boot, seed)
    with pytest.raises(ValueError, match="a bootstrap resample's statistic"):
        estimators._bootstrap_slope(0.5, n_list, samples, stat_fn, n_boot,
                                    seed)
    return None


@settings(max_examples=80, deadline=None)
@given(sizes=st.lists(st.integers(4, 200), min_size=1, max_size=4),
       n_boot=st.integers(1, 50), seed=st.integers(0, 2**64 - 1),
       data_seed=st.integers(0, 2**32 - 1),
       stat=st.sampled_from(["var", "median"]))
def test_bootstrap_matches_the_old_loops(sizes, n_boot, seed, data_seed,
                                         stat):
    gen = np.random.default_rng(data_seed)
    # few distinct values, so resamples hit ties and constant columns
    samples = [gen.integers(0, 6, m).astype(float) for m in sizes]
    base, a, b = gen.integers(0, 6, (3, sizes[0])).astype(float)
    log_n = np.log(8.0 * np.arange(1, len(sizes) + 1))
    stat_fn = ((lambda s: s.var(ddof=1)) if stat == "var"
               else (lambda s: float(np.median(s))))
    axis_fn = ((lambda s: s.var(ddof=1, axis=-1)) if stat == "var"
               else (lambda s: np.median(s, axis=-1)))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")   # constant columns, one-scale fits
        got = estimators._bootstrap(
            seed, n_boot, [sizes[0]],
            lambda i: estimators._corr_diff(base, a, b, i))
        assert np.array_equal(got, _corr_difference_loop(seed, n_boot, base,
                                                         a, b), equal_nan=True)
        assert np.array_equal(got, _noise_comparison_loop(seed, n_boot, base,
                                                          a, b),
                              equal_nan=True)
        want, clamped = _bootstrap_slope_loop(seed, n_boot, log_n, samples,
                                              stat_fn)
        point = np.array([stat_fn(x) for x in samples])
        assume((point > 0).all())
        fit = _slope_fit_or_rejection(
            [8 * k for k in range(1, len(sizes) + 1)], samples, axis_fn,
            n_boot, seed, clamped)
    if fit is not None:
        lo, hi = np.percentile(want, [2.5, 97.5])
        assert np.array_equal([fit.ci_low, fit.ci_high], [lo, hi],
                              equal_nan=True)


def test_bootstrap_draws_numpys_indices_across_odd_chunks():
    # 105 resamples of 31 + 8 indices make chunks of 4095 draws, so the
    # first, third, ... chunk ends between the two halves of a 64-bit
    # output and the next chunk starts with the buffered half
    sizes, n_boot, seed = [31, 8], 500, 2**63 + 5
    chunk = estimators._BOOT_DRAW_BUDGET // sum(sizes)
    assert chunk * sum(sizes) % 2 == 1 and n_boot > 3 * chunk
    gen = np.random.default_rng(seed)
    want = [np.concatenate([gen.integers(0, m, m) for m in sizes])
            for _ in range(n_boot)]
    got = []

    def stat(i, j):
        assert i.shape[1:] == (31,) and j.shape[1:] == (8,)
        got.extend(np.hstack((i, j)))
        return np.arange(len(i), dtype=float)
    boots = estimators._bootstrap(seed, n_boot, sizes, stat)
    assert np.array_equal(got, want)
    assert np.array_equal(boots, np.arange(n_boot) % chunk)


def test_corr_difference_ci_matches_the_old_loop():
    res = corr_decay(0.5, 12, (0.25, 4.0), NoiseKind.SITE, replicas=40,
                     seed=23)
    base, a, b = res.samples.T
    boots = _corr_difference_loop(derive_seed(23, Stream.GENERIC, 10**6), 300,
                                  base, a, b)
    d = corr_difference_ci(res, 0, 1, n_boot=300)
    lo, hi = np.percentile(boots, [2.5, 97.5])
    assert (d.stderr, d.ci_low, d.ci_high) == (boots.std(ddof=1), lo, hi)


@settings(max_examples=150, deadline=None)
@given(m=st.one_of(st.integers(4, 60), st.integers(61, 3000)),
       rows=st.integers(1, 12), top=st.sampled_from([1, 2, 5, 300, 10**6]),
       data_seed=st.integers(0, 2**32 - 1), constant=st.booleans())
def test_batched_correlation_equals_np_corrcoef(m, rows, top, data_seed,
                                                constant):
    gen = np.random.default_rng(data_seed)
    # integer-valued samples, like travel times; few distinct values give
    # ties and constant rows (NaN)
    x, y = gen.integers(0, top, (2, rows, m)).astype(float)
    if constant:
        x[0] = x[0, 0]
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = np.array([np.corrcoef(a, b)[0, 1] for a, b in zip(x, y)])
    got = estimators._corr_rows(x, y)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=150, deadline=None)
@given(m=st.one_of(st.integers(2, 60), st.integers(61, 2048)),
       top=st.sampled_from([1, 3, 300, 2**40]),
       data_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_axis_statistics_equal_the_per_resample_calls(m, top, data_seed,
                                                      data):
    """The slope bootstraps' statistics over a chunk of resamples, taken
    along the last axis, equal the per-resample calls bit for bit."""
    chunk = data.draw(st.integers(1, 4096 // m), label="chunk")
    gen = np.random.default_rng(data_seed)
    # few distinct values (small top) give ties and constant resamples
    x = gen.integers(0, top, m) / 7.0
    idx = gen.integers(0, m, (chunk, m))
    for got, want in [
            (np.median(x[idx], axis=-1), [np.median(x[i]) for i in idx]),
            (x[idx].var(ddof=1, axis=-1), [x[i].var(ddof=1) for i in idx])]:
        assert np.array_equal(got.view(np.int64),
                              np.array(want).view(np.int64))


@pytest.mark.parametrize("budget", [1, 7, 500, estimators._BOOT_DRAW_BUDGET])
@settings(max_examples=25, deadline=None)
@given(m=st.integers(4, 300), n_boot=st.integers(1, 120),
       seed=st.integers(0, 2**64 - 1), data_seed=st.integers(0, 2**32 - 1))
@example(m=4, n_boot=1, seed=0, data_seed=337)   # the first sample is constant
def test_bootstrap_chunks_match_the_old_loops(budget, m, n_boot, seed,
                                              data_seed):
    gen = np.random.default_rng(data_seed)
    base, a, b = gen.integers(0, 6, (3, m)).astype(float)
    samples = [gen.integers(1, 9, k).astype(float) for k in (m, m // 2 + 2)]
    log_n = np.log([8.0, 16.0])
    with mock.patch.object(estimators, "_BOOT_DRAW_BUDGET", budget), \
            np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")   # constant resamples give NaN
        got = estimators._bootstrap(
            seed, n_boot, [m], lambda i: estimators._corr_diff(base, a, b, i))
        want = _noise_comparison_loop(seed, n_boot, base, a, b)
        slopes, clamped = _bootstrap_slope_loop(seed, n_boot, log_n, samples,
                                                lambda s: s.var(ddof=1))
        var_fn = lambda s: s.var(ddof=1, axis=-1)    # noqa: E731
        if min(var_fn(s) for s in samples) > 0:
            fit = _slope_fit_or_rejection([8, 16], samples, var_fn, n_boot,
                                          seed, clamped)
        else:   # a constant sample: the point fit rejects it first
            with pytest.raises(ValueError, match="^statistic is 0 at n="):
                estimators._bootstrap_slope(0.5, [8, 16], samples, var_fn,
                                            n_boot, seed)
            fit = None
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if fit is not None:
        assert np.array_equal([fit.ci_low, fit.ci_high],
                              np.percentile(slopes, [2.5, 97.5]),
                              equal_nan=True)


def _noise_comparison_per_replica(p, n, t, replicas, seed):
    """noise_comparison's travel times, one replica at a time, with its
    bootstrap as the old per-resample loop."""
    cap = coupled_cap(n, p)
    rows = []
    for r in range(replicas):
        fields = coupled_group(p, (derive_seed(seed, Stream.REPLICA, r),),
                               Rect((0, 0), (n, n)), t, cap)[:, 0]
        rows.append([travel_time(f) for f in
                     np.concatenate((fields, np.minimum(fields, cap)))])
    t0, tb, ts, t0c, tbc, tsc = np.array(rows, dtype=float).T
    boots = _noise_comparison_loop(derive_seed(seed, Stream.GENERIC,
                                               10**6 + 2), 1000, t0, ts, tb)
    return (t0, tb, ts), boots, (np.cov(t0c, tbc)[0, 1],
                                 np.cov(t0c, tsc)[0, 1])


@pytest.mark.parametrize("budget", [1, 500, lattice._SITE_BUDGET])
def test_noise_comparison_matches_per_replica_loop(budget):
    # the cap M binds in no field of the first three and in some fields
    # of the last, so both the reused and the capped DP are compared
    for p, n, t, seed in ((0.5, 12, 0.2, 71), (0.3, 5, 0.5, 72),
                          (0.5, 9, 0.0, 73), (0.5, 2, 0.5, 74)):
        (t0, tb, ts), boots, covs = _noise_comparison_per_replica(
            p, n, t, 45, seed)
        with mock.patch.object(lattice, "_SITE_BUDGET", budget):
            rep = noise_comparison(p, n, t, replicas=45, seed=seed)
        assert rep.corr_bit == pearson_estimate(t0, tb)
        assert rep.corr_site == pearson_estimate(t0, ts)
        lo, hi = np.percentile(boots, [2.5, 97.5])
        assert rep.corr_diff == estimators.EstimateWithCI(
            rep.corr_site.estimate - rep.corr_bit.estimate,
            float(boots.std(ddof=1)), float(lo), float(hi), 45)
        assert (rep.cov_capped_bit, rep.cov_capped_site) == covs


@pytest.mark.parametrize("budget", [1, 300, lattice._SITE_BUDGET])
@pytest.mark.parametrize("n", [2, 14])
def test_geodesic_maps_match_per_replica_loops(budget, n):
    # at n = 2, 8 of the 40 geodesic sets reach a margin of exactly 0, so
    # width 0 tells <= from <
    replicas, seed, widths = 40, 79, (0, 1, 3, 9)
    masks = [geodesic_report(weights(
        0.5, derive_seed(seed, Stream.REPLICA, r), Rect((0, 0), (n, n))))
        .member_mask for r in range(replicas)]
    i, j = np.indices((n + 1, n + 1))
    margin = np.abs(j - i) - np.minimum(i + j, 2 * n - i - j) ** 0.75
    inside = [sum(not (mask & (margin > w)).any() for mask in masks)
              for w in widths]
    with mock.patch.object(lattice, "_SITE_BUDGET", budget):
        hm = geodesic_heatmap(0.5, n, replicas, seed)
        env = envelope_frequencies(0.5, n, widths, replicas, seed)
    assert np.array_equal(hm.counts, np.sum(masks, axis=0))
    assert env == [(w, fraction_estimate(k, replicas))
                   for w, k in zip(widths, inside)]


def test_replica_loops_are_budget_invariant():
    def runs():
        return [
            lambda: corr_decay(0.5, 9, (0.0, 0.5, 0.25), NoiseKind.SITE, 30,
                               83),
            lambda: corr_decay(0.3, 6, (1.0, 0.5), NoiseKind.BIT, 30, 84),
            lambda: variance_scaling(0.5, (3, 7, 12), 9, 85, n_boot=50),
            # a resample of these has median deviation 0 and is rejected,
            # so the samples themselves are compared too
            lambda: transversal_exponent(0.5, (4, 8, 13), 9, 86, n_boot=50),
            lambda: estimators._scale_samples(0.5, (4, 8, 13), 9, 86,
                                              estimators._span_deviation),
            # a 41 x 49 lower region: the default budget packs all 12
            # replicas into one group, the small ones cut it into strips
            lambda: sandwich_experiment(0.3, (40, 40), 0.2, 12, 87)]

    def key(run):
        # dataclass equality would compare the samples arrays elementwise
        try:
            return repr(run())
        except ValueError as exc:
            return f"ValueError: {exc}"

    want = [key(run) for run in runs()]
    for budget in (1, 40, 200):
        with mock.patch.object(lattice, "_SITE_BUDGET", budget):
            assert [key(run) for run in runs()] == want


def _backtracked_upmost(w):
    """Reference upmost geodesic: from the top-right corner, step to a
    neighbour with F == F[i, j] - w[i, j], trying (i-1, j) first."""
    f = forward_table(w)
    i, j = f.shape[0] - 1, f.shape[1] - 1
    path = [(i, j)]
    while i or j:
        if i and f[i - 1, j] == f[i, j] - w[i, j]:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    return np.array(path[::-1])


def _midline_deviation(w):
    """Reference statistic: max |x2 - n/2| over the backtracked upmost
    geodesic's points on x1 = n/2."""
    n = w.shape[0] - 1
    path = _backtracked_upmost(w)
    mid = path[path[:, 0] == n // 2, 1]
    return float(np.max(np.abs(mid - n / 2.0)))


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 4), n=st.integers(1, 40),
       p=st.floats(0.3, 0.99), seed=st.integers(0, 2**32 - 1))
def test_span_deviation_matches_backtracked_path(k, n, p, seed):
    stack = np.random.default_rng(seed).geometric(p, (k, n + 1, n + 1)) - 1
    got = estimators._span_deviation(stack)
    assert got.dtype == np.float64
    assert got.tolist() == [_midline_deviation(w) for w in stack]


# -------------------------------------------------------------- random walks

def _walk_enumeration(values, probs, n):
    q = 0.0
    for seq in itertools.product(range(len(values)), repeat=n):
        s, ok, pr = 0, True, 1.0
        for ix in seq:
            s += values[ix]
            pr *= probs[ix]
            if s < 0:
                ok = False
                break
        if ok:
            q += pr
    return q


@pytest.mark.parametrize("values,probs", [((-1, 1), (0.5, 0.5)),
                                          ((-1, 1), (0.475, 0.525)),
                                          ((-2, 0, 3), (0.35, 0.3, 0.35))])
def test_rw_exact_matches_enumeration(values, probs):
    spec = walk_spec(values, probs)
    for n in (1, 2, 5, 9):
        assert rw_exact_nonneg(spec, n) == pytest.approx(
            _walk_enumeration(values, probs, n), abs=1e-12)


def test_rw_known_symmetric_values():
    spec = walk_spec((-1, 1), (0.5, 0.5))
    assert rw_exact_nonneg(spec, 2) == pytest.approx(0.5, abs=1e-15)
    assert rw_exact_nonneg(spec, 4) == pytest.approx(0.375, abs=1e-15)


def test_walk_spec_moments_and_validation():
    spec = walk_spec((-1, 1), (0.4, 0.6))
    assert spec.mu == pytest.approx(0.2)
    assert spec.sigma == pytest.approx(np.sqrt(1 - 0.2 ** 2))
    assert spec.delta == pytest.approx(0.6)
    with pytest.raises(ValueError):
        walk_spec((-1, 1), (0.5, 0.6))       # probs do not sum to 1
    with pytest.raises(ValueError):
        walk_spec((-1, 1), (0.6, 0.4))       # negative drift
    with pytest.raises(ValueError):
        walk_spec((-2, -1), (0.5, 0.5))      # delta = 0
    with pytest.raises(ValueError):
        walk_spec((0, 1), (0.0, 1.0))        # sigma = 0
    with pytest.raises(ValueError):
        walk_spec((-1, 1), (np.nan, 1.0))    # non-finite probability


def test_rw_bound_report():
    spec = walk_spec((-1, 1), (0.5, 0.5))
    rep, = rw_nonneg_bound(spec, [16], replicas=4000, seed=19)
    assert rep.bound == pytest.approx(4 * spec.sigma / (spec.delta * 4.0))
    assert rep.exact == pytest.approx(rw_exact_nonneg(spec, 16), abs=1e-12)
    # the estimate sees the same truth the DP computes
    assert abs(rep.q_hat.estimate - rep.exact) < 5 * max(rep.q_hat.stderr, 1e-3)
    assert rep.q_hat.estimate <= rep.bound
    long, = rw_nonneg_bound(spec, [100], replicas=500, seed=19)
    assert long.exact is None  # exact DP only attached for tiny walks
    for n_list in ([], [16, 0]):
        with pytest.raises(ValueError, match="step counts"):
            rw_nonneg_bound(spec, n_list, replicas=10, seed=19)


def _rw_hits_full_matrix(spec, n_steps, replicas, seed):
    """Reference: draw all N steps of every walk in one matrix."""
    cum = np.cumsum(spec.probs)
    vals = np.array(spec.values, dtype=np.int64)
    reps = np.arange(replicas, dtype=np.int64)
    steps = np.arange(n_steps, dtype=np.int64)
    u = uniform_array(seed, Stream.GENERIC, reps[:, None], steps[None, :], 0)
    draws = vals[np.searchsorted(cum, u, side="right")]
    return int((np.cumsum(draws, axis=1) >= 0).all(axis=1).sum())


@st.composite
def _step_laws(draw):
    values = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=5,
                           unique=True))
    weights = np.array(draw(st.lists(st.integers(1, 20), min_size=len(values),
                                     max_size=len(values))), dtype=float)
    try:
        return walk_spec(values, weights / weights.sum())
    except ValueError:  # negative drift or no step >= 1
        assume(False)


@settings(max_examples=60, deadline=None)
@given(spec=_step_laws(),
       n_list=st.lists(st.one_of(st.integers(1, 40), st.integers(41, 3000)),
                       min_size=1, max_size=4),
       replicas=st.integers(1, 300),
       seed=st.integers(0, 2**63 - 1),
       budget=st.sampled_from([None, 5, 64, 1000]))
def test_rw_early_exit_matches_full_matrix(spec, n_list, replicas, seed,
                                           budget):
    # one pass over unsorted, repeated step counts
    cap = budget or estimators._WALK_DRAW_BUDGET
    with mock.patch.object(estimators, "_WALK_DRAW_BUDGET", cap):
        reps = rw_nonneg_bound(spec, n_list, replicas, seed)
    assert [r.n_steps for r in reps] == n_list
    for rep in reps:
        hits = _rw_hits_full_matrix(spec, rep.n_steps, replicas, seed)
        assert rep.q_hat == fraction_estimate(hits, replicas)


def test_rw_early_exit_draw_budget_and_keys(monkeypatch):
    spec = walk_spec((-1, 1), (0.475, 0.525))
    calls = []

    def recording_hash(seed, tag, sx, sy, index, out=None):
        h = hash_array(seed, tag, sx, sy, index, out=out)
        calls.append(np.broadcast_arrays(sx, sy))
        return h

    monkeypatch.setattr(estimators, "_WALK_DRAW_BUDGET", 1000)
    monkeypatch.setattr(estimators, "hash_array", recording_hash)
    n_list = [777, 5, 777, 300]
    reps = rw_nonneg_bound(spec, n_list, replicas=2500, seed=5)
    assert [r.n_steps for r in reps] == n_list
    for rep in reps:
        assert rep.q_hat == fraction_estimate(
            _rw_hits_full_matrix(spec, rep.n_steps, 2500, 5), 2500)
    # the first block of 1000 live walks is cut from 16 steps to 1
    # (blocks are steps x walks)
    assert calls[0][0].shape == (1, 1000)
    assert max(w.size for w, _ in calls) <= 1000
    assert max(k.max() for _, k in calls) < 777   # no step past the largest N
    keys = np.concatenate([(w * 1000 + k).ravel() for w, k in calls])
    assert np.unique(keys).size == keys.size      # no key drawn twice
    assert keys.size < 2500 * 777                 # dead walks stop drawing


def test_rw_walk_blocks_stay_cache_sized():
    # with 3 in 4 walks alive, 2**21-key blocks peaked near 51 MiB here;
    # 2**16-key blocks peak near 2 MiB
    spec = walk_spec((-1, 1), (0.2, 0.8))
    tracemalloc.start()
    try:
        rep, = rw_nonneg_bound(spec, [300], replicas=20_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.q_hat.estimate > 0.7
    assert peak < 2 ** 23


@pytest.mark.parametrize("values,probs", [((1, 0, -1), (0.7, 0.2, 0.1)),
                                          (tuple(range(-4, 6)), (0.1,) * 10)])
def test_rw_step_lookup_at_largest_uniform(monkeypatch, values, probs):
    """The probabilities sum to 1 - 2**-53, the uniform of the largest
    hash 2**64 - 1."""
    spec = walk_spec(values, probs)
    assert np.cumsum(probs)[-1] <= np.nextafter(1.0, 0.0)

    def largest_hash(seed, tag, sx, sy, index, out):
        out[0].fill(2 ** 64 - 1)
        return out[0]

    monkeypatch.setattr(estimators, "hash_array", largest_hash)
    rep, = rw_nonneg_bound(spec, [20], replicas=10, seed=1)
    # every step takes the last value of the law
    assert rep.q_hat.estimate == (1.0 if values[-1] >= 0 else 0.0)


@pytest.mark.parametrize("values,probs", [((-2, 0, 3), (0.35, 0.3, 0.35)),
                                          ((-1, 2, 5), (0.0, 0.6, 0.4)),
                                          ((1, 0, -1), (0.7, 0.2, 0.1))])
def test_rw_steps_at_the_cut_bounds_match_the_float_search(
        monkeypatch, values, probs):
    """Every step hash sits at a cut bound, one off it, or at 0 or
    2**64 - 1; the walks see the values of the float search."""
    spec = walk_spec(values, probs)
    cuts = np.cumsum(probs)[:-1]
    edges = np.array(sorted({min(max((int(np.ceil(c * 2.0 ** 53)) << 11) + d,
                                     0), 2 ** 64 - 1)
                             for c in cuts for d in (-1, 0, 1)}
                            | {0, 2 ** 64 - 1}), dtype=np.uint64)

    def edge_hash(seed, tag, sx, sy, index, out=None):
        w, k = np.broadcast_arrays(sx, sy)
        h = edges[(3 * w + 5 * k + w * k) % edges.size]
        if out is None:
            return h
        out[0][...] = h
        return out[0]

    monkeypatch.setattr(estimators, "hash_array", edge_hash)
    n_steps, replicas = 30, 200
    h = edge_hash(1, None, np.arange(replicas)[:, None],
                  np.arange(n_steps)[None, :], 0)
    steps = np.array(values)[np.searchsorted(
        cuts, (h >> np.uint64(11)) * 2.0 ** -53, side="right")]
    hits = int((np.cumsum(steps, axis=1) >= 0).all(axis=1).sum())
    rep, = rw_nonneg_bound(spec, [n_steps], replicas, seed=1)
    assert rep.q_hat == fraction_estimate(hits, replicas)


# --------------------------------------------- resampling covariance, exact

def _resample_cov_oracle(probs, f_vals, subset):
    """Triple loop over (x, y) state pairs; y resamples subset coords
    independently and copies the rest from x."""
    shapes = [len(pr) for pr in probs]
    states = list(itertools.product(*[range(s) for s in shapes]))

    def pi(x):
        out = 1.0
        for c, v in enumerate(x):
            out *= probs[c][v]
        return out

    mean = sum(pi(x) * f_vals[x] for x in states)
    acc = 0.0
    for x in states:
        for y in states:
            if any(x[c] != y[c] for c in range(len(shapes)) if c not in subset):
                continue
            w = pi(x)
            for c in subset:
                w *= probs[c][y[c]]
            acc += w * f_vals[x] * f_vals[y]
    return acc - mean * mean


def test_resample_covariance_matches_triple_loop():
    rng = np.random.default_rng(20250826)
    probs = [(0.2, 0.8), (0.1, 0.4, 0.5), (0.3, 0.7), (0.25, 0.25, 0.5)]
    f_vals = rng.normal(size=(2, 3, 2, 3))
    for subset in [(), (0,), (1, 3), (0, 1, 2, 3)]:
        got = resample_covariance_exact(probs, f_vals, subset)
        want = _resample_cov_oracle(probs, f_vals, subset)
        assert got == pytest.approx(want, abs=1e-12)
    # resampling nothing gives the variance, resampling everything zero
    none = resample_covariance_exact(probs, f_vals, ())
    full = resample_covariance_exact(probs, f_vals, (0, 1, 2, 3))
    assert full == pytest.approx(0.0, abs=1e-12)
    assert none > 0


def test_resample_covariance_validation():
    probs = [(0.5, 0.5), (0.5, 0.5)]
    f = np.zeros((2, 2))
    with pytest.raises(ValueError):
        resample_covariance_exact(probs, f, (2,))
    with pytest.raises(ValueError):
        resample_covariance_exact([(0.5, 0.4), (0.5, 0.5)], f, ())
    with pytest.raises(ValueError):
        resample_covariance_exact(probs, np.zeros((2, 3)), ())


def test_covariance_monotonicity_on_random_ternary_functions():
    rng = np.random.default_rng(20250827)
    probs = [(0.2, 0.3, 0.5)] * 3
    for _ in range(25):
        f_vals = rng.normal(size=(3, 3, 3))
        for small in [(), (0,), (1,), (0, 2)]:
            for extra in [(), tuple(sorted(set(range(3)) - set(small)))]:
                big = tuple(sorted(set(small) | set(extra)))
                rep = covariance_monotonicity_bruteforce(probs, f_vals,
                                                         small, big)
                # resampling more coordinates can only lower the covariance
                assert rep.holds
                assert rep.cov_small >= rep.cov_big - 1e-12
    with pytest.raises(ValueError):
        covariance_monotonicity_bruteforce(probs, rng.normal(size=(3, 3, 3)),
                                           (0, 1), (1, 2))


# -------------------------------------------------- bit influences on T_n

def bit_influence_on_Tn(p, n, v, i, replicas, seed):
    """Influence of encoding bit (v, i) on T_n: E|E_xi[T_n o sigma] - T_n|;
    a site outside the rectangle has exact influence 0."""
    if i < 0:
        raise ValueError(f"bit index must be >= 0, got {i}")
    if not (0 <= v[0] <= n and 0 <= v[1] <= n):
        return EstimateWithCI(0.0, 0.0, 0.0, 0.0, replicas)
    samples, _ = estimators._influence_rows(p, n, [v], i, replicas, seed)
    return mean_estimate(samples[:, 0, i])


def _influence_oracle(p, n, v, i, replicas, seed):
    """Recompute the influence sample by substituting the enforced-bit
    weights into the field and rerunning the full passage DP."""
    out = np.empty(replicas)
    for r in range(replicas):
        sub = derive_seed(seed, Stream.REPLICA, r)
        w = weights(p, sub, Rect((0, 0), (n, n)))
        w_v = int(w[v])
        bits = site_bits(p, sub, v, max(i + 1, w_v + 1) + 200)
        up_bits = bits.copy()
        up_bits[i] = True
        down_bits = bits.copy()
        down_bits[i] = False
        assert down_bits.any()
        w_up = int(np.argmax(up_bits))
        w_down = int(np.argmax(down_bits))
        total = travel_time(w)
        wm = w.copy()
        wm[v] = w_up
        t_up = travel_time(wm)
        wm[v] = w_down
        t_down = travel_time(wm)
        out[r] = abs(p * t_up + (1 - p) * t_down - total)
    return out


_AVOID = -(2 ** 40)   # a weight no geodesic takes


def _site_weight_variants(p, seed, v, i, w_v):
    """Site weights after forcing bit i to 1 and to 0."""
    up = min(w_v, i)
    if w_v != i:
        return up, w_v
    later = np.flatnonzero(site_bits(p, seed, v, scan_cap(p))[i + 1:])
    assert later.size
    return up, i + 1 + int(later[0])


def _influence_rows_per_replica(p, n, v_list, i_max, replicas, seed):
    """``estimators._influence_rows`` as one full DP per replica and site:
    the avoid time is the travel time with v's weight set to _AVOID, and
    every bit's flipped weights are looked up one by one."""
    samples = np.zeros((replicas, len(v_list), i_max + 1))
    visits = np.zeros((replicas, len(v_list)), dtype=bool)
    for r in range(replicas):
        sub = derive_seed(seed, Stream.REPLICA, r)
        w = weights(p, sub, Rect((0, 0), (n, n)))
        f, b = forward_table(w), backward_table(w)
        total = int(f[-1, -1])
        for a, v in enumerate(v_list):
            w_v = int(w[v])
            base_path = int(f[v] + b[v]) - 2 * w_v
            visits[r, a] = base_path + w_v == total
            wmod = w.copy()
            wmod[v] = _AVOID
            t_avoid = travel_time(wmod)
            for i in range(i_max + 1):
                up, down = _site_weight_variants(p, sub, v, i, w_v)
                mean_flip = (p * max(t_avoid, base_path + up)
                             + (1.0 - p) * max(t_avoid, base_path + down))
                samples[r, a, i] = abs(mean_flip - total)
    return samples, visits


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), p=st.sampled_from([0.01, 0.5, 0.99]),
       i_max=st.integers(0, 12), replicas=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32), budget=st.sampled_from([1, 300, 2 ** 15]),
       data=st.data())
def test_influence_rows_match_per_replica_dp(n, p, i_max, replicas, seed,
                                             budget, data):
    # corners (alone on their antidiagonals), edges and interior sites;
    # small budgets split the replicas into several group stacks
    site = st.tuples(st.integers(0, n), st.integers(0, n))
    v_list = [(0, 0), (n, n), (0, n)] + data.draw(
        st.lists(site, min_size=1, max_size=4))
    with mock.patch.object(lattice, "_SITE_BUDGET", budget):
        got = estimators._influence_rows(p, n, v_list, i_max, replicas, seed)
    want = _influence_rows_per_replica(p, n, v_list, i_max, replicas, seed)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("v,i", [((3, 3), 0), ((3, 3), 1), ((3, 3), 4),
                                 ((0, 0), 2), ((5, 2), 0), ((2, 5), 3)])
def test_bit_influence_matches_full_dp_oracle(v, i):
    p, n, replicas, seed = 0.5, 6, 40, 23
    est = bit_influence_on_Tn(p, n, v, i, replicas, seed)
    oracle = _influence_oracle(p, n, v, i, replicas, seed)
    assert est.estimate == pytest.approx(oracle.mean(), abs=1e-10)
    assert est.stderr == pytest.approx(mean_estimate(oracle).stderr, abs=1e-10)


def test_bit_influence_biased_p():
    # replica fields hit all three bit cases: i below, at and above w_v
    p, n = 0.3, 5
    for i in (0, 2, 6):
        est = bit_influence_on_Tn(p, n, (2, 2), i, 30, seed=29)
        oracle = _influence_oracle(p, n, (2, 2), i, 30, 29)
        assert est.estimate == pytest.approx(oracle.mean(), abs=1e-10)


def test_bit_influence_outside_region_is_zero():
    est = bit_influence_on_Tn(0.5, 6, (9, 9), 0, 40, seed=1)
    assert est.estimate == 0.0 and est.stderr == 0.0


def test_bit_influence_validation():
    with pytest.raises(ValueError):
        bit_influence_on_Tn(0.5, 6, (1, 1), -1, 40, seed=1)


def test_bit_surgery_on_a_stream_without_ones_is_caught(monkeypatch):
    # forcing bit 2 of a weight-2 site to 0 looks for the next one, which
    # a broken stream never gives
    monkeypatch.setattr(lattice, "bernoulli_at", lambda prefix, index, p:
                        np.zeros(np.shape(index), dtype=bool))
    with pytest.raises(RngIntegrityError):
        estimators._next_weight(0.5, 7, (1, 1), 2)


def test_influence_decays_in_bit_index():
    rows = visit_vs_influence(0.5, 8, replicas=300, seed=31, i_max=6)
    diag = next(r for r in rows if r.v == (4, 4))
    infl = diag.bit_influences
    assert infl[0] > infl[3] > infl[6]
    assert all(0 <= r.visit_freq.estimate <= 1 for r in rows)
    assert all(np.isfinite(r.ratio) and r.ratio >= 0 for r in rows)
    assert all(r.influence_sq_sum == pytest.approx(
        sum(x ** 2 for x in r.bit_influences), abs=1e-12) for r in rows)


# ------------------------------------------------------------- sandwich

def test_sandwich_y_mean_matches_closed_form():
    # E[Y] = E[Geom(q(1 - lam_hat+))] - E[Geom(q(1 - lam-))] for the
    # V-increments of the two boundary columns
    p, v, s = 0.5, (12, 13), 0.13
    rep = sandwich_experiment(p, v, s, replicas=600, seed=37)
    size = sum(v)
    q_hat = lambda_params(p, 1.0 - rep.lam_hat_plus).q
    q_minus = lambda_params(p, 1.0 - rep.lam_minus).q
    closed = (1 - q_hat) / q_hat - (1 - q_minus) / q_minus
    z = (rep.y_mean.estimate - closed) / rep.y_mean.stderr
    assert abs(z) < 4
    assert rep.k == int(np.floor(2 * s * size ** (2 / 3))) + 1
    assert 0 <= rep.frequency.estimate <= 1
    assert rep.frequency.estimate > 0.8  # the sandwich holds most of the time


def test_sandwich_validation():
    with pytest.raises(ValueError):
        sandwich_experiment(0.5, (200, 200), 2.0, 10, seed=1)   # s too large
    with pytest.raises(ValueError):
        sandwich_experiment(0.5, (200, 100), 0.2, 10, seed=1)   # off diagonal
    with pytest.raises(ValueError):
        sandwich_experiment(0.5, (0, 5), 0.1, 10, seed=1)
    with pytest.raises(ValueError):
        sandwich_experiment(0.5, (200, 200), -0.1, 10, seed=1)
    with pytest.raises(ValueError):
        # window k + 1 exceeds min(v2, w2)
        sandwich_experiment(0.5, (26, 2), 0.3, 10, seed=1)


# ------------------------------------------- scaling fits and geometry

def test_variance_scaling_smoke():
    res = variance_scaling(0.5, (8, 16, 32), replicas=60, seed=43, n_boot=100)
    assert res.fit.scales == (8, 16, 32)
    assert all(v > 0 for v in res.fit.statistic)
    assert res.fit.ci_low <= res.fit.slope <= res.fit.ci_high
    assert len(res.means_over_n) == 3
    with pytest.raises(ValueError):
        variance_scaling(0.5, (8, 16), replicas=60, seed=1)
    with pytest.raises(ValueError):
        variance_scaling(0.5, (16, 8, 32), replicas=60, seed=1)


def test_transversal_smoke():
    fit = transversal_exponent(0.5, (8, 16, 32), replicas=60, seed=47, n_boot=100)
    assert fit.scales == (8, 16, 32)
    assert all(m > 0 for m in fit.statistic)
    assert fit.statistic[0] < fit.statistic[-1]


def test_heatmap_counts():
    hm = geodesic_heatmap(0.5, 10, replicas=80, seed=53)
    assert hm.counts.shape == (11, 11)
    assert hm.counts[0, 0] == 80 and hm.counts[10, 10] == 80  # corners always on
    assert hm.counts.max() <= 80
    freq = hm.counts / 80
    assert 0 <= freq.min() and freq.max() <= 1


def test_antidiagonal_frequencies_rejects_sites_outside_the_square():
    hm = estimators.geodesic_heatmap(0.5, 3, replicas=5, seed=2)
    # s = 1 at n = 3 gives d = 2 and the site (3, -1)
    with pytest.raises(ValueError, match="leaves the rectangle"):
        estimators.antidiagonal_frequencies(hm, [1.0])
    assert estimators.antidiagonal_frequencies(hm, [0.5]) == \
        [(0.5, float(hm.counts[2, 0] / 5))]


def test_envelope_frequencies_increase_with_width():
    rows = envelope_frequencies(0.5, 32, (1, 4, 16), replicas=60, seed=59)
    widths = [w for w, _ in rows]
    fracs = [e.estimate for _, e in rows]
    assert widths == [1, 4, 16]
    assert fracs[0] <= fracs[1] <= fracs[2]
    assert all(0 <= f <= 1 for f in fracs)


@pytest.mark.parametrize("experiment", [
    lambda: envelope_frequencies(0.5, 8, (0,), replicas=0, seed=1),
    lambda: geodesic_heatmap(0.5, 8, replicas=0, seed=1)])
def test_geodesic_set_statistics_need_a_replica(experiment):
    with pytest.raises(ValueError, match="at least one replica"):
        experiment()


@pytest.mark.parametrize("p", [0.5, 0.95])
def test_envelope_holds_two_tables_per_call(p):
    # fresh F, B and F + B per field and four n x n grids peaked near 8.1
    # tables; one scratch pair for every field and a per-antidiagonal
    # bound peak near 5.1, also at p = 0.95, where most weights are 0 and
    # ties widen the geodesic set (about 1,600 of 257^2 vertices)
    table = 257 ** 2 * 8
    tracemalloc.start()
    try:
        rows = envelope_frequencies(p, 256, [0, 4], 2, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [w for w, _ in rows] == [0, 4]
    assert peak < 6 * table


def test_reach_margin_equals_the_grid_margin():
    """The per-antidiagonal bound gives the margin that a full n x n grid
    of distances did, bit for bit, at every vertex."""
    for n in [*range(2, 201), 256, 400, 512]:
        i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        dist = np.minimum(i + j, 2 * n - i - j).astype(float)
        grid = np.abs(j - i) - dist ** 0.75
        i, j = np.ones((n + 1, n + 1), dtype=bool).nonzero()
        margin = np.abs(j - i) - estimators._reach(n)[i + j]
        assert np.array_equal(margin.view(np.int64),
                              grid.ravel().view(np.int64)), n


# ------------------------------------------------------- coupled comparison

def test_noise_comparison_t0_is_exactly_one():
    rep = noise_comparison(0.5, 12, 0.0, replicas=40, seed=61)
    assert rep.corr_bit.estimate == 1.0 and rep.corr_site.estimate == 1.0
    assert rep.cap_gap_fraction == 0.0


def test_noise_comparison_site_destroys_more():
    rep = noise_comparison(0.5, 24, 0.25, replicas=120, seed=67)
    assert rep.corr_bit.estimate > rep.corr_site.estimate
    assert rep.corr_diff.ci_high < 0  # paired CI separates the two kinds
    assert rep.cap_gap_fraction < 0.05


def test_noise_comparison_validation():
    with pytest.raises(ValueError):
        noise_comparison(0.5, 100, 0.5, replicas=40, seed=1)  # t > 1/ln n
    with pytest.raises(ValueError):
        noise_comparison(0.5, 100, 0.1, replicas=10, seed=1)


def test_z95_matches_scipy():
    from scipy import stats
    assert estimators._Z95 == float(stats.norm.ppf(0.975))
