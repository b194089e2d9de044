"""Monte Carlo experiment layer: exact pieces against independent
oracles, statistical pieces against pinned-seed expectations."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lppnoise import estimators
from lppnoise.estimators import (bit_influence_on_Tn, corr_decay,
                                 corr_difference_ci,
                                 covariance_monotonicity_bruteforce,
                                 envelope_frequencies, fraction_estimate,
                                 geodesic_heatmap, mean_estimate,
                                 noise_comparison, pearson_ci_calibration,
                                 pearson_estimate, resample_covariance_exact,
                                 rw_exact_nonneg, rw_nonneg_bound,
                                 sandwich_experiment, transversal_exponent,
                                 variance_scaling, visit_vs_influence,
                                 walk_spec)
from lppnoise.lattice import NoiseKind, Rect, WeightConfig, site_bits, weights
from lppnoise.lpp import travel_time
from lppnoise.rng import Stream, derive_seed, uniform_array
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
    covered = pearson_ci_calibration(0.5, n_pairs=200, trials=200, seed=5)
    assert 180 <= covered <= 200


# ----------------------------------------------------------------- corr decay

def test_corr_decay_t0_exact_and_thread_invariance():
    res1 = corr_decay(0.5, 16, (0.0, 0.5), NoiseKind.BIT, replicas=40,
                      seed=9, threads=1)
    res2 = corr_decay(0.5, 16, (0.0, 0.5), NoiseKind.BIT, replicas=40,
                      seed=9, threads=3)
    assert res1.estimates[0].estimate == 1.0
    assert res1.estimates[0].ci_low == res1.estimates[0].ci_high == 1.0
    assert res1.samples.shape == (40, 3)
    assert np.array_equal(res1.samples, res2.samples)
    assert np.array_equal(res1.samples[:, 0], res1.samples[:, 1])  # t = 0 reuse


def test_corr_decay_matches_direct_recomputation():
    # replicas are pure functions of the replica sub-seed
    p, n, t, seed = 0.5, 10, 0.7, 13
    res = corr_decay(p, n, (t,), NoiseKind.SITE, replicas=30, seed=seed)
    for r in (0, 7, 29):
        cfg = WeightConfig(p, derive_seed(seed, Stream.REPLICA, r),
                           Rect((0, 0), (n, n)))
        assert res.samples[r, 0] == travel_time(weights(cfg))


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
    rep = rw_nonneg_bound(spec, 16, replicas=4000, seed=19)
    assert rep.bound == pytest.approx(4 * spec.sigma / (spec.delta * 4.0))
    assert rep.exact == pytest.approx(rw_exact_nonneg(spec, 16), abs=1e-12)
    # the estimate sees the same truth the DP computes
    assert abs(rep.q_hat.estimate - rep.exact) < 5 * max(rep.q_hat.stderr, 1e-3)
    assert rep.q_hat.estimate <= rep.bound
    long = rw_nonneg_bound(spec, 100, replicas=500, seed=19)
    assert long.exact is None  # exact DP only attached for tiny walks


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
       n_steps=st.one_of(st.integers(1, 40), st.integers(41, 3000)),
       replicas=st.integers(1, 300),
       seed=st.integers(0, 2**63 - 1),
       budget=st.sampled_from([None, 5, 64, 1000]))
def test_rw_early_exit_matches_full_matrix(spec, n_steps, replicas, seed,
                                           budget):
    cap = budget or estimators._WALK_DRAW_BUDGET
    with mock.patch.object(estimators, "_WALK_DRAW_BUDGET", cap):
        rep = rw_nonneg_bound(spec, n_steps, replicas, seed)
    hits = _rw_hits_full_matrix(spec, n_steps, replicas, seed)
    assert rep.q_hat == fraction_estimate(hits, replicas)


def test_rw_early_exit_draw_budget_and_keys(monkeypatch):
    spec = walk_spec((-1, 1), (0.475, 0.525))
    calls = []

    def recording_uniform(seed, tag, sx, sy, index):
        u = uniform_array(seed, tag, sx, sy, index)
        calls.append(np.broadcast_arrays(sx, sy))
        return u

    monkeypatch.setattr(estimators, "_WALK_DRAW_BUDGET", 1000)
    monkeypatch.setattr(estimators, "uniform_array", recording_uniform)
    rep = rw_nonneg_bound(spec, 777, replicas=2500, seed=5)
    assert rep.q_hat == fraction_estimate(
        _rw_hits_full_matrix(spec, 777, 2500, 5), 2500)
    # the first block of 1000 live walks is cut from 16 steps to 1
    assert calls[0][0].shape == (1000, 1)
    assert max(w.size for w, _ in calls) <= 1000
    keys = np.concatenate([(w * 1000 + k).ravel() for w, k in calls])
    assert np.unique(keys).size == keys.size      # no key drawn twice
    assert keys.size < 2500 * 777                 # dead walks stop drawing


@pytest.mark.parametrize("values,probs", [((1, 0, -1), (0.7, 0.2, 0.1)),
                                          (tuple(range(-4, 6)), (0.1,) * 10)])
def test_rw_step_lookup_at_largest_uniform(monkeypatch, values, probs):
    """The probabilities sum to 1 - 2**-53, the largest uniform."""
    spec = walk_spec(values, probs)
    assert np.cumsum(probs)[-1] <= np.nextafter(1.0, 0.0)
    monkeypatch.setattr(
        estimators, "uniform_array",
        lambda seed, tag, sx, sy, index: np.full(
            np.broadcast(sx, sy).shape, np.nextafter(1.0, 0.0)))
    rep = rw_nonneg_bound(spec, 20, replicas=10, seed=1)
    # every step takes the last value of the law
    assert rep.q_hat.estimate == (1.0 if values[-1] >= 0 else 0.0)


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

def _influence_oracle(p, n, v, i, replicas, seed):
    """Recompute the influence sample by substituting the enforced-bit
    weights into the field and rerunning the full passage DP."""
    out = np.empty(replicas)
    for r in range(replicas):
        cfg = WeightConfig(p, derive_seed(seed, Stream.REPLICA, r),
                           Rect((0, 0), (n, n)))
        w = weights(cfg)
        w_v = int(w[v])
        bits = site_bits(cfg, v, max(i + 1, w_v + 1) + 200)
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


def test_sandwich_thread_invariance():
    a = sandwich_experiment(0.5, (12, 12), 0.14, replicas=60, seed=41, threads=1)
    b = sandwich_experiment(0.5, (12, 12), 0.14, replicas=60, seed=41, threads=3)
    assert a.frequency.estimate == b.frequency.estimate
    assert a.y_mean.estimate == b.y_mean.estimate


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
    res = transversal_exponent(0.5, (8, 16, 32), replicas=60, seed=47, n_boot=100)
    assert res.fit.scales == (8, 16, 32)
    assert all(m > 0 for m in res.fit.statistic)
    assert res.fit.statistic[0] < res.fit.statistic[-1]


def test_heatmap_counts():
    hm = geodesic_heatmap(0.5, 10, replicas=80, seed=53)
    assert hm.counts.shape == (11, 11)
    assert hm.counts[0, 0] == 80 and hm.counts[10, 10] == 80  # corners always on
    assert hm.counts.max() <= 80
    freq = hm.counts / 80
    assert 0 <= freq.min() and freq.max() <= 1


def test_envelope_frequencies_increase_with_width():
    rows = envelope_frequencies(0.5, 32, (1, 4, 16), replicas=60, seed=59)
    widths = [w for w, _ in rows]
    fracs = [e.estimate for _, e in rows]
    assert widths == [1, 4, 16]
    assert fracs[0] <= fracs[1] <= fracs[2]
    assert all(0 <= f <= 1 for f in fracs)


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
