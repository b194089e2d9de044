"""Monte Carlo experiments and exact brute-force estimators.

Every experiment derives one sub-seed per replica from its master seed,
so results are pure functions of ``(seed, parameters)`` and identical
regardless of how replicas are scheduled across threads.  Paired
designs (noise correlations across several times, coupled dynamics)
reuse the same replica sub-seed so all coupling happens through the
keyed randomness itself.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .lattice import (NoiseKind, NoisyPair, Rect, WeightConfig, coupled_cap,
                      coupled_fields, noisy_weights, site_bits, weights)
from .lpp import backward_table, forward_table, geodesic_report, travel_time
from .rng import Stream, derive_seed, uniform_array
from .stationary import build_stationary

__all__ = [
    "EstimateWithCI",
    "mean_estimate",
    "fraction_estimate",
    "pearson_estimate",
    "pearson_ci_calibration",
    "CorrDecayResult",
    "corr_decay",
    "corr_difference_ci",
    "ExponentFit",
    "VarianceScalingResult",
    "variance_scaling",
    "HeatmapResult",
    "geodesic_heatmap",
    "diagonal_scaled_frequency",
    "antidiagonal_frequencies",
    "TransversalResult",
    "transversal_exponent",
    "envelope_frequencies",
    "WalkSpec",
    "walk_spec",
    "rw_exact_nonneg",
    "RwBoundReport",
    "rw_nonneg_bound",
    "SandwichReport",
    "sandwich_experiment",
    "bit_influence_on_Tn",
    "VisitInfluenceRow",
    "visit_vs_influence",
    "resample_covariance_exact",
    "MonotonicityReport",
    "covariance_monotonicity_bruteforce",
    "NoiseComparisonReport",
    "noise_comparison",
]

_Z95 = float(stats.norm.ppf(0.975))


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with a 95% confidence interval."""

    estimate: float
    stderr: float
    ci_low: float
    ci_high: float
    replicas: int
    degenerate: bool = False
    seed: int | None = None


def mean_estimate(samples: np.ndarray) -> EstimateWithCI:
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    se = float(x.std(ddof=1) / np.sqrt(n))
    mu = float(x.mean())
    return EstimateWithCI(mu, se, mu - _Z95 * se, mu + _Z95 * se, n)


def fraction_estimate(hits: int, n: int) -> EstimateWithCI:
    if n < 1:
        raise ValueError("need at least one trial")
    f = hits / n
    se = float(np.sqrt(f * (1.0 - f) / n))
    return EstimateWithCI(f, se, max(0.0, f - _Z95 * se),
                          min(1.0, f + _Z95 * se), n)


def pearson_estimate(x: np.ndarray, y: np.ndarray) -> EstimateWithCI:
    """Pearson correlation with a Fisher-z interval.

    Zero-variance samples are flagged degenerate (no CI); identical
    samples give the exact estimate 1 with a collapsed interval.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if n != y.size or n < 4:
        raise ValueError("need paired samples, at least 4")
    if np.array_equal(x, y):
        return EstimateWithCI(1.0, 0.0, 1.0, 1.0, n)
    if x.std() == 0.0 or y.std() == 0.0:
        return EstimateWithCI(float("nan"), float("nan"), float("nan"),
                              float("nan"), n, degenerate=True)
    r = float(np.corrcoef(x, y)[0, 1])
    r = max(min(r, 1.0 - 1e-15), -1.0 + 1e-15)
    z = np.arctanh(r)
    se = 1.0 / np.sqrt(n - 3)
    return EstimateWithCI(r, float(se * (1 - r * r)),
                          float(np.tanh(z - _Z95 * se)),
                          float(np.tanh(z + _Z95 * se)), n)


def pearson_ci_calibration(rho: float, n_pairs: int, trials: int,
                           seed: int) -> int:
    """Count of Fisher-z CIs covering a known correlation on synthetic
    bivariate normal data (keyed Box-Muller draws)."""
    covered = 0
    c = np.sqrt(1.0 - rho * rho)
    for trial in range(trials):
        sub = derive_seed(seed, Stream.GENERIC, trial)
        idx = np.arange(n_pairs, dtype=np.int64)
        u1 = uniform_array(sub, Stream.GENERIC, idx, 0, 0)
        u2 = uniform_array(sub, Stream.GENERIC, idx, 1, 0)
        rad = np.sqrt(-2.0 * np.log1p(-u1))
        z1 = rad * np.cos(2.0 * np.pi * u2)
        z2 = rad * np.sin(2.0 * np.pi * u2)
        est = pearson_estimate(z1, rho * z1 + c * z2)
        covered += est.ci_low <= rho <= est.ci_high
    return covered


def _replica_map(fn, replicas: int, threads: int) -> list:
    if threads <= 1:
        return [fn(r) for r in range(replicas)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, range(replicas)))


def _square(n: int) -> Rect:
    return Rect((0, 0), (n, n))


# ---------------------------------------------------------------- noise decay

@dataclass(frozen=True)
class CorrDecayResult:
    p: float
    n: int
    kind: NoiseKind
    t_values: tuple[float, ...]
    estimates: tuple[EstimateWithCI, ...]
    replicas: int
    seed: int
    # per-replica travel times: column 0 the base field, then one
    # column per noise time (common random numbers)
    samples: np.ndarray = None


def corr_difference_ci(res: CorrDecayResult, k: int, l: int,
                       n_boot: int = 1000) -> EstimateWithCI:
    """Bootstrap CI for corr(T, T^{t_k}) - corr(T, T^{t_l}).

    The paired design (shared base field and clocks) makes this far
    tighter than comparing the two marginal intervals."""
    x = res.samples
    if x is None or not (0 <= k < len(res.t_values) > l >= 0):
        raise ValueError("need stored samples and valid time indices")
    base, a, b = x[:, 0], x[:, 1 + k], x[:, 1 + l]
    diff = float(np.corrcoef(base, a)[0, 1] - np.corrcoef(base, b)[0, 1])
    rng = np.random.default_rng(derive_seed(res.seed, Stream.GENERIC, 10**6))
    boots = np.empty(n_boot)
    m = base.size
    for j in range(n_boot):
        idx = rng.integers(0, m, m)
        boots[j] = (np.corrcoef(base[idx], a[idx])[0, 1]
                    - np.corrcoef(base[idx], b[idx])[0, 1])
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return EstimateWithCI(diff, float(boots.std(ddof=1)), float(lo),
                          float(hi), m)


def corr_decay(p: float, n: int, t_values, kind: NoiseKind, replicas: int,
               seed: int, threads: int = 1) -> CorrDecayResult:
    """corr(T_n(omega), T_n(omega^t)) over a grid of noise times.

    One base field per replica; all times share its randomness (common
    random numbers), so estimates across t are positively coupled.
    """
    t_values = tuple(float(t) for t in t_values)
    if any(t < 0 for t in t_values):
        raise ValueError("noise times must be >= 0")
    if replicas < 30:
        raise ValueError(f"need >= 30 replicas, got {replicas}")

    def one(r: int) -> tuple[float, ...]:
        cfg = WeightConfig(p, derive_seed(seed, Stream.REPLICA, r), _square(n))
        base = weights(cfg)
        t0 = travel_time(base)
        out = [t0]
        for t in t_values:
            if t == 0.0:
                out.append(t0)
            else:
                out.append(travel_time(noisy_weights(NoisyPair(cfg, t, kind))))
        return tuple(out)

    rows = np.array(_replica_map(one, replicas, threads), dtype=np.float64)
    ests = tuple(pearson_estimate(rows[:, 0], rows[:, 1 + k])
                 for k in range(len(t_values)))
    return CorrDecayResult(p, n, kind, t_values, ests, replicas, seed, rows)


# ------------------------------------------------------------ exponent fits

@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log statistic against log scale, with a
    bootstrap percentile CI (resampling replicas within each scale)."""

    scales: tuple[int, ...]
    statistic: tuple[float, ...]
    slope: float
    ci_low: float
    ci_high: float
    n_boot: int


def _bootstrap_slope(log_n: np.ndarray, samples: list[np.ndarray], stat_fn,
                     n_boot: int, seed: int) -> ExponentFit:
    point = np.array([stat_fn(s) for s in samples])
    if (point <= 0).any():
        raise ValueError("statistic must be positive for a log-log fit")
    slope = float(np.polyfit(log_n, np.log(point), 1)[0])
    rng = np.random.default_rng(seed)
    boots = np.empty(n_boot)
    for b in range(n_boot):
        ys = np.array([stat_fn(s[rng.integers(0, s.size, s.size)])
                       for s in samples])
        boots[b] = np.polyfit(log_n, np.log(np.maximum(ys, 1e-300)), 1)[0]
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return ExponentFit(tuple(int(np.exp(v) + 0.5) for v in log_n),
                       tuple(point), slope, float(lo), float(hi), n_boot)


@dataclass(frozen=True)
class VarianceScalingResult:
    p: float
    fit: ExponentFit
    means_over_n: tuple[float, ...]
    replicas: int
    seed: int


def variance_scaling(p: float, n_list, replicas: int, seed: int,
                     n_boot: int = 1000, threads: int = 1) -> VarianceScalingResult:
    """Var(T_n) against n on a log-log scale (KPZ exponent 2/3)."""
    n_list = [int(n) for n in n_list]
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("need at least three strictly increasing scales")
    if replicas < 2:
        raise ValueError(f"need >= 2 replicas, got {replicas}")
    samples = []
    for pos, n in enumerate(n_list):
        def one(r: int, n=n, pos=pos) -> float:
            sub = derive_seed(seed, Stream.REPLICA, pos * replicas + r)
            return float(travel_time(weights(WeightConfig(p, sub, _square(n)))))
        samples.append(np.array(_replica_map(one, replicas, threads)))
    fit = _bootstrap_slope(np.log(np.array(n_list, dtype=float)), samples,
                           lambda s: s.var(ddof=1), n_boot,
                           derive_seed(seed, Stream.GENERIC, 10**6))
    means = tuple(float(s.mean() / n) for s, n in zip(samples, n_list))
    return VarianceScalingResult(p, fit, means, replicas, seed)


# ------------------------------------------------------------- geodesic maps

@dataclass(frozen=True)
class HeatmapResult:
    p: float
    n: int
    replicas: int
    counts: np.ndarray
    seed: int


def geodesic_heatmap(p: float, n: int, replicas: int, seed: int,
                     threads: int = 1) -> HeatmapResult:
    """Per-site visit counts of the full geodesic set of T_n."""
    if replicas < 1:
        raise ValueError("need at least one replica")

    def one(r: int) -> np.ndarray:
        cfg = WeightConfig(p, derive_seed(seed, Stream.REPLICA, r), _square(n))
        return geodesic_report(weights(cfg)).member_mask

    masks = _replica_map(one, replicas, threads)
    counts = np.zeros((n + 1, n + 1), dtype=np.int64)
    for m in masks:
        counts += m
    return HeatmapResult(p, n, replicas, counts, seed)


def diagonal_scaled_frequency(hm: HeatmapResult) -> float:
    """Midpoint visit frequency scaled by (n / log n)^(2/3)."""
    n = hm.n
    freq = hm.counts[n // 2, n // 2] / hm.replicas
    return float(freq * (n / np.log(n)) ** (2.0 / 3.0))


def antidiagonal_frequencies(hm: HeatmapResult, s_values) -> list[tuple[float, float]]:
    """Visit frequencies at v = (n/2 + d, n/2 - d), d = s n^(2/3) / 2."""
    n = hm.n
    out = []
    for s in s_values:
        d = int(np.ceil(s * n ** (2.0 / 3.0) / 2.0))
        if n // 2 + d > n:
            raise ValueError(f"offset s={s} leaves the rectangle")
        out.append((float(s), float(hm.counts[n // 2 + d, n // 2 - d] / hm.replicas)))
    return out


@dataclass(frozen=True)
class TransversalResult:
    p: float
    fit: ExponentFit
    replicas: int
    seed: int


def transversal_exponent(p: float, n_list, replicas: int, seed: int,
                         n_boot: int = 1000, threads: int = 1) -> TransversalResult:
    """Median midline deviation of the upmost geodesic against n.

    The statistic at scale n is max |x2 - n/2| over the points of the
    upmost geodesic on the vertical line x1 = n/2.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("need at least three strictly increasing scales")
    samples = []
    for pos, n in enumerate(n_list):
        def one(r: int, n=n, pos=pos) -> float:
            sub = derive_seed(seed, Stream.REPLICA, pos * replicas + r)
            cfg = WeightConfig(p, sub, _square(n))
            path = geodesic_report(weights(cfg)).upmost
            mid = path[path[:, 0] == n // 2, 1]
            return float(np.max(np.abs(mid - n / 2.0)))
        samples.append(np.array(_replica_map(one, replicas, threads)))
    fit = _bootstrap_slope(np.log(np.array(n_list, dtype=float)), samples,
                           lambda s: float(np.median(s)), n_boot,
                           derive_seed(seed, Stream.GENERIC, 10**6 + 1))
    return TransversalResult(p, fit, replicas, seed)


def envelope_frequencies(p: float, n: int, widths, replicas: int, seed: int,
                         alpha: float = 0.75,
                         threads: int = 1) -> list[tuple[int, EstimateWithCI]]:
    """P(the whole geodesic set stays in the antidiagonal envelope
    |v2 - v1| <= min(|v|_1, 2n - |v|_1)^alpha + width)."""
    widths = [int(w) for w in widths]
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    dist = np.minimum(i + j, 2 * n - i - j).astype(float)
    margin = np.abs(j - i) - dist ** alpha

    def one(r: int) -> np.ndarray:
        cfg = WeightConfig(p, derive_seed(seed, Stream.REPLICA, r), _square(n))
        mask = geodesic_report(weights(cfg)).member_mask
        return np.array([not (mask & (margin > w)).any() for w in widths])

    inside = np.array(_replica_map(one, replicas, threads))
    return [(w, fraction_estimate(int(inside[:, k].sum()), replicas))
            for k, w in enumerate(widths)]


# ------------------------------------------------------------- walk bounds

@dataclass(frozen=True)
class WalkSpec:
    """Integer step distribution with mean >= 0 used by the first-entry
    bound P(S_k >= 0 for k <= N) <= 4 sigma / (delta sqrt(N)) + mu / delta."""

    values: tuple[int, ...]
    probs: tuple[float, ...]
    mu: float
    sigma: float
    delta: float


def walk_spec(values, probs) -> WalkSpec:
    values = tuple(int(v) for v in values)
    probs = tuple(float(q) for q in probs)
    if len(values) != len(probs) or not values:
        raise ValueError("values and probs must be matching nonempty tuples")
    if (not all(math.isfinite(q) and q >= 0 for q in probs)
            or abs(sum(probs) - 1.0) > 1e-12):
        raise ValueError("probs must be a probability vector")
    v = np.array(values, dtype=float)
    q = np.array(probs)
    mu = float(np.dot(q, v))
    sigma = float(np.sqrt(np.dot(q, (v - mu) ** 2)))
    delta = float(q[v >= 1].sum())
    if mu < 0:
        raise ValueError(f"drift must be >= 0, got {mu}")
    if sigma <= 0:
        raise ValueError("step distribution must have positive variance")
    if delta <= 0:
        raise ValueError("need P(X >= 1) > 0")
    return WalkSpec(values, probs, mu, sigma, delta)


def rw_exact_nonneg(spec: WalkSpec, n_steps: int) -> float:
    """Exact P(S_1..S_N all >= 0) by transition enumeration."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    top = n_steps * max(max(spec.values), 0)
    dist = np.zeros(top + 1)
    dist[0] = 1.0
    for _ in range(n_steps):
        nxt = np.zeros_like(dist)
        for v, q in zip(spec.values, spec.probs):
            if v >= 0:
                nxt[v:] += q * dist[:dist.size - v if v else dist.size]
            else:
                nxt[:v] += q * dist[-v:]
        dist = nxt
    return float(dist.sum())


# Steps in rw_nonneg_bound's first block, and the most keys one block
# draws (2**21 float64 uniforms are 16 MiB).
_WALK_FIRST_BLOCK = 16
_WALK_DRAW_BUDGET = 2**21


@dataclass(frozen=True)
class RwBoundReport:
    spec: WalkSpec
    n_steps: int
    bound: float
    q_hat: EstimateWithCI
    exact: float | None
    replicas: int
    seed: int


def rw_nonneg_bound(spec: WalkSpec, n_steps: int, replicas: int,
                    seed: int) -> RwBoundReport:
    """Simulated stay-nonnegative probability against the closed bound.

    Step ``k`` of walk ``w`` is the keyed draw ``(seed, GENERIC, w, k, 0)``.
    Walks advance in blocks of steps (16, then doubling) and a walk that
    has gone negative is dropped, so it draws no further keys; skipping a
    draw leaves every other draw unchanged, so the hit count equals the
    one from simulating all N steps of every walk.  A block holds at most
    ``_WALK_DRAW_BUDGET`` draws (alive walks x steps), which bounds memory
    for any ``replicas`` and ``n_steps``.

    An exact value is attached for the two-point support {-1, +1} with
    N <= 24 (transition enumeration elsewhere in tests)."""
    if replicas < 1:
        raise ValueError("need at least one replica")
    # Searching all but the last cut point maps every u in [0, 1) to a
    # valid index even when the probabilities sum to just under 1.
    cuts = np.cumsum(spec.probs)[:-1]
    vals = np.array(spec.values, dtype=np.int64)
    hits = 0
    for first in range(0, replicas, _WALK_DRAW_BUDGET):
        walk = np.arange(first, min(first + _WALK_DRAW_BUDGET, replicas),
                         dtype=np.int64)
        pos = np.zeros(walk.size, dtype=np.int64)
        step, block = 0, _WALK_FIRST_BLOCK
        while walk.size and step < n_steps:
            size = min(block, n_steps - step, _WALK_DRAW_BUDGET // walk.size)
            steps = np.arange(step, step + size, dtype=np.int64)
            u = uniform_array(seed, Stream.GENERIC, walk[:, None],
                              steps[None, :], 0)
            path = np.cumsum(vals[np.searchsorted(cuts, u, side="right")],
                             axis=1)
            path += pos[:, None]
            alive = path.min(axis=1) >= 0
            walk, pos = walk[alive], path[alive, -1]
            step += size
            block *= 2
        hits += walk.size
    bound = 4.0 * spec.sigma / (spec.delta * np.sqrt(n_steps)) + spec.mu / spec.delta
    exact = None
    if set(spec.values) <= {-1, 1} and n_steps <= 24:
        exact = rw_exact_nonneg(spec, n_steps)
    return RwBoundReport(spec, n_steps, float(bound),
                         fraction_estimate(hits, replicas), exact,
                         replicas, seed)


# -------------------------------------------------- boundary sandwich checks

@dataclass(frozen=True)
class SandwichReport:
    p: float
    v: tuple[int, int]
    s: float
    k: int
    lam_minus: float
    lam_plus: float
    lam_hat_plus: float
    frequency: EstimateWithCI
    y_mean: EstimateWithCI
    replicas: int
    seed: int


def sandwich_experiment(p: float, v: tuple[int, int], s: float, replicas: int,
                        seed: int, threads: int = 1) -> SandwichReport:
    """Frequency of the two-sided boundary bound on the increments
    Delta_j around the origin of the rectangle from -v to w = n e_+ - v
    (n = |v|_1), for 1 <= |j| <= k, k = floor(2 s |v|_1^(2/3)) + 1:

        omega^V_{j e2}(lam-) <= Delta_j <= omega^V_{j e2}(lam+),

    with lam+- = 1/2 +- 8 s |v|_1^(-1/3) and boundary fields sharing the
    plain field's bulk weights.  Also samples Y_j, the difference
    between the reflected-construction upper column at lam_hat+ and the
    lower column at lam-, whose mean is >= 0 and O(s |v|_1^(-1/3)).
    """
    v1, v2 = int(v[0]), int(v[1])
    size = v1 + v2
    if v1 < 1 or v2 < 1:
        raise ValueError(f"v must be positive componentwise, got {v}")
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    if abs(v2 - v1) > s * size ** (2.0 / 3.0):
        raise ValueError(f"v={v} is farther than s|v|^(2/3) off the diagonal")
    if s > size ** (1.0 / 3.0) / 18.0:
        raise ValueError(
            f"s={s} exceeds |v|_1^(1/3)/18 = {size ** (1/3) / 18.0:.4f}; "
            "the boundary densities would leave (0, 1)")
    w1, w2 = size - v1, size - v2
    k = int(np.floor(2.0 * s * size ** (2.0 / 3.0))) + 1
    if k + 1 > min(v2, w2):
        raise ValueError(f"window k={k} does not fit below min(v2, w2)")
    shift = 8.0 * s * size ** (-1.0 / 3.0)
    lam_minus, lam_plus = 0.5 - shift, 0.5 + shift
    lam_hat_plus = 0.5 + 8.0 * s * (size - 1) ** (-1.0 / 3.0)

    def one(r: int) -> tuple[bool, float]:
        sub = derive_seed(seed, Stream.REPLICA, r)
        # plain weights on the columns up to the origin, rows up to +k
        cfg_lo = WeightConfig(p, sub, Rect((-v1, -v2), (0, k)))
        w_lo = weights(cfg_lo)
        f = forward_table(w_lo)
        delta = np.diff(f[v1, :])                  # Delta_j at index v2 + j - 1
        get_col = {}
        for tag, lam in ((1, lam_minus), (2, lam_plus)):
            sf = build_stationary(p, lam, (v1, v2 + k),
                                  derive_seed(sub, Stream.GENERIC, tag),
                                  base=(-v1, -v2), bulk=w_lo)
            get_col[tag] = np.diff(sf.G[v1, :])    # omega^V at the origin column
        lo_col, hi_col = get_col[1], get_col[2]
        js = np.concatenate([np.arange(-k, 0), np.arange(1, k + 1)]) + v2 - 1
        ok = bool(np.all((lo_col[js] <= delta[js]) & (delta[js] <= hi_col[js])))
        # reflected construction: bulk at hat-grid (i, j) is the plain
        # weight at w - (i, j); its V-increments at the hat column w1 - 1
        # give the upper bounds on -Delta'_j
        cfg_hat = WeightConfig(p, sub, Rect((1, -k - 1), (w1 - 1, w2 - 1)))
        bulk_hat = np.zeros((w1, w2 + k + 2), dtype=np.int64)
        bulk_hat[1:, 1:] = weights(cfg_hat)[::-1, ::-1]
        sf_hat = build_stationary(p, lam_hat_plus, (w1 - 1, w2 + k + 1),
                                  derive_seed(sub, Stream.GENERIC, 3),
                                  bulk=bulk_hat)
        inc_hat = np.diff(sf_hat.G[w1 - 1, :])
        # hat increment at hat-height w2 + 1 - j corresponds to original
        # site e1 + (j - 1) e2
        y = inc_hat[w2 - np.arange(1, k + 1)] - lo_col[v2 + np.arange(1, k + 1) - 1]
        return ok, float(y.mean())

    rows = _replica_map(one, replicas, threads)
    freq = fraction_estimate(sum(ok for ok, _ in rows), replicas)
    y_mean = mean_estimate(np.array([ym for _, ym in rows]))
    return SandwichReport(p, (v1, v2), s, k, lam_minus, lam_plus, lam_hat_plus,
                          freq, y_mean, replicas, seed)


# ----------------------------------------------- bit influences on T_n

_AVOID = -(2 ** 40)


def _site_weight_variants(cfg: WeightConfig, v: tuple[int, int], i: int,
                          w_v: int) -> tuple[int, int]:
    """Site weights after forcing bit i to 1 and to 0."""
    up = min(w_v, i)
    if w_v != i:
        return up, w_v
    # forcing the first one to zero: the weight becomes the next set bit
    count = i + 64
    while count <= 10 ** 6:
        bits = site_bits(cfg, v, count)
        later = np.flatnonzero(bits[i + 1:])
        if later.size:
            return up, i + 1 + int(later[0])
        count *= 2
    raise RuntimeError("bit scan exceeded the safety cap")


def _influence_rows(p: float, n: int, v_list, i_max: int, replicas: int,
                    seed: int, threads: int):
    """Per-replica influence samples |E_xi T(sigma^xi)| - T| and visit
    indicators for each listed site."""
    v_list = [tuple(v) for v in v_list]

    def one(r: int):
        cfg = WeightConfig(p, derive_seed(seed, Stream.REPLICA, r), _square(n))
        w = weights(cfg)
        f, b = forward_table(w), backward_table(w)
        total = int(f[-1, -1])
        mask = (f + b - w) == total
        samp = np.zeros((len(v_list), i_max + 1))
        visits = np.zeros(len(v_list), dtype=bool)
        for a, v in enumerate(v_list):
            visits[a] = mask[v]
            w_v = int(w[v])
            # best path sum through v with v's own weight removed
            base_path = int(f[v] + b[v]) - 2 * w_v
            wmod = w.copy()
            wmod[v] = _AVOID
            t_avoid = travel_time(wmod)
            for i in range(i_max + 1):
                up, down = _site_weight_variants(cfg, v, i, w_v)
                mean_flip = (p * max(t_avoid, base_path + up)
                             + (1.0 - p) * max(t_avoid, base_path + down))
                samp[a, i] = abs(mean_flip - total)
        return samp, visits

    rows = _replica_map(one, replicas, threads)
    samples = np.stack([s for s, _ in rows])          # (replicas, sites, bits)
    visits = np.stack([vi for _, vi in rows])         # (replicas, sites)
    return samples, visits


def bit_influence_on_Tn(p: float, n: int, v: tuple[int, int], i: int,
                        replicas: int, seed: int,
                        threads: int = 1) -> EstimateWithCI:
    """Influence of encoding bit (v, i) on T_n: E|E_xi[T_n o sigma] - T_n|.

    The inner expectation over the forced bit is computed exactly from
    the two flipped travel times; only the field is sampled.  A site
    outside the rectangle has exact influence 0.
    """
    if i < 0:
        raise ValueError(f"bit index must be >= 0, got {i}")
    if not _square(n).contains(v):
        return EstimateWithCI(0.0, 0.0, 0.0, 0.0, replicas)
    samples, _ = _influence_rows(p, n, [v], i, replicas, seed, threads)
    return mean_estimate(samples[:, 0, i])


@dataclass(frozen=True)
class VisitInfluenceRow:
    v: tuple[int, int]
    visit_freq: EstimateWithCI
    bit_influences: tuple[float, ...]
    influence_sq_sum: float
    ratio: float


def visit_vs_influence(p: float, n: int, replicas: int, seed: int,
                       v_list=None, i_max: int = 8, delta: float = 0.5,
                       threads: int = 1) -> list[VisitInfluenceRow]:
    """Summed squared bit influences against visit probabilities.

    Each row reports sum_i I_hat(v, i)^2 and the ratio against
    P_hat(v in geodesic set)^(2 - delta); the square-function bound
    predicts a bounded ratio."""
    if v_list is None:
        qs = sorted({max(1, n // 8), n // 4, n // 2, 3 * n // 4})
        v_list = [(q, q) for q in qs]
        v_list += [(3 * n // 4, n // 4), (n // 4, 3 * n // 4)]
    samples, visits = _influence_rows(p, n, v_list, i_max, replicas, seed,
                                      threads)
    out = []
    for a, v in enumerate(v_list):
        inf_means = samples[:, a, :].mean(axis=0)
        s2 = float(np.sum(inf_means ** 2))
        freq = fraction_estimate(int(visits[:, a].sum()), replicas)
        base = max(freq.estimate, 1.0 / replicas)
        out.append(VisitInfluenceRow(tuple(v), freq,
                                     tuple(float(x) for x in inf_means), s2,
                                     s2 / base ** (2.0 - delta)))
    return out


# ------------------------------------- resampling covariance monotonicity

def resample_covariance_exact(probs: list, f_vals: np.ndarray,
                              subset) -> float:
    """Cov(f(Y), f(Y^S)) by full enumeration of all (Y, Y') pairs.

    ``probs[c]`` is the distribution of coordinate c, ``f_vals`` the
    value table indexed by coordinate outcomes, and ``subset`` the
    coordinates replaced by the independent copy."""
    f_vals = np.asarray(f_vals, dtype=np.float64)
    d = f_vals.ndim
    subset = frozenset(int(c) for c in subset)
    if not subset <= set(range(d)):
        raise ValueError(f"subset {sorted(subset)} out of range for {d} coords")
    pv = [np.asarray(q, dtype=np.float64) for q in probs]
    if len(pv) != d or any(q.size != s for q, s in zip(pv, f_vals.shape)):
        raise ValueError("probs must match the value table axes")
    if any(abs(q.sum() - 1.0) > 1e-12 or (q < 0).any() for q in pv):
        raise ValueError("each coordinate law must be a probability vector")
    shape = f_vals.shape
    outcomes = np.array(list(np.ndindex(*shape)), dtype=np.int64)
    weights_full = np.ones(len(outcomes))
    for c in range(d):
        weights_full *= pv[c][outcomes[:, c]]
    strides = np.array(f_vals.strides, dtype=np.int64) // f_vals.itemsize
    keep = np.array([0 if c in subset else 1 for c in range(d)], dtype=np.int64)
    base_keep = outcomes @ (strides * keep)
    base_res = outcomes @ (strides * (1 - keep))
    flat = f_vals.ravel()
    mixed = flat[base_keep[:, None] + base_res[None, :]]
    wf = weights_full * flat
    e_ff = float(wf @ mixed @ weights_full)
    e_f = float(wf.sum())
    return e_ff - e_f * e_f


@dataclass(frozen=True)
class MonotonicityReport:
    cov_small: float
    cov_big: float
    holds: bool


def covariance_monotonicity_bruteforce(probs: list, f_vals: np.ndarray,
                                       subset_small,
                                       subset_big) -> MonotonicityReport:
    """Exact check that resampling more coordinates can only lower
    Cov(f(Y), f(Y^S)); the subsets must be nested."""
    small = frozenset(int(c) for c in subset_small)
    big = frozenset(int(c) for c in subset_big)
    if not small <= big:
        raise ValueError(f"{sorted(small)} is not a subset of {sorted(big)}")
    c_small = resample_covariance_exact(probs, f_vals, small)
    c_big = resample_covariance_exact(probs, f_vals, big)
    return MonotonicityReport(c_small, c_big, c_small >= c_big - 1e-12)


# ----------------------------------------------- coupled dynamics comparison

@dataclass(frozen=True)
class NoiseComparisonReport:
    p: float
    n: int
    t: float
    cap: int
    corr_bit: EstimateWithCI
    corr_site: EstimateWithCI
    corr_diff: EstimateWithCI
    cov_capped_bit: float
    cov_capped_site: float
    cap_gap_fraction: float
    replicas: int
    seed: int


def noise_comparison(p: float, n: int, t: float, replicas: int, seed: int,
                     threads: int = 1) -> NoiseComparisonReport:
    """Bit dynamics at t against site dynamics at M t under the coupled
    clocks, capped at M = coupled_cap(n, p).

    Reports both correlations with T_n(omega), a bootstrap CI for their
    difference, the two capped covariances whose ordering is the heart
    of the coupling argument, and the capped-vs-uncapped covariance gap
    as a fraction of Var T_n."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t > 0 and t > 1.0 / np.log(n):
        raise ValueError(f"t={t} outside the small-time regime 1/log n")
    if replicas < 30:
        raise ValueError(f"need >= 30 replicas, got {replicas}")
    cap = coupled_cap(n, p)

    def one(r: int):
        cfg = WeightConfig(p, derive_seed(seed, Stream.REPLICA, r), _square(n))
        cf = coupled_fields(NoisyPair(cfg, t, NoiseKind.COUPLED, cap))
        return (travel_time(cf.base), travel_time(cf.bit_t),
                travel_time(cf.site_mt), travel_time(cf.base_capped),
                travel_time(cf.bit_t_capped), travel_time(cf.site_mt_capped))

    rows = np.array(_replica_map(one, replicas, threads), dtype=np.float64)
    t0, tb, ts, t0c, tbc, tsc = rows.T
    corr_bit = pearson_estimate(t0, tb)
    corr_site = pearson_estimate(t0, ts)
    rng = np.random.default_rng(derive_seed(seed, Stream.GENERIC, 10**6 + 2))
    boots = np.empty(1000)
    for b in range(1000):
        idx = rng.integers(0, replicas, replicas)
        boots[b] = (np.corrcoef(t0[idx], ts[idx])[0, 1]
                    - np.corrcoef(t0[idx], tb[idx])[0, 1])
    diff = corr_site.estimate - corr_bit.estimate
    lo, hi = np.percentile(boots, [2.5, 97.5])
    corr_diff = EstimateWithCI(diff, float(boots.std(ddof=1)), float(lo),
                               float(hi), replicas)
    def cov(a, b):
        return float(np.cov(a, b, ddof=1)[0, 1])
    var0 = float(t0.var(ddof=1))
    gap = abs(cov(t0, tb) - cov(t0c, tbc)) / var0 if var0 > 0 else 0.0
    return NoiseComparisonReport(p, n, t, cap, corr_bit, corr_site, corr_diff,
                                 cov(t0c, tbc), cov(t0c, tsc), gap,
                                 replicas, seed)
