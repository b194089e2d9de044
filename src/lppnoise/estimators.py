"""Monte Carlo experiments and exact brute-force estimators.

Every experiment derives one sub-seed per replica from its master seed,
so results are pure functions of ``(seed, parameters)``.  Paired
designs (noise correlations across several times, coupled dynamics)
reuse the same replica sub-seed so all coupling happens through the
keyed randomness itself.  All lattice replica loops are one loop,
``_per_group``: it cuts the sub-seeds into ``lattice.replica_groups``,
decodes each group as one stack and reduces it to a few numbers per
field (travel times, spans, geodesic visits, bit influences, sandwich
bounds); grouping changes no value.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from .lattice import (NoiseKind, Rect, RngIntegrityError, WeightConfig,
                      coupled_cap, coupled_group, noisy_group, replica_groups,
                      scan_cap, site_bits, weight_group, weights)
from .lpp import (backward_table, forward_table, geodesic_mask, last_row,
                  travel_time, upmost_span)
from .rng import Stream, derive_seed, hash_array, hash_cuts
from .stationary import _boundary_grid, lambda_params

__all__ = [
    "EstimateWithCI",
    "mean_estimate",
    "fraction_estimate",
    "pearson_estimate",
    "CorrDecayResult",
    "corr_decay",
    "corr_difference_ci",
    "ExponentFit",
    "VarianceScalingResult",
    "variance_scaling",
    "HeatmapResult",
    "geodesic_heatmap",
    "diagonal_scaled_frequency",
    "antidiagonal_offset",
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
    "VisitInfluenceRow",
    "visit_vs_influence",
    "resample_covariance_exact",
    "MonotonicityReport",
    "covariance_monotonicity_bruteforce",
    "NoiseComparisonReport",
    "noise_comparison",
]

# float(scipy.stats.norm.ppf(0.975)), written out so that importing this
# module does not load scipy.stats.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with a 95% confidence interval."""

    estimate: float
    stderr: float
    ci_low: float
    ci_high: float
    replicas: int
    degenerate: bool = False


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


# The most resampled indices one bootstrap chunk holds (2**12 int64
# indices are 32 KiB); chunks of 2**16 saved no time and raised the peak
# RSS of a noise-compare batch.
_BOOT_DRAW_BUDGET = 2**12


def _release_freed_heap() -> None:
    """Give the heap pages that freed field decodes left behind back to
    the OS (glibc's ``malloc_trim``).  glibc keeps up to twice its
    adaptive mmap threshold free at the top of the heap, so without this
    the peak RSS of a batch, set when ``numpy.random`` is first imported
    (~5 MB of extension modules), moved by ~3 MB with heap layout alone:
    with the checkout's path length, say."""
    if sys.platform.startswith("linux"):
        import ctypes
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
        if trim is not None:
            trim(0)


def _bootstrap(seed: int, n_boot: int, sizes, stat) -> np.ndarray:
    """``n_boot`` bootstrap values of ``stat``.  Resample ``b`` draws
    ``rng.integers(0, m, m)`` for each ``m`` in ``sizes``, in order, from
    one generator seeded with ``seed``.  Resamples are taken in chunks of
    at most ``_BOOT_DRAW_BUDGET`` indices (one resample at least); ``stat``
    gets one ``(chunk, m)`` array of stacked index arrays per size and
    returns the chunk's values."""
    _release_freed_heap()
    rng = np.random.default_rng(seed)
    boots = np.empty(n_boot)
    chunk = max(1, _BOOT_DRAW_BUDGET // sum(sizes))
    for a in range(0, n_boot, chunk):
        draws = [[rng.integers(0, m, m) for m in sizes]
                 for _ in range(min(chunk, n_boot - a))]
        stacked = [np.array(per_size) for per_size in zip(*draws)]
        boots[a:a + len(draws)] = stat(*stacked)
    return boots


def _square(n: int) -> Rect:
    return Rect((0, 0), (n, n))


def _per_group(stat, p: float, region: Rect, seed: int, first: int,
               count: int, decode=weight_group, *args):
    """``stat(group, decode(p, group, region, *args))``, lazily, for each
    ``replica_groups`` group of the ``count`` replicas from ``first`` on.
    One region per call: the sandwich decodes its second one per replica."""
    seeds = [derive_seed(seed, Stream.REPLICA, r)
             for r in range(first, first + count)]
    for group in replica_groups(seeds, region):
        # stat runs here so a group's stack and temporaries are freed before
        # the next decode; yielding stacks to a caller's loop raised peak RSS
        yield stat(group, decode(p, group, region, *args))


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


def _corr_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.corrcoef(x[b], y[b])[0, 1]`` for every row b of two (B, m)
    arrays, bit for bit: the same steps as ``np.cov`` and ``np.corrcoef``
    (row means, centring, the product with the transpose, scaling by
    1/(m-1), division by the standard deviations along rows and then
    columns, clipping), each on a stack of B 2 x m matrices.  A constant
    row gives NaN, as in ``np.corrcoef``."""
    xy = np.stack((x, y), axis=1).astype(np.float64, copy=False)
    xy -= xy.mean(axis=-1)[..., None]
    c = xy @ xy.transpose(0, 2, 1)
    c *= np.true_divide(1, x.shape[-1] - 1)
    stddev = np.sqrt(np.diagonal(c, axis1=1, axis2=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        c /= stddev[:, :, None]
        c /= stddev[:, None, :]
    np.clip(c, -1, 1, out=c)
    return c[:, 0, 1]


def _corr_diff(base, a, b, idx) -> np.ndarray:
    """corr(base, a) - corr(base, b) on each resample (row) of ``idx``."""
    return _corr_rows(base[idx], a[idx]) - _corr_rows(base[idx], b[idx])


def _boot_estimate(point: float, boots: np.ndarray,
                   samples: int) -> EstimateWithCI:
    """``point`` with the bootstrap standard error and percentile CI.
    A NaN bootstrap value (a constant resample has no correlation) makes
    the CI NaN, and the estimate is flagged degenerate."""
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return EstimateWithCI(point, float(boots.std(ddof=1)), float(lo),
                          float(hi), samples,
                          degenerate=bool(np.isnan(boots).any()))


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
    boots = _bootstrap(derive_seed(res.seed, Stream.GENERIC, 10**6), n_boot,
                       [base.size], lambda i: _corr_diff(base, a, b, i))
    return _boot_estimate(diff, boots, base.size)


def corr_decay(p: float, n: int, t_values, kind: NoiseKind, replicas: int,
               seed: int) -> CorrDecayResult:
    """corr(T_n(omega), T_n(omega^t)) over a grid of noise times.

    One base field per replica; all times share its randomness (common
    random numbers), so estimates across t are positively coupled.
    """
    t_values = tuple(float(t) for t in t_values)
    if any(t < 0 for t in t_values):
        raise ValueError("noise times must be >= 0")
    if replicas < 30:
        raise ValueError(f"need >= 30 replicas, got {replicas}")

    # one member per distinct time; times[0] == 0 is the base field
    times = np.unique((0.0,) + t_values)
    cols = np.searchsorted(times, (0.0,) + t_values)

    region = _square(n)

    def group_rows(_, stack) -> np.ndarray:
        tt = travel_time(stack.reshape((-1,) + region.shape))
        return tt.reshape(times.size, -1).T[:, cols].astype(np.float64)

    rows = np.concatenate([*_per_group(group_rows, p, region, seed, 0,
                                       replicas, noisy_group, times, kind)])
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


def _scale_samples(p: float, n_list, replicas: int, seed: int, stack_stat):
    """The scales as ints, and per scale ``stack_stat`` of each replica
    field as float64; ``stack_stat`` maps a ``weight_group`` stack to one
    value per field, and scale k takes replicas k * replicas onwards."""
    n_list = [int(n) for n in n_list]
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list needs at least three strictly increasing "
                         f"scales, got {list(n_list)}")
    if replicas < 2:
        raise ValueError(f"need >= 2 replicas, got {replicas}")
    return n_list, [np.concatenate([*_per_group(
        lambda _, w: stack_stat(w), p, _square(n), seed, pos * replicas,
        replicas)]).astype(np.float64) for pos, n in enumerate(n_list)]


def _bootstrap_slope(p: float, n_list: list[int], samples: list[np.ndarray],
                     stat_fn, n_boot: int, seed: int) -> ExponentFit:
    """Fit and bootstrap CI of the log-log slope of ``stat_fn`` against
    scale.  ``stat_fn`` reduces the last axis, so one call per scale and
    chunk takes the statistic of every resample in the chunk."""
    def log_stat(values, what: str) -> np.ndarray:
        for n, v in zip(n_list, values):
            if v <= 0:
                raise ValueError(f"{what} is {v:g} at n={n} (p={p}, replicas="
                                 f"{samples[0].size}); a log-log fit needs "
                                 "it > 0")
        return np.log(values)

    point = np.array([stat_fn(s) for s in samples])
    log_n = np.log(np.array(n_list, dtype=float))
    slope = float(np.polyfit(log_n, log_stat(point, "statistic"), 1)[0])

    def refit(*idx):
        stats = np.array([stat_fn(s[i]) for s, i in zip(samples, idx)])
        out = np.empty(stats.shape[1])
        for b in range(out.size):
            out[b] = np.polyfit(log_n, log_stat(
                stats[:, b], "a bootstrap resample's statistic"), 1)[0]
        return out

    boots = _bootstrap(seed, n_boot, [s.size for s in samples], refit)
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return ExponentFit(tuple(n_list), tuple(point), slope, float(lo),
                       float(hi), n_boot)


@dataclass(frozen=True)
class VarianceScalingResult:
    p: float
    fit: ExponentFit
    means_over_n: tuple[float, ...]
    replicas: int
    seed: int


def variance_scaling(p: float, n_list, replicas: int, seed: int,
                     n_boot: int = 1000) -> VarianceScalingResult:
    """Var(T_n) against n on a log-log scale (KPZ exponent 2/3)."""
    n_list, samples = _scale_samples(p, n_list, replicas, seed, travel_time)
    fit = _bootstrap_slope(p, n_list, samples,
                           lambda s: s.var(ddof=1, axis=-1), n_boot,
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


def geodesic_heatmap(p: float, n: int, replicas: int,
                     seed: int) -> HeatmapResult:
    """Per-site visit counts of the full geodesic set of T_n."""
    if replicas < 1:
        raise ValueError("need at least one replica")

    counts = np.zeros((n + 1, n + 1), dtype=np.int64)
    scratch = np.empty((2, n + 1, n + 1), dtype=np.int64)

    def visit(_, ws):
        for w in ws:
            counts[...] += geodesic_mask(w, scratch)

    # visit adds each mask into counts, so the groups are run, not kept
    deque(_per_group(visit, p, _square(n), seed, 0, replicas), maxlen=0)
    return HeatmapResult(p, n, replicas, counts, seed)


def diagonal_scaled_frequency(hm: HeatmapResult) -> float:
    """Midpoint visit frequency scaled by (n / log n)^(2/3)."""
    n = hm.n
    freq = hm.counts[n // 2, n // 2] / hm.replicas
    return float(freq * (n / np.log(n)) ** (2.0 / 3.0))


def antidiagonal_offset(n: int, s: float) -> int:
    """The offset d = ceil(s n^(2/3) / 2) of the antidiagonal site at scale s."""
    return int(np.ceil(s * n ** (2.0 / 3.0) / 2.0))


def antidiagonal_frequencies(hm: HeatmapResult, s_values) -> list[tuple[float, float]]:
    """Visit frequencies at v = (n/2 + d, n/2 - d), d = s n^(2/3) / 2."""
    n = hm.n
    out = []
    for s in s_values:
        d = antidiagonal_offset(n, s)
        # d > n // 2 puts one coordinate below 0 (or above n)
        if d > n // 2:
            raise ValueError(f"offset s={s} leaves the rectangle")
        out.append((float(s), float(hm.counts[n // 2 + d, n // 2 - d] / hm.replicas)))
    return out


@dataclass(frozen=True)
class TransversalResult:
    p: float
    fit: ExponentFit
    replicas: int
    seed: int


def _span_deviation(w: np.ndarray) -> np.ndarray:
    """max |x2 - n/2| over the upmost geodesic's points on x1 = n/2, for
    each field of a stack: the span's ends are the extreme points."""
    n = w.shape[-2] - 1
    a, b = upmost_span(w, n // 2)
    return np.maximum(np.abs(a - n / 2.0), np.abs(b - n / 2.0))


def transversal_exponent(p: float, n_list, replicas: int, seed: int,
                         n_boot: int = 1000) -> TransversalResult:
    """Median midline deviation of the upmost geodesic against n.

    The statistic at scale n is max |x2 - n/2| over the points of the
    upmost geodesic on the vertical line x1 = n/2.
    """
    n_list, samples = _scale_samples(p, n_list, replicas, seed,
                                     _span_deviation)
    fit = _bootstrap_slope(p, n_list, samples,
                           lambda s: np.median(s, axis=-1), n_boot,
                           derive_seed(seed, Stream.GENERIC, 10**6 + 1))
    return TransversalResult(p, fit, replicas, seed)


def _reach(n: int) -> np.ndarray:
    """The envelope's bound min(k, 2n - k)^(3/4) on |v2 - v1|, for each
    antidiagonal v1 + v2 = k, k = 0..2n."""
    k = np.arange(2 * n + 1)
    return np.minimum(k, 2 * n - k).astype(float) ** 0.75


def envelope_frequencies(p: float, n: int, widths, replicas: int,
                         seed: int) -> list[tuple[int, EstimateWithCI]]:
    """P(the whole geodesic set stays in the antidiagonal envelope
    |v2 - v1| <= min(|v|_1, 2n - |v|_1)^(3/4) + width)."""
    if replicas < 1:
        raise ValueError("need at least one replica")
    widths = [int(w) for w in widths]
    reach = _reach(n)
    scratch = np.empty((2, n + 1, n + 1), dtype=np.int64)

    def top(w):
        # the widest margin on the geodesic set of a field; the mask holds
        # both corners, so it is never empty
        i, j = geodesic_mask(w, scratch).nonzero()
        return (np.abs(j - i) - reach[i + j]).max()

    tops = np.concatenate([*_per_group(lambda _, ws: [*map(top, ws)], p,
                                       _square(n), seed, 0, replicas)])
    return [(w, fraction_estimate(int(np.less_equal(tops, w).sum()), replicas))
            for w in widths]


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
# draws: 2**16 uint64 hashes are 512 KiB, so a block's hash chain, cut
# counts and path stay in a core's L2 cache instead of streaming through
# memory.  One call makes each of these buffers once, at most this long,
# and every block writes into them.
_WALK_FIRST_BLOCK = 16
_WALK_DRAW_BUDGET = 2**16


@dataclass(frozen=True)
class RwBoundReport:
    spec: WalkSpec
    n_steps: int
    bound: float
    q_hat: EstimateWithCI
    exact: float | None
    replicas: int
    seed: int


def rw_nonneg_bound(spec: WalkSpec, n_list, replicas: int,
                    seed: int) -> list[RwBoundReport]:
    """Simulated stay-nonnegative probability against the closed bound,
    one report per step count of ``n_list``, in its order (repeats
    included).

    Step ``k`` of walk ``w`` is the keyed draw ``(seed, GENERIC, w, k, 0)``
    read by inversion: value j of the law where the draw's uniform U has
    passed j cumulative probabilities, ``searchsorted(cuts, U, "right")``.
    The index is decided on the raw hash h as the number of cut bounds
    (``rng.hash_cuts``) that h reaches.  Every walk is simulated once, up
    to the largest step count, in blocks of steps (16, then doubling)
    that also end at each step count, where the walks still alive are
    that count's hits.  A walk that has gone negative is dropped, so it
    draws no further keys; skipping a draw leaves every other draw
    unchanged, so each hit count equals the one from simulating all N
    steps of every walk.  A block holds at most ``_WALK_DRAW_BUDGET``
    draws (alive walks x steps, 2**16) and writes its hashes, cut counts
    and path into buffers made once per call, so memory is bounded for
    any ``replicas`` and step count; block boundaries decide only when a
    dead walk stops drawing, never a value.

    An exact value is attached for the two-point support {-1, +1} with
    N <= 24 (transition enumeration elsewhere in tests)."""
    n_list = [int(n) for n in n_list]
    if not n_list or min(n_list) < 1:
        raise ValueError(f"need step counts >= 1, got {n_list}")
    if replicas < 1:
        raise ValueError("need at least one replica")
    # Counting all but the last cut point maps every hash to a valid
    # index even when the probabilities sum to just under 1.
    bounds = hash_cuts(np.cumsum(spec.probs)[:-1])
    vals = np.array(spec.values, dtype=np.int64)
    cuts = sorted(set(n_list))
    hits = dict.fromkeys(cuts, 0)
    # the hash chain, its shift scratch, the cut counts and the path
    buffers = [np.empty(_WALK_DRAW_BUDGET, dtype=t)
               for t in (np.uint64, np.uint64, np.intp, np.int64)]
    for first in range(0, replicas, _WALK_DRAW_BUDGET):
        walk = np.arange(first, min(first + _WALK_DRAW_BUDGET, replicas),
                         dtype=np.int64)
        pos = np.zeros(walk.size, dtype=np.int64)
        step, block = 0, _WALK_FIRST_BLOCK
        for cut in cuts:
            while walk.size and step < cut:
                size = min(block, cut - step, _WALK_DRAW_BUDGET // walk.size)
                shape, n = (size, walk.size), size * walk.size
                steps = np.arange(step, step + size, dtype=np.int64)
                # steps x walks: the cumsum and min run along axis 0, one
                # vectorised row of walks per step, however few steps a
                # block holds
                h, tmp, idx, path = (buf[:n].reshape(shape)
                                     for buf in buffers)
                hash_array(seed, Stream.GENERIC, walk[None, :],
                           steps[:, None], 0, out=(h, tmp))
                idx.fill(0)
                reached = tmp.view(np.int64)   # free once h is made
                for b in bounds:
                    np.greater_equal(h, b, out=reached)
                    idx += reached
                vals.take(idx, out=path, mode="clip")
                np.cumsum(path, axis=0, out=path)
                path += pos
                alive = path.min(axis=0) >= 0
                walk, pos = walk[alive], path[-1, alive]
                step += size
                block *= 2
            hits[cut] += walk.size
    reports = []
    for n_steps in n_list:
        bound = (4.0 * spec.sigma / (spec.delta * np.sqrt(n_steps))
                 + spec.mu / spec.delta)
        exact = None
        if set(spec.values) <= {-1, 1} and n_steps <= 24:
            exact = rw_exact_nonneg(spec, n_steps)
        reports.append(RwBoundReport(
            spec, n_steps, float(bound),
            fraction_estimate(hits[n_steps], replicas), exact, replicas,
            seed))
    return reports


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
                        seed: int) -> SandwichReport:
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
    js = np.concatenate([np.arange(-k, 0), np.arange(1, k + 1)]) + v2 - 1
    lo, hat = Rect((-v1, -v2), (0, k)), Rect((1, -k - 1), (w1 - 1, w2 - 1))

    def one(sub: int, w_lo: np.ndarray) -> tuple[bool, float]:
        # w_lo: plain weights on the columns up to the origin, rows up to
        # +k; the boundary grids at lam-+ share its bulk, so all three run
        # as one stack.  Only the last rows (the origin column) are read.
        grids = [w_lo] + [
            _boundary_grid(lambda_params(p, lam), (v1, v2 + k),
                           derive_seed(sub, Stream.GENERIC, tag),
                           base=(-v1, -v2), bulk=w_lo)
            for tag, lam in ((1, lam_minus), (2, lam_plus))]
        # Delta_j and omega^V at the origin column, at index v2 + j - 1
        delta, lo_col, hi_col = np.diff(last_row(np.stack(grids)))
        ok = bool(np.all((lo_col[js] <= delta[js]) & (delta[js] <= hi_col[js])))
        # reflected construction: bulk at hat-grid (i, j) is the plain
        # weight at w - (i, j); its V-increments at the hat column w1 - 1
        # give the upper bounds on -Delta'_j
        bulk_hat = np.zeros((w1, w2 + k + 2), dtype=np.int64)
        bulk_hat[1:, 1:] = weights(WeightConfig(p, sub, hat))[::-1, ::-1]
        inc_hat = np.diff(last_row(_boundary_grid(
            lambda_params(p, lam_hat_plus), (w1 - 1, w2 + k + 1),
            derive_seed(sub, Stream.GENERIC, 3), bulk=bulk_hat)))
        # hat increment at hat-height w2 + 1 - j corresponds to original
        # site e1 + (j - 1) e2
        y = inc_hat[w2 - np.arange(1, k + 1)] - lo_col[v2 + np.arange(1, k + 1) - 1]
        return ok, float(y.mean())

    rows = [row for part in _per_group(lambda g, ws: [*map(one, g, ws)], p,
                                       lo, seed, 0, replicas) for row in part]
    freq = fraction_estimate(sum(ok for ok, _ in rows), replicas)
    y_mean = mean_estimate(np.array([ym for _, ym in rows]))
    return SandwichReport(p, (v1, v2), s, k, lam_minus, lam_plus, lam_hat_plus,
                          freq, y_mean, replicas, seed)


# ----------------------------------------------- bit influences on T_n

def _next_weight(cfg: WeightConfig, v: tuple[int, int], w_v: int) -> int:
    """The site's weight after forcing its first one, bit ``w_v``, to 0:
    the next set bit, looked for within the decode's own scan cap."""
    cap = scan_cap(cfg.p)
    later = np.flatnonzero(site_bits(cfg, v, cap)[w_v + 1:])
    if not later.size:
        raise RngIntegrityError(
            f"bit scan at p={cfg.p} exceeded {cap} rounds; keyed stream "
            "damaged")
    return w_v + 1 + int(later[0])


def _influence_rows(p: float, n: int, v_list, i_max: int, replicas: int,
                    seed: int):
    """Per-replica influence samples |E_xi T(sigma^xi)| - T| and visit
    indicators for each listed site.

    Forcing bit i of site v sets its weight to ``up`` (bit 1) or ``down``
    (bit 0); the flipped travel time is max(best path avoiding v, best
    path through v with the new weight).  The first comes from v's
    antidiagonal (see ``lpp``), so one pair of tables per group stack
    serves every site and bit."""
    v_list = [tuple(v) for v in v_list]
    region = _square(n)
    bits = np.arange(i_max + 1)

    def group_rows(group, w):
        # the best path through each vertex; (0, 0) is on every path
        through = forward_table(w) + backward_table(w) - w
        total = through[:, 0, 0]
        samp = np.empty((len(group), len(v_list), bits.size))
        hit = np.empty((len(group), len(v_list)), dtype=bool)
        for a, (v1, v2) in enumerate(v_list):
            w_v = w[:, v1, v2]
            # the best path through v with v's own weight removed; v is
            # on a geodesic iff the best path through it is optimal
            base_path = through[:, v1, v2] - w_v
            hit[:, a] = through[:, v1, v2] == total
            # v's antidiagonal, with v's entry lowered to base_path: the
            # max is then max(avoid time, base_path), which equals the
            # avoid time wherever it matters, as a new weight is >= 0
            k = v1 + v2
            diag = np.arange(max(0, k - n), min(k, n) + 1)
            cross = through[:, diag, k - diag]
            cross[:, v1 - diag[0]] = base_path
            t_avoid = cross.max(axis=1)[:, None]
            up = np.minimum(w_v[:, None], bits)
            down = np.repeat(w_v[:, None], bits.size, axis=1)
            for r in np.flatnonzero(w_v <= i_max):
                cfg = WeightConfig(p, group[r], region)
                down[r, w_v[r]] = _next_weight(cfg, (v1, v2), int(w_v[r]))
            base_path = base_path[:, None]
            mean_flip = (p * np.maximum(t_avoid, base_path + up)
                         + (1.0 - p) * np.maximum(t_avoid, base_path + down))
            samp[:, a] = np.abs(mean_flip - total[:, None])
        return samp, hit

    samples, visits = zip(*_per_group(group_rows, p, region, seed, 0,
                                      replicas))
    # (replicas, sites, bits) and (replicas, sites)
    return np.concatenate(samples), np.concatenate(visits)


@dataclass(frozen=True)
class VisitInfluenceRow:
    v: tuple[int, int]
    visit_freq: EstimateWithCI
    bit_influences: tuple[float, ...]
    influence_sq_sum: float
    ratio: float


def visit_vs_influence(p: float, n: int, replicas: int, seed: int,
                       i_max: int = 8,
                       delta: float = 0.5) -> list[VisitInfluenceRow]:
    """Summed squared bit influences against visit probabilities.

    The sites are diagonal points at n/8, n/4, n/2 and 3n/4 plus the two
    off-diagonal points (3n/4, n/4) and (n/4, 3n/4).  Each row reports
    sum_i I_hat(v, i)^2 and the ratio against P_hat(v in geodesic
    set)^(2 - delta); the square-function bound predicts a bounded
    ratio."""
    qs = sorted({max(1, n // 8), n // 4, n // 2, 3 * n // 4})
    v_list = [(q, q) for q in qs]
    v_list += [(3 * n // 4, n // 4), (n // 4, 3 * n // 4)]
    samples, visits = _influence_rows(p, n, v_list, i_max, replicas, seed)
    out = []
    for a, v in enumerate(v_list):
        inf_means = samples[:, a, :].mean(axis=0)
        s2 = float(np.sum(inf_means ** 2))
        freq = fraction_estimate(int(visits[:, a].sum()), replicas)
        base = max(freq.estimate, 1.0 / replicas)
        out.append(VisitInfluenceRow(v, freq,
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


def noise_comparison(p: float, n: int, t: float, replicas: int,
                     seed: int) -> NoiseComparisonReport:
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

    region = _square(n)

    def group_rows(_, fields) -> np.ndarray:
        fields = fields.reshape((-1,) + region.shape)
        tt = travel_time(fields)
        # where the cap binds nowhere, the capped times are the times
        capped = (tt if fields.max() <= cap else
                  travel_time(np.minimum(fields, cap, out=fields)))
        return np.concatenate((tt, capped)).reshape(6, -1)

    # base, bit and site members, then the same capped at M
    t0, tb, ts, t0c, tbc, tsc = np.concatenate(
        [*_per_group(group_rows, p, region, seed, 0, replicas, coupled_group,
                     t, cap)], axis=1).astype(np.float64)
    corr_bit = pearson_estimate(t0, tb)
    corr_site = pearson_estimate(t0, ts)
    boots = _bootstrap(derive_seed(seed, Stream.GENERIC, 10**6 + 2), 1000,
                       [replicas], lambda i: _corr_diff(t0, ts, tb, i))
    corr_diff = _boot_estimate(corr_site.estimate - corr_bit.estimate, boots,
                               replicas)

    def cov(a, b):
        return float(np.cov(a, b, ddof=1)[0, 1])
    var0 = float(t0.var(ddof=1))
    gap = abs(cov(t0, tb) - cov(t0c, tbc)) / var0 if var0 > 0 else 0.0
    return NoiseComparisonReport(p, n, t, cap, corr_bit, corr_site, corr_diff,
                                 cov(t0c, tbc), cov(t0c, tsc), gap,
                                 replicas, seed)
