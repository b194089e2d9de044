"""Weight fields and resampling dynamics against stream-level oracles.

The oracles below regenerate every bit, clock and replacement bit
directly from the full-key rng API (``uniform_array``, and
``exponential_array`` below on top of it) and decode weights with plain
Python loops or one member at a time, so they share no code path with
the fused, prefix-hashed scan; their clocks are the float draws
``-log(1 - U)``, which the scan decides on the hash.  The alive-set scan at the end, which
the compressed scan replaced, is kept as a reference for whole fields.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppnoise import lattice, rng
from lppnoise.lattice import (NoiseKind, Rect, RngIntegrityError,
                              WeightConfig, coupled_cap, coupled_group,
                              noisy_group, noisy_stack, replica_groups,
                              scan_cap, site_bits, weight_group, weights)
from lppnoise.rng import Stream, bernoulli_at, key_prefix, uniform_array


def exponential_array(seed, tag, sx, sy, index):
    """Exp(1) variates ``-log(1 - U)`` read from the full keys."""
    return -np.log1p(-uniform_array(seed, tag, sx, sy, index))


def exponential_at(prefix, index):
    """Exp(1) variates ``-log(1 - U)`` of the keys ``prefix`` + ``index``."""
    return -np.log1p(-rng._unit(rng._absorb(prefix, index)))


def _oracle_weight(cfg, x, y, t=0.0, kind=None):
    """Decode one site weight bit by bit with scalar stream reads."""
    if kind is NoiseKind.SITE and t > 0.0:
        rung = exponential_array(cfg.seed, Stream.SITE_CLOCK, x, y, 0) <= t
        stream = Stream.BIT_XPRIME if rung else Stream.BIT_X
        i = 0
        while True:
            if uniform_array(cfg.seed, stream, x, y, i) < cfg.p:
                return i
            i += 1
    i = 0
    while True:
        bit = uniform_array(cfg.seed, Stream.BIT_X, x, y, i) < cfg.p
        if t > 0.0 and exponential_array(cfg.seed, Stream.CLOCK_U, x, y, i) <= t:
            bit = uniform_array(cfg.seed, Stream.BIT_XPRIME, x, y, i) < cfg.p
        if bit:
            return i
        i += 1


def _cfg(lo, hi, p=0.5, seed=101):
    return WeightConfig(p, seed, Rect(lo, hi))


def _coupled(cfg, t, cap):
    """The base, BIT and site members of one field's coupled triple."""
    return coupled_group(cfg.p, (cfg.seed,), cfg.region, t, cap)[:, 0]


@pytest.mark.parametrize("p,seed", [(0.3, 11), (0.5, 12), (0.8, 13)])
def test_weights_match_bitwise_oracle(p, seed):
    cfg = _cfg((-2, 3), (4, 9), p=p, seed=seed)
    w = weights(cfg)
    assert w.shape == (7, 7) and w.dtype == np.int64
    for i in range(7):
        for j in range(7):
            assert w[i, j] == _oracle_weight(cfg, -2 + i, 3 + j)


def test_weights_depend_on_absolute_coordinates_only():
    big = weights(_cfg((0, 0), (9, 9)))
    sub = weights(_cfg((3, 4), (6, 8)))
    assert np.array_equal(sub, big[3:7, 4:9])


def test_single_site_field_matches_weights():
    cfg = _cfg((0, 0), (5, 5), seed=21)
    w = weights(cfg)
    one = weights(_cfg((2, 3), (2, 3), seed=21))
    assert one.shape == (1, 1) and one[0, 0] == w[2, 3]
    with pytest.raises(ValueError):
        Rect((6, 0), (5, 0))


def test_weight_marginal_is_geometric():
    p = 0.5
    w = weights(_cfg((0, 0), (199, 199), p=p, seed=31)).ravel()
    mean, var = (1 - p) / p, (1 - p) / p ** 2
    assert abs(w.mean() - mean) < 5 * np.sqrt(var / w.size)
    # exact pmf at small values, 5 sigma binomial bands
    for k in range(4):
        q = p * (1 - p) ** k
        assert abs((w == k).mean() - q) < 5 * np.sqrt(q * (1 - q) / w.size)


def test_site_bits_encode_the_weight():
    cfg = _cfg((0, 0), (7, 7), p=0.4, seed=41)
    w = weights(cfg)
    for v in [(0, 0), (3, 5), (7, 7)]:
        bits = site_bits(cfg, v, int(w[v]) + 8)
        assert not bits[: int(w[v])].any()
        assert bits[int(w[v])]


def test_noise_time_zero_is_the_identity():
    cfg = _cfg((0, 0), (10, 10), seed=51)
    base = weights(cfg)
    for kind in (NoiseKind.BIT, NoiseKind.SITE):
        assert np.array_equal(noisy_stack(cfg, (0.0,), kind)[0], base)


@pytest.mark.parametrize("t", [0.2, 1.0])
def test_bit_dynamics_match_bitwise_oracle(t):
    cfg = _cfg((-1, -1), (4, 4), p=0.5, seed=61)
    wt = noisy_stack(cfg, (t,), NoiseKind.BIT)[0]
    for i in range(6):
        for j in range(6):
            assert wt[i, j] == _oracle_weight(cfg, -1 + i, -1 + j, t,
                                              NoiseKind.BIT)


@pytest.mark.parametrize("t", [0.2, 1.0])
def test_site_dynamics_match_bitwise_oracle(t):
    cfg = _cfg((-1, -1), (4, 4), p=0.5, seed=71)
    wt = noisy_stack(cfg, (t,), NoiseKind.SITE)[0]
    for i in range(6):
        for j in range(6):
            assert wt[i, j] == _oracle_weight(cfg, -1 + i, -1 + j, t,
                                              NoiseKind.SITE)


def test_single_site_noisy_field_matches_field():
    cfg = _cfg((0, 0), (6, 6), seed=81)
    full = noisy_stack(cfg, (0.7,), NoiseKind.BIT)[0]
    one = noisy_stack(_cfg((2, 5), (2, 5), seed=81), (0.7,), NoiseKind.BIT)[0]
    assert one.shape == (1, 1) and one[0, 0] == full[2, 5]


def test_noisy_marginal_is_preserved():
    # the time-t field is again i.i.d. Geom(p); check mean and P(w = 0)
    p, t = 0.5, 0.8
    cfg = _cfg((0, 0), (149, 149), p=p, seed=91)
    wt = noisy_stack(cfg, (t,), NoiseKind.BIT)[0].ravel()
    assert abs(wt.mean() - 1.0) < 5 * np.sqrt(2.0 / wt.size)
    assert abs((wt == 0).mean() - p) < 5 * np.sqrt(p * (1 - p) / wt.size)


def test_agreement_probability_decreases_with_t():
    cfg = _cfg((0, 0), (99, 99), seed=111)
    base = weights(cfg)
    same = []
    for t in (0.25, 1.0, 4.0):
        wt = noisy_stack(cfg, (t,), NoiseKind.BIT)[0]
        same.append((wt == base).mean())
    assert same[0] > same[1] + 0.05 > same[2] + 0.10
    # at huge t the pair is nearly independent: P(same) ~ sum_k P(w=k)^2 = 1/3
    big = noisy_stack(cfg, (50.0,), NoiseKind.BIT)[0]
    assert abs((big == base).mean() - 1.0 / 3.0) < 0.02


def test_coupled_fields_structure_and_cap():
    n, p, t = 20, 0.5, 0.05
    m = coupled_cap(n, p)
    cfg = _cfg((0, 0), (n, n), p=p, seed=121)
    base, bit_t, site_mt = _coupled(cfg, t, m)
    assert np.array_equal(base, weights(cfg))
    assert np.array_equal(bit_t, noisy_stack(cfg, (t,), NoiseKind.BIT)[0])
    assert np.minimum(base, m).max() <= m
    assert np.minimum(site_mt, m).max() <= m


def test_coupling_implication_is_exact():
    # where no per-bit clock among the first M has rung by time t, the
    # capped bit-resampled weight equals the capped base weight, and the
    # site member is untouched
    n, p, t = 15, 0.4, 0.08
    m = coupled_cap(n, p)
    cfg = _cfg((0, 0), (n, n), p=p, seed=131)
    base, bit_t, site_mt = _coupled(cfg, t, m)
    gx, gy = cfg.region.coord_grids()
    umin = exponential_array(cfg.seed, Stream.CLOCK_U, gx, gy, 0)
    for i in range(1, m):
        umin = np.minimum(umin,
                          exponential_array(cfg.seed, Stream.CLOCK_U, gx, gy, i))
    quiet = umin > t
    assert quiet.any() and (~quiet).any()
    assert np.array_equal(np.minimum(bit_t, m)[quiet],
                          np.minimum(base, m)[quiet])
    assert np.array_equal(site_mt[quiet], base[quiet])
    # where the site clock rang, the site member is the replacement field,
    # which is independent of the base: check it is not simply the base
    assert not np.array_equal(site_mt[~quiet], base[~quiet])


def test_coupled_cap_formula_and_bound():
    for n, p in [(10, 0.5), (200, 0.5), (200, 0.3), (1000, 0.9)]:
        m = coupled_cap(n, p)
        assert m == int(np.ceil(5.0 * np.log(n) / -np.log1p(-p)))
        assert n ** 2 * (1 - p) ** m <= n ** -3.0 * (1 + 1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        Rect((2, 0), (1, 5))
    with pytest.raises(ValueError):
        WeightConfig(0.0, 1, Rect((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        WeightConfig(1.0, 1, Rect((0, 0), (1, 1)))
    cfg = _cfg((0, 0), (3, 3))
    with pytest.raises(ValueError):
        _coupled(cfg, -0.1, 3)
    with pytest.raises(ValueError):
        _coupled(cfg, 1.0, 0)  # no cap M >= 1
    with pytest.raises(ValueError):
        coupled_cap(1, 0.5)


def test_rect_helpers():
    r = Rect((-1, 2), (3, 4))
    assert r.shape == (5, 3)
    gx, gy = r.coord_grids()
    assert gx[0, 0] == -1 and gy[0, 0] == 2 and gx[-1, -1] == 3 and gy[-1, -1] == 4


# ------------------------------------------------- fused scan vs one member

def _scan_one_member(n_sites, bit_fn):
    """First index i with ``bit_fn(alive, i)`` true, per site."""
    out = np.empty(n_sites, dtype=np.int64)
    alive = np.arange(n_sites)
    i = 0
    while alive.size:
        hit = bit_fn(alive, i)
        out[alive[hit]] = i
        alive = alive[~hit]
        i += 1
    return out


def _member_reference(cfg, t, kind=None, cap=None):
    """One partner field decoded on its own from full keys: the BIT or
    SITE dynamics, or with a cap and no kind the coupled site member at
    M t, as stated in the module."""
    gx, gy = cfg.region.coord_grids()
    sx, sy = gx.ravel(), gy.ravel()

    def bits(tag, alive, i):
        return uniform_array(cfg.seed, tag, sx[alive], sy[alive], i) < cfg.p

    def field(tag):
        return _scan_one_member(sx.size, lambda a, i: bits(tag, a, i))

    if t == 0.0:
        w = field(Stream.BIT_X)
    elif kind is NoiseKind.BIT:
        def noisy_bits(a, i):
            rung = exponential_array(cfg.seed, Stream.CLOCK_U, sx[a], sy[a],
                                     i) <= t
            return np.where(rung, bits(Stream.BIT_XPRIME, a, i),
                            bits(Stream.BIT_X, a, i))
        w = _scan_one_member(sx.size, noisy_bits)
    else:
        if kind is NoiseKind.SITE:
            clock = exponential_array(cfg.seed, Stream.SITE_CLOCK, sx, sy, 0)
        else:
            clock = np.min([exponential_array(cfg.seed, Stream.CLOCK_U, sx, sy,
                                              i) for i in range(cap)], axis=0)
        w = np.where(clock <= t, field(Stream.BIT_XPRIME), field(Stream.BIT_X))
    return w.reshape(cfg.region.shape)


_regions = st.tuples(st.integers(-40, 40), st.integers(-40, 40),
                     st.integers(1, 9), st.integers(1, 9))
_ps = st.sampled_from([0.08, 0.3, 0.5, 0.77, 0.95])
_seeds = st.integers(0, 2 ** 64 - 1)
_times = st.lists(st.one_of(st.sampled_from([0.0, 0.0, 0.3, 1.0]),
                            st.floats(0.0, 6.0)), min_size=1, max_size=5)


def _cfg_of(region, p, seed):
    x, y, a, b = region
    return WeightConfig(p, seed, Rect((x, y), (x + a - 1, y + b - 1)))


@settings(max_examples=60, deadline=None)
@given(region=_regions, p=_ps, seed=_seeds, times=_times,
       kind=st.sampled_from([NoiseKind.BIT, NoiseKind.SITE]))
def test_fused_stack_matches_one_member_at_a_time(region, p, seed, times,
                                                   kind):
    cfg = _cfg_of(region, p, seed)
    stack = noisy_stack(cfg, times, kind)
    assert stack.shape == (len(times),) + cfg.region.shape
    for k, t in enumerate(times):
        ref = _member_reference(cfg, t, kind)
        assert np.array_equal(stack[k], ref)
        assert np.array_equal(noisy_stack(cfg, (t,), kind)[0], ref)
    assert np.array_equal(weights(cfg), _member_reference(cfg, 0.0, kind))


@settings(max_examples=40, deadline=None)
@given(region=_regions, p=_ps, seed=_seeds, cap=st.integers(1, 40),
       t=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_coupled_fields_match_one_member_at_a_time(region, p, seed, cap, t):
    cfg = _cfg_of(region, p, seed)
    base, bit_t, site_mt = _coupled(cfg, t, cap)
    assert np.array_equal(base, _member_reference(cfg, 0.0, NoiseKind.BIT))
    assert np.array_equal(bit_t, _member_reference(cfg, t, NoiseKind.BIT))
    assert np.array_equal(site_mt, _member_reference(cfg, t, cap=cap))


@settings(max_examples=40, deadline=None)
@given(region=_regions, p=_ps, seed=_seeds, t=st.floats(0.0, 3.0),
       corner=st.tuples(st.integers(0, 8), st.integers(0, 8),
                        st.integers(1, 9), st.integers(1, 9)))
def test_sub_rectangle_field_is_a_slice(region, p, seed, t, corner):
    cfg = _cfg_of(region, p, seed)
    n1, n2 = cfg.region.shape
    i0, j0 = min(corner[0], n1 - 1), min(corner[1], n2 - 1)
    i1, j1 = min(i0 + corner[2], n1), min(j0 + corner[3], n2)
    lo = (cfg.region.lo[0] + i0, cfg.region.lo[1] + j0)
    sub = WeightConfig(p, seed, Rect(lo, (lo[0] + i1 - i0 - 1,
                                          lo[1] + j1 - j0 - 1)))
    cut = np.s_[i0:i1, j0:j1]
    assert np.array_equal(weights(sub), weights(cfg)[cut])
    for kind in (NoiseKind.BIT, NoiseKind.SITE):
        assert np.array_equal(noisy_stack(sub, (t,), kind)[0],
                              noisy_stack(cfg, (t,), kind)[0][cut])
    assert np.array_equal(_coupled(sub, t / 4, 7),
                          _coupled(cfg, t / 4, 7)[(slice(None),) + cut])


@settings(max_examples=40, deadline=None)
@given(region=_regions, p=_ps,
       seeds=st.lists(st.integers(-2 ** 63, 2 ** 64 - 1), min_size=1,
                      max_size=6),
       times=_times, t=st.floats(0.0, 1.0), cap=st.integers(1, 12),
       budget=st.one_of(st.sampled_from(["site", "replica", "default",
                                         "batch"]),
                        st.integers(1, 400)))
def test_fields_are_identical_for_any_site_budget(region, p, seeds, times, t,
                                                  cap, budget):
    """Grouped decodes (packed replicas, row strips) equal one decode of
    each replica on its own, whatever the site budget."""
    cfg = _cfg_of(region, p, 0)
    sites = cfg.region.shape[0] * cfg.region.shape[1]
    budget = {"site": 1, "replica": sites, "default": lattice._SITE_BUDGET,
              "batch": sites * len(seeds)}.get(budget, budget)
    cfgs = [WeightConfig(p, seed, cfg.region) for seed in seeds]
    with mock.patch.object(lattice, "_SITE_BUDGET", 2 ** 40):
        base = np.stack([weights(c) for c in cfgs])
        bit = np.stack([noisy_stack(c, times, NoiseKind.BIT) for c in cfgs], 1)
        site = np.stack([noisy_stack(c, times, NoiseKind.SITE)
                         for c in cfgs], 1)
        coupled = np.stack([_coupled(c, t, cap) for c in cfgs], 1)
    with mock.patch.object(lattice, "_SITE_BUDGET", budget):
        groups = replica_groups(seeds, cfg.region)
        assert all(len(g) == 1 or len(g) * sites <= budget for g in groups)
        assert sum(groups, []) == seeds

        def joined(decode, axis):
            # through the groups, and the whole batch as one group
            parts = [decode(g) for g in groups]
            return np.concatenate(parts, axis), decode(seeds)

        for got in joined(lambda g: weight_group(p, g, cfg.region), 0):
            assert np.array_equal(got, base)
        for kind, want in ((NoiseKind.BIT, bit), (NoiseKind.SITE, site)):
            for got in joined(lambda g: noisy_group(p, g, cfg.region, times,
                                                    kind), 1):
                assert np.array_equal(got, want)
        for got in joined(lambda g: coupled_group(p, g, cfg.region, t, cap),
                          1):
            assert np.array_equal(got, coupled)
        # the one-seed functions under the patched budget (row strips)
        assert np.array_equal(weights(cfgs[0]), base[0])
        assert np.array_equal(noisy_stack(cfgs[0], times, NoiseKind.SITE),
                              site[:, 0])
        assert np.array_equal(_coupled(cfgs[0], t, cap), coupled[:, 0])


def test_replica_groups_pack_small_fields_and_keep_large_ones_whole():
    seeds = list(range(10))
    small, large = Rect((0, 0), (99, 99)), Rect((0, 0), (199, 199))
    assert replica_groups(seeds, small) == [[0, 1, 2], [3, 4, 5], [6, 7, 8],
                                            [9]]
    assert replica_groups(seeds, large) == [[s] for s in seeds]
    assert replica_groups([], small) == []


def test_scan_draws_each_bit_once_and_stops_at_the_first_one(monkeypatch):
    # a weight w needs bits 0..w of its site: exactly w + 1 draws
    drawn = []
    real = lattice.bernoulli_at

    def counting(prefix, index, p):
        drawn.append(np.size(prefix))
        return real(prefix, index, p)

    monkeypatch.setattr(lattice, "bernoulli_at", counting)
    w = weights(_cfg((-3, -3), (20, 20), p=0.3, seed=5))
    assert sum(drawn) == (w + 1).sum()


def test_scan_cap_depends_on_p_and_a_broken_stream_is_caught(monkeypatch):
    for p in (0.001, 0.3, 0.5, 0.99):
        cap = scan_cap(p)
        assert (1 - p) ** cap <= 1e-40 < (1 - p) ** (cap - 1)
    assert scan_cap(0.001) > 10 ** 4 > scan_cap(0.5)
    # a small p decodes (the old fixed cap only held for moderate p) ...
    w = weights(_cfg((0, 0), (3, 3), p=0.001, seed=3))
    assert w.min() >= 0 and w.mean() > 50
    # ... and a stream with no ones hits the cap, in one-member scans and
    # in member scans with clocks
    monkeypatch.setattr(lattice, "bernoulli_at", lambda prefix, index, p:
                        np.zeros(np.shape(prefix), dtype=bool))
    cfg = _cfg((0, 0), (2, 2), p=0.9)
    with pytest.raises(RngIntegrityError):
        weights(cfg)
    with pytest.raises(RngIntegrityError):
        noisy_stack(cfg, (0.0, 0.5, 2.0), NoiseKind.BIT)
    with pytest.raises(RngIntegrityError):
        _coupled(cfg, 0.5, 3)


def test_small_p_decode_memory_is_bounded():
    # at p = 0.001 a site misses about 1,000 rounds; the scan's memory
    # must not grow with them (it peaks near 0.13 MB here, where a scan
    # that kept every round's list of missing sites peaked at 37 MB)
    region = Rect((0, 0), (47, 47))
    tracemalloc.start()
    try:
        w = weight_group(0.001, (7,), region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.mean() > 500
    assert peak < 2 ** 20


def test_noisy_stack_rejects_coupled_and_negative_times():
    cfg = _cfg((0, 0), (3, 3))
    with pytest.raises(ValueError):
        noisy_stack(cfg, (0.5, -0.1), NoiseKind.BIT)


# ------------------------------------------ the scan vs the alive-set scan

def _first_hits(n_sites, n_members, cap, hits):
    """The alive-set scan the compressed scan replaced: each round gathers
    the prefixes of the sites with a member still unresolved from the
    full arrays, and ``hits(alive, pending, i)`` sees the full
    (members, alive) pending mask."""
    out = np.full((n_members, n_sites), -1, dtype=np.int64)
    alive = np.arange(n_sites)
    pending = np.ones((n_members, n_sites), dtype=bool)
    for i in range(cap):
        if not alive.size:
            break
        hit = hits(alive, pending, i) & pending
        for k in range(n_members):
            out[k, alive[np.flatnonzero(hit[k])]] = i
        pending ^= hit
        keep = np.flatnonzero(pending.any(axis=0))
        if keep.size < alive.size:
            alive, pending = alive[keep], pending.take(keep, axis=1)
    return out


def _bits(prefix, alive, need, i, p):
    """Bit i of the alive sites, drawn only where ``need`` is set."""
    if need.all():
        return bernoulli_at(prefix[alive], i, p)
    out = np.zeros(alive.size, dtype=bool)
    at = np.flatnonzero(need)
    out[at] = bernoulli_at(prefix[alive[at]], i, p)
    return out


def _alive_set_decode(seed, p, sx, sy, times=(0.0,), tag=Stream.BIT_X):
    """``lattice._decode`` on the alive-set scan, drawing a stream's bit
    only for the sites where a pending member reads it."""
    t = np.asarray(times, dtype=np.float64)
    ring_by = np.where(t > 0.0, t, -np.inf)[:, None]
    px = key_prefix(seed, tag, sx, sy)
    shape = np.shape(px)
    px = px.ravel()
    if (t > 0.0).any():
        pu = key_prefix(seed, Stream.CLOCK_U, sx, sy).ravel()
        pr = key_prefix(seed, Stream.BIT_XPRIME, sx, sy).ravel()

        def hits(alive, pending, i):
            rung = exponential_at(pu[alive], i) <= ring_by
            x = _bits(px, alive, (pending & ~rung).any(axis=0), i, p)
            xr = _bits(pr, alive, (pending & rung).any(axis=0), i, p)
            return (rung & xr) | (~rung & x)
    else:
        def hits(alive, pending, i):
            return bernoulli_at(px[alive], i, p)

    cap = scan_cap(p)
    w = _first_hits(px.size, t.size, cap, hits)
    if (w < 0).any():
        raise RngIntegrityError(f"bit scan at p={p} exceeded {cap} rounds")
    return w.reshape((t.size,) + shape)


def _alive_set_scan(n_members, n_sites, cap, prefixes, hits):
    """``lattice._scan`` (the coupled site clock) on the alive-set scan."""
    return _first_hits(n_sites, n_members, cap, lambda alive, pending, i:
                       hits([a[alive] for a in prefixes], i))


@settings(max_examples=30, deadline=None)
@given(region=st.tuples(st.integers(-40, 40), st.integers(-40, 40),
                        st.integers(1, 6), st.integers(1, 6)),
       p=st.one_of(st.sampled_from([0.001, 0.5, 0.99]),
                   st.floats(0.001, 0.99)),
       seeds=st.lists(_seeds, min_size=1, max_size=3), times=_times,
       t=st.one_of(st.just(0.0), st.floats(0.0, 1.0)), cap=st.integers(1, 40))
def test_fields_equal_the_alive_set_scan(region, p, seeds, times, t, cap):
    r = _cfg_of(region, p, 0).region

    def fields():
        return ([weight_group(p, seeds, r)]
                + [noisy_group(p, seeds, r, times, kind) for kind in NoiseKind]
                + [coupled_group(p, seeds, r, t, cap)])

    new = fields()
    with mock.patch.multiple(lattice, _decode=_alive_set_decode,
                             _scan=_alive_set_scan):
        old = fields()
    for got, want in zip(new, old):
        assert np.array_equal(got, want)
