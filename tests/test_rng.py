"""Keyed randomness: determinism, stream separation, distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lppnoise import rng
from lppnoise.rng import (Stream, bernoulli_at, derive_seed, geometric_array,
                          hash_cuts, key_prefix, rings_at, uniform_array)

_M64 = (1 << 64) - 1


def uniform_at(prefix, index):
    """Uniform[0, 1) variates of the keys ``prefix`` + ``index``."""
    return rng._unit(rng._absorb(prefix, index))


def exponential_at(prefix, index):
    """Exp(1) variates ``-log(1 - U)`` of the keys ``prefix`` + ``index``:
    the float clocks that ``rings_at`` decides on the hash."""
    return -np.log1p(-uniform_at(prefix, index))


def _mix_py(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


def _hash_py(seed, tag, x, y, index):
    """The keyed hash in plain Python integers: one splitmix64 finalizer
    per absorbed field, ``index`` last."""
    h = _mix_py((seed + 0x9E3779B97F4A7C15 * (tag + 1)) & _M64)
    h = _mix_py(h ^ ((x & _M64) * 0xD6E8FEB86659FD93 & _M64))
    h = _mix_py(h ^ ((y & _M64) * 0xA3AAC6CB67C5E0ED & _M64))
    return _mix_py(h ^ ((index & _M64) * 0x9E3779B97F4A7C15 & _M64))


def test_uniform_array_is_deterministic():
    idx = np.arange(50)
    a = uniform_array(7, Stream.BIT_X, idx, 3, 0)
    b = uniform_array(7, Stream.BIT_X, idx, 3, 0)
    assert np.array_equal(a, b)


def test_uniform_array_distinguishes_every_key_field():
    idx = np.arange(200)
    base = uniform_array(7, Stream.BIT_X, idx, 3, 0)
    for other in (uniform_array(8, Stream.BIT_X, idx, 3, 0),
                  uniform_array(7, Stream.BIT_XPRIME, idx, 3, 0),
                  uniform_array(7, Stream.BIT_X, idx + 1, 3, 0),
                  uniform_array(7, Stream.BIT_X, idx, 4, 0),
                  uniform_array(7, Stream.BIT_X, idx, 3, 1)):
        assert not np.array_equal(base, other)


def test_uniform_range_and_moments():
    idx = np.arange(100_000)
    u = uniform_array(123, Stream.GENERIC, idx, 0, 0)
    assert u.min() >= 0.0 and u.max() < 1.0
    # 4 sigma bands for the first two moments of U[0,1)
    assert abs(u.mean() - 0.5) < 4.0 / np.sqrt(12 * u.size)
    assert abs(u.var() - 1.0 / 12.0) < 4e-3


def test_negative_coordinates_are_valid_keys():
    u = uniform_array(5, Stream.BIT_X, np.arange(-10, 0), -3, 0)
    assert u.shape == (10,) and np.unique(u).size == 10


def test_broadcasting_matches_scalar_evaluation():
    sx = np.arange(4)[:, None]
    sy = np.arange(3)[None, :]
    grid = uniform_array(9, Stream.CLOCK_U, sx, sy, 2)
    assert grid.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert grid[i, j] == uniform_array(9, Stream.CLOCK_U, i, j, 2)


def test_exponential_matches_inverse_transform():
    idx = np.arange(1000)
    u = uniform_array(11, Stream.CLOCK_U, idx, 0, 5)
    e = exponential_at(key_prefix(11, Stream.CLOCK_U, idx, 0), 5)
    assert np.allclose(e, -np.log1p(-u), rtol=0, atol=0)
    assert (e >= 0).all()


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_geometric_matches_inverse_transform(p):
    idx = np.arange(2000)
    u = uniform_array(13, Stream.BOUNDARY_V, idx, 2, 0)
    g = geometric_array(13, Stream.BOUNDARY_V, idx, 2, 0, p)
    assert np.array_equal(g, np.floor(np.log1p(-u) / np.log1p(-p)).astype(np.int64))
    assert g.min() >= 0
    # mean (1-p)/p within 5 sigma
    se = np.sqrt((1 - p) / p ** 2 / idx.size)
    assert abs(g.mean() - (1 - p) / p) < 5 * se


def test_geometric_rejects_bad_p():
    with pytest.raises(ValueError):
        geometric_array(1, Stream.BOUNDARY_V, 0, 0, 0, 0.0)
    with pytest.raises(ValueError):
        geometric_array(1, Stream.BOUNDARY_V, 0, 0, 0, 1.0)


def test_scalar_helpers_agree_with_arrays():
    prefix = key_prefix(21, Stream.GENERIC, 4, -2)
    u = uniform_at(prefix, 7)
    assert u == uniform_array(21, Stream.GENERIC, 4, -2, 7)
    assert bernoulli_at(prefix, 7, 0.999) == (u < 0.999)
    assert exponential_at(prefix, 7) == -np.log1p(-u)


def test_derive_seed_is_stable_and_injective_in_practice():
    seen = {derive_seed(3, Stream.REPLICA, i) for i in range(10_000)}
    assert len(seen) == 10_000
    assert derive_seed(3, Stream.REPLICA, 5) == derive_seed(3, Stream.REPLICA, 5)
    assert derive_seed(3, Stream.REPLICA, 5) != derive_seed(3, Stream.GENERIC, 5)
    assert derive_seed(3, Stream.REPLICA, 5) != derive_seed(4, Stream.REPLICA, 5)
    for s in seen:
        assert 0 <= s < 2 ** 64


def test_streams_are_pairwise_decorrelated():
    idx = np.arange(50_000)
    tags = [Stream.BIT_X, Stream.BIT_XPRIME, Stream.CLOCK_U, Stream.SITE_CLOCK]
    draws = [uniform_array(77, t, idx, 0, 0) for t in tags]
    for i in range(len(tags)):
        for j in range(i + 1, len(tags)):
            r = np.corrcoef(draws[i], draws[j])[0, 1]
            assert abs(r) < 0.02


def test_hash_known_answers():
    # values of the released hash chain; any change breaks every CSV
    assert derive_seed(3, Stream.REPLICA, 5) == 10496482278734730995
    assert int(rng.hash_array(7, int(Stream.BIT_X), -4, 9, 12)) == \
        12018293195108961457
    assert int(rng.hash_array(2 ** 64 - 1, int(Stream.CLOCK_U), 2 ** 40,
                             -2 ** 40, 10 ** 6)) == 12966017618018683696


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), tag=st.sampled_from(list(Stream)),
       x=st.integers(-2 ** 40, 2 ** 40), y=st.integers(-2 ** 40, 2 ** 40),
       index=st.integers(0, 10 ** 7))
def test_prefix_then_index_equals_full_key(seed, tag, x, y, index):
    prefix = key_prefix(seed, tag, x, y)
    h = _hash_py(seed, int(tag), x, y, index)
    assert int(rng._absorb(prefix, index)) == h
    u = uniform_at(prefix, index)
    assert u == (h >> 11) * 2.0 ** -53 == uniform_array(seed, tag, x, y, index)
    assert exponential_at(prefix, index) == \
        exponential_at(key_prefix(seed, tag, x, y), index)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=5),
       tag=st.sampled_from(list(Stream)), x0=st.integers(-2 ** 40, 2 ** 40),
       y0=st.integers(-2 ** 40, 2 ** 40))
def test_seed_array_prefix_equals_per_seed_calls(seeds, tag, x0, y0):
    xs, ys = x0 + np.arange(3)[:, None], y0 + np.arange(4)[None, :]
    col = np.array(seeds, dtype=np.uint64)[:, None, None]
    prefix = key_prefix(col, tag, xs, ys)
    assert prefix.shape == (len(seeds), 3, 4)
    for r, seed in enumerate(seeds):
        assert np.array_equal(prefix[r], key_prefix(seed, tag, xs, ys))
    # a seed array also pairs with per-site coordinates
    flat = key_prefix(col.ravel(), tag, x0 + np.arange(len(seeds)), y0)
    for r, seed in enumerate(seeds):
        assert flat[r] == key_prefix(seed, tag, x0 + r, y0)
    # an int seed is taken mod 2**64, like the array's uint64 values
    assert key_prefix(seeds[0] - 2 ** 64, tag, x0, y0) == \
        key_prefix(col.ravel()[:1], tag, x0, y0)[0]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), tag=st.sampled_from(list(Stream)),
       shapes=hnp.mutually_broadcastable_shapes(num_shapes=3, max_dims=3,
                                                max_side=4),
       x0=st.integers(-2 ** 40, 2 ** 40), y0=st.integers(-2 ** 40, 2 ** 40),
       index=st.integers(1, 10 ** 7))
def test_hash_array_into_buffers_equals_allocating_chain(seed, tag, shapes,
                                                         x0, y0, index):
    sx, sy, ix = (start + np.arange(np.prod(shape, dtype=int)).reshape(shape)
                  for start, shape in zip((x0, y0, index),
                                          shapes.input_shapes))
    want = rng.hash_array(seed, tag, sx, sy, ix)
    h = np.empty(shapes.result_shape, dtype=np.uint64)
    scratch = np.empty_like(h)
    assert rng.hash_array(seed, tag, sx, sy, ix, out=(h, scratch)) is h
    assert np.array_equal(h, want)


def test_open_grid_prefix_matches_pointwise_keys():
    xs, ys = np.arange(-3, 4)[:, None], np.arange(5, 9)[None, :]
    prefix = key_prefix(11, Stream.BIT_X, xs, ys)
    assert prefix.shape == (7, 4)
    for i in range(3):
        assert np.array_equal(uniform_at(prefix, i),
                              uniform_array(11, Stream.BIT_X, xs, ys, i))


@settings(max_examples=200, deadline=None)
@given(p=st.one_of(st.floats(1e-300, 1.0, exclude_max=True),
                   st.sampled_from([0.5, 0.1, 1 - 2 ** -53, 2 ** -53, 1e-3])),
       offset=st.integers(-3, 3), seed=st.integers(0, 2 ** 64 - 1))
def test_bernoulli_at_equals_uniform_below_p(p, offset, seed):
    # random keys, plus hashes placed right at the cut c << 11
    prefix = key_prefix(seed, Stream.BIT_X, np.arange(64), 0)
    assert np.array_equal(bernoulli_at(prefix, 3, p),
                          uniform_at(prefix, 3) < p)
    cut = int(np.ceil(p * 2.0 ** 53)) << 11
    h = np.array([min(max(cut + offset * 2048 + r, 0), _M64)
                  for r in (-1, 0, 1, 2047)], dtype=np.uint64)
    assert np.array_equal(rng._below(h, p),
                          (h >> np.uint64(11)) * 2.0 ** -53 < p)


def _normalized(weights):
    w = np.array(weights, dtype=float)
    return tuple(w / w.sum())


@settings(max_examples=200, deadline=None)
@given(probs=st.one_of(
           st.lists(st.integers(0, 20), min_size=1, max_size=8)
           .filter(any).map(_normalized),
           st.sampled_from([(0.0, 0.5, 0.5), (0.0, 0.0, 1.0), (0.5, 0.5),
                            (0.7, 0.2, 0.1), (0.1,) * 10, (1.0,)])),
       seed=st.integers(0, 2 ** 64 - 1))
def test_hash_step_index_equals_float_search(probs, seed):
    """The number of cut bounds a hash reaches is the float inversion
    index, on random hashes, on hashes next to every bound, and on the
    least and largest hash; (0.7, 0.2, 0.1) and (0.1,) * 10 sum to
    1 - 2**-53, and a law may start with a zero probability."""
    cuts = np.cumsum(probs)[:-1]
    edges = [min(max(rng._cut(c) + d, 0), _M64)
             for c in cuts for d in (-1, 0, 1)]
    h = np.concatenate([
        rng._absorb(key_prefix(seed, Stream.GENERIC, np.arange(256), 0), 0),
        np.array(edges + [0, _M64], dtype=np.uint64)])
    index = (h[:, None] >= hash_cuts(cuts)[None, :]).sum(axis=1)
    assert np.array_equal(
        index, np.searchsorted(cuts, (h >> np.uint64(11)) * 2.0 ** -53,
                               side="right"))


_TIMES = [0.0, 5e-324, 1e-300, 0.25, 1.0, 4.0, 36.7, 37.0, 1e300]


def _float_rings(clock, t):
    # a clock rings by time t > 0 iff it is <= t; none rings by time 0
    return clock <= (t if t > 0.0 else -np.inf)


@settings(max_examples=100, deadline=None)
@given(t=st.sampled_from(_TIMES), seed=st.integers(0, 2 ** 64 - 1),
       index=st.integers(0, 200))
def test_rings_at_equals_float_clock(t, seed, index):
    prefix = key_prefix(seed, Stream.CLOCK_U, np.arange(512), 0)
    (rung,) = rings_at(prefix, index, (t,))
    assert np.array_equal(rung, _float_rings(exponential_at(prefix, index), t))


@pytest.mark.parametrize("t", _TIMES)
def test_ring_bound_is_exact_in_its_checked_window(t):
    b = rng._ring_bound(t)
    k_max = (b >> 11) - 1           # -1 where nothing rings
    assert b % 2048 == 0 and (b == 0) == (t == 0.0)
    assert (b == 2 ** 64) == (t >= rng._clock(2 ** 53 - 1))
    ks = np.arange(max(k_max - rng._RING_WINDOW, 0),
                   min(k_max + rng._RING_WINDOW, 2 ** 53 - 1) + 1,
                   dtype=np.uint64)
    for low in (0, 1, 2047):
        h = (ks << np.uint64(11)) | np.uint64(low)
        clock = -np.log1p(-((h >> np.uint64(11)) * 2.0 ** -53))
        assert np.array_equal([int(x) < b for x in h], _float_rings(clock, t))


def test_rings_at_reads_each_time_on_its_own_row():
    prefix = key_prefix(5, Stream.SITE_CLOCK, np.arange(6)[:, None],
                        np.arange(7)[None, :])
    rung = rings_at(prefix, 0, tuple(_TIMES))
    assert rung.shape == (len(_TIMES), 6, 7)
    for row, t in zip(rung, _TIMES):
        assert np.array_equal(row, _float_rings(exponential_at(prefix, 0), t))
    assert not rung[0].any() and rung[-1].all()


def test_ring_bound_refuses_a_clock_out_of_order(monkeypatch):
    exact = rng._clock

    def bent(k):
        # one clock past K drops below t: the window check must see it
        c = exact(k)
        if c.ndim:
            c[-2] = 0.0
        return c

    monkeypatch.setattr(rng, "_clock", bent)
    with pytest.raises(ArithmeticError, match="t=1.0"):
        rng._ring_bound.__wrapped__(1.0)


def test_rings_at_rings_the_largest_hash_once_every_clock_has_rung(
        monkeypatch):
    # the bound 2**64 of such times does not fit a uint64
    h = np.array([0, 2047, 2048, _M64 - 2048, _M64], dtype=np.uint64)
    monkeypatch.setattr(rng, "_absorb", lambda prefix, index: h.copy())
    rung = rings_at(None, 0, (0.0, 5e-324, 36.7, 37.0, 1e300))
    clock = -np.log1p(-((h >> np.uint64(11)) * 2.0 ** -53))
    assert np.array_equal(rung[1:], clock <= np.array([[5e-324], [36.7],
                                                       [37.0], [1e300]]))
    assert not rung[0].any() and rung[3:].all() and not rung[2, -1]
