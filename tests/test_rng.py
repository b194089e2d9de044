"""Keyed randomness: determinism, stream separation, distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppnoise import rng
from lppnoise.rng import (Stream, bernoulli_at, derive_seed, exponential_at,
                          geometric_array, key_prefix, uniform_array,
                          uniform_at)

_M64 = (1 << 64) - 1


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
    assert int(rng._hash_key(7, int(Stream.BIT_X), -4, 9, 12)) == \
        12018293195108961457
    assert int(rng._hash_key(2 ** 64 - 1, int(Stream.CLOCK_U), 2 ** 40,
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
