"""Passage times, geodesic sets and increment decompositions.

The enumeration oracles in conftest walk every monotone path, so all
assertions on values, masks and extreme geodesics here are exact.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import brute_geodesics, brute_travel
from lppnoise import lpp
from lppnoise.lpp import (backward_table, forward_table, geodesic_mask,
                          geodesic_report, increment_profile, last_row,
                          travel_time, upmost_span)


def _col_minima(path: np.ndarray) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, j in path:
        if i not in out or j < out[i]:
            out[i] = j
    return out


def path_above(a: np.ndarray, b: np.ndarray) -> bool:
    """Path order: on every shared vertical line, a's lowest point is
    at least b's lowest point."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("paths must be nonempty")
    ma, mb = _col_minima(np.asarray(a)), _col_minima(np.asarray(b))
    shared = set(ma) & set(mb)
    if not shared:
        raise ValueError("paths share no vertical line")
    return all(ma[c] >= mb[c] for c in shared)


def _python_forward(w):
    """Reference quadratic DP with explicit max; no prefix-scan tricks."""
    n1, n2 = w.shape
    f = np.zeros((n1, n2), dtype=np.int64)
    for i in range(n1):
        for j in range(n2):
            best = 0
            if i > 0:
                best = max(best, f[i - 1, j])
            if j > 0:
                best = max(best, f[i, j - 1])
            if i == 0 and j == 0:
                best = 0
            f[i, j] = w[i, j] + best
    return f


def test_travel_time_matches_enumeration(small_fields):
    for w in small_fields:
        assert travel_time(w) == brute_travel(w)


@settings(max_examples=80, deadline=None)
@given(stack=st.tuples(st.integers(1, 4), st.integers(1, 5),
                       st.integers(1, 5)).flatmap(
    lambda shape: arrays(np.int64, shape, elements=st.integers(0, 40))),
       transpose=st.booleans(), block=st.integers(1, 6))
def test_stacked_travel_time_matches_each_field(stack, transpose, block):
    if transpose:   # a non-contiguous stack reads rows with a stride
        stack = stack.transpose(0, 2, 1)
    with mock.patch.object(lpp, "_ROW_BLOCK", block):  # cross row blocks
        tt = travel_time(stack)
        assert tt.dtype == np.int64 and tt.shape == (stack.shape[0],)
        for k, w in enumerate(stack):
            assert tt[k] == travel_time(w) == brute_travel(w)
            assert np.array_equal(forward_table(w), _python_forward(w))


@settings(max_examples=80, deadline=None)
@given(stack=st.tuples(st.integers(1, 4), st.integers(1, 9),
                       st.integers(1, 9)).flatmap(
    lambda shape: arrays(np.int64, shape, elements=st.integers(0, 40))),
       view=st.sampled_from(["plain", "transpose", "reverse", "every_other"]),
       block=st.integers(1, 6))
def test_stacked_tables_and_last_row_match_each_field(stack, view, block):
    # non-contiguous stacks read rows with a stride or backwards
    stack = {"plain": stack, "transpose": stack.transpose(0, 2, 1),
             "reverse": stack[::-1, ::-1, ::-1],
             "every_other": stack[::2, :, ::2]}[view]
    with mock.patch.object(lpp, "_ROW_BLOCK", block):  # cross row blocks
        f, b, last = forward_table(stack), backward_table(stack), \
            last_row(stack)
        assert f.shape == b.shape == stack.shape
        assert last.dtype == np.int64 and last.shape == \
            (stack.shape[0], stack.shape[2])
        for k, w in enumerate(stack):
            fw = _python_forward(w)
            assert np.array_equal(f[k], fw)
            assert np.array_equal(b[k], _python_forward(w[::-1, ::-1])[::-1, ::-1])
            assert np.array_equal(last[k], fw[-1])
            assert np.array_equal(last_row(w), forward_table(w)[-1])


def test_tables_span_several_row_blocks():
    rng = np.random.default_rng(7)
    w = rng.integers(0, 9, size=(2 * lpp._ROW_BLOCK + 3, 6))
    f = _python_forward(w)
    assert np.array_equal(forward_table(w), f)
    assert travel_time(w) == f[-1, -1]
    assert np.array_equal(travel_time(np.stack([w, w[::-1]])),
                          [f[-1, -1], _python_forward(w[::-1])[-1, -1]])


def test_forward_table_matches_python_dp(small_fields):
    for w in small_fields:
        assert np.array_equal(forward_table(w), _python_forward(w))


def test_backward_table_is_reversed_forward(small_fields):
    for w in small_fields:
        b = backward_table(w)
        assert b[0, 0] == travel_time(w)
        assert np.array_equal(b, _python_forward(w[::-1, ::-1])[::-1, ::-1])


def test_degenerate_shapes():
    assert travel_time(np.array([[7]])) == 7
    row = np.array([[1, 2, 3, 4]])
    assert travel_time(row) == 10
    assert travel_time(row.T) == 10


def test_member_mask_matches_enumeration(small_fields):
    for w in small_fields:
        value, _, mask = brute_geodesics(w)
        rep = geodesic_report(w)
        assert rep.value == value
        assert np.array_equal(rep.member_mask, mask)
        assert np.array_equal(geodesic_mask(w), mask)


def test_geodesic_mask_reuses_garbage_scratch(small_fields):
    # one scratch pair per shape, filled with garbage once and then
    # reused by every field of that shape
    rng = np.random.default_rng(3)
    scratch = {}
    for w in small_fields:
        pair = scratch.setdefault(w.shape, rng.integers(
            -2 ** 62, 2 ** 62, size=(2, *w.shape)))
        mask = geodesic_mask(w, pair)
        assert np.array_equal(mask, brute_geodesics(w)[2])
        assert np.array_equal(mask, geodesic_mask(w))
    assert len(scratch) < len(small_fields)


def test_extreme_geodesics_are_extreme(small_fields):
    for w in small_fields[:25]:
        value, paths, _ = brute_geodesics(w)
        rep = geodesic_report(w)
        as_set = {tuple(map(tuple, p)) for p in paths}
        up = tuple(map(tuple, rep.upmost))
        down = tuple(map(tuple, rep.downmost))
        assert up in as_set and down in as_set
        for path in paths:
            assert path_above(rep.upmost, np.array(path))
            assert path_above(np.array(path), rep.downmost)


def _forward_walk_path(w, prefer_up):
    """Reference extreme geodesic: walk from the origin on both tables,
    stepping up (or right) first whenever that stays on a geodesic."""
    f, b = forward_table(w), backward_table(w)
    total = int(f[-1, -1])
    n1, n2 = f.shape
    i = j = 0
    path = [(0, 0)]
    while (i, j) != (n1 - 1, n2 - 1):
        up_ok = j + 1 < n2 and f[i, j] + b[i, j + 1] == total
        right_ok = i + 1 < n1 and f[i, j] + b[i + 1, j] == total
        if prefer_up:
            if up_ok:
                j += 1
            else:
                i += 1
        elif right_ok:
            i += 1
        else:
            j += 1
        path.append((i, j))
    return np.array(path, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(w=st.tuples(st.integers(1, 30), st.integers(1, 30)).flatmap(
    lambda shape: arrays(np.int64, shape, elements=st.integers(0, 3))))
def test_extreme_path_matches_forward_walk(w):
    rep = geodesic_report(w)
    for upmost, path in ((True, rep.upmost), (False, rep.downmost)):
        assert path.dtype == np.int64
        assert np.array_equal(path, _forward_walk_path(w, prefer_up=upmost))


@settings(max_examples=100, deadline=None)
@given(stack=st.tuples(st.integers(1, 4), st.integers(1, 12),
                       st.integers(1, 12)).flatmap(
    lambda shape: arrays(np.int64, shape, elements=st.integers(0, 3))),
       block=st.integers(1, 6))
def test_upmost_span_matches_upmost_path(stack, block):
    ups = [geodesic_report(w).upmost for w in stack]
    with mock.patch.object(lpp, "_ROW_BLOCK", block):  # cross row blocks
        for i in range(stack.shape[1]):
            a, b = upmost_span(stack, i)
            assert a.dtype == b.dtype == np.int64
            for k, (w, up) in enumerate(zip(stack, ups)):
                cols = up[up[:, 0] == i, 1]
                assert (a[k], b[k]) == (cols.min(), cols.max())
                assert upmost_span(w, i) == (cols.min(), cols.max())
        with pytest.raises(ValueError):
            upmost_span(stack, stack.shape[1])


def test_extreme_path_on_random_fields():
    rng = np.random.default_rng(314)
    for k in range(300):
        p = (0.3, 0.5, 0.9)[k % 3]
        w = rng.geometric(p, size=tuple(rng.integers(1, 60, 2))) - 1
        rep = geodesic_report(w)
        assert np.array_equal(rep.upmost, _forward_walk_path(w, True))
        assert np.array_equal(rep.downmost, _forward_walk_path(w, False))


def test_geodesic_weight_sums_to_value(small_fields):
    for w in small_fields[:20]:
        rep = geodesic_report(w)
        for path in (rep.upmost, rep.downmost):
            assert sum(int(w[tuple(v)]) for v in path) == rep.value


def test_path_above_basics():
    lo = np.array([(0, 0), (1, 0), (2, 0), (2, 1)])
    hi = np.array([(0, 0), (0, 1), (1, 1), (2, 1)])
    assert path_above(hi, lo)
    assert not path_above(lo, hi)
    assert path_above(lo, lo)
    with pytest.raises(ValueError):
        path_above(np.empty((0, 2)), lo)
    with pytest.raises(ValueError):
        path_above(np.array([(0, 0), (0, 1)]), np.array([(5, 0), (5, 1)]))


def test_wide_field():
    # wider than any side the CLI accepts (4001 sites)
    w = np.zeros((1, 4002), dtype=np.int64)
    assert geodesic_report(w).value == 0
    assert travel_time(w) == 0


def test_weight_validation():
    with pytest.raises(ValueError):
        travel_time(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        travel_time(np.zeros(5))


def _profile_oracle_d(w, v, i):
    """D_i from four independently computed passage times."""
    v1, v2 = v
    t_lower_0 = travel_time(w[: v1 + 1, : v2 + 1])
    t_upper_0 = travel_time(w[v1 + 1:, v2:])
    t_lower_i = travel_time(w[: v1 + 1, : v2 + i + 1])
    t_upper_i = travel_time(w[v1 + 1:, v2 + i:])
    return (t_lower_0 + t_upper_0) - (t_lower_i + t_upper_i)


def test_increment_profile_matches_direct_passage_times():
    rng = np.random.default_rng(20250812)
    for _ in range(15):
        n = int(rng.integers(3, 7))
        w = rng.geometric(0.5, size=(n + 1, n + 1)) - 1
        v1 = int(rng.integers(0, n))
        v2 = int(rng.integers(0, n + 1))
        prof = increment_profile(w, (v1, v2))
        assert prof.n == n and prof.i_lo == -v2 and prof.i_hi == n - v2
        assert prof.value == travel_time(w)
        for i in range(prof.i_lo, prof.i_hi + 1):
            assert prof.D[i - prof.i_lo] == _profile_oracle_d(w, (v1, v2), i)
        assert prof.D[-prof.i_lo] == 0  # i = 0 term compares itself


def test_increment_profile_telescoping():
    rng = np.random.default_rng(20250813)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        w = rng.geometric(0.4, size=(n + 1, n + 1)) - 1
        v1, v2 = int(rng.integers(0, n)), int(rng.integers(0, n + 1))
        prof = increment_profile(w, (v1, v2))
        assert (prof.delta >= 0).all() and (prof.delta_prime >= 0).all()
        # D at row r telescopes through the one-step increments
        for r in range(n + 1):
            parts = prof.delta_prime[min(r, v2):max(r, v2)] \
                - prof.delta[min(r, v2):max(r, v2)]
            expected = parts.sum() if r > v2 else -parts.sum() if r < v2 else 0
            assert prof.D[r] == expected


def test_through_edge_indicator_matches_enumeration():
    rng = np.random.default_rng(20250814)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        w = rng.geometric(0.5, size=(n + 1, n + 1)) - 1
        v1, v2 = int(rng.integers(0, n)), int(rng.integers(0, n + 1))
        prof = increment_profile(w, (v1, v2))
        _, paths, _ = brute_geodesics(w)
        uses_edge = any((v1, v2) in map(tuple, p) and (v1 + 1, v2) in map(tuple, p)
                        for p in paths)
        assert prof.through_origin_edge == uses_edge
        assert prof.through_origin_edge == bool((prof.D >= 0).all())


def test_increment_profile_validation():
    w = np.zeros((4, 5), dtype=np.int64)
    with pytest.raises(ValueError):
        increment_profile(w, (0, 0))  # not square
    sq = np.zeros((4, 4), dtype=np.int64)
    with pytest.raises(ValueError):
        increment_profile(sq, (3, 0))  # v1 must leave room for e1
    with pytest.raises(ValueError):
        increment_profile(sq, (0, 4))
