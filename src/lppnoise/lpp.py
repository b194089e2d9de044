"""Directed last-passage times, geodesics and increment decompositions.

Fields are plain int64 arrays ``w[i, j]`` indexed by offsets from the
lower-left corner of their rectangle; ``i`` runs along e1 and ``j``
along e2.  The travel time from corner to corner is

    T = max over up/right paths of the path's weight sum,

computed by the recursion ``F[i,j] = w[i,j] + max(F[i-1,j], F[i,j-1])``.
Rows (contiguous in memory) are filled with a prefix-maximum identity,
so the quadratic table costs O(area) vector work in O(rows) ufunc calls
instead of a Python-level double loop; ``travel_time`` runs it over a
whole stack of fields at once.

``geodesic_mask`` gives the exact geodesic set as a vertex mask, which
needs the forward and backward tables; ``geodesic_report`` adds the
upmost and downmost geodesics, which ``extreme_path`` backtracks
greedily on the forward table alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "forward_table",
    "backward_table",
    "travel_time",
    "extreme_path",
    "geodesic_mask",
    "GeodesicReport",
    "geodesic_report",
    "IncrementProfile",
    "increment_profile",
]

_ROW_BLOCK = 64   # rows whose prefix sums _table_rows takes in one call


def _check_weights(w: np.ndarray, stack: bool = False) -> np.ndarray:
    w = np.asarray(w)
    if w.ndim not in ((2, 3) if stack else (2,)) or w.size == 0:
        want = "2-D or a 3-D stack" if stack else "2-D"
        raise ValueError(f"weight array must be {want} and nonempty, "
                         f"got shape {w.shape}")
    return w.astype(np.int64, copy=False)


def _table_rows(w: np.ndarray):
    """Yield the rows F[..., i, :] of the forward table in turn, as one
    array updated in place; a stack of fields advances together.

    Row i follows from row i-1 by unrolling c[j] = w[i,j] + max(F[i-1,j],
    c[j-1]) to the prefix maximum c[j] = S[j] + max_{k<=j} (F[i-1,k] -
    E[k]), with S and E the inclusive and exclusive cumsums of row i.
    They are taken for blocks of _ROW_BLOCK rows at once, which keeps
    memory at O(width) per field and leaves three ufunc calls per row.
    """
    cur = None
    for lo in range(0, w.shape[-2], _ROW_BLOCK):
        rows = w[..., lo:lo + _ROW_BLOCK, :]
        s = np.cumsum(rows, axis=-1)
        e = s - rows
        for i in range(rows.shape[-2]):
            if cur is None:
                cur = s[..., 0, :].copy()
            else:
                cur -= e[..., i, :]
                np.maximum.accumulate(cur, axis=-1, out=cur)
                cur += s[..., i, :]
            yield cur


def forward_table(w: np.ndarray) -> np.ndarray:
    """F[i,j] = travel time from (0,0) to (i,j)."""
    w = _check_weights(w)
    f = np.empty_like(w)
    for i, row in enumerate(_table_rows(w)):
        f[i] = row
    return f


def backward_table(w: np.ndarray) -> np.ndarray:
    """B[i,j] = travel time from (i,j) to the top-right corner."""
    w = _check_weights(w)
    return forward_table(w[::-1, ::-1])[::-1, ::-1]


def travel_time(w: np.ndarray):
    """Corner-to-corner travel time with O(width) memory.

    A ``(K, n1, n2)`` stack gives its K travel times as an int64 array,
    from one pass of the recursion over all K fields; each step reads
    one contiguous row of every field."""
    w = _check_weights(w, stack=True)
    for row in _table_rows(w):
        pass
    return int(row[-1]) if w.ndim == 2 else row[:, -1].copy()


@dataclass(frozen=True)
class GeodesicReport:
    """Exact geodesic structure of one field.

    ``member_mask[i,j]`` is true iff (i,j) lies on at least one
    geodesic; ``upmost``/``downmost`` are vertex lists of the two
    extreme geodesics in the path partial order.
    """

    value: int
    member_mask: np.ndarray
    upmost: np.ndarray
    downmost: np.ndarray


def extreme_path(f: np.ndarray, w: np.ndarray, upmost: bool) -> np.ndarray:
    """Upmost (or downmost) geodesic, backtracked on the forward table alone.

    From the top-right corner, the predecessor of a path vertex (i, j) is
    a neighbour with ``F[pred] == F[i, j] - w[i, j]``.  Trying (i-1, j)
    first keeps the path as high as it can go, which gives the upmost
    geodesic; trying (i, j-1) first gives the downmost."""
    i, j = f.shape[0] - 1, f.shape[1] - 1
    path = [(i, j)]
    while i or j:
        need = f[i, j] - w[i, j]
        if upmost:
            if i and f[i - 1, j] == need:
                i -= 1
            else:
                j -= 1
        elif j and f[i, j - 1] == need:
            j -= 1
        else:
            i -= 1
        path.append((i, j))
    return np.array(path[::-1], dtype=np.int64)


def _on_geodesic(f: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    # the best path through (i, j) scores F + B - w; it is a geodesic iff
    # that equals the travel time
    return (f + b - w) == f[-1, -1]


def geodesic_mask(w: np.ndarray) -> np.ndarray:
    """``mask[i, j]`` is true iff (i, j) lies on at least one geodesic."""
    w = _check_weights(w)
    return _on_geodesic(forward_table(w), backward_table(w), w)


def geodesic_report(w: np.ndarray) -> GeodesicReport:
    """Geodesic set and extreme geodesics via forward/backward tables."""
    w = _check_weights(w)
    f = forward_table(w)
    mask = _on_geodesic(f, backward_table(w), w)
    return GeodesicReport(int(f[-1, -1]), mask,
                          extreme_path(f, w, upmost=True),
                          extreme_path(f, w, upmost=False))


@dataclass(frozen=True)
class IncrementProfile:
    """Exact decomposition of the geodesic-through-origin event.

    For the rectangle from -v to w = n*e_+ - v let
    ``D_i = [T(-v,0) + T(e1,w)] - [T(-v,i e2) + T(e1+i e2,w)]``.  A
    geodesic leaves the column of the origin through the edge
    (0 -> e1) iff D_i >= 0 for every i, and D telescopes into the
    nonnegative increments ``delta_j = T(-v,j e2) - T(-v,(j-1) e2)`` and
    ``delta_prime_j = T(e1+(j-1)e2, w) - T(e1+j e2, w)``.

    Arrays are indexed by offset: ``D[i - i_lo]`` etc., with
    ``i_lo = -v2`` and ``i_hi = n - v2``; delta arrays start at
    ``i_lo + 1``.
    """

    v: tuple[int, int]
    n: int
    i_lo: int
    i_hi: int
    D: np.ndarray
    delta: np.ndarray
    delta_prime: np.ndarray
    value: int
    through_origin_edge: bool


def increment_profile(w: np.ndarray, v: tuple[int, int]) -> IncrementProfile:
    """Increment decomposition of the field covering R_{-v, n e_+ - v}.

    Two sweeps (one forward from -v, one backward from w) supply every
    needed travel time in O(area).
    """
    w = _check_weights(w)
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square rectangle, got shape {w.shape}")
    n = w.shape[0] - 1
    v1, v2 = v
    if not (0 <= v1 <= n - 1 and 0 <= v2 <= n):
        raise ValueError(f"origin placement v={v} invalid for n={n} "
                         "(needs 0 <= v <= n*e_+ and v1 < n)")
    f = forward_table(w)
    b = backward_table(w)
    i_lo, i_hi = -v2, n - v2
    rows = np.arange(v2 + i_lo, v2 + i_hi + 1)       # = 0 .. n
    through = f[v1, rows] + b[v1 + 1, rows]          # column 0 -> 1 crossing scores
    d = (f[v1, v2] + b[v1 + 1, v2]) - through
    delta = np.diff(f[v1, :])
    delta_prime = -np.diff(b[v1 + 1, :])
    if (delta < 0).any() or (delta_prime < 0).any():
        raise AssertionError("travel-time increments must be nonnegative")
    total = int(f[-1, -1])
    return IncrementProfile(
        v=(v1, v2), n=n, i_lo=i_lo, i_hi=i_hi,
        D=d, delta=delta, delta_prime=delta_prime,
        value=total,
        through_origin_edge=bool(f[v1, v2] + b[v1 + 1, v2] == total),
    )
