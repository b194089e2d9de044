"""Directed last-passage times, geodesics and increment decompositions.

Fields are plain int64 arrays ``w[i, j]`` indexed by offsets from the
lower-left corner of their rectangle; ``i`` runs along e1 and ``j``
along e2.  The travel time from corner to corner is

    T = max over up/right paths of the path's weight sum,

computed by the recursion ``F[i,j] = w[i,j] + max(F[i-1,j], F[i,j-1])``.
Rows (contiguous in memory) are filled with a prefix-maximum identity,
so the quadratic table costs O(area) vector work in O(rows) ufunc calls
instead of a Python-level double loop.  ``forward_table``,
``backward_table``, ``last_row``, ``travel_time`` and ``upmost_span``
also run over a ``(K, n1, n2)`` stack of fields at once; the last three
keep only O(width) memory per field.

``geodesic_mask`` gives the exact geodesic set as a vertex mask from the
forward and backward tables, folding ``F + B - w`` into the forward
table in place, so a field's mask holds two tables and no third for the
sum; a caller may pass one scratch pair for both tables and reuse it
for every field.  A path leaves row i once, through an edge
(i, j) -> (i+1, j) scoring ``F[i, j] + B[i+1, j]``, whose maximum over j
is T.  The upmost geodesic leaves each row at its last maximum and the
downmost at its first (``geodesic_report``; ``upmost_span`` for one row).

In the same way a path crosses each antidiagonal i + j = k at exactly
one vertex, where ``F + B - w`` is the best path through that vertex.
So the best path that avoids a vertex v is the largest ``F + B - w``
over the other vertices of v's antidiagonal: O(n) per vertex from one
pair of tables, with no DP of a modified field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "forward_table",
    "backward_table",
    "last_row",
    "travel_time",
    "geodesic_mask",
    "GeodesicReport",
    "geodesic_report",
    "upmost_span",
    "IncrementProfile",
    "increment_profile",
]

_ROW_BLOCK = 64   # rows whose prefix sums _table_rows takes in one call
_NO_PATH = -(2 ** 62)   # a score no path reaches


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


def _fill_forward(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    # the forward table of w, written into f whatever it held
    for i, row in enumerate(_table_rows(w)):
        f[..., i, :] = row
    return f


def forward_table(w: np.ndarray) -> np.ndarray:
    """F[..., i, j] = travel time from (0, 0) to (i, j), for a field or a
    ``(K, n1, n2)`` stack."""
    w = _check_weights(w, stack=True)
    return _fill_forward(w, np.empty_like(w))


def backward_table(w: np.ndarray) -> np.ndarray:
    """B[..., i, j] = travel time from (i, j) to the top-right corner, for
    a field or a ``(K, n1, n2)`` stack."""
    w = _check_weights(w, stack=True)
    return forward_table(w[..., ::-1, ::-1])[..., ::-1, ::-1]


def _last_row(w: np.ndarray) -> np.ndarray:
    for row in _table_rows(w):
        pass
    return row


def last_row(w: np.ndarray) -> np.ndarray:
    """The forward table's last row F[..., n1-1, :] with O(width) memory:
    shape ``(n2,)`` for a field, ``(K, n2)`` for a stack, from one pass of
    the recursion over all K fields."""
    return _last_row(_check_weights(w, stack=True))


def travel_time(w: np.ndarray):
    """Corner-to-corner travel time: the last entry of ``last_row``.  A
    ``(K, n1, n2)`` stack gives its K travel times as an int64 array."""
    row = _last_row(_check_weights(w, stack=True))
    return int(row[-1]) if row.ndim == 1 else row[:, -1].copy()


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


def _last_argmax(s: np.ndarray) -> np.ndarray:
    return s.shape[-1] - 1 - np.argmax(s[..., ::-1], axis=-1)


def _path(exits: np.ndarray, n2: int) -> np.ndarray:
    """Vertices of the up/right path leaving row i at column ``exits[i]``.
    Vertex k has i + j = k, and its i counts the e1 steps before it: the
    step out of row i follows vertex ``exits[i] + i``."""
    rows = np.zeros(exits.size + n2, dtype=np.int64)
    rows[exits + np.arange(1, exits.size + 1)] = 1
    rows = rows.cumsum()
    return np.stack((rows, np.arange(rows.size) - rows), axis=1)


def _fold_mask(f: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The geodesic set from the tables F and B of ``w``, folding F + B - w
    into ``f`` in place: the best path through (i, j) scores F + B - w,
    and (i, j) is on a geodesic iff that equals the travel time."""
    t = f[-1, -1]
    f += b
    f -= w
    return f == t


def geodesic_mask(w: np.ndarray, scratch=None) -> np.ndarray:
    """``mask[i, j]`` is true iff (i, j) lies on at least one geodesic.

    ``scratch``, if given, is a ``(2, n1, n2)`` int64 array, overwritten
    with F and B: a loop that passes one for every field allocates no
    table per field."""
    w = _check_weights(w)
    f, b = np.empty((2, *w.shape), np.int64) if scratch is None else scratch
    _fill_forward(w, f)
    _fill_forward(w[::-1, ::-1], b[::-1, ::-1])   # B through a reversed view
    return _fold_mask(f, b, w)


def geodesic_report(w: np.ndarray) -> GeodesicReport:
    """Geodesic set and extreme geodesics via forward/backward tables."""
    w = _check_weights(w)
    f, b = forward_table(w), backward_table(w)
    s = f[:-1] + b[1:]                  # crossing scores of rows 0..n1-2
    value = int(f[-1, -1])
    return GeodesicReport(value, _fold_mask(f, b, w),
                          _path(_last_argmax(s), w.shape[1]),
                          _path(np.argmax(s, axis=1), w.shape[1]))


def _rows_to(w: np.ndarray, i: int):
    """Forward rows i-1 and i of a field or stack; row -1 is virtual and
    leads into the field at column 0 only."""
    prev = np.full(w.shape[:-2] + w.shape[-1:], _NO_PATH)
    prev[..., 0] = 0
    for k, row in enumerate(_table_rows(w)):
        if k == i:
            return prev, row
        if k == i - 1:
            prev = row.copy()


def upmost_span(w: np.ndarray, i: int):
    """Columns ``(a, b)`` of the upmost geodesic on row ``i``: it enters
    from row i-1 at ``a`` (0 on row 0) and leaves at ``b`` (n2-1 on the
    last row).  Fills forward rows 0..i and backward rows n1-1..i only;
    a ``(K, n1, n2)`` stack gives two int64 arrays of K columns."""
    w = _check_weights(w, stack=True)
    n1 = w.shape[-2]
    if not 0 <= i < n1:
        raise ValueError(f"row {i} is outside a field of {n1} rows")
    f_prev, f_row = _rows_to(w, i)
    # the reversed field's forward rows are backward rows, columns reversed
    b_next, b_row = _rows_to(w[..., ::-1, ::-1], n1 - 1 - i)
    a = _last_argmax(f_prev + b_row[..., ::-1])
    b = _last_argmax(f_row + b_next[..., ::-1])
    return a, b


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
    through = f[v1] + b[v1 + 1]      # crossing scores of row v1, columns 0..n
    d = through[v2] - through
    delta = np.diff(f[v1, :])
    delta_prime = -np.diff(b[v1 + 1, :])
    if (delta < 0).any() or (delta_prime < 0).any():
        raise AssertionError("travel-time increments must be nonnegative")
    total = int(f[-1, -1])
    return IncrementProfile(
        v=(v1, v2), n=n, i_lo=i_lo, i_hi=i_hi,
        D=d, delta=delta, delta_prime=delta_prime,
        value=total,
        through_origin_edge=bool(through[v2] == total),
    )
