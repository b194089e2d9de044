"""Deterministic keyed randomness.

Every random quantity in this package is a pure function of a structured
key: ``(master_seed, site, index, stream_tag)``.  There is no generator
state.  Two evaluations of the same key give the same value, values for
distinct keys are statistically independent, and whole fields can be
regenerated lazily from their keys instead of being stored.

The key is hashed into 64 bits with a splitmix64-style chain (one
finalizer round per absorbed field), which is a counter-based PRF of
adequate statistical quality for Monte Carlo work.  A hash h stands for
the uniform ``U = (h >> 11) * 2**-53``, which keeps the full 53-bit
double resolution.

A draw that is only compared with a threshold is decided on h itself,
without the float work: U >= c iff h >= ``ceil(c * 2**53) << 11``
(``_cut``).  Bernoulli bits (``bernoulli_at``), the steps of a walk
(``hash_cuts`` on ``hash_array``) and the Exp(1) clocks ``-log(1 - U)``
(``rings_at``, through the cached integer bound ``_ring_bound(t)``) all
take this one integer compare, with the values of the float draws.

The chain absorbs ``index`` last, so the state after ``(seed, tag, x,
y)`` is a per-site *key prefix* (``key_prefix``): a scan over the
indices of one site hashes the prefix once and then needs one finalizer
round per draw (``bernoulli_at``, ``rings_at``), with the same values as
the full key.  ``hash_array(..., out=(h, scratch))`` runs the chain in
two given arrays instead of fresh ones, with the same bits.

One stream is not keyed: ``IndexStream(seed).integers(high, size)``
returns numpy's ``np.random.default_rng(seed).integers(0, high, size)``
(numpy 2.x, int64, calls made in order), computed here, so bootstrap
indices neither import ``numpy.random`` nor move with numpy's version.
"""

from __future__ import annotations

import functools
import math
from enum import IntEnum

import numpy as np

__all__ = [
    "Stream",
    "uniform_array",
    "hash_array",
    "hash_cuts",
    "geometric_array",
    "derive_seed",
    "key_prefix",
    "bernoulli_at",
    "rings_at",
    "IndexStream",
]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1

# Odd constants for field absorption (splitmix64 increment and two
# arbitrary large odd multipliers).
_GOLDEN = 0x9E3779B97F4A7C15
_MUL_A = 0xD6E8FEB86659FD93
_MUL_B = 0xA3AAC6CB67C5E0ED
# uint64 scalars of the hot path, built once: building them per call costs
# more than the arithmetic on the few sites a late scan round carries
_GOLDEN_U64 = _U64(_GOLDEN)
_S11, _S27, _S30, _S31 = _U64(11), _U64(27), _U64(30), _U64(31)
_FIN_1, _FIN_2 = _U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB)


class Stream(IntEnum):
    """Independent named randomness streams.

    BIT_X            base Bernoulli bits encoding a geometric weight
    BIT_XPRIME       replacement bits used when a clock has rung
    CLOCK_U          per-bit exponential resampling clocks
    SITE_CLOCK       per-site exponential resampling clocks
    BOUNDARY_V       boundary weights of stationary fields
    BOUNDARY_ARRIVAL arrival variables of the two-parameter queue coupling
    REPLICA          per-replica sub-seed derivation
    GENERIC          everything else (walks, synthetic data, bootstrap seeds)
    """

    BIT_X = 1
    BIT_XPRIME = 2
    CLOCK_U = 3
    SITE_CLOCK = 4
    BOUNDARY_V = 5
    BOUNDARY_ARRIVAL = 6
    REPLICA = 7
    GENERIC = 8


def _mix(z):
    # splitmix64 finalizer; uint64 arithmetic wraps mod 2**64.  Mixes an
    # array argument in place, so callers pass a fresh array.
    z ^= z >> _S30
    z *= _FIN_1
    z ^= z >> _S27
    z *= _FIN_2
    z ^= z >> _S31
    return z


def _mix_into(z, tmp):
    # _mix with each shift written into the scratch tmp of z's shape: the
    # same bits, and no array allocated.  _mix keeps the operators: a
    # ufunc call with out= takes twice as long on the scalar seed state.
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _FIN_1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _FIN_2
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z


def _as_u64(x) -> np.ndarray:
    # Accept signed ints/arrays; two's complement reinterpretation.
    return np.asarray(x, dtype=np.int64).astype(np.uint64)


def _x_state(seed, tag: Stream, sx) -> np.ndarray:
    # hash state after absorbing (seed, tag, sx); callers ignore overflow
    if isinstance(seed, np.ndarray):
        h = _mix(seed.astype(np.uint64)
                 + _U64((_GOLDEN * (int(tag) + 1)) & _MASK64))
    else:
        h = _mix(_U64((int(seed) + _GOLDEN * (int(tag) + 1)) & _MASK64))
    return _mix(h ^ (_as_u64(sx) * _U64(_MUL_A)))


def key_prefix(seed, tag: Stream, sx, sy) -> np.ndarray:
    """Hash state after absorbing ``(seed, tag, sx, sy)``.

    ``seed`` is an int or a uint64 array of seeds, such as one seed per
    replica shaped ``(R, 1, 1)``; it broadcasts with sx and sy.  Open
    grids (``xs[:, None]``, ``ys[None, :]``) absorb each x once per seed."""
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        return _mix(_x_state(seed, tag, sx) ^ (_as_u64(sy) * _U64(_MUL_B)))


def _absorb(prefix, index) -> np.ndarray:
    """The full keyed hash: absorb ``index`` into a key prefix."""
    with np.errstate(over="ignore"):
        return _mix(prefix ^ (_as_u64(index) * _GOLDEN_U64))


def hash_array(seed: int, tag: Stream, sx, sy, index,
               out=None) -> np.ndarray:
    """The raw 64-bit keyed hashes of the broadcast key arrays.

    ``out``, if given, is a pair of uint64 arrays of the broadcast key
    shape: the hashes are written into the first, which is returned, and
    the second is scratch.  The bits are the same, and the chain then
    allocates only arrays of the shapes of sx, sy and index."""
    if out is None:
        return _absorb(key_prefix(seed, tag, sx, sy), index)
    h, tmp = out
    with np.errstate(over="ignore"):
        np.bitwise_xor(_x_state(seed, tag, sx),
                       _as_u64(sy) * _U64(_MUL_B), out=h)
        _mix_into(h, tmp)
        h ^= _as_u64(index) * _GOLDEN_U64
        return _mix_into(h, tmp)


def _unit(h) -> np.ndarray:
    # top 53 bits as a double in [0, 1); shifts a fresh array in place
    h >>= _S11
    return h * (2.0 ** -53)


def _cut(c: float) -> int:
    """The least hash whose uniform reaches the cut point ``c >= 0``.

    With k = h >> 11 the uniform is k * 2**-53 exactly, so it is >= c iff
    k >= c * 2**53 iff k >= ceil(c * 2**53) (k is an integer and c * 2**53
    is exact) iff h >= ceil(c * 2**53) << 11.  A cut of 0 is reached by
    every hash; one of 2**64 or more (c > 1 - 2**-53) by none."""
    return math.ceil(c * 2.0 ** 53) << 11


def _below(h, p: float) -> np.ndarray:
    """``(h >> 11) * 2**-53 < p`` without the float conversion; the cut
    of 0 < p < 1 is below 2**64."""
    return h < _U64(_cut(p))


def bernoulli_at(prefix, index, p: float) -> np.ndarray:
    """Bits ``U < p`` of the keys ``prefix`` + ``index``."""
    return _below(_absorb(prefix, index), p)


def hash_cuts(cuts) -> np.ndarray:
    """The hash bounds ``_cut(c)`` of the nondecreasing cut points
    ``cuts`` that some hash reaches, as uint64: the number of them a hash
    h is >= equals ``searchsorted(cuts, (h >> 11) * 2**-53, "right")``."""
    return np.array([b for b in map(_cut, cuts) if b <= _MASK64],
                    dtype=np.uint64)


def _clock(k) -> np.ndarray:
    # the Exp(1) clocks -log(1 - U) of the hashes with h >> 11 = k, in the
    # array arithmetic of an exponential draw
    return -np.log1p(-(np.asarray(k, dtype=np.uint64) * 2.0 ** -53))


# Every k this close to K is checked by _ring_bound; farther off, the
# exact clock is more than 4096 * 2**-53 = 2**-41 from t, which is at
# least 64 ulps of any t < 64.
_RING_WINDOW = 4096


@functools.cache
def _ring_bound(t: float) -> int:
    """B(t) with: the Exp(1) clock of a hash h has rung by time t iff
    h < B(t).

    No clock rings by time 0 (B = 0).  For t > 0 a clock rings iff it is
    <= t.  The clock is nondecreasing in k = h >> 11, so the clocks <= t
    are those of k <= K, the largest such k, found by bisection, and
    B(t) = (K + 1) << 11.  Every k within ``_RING_WINDOW`` of K is then
    checked against "k <= K", which makes B exact as long as numpy's
    log1p errs by less than 64 ulps.  From the clock of the largest hash
    (about 36.74) on, every clock rings and B = 2**64."""
    if not t > 0.0:
        return 0
    lo, hi = 0, (1 << 53) - 1
    if _clock(hi) <= t:
        lo = hi
    while hi - lo > 1:      # _clock(lo) <= t < _clock(hi)
        mid = (lo + hi) // 2
        if _clock(mid) <= t:
            lo = mid
        else:
            hi = mid
    k = np.arange(max(lo - _RING_WINDOW, 0),
                  min(lo + _RING_WINDOW, (1 << 53) - 1) + 1, dtype=np.uint64)
    if not np.array_equal(_clock(k) <= t, k <= _U64(lo)):
        raise ArithmeticError(
            f"Exp(1) clocks near t={t!r} are not monotone in the hash; "
            f"numpy's log1p is too inexact to decide them on the hash")
    return (lo + 1) << 11


@functools.cache
def _ring_rows(times: tuple) -> tuple[np.ndarray, list[int]]:
    # uint64 bounds per time, and the times every clock has rung by
    # (their bound 2**64 does not fit, so they compare with 2**64 - 1)
    bounds = [_ring_bound(t) for t in times]
    return (np.array([min(b, _MASK64) for b in bounds], dtype=np.uint64),
            [i for i, b in enumerate(bounds) if b > _MASK64])


def rings_at(prefix, index, times: tuple) -> np.ndarray:
    """Whether the Exp(1) clocks ``-log(1 - U)`` of the keys ``prefix`` +
    ``index`` have rung by each of ``times``: shape
    ``(len(times),) + keys``.

    A clock rings by time t > 0 iff it is <= t, and none rings by time 0.
    Decided on the raw hash h as ``h < _ring_bound(t)``; ``times`` is a
    tuple of floats, so its bounds are computed once."""
    h = _absorb(prefix, index)
    bounds, every = _ring_rows(times)
    rung = h < bounds.reshape(bounds.shape + (1,) * h.ndim)
    if every:
        rung[every] = True
    return rung


def uniform_array(seed: int, tag: Stream, sx, sy, index) -> np.ndarray:
    """Uniform[0, 1) variates for the broadcast key arrays."""
    return _unit(hash_array(seed, tag, sx, sy, index))


def geometric_array(seed: int, tag: Stream, sx, sy, index, p: float) -> np.ndarray:
    """Geom(p) variates on {0, 1, ...} via inversion, P(k) = p(1-p)^k."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    u = uniform_array(seed, tag, sx, sy, index)
    return np.floor(np.log1p(-u) / np.log1p(-p)).astype(np.int64)


def derive_seed(seed: int, tag: Stream, index: int) -> int:
    """Derive an independent 64-bit sub-seed (replicas, sub-fields)."""
    return int(hash_array(int(seed), int(tag), 0, 0, int(index)))


# ------------------------------------------------------- bootstrap indices
# numpy's default_rng(seed): SeedSequence(seed) -> PCG64 (a 128-bit LCG
# with the XSL-RR output) -> next_uint32 -> the 32-bit Lemire bound of
# Generator.integers.  The constants are numpy's.

_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_M32_U64, _S32, _S58 = _U64(_MASK32), _U64(32), _U64(58)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# outputs per jump block: s_j = A_j s + C_j for j = 1 .. _JUMP
_JUMP = 4096


def _seed_state(seed: int) -> tuple[int, int, int, int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as ints."""
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    entropy = [seed >> s & _MASK32
               for s in range(0, max(seed.bit_length(), 1), 32)]
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        words.append(value ^ value >> 16)
    return tuple(words[i] | words[i + 1] << 32 for i in range(0, 8, 2))


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of each ``a * b``, for uint64 ``a`` and b < 2**64."""
    a0, a1 = a & _M32_U64, a >> _S32
    b0, b1 = _U64(b & _MASK32), _U64(b >> 32)
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _S32) + (p01 & _M32_U64) + (p10 & _M32_U64)
    return a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)


def _times(lo: np.ndarray, hi: np.ndarray, x: int):
    """The low and high uint64 halves of ``(hi * 2**64 + lo) * x`` mod
    2**128, for x < 2**128."""
    x_lo, x_hi = x & _MASK64, x >> 64
    return (lo * _U64(x_lo),
            _mulhi(lo, x_lo) + lo * _U64(x_hi) + hi * _U64(x_lo))


def _steps():
    # (A_j, G_j) for j = 1 .. _JUMP as 64-bit halves, one j at a time:
    # lists of the 128-bit ints raised a transversal batch's peak RSS by
    # about 0.7 MB
    a, g = 1, 0
    for _ in range(_JUMP):
        a, g = a * _PCG_MULT & _MASK128, g + a & _MASK128
        yield a & _MASK64, a >> 64, g & _MASK64, g >> 64


@functools.cache
def _jump_tables() -> tuple[np.ndarray, ...]:
    """Low and high halves of A_j = M**j and G_j = M**0 + ... + M**(j-1)
    mod 2**128 for j = 1 .. _JUMP: j LCG steps take s to A_j s + G_j inc.
    Read-only, as every stream shares them."""
    table = np.fromiter(_steps(), dtype=np.dtype((np.uint64, 4)),
                        count=_JUMP)
    table = np.ascontiguousarray(table.T)
    table.flags.writeable = False
    return tuple(table)


class IndexStream:
    """numpy's ``np.random.default_rng(seed).integers(0, high, size)``
    stream without ``numpy.random``: successive ``integers`` calls return
    what the same calls on one numpy 2.x ``Generator`` return (int64).

    The state is PCG64's 128-bit LCG state and the high half-word that
    ``next_uint32`` buffers, which carries across calls.  A block of LCG
    outputs is computed at once by jump-ahead from tables of A_j and
    C_j = G_j inc."""

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = _seed_state(int(seed))
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        # PCG64's set_seed: step, add the initial state, step
        self._state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc
                       ) & _MASK128
        self._half = None
        self._c = _times(*_jump_tables()[2:], inc)

    def _next64(self, k: int) -> np.ndarray:
        # the next k 64-bit outputs: step, then XSL-RR of the new state
        out = np.empty(k, dtype=np.uint64)
        a_lo, a_hi = _jump_tables()[:2]
        c_lo, c_hi = self._c
        for at in range(0, k, _JUMP):
            j = min(k - at, _JUMP)
            lo, hi = _times(a_lo[:j], a_hi[:j], self._state)
            lo += c_lo[:j]
            hi += c_hi[:j] + (lo < c_lo[:j])
            self._state = int(hi[-1]) << 64 | int(lo[-1])
            rot = hi >> _S58
            lo ^= hi
            out[at:at + j] = (lo >> rot) | (lo << (_U64(64) - rot & _U64(63)))
        return out

    def _words(self, n: int) -> np.ndarray:
        # the next n 32-bit words: each output's low half, then its high
        # half, which waits in _half when n ends between them
        lead = [] if self._half is None else [self._half]
        fresh = self._next64((n - len(lead) + 1) // 2)
        words = np.concatenate((np.array(lead, dtype=np.uint32),
                                fresh.astype("<u8", copy=False).view("<u4")))
        self._half = words[n] if words.size > n else None
        return words[:n]

    def integers(self, high, size: int) -> np.ndarray:
        """``size`` int64 draws uniform below ``high``: an int, or an array
        of one bound per draw, each in [1, 2**32).

        A word w gives ``(w * high) >> 32`` unless its low 32 bits fall
        below ``2**32 mod high``; then it is dropped and the draw and
        those after it take the next words.  A bound of 1 takes no word."""
        high = np.broadcast_to(np.asarray(high, dtype=np.int64), (size,))
        least, most = (high.min(), high.max()) if size else (2, 2)
        if least < 1 or most > _MASK32:
            raise ValueError("high must lie in [1, 2**32)")
        if least == 1:
            out = np.zeros(size, dtype=np.int64)
            live = high > 1
            out[live] = self.integers(high[live], int(live.sum()))
            return out
        high = high.astype(np.uint64)
        out = np.empty(size, dtype=np.int64)
        words, done = self._words(size), 0
        while True:
            h = high[done:]
            m = words * h
            low = m & _M32_U64
            # 2**32 mod h < h, so few words need the exact test
            bad = low < h
            if bad.any():
                bad[bad] = low[bad] < _U64(1 << 32) % h[bad]
            if not bad.any():
                out[done:] = m >> _S32
                return out
            # past the first rejected word the words shift onto later
            # draws; where those all share its bound, every word is decided
            r = int(bad.argmax())
            used = m.size if (h[r:] == h[r]).all() else r + 1
            kept = m[:used][~bad[:used]] >> _S32
            out[done:done + kept.size] = kept
            done += kept.size
            words = np.concatenate((words[used:],
                                    self._words(used - kept.size)))
