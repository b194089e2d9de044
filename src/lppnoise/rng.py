"""Deterministic keyed randomness.

Every random quantity in this package is a pure function of a structured
key: ``(master_seed, site, index, stream_tag)``.  There is no generator
state.  Two evaluations of the same key give the same value, values for
distinct keys are statistically independent, and whole fields can be
regenerated lazily from their keys instead of being stored.

The key is hashed into 64 bits with a splitmix64-style chain (one
finalizer round per absorbed field), which is a counter-based PRF of
adequate statistical quality for Monte Carlo work.  Uniform variates
keep the full 53-bit double resolution.

The chain absorbs ``index`` last, so the state after ``(seed, tag, x,
y)`` is a per-site *key prefix* (``key_prefix``): a scan over the
indices of one site hashes the prefix once and then needs one finalizer
round per draw (``uniform_at``, ``exponential_at``, ``bernoulli_at``),
with the same values as the full key.
"""

from __future__ import annotations

import math
from enum import IntEnum

import numpy as np

__all__ = [
    "Stream",
    "uniform_array",
    "geometric_array",
    "derive_seed",
    "key_prefix",
    "uniform_at",
    "exponential_at",
    "bernoulli_at",
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


def _as_u64(x) -> np.ndarray:
    # Accept signed ints/arrays; two's complement reinterpretation.
    return np.asarray(x, dtype=np.int64).astype(np.uint64)


def key_prefix(seed, tag: Stream, sx, sy) -> np.ndarray:
    """Hash state after absorbing ``(seed, tag, sx, sy)``.

    ``seed`` is an int or a uint64 array of seeds, such as one seed per
    replica shaped ``(R, 1, 1)``; it broadcasts with sx and sy.  Open
    grids (``xs[:, None]``, ``ys[None, :]``) absorb each x once per seed."""
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        if isinstance(seed, np.ndarray):
            h = _mix(seed.astype(np.uint64)
                     + _U64((_GOLDEN * (int(tag) + 1)) & _MASK64))
        else:
            h = _mix(_U64((int(seed) + _GOLDEN * (int(tag) + 1)) & _MASK64))
        h = _mix(h ^ (_as_u64(sx) * _U64(_MUL_A)))
        h = _mix(h ^ (_as_u64(sy) * _U64(_MUL_B)))
    return h


def _absorb(prefix, index) -> np.ndarray:
    """The full keyed hash: absorb ``index`` into a key prefix."""
    with np.errstate(over="ignore"):
        return _mix(prefix ^ (_as_u64(index) * _GOLDEN_U64))


def _hash_key(seed: int, tag: int, sx, sy, index) -> np.ndarray:
    """Vectorized keyed hash; broadcasts sx, sy, index."""
    return _absorb(key_prefix(seed, tag, sx, sy), index)


def _unit(h) -> np.ndarray:
    # top 53 bits as a double in [0, 1); shifts a fresh array in place
    h >>= _S11
    return h * (2.0 ** -53)


def uniform_at(prefix, index) -> np.ndarray:
    """Uniform[0, 1) variates of the keys ``prefix`` + ``index``."""
    return _unit(_absorb(prefix, index))


def exponential_at(prefix, index) -> np.ndarray:
    """Exp(1) variates ``-log(1 - U)`` of the keys ``prefix`` + ``index``."""
    return -np.log1p(-uniform_at(prefix, index))


def _below(h, p: float) -> np.ndarray:
    """``(h >> 11) * 2**-53 < p`` without the float conversion.

    With k = h >> 11 the uniform is k * 2**-53 exactly, so it is < p iff
    k < p * 2**53 iff k < c = ceil(p * 2**53) (k is an integer and
    p * 2**53 is exact) iff h < c << 11; c << 11 < 2**64 for p < 1."""
    return h < _U64(math.ceil(p * 2.0 ** 53) << 11)


def bernoulli_at(prefix, index, p: float) -> np.ndarray:
    """Bits ``uniform_at(prefix, index) < p``."""
    return _below(_absorb(prefix, index), p)


def uniform_array(seed: int, tag: Stream, sx, sy, index) -> np.ndarray:
    """Uniform[0, 1) variates for the broadcast key arrays."""
    return _unit(_hash_key(seed, tag, sx, sy, index))


def geometric_array(seed: int, tag: Stream, sx, sy, index, p: float) -> np.ndarray:
    """Geom(p) variates on {0, 1, ...} via inversion, P(k) = p(1-p)^k."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    u = uniform_array(seed, tag, sx, sy, index)
    return np.floor(np.log1p(-u) / np.log1p(-p)).astype(np.int64)


def derive_seed(seed: int, tag: Stream, index: int) -> int:
    """Derive an independent 64-bit sub-seed (replicas, sub-fields)."""
    return int(_hash_key(int(seed), int(tag), 0, 0, int(index)))
