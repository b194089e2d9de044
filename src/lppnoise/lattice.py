"""Lattice weight fields and their resampling dynamics.

A site weight is geometric with parameter p, encoded by a Bernoulli bit
stream: ``omega_v = min{i >= 0 : X_{v,i} = 1}`` with ``X_{v,i} ~ Ber(p)``
drawn from the keyed stream ``BIT_X``.  Nothing is stored; every bit,
clock and replacement bit is recomputed from its key on demand, so a
field and all of its noisy versions are pure functions of
``(seed, p, region)``.

Three dynamics produce a time-t partner of a field:

* ``BIT``: each bit carries an Exp(1) clock ``U_{v,i}`` (stream
  ``CLOCK_U``) and is replaced by a fresh bit (stream ``BIT_XPRIME``)
  when ``t >= U_{v,i}``.
* ``SITE``: each site carries one Exp(1) clock (stream ``SITE_CLOCK``)
  and the whole weight is replaced by an independent geometric (decoded
  from the ``BIT_XPRIME`` stream) when the clock has rung.
* coupled (``coupled_group``): the comparison construction with cap
  ``M``.  The site clock is ``U~_v = M * min_{0<=i<M} U_{v,i}``, reusing
  the per-bit clocks, so every bit among the first M that is resampled
  at time t in the BIT dynamics is also resampled at time ``M*t`` in the
  site dynamics.

No draw is turned into a float: a bit is ``U < p`` and a clock rings by
time t iff ``-log(1 - U) <= t``, and both are decided by one integer
compare of the raw 64-bit hash (``rng.bernoulli_at``, ``rng.rings_at``),
with the values of the float draws.

Every field is decoded by one scan (``_scan``) that carries only the
unresolved sites, compressed: their flat indices, their per-site key
prefixes (``rng.key_prefix``, so a round absorbs only the bit index) and
the mask of their pending members.  Round i draws bit i of each carried
site; a member's weight is written in the round of its first one, and a
site leaves the carried arrays once all its members have met theirs.  A
base field and all its noisy partners are members of one scan, so the
bits and clocks they share are hashed once per site and round (common
random numbers); a BIT round draws the base and the replacement bit of
every carried site, which costs less than selecting the sites that need
each.  SITE partners decode the replacement field only on the sites
whose clock rang by the largest t, and the coupled site clock stops at a
site's first per-bit clock <= t.  This is exact because every draw is a
pure function of its key: the keyed hash is a chain of splitmix64
finalizers (Steele, Lea & Flood, OOPSLA 2014) used as a counter-based
generator (Salmon et al., SC'11), so a skipped draw is one whose value
cannot matter and the fields equal a decode of each member on its own,
bit for bit.

For the same reason any grouping of sites gives the same values, and
the replica loops decode in groups under one site budget,
``_SITE_BUDGET`` (2**15 sites).  ``replica_groups`` packs the seeds of
small fields into groups of whole replicas up to the budget, and
``weight_group``, ``noisy_group`` and ``coupled_group`` decode a group
as one ``(R, n1, n2)`` stack in one scan, with the seeds as a
``(R, 1, 1)`` key column.  A group of k >= 2 budgets is decoded in k
strips of equal rows, which keeps a scan's temporaries in cache (loop
blocking: Lam, Rothberg & Wolf, ASPLOS 1991).  Against one decode of the
whole field, strips took 12% off the variance and transversal runs at
n = 64...512 and 8 MB off their peak memory (2 cores, 10 alternating
pairs); fields of 40-45k sites stay whole.  ``weights`` is the
one-seed case of ``weight_group``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rng import Stream, bernoulli_at, key_prefix, rings_at

__all__ = [
    "scan_cap",
    "RngIntegrityError",
    "Rect",
    "NoiseKind",
    "replica_groups",
    "weight_group",
    "weights",
    "noisy_group",
    "coupled_group",
    "coupled_cap",
    "site_bits",
]

_SCAN_TAIL = 40 * math.log(10)   # scan_cap: unresolved w.p. <= 1e-40
# Sites one decode holds: replica_groups packs small fields up to this
# many sites, and _by_strips cuts a group of k >= 2 times as many into k
# strips.
_SITE_BUDGET = 2**15


class RngIntegrityError(RuntimeError):
    """A bit scan ran past the safety cap; the bit stream is broken."""


@dataclass(frozen=True)
class Rect:
    """Closed lattice rectangle with inclusive corners ``lo <= hi``."""

    lo: tuple[int, int]
    hi: tuple[int, int]

    def __post_init__(self) -> None:
        if self.lo[0] > self.hi[0] or self.lo[1] > self.hi[1]:
            raise ValueError(f"empty rectangle: lo={self.lo} hi={self.hi}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.hi[0] - self.lo[0] + 1, self.hi[1] - self.lo[1] + 1)

    def coord_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Absolute coordinates of all sites, shaped like the field array."""
        xs, ys = _open_grid(self)
        return np.meshgrid(xs.ravel(), ys.ravel(), indexing="ij")


def _check_p(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")


class NoiseKind(Enum):
    BIT = "bit"
    SITE = "site"


def scan_cap(p: float) -> int:
    """Rounds after which a bit scan at parameter p gives up.

    A site is still unresolved after c rounds with probability
    (1-p)**c; the cap puts that below 1e-40, so only a damaged stream
    reaches it."""
    return math.ceil(_SCAN_TAIL / -math.log1p(-p))


def _scan(n_members: int, cap: int, prefixes, hits) -> np.ndarray:
    """First round i < cap in which each member hits, per site of the
    flat key prefix arrays ``prefixes``: shape ``(n_members, sites)``, -1
    where a member has not hit.

    ``hits(prefixes, i)`` gets the key prefixes of the carried sites (one
    flat array per stream, in the order of ``prefixes``) and returns a
    boolean array broadcastable to ``(n_members, carried)``: which members
    hit in round i.  The scan carries only the unresolved sites,
    compressed: their flat indices, their prefixes and the mask of their
    pending members.  A site leaves once all its members have hit, so no
    draw is made for a settled site.  A hit is written in its round;
    round 0 needs no write, as the weights start at 0.
    """
    out = np.zeros((n_members, prefixes[0].size), dtype=np.int64)
    idx = np.arange(out.shape[1])
    pending = np.ones(out.shape, dtype=bool)
    # index arrays (nonzero, take), not boolean masks: numpy's masked
    # copies branch per element and cost several times more
    for i in range(cap):
        if not idx.size:
            break
        hit = hits(prefixes, i) & pending
        if i:
            for row, h in zip(out, hit):
                row[idx.take(h.nonzero()[0])] = i
        pending ^= hit
        keep = (pending.any(axis=0) if n_members > 1
                else pending[0]).nonzero()[0]
        idx, pending = idx.take(keep), pending.take(keep, axis=1)
        prefixes = [a.take(keep) for a in prefixes]
    for row, left in zip(out, pending):
        row[idx[left]] = -1
    return out


def _decode(seed, p: float, sx, sy, times=(0.0,),
            tag: Stream = Stream.BIT_X) -> np.ndarray:
    """Weights of one member per noise time on the keys ``(seed, sx, sy)``.

    Member k decodes the first one among the bits of the ``tag`` stream,
    where bit i of a site is replaced by its ``BIT_XPRIME`` bit once the
    site's i-th ``CLOCK_U`` clock is <= ``times[k]`` (never for a time
    of 0).  All members share one scan over the union of their
    unresolved sites, and each stream is hashed from a per-site key
    prefix.  ``seed`` is an int or a uint64 array that broadcasts with sx
    and sy; seeds shaped ``(R, 1, 1)`` decode R replicas in one scan.
    Returns shape ``(len(times),) + broadcast(seed, sx, sy)``.
    """
    t = tuple(map(float, times))
    px = key_prefix(seed, tag, sx, sy)
    shape = np.shape(px)
    prefixes = [px.ravel()]
    if any(x > 0.0 for x in t):
        prefixes += [key_prefix(seed, s, sx, sy).ravel()
                     for s in (Stream.CLOCK_U, Stream.BIT_XPRIME)]

        def hits(pre, i):
            # a member reads xr where its clock rang, else x; every
            # carried site draws both, which costs less than gathering
            # the sites that need each
            x, xr = bernoulli_at(pre[0], i, p), bernoulli_at(pre[2], i, p)
            rung = rings_at(pre[1], i, t)
            return x ^ (rung & (x ^ xr))
    else:
        def hits(pre, i):
            return bernoulli_at(pre[0], i, p)

    cap = scan_cap(p)
    w = _scan(len(t), cap, prefixes, hits)
    if (w < 0).any():
        raise RngIntegrityError(
            f"bit scan at p={p} exceeded {cap} rounds; keyed stream damaged")
    return w.reshape((len(t),) + shape)


def _open_grid(region: Rect) -> tuple[np.ndarray, np.ndarray]:
    xs = np.arange(region.lo[0], region.hi[0] + 1, dtype=np.int64)
    ys = np.arange(region.lo[1], region.hi[1] + 1, dtype=np.int64)
    return xs[:, None], ys[None, :]


def replica_groups(seeds, region: Rect) -> list[list[int]]:
    """Replica seeds, in order, cut into the seed lists of the ``*_group``
    decoders: whole replicas with at most ``_SITE_BUDGET`` sites of
    ``region`` in all (one replica at least)."""
    n1, n2 = region.shape
    per = max(1, _SITE_BUDGET // (n1 * n2))
    seeds = list(seeds)
    return [seeds[a:a + per] for a in range(0, len(seeds), per)]


def _by_strips(decode, seeds, region: Rect) -> np.ndarray:
    """``decode(seed column, xs, ys)`` over the sites of ``region`` for all
    ``seeds`` at once, with the seeds as a ``(R, 1, 1)`` column and the
    region as an open grid.

    A group of ``k * _SITE_BUDGET`` sites or more, k >= 2, is decoded in
    up to k strips of equal rows (the last may be shorter), joined along
    the row axis (-2); each value is a pure function of its own site's
    keys, so the strips give the same values as one decode."""
    # mod 2**64, as key_prefix reduces an int seed
    col = np.array([int(s) % 2**64 for s in seeds],
                   dtype=np.uint64)[:, None, None]
    xs, ys = _open_grid(region)
    n1, n2 = region.shape
    k = col.size * n1 * n2 // _SITE_BUDGET
    if k < 2:
        return decode(col, xs, ys)
    rows = -(-n1 // k)
    return np.concatenate([decode(col, xs[a:a + rows], ys)
                           for a in range(0, n1, rows)], axis=-2)


def _replacement(p: float, col, xs, ys, mask: np.ndarray) -> np.ndarray:
    """The independent replacement weights (stream ``BIT_XPRIME``) on the
    sites of the ``(R, n1, n2)`` grid where ``mask`` is set, in row-major
    order."""
    def at(a):
        return np.broadcast_to(a, mask.shape)[mask]
    return _decode(at(col), p, at(xs), at(ys), tag=Stream.BIT_XPRIME)[0]


def weight_group(p: float, seeds, region: Rect) -> np.ndarray:
    """The weight fields of the replica ``seeds`` on ``region``, decoded
    from the bit streams in one scan: shape ``(R, n1, n2)``."""
    _check_p(p)
    return _by_strips(lambda col, xs, ys: _decode(col, p, xs, ys)[0],
                      seeds, region)


def weights(p: float, seed: int, region: Rect) -> np.ndarray:
    """The weight field of ``seed`` on ``region``, decoded from the bit
    streams."""
    return weight_group(p, (seed,), region)[0]


def noisy_group(p: float, seeds, region: Rect, t_values,
                kind: NoiseKind) -> np.ndarray:
    """The time-t partners of the replica fields for every t, from one
    decode: shape ``(len(t_values), R, n1, n2)``.

    Member k is the ``kind`` partner at ``t_values[k]`` (the field itself
    where t = 0).  BIT partners share one scan; SITE partners share the
    base field and decode the replacement field only where a site clock
    rang by the largest t.
    """
    _check_p(p)
    t = np.asarray(t_values, dtype=np.float64)
    if t.ndim != 1 or (t < 0.0).any():
        raise ValueError(f"noise times must be a list of values >= 0, "
                         f"got {t_values}")
    if kind is NoiseKind.BIT:
        return _by_strips(lambda col, xs, ys: _decode(col, p, xs, ys, t),
                          seeds, region)

    times = tuple(t.tolist())

    def site(col, xs, ys):
        base = _decode(col, p, xs, ys)[0]
        rung = rings_at(key_prefix(col, Stream.SITE_CLOCK, xs, ys), 0, times)
        swapped = rung.any(axis=0)
        repl = base.copy()
        repl[swapped] = _replacement(p, col, xs, ys, swapped)
        return np.where(rung, repl, base)

    return _by_strips(site, seeds, region)


def coupled_group(p: float, seeds, region: Rect, t: float,
                  cap: int) -> np.ndarray:
    """The replica fields with their BIT partners at time t and their site
    partners at time M*t under the coupled site clock, for the cap
    M = ``cap``: shape ``(3, R, n1, n2)`` for base, BIT and site members."""
    _check_p(p)
    if t < 0.0:
        raise ValueError(f"noise time must be >= 0, got {t}")
    if cap < 1:
        raise ValueError(f"coupled dynamics needs a cap M >= 1, got {cap}")
    m = int(cap)

    def decode(col, xs, ys):
        out = np.empty((3, col.size, xs.size, ys.size), dtype=np.int64)
        out[:2] = _decode(col, p, xs, ys, (0.0, t))
        out[2] = out[0]
        if t > 0.0:
            # U~ <= M*t iff one of the first M per-bit clocks is <= t; a
            # site's clocks are read only up to the first such one
            pu = key_prefix(col, Stream.CLOCK_U, xs, ys).ravel()
            first = _scan(1, m, [pu], lambda pre, i:
                          rings_at(pre[0], i, (t,)))
            rung = (first[0] >= 0).reshape(out.shape[1:])
            out[2][rung] = _replacement(p, col, xs, ys, rung)
        return out

    return _by_strips(decode, seeds, region)


def coupled_cap(n: int, p: float) -> int:
    """Cap M with ``n**2 * (1-p)**M <= n**-3``: M = ceil(5 ln n / ln 1/(1-p))."""
    if n < 2:
        raise ValueError(f"cap needs n >= 2, got {n}")
    _check_p(p)
    return int(np.ceil(5.0 * np.log(n) / -np.log1p(-p)))


def site_bits(p: float, seed: int, v: tuple[int, int],
              count: int) -> np.ndarray:
    """First ``count`` encoding bits of one site (for bit-level surgery)."""
    _check_p(p)
    idx = np.arange(count, dtype=np.int64)
    return bernoulli_at(key_prefix(seed, Stream.BIT_X, v[0], v[1]), idx, p)
