"""Stationary boundary model for geometric last-passage percolation.

For a density parameter ``lam`` in (0, 1) the slope function

    q(lam) = p(lam + a) / (r + p*lam + 2a),   a = sqrt(r*lam*(1-lam)),
    r = 1 - p,

maps (0,1) onto (0,p).  A quarter-plane field based at ``u`` puts weight
0 at the corner, i.i.d. Geom(p_H) weights on the south row with
``p_H = q(lam)``, i.i.d. Geom(p_V) weights on the west column with
``p_V = 1 - r/(1 - q)``, and the plain Geom(p) bulk elsewhere.  Its
passage times G make the increment fields

    omega^H_x = G(x) - G(x - e1),   omega^V_x = G(x) - G(x - e2)

stationary: marginals stay Geom(p_H) / Geom(p_V) everywhere, increments
along any down-right staircase are mutually independent, and in the bulk
the pointwise identity ``omega_x = min(omega^H_x, omega^V_x)`` holds
exactly.

Raising ``lam`` tilts the characteristic direction ``u_lam = (lam,
1-lam)`` toward e1; two columns at parameters ``lam < lam'`` are coupled
through a discrete single-server queue (service = the lam-column,
arrivals Geom(p_V(lam'))), whose inter-departure times reproduce the
lam'-column while dominating the service times customer by customer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .lpp import forward_table, geodesic_report, GeodesicReport
from .rng import Stream, geometric_array
from .lattice import Rect, weights

__all__ = [
    "LAMBDA_CLAMP",
    "LambdaParams",
    "lambda_params",
    "StationaryField",
    "set_boundary",
    "build_stationary",
    "lambda_geodesic_report",
    "ExitTimes",
    "exit_times",
    "CoupledColumns",
    "couple_columns",
    "geometric_gof_pvalue",
]

LAMBDA_CLAMP = 1e-9


@dataclass(frozen=True)
class LambdaParams:
    """Derived parameters of one boundary density lam."""

    p: float
    lam: float
    q: float
    q_prime: float
    p_h: float
    p_v: float
    direction: tuple[float, float]


def lambda_params(p: float, lam: float) -> LambdaParams:
    """Slope q, its derivative, and the two boundary parameters.

    ``lam`` is clamped into [LAMBDA_CLAMP, 1 - LAMBDA_CLAMP] to keep
    p_V away from a division blowup near lam = 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")
    lam = min(max(lam, LAMBDA_CLAMP), 1.0 - LAMBDA_CLAMP)
    r = 1.0 - p
    a = np.sqrt(r * lam * (1.0 - lam))
    den = r + p * lam + 2.0 * a          # equals (sqrt(lam) + sqrt(r*(1-lam)))**2
    q = p * (lam + a) / den
    q_prime = p * r / (2.0 * a * den)
    p_h = q
    p_v = 1.0 - r / (1.0 - q)
    return LambdaParams(p=p, lam=lam, q=float(q), q_prime=float(q_prime),
                        p_h=float(p_h), p_v=float(p_v),
                        direction=(lam, 1.0 - lam))


@dataclass(frozen=True)
class StationaryField:
    """Quarter-plane construction on ``[0..m1] x [0..m2]``.

    ``grid[i, j]`` is the modified weight at site ``(i, j)`` (corner 0,
    boundary rows, bulk); ``G`` its forward passage table.
    """

    params: LambdaParams
    extent: tuple[int, int]
    grid: np.ndarray
    G: np.ndarray

    def increments_h(self) -> np.ndarray:
        """omega^H over the grid; entry [i-1, j] is the increment at
        (i, j), i >= 1."""
        return np.diff(self.G, axis=0)

    def increments_v(self) -> np.ndarray:
        """omega^V over the grid; entry [i, j-1] is the increment at
        (i, j), j >= 1."""
        return np.diff(self.G, axis=1)

    def domination_holds(self) -> bool:
        """Exact bulk identity omega = min(omega^H, omega^V)."""
        if self.extent[0] < 1 or self.extent[1] < 1:
            return True
        oh = self.increments_h()[:, 1:]
        ov = self.increments_v()[1:, :]
        return bool(np.array_equal(np.minimum(oh, ov), self.grid[1:, 1:]))


def set_boundary(grid: np.ndarray, params: LambdaParams, seed: int,
                 base: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Write the boundary into ``grid``, whose corner is the site ``base``,
    and return it: 0 at the corner and the seed's BOUNDARY_V weights at
    the absolute sites of row 0 (Geom(p_H)) and column 0 (Geom(p_V)).
    The bulk is left alone, so grids of distinct seeds can share one."""
    i = np.arange(1, grid.shape[0], dtype=np.int64)
    j = np.arange(1, grid.shape[1], dtype=np.int64)
    grid[0, 0] = 0
    grid[1:, 0] = geometric_array(seed, Stream.BOUNDARY_V, base[0] + i,
                                  base[1], 0, params.p_h)
    grid[0, 1:] = geometric_array(seed, Stream.BOUNDARY_V, base[0],
                                  base[1] + j, 0, params.p_v)
    return grid


def build_stationary(p: float, lam: float, extent: tuple[int, int],
                     seed: int) -> StationaryField:
    """Sample boundary weights, fill the bulk, and run the passage DP.

    Boundary weights come from the seed's BOUNDARY_V stream and the bulk
    from the plain field of the same seed over ``[1..m1] x [1..m2]``.
    """
    params = lambda_params(p, lam)
    m1, m2 = extent
    if m1 < 0 or m2 < 0:
        raise ValueError(f"extent must be nonnegative, got {extent}")
    grid = np.empty((m1 + 1, m2 + 1), dtype=np.int64)
    if m1 >= 1 and m2 >= 1:
        grid[1:, 1:] = weights(p, seed, Rect((1, 1), (m1, m2)))
    set_boundary(grid, params, seed)
    return StationaryField(params=params, extent=(m1, m2), grid=grid,
                           G=forward_table(grid))


def _check_in_grid(sf: StationaryField, x: tuple[int, int], name: str) -> None:
    if not (0 <= x[0] <= sf.extent[0] and 0 <= x[1] <= sf.extent[1]):
        raise ValueError(f"{name}={x} outside grid extent {sf.extent}")


def _relative_weights(sf: StationaryField, x: tuple[int, int],
                      y: tuple[int, int]) -> np.ndarray:
    """Modified weights for the rectangle from x to y: 0 at x, G
    increments along x's row and column, bulk inside."""
    w = np.empty((y[0] - x[0] + 1, y[1] - x[1] + 1), dtype=np.int64)
    w[0, 0] = 0
    w[1:, 0] = np.diff(sf.G[x[0]:y[0] + 1, x[1]])
    w[0, 1:] = np.diff(sf.G[x[0], x[1]:y[1] + 1])
    w[1:, 1:] = sf.grid[x[0] + 1:y[0] + 1, x[1] + 1:y[1] + 1]
    return w


def lambda_geodesic_report(sf: StationaryField, x: tuple[int, int],
                           y: tuple[int, int]) -> GeodesicReport:
    """Geodesic structure of the boundary process from x to y.

    The report's value always equals G(y) - G(x): the boundary DP from
    an interior base reproduces the increments of G exactly.
    """
    _check_in_grid(sf, x, "x")
    _check_in_grid(sf, y, "y")
    if not (x[0] < y[0] or x[1] < y[1]) or not (x[0] <= y[0] and x[1] <= y[1]):
        raise ValueError(f"need x <= y and x != y, got {x}, {y}")
    rep = geodesic_report(_relative_weights(sf, x, y))
    if rep.value != sf.G[y] - sf.G[x]:
        raise AssertionError("boundary DP disagrees with G increments")
    return rep


@dataclass(frozen=True)
class ExitTimes:
    """Boundary exit steps of the extreme geodesics from x to y.

    ``z_h`` counts initial e1 steps of the downmost geodesic, ``z_v``
    initial e2 steps of the upmost; ``z_h >= 1`` iff the downmost
    geodesic starts with an e1 step (the right-exit event), and
    symmetrically for ``z_v``.
    """

    z_h: int
    z_v: int

    @property
    def exits_right(self) -> bool:
        return self.z_h >= 1

    @property
    def exits_up(self) -> bool:
        return self.z_v >= 1


def exit_times(sf: StationaryField, x: tuple[int, int],
               y: tuple[int, int]) -> ExitTimes:
    rep = lambda_geodesic_report(sf, x, y)
    down, up = rep.downmost, rep.upmost
    z_h = int(np.max(down[down[:, 1] == 0, 0]))
    z_v = int(np.max(up[up[:, 0] == 0, 1]))
    return ExitTimes(z_h=z_h, z_v=z_v)


@dataclass(frozen=True)
class CoupledColumns:
    """Queue coupling of two column-increment sequences.

    ``service[j]``: the lam-column, Geom(p_V(lam)); ``arrival[j]``:
    inter-arrival times, Geom(p_V(lam_p)); ``departure[j]``:
    inter-departure times of the single-server FIFO queue started empty,
    which dominate the services exactly and are Geom(p_V(lam_p)) in
    equilibrium.  The first ``burn_in`` customers are excluded from
    statistical summaries.
    """

    p: float
    lam: float
    lam_p: float
    service: np.ndarray
    arrival: np.ndarray
    departure: np.ndarray
    burn_in: int
    stationarity_z: float

    def equilibrium_departures(self) -> np.ndarray:
        return self.departure[self.burn_in:]


def couple_columns(p: float, lam: float, lam_p: float, customers: int,
                   seed: int, burn_in: int = 10_000) -> CoupledColumns:
    if not lam < lam_p:
        raise ValueError(f"need lam < lam_p, got {lam}, {lam_p}")
    lo, hi = lambda_params(p, lam), lambda_params(p, lam_p)
    if customers < 1:
        raise ValueError("need at least one customer")
    if not 0 <= burn_in < customers:
        raise ValueError(f"burn_in {burn_in} must be < customers {customers}")
    j = np.arange(1, customers + 1, dtype=np.int64)
    service = geometric_array(seed, Stream.BOUNDARY_V, j, 0, 0, lo.p_v)
    arrival = geometric_array(seed, Stream.BOUNDARY_ARRIVAL, j, 0, 0, hi.p_v)
    arr_times = np.cumsum(arrival)
    s = np.cumsum(service)
    # departure times D_j = max_{k<=j} (A_k + sum_{i=k..j} s_i), prefix form
    dep_times = s + np.maximum.accumulate(arr_times - (s - service))
    departure = np.diff(dep_times, prepend=0)
    eq = departure[burn_in:]
    half = eq.size // 2
    z = 0.0
    if half >= 2:
        a, b = eq[:half], eq[half:]
        se = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        z = float((a.mean() - b.mean()) / se) if se > 0 else 0.0
        if abs(z) > 3.0:
            warnings.warn(
                f"queue departures look non-stationary (z = {z:.2f}); "
                "increase burn_in", RuntimeWarning)
    return CoupledColumns(p=p, lam=lam, lam_p=lam_p, service=service,
                          arrival=arrival, departure=departure,
                          burn_in=burn_in, stationarity_z=z)


def geometric_gof_pvalue(samples: np.ndarray, q: float) -> float:
    """Chi-square p-value against Geometric(q) on {0, 1, 2, ...}.

    Values are binned as 0, 1, ..., K-1 plus a tail bin >= K, with K
    chosen so every expected count is at least 20.
    """
    from scipy import stats

    x = np.asarray(samples)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if x.size < 200 or (x < 0).any():
        raise ValueError("need at least 200 nonnegative samples")
    n = x.size
    k_max = int(np.floor(np.log(20.0 / n) / np.log1p(-q)))
    k_max = max(k_max, 1)
    obs = np.bincount(np.minimum(x, k_max).astype(np.int64),
                      minlength=k_max + 1).astype(float)
    ks = np.arange(k_max)
    expected = np.empty(k_max + 1)
    expected[:k_max] = n * q * (1.0 - q) ** ks
    expected[k_max] = n * (1.0 - q) ** k_max
    return float(stats.chisquare(obs, expected).pvalue)
