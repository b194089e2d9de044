"""Boundary model: slope parameters, stationarity, queue coupling."""

import numpy as np
import pytest

from lppnoise.lattice import Rect, WeightConfig, weights
from lppnoise.rng import Stream, geometric_array
from lppnoise.stationary import (_boundary_grid, _check_in_grid,
                                 build_stationary, couple_columns, exit_times,
                                 geometric_gof_pvalue, lambda_geodesic_report,
                                 lambda_params)


def stationary_travel_time(sf, x, y):
    """T(lam; x, y) = G(y) - G(x) for grid-relative x <= y."""
    _check_in_grid(sf, x, "x")
    _check_in_grid(sf, y, "y")
    if not (x[0] <= y[0] and x[1] <= y[1]):
        raise ValueError(f"need x <= y componentwise, got {x}, {y}")
    return int(sf.G[y] - sf.G[x])


def shape_function(p, x):
    """Limit shape psi(x) = [(1-p)(x1+x2) + 2 sqrt((1-p) x1 x2)] / p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    x1, x2 = x
    if x1 < 0 or x2 < 0:
        raise ValueError(f"direction must be nonnegative, got {x}")
    r = 1.0 - p
    return (r * (x1 + x2) + 2.0 * np.sqrt(r * x1 * x2)) / p


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_lambda_params_ranges_and_symmetry(p):
    for lam in (0.1, 0.5, 0.9):
        par = lambda_params(p, lam)
        assert 0 < par.q < p
        assert 0 < par.p_v < 1 and par.p_h == par.q
        assert par.direction == (lam, 1.0 - lam)
    # on the diagonal the two boundary parameters coincide
    par = lambda_params(p, 0.5)
    assert par.p_h == pytest.approx(par.p_v, rel=1e-12)


def test_lambda_params_mirror_identity():
    # swapping lam <-> 1 - lam swaps the roles of the two axes:
    # p_v(lam) equals q(1 - lam)
    for p in (0.3, 0.6):
        for lam in (0.2, 0.4, 0.7):
            a = lambda_params(p, lam)
            b = lambda_params(p, 1.0 - lam)
            assert a.p_v == pytest.approx(b.q, rel=1e-12)


def test_slope_is_increasing_with_finite_difference_derivative():
    p = 0.5
    lams = np.linspace(0.05, 0.95, 19)
    qs = [lambda_params(p, la).q for la in lams]
    assert all(b > a for a, b in zip(qs, qs[1:]))
    h = 1e-6
    for la in (0.2, 0.5, 0.8):
        fd = (lambda_params(p, la + h).q - lambda_params(p, la - h).q) / (2 * h)
        assert lambda_params(p, la).q_prime == pytest.approx(fd, rel=1e-4)


@pytest.mark.parametrize("p,lam", [(0.3, 0.25), (0.5, 0.5), (0.7, 0.75)])
def test_domination_identity_exact(p, lam):
    for extent in [(1, 1), (1, 6), (6, 1), (30, 30)]:
        sf = build_stationary(p, lam, extent, seed=17)
        assert sf.domination_holds()


def test_increment_additivity_and_report_value():
    sf = build_stationary(0.5, 0.4, (25, 25), seed=23)
    x, y, z = (2, 3), (10, 11), (25, 25)
    t_xz = stationary_travel_time(sf, x, z)
    assert t_xz == stationary_travel_time(sf, x, y) + stationary_travel_time(sf, y, z)
    # the boundary DP from x reproduces the G increments (asserted inside)
    rep = lambda_geodesic_report(sf, x, z)
    assert rep.value == t_xz


def test_stationary_travel_time_validation():
    sf = build_stationary(0.5, 0.5, (5, 5), seed=29)
    with pytest.raises(ValueError):
        stationary_travel_time(sf, (3, 3), (2, 4))
    with pytest.raises(ValueError):
        stationary_travel_time(sf, (0, 0), (6, 6))
    with pytest.raises(ValueError):
        lambda_geodesic_report(sf, (2, 2), (2, 2))


def test_boundary_weights_and_bulk_sources():
    p, lam, seed = 0.5, 0.3, 37
    sf = build_stationary(p, lam, (8, 8), seed=seed)
    par = sf.params
    i = np.arange(1, 9, dtype=np.int64)
    assert np.array_equal(sf.grid[1:, 0],
                          geometric_array(seed, Stream.BOUNDARY_V, i, 0, 0, par.p_h))
    assert np.array_equal(sf.grid[0, 1:],
                          geometric_array(seed, Stream.BOUNDARY_V, 0, i, 0, par.p_v))
    assert sf.grid[0, 0] == 0
    cfg = WeightConfig(p, seed, Rect((1, 1), (8, 8)))
    assert np.array_equal(sf.grid[1:, 1:], weights(cfg))


def test_shared_bulk_with_independent_boundaries():
    bulk = np.arange(49).reshape(7, 7) % 5
    par = lambda_params(0.5, 0.5)
    a = _boundary_grid(par, (6, 6), 1, bulk=bulk)
    b = _boundary_grid(par, (6, 6), 2, bulk=bulk)
    assert np.array_equal(a[1:, 1:], b[1:, 1:])
    assert not np.array_equal(a[:, 0], b[:, 0])
    with pytest.raises(ValueError):
        _boundary_grid(par, (6, 6), 1, bulk=np.zeros((3, 3)))


def test_increment_marginals_by_gof():
    # a fresh column far from the base keeps the boundary marginals
    p, lam = 0.5, 0.5
    par = lambda_params(p, lam)
    sf = build_stationary(p, lam, (20_000, 12), seed=43)
    col = sf.increments_h()[:, -1]
    assert geometric_gof_pvalue(col, par.q) > 1e-3
    sf2 = build_stationary(p, lam, (12, 20_000), seed=47)
    row = sf2.increments_v()[-1, :]
    assert geometric_gof_pvalue(row, par.p_v) > 1e-3
    # a wrong parameter is rejected outright
    assert geometric_gof_pvalue(col, par.q * 0.8) < 1e-6


def test_increment_means_track_closed_forms():
    p, lam = 0.6, 0.35
    par = lambda_params(p, lam)
    sf = build_stationary(p, lam, (40_000, 10), seed=53)
    col = sf.increments_h()[:, -1]
    mean_h = (1 - par.q) / par.q
    se = col.std(ddof=1) / np.sqrt(col.size)
    assert abs(col.mean() - mean_h) < 5 * se


def test_exit_times_match_path_inspection():
    sf = build_stationary(0.5, 0.5, (10, 10), seed=59)
    for y in [(10, 10), (4, 9), (9, 4)]:
        rep = lambda_geodesic_report(sf, (0, 0), y)
        et = exit_times(sf, (0, 0), y)

        def initial_run(path, axis):
            k = 0
            for v in path[1:]:
                if v[1 - axis] != 0:
                    break
                k = v[axis]
            return k

        assert et.z_h == initial_run(rep.downmost, 0)
        assert et.z_v == initial_run(rep.upmost, 1)
        assert et.exits_right == (et.z_h >= 1)
        assert et.exits_up == (et.z_v >= 1)
        # a geodesic cannot start along both axes at once
        assert not (et.z_h >= 1 and et.z_v >= 1)


def test_couple_columns_lindley_oracle_and_domination():
    cc = couple_columns(0.5, 0.3, 0.6, customers=3000, seed=61, burn_in=500)
    # reference: explicit Lindley/queue recursion, one customer at a time
    dep_prev, deps = 0, []
    arr_time = 0
    for s, a in zip(cc.service, cc.arrival):
        arr_time += a
        dep_prev = max(dep_prev, arr_time) + s
        deps.append(dep_prev)
    dep_times = np.cumsum(cc.departure)
    assert np.array_equal(dep_times, np.array(deps))
    assert (cc.departure >= cc.service).all()
    assert cc.equilibrium_departures().size == 2500


def test_couple_columns_equilibrium_marginal():
    p, lam, lam_p = 0.5, 0.25, 0.75
    cc = couple_columns(p, lam, lam_p, customers=40_000, seed=67, burn_in=5000)
    hi = lambda_params(p, lam_p)
    assert geometric_gof_pvalue(cc.equilibrium_departures(), hi.p_v) > 1e-3
    assert abs(cc.stationarity_z) < 3


def test_couple_columns_validation():
    with pytest.raises(ValueError):
        couple_columns(0.5, 0.6, 0.3, 100, seed=1, burn_in=10)
    with pytest.raises(ValueError):
        couple_columns(0.5, 0.3, 0.6, 100, seed=1, burn_in=100)
    with pytest.raises(ValueError):
        couple_columns(0.5, 0.3, 0.6, 0, seed=1)


def test_shape_function_values_and_monotonicity():
    p = 0.5
    r = 1 - p
    assert shape_function(p, (1.0, 1.0)) == pytest.approx((2 * r + 2 * np.sqrt(r)) / p)
    assert shape_function(p, (1.0, 0.0)) == pytest.approx(r / p)
    assert shape_function(p, (0.0, 0.0)) == 0.0
    assert shape_function(p, (2.0, 2.0)) == pytest.approx(2 * shape_function(p, (1.0, 1.0)))
    xs = np.linspace(0, 1, 11)
    vals = [shape_function(p, (x, 1.0)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        shape_function(0.5, (-1.0, 1.0))
    with pytest.raises(ValueError):
        shape_function(1.5, (1.0, 1.0))


def test_shape_function_matches_boundary_mean():
    # along e1 the passage time is a plain Geom(p) row sum
    p, n = 0.4, 20_000
    cfg = WeightConfig(p, 71, Rect((0, 0), (n - 1, 0)))
    row = weights(cfg).ravel()
    psi = shape_function(p, (1.0, 0.0))
    assert abs(row.mean() - psi) < 5 * np.sqrt(row.var() / n)


def test_gof_pvalue_calibration():
    # under the null the p-value is roughly uniform
    q = 0.45
    ps = []
    for trial in range(60):
        x = geometric_array(73, Stream.GENERIC, np.arange(2000), trial, 0, q)
        ps.append(geometric_gof_pvalue(x, q))
    ps = np.array(ps)
    assert (ps < 0.01).mean() <= 0.1
    assert 0.3 < ps.mean() < 0.7


def test_gof_pvalue_validation():
    with pytest.raises(ValueError):
        geometric_gof_pvalue(np.zeros(100, dtype=int), 0.5)  # too few
    with pytest.raises(ValueError):
        geometric_gof_pvalue(np.full(300, -1), 0.5)
    with pytest.raises(ValueError):
        geometric_gof_pvalue(np.zeros(300, dtype=int), 1.0)
