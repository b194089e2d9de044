"""Semigroup calculus on the biased cube against dense-matrix oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppnoise import cube
from lppnoise.cube import (MAX_M, bks_params, cube_function, expectation,
                           geometric_lsi_ratio, geometric_lsi_terms,
                           influence, noisy_covariance, random_normal_function,
                           rho, verify_bks, verify_lemma_suite)


def _flat(f):
    return f.values.reshape(-1)


def variance(f):
    return cube._variance(f, expectation(f))


def _apply(f, t):
    return cube_function(f.m, f.p, cube._apply_values(f.values, f.m, f.p, t))


def random_monotone_function(m, p, rng):
    """Random weighted threshold indicator (monotone in every bit)."""
    w = rng.exponential(size=m)
    theta = float(rng.uniform(0.0, w.sum()))
    vals = np.zeros((2,) * m)
    for idx in np.ndindex(*vals.shape):
        vals[idx] = 1.0 if float(np.dot(w, idx)) >= theta else 0.0
    return cube_function(m, p, vals)


def random_junta(m, p, k, rng):
    """Function of k randomly chosen coordinates."""
    if not 1 <= k <= m:
        raise ValueError(f"junta size {k} out of range for m={m}")
    coords = rng.choice(m, size=k, replace=False)
    table = rng.standard_normal((2,) * k)
    vals = np.zeros((2,) * m)
    for idx in np.ndindex(*vals.shape):
        vals[idx] = table[tuple(idx[c] for c in coords)]
    return cube_function(m, p, vals)


def _measure_vector(m, p):
    out = np.ones(1)
    for _ in range(m):
        out = np.kron(out, np.array([1 - p, p]))
    return out


def _kernel_matrix(m, p, t):
    """Transition matrix of the product resampling kernel on 2^m states."""
    decay = math.exp(-t)
    k1 = decay * np.eye(2) + (1 - decay) * np.array([[1 - p, p], [1 - p, p]])
    out = np.ones((1, 1))
    for _ in range(m):
        out = np.kron(out, k1)
    return out


def test_cube_function_validation():
    with pytest.raises(ValueError):
        cube_function(0, 0.5, np.zeros(1))
    with pytest.raises(ValueError):
        cube_function(MAX_M + 1, 0.5, np.zeros(2 ** (MAX_M + 1)))
    with pytest.raises(ValueError):
        cube_function(2, 1.0, np.zeros(4))
    with pytest.raises(ValueError):
        cube_function(2, 0.5, np.array([1.0, np.inf, 0.0, 0.0]))
    with pytest.raises(ValueError):
        cube_function(3, 0.5, np.zeros(7))  # wrong length


def test_values_are_write_protected():
    f = cube_function(2, 0.5, np.zeros(4))
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


@pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
def test_expectation_variance_against_explicit_sum(p):
    m = 5
    rng = np.random.default_rng(20250815)
    f = random_normal_function(m, p, rng)
    mu = var = 0.0
    for bits in itertools.product((0, 1), repeat=m):
        w = np.prod([p if b else 1 - p for b in bits])
        mu += w * f.values[bits]
    for bits in itertools.product((0, 1), repeat=m):
        w = np.prod([p if b else 1 - p for b in bits])
        var += w * (f.values[bits] - mu) ** 2
    assert expectation(f) == pytest.approx(mu, abs=1e-12)
    assert variance(f) == pytest.approx(var, abs=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.3, 2.0])
def test_semigroup_matches_kronecker_kernel(t):
    m, p = 4, 0.35
    rng = np.random.default_rng(20250816)
    f = random_normal_function(m, p, rng)
    got = _flat(_apply(f, t))
    want = _kernel_matrix(m, p, t) @ _flat(f)
    assert np.allclose(got, want, atol=1e-12, rtol=0)


def test_semigroup_algebra():
    m, p = 6, 0.6
    rng = np.random.default_rng(20250817)
    f = random_normal_function(m, p, rng)
    assert np.array_equal(_apply(f, 0.0).values, f.values)
    ab = _apply(_apply(f, 0.4), 0.9)
    once = _apply(f, 1.3)
    assert np.allclose(ab.values, once.values, atol=1e-12)
    # constants are fixed points; long times flatten to the mean
    c = cube_function(m, p, np.full(2 ** m, 2.5))
    assert np.allclose(_apply(c, 1.0).values, 2.5, atol=1e-14)
    flat = _apply(f, 60.0)
    assert np.allclose(flat.values, expectation(f), atol=1e-10)
    assert variance(flat) <= 1e-15 * variance(f) + 1e-300
    with pytest.raises(ValueError):
        noisy_covariance(f, f, -0.1)


def test_difference_and_influence_against_explicit_loops():
    m, p = 4, 0.7
    rng = np.random.default_rng(20250818)
    f = random_normal_function(m, p, rng)
    for i in range(m):
        grad = cube._grad_values(f.values, m, p, i)
        acc = 0.0
        for bits in itertools.product((0, 1), repeat=m):
            up = list(bits)
            up[i] = 1
            down = list(bits)
            down[i] = 0
            d = (p - bits[i]) * (f.values[tuple(up)] - f.values[tuple(down)])
            assert grad[bits] == pytest.approx(d, abs=1e-13)
            w = np.prod([p if b else 1 - p for b in bits])
            acc += w * abs(d)
        assert influence(f, i) == pytest.approx(acc, abs=1e-12)
    with pytest.raises(ValueError):
        influence(f, m)
    with pytest.raises(ValueError):
        influence(f, -1)


def test_noisy_covariance_against_kernel_matrix():
    m, p = 4, 0.45
    rng = np.random.default_rng(20250819)
    f = random_normal_function(m, p, rng)
    g = random_normal_function(m, p, rng)
    pi = _measure_vector(m, p)
    for t in (0.0, 0.5, 3.0):
        k = _kernel_matrix(m, p, t)
        want = float(pi @ (_flat(f) * (k @ _flat(g)))
                     - (pi @ _flat(f)) * (pi @ _flat(g)))
        assert noisy_covariance(f, g, t) == pytest.approx(want, abs=1e-12)
    # t = 0 reduces to the plain covariance, f = g to the variance
    assert noisy_covariance(f, f, 0.0) == pytest.approx(variance(f), abs=1e-12)
    h = random_normal_function(m, 0.4, rng)
    with pytest.raises(ValueError):
        noisy_covariance(f, h, 1.0)


def test_rho_values():
    assert rho(0.5) == 1.0
    assert rho(0.75) == pytest.approx(1.0 / math.log(3.0), rel=1e-12)
    assert rho(0.25) == rho(0.75)  # symmetric in p <-> 1-p
    assert rho(0.5 + 1e-13) == 1.0
    for p in (0.1, 0.3, 0.49):
        assert 0 < rho(p) < 1
    with pytest.raises(ValueError):
        rho(0.0)


def test_bks_params():
    par = bks_params(0.5, 2.0)
    assert par.rho == 1.0 and par.theta == pytest.approx(math.tanh(1.0))
    assert bks_params(0.5, 0.0).theta == 0.0
    with pytest.raises(ValueError):
        bks_params(0.5, -1.0)


def test_bks_proof_form_holds_on_random_functions():
    rng = np.random.default_rng(20250820)
    stated_violations = 0
    for _ in range(60):
        m = int(rng.integers(2, 7))
        p = float(rng.uniform(0.2, 0.8))
        t = float(rng.uniform(0.05, 2.0))
        f = random_normal_function(m, p, rng)
        g = random_normal_function(m, p, rng)
        rep = verify_bks(f, g, t)
        assert rep.proof_holds
        assert rep.lhs <= rep.rhs_proof + 1e-10
        assert rep.rhs_proof >= rep.rhs_stated  # factor 4 only helps
        stated_violations += not rep.stated_holds
    # the sharper stated form can fail for signed functions; the proof
    # form must not, and most trials should satisfy the stated form too
    assert stated_violations < 30


def test_bks_monotone_functions_satisfy_stated_form():
    rng = np.random.default_rng(20250821)
    for _ in range(25):
        m = int(rng.integers(2, 7))
        p = float(rng.uniform(0.25, 0.75))
        f = random_monotone_function(m, p, rng)
        g = random_monotone_function(m, p, rng)
        if variance(f) <= 0 or variance(g) <= 0:
            continue
        rep = verify_bks(f, g, float(rng.uniform(0.1, 1.5)))
        assert rep.stated_holds and rep.proof_holds


def _influence_from_gradient(f, i):
    """E|grad_i f| summed over the whole stacked gradient tensor, as one
    exactly rounded sum of its products with the measure."""
    grad = np.abs(cube._grad_values(f.values, f.m, f.p, i))
    return math.fsum((grad * cube._measure(f.m, f.p)).ravel())


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 12),
       p=st.sampled_from([0.01, 0.3, 0.5, 0.77, 0.99]),
       t=st.sampled_from([0.0, 0.05, 0.5, 3.0]), seed=st.integers(0, 2 ** 32))
def test_verify_bks_equals_coordinatewise_terms(m, p, t, seed):
    rng = np.random.default_rng(seed)
    f = random_normal_function(m, p, rng)
    g = random_normal_function(m, p, rng)
    infl_f = [influence(f, i) for i in range(m)]
    infl_g = [influence(g, i) for i in range(m)]
    assert infl_f == [_influence_from_gradient(f, i) for i in range(m)]
    assert expectation(f) == math.fsum(
        (f.values * cube._measure(m, p)).ravel())
    rep = verify_bks(f, g, t)
    assert rep.var_f == variance(f) and rep.var_g == variance(g)
    assert rep.influence_sum == math.fsum(a * b for a, b in zip(infl_f,
                                                                 infl_g))
    assert rep.lhs == noisy_covariance(f, g, t)


def test_bks_rejects_constant_functions():
    c = cube_function(3, 0.5, np.ones(8))
    with pytest.raises(ValueError):
        verify_bks(c, c, 1.0)


@pytest.mark.parametrize("p,t", [(0.3, 0.05), (0.5, 0.5), (0.8, 2.0)])
def test_lemma_suite_all_pass(p, t):
    rng = np.random.default_rng(20250822)
    for trial in range(10):
        m = int(rng.integers(2, 8))
        f = random_normal_function(m, p, rng)
        g = random_normal_function(m, p, rng)
        suite = verify_lemma_suite(f, g, t, i=int(rng.integers(0, m)))
        assert len(suite) == 9
        for name, res in suite.items():
            assert res.passed, (name, res)
    with pytest.raises(ValueError):
        verify_lemma_suite(f, g, 0.0)


def test_integral_formula():
    rng = np.random.default_rng(20250823)
    f = random_normal_function(5, 0.4, rng)
    from scipy import integrate

    # Var(f) = 2 * int_0^inf sum_i E[(P_s grad_i f)^2] ds by quadrature
    m, p = f.m, f.p
    grads = [cube._grad_values(f.values, m, p, i) for i in range(m)]

    def integrand(s):
        return math.fsum(cube._expect_values(
            cube._apply_values(gr, m, p, s) ** 2, m, p) for gr in grads)

    val, _err = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0,
                               epsrel=1e-9, limit=200)
    assert 2.0 * val == pytest.approx(variance(f), rel=1e-6)


def _lsi_series_oracle(p, u, kmax=20_000):
    """Log-space series for the entropy and variance of the witness
    f_u(k) = ((1-u)/(1-p))^(k/2) under Geom(p).  Each term of
    E[f^2 g(f)] collapses to p (1-u)^k times a polynomial factor, so
    nothing overflows even when the raw ratio would."""
    k = np.arange(kmax)
    log_ratio = math.log1p(-u) - math.log1p(-p)
    wf2 = p * np.exp(k * math.log1p(-u))              # pi_k f^2
    wf = p * np.exp(k * 0.5 * (math.log1p(-p) + math.log1p(-u)))
    e_f2 = wf2.sum()
    e_f = wf.sum()
    e_f2_log = (wf2 * k * log_ratio).sum()
    ent = e_f2_log - e_f2 * math.log(e_f2)
    var = e_f2 - e_f ** 2
    return ent, var


@pytest.mark.parametrize("p,u", [(0.3, 0.01), (0.5, 0.01), (0.5, 0.05),
                                 (0.9, 0.1), (0.6, 0.3)])
def test_lsi_closed_forms_match_series(p, u):
    ent, var = geometric_lsi_terms(p, u)
    ent_s, var_s = _lsi_series_oracle(p, u)
    assert ent == pytest.approx(ent_s, rel=1e-6)
    assert var == pytest.approx(var_s, rel=1e-6)
    assert geometric_lsi_ratio(p, u) == pytest.approx(ent_s / var_s, rel=1e-6)


def test_lsi_ratio_diverges_as_u_shrinks():
    p = 0.5
    ratios = [geometric_lsi_ratio(p, u) for u in (0.1, 0.01, 0.001)]
    assert ratios[0] < ratios[1] < ratios[2]
    with pytest.raises(ValueError):
        geometric_lsi_terms(0.5, 0.6)  # u must stay below p
    with pytest.raises(ValueError):
        geometric_lsi_terms(0.5, 0.0)


def test_random_monotone_function_is_monotone():
    rng = np.random.default_rng(20250824)
    for _ in range(10):
        m = int(rng.integers(2, 7))
        f = random_monotone_function(m, 0.5, rng)
        for i in range(m):
            hi = np.take(f.values, 1, axis=i)
            lo = np.take(f.values, 0, axis=i)
            assert (hi >= lo).all()


def test_random_junta_has_few_active_coordinates():
    rng = np.random.default_rng(20250825)
    f = random_junta(8, 0.5, 3, rng)
    active = [i for i in range(8) if influence(f, i) > 1e-12]
    assert len(active) <= 3
    with pytest.raises(ValueError):
        random_junta(4, 0.5, 5, rng)


def test_max_m_boundary():
    f = cube_function(MAX_M, 0.5, np.zeros(2 ** MAX_M, dtype=np.float64))
    assert expectation(f) == 0.0
