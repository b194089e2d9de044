"""Exact semigroup calculus on the biased Boolean cube.

Functions live on {0,1}^m under the product measure pi_p (coordinate
means p) with m <= 20, stored as dense tensors of shape (2,)*m whose
axis i is coordinate i.  The resampling semigroup acts per coordinate
through the kernel

    K_t = e^{-t} Id + (1 - e^{-t}) Pi_p,

where Pi_p replaces a bit by a fresh Ber(p) draw, so ``P_t f`` is an
m-fold tensor contraction and every identity below can be checked to
floating-point accuracy rather than statistically.

The discrete difference and influence are

    grad_i f(x) = (p - x_i) (f(x^{i->1}) - f(x^{i->0})),
    I_i(f) = E|grad_i f| = 2p(1-p) E|f(x^{i->1}) - f(x^{i->0})|,

and the covariance bound verified by ``verify_bks`` is

    Cov(f(X), g(X^t)) <= (Var f Var g)^{(1-theta)/2} (S)^theta,
    theta = tanh(rho t / 2),  S = sum_i I_i(f) I_i(g),

with ``rho = 1`` for p = 1/2 and ``rho = 2(2p-1)/log(p/(1-p))``
otherwise.  The proof's final display carries an extra factor 4 inside
the influence term; the factor-4 form is the asserted one, the sharper
stated form is reported alongside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_M",
    "CubeFunction",
    "cube_function",
    "expectation",
    "influence",
    "noisy_covariance",
    "rho",
    "BksParams",
    "bks_params",
    "BksReport",
    "verify_bks",
    "CheckResult",
    "verify_lemma_suite",
    "geometric_lsi_terms",
    "geometric_lsi_ratio",
    "random_normal_function",
]

MAX_M = 20
_TOL = 1e-10


@dataclass(frozen=True)
class CubeFunction:
    """A real function on {0,1}^m under the biased product measure."""

    m: int
    p: float
    values: np.ndarray


def cube_function(m: int, p: float, values: np.ndarray) -> CubeFunction:
    """Wrap a value table (flat length 2^m, or already shaped (2,)*m)."""
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must lie in 1..{MAX_M}, got {m}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    vals = np.asarray(values, dtype=np.float64).reshape((2,) * m)
    if not np.isfinite(vals).all():
        raise ValueError("function values must be finite")
    vals = vals.copy()
    vals.setflags(write=False)
    return CubeFunction(m=m, p=p, values=vals)


@lru_cache(maxsize=64)
def _measure(m: int, p: float) -> np.ndarray:
    out = np.ones((2,) * m)
    w = np.array([1.0 - p, p])
    for ax in range(m):
        shape = [1] * m
        shape[ax] = 2
        out = out * w.reshape(shape)
    out.setflags(write=False)
    return out


def _expect_values(vals: np.ndarray, m: int, p: float) -> float:
    # the exactly rounded sum keeps 1e-12 tolerances honest at m = 20;
    # fsum reads a list of floats faster than an array
    return math.fsum((vals * _measure(m, p)).ravel().tolist())


def expectation(f: CubeFunction) -> float:
    return _expect_values(f.values, f.m, f.p)


def _variance(f: CubeFunction, mu: float) -> float:
    return _expect_values((f.values - mu) ** 2, f.m, f.p)


def _apply_values(vals: np.ndarray, m: int, p: float, t: float) -> np.ndarray:
    decay = math.exp(-t)
    w = np.array([1.0 - p, p])
    out = vals
    for ax in range(m):
        mu = np.tensordot(out, w, axes=([ax], [0]))
        out = decay * out + (1.0 - decay) * np.expand_dims(mu, ax)
    return out


def _grad_values(vals: np.ndarray, m: int, p: float, i: int) -> np.ndarray:
    f1 = np.take(vals, 1, axis=i)
    f0 = np.take(vals, 0, axis=i)
    d = f1 - f0
    return np.stack([p * d, (p - 1.0) * d], axis=i)


def _influences(f: CubeFunction, axes) -> list[float]:
    """I_i(f) for each coordinate i in ``axes``.  |grad_i f| is p|d| where
    x_i = 0 and (1 - p)|d| where x_i = 1, d = f(x^{i->1}) - f(x^{i->0}),
    the same floats as |(p - 1) d|; each I_i is one exactly rounded sum."""
    scale = np.array([f.p, 1.0 - f.p])[:, None]
    meas = _measure(f.m, f.p)
    out = []
    for i in axes:
        shape = (2 ** i, 2, -1)          # coordinate i in the middle
        v = f.values.reshape(shape)
        grad = scale * np.abs(v[:, 1] - v[:, 0])[:, None, :]
        out.append(math.fsum((grad * meas.reshape(shape)).ravel().tolist()))
    return out


def influence(f: CubeFunction, i: int) -> float:
    """I_i(f) = E|grad_i f|."""
    if not 0 <= i < f.m:
        raise ValueError(f"coordinate {i} out of range for m={f.m}")
    return _influences(f, (i,))[0]


def _check_compatible(f: CubeFunction, g: CubeFunction) -> None:
    if f.m != g.m or f.p != g.p:
        raise ValueError("functions must share the same cube (m, p)")


def noisy_covariance(f: CubeFunction, g: CubeFunction, t: float) -> float:
    """Exact Cov(f(X), g(X^t)) = E[f P_t g] - E[f] E[g]."""
    _check_compatible(f, g)
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t}")
    return _noisy_covariance(f, g, t, expectation(f), expectation(g))


def _noisy_covariance(f: CubeFunction, g: CubeFunction, t: float,
                      mu_f: float, mu_g: float) -> float:
    ptg = _apply_values(g.values, g.m, g.p, t)
    return _expect_values(f.values * ptg, f.m, f.p) - mu_f * mu_g


def rho(p: float) -> float:
    """Log-Sobolev-type rate: 1 at p = 1/2, else 2(2p-1)/log(p/(1-p))."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if abs(p - 0.5) < 1e-12:
        return 1.0
    return 2.0 * (2.0 * p - 1.0) / (math.log(p) - math.log(1.0 - p))


@dataclass(frozen=True)
class BksParams:
    p: float
    t: float
    rho: float
    theta: float


def bks_params(p: float, t: float) -> BksParams:
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t}")
    r = rho(p)
    return BksParams(p=p, t=t, rho=r, theta=math.tanh(r * t / 2.0))


@dataclass(frozen=True)
class BksReport:
    """One exact trial of the noisy covariance bound.

    ``rhs_proof`` carries the factor 4 of the proof's final display and
    is the asserted bound; ``rhs_stated`` is the sharper stated form,
    reported but not asserted.
    """

    params: BksParams
    lhs: float
    rhs_stated: float
    rhs_proof: float
    var_f: float
    var_g: float
    influence_sum: float
    stated_holds: bool
    proof_holds: bool


def verify_bks(f: CubeFunction, g: CubeFunction, t: float) -> BksReport:
    _check_compatible(f, g)
    params = bks_params(f.p, t)
    mu_f, mu_g = expectation(f), expectation(g)
    var_f, var_g = _variance(f, mu_f), _variance(g, mu_g)
    if var_f <= 0.0 or var_g <= 0.0:
        raise ValueError("degenerate (constant) function has no bound to check")
    axes = range(f.m)
    s = math.fsum(a * b for a, b in zip(_influences(f, axes),
                                        _influences(g, axes)))
    lhs = _noisy_covariance(f, g, t, mu_f, mu_g)
    geo = math.sqrt(var_f * var_g)
    th = params.theta
    rhs_stated = geo ** (1.0 - th) * s ** th
    rhs_proof = geo ** (1.0 - th) * (4.0 * s) ** th
    return BksReport(params=params, lhs=lhs, rhs_stated=rhs_stated,
                     rhs_proof=rhs_proof, var_f=var_f, var_g=var_g,
                     influence_sum=s,
                     stated_holds=lhs <= rhs_stated + _TOL,
                     proof_holds=lhs <= rhs_proof + _TOL)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    lhs: float
    rhs: float
    margin: float


def _heat_rhs(f: CubeFunction, t: float) -> np.ndarray:
    pt = _apply_values(f.values, f.m, f.p, t)
    out = np.zeros_like(pt)
    for i in range(f.m):
        out += _grad_values(pt, f.m, f.p, i)
    return out


def verify_lemma_suite(f: CubeFunction, g: CubeFunction, t: float,
                       i: int = 0) -> dict[str, CheckResult]:
    """Exact identity/inequality checks of the semigroup toolbox.

    Identities are held to 1e-10; the heat equation uses a fourth-order
    central difference in t (step 1e-4) and tolerance 1e-6.
    """
    _check_compatible(f, g)
    if t <= 0.0:
        raise ValueError(f"suite needs t > 0, got {t}")
    m, p = f.m, f.p
    checks: dict[str, CheckResult] = {}

    def add(name: str, lhs: float, rhs: float, tol: float,
            inequality: bool = False) -> None:
        margin = rhs - lhs
        passed = margin >= -tol if inequality else abs(margin) <= tol
        checks[name] = CheckResult(name, passed, lhs, rhs, margin)

    ptf = _apply_values(f.values, m, p, t)
    ptg = _apply_values(g.values, m, p, t)

    add("semigroup_law",
        float(np.max(np.abs(_apply_values(ptf, m, p, t)
                            - _apply_values(f.values, m, p, 2.0 * t)))),
        0.0, _TOL)
    add("symmetry",
        _expect_values(f.values * ptg, m, p),
        _expect_values(ptf * g.values, m, p), _TOL)
    add("commutativity",
        float(np.max(np.abs(_grad_values(ptf, m, p, i)
                            - _apply_values(_grad_values(f.values, m, p, i),
                                            m, p, t)))),
        0.0, _TOL)
    h = 1e-4
    fd = (-_apply_values(f.values, m, p, t + 2 * h)
          + 8.0 * _apply_values(f.values, m, p, t + h)
          - 8.0 * _apply_values(f.values, m, p, t - h)
          + _apply_values(f.values, m, p, t - 2 * h)) / (12.0 * h)
    add("heat_equation", float(np.max(np.abs(fd - _heat_rhs(f, t)))), 0.0, 1e-6)
    add("integration_by_parts",
        _expect_values(f.values * _grad_values(g.values, m, p, i), m, p),
        -_expect_values(_grad_values(f.values, m, p, i)
                        * _grad_values(g.values, m, p, i), m, p), _TOL)
    add("time_decorrelation",
        _expect_values(np.abs(_grad_values(ptf, m, p, i)), m, p),
        2.0 * math.exp(-t) * max(p, 1.0 - p) * influence(f, i),
        _TOL, inequality=True)
    r = rho(p)
    ex = 1.0 + math.exp(-2.0 * r * t)
    add("hypercontractivity",
        _expect_values(ptf ** 2, m, p),
        _expect_values(np.abs(f.values) ** ex, m, p) ** (2.0 / ex),
        _TOL, inequality=True)
    th = math.tanh(r * t)
    add("l2_l1_interpolation",
        _expect_values(ptf ** 2, m, p),
        _expect_values(f.values ** 2, m, p) ** (1.0 - th)
        * _expect_values(np.abs(f.values), m, p) ** (2.0 * th),
        _TOL, inequality=True)
    mu_f, mu_g = expectation(f), expectation(g)
    add("two_time_covariance",
        noisy_covariance(f, g, 2.0 * t),
        _expect_values((ptf - mu_f) * (ptg - mu_g), m, p), _TOL)
    return checks


def geometric_lsi_terms(p: float, u: float) -> tuple[float, float]:
    """Closed forms of Ent(f_u^2) and Var(f_u) for the witness family
    f_u(k) = ((1-u)/(1-p))^(k/2) on the Geom(p) line."""
    if not 0.0 < u < p < 1.0:
        raise ValueError(f"need 0 < u < p < 1, got u={u}, p={p}")
    ratio = (1.0 - u) / (1.0 - p)
    ent = (p * math.log(ratio) * (1.0 - u) / u ** 2
           - (p / u) * math.log(p / u))
    var = p / u - p ** 2 / (1.0 - math.sqrt((1.0 - p) * (1.0 - u))) ** 2
    return ent, var


def geometric_lsi_ratio(p: float, u: float) -> float:
    """Ent/Var of the witness; diverges like log(1/(1-p))/u as u -> 0,
    so no uniform log-Sobolev constant exists for the geometric line."""
    ent, var = geometric_lsi_terms(p, u)
    return ent / var


def random_normal_function(m: int, p: float,
                           rng: np.random.Generator) -> CubeFunction:
    return cube_function(m, p, rng.standard_normal(2 ** m))
