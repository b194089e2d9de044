"""Experiment runner with reproducible CSV/JSON outputs.

Exit codes: 0 all hard assertions passed, 1 configuration error (the
message names the offending field), 2 one or more assertions failed.
Hard assertions are exact identities and proven bounds; statistical
trend checks are reported in the JSON summaries without affecting the
exit code.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click
import numpy as np

from . import __version__
from .cube import random_normal_function, verify_bks
from .estimators import (antidiagonal_frequencies, corr_decay,
                         diagonal_scaled_frequency, envelope_frequencies,
                         geodesic_heatmap, noise_comparison, rw_nonneg_bound,
                         sandwich_experiment, transversal_exponent,
                         variance_scaling, visit_vs_influence, walk_spec)
from .lattice import (NoiseKind, NoisyPair, Rect, WeightConfig, noisy_weights,
                      weights)
from .lpp import geodesic_report, travel_time
from .manifest import (ExperimentRecord, RunManifest, write_csv_atomic,
                       write_json_atomic)
from .rng import Stream, derive_seed
from .stationary import (build_stationary, exit_times, geometric_gof_pvalue,
                         lambda_params)


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


_REQUIRED = object()

# Bounds of "p" wherever it is the parameter of a geometric weight field
# (bks-verify's "p" is a cube bias and keeps (0, 1)).  A weight is decoded
# bit by bit, about 1/p keyed draws per site, so the floor caps that
# factor at 1000.
P_MIN = 1e-3
_FIELD_P = dict(low=P_MIN, high=1.0, open_high=True)
_INT64 = 2 ** 63
# Lattice coordinates keep a margin to the int64 limit for the corner
# arithmetic; |step| and the step count keep every walk position in int64.
_COORD = dict(low=-2 ** 62, high=2 ** 62)
_WALK_MAX = 2 ** 31


def _check_value(name, value, where, kind, low=None, high=None,
                 open_low=False, open_high=False):
    if kind is float and isinstance(value, (int, np.integer)):
        value = float(value)
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(
            f'invalid value for "{name}" in {where}: expected {kind.__name__},'
            f" got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(
            f'invalid value for "{name}" in {where}: must be finite, '
            f"got {value}")
    if kind is int and not -_INT64 <= value < _INT64:
        raise ConfigError(
            f'invalid value for "{name}" in {where}: must fit in a signed '
            f"64-bit integer, got {float(value):.6g}")
    if low is not None and (value <= low if open_low else value < low):
        cmp = ">" if open_low else ">="
        raise ConfigError(
            f'invalid value for "{name}" in {where}: must be {cmp} {low}, '
            f"got {value}")
    if high is not None and (value >= high if open_high else value > high):
        cmp = "<" if open_high else "<="
        raise ConfigError(
            f'invalid value for "{name}" in {where}: must be {cmp} {high}, '
            f"got {value}")
    return value


class _Schema:
    def __init__(self, where: str):
        self.where = where
        self.fields: dict[str, tuple] = {}

    def add(self, name, kind, default=_REQUIRED, **limits):
        self.fields[name] = (kind, default, limits)
        return self

    def parse(self, params: dict) -> dict:
        out = {}
        for key in params:
            if key not in self.fields:
                raise ConfigError(
                    f'unknown parameter "{key}" for {self.where}; '
                    f"expected one of {sorted(self.fields)}")
        for name, (kind, default, limits) in self.fields.items():
            if name not in params:
                if default is _REQUIRED:
                    raise ConfigError(
                        f'missing required parameter "{name}" for {self.where}')
                out[name] = default
                continue
            value = params[name]
            if kind in (float, int):
                out[name] = _check_value(name, value, self.where, kind,
                                         **limits)
            elif isinstance(kind, tuple) and kind[0] is list:
                if not isinstance(value, (list, tuple)) or not value:
                    raise ConfigError(
                        f'invalid value for "{name}" in {self.where}: '
                        f"expected a nonempty list, got {value!r}")
                out[name] = [
                    _check_value(f"{name}[{k}]", v, self.where, kind[1],
                                 **limits)
                    for k, v in enumerate(value)]
            elif kind is str:
                if not isinstance(value, str):
                    raise ConfigError(
                        f'invalid value for "{name}" in {self.where}: '
                        f"expected a string, got {value!r}")
                out[name] = value
            else:  # pragma: no cover - schema bug
                raise AssertionError(name)
        return out


def _parse_kind(raw: str, where: str) -> NoiseKind:
    if raw.upper() not in ("BIT", "SITE"):
        raise ConfigError(
            f'invalid value for "kind" in {where}: expected BIT or SITE, '
            f"got {raw!r}")
    return NoiseKind[raw.upper()]


def _estimate_row(t, e):
    return [t, e.estimate, e.stderr, e.ci_low, e.ci_high, e.replicas,
            e.degenerate]


def _estimate_dict(e):
    return {"estimate": e.estimate, "stderr": e.stderr, "ci_low": e.ci_low,
            "ci_high": e.ci_high, "replicas": e.replicas,
            "degenerate": e.degenerate}


# --------------------------------------------------------------- experiments

def _run_corr_decay(params, seed, base, threads, rec):
    schema = (_Schema("corr-decay")
              .add("p", float, **_FIELD_P)
              .add("n", int, low=1, high=4000)
              .add("t_values", (list, float), low=0.0)
              .add("kind", str, default="BIT")
              .add("replicas", int, low=30))
    q = schema.parse(params)
    kind = _parse_kind(q["kind"], "corr-decay")
    res = corr_decay(q["p"], q["n"], q["t_values"], kind, q["replicas"], seed,
                     threads)
    rows = [_estimate_row(t, e) for t, e in zip(res.t_values, res.estimates)]
    rec.outputs.append(path := base + ".csv")
    write_csv_atomic(path, ["t", "estimate", "stderr", "ci_low", "ci_high",
                            "replicas", "degenerate"], list(zip(*rows)))
    for t, e in zip(res.t_values, res.estimates):
        if t == 0.0:
            rec.check("corr_at_t0_exactly_one", e.estimate == 1.0,
                      f"estimate = {e.estimate}")
    vals = [e.estimate for e in res.estimates if not e.degenerate]
    return {"estimates": {str(t): _estimate_dict(e)
                          for t, e in zip(res.t_values, res.estimates)},
            "monotone_decreasing": all(a > b for a, b in zip(vals, vals[1:]))}


def _run_variance_scaling(params, seed, base, threads, rec):
    schema = (_Schema("variance-scaling")
              .add("p", float, **_FIELD_P)
              .add("n_list", (list, int), low=2, high=4000)
              .add("replicas", int, low=2)
              .add("n_boot", int, default=1000, low=10))
    q = schema.parse(params)
    res = variance_scaling(q["p"], q["n_list"], q["replicas"], seed,
                           q["n_boot"], threads)
    rec.outputs.append(path := base + ".csv")
    write_csv_atomic(path, ["n", "variance", "mean_over_n"],
                     [res.fit.scales, res.fit.statistic, res.means_over_n])
    return {"slope": res.fit.slope,
            "slope_ci": [res.fit.ci_low, res.fit.ci_high],
            "slope_ci_contains_two_thirds":
                res.fit.ci_low <= 2.0 / 3.0 <= res.fit.ci_high,
            "means_over_n": list(res.means_over_n)}


def _run_transversal(params, seed, base, threads, rec):
    schema = (_Schema("transversal")
              .add("p", float, **_FIELD_P)
              .add("n_list", (list, int), low=2, high=4000)
              .add("replicas", int, low=2)
              .add("n_boot", int, default=1000, low=10)
              .add("envelope_widths", (list, int), default=None, low=0))
    q = schema.parse(params)
    res = transversal_exponent(q["p"], q["n_list"], q["replicas"], seed,
                               q["n_boot"], threads)
    rec.outputs.append(path := base + ".csv")
    write_csv_atomic(path, ["n", "median_deviation"],
                     [res.fit.scales, res.fit.statistic])
    summary = {"slope": res.fit.slope,
               "slope_ci": [res.fit.ci_low, res.fit.ci_high],
               "slope_ci_contains_two_thirds":
                   res.fit.ci_low <= 2.0 / 3.0 <= res.fit.ci_high}
    if q["envelope_widths"] is not None:
        env = envelope_frequencies(q["p"], max(q["n_list"]),
                                   q["envelope_widths"], q["replicas"], seed,
                                   threads=threads)
        summary["envelope"] = {str(w): _estimate_dict(e) for w, e in env}
    return summary


def _run_geodesic_heatmap(params, seed, base, threads, rec):
    schema = (_Schema("geodesic-heatmap")
              .add("p", float, **_FIELD_P)
              .add("n", int, low=2, high=2000)
              .add("replicas", int, low=1))
    q = schema.parse(params)
    hm = geodesic_heatmap(q["p"], q["n"], q["replicas"], seed, threads)
    n, reps = q["n"], q["replicas"]
    x1, x2 = np.indices(hm.counts.shape).reshape(2, -1)
    counts = hm.counts.ravel()
    rec.outputs.append(path := base + ".csv")
    write_csv_atomic(path, ["x1", "x2", "count", "frequency"],
                     [x1, x2, counts, counts / reps])
    rec.check("endpoints_on_every_geodesic",
              hm.counts[0, 0] == reps and hm.counts[n, n] == reps,
              f"origin {hm.counts[0, 0]}, target {hm.counts[n, n]}, "
              f"replicas {reps}")
    smax = 0.9 * n ** (1.0 / 3.0)
    s_vals = [s for s in (0.5, 1.0, 2.0, 3.0) if s < smax]
    return {"diagonal_scaled_frequency": diagonal_scaled_frequency(hm),
            "corner_leq_midpoint":
                int(hm.counts[n, 0]) <= int(hm.counts[n // 2, n // 2]),
            "antidiagonal_frequencies": antidiagonal_frequencies(hm, s_vals)}


def _run_stationary_checks(params, seed, base, threads, rec):
    schema = (_Schema("stationary-checks")
              .add("p", float, **_FIELD_P)
              .add("lam", float, low=0.0, high=1.0, open_low=True,
                   open_high=True)
              .add("rows", int, low=1, high=4000)
              .add("cols", int, low=1, high=4000)
              .add("gof_samples", int, default=20000, low=500))
    q = schema.parse(params)
    p, lam = q["p"], q["lam"]
    par = lambda_params(p, lam)
    sf = build_stationary(p, lam, (q["rows"], q["cols"]), seed)
    dom = sf.domination_holds()
    inc_h, inc_v = sf.increments_h(), sf.increments_v()
    additive = bool(np.array_equal(
        sf.G[1:, 1:],
        np.maximum(sf.G[:-1, 1:], sf.G[1:, :-1]) + sf.grid[1:, 1:]))
    # Burke marginals on the far edges of long strips
    m = q["gof_samples"]
    wide = build_stationary(p, lam, (m, 24),
                            derive_seed(seed, Stream.GENERIC, 1))
    tall = build_stationary(p, lam, (24, m),
                            derive_seed(seed, Stream.GENERIC, 2))
    p_h = geometric_gof_pvalue(wide.increments_h()[:, -1], par.q)
    p_v = geometric_gof_pvalue(tall.increments_v()[-1, :], par.p_v)
    ex = exit_times(sf, (0, 0), (q["rows"], q["cols"]))
    rows = [["domination_exact", int(dom), dom],
            ["additivity_exact", int(additive), additive],
            ["gof_pvalue_horizontal", p_h, p_h > 1e-3],
            ["gof_pvalue_vertical", p_v, p_v > 1e-3],
            ["exit_z_h", ex.z_h, True],
            ["exit_z_v", ex.z_v, True]]
    rec.outputs.append(path := base + ".csv")
    write_csv_atomic(path, ["check", "value", "passed"], list(zip(*rows)))
    rec.check("domination_exact", dom)
    rec.check("additivity_exact", additive)
    rec.check("gof_horizontal", p_h > 1e-3, f"p-value {p_h:.3g}")
    rec.check("gof_vertical", p_v > 1e-3, f"p-value {p_v:.3g}")
    return {"params": {"q": par.q, "q_prime": par.q_prime, "p_h": par.p_h,
                       "p_v": par.p_v, "direction": list(par.direction)},
            "mean_increment_h": float(inc_h.mean()),
            "mean_increment_v": float(inc_v.mean()),
            "exit_times": {"z_h": ex.z_h, "z_v": ex.z_v,
                           "exits_right": ex.exits_right,
                           "exits_up": ex.exits_up}}


def _run_rw_bound(params, seed, base, threads, rec):
    schema = (_Schema("rw-bound")
              .add("values", (list, int), low=-_WALK_MAX, high=_WALK_MAX)
              .add("probs", (list, float), low=0.0, high=1.0)
              .add("n_steps", (list, int), low=1, high=_WALK_MAX)
              .add("replicas", int, low=100))
    q = schema.parse(params)
    try:
        spec = walk_spec(q["values"], q["probs"])
    except ValueError as exc:
        raise ConfigError(f'invalid value for "values"/"probs" in rw-bound: '
                          f"{exc}") from None
    rows, summary = [], {}
    for n_steps in q["n_steps"]:
        rep = rw_nonneg_bound(spec, n_steps, q["replicas"], seed)
        e = rep.q_hat
        rows.append([n_steps, e.estimate, e.stderr, e.ci_low, e.ci_high,
                     rep.bound, rep.exact])
        slack = e.estimate - rep.bound
        rec.check(f"bound_at_{n_steps}", slack <= 3.0 * max(e.stderr, 1e-12),
                  f"q_hat {e.estimate:.5f} vs bound {rep.bound:.5f}")
        if rep.exact is not None:
            rec.check(f"exact_below_bound_at_{n_steps}",
                      rep.exact <= rep.bound,
                      f"exact {rep.exact:.6f} vs bound {rep.bound:.5f}")
        summary[str(n_steps)] = {"q_hat": _estimate_dict(e),
                                 "bound": rep.bound, "exact": rep.exact}
    rec.outputs.append(path := base + ".csv")
    write_csv_atomic(path, ["n_steps", "q_hat", "stderr", "ci_low", "ci_high",
                            "bound", "exact"], list(zip(*rows)))
    summary["spec"] = {"values": list(spec.values), "probs": list(spec.probs),
                       "mu": spec.mu, "sigma": spec.sigma, "delta": spec.delta}
    return summary


def _run_sandwich(params, seed, base, threads, rec):
    schema = (_Schema("sandwich")
              .add("p", float, **_FIELD_P)
              .add("v", (list, int), low=1, high=4000)
              .add("s", float, low=0.0, open_low=True)
              .add("replicas", int, low=2))
    q = schema.parse(params)
    if len(q["v"]) != 2:
        raise ConfigError(f'invalid value for "v" in sandwich: expected two '
                          f"components, got {q['v']}")
    try:
        rep = sandwich_experiment(q["p"], tuple(q["v"]), q["s"], q["replicas"],
                                  seed, threads)
    except ValueError as exc:
        raise ConfigError(f'invalid value for "s"/"v" in sandwich: {exc}'
                          ) from None
    rec.outputs.append(path := base + ".csv")
    rows = [["k", rep.k], ["lam_minus", rep.lam_minus],
            ["lam_plus", rep.lam_plus],
            ["lam_hat_plus", rep.lam_hat_plus],
            ["frequency", rep.frequency.estimate],
            ["frequency_ci_low", rep.frequency.ci_low],
            ["frequency_ci_high", rep.frequency.ci_high],
            ["y_mean", rep.y_mean.estimate],
            ["y_mean_stderr", rep.y_mean.stderr]]
    write_csv_atomic(path, ["field", "value"], list(zip(*rows)))
    rec.check("y_mean_nonnegative",
              rep.y_mean.estimate >= -3.0 * rep.y_mean.stderr,
              f"mean {rep.y_mean.estimate:.4f} se {rep.y_mean.stderr:.4f}")
    return {"k": rep.k, "frequency": _estimate_dict(rep.frequency),
            "y_mean": _estimate_dict(rep.y_mean),
            "lam": [rep.lam_minus, rep.lam_plus, rep.lam_hat_plus]}


def _run_noise_compare(params, seed, base, threads, rec):
    schema = (_Schema("noise-compare")
              .add("p", float, **_FIELD_P)
              .add("n", int, low=2, high=4000)
              .add("t", float, low=0.0)
              .add("replicas", int, low=30))
    q = schema.parse(params)
    try:
        res = noise_comparison(q["p"], q["n"], q["t"], q["replicas"], seed,
                               threads)
    except ValueError as exc:
        raise ConfigError(f'invalid value for "t" in noise-compare: {exc}'
                          ) from None
    rec.outputs.append(path := base + ".csv")
    rows = [["cap", res.cap],
            ["corr_bit_t", res.corr_bit.estimate],
            ["corr_site_Mt", res.corr_site.estimate],
            ["corr_diff", res.corr_diff.estimate],
            ["corr_diff_ci_low", res.corr_diff.ci_low],
            ["corr_diff_ci_high", res.corr_diff.ci_high],
            ["cov_capped_bit", res.cov_capped_bit],
            ["cov_capped_site", res.cov_capped_site],
            ["cap_gap_fraction", res.cap_gap_fraction]]
    write_csv_atomic(path, ["metric", "value"], list(zip(*rows)))
    if q["t"] == 0.0:
        rec.check("correlations_exactly_one_at_t0",
                  res.corr_bit.estimate == 1.0
                  and res.corr_site.estimate == 1.0)
    return {"cap": res.cap, "corr_bit_t": _estimate_dict(res.corr_bit),
            "corr_site_Mt": _estimate_dict(res.corr_site),
            "corr_diff": _estimate_dict(res.corr_diff),
            "cov_capped_bit": res.cov_capped_bit,
            "cov_capped_site": res.cov_capped_site,
            "cap_gap_fraction": res.cap_gap_fraction,
            "site_not_less_destructive":
                res.corr_site.estimate
                <= res.corr_bit.estimate + 2.0 * res.corr_bit.stderr}


def _run_influence_map(params, seed, base, threads, rec):
    schema = (_Schema("influence-map")
              .add("p", float, **_FIELD_P)
              .add("n", int, low=2, high=64)
              .add("replicas", int, low=30)
              .add("i_max", int, default=8, low=0, high=63)
              .add("delta", float, default=0.5, low=0.0, high=1.0,
                   open_low=True))
    q = schema.parse(params)
    table = visit_vs_influence(q["p"], q["n"], q["replicas"], seed,
                               i_max=q["i_max"], delta=q["delta"],
                               threads=threads)
    influences = np.array([r.bit_influences for r in table], dtype=float)
    site, bit = np.indices(influences.shape).reshape(2, -1)
    v = np.array([r.v for r in table], dtype=np.int64)[site]
    rec.outputs.append(path := base + ".csv")
    write_csv_atomic(path, ["v1", "v2", "bit", "influence"],
                     [v[:, 0], v[:, 1], bit, influences.ravel()])
    return {"sites": [{"v": list(r.v),
                       "visit_freq": _estimate_dict(r.visit_freq),
                       "influence_sq_sum": r.influence_sq_sum,
                       "ratio": r.ratio} for r in table],
            "max_ratio": max(r.ratio for r in table),
            "delta": q["delta"]}


def _run_bks_verify(params, seed, base, threads, rec):
    schema = (_Schema("bks-verify")
              .add("m", int, low=1, high=12)
              .add("p", float, low=0.0, high=1.0, open_low=True, open_high=True)
              .add("t", float, low=0.0)
              .add("trials", int, low=1))
    q = schema.parse(params)
    rows, stated_fails = [], 0
    for trial in range(q["trials"]):
        rng = np.random.default_rng(derive_seed(seed, Stream.GENERIC, trial))
        f = random_normal_function(q["m"], q["p"], rng)
        g = random_normal_function(q["m"], q["p"], rng)
        rep = verify_bks(f, g, q["t"])
        rows.append([trial, q["m"], q["p"], q["t"], rep.params.theta, rep.lhs,
                     rep.rhs_stated, rep.rhs_proof, rep.rhs_stated - rep.lhs,
                     rep.rhs_proof - rep.lhs, rep.stated_holds,
                     rep.proof_holds])
        stated_fails += not rep.stated_holds
        if not rep.proof_holds:
            rec.check(f"proof_form_trial_{trial}", False,
                      f"lhs {rep.lhs} > rhs_proof {rep.rhs_proof}")
    rec.outputs.append(path := base + ".csv")
    write_csv_atomic(path, ["trial", "m", "p", "t", "theta", "lhs",
                            "rhs_stated", "rhs_proof", "margin_stated",
                            "margin_proof", "stated_holds", "proof_holds"],
                     list(zip(*rows)))
    rec.check("proof_form_all_trials",
              all(r[11] for r in rows), f"{q['trials']} trials")
    if stated_fails:
        click.echo(f"note: stated-form violations in {stated_fails} trials "
                   "(reported, not asserted)", err=True)
    return {"trials": q["trials"], "stated_violations": stated_fails,
            "proof_violations": sum(not r[11] for r in rows)}


def _run_dump_field(params, seed, base, threads, rec):
    schema = (_Schema("dump-field")
              .add("p", float, **_FIELD_P)
              .add("lo", (list, int), **_COORD)
              .add("hi", (list, int), **_COORD)
              .add("t", float, default=None, low=0.0)
              .add("kind", str, default="BIT"))
    q = schema.parse(params)
    if len(q["lo"]) != 2 or len(q["hi"]) != 2:
        raise ConfigError('invalid value for "lo"/"hi" in dump-field: '
                          "expected two components each")
    try:
        region = Rect(tuple(q["lo"]), tuple(q["hi"]))
    except ValueError as exc:
        raise ConfigError(f'invalid value for "lo"/"hi" in dump-field: {exc}'
                          ) from None
    if region.shape[0] * region.shape[1] > 4 * 10**6:
        raise ConfigError('invalid value for "lo"/"hi" in dump-field: '
                          "region too large to dump")
    kind = _parse_kind(q["kind"], "dump-field")
    cfg = WeightConfig(q["p"], seed, region)
    w = weights(cfg)
    header = ["x1", "x2", "weight"]
    cols = [g.ravel() for g in region.coord_grids()] + [w.ravel()]
    if q["t"] is not None:
        cols.append(noisy_weights(NoisyPair(cfg, q["t"], kind)).ravel())
        header.append("noisy_weight")
    rec.outputs.append(path := base + ".csv")
    write_csv_atomic(path, header, cols)
    return {"shape": list(w.shape), "total_weight": int(w.sum())}


def _run_dump_geodesic(params, seed, base, threads, rec):
    schema = (_Schema("dump-geodesic")
              .add("p", float, **_FIELD_P)
              .add("n", int, low=1, high=2000))
    q = schema.parse(params)
    n = q["n"]
    w = weights(WeightConfig(q["p"], seed, Rect((0, 0), (n, n))))
    rep = geodesic_report(w)
    on_path = np.zeros((2,) + w.shape, dtype=np.int64)
    for k, geo in enumerate((rep.upmost, rep.downmost)):
        on_path[k][geo[:, 0], geo[:, 1]] = 1
    x1, x2 = np.indices(w.shape).reshape(2, -1)
    on_geodesic = rep.member_mask.astype(np.int64).ravel()
    rec.outputs.append(path := base + ".csv")
    write_csv_atomic(path, ["x1", "x2", "weight", "on_geodesic", "on_upmost",
                            "on_downmost"],
                     [x1, x2, w.ravel(), on_geodesic, on_path[0].ravel(),
                      on_path[1].ravel()])
    rec.check("paths_inside_geodesic_set",
              bool(rep.member_mask[on_path.any(axis=0)].all()))
    return {"travel_time": rep.value,
            "geodesic_sites": int(rep.member_mask.sum())}


def _run_dump_stationary(params, seed, base, threads, rec):
    schema = (_Schema("dump-stationary")
              .add("p", float, **_FIELD_P)
              .add("lam", float, low=0.0, high=1.0, open_low=True,
                   open_high=True)
              .add("rows", int, low=1, high=2000)
              .add("cols", int, low=1, high=2000))
    q = schema.parse(params)
    sf = build_stationary(q["p"], q["lam"], (q["rows"], q["cols"]), seed)
    x1, x2 = np.indices(sf.G.shape).reshape(2, -1)
    rec.outputs.append(path := base + ".csv")
    write_csv_atomic(path, ["x1", "x2", "G", "relative_weight"],
                     [x1, x2, sf.G.ravel(), sf.grid.ravel()])
    rec.check("domination_exact", sf.domination_holds())
    par = sf.params
    return {"q": par.q, "p_h": par.p_h, "p_v": par.p_v,
            "direction": list(par.direction)}


_RUNNERS = {
    "corr-decay": _run_corr_decay,
    "variance-scaling": _run_variance_scaling,
    "transversal": _run_transversal,
    "geodesic-heatmap": _run_geodesic_heatmap,
    "stationary-checks": _run_stationary_checks,
    "rw-bound": _run_rw_bound,
    "sandwich": _run_sandwich,
    "noise-compare": _run_noise_compare,
    "influence-map": _run_influence_map,
    "bks-verify": _run_bks_verify,
    "dump-field": _run_dump_field,
    "dump-geodesic": _run_dump_geodesic,
    "dump-stationary": _run_dump_stationary,
}


def _execute(name: str, params: dict, seed: int, out_dir: str, threads: int,
             prefix: str = "") -> ExperimentRecord:
    if threads == 0:
        threads = os.cpu_count() or 1
    rec = ExperimentRecord(name=name, params=dict(params))
    stem = (prefix + name).replace("-", "_")
    base = os.path.join(out_dir, stem)
    try:
        summary = _RUNNERS[name](params, seed, base, threads, rec)
    except ValueError as exc:  # parameters the library rejects
        raise ConfigError(f"invalid parameters for {name}: {exc}") from None
    summary = {"name": name, "seed": seed, "params": params,
               "passed": rec.passed,
               "assertions": rec.assertions, **summary}
    rec.outputs.append(base + "_summary.json")
    write_json_atomic(base + "_summary.json", summary)
    return rec


def _exit(records: list[ExperimentRecord]) -> None:
    failed = [a for r in records for a in r.assertions if not a["passed"]]
    for a in failed:
        click.echo(f"FAILED assertion: {a['name']} {a['detail']}", err=True)
    sys.exit(2 if failed else 0)


def _single(name: str, params: dict, seed: int, out: str, threads: int) -> None:
    try:
        rec = _execute(name, params, seed, out, threads)
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(1)
    status = "ok" if rec.passed else "FAILED"
    click.echo(f"{name}: {status}; outputs: {', '.join(rec.outputs)}")
    _exit([rec])


_seed_opt = click.option("--seed", type=int, default=0, show_default=True,
                         help="Master seed; every output is a pure function "
                              "of seed and parameters.")
_out_opt = click.option("--out", type=click.Path(), default="lppnoise-out",
                        show_default=True, help="Output directory.")
_threads_opt = click.option("--threads", type=int, default=1,
                            show_default=True,
                            help="Worker threads (0 = all cores); results "
                                 "are identical for any value.")


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Noise-sensitivity laboratory for geometric last-passage percolation."""


@main.command("run")
@click.option("--config", type=click.Path(exists=False), required=True,
              help="JSON config: {seed, output_dir, experiments: "
                   "[{name, params}]}.")
@click.option("--seed", type=int, default=None,
              help="Override the config seed.")
@click.option("--out", type=click.Path(), default=None,
              help="Override the config output_dir.")
@_threads_opt
def run_cmd(config, seed, out, threads) -> None:
    """Run every experiment listed in a JSON config file."""
    try:
        try:
            with open(config, "r") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f'config file not found: "{config}"') from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f'config file is not valid JSON: {exc}'
                              ) from None
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        for key in doc:
            if key not in ("seed", "output_dir", "experiments"):
                raise ConfigError(f'unknown config field "{key}"')
        master = seed if seed is not None else doc.get("seed")
        if not isinstance(master, int) or isinstance(master, bool):
            raise ConfigError('invalid value for "seed": expected an integer, '
                              f"got {master!r}")
        out_dir = out if out is not None else doc.get("output_dir", "lppnoise-out")
        if not isinstance(out_dir, str):
            raise ConfigError('invalid value for "output_dir": expected a '
                              f"string, got {out_dir!r}")
        experiments = doc.get("experiments", [])
        if not isinstance(experiments, list):
            raise ConfigError('invalid value for "experiments": expected a '
                              "list")
        plan = []
        for k, entry in enumerate(experiments):
            if not isinstance(entry, dict) or "name" not in entry:
                raise ConfigError(f'experiment #{k} must be an object with a '
                                  '"name" field')
            for key in entry:
                if key not in ("name", "params", "seed"):
                    raise ConfigError(f'unknown field "{key}" in experiment '
                                      f"#{k}")
            name = entry["name"]
            if name not in _RUNNERS:
                raise ConfigError(
                    f'unknown experiment name "{name}" in experiment #{k}; '
                    f"known: {sorted(_RUNNERS)}")
            params = entry.get("params", {})
            if not isinstance(params, dict):
                raise ConfigError(f'invalid value for "params" in experiment '
                                  f"#{k}: expected an object")
            sub_seed = entry.get("seed", master)
            if not isinstance(sub_seed, int) or isinstance(sub_seed, bool):
                raise ConfigError(f'invalid value for "seed" in experiment '
                                  f"#{k}: expected an integer")
            plan.append((k, name, params, sub_seed))

        manifest = RunManifest(tool_version=__version__, master_seed=master,
                               config_echo=doc)
        manifest.start()
        os.makedirs(out_dir, exist_ok=True)
        for k, name, params, sub_seed in plan:
            rec = _execute(name, params, sub_seed, out_dir, threads,
                           prefix=f"{k:02d}_")
            manifest.experiments.append(rec)
            click.echo(f"[{k}] {name}: {'ok' if rec.passed else 'FAILED'}")
        manifest.finish()
        manifest.write(os.path.join(out_dir, "manifest.json"))
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(1)
    _exit(manifest.experiments)


@main.command("bks-verify")
@click.option("--m", type=int, required=True, help="Number of coordinates.")
@click.option("--p", type=float, required=True, help="Bit bias in (0, 1).")
@click.option("--t", type=float, required=True, help="Noise time.")
@click.option("--trials", type=int, default=100, show_default=True)
@_seed_opt
@_out_opt
@_threads_opt
def bks_verify_cmd(m, p, t, trials, seed, out, threads) -> None:
    """Exact noisy-covariance bound trials on random functions."""
    _single("bks-verify", {"m": m, "p": p, "t": t, "trials": trials}, seed,
            out, threads)


@main.command("corr-decay")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--n", type=int, default=100, show_default=True)
@click.option("--t", "t_values", type=float, multiple=True,
              default=(0.0, 0.25, 1.0, 4.0), show_default=True)
@click.option("--kind", type=click.Choice(["BIT", "SITE"], case_sensitive=False),
              default="BIT", show_default=True)
@click.option("--replicas", type=int, default=200, show_default=True)
@_seed_opt
@_out_opt
@_threads_opt
def corr_decay_cmd(p, n, t_values, kind, replicas, seed, out, threads) -> None:
    """Correlation of T_n between a field and its noisy version."""
    _single("corr-decay", {"p": p, "n": n, "t_values": list(t_values),
                           "kind": kind, "replicas": replicas}, seed, out,
            threads)


@main.command("variance-scaling")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--n", "n_list", type=int, multiple=True,
              default=(64, 128, 256, 512), show_default=True)
@click.option("--replicas", type=int, default=500, show_default=True)
@_seed_opt
@_out_opt
@_threads_opt
def variance_scaling_cmd(p, n_list, replicas, seed, out, threads) -> None:
    """Slope of log Var(T_n) against log n."""
    _single("variance-scaling", {"p": p, "n_list": list(n_list),
                                 "replicas": replicas}, seed, out, threads)


@main.command("transversal")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--n", "n_list", type=int, multiple=True,
              default=(64, 128, 256, 512), show_default=True)
@click.option("--replicas", type=int, default=500, show_default=True)
@click.option("--envelope-width", "envelope_widths", type=int, multiple=True,
              help="Also record envelope containment at these widths.")
@_seed_opt
@_out_opt
@_threads_opt
def transversal_cmd(p, n_list, replicas, envelope_widths, seed, out,
                    threads) -> None:
    """Slope of the upmost geodesic's midline deviation against n."""
    params = {"p": p, "n_list": list(n_list), "replicas": replicas}
    if envelope_widths:
        params["envelope_widths"] = list(envelope_widths)
    _single("transversal", params, seed, out, threads)


@main.command("geodesic-heatmap")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--n", type=int, default=100, show_default=True)
@click.option("--replicas", type=int, default=500, show_default=True)
@_seed_opt
@_out_opt
@_threads_opt
def geodesic_heatmap_cmd(p, n, replicas, seed, out, threads) -> None:
    """Visit frequencies of the geodesic set of T_n."""
    _single("geodesic-heatmap", {"p": p, "n": n, "replicas": replicas}, seed,
            out, threads)


@main.command("stationary-checks")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--lam", type=float, default=0.5, show_default=True)
@click.option("--rows", type=int, default=200, show_default=True)
@click.option("--cols", type=int, default=200, show_default=True)
@click.option("--gof-samples", type=int, default=20000, show_default=True)
@_seed_opt
@_out_opt
@_threads_opt
def stationary_checks_cmd(p, lam, rows, cols, gof_samples, seed, out,
                          threads) -> None:
    """Exact boundary-model identities plus Burke marginal tests."""
    _single("stationary-checks", {"p": p, "lam": lam, "rows": rows,
                                  "cols": cols, "gof_samples": gof_samples},
            seed, out, threads)


@main.command("rw-bound")
@click.option("--value", "values", type=int, multiple=True, required=True)
@click.option("--prob", "probs", type=float, multiple=True, required=True)
@click.option("--steps", "n_steps", type=int, multiple=True,
              default=(100, 1000, 10000), show_default=True)
@click.option("--replicas", type=int, default=20000, show_default=True)
@_seed_opt
@_out_opt
@_threads_opt
def rw_bound_cmd(values, probs, n_steps, replicas, seed, out, threads) -> None:
    """Stay-nonnegative probability of a drifted walk against its bound."""
    _single("rw-bound", {"values": list(values), "probs": list(probs),
                         "n_steps": list(n_steps), "replicas": replicas},
            seed, out, threads)


@main.command("sandwich")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--v", type=int, nargs=2, default=(200, 200), show_default=True)
@click.option("--s", type=float, required=True)
@click.option("--replicas", type=int, default=200, show_default=True)
@_seed_opt
@_out_opt
@_threads_opt
def sandwich_cmd(p, v, s, replicas, seed, out, threads) -> None:
    """Frequency of the stationary sandwich around the origin column."""
    _single("sandwich", {"p": p, "v": list(v), "s": s, "replicas": replicas},
            seed, out, threads)


@main.command("noise-compare")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--n", type=int, default=100, show_default=True)
@click.option("--t", type=float, default=0.1, show_default=True)
@click.option("--replicas", type=int, default=200, show_default=True)
@_seed_opt
@_out_opt
@_threads_opt
def noise_compare_cmd(p, n, t, replicas, seed, out, threads) -> None:
    """Bit dynamics at t against site dynamics at M t, coupled."""
    _single("noise-compare", {"p": p, "n": n, "t": t, "replicas": replicas},
            seed, out, threads)


@main.command("influence-map")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--n", type=int, default=16, show_default=True)
@click.option("--replicas", type=int, default=500, show_default=True)
@click.option("--i-max", type=int, default=8, show_default=True)
@_seed_opt
@_out_opt
@_threads_opt
def influence_map_cmd(p, n, replicas, i_max, seed, out, threads) -> None:
    """Per-bit influences on T_n against geodesic visit probabilities."""
    _single("influence-map", {"p": p, "n": n, "replicas": replicas,
                              "i_max": i_max}, seed, out, threads)


@main.command("dump-field")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--lo", type=int, nargs=2, default=(0, 0), show_default=True)
@click.option("--hi", type=int, nargs=2, required=True)
@click.option("--t", type=float, default=None,
              help="Also dump the noisy weights at this time.")
@click.option("--kind", type=click.Choice(["BIT", "SITE"],
                                          case_sensitive=False),
              default="BIT", show_default=True)
@_seed_opt
@_out_opt
@_threads_opt
def dump_field_cmd(p, lo, hi, t, kind, seed, out, threads) -> None:
    """Dump the keyed weight field on a rectangle."""
    params = {"p": p, "lo": list(lo), "hi": list(hi), "kind": kind}
    if t is not None:
        params["t"] = t
    _single("dump-field", params, seed, out, threads)


@main.command("dump-geodesic")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--n", type=int, default=50, show_default=True)
@_seed_opt
@_out_opt
@_threads_opt
def dump_geodesic_cmd(p, n, seed, out, threads) -> None:
    """Dump the geodesic set and extreme paths of one field."""
    _single("dump-geodesic", {"p": p, "n": n}, seed, out, threads)


@main.command("dump-stationary")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--lam", type=float, default=0.5, show_default=True)
@click.option("--rows", type=int, default=50, show_default=True)
@click.option("--cols", type=int, default=50, show_default=True)
@_seed_opt
@_out_opt
@_threads_opt
def dump_stationary_cmd(p, lam, rows, cols, seed, out, threads) -> None:
    """Dump one stationary boundary field and its passage table."""
    _single("dump-stationary", {"p": p, "lam": lam, "rows": rows,
                                "cols": cols}, seed, out, threads)


if __name__ == "__main__":
    main()
