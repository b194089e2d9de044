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
from contextlib import contextmanager
from typing import Callable, NamedTuple

import click
import numpy as np

from . import __version__
from .cube import random_normal_function, verify_bks
from .estimators import (antidiagonal_frequencies, antidiagonal_offset,
                         corr_decay, diagonal_scaled_frequency,
                         envelope_frequencies, geodesic_heatmap,
                         noise_comparison, rw_nonneg_bound,
                         sandwich_experiment, transversal_exponent,
                         variance_scaling, visit_vs_influence, walk_spec)
from .lattice import NoiseKind, Rect, WeightConfig, noisy_stack, weights
from .lpp import geodesic_report
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


class _Field(NamedTuple):
    """One parameter of an experiment: its config entry and its flag."""

    key: str
    kind: type                # int, float or str; the item type of a list
    many: bool                # a nonempty list of ``kind``
    default: object           # _REQUIRED if a config must give it
    limits: dict              # keywords of _check_value
    flag: str | None          # None: config only
    cli: dict | None          # click.Option keywords besides the type


def _field(key, kind, default=_REQUIRED, *, flag=None, cli=None, **limits):
    """``kind`` is int, float or str, or ``[int]``/``[float]`` for a list.
    ``cli`` holds the option's click keywords (a ``default`` is shown in
    the help, a list takes ``multiple`` unless it sets ``nargs``); without
    it the field is config only.  The flag defaults to ``--<key>``."""
    many = isinstance(kind, list)
    if cli is not None:
        flag = flag or "--" + key.replace("_", "-")
    return _Field(key, kind[0] if many else kind, many, default, limits,
                  flag, cli)


def _parse(where: str, fields: tuple[_Field, ...], params: dict) -> dict:
    """Validated parameters, defaults filled in, in field order."""
    keys = [f.key for f in fields]
    for key in params:
        if key not in keys:
            raise ConfigError(
                f'unknown parameter "{key}" for {where}; '
                f"expected one of {sorted(keys)}")
    out = {}
    for f in fields:
        if f.key not in params:
            if f.default is _REQUIRED:
                raise ConfigError(
                    f'missing required parameter "{f.key}" for {where}')
            out[f.key] = f.default
            continue
        value = params[f.key]
        if f.many:
            if not isinstance(value, (list, tuple)) or not value:
                raise ConfigError(
                    f'invalid value for "{f.key}" in {where}: '
                    f"expected a nonempty list, got {value!r}")
            out[f.key] = [
                _check_value(f"{f.key}[{k}]", v, where, f.kind, **f.limits)
                for k, v in enumerate(value)]
        elif f.kind is str:
            if not isinstance(value, str):
                raise ConfigError(
                    f'invalid value for "{f.key}" in {where}: '
                    f"expected a string, got {value!r}")
            out[f.key] = value
        else:
            out[f.key] = _check_value(f.key, value, where, f.kind, **f.limits)
    return out


class _Experiment(NamedTuple):
    name: str
    doc: str                  # the command's help
    runner: Callable          # (params, seed, rec) -> (header, columns, summary)
    fields: tuple[_Field, ...]


_EXPERIMENTS: dict[str, _Experiment] = {}


def _experiment(name: str, *fields: _Field):
    """Register a runner; its docstring is the command's help."""
    def register(runner):
        _EXPERIMENTS[name] = _Experiment(name, runner.__doc__, runner, fields)
        return runner
    return register


def _parse_kind(raw: str, where: str) -> NoiseKind:
    if raw.upper() not in ("BIT", "SITE"):
        raise ConfigError(
            f'invalid value for "kind" in {where}: expected BIT or SITE, '
            f"got {raw!r}")
    return NoiseKind[raw.upper()]


def _estimate_dict(e):
    return {"estimate": e.estimate, "stderr": e.stderr, "ci_low": e.ci_low,
            "ci_high": e.ci_high, "replicas": e.replicas,
            "degenerate": e.degenerate}


# --------------------------------------------------------------- experiments
#
# Each runner is registered with its fields, which give both its config
# schema and its command's options, and returns (header, columns,
# summary); _execute writes the CSV and the summary JSON.

_P = _field("p", float, low=P_MIN, high=1.0, open_high=True,
            cli=dict(default=0.5))
_LAM = _field("lam", float, low=0.0, high=1.0, open_low=True, open_high=True,
              cli=dict(default=0.5))
_KIND = _field("kind", str, "BIT", cli=dict(
    default="BIT", type=click.Choice(["BIT", "SITE"], case_sensitive=False)))
_N_LIST = _field("n_list", [int], low=2, high=4000, flag="--n",
                 cli=dict(default=(64, 128, 256, 512)))
_N_BOOT = _field("n_boot", int, 1000, low=10, high=100_000)


def _replicas(low, default):
    return _field("replicas", int, low=low, cli=dict(default=default))


@_experiment("corr-decay", _P,
             _field("n", int, low=1, high=4000, cli=dict(default=100)),
             _field("t_values", [float], low=0.0, flag="--t",
                    cli=dict(default=(0.0, 0.25, 1.0, 4.0))),
             _KIND, _replicas(30, 200))
def _run_corr_decay(q, seed, rec):
    """Correlation of T_n between a field and its noisy version."""
    kind = _parse_kind(q["kind"], "corr-decay")
    res = corr_decay(q["p"], q["n"], q["t_values"], kind, q["replicas"], seed)
    rows = [[t, e.estimate, e.stderr, e.ci_low, e.ci_high, e.replicas,
             e.degenerate] for t, e in zip(res.t_values, res.estimates)]
    for t, e in zip(res.t_values, res.estimates):
        if t == 0.0:
            rec.check("corr_at_t0_exactly_one", e.estimate == 1.0,
                      f"estimate = {e.estimate}")
    # judged over the distinct times in increasing order
    by_t = {t: e.estimate for t, e in zip(res.t_values, res.estimates)
            if not e.degenerate}
    vals = [by_t[t] for t in sorted(by_t)]
    return (["t", "estimate", "stderr", "ci_low", "ci_high", "replicas",
             "degenerate"], list(zip(*rows)),
            {"estimates": {str(t): _estimate_dict(e)
                           for t, e in zip(res.t_values, res.estimates)},
             "monotone_decreasing": all(a > b for a, b in zip(vals, vals[1:]))})


def _slope_summary(fit):
    return {"slope": fit.slope, "slope_ci": [fit.ci_low, fit.ci_high],
            "slope_ci_contains_two_thirds":
                fit.ci_low <= 2.0 / 3.0 <= fit.ci_high}


@_experiment("variance-scaling", _P, _N_LIST, _replicas(2, 500), _N_BOOT)
def _run_variance_scaling(q, seed, rec):
    """Slope of log Var(T_n) against log n."""
    res = variance_scaling(q["p"], q["n_list"], q["replicas"], seed,
                           q["n_boot"])
    return (["n", "variance", "mean_over_n"],
            [res.fit.scales, res.fit.statistic, res.means_over_n],
            {**_slope_summary(res.fit), "means_over_n": list(res.means_over_n)})


@_experiment("transversal", _P, _N_LIST, _replicas(2, 500), _N_BOOT,
             _field("envelope_widths", [int], None, low=0,
                    flag="--envelope-width",
                    cli=dict(help="Also record envelope containment at "
                                  "these widths.")))
def _run_transversal(q, seed, rec):
    """Slope of the upmost geodesic's midline deviation against n."""
    res = transversal_exponent(q["p"], q["n_list"], q["replicas"], seed,
                               q["n_boot"])
    summary = _slope_summary(res.fit)
    if q["envelope_widths"] is not None:
        env = envelope_frequencies(q["p"], max(q["n_list"]),
                                   q["envelope_widths"], q["replicas"], seed)
        summary["envelope"] = {str(w): _estimate_dict(e) for w, e in env}
    return ["n", "median_deviation"], [res.fit.scales, res.fit.statistic], \
        summary


@_experiment("geodesic-heatmap", _P,
             _field("n", int, low=2, high=2000, cli=dict(default=100)),
             _replicas(1, 500))
def _run_geodesic_heatmap(q, seed, rec):
    """Visit frequencies of the geodesic set of T_n."""
    hm = geodesic_heatmap(q["p"], q["n"], q["replicas"], seed)
    n, reps = q["n"], q["replicas"]
    x1, x2 = np.indices(hm.counts.shape).reshape(2, -1)
    counts = hm.counts.ravel()
    rec.check("endpoints_on_every_geodesic",
              hm.counts[0, 0] == reps and hm.counts[n, n] == reps,
              f"origin {hm.counts[0, 0]}, target {hm.counts[n, n]}, "
              f"replicas {reps}")
    smax = 0.9 * n ** (1.0 / 3.0)
    s_vals = [s for s in (0.5, 1.0, 2.0, 3.0)
              if s < smax and antidiagonal_offset(n, s) <= n // 2]
    return (["x1", "x2", "count", "frequency"],
            [x1, x2, counts, counts / reps],
            {"diagonal_scaled_frequency": diagonal_scaled_frequency(hm),
             "corner_leq_midpoint":
                 int(hm.counts[n, 0]) <= int(hm.counts[n // 2, n // 2]),
             "antidiagonal_frequencies": antidiagonal_frequencies(hm, s_vals)})


@_experiment("stationary-checks", _P, _LAM,
             _field("rows", int, low=1, high=4000, cli=dict(default=200)),
             _field("cols", int, low=1, high=4000, cli=dict(default=200)),
             # a 24-wide strip of at most 600000 rows has fewer sites than
             # the largest rows x cols
             _field("gof_samples", int, 20000, low=500, high=600_000,
                    cli=dict(default=20000)))
def _run_stationary_checks(q, seed, rec):
    """Exact boundary-model identities plus Burke marginal tests."""
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
    rec.check("domination_exact", dom)
    rec.check("additivity_exact", additive)
    rec.check("gof_horizontal", p_h > 1e-3, f"p-value {p_h:.3g}")
    rec.check("gof_vertical", p_v > 1e-3, f"p-value {p_v:.3g}")
    return (["check", "value", "passed"], list(zip(*rows)),
            {"boundary_params": {"q": par.q, "q_prime": par.q_prime,
                                 "p_h": par.p_h, "p_v": par.p_v,
                                 "direction": list(par.direction)},
             "mean_increment_h": float(inc_h.mean()),
             "mean_increment_v": float(inc_v.mean()),
             "exit_times": {"z_h": ex.z_h, "z_v": ex.z_v,
                            "exits_right": ex.exits_right,
                            "exits_up": ex.exits_up}})


@_experiment("rw-bound",
             _field("values", [int], low=-_WALK_MAX, high=_WALK_MAX,
                    flag="--value", cli=dict(required=True)),
             _field("probs", [float], low=0.0, high=1.0, flag="--prob",
                    cli=dict(required=True)),
             _field("n_steps", [int], low=1, high=_WALK_MAX, flag="--steps",
                    cli=dict(default=(100, 1000, 10000))),
             _replicas(100, 20000))
def _run_rw_bound(q, seed, rec):
    """Stay-nonnegative probability of a drifted walk against its bound."""
    try:
        spec = walk_spec(q["values"], q["probs"])
    except ValueError as exc:
        raise ConfigError(f'invalid value for "values"/"probs" in rw-bound: '
                          f"{exc}") from None
    rows, summary = [], {}
    for rep in rw_nonneg_bound(spec, q["n_steps"], q["replicas"], seed):
        n_steps, e = rep.n_steps, rep.q_hat
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
    summary["spec"] = {"values": list(spec.values), "probs": list(spec.probs),
                       "mu": spec.mu, "sigma": spec.sigma, "delta": spec.delta}
    return (["n_steps", "q_hat", "stderr", "ci_low", "ci_high", "bound",
             "exact"], list(zip(*rows)), summary)


@_experiment("sandwich", _P,
             _field("v", [int], low=1, high=4000,
                    cli=dict(nargs=2, default=(200, 200))),
             _field("s", float, low=0.0, open_low=True,
                    cli=dict(required=True)),
             _replicas(2, 200))
def _run_sandwich(q, seed, rec):
    """Frequency of the stationary sandwich around the origin column."""
    if len(q["v"]) != 2:
        raise ConfigError(f'invalid value for "v" in sandwich: expected two '
                          f"components, got {q['v']}")
    try:
        rep = sandwich_experiment(q["p"], tuple(q["v"]), q["s"], q["replicas"],
                                  seed)
    except ValueError as exc:
        raise ConfigError(f'invalid value for "s"/"v" in sandwich: {exc}'
                          ) from None
    rec.check("y_mean_nonnegative",
              rep.y_mean.estimate >= -3.0 * rep.y_mean.stderr,
              f"mean {rep.y_mean.estimate:.4f} se {rep.y_mean.stderr:.4f}")
    return (["field", "value"],
            [("k", "lam_minus", "lam_plus", "lam_hat_plus", "frequency",
              "frequency_ci_low", "frequency_ci_high", "y_mean",
              "y_mean_stderr"),
             (rep.k, rep.lam_minus, rep.lam_plus, rep.lam_hat_plus,
              rep.frequency.estimate, rep.frequency.ci_low,
              rep.frequency.ci_high, rep.y_mean.estimate,
              rep.y_mean.stderr)],
            {"k": rep.k, "frequency": _estimate_dict(rep.frequency),
             "y_mean": _estimate_dict(rep.y_mean),
             "lam": [rep.lam_minus, rep.lam_plus, rep.lam_hat_plus]})


@_experiment("noise-compare", _P,
             _field("n", int, low=2, high=4000, cli=dict(default=100)),
             _field("t", float, low=0.0, cli=dict(default=0.1)),
             _replicas(30, 200))
def _run_noise_compare(q, seed, rec):
    """Bit dynamics at t against site dynamics at M t, coupled."""
    try:
        res = noise_comparison(q["p"], q["n"], q["t"], q["replicas"], seed)
    except ValueError as exc:
        raise ConfigError(f'invalid value for "t" in noise-compare: {exc}'
                          ) from None
    if q["t"] == 0.0:
        rec.check("correlations_exactly_one_at_t0",
                  res.corr_bit.estimate == 1.0
                  and res.corr_site.estimate == 1.0)
    return (["metric", "value"],
            [("cap", "corr_bit_t", "corr_site_Mt", "corr_diff",
              "corr_diff_ci_low", "corr_diff_ci_high", "cov_capped_bit",
              "cov_capped_site", "cap_gap_fraction"),
             (res.cap, res.corr_bit.estimate, res.corr_site.estimate,
              res.corr_diff.estimate, res.corr_diff.ci_low,
              res.corr_diff.ci_high, res.cov_capped_bit, res.cov_capped_site,
              res.cap_gap_fraction)],
            {"cap": res.cap, "corr_bit_t": _estimate_dict(res.corr_bit),
             "corr_site_Mt": _estimate_dict(res.corr_site),
             "corr_diff": _estimate_dict(res.corr_diff),
             "cov_capped_bit": res.cov_capped_bit,
             "cov_capped_site": res.cov_capped_site,
             "cap_gap_fraction": res.cap_gap_fraction,
             "site_not_less_destructive":
                 res.corr_site.estimate
                 <= res.corr_bit.estimate + 2.0 * res.corr_bit.stderr})


@_experiment("influence-map", _P,
             _field("n", int, low=2, high=64, cli=dict(default=16)),
             _replicas(30, 500),
             _field("i_max", int, 8, low=0, high=63, cli=dict(default=8)),
             _field("delta", float, 0.5, low=0.0, high=1.0, open_low=True))
def _run_influence_map(q, seed, rec):
    """Per-bit influences on T_n against geodesic visit probabilities."""
    table = visit_vs_influence(q["p"], q["n"], q["replicas"], seed,
                               i_max=q["i_max"], delta=q["delta"])
    influences = np.array([r.bit_influences for r in table], dtype=float)
    site, bit = np.indices(influences.shape).reshape(2, -1)
    v = np.array([r.v for r in table], dtype=np.int64)[site]
    return (["v1", "v2", "bit", "influence"],
            [v[:, 0], v[:, 1], bit, influences.ravel()],
            {"sites": [{"v": list(r.v),
                        "visit_freq": _estimate_dict(r.visit_freq),
                        "influence_sq_sum": r.influence_sq_sum,
                        "ratio": r.ratio} for r in table],
             "max_ratio": max(r.ratio for r in table),
             "delta": q["delta"]})


@_experiment("bks-verify",
             _field("m", int, low=1, high=12,
                    cli=dict(required=True, help="Number of coordinates.")),
             _field("p", float, low=0.0, high=1.0, open_low=True,
                    open_high=True,
                    cli=dict(required=True, help="Bit bias in (0, 1).")),
             _field("t", float, low=0.0,
                    cli=dict(required=True, help="Noise time.")),
             _field("trials", int, low=1, high=100_000, cli=dict(default=100)))
def _run_bks_verify(q, seed, rec):
    """Exact noisy-covariance bound trials on random functions."""
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
    rec.check("proof_form_all_trials",
              all(r[11] for r in rows), f"{q['trials']} trials")
    if stated_fails:
        click.echo(f"note: stated-form violations in {stated_fails} trials "
                   "(reported, not asserted)", err=True)
    return (["trial", "m", "p", "t", "theta", "lhs", "rhs_stated",
             "rhs_proof", "margin_stated", "margin_proof", "stated_holds",
             "proof_holds"], list(zip(*rows)),
            {"trials": q["trials"], "stated_violations": stated_fails,
             "proof_violations": sum(not r[11] for r in rows)})


@_experiment("dump-field", _P,
             _field("lo", [int], **_COORD, cli=dict(nargs=2, default=(0, 0))),
             _field("hi", [int], **_COORD, cli=dict(nargs=2, required=True)),
             _field("t", float, None, low=0.0,
                    cli=dict(help="Also dump the noisy weights at this time.")),
             _KIND)
def _run_dump_field(q, seed, rec):
    """Dump the keyed weight field on a rectangle."""
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
        cols.append(noisy_stack(cfg, (q["t"],), kind)[0].ravel())
        header.append("noisy_weight")
    return header, cols, {"shape": list(w.shape), "total_weight": int(w.sum())}


@_experiment("dump-geodesic", _P,
             _field("n", int, low=1, high=2000, cli=dict(default=50)))
def _run_dump_geodesic(q, seed, rec):
    """Dump the geodesic set and extreme paths of one field."""
    n = q["n"]
    w = weights(WeightConfig(q["p"], seed, Rect((0, 0), (n, n))))
    rep = geodesic_report(w)
    on_path = np.zeros((2,) + w.shape, dtype=np.int64)
    for k, geo in enumerate((rep.upmost, rep.downmost)):
        on_path[k][geo[:, 0], geo[:, 1]] = 1
    x1, x2 = np.indices(w.shape).reshape(2, -1)
    on_geodesic = rep.member_mask.astype(np.int64).ravel()
    rec.check("paths_inside_geodesic_set",
              bool(rep.member_mask[on_path.any(axis=0)].all()))
    return (["x1", "x2", "weight", "on_geodesic", "on_upmost", "on_downmost"],
            [x1, x2, w.ravel(), on_geodesic, on_path[0].ravel(),
             on_path[1].ravel()],
            {"travel_time": rep.value,
             "geodesic_sites": int(rep.member_mask.sum())})


@_experiment("dump-stationary", _P, _LAM,
             _field("rows", int, low=1, high=2000, cli=dict(default=50)),
             _field("cols", int, low=1, high=2000, cli=dict(default=50)))
def _run_dump_stationary(q, seed, rec):
    """Dump one stationary boundary field and its passage table."""
    sf = build_stationary(q["p"], q["lam"], (q["rows"], q["cols"]), seed)
    x1, x2 = np.indices(sf.G.shape).reshape(2, -1)
    rec.check("domination_exact", sf.domination_holds())
    par = sf.params
    return (["x1", "x2", "G", "relative_weight"],
            [x1, x2, sf.G.ravel(), sf.grid.ravel()],
            {"q": par.q, "p_h": par.p_h, "p_v": par.p_v,
             "direction": list(par.direction)})


@contextmanager
def _writing_to(out_dir: str):
    """Report an OSError of creating or writing ``out_dir`` as a
    configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f'cannot write to output directory "{out_dir}": '
                          f"{exc.strerror or exc}") from None


def _execute(name: str, params: dict, seed: int, out_dir: str,
             prefix: str = "") -> ExperimentRecord:
    exp = _EXPERIMENTS[name]
    rec = ExperimentRecord(name=name, params=dict(params))
    base = os.path.join(out_dir, (prefix + name).replace("-", "_"))
    try:
        header, columns, summary = exp.runner(
            _parse(name, exp.fields, params), seed, rec)
        rec.outputs.append(base + ".csv")
        with _writing_to(out_dir):
            write_csv_atomic(base + ".csv", header, columns)
    except ValueError as exc:  # parameters the library rejects
        raise ConfigError(f"invalid parameters for {name}: {exc}") from None
    except MemoryError as exc:
        raise ConfigError(f"out of memory for {name}: {exc}") from None
    summary = {"name": name, "seed": seed, "params": params,
               "passed": rec.passed,
               "assertions": rec.assertions, **summary}
    rec.outputs.append(base + "_summary.json")
    with _writing_to(out_dir):
        write_json_atomic(base + "_summary.json", summary)
    return rec


def _exit(records: list[ExperimentRecord]) -> None:
    failed = [a for r in records for a in r.assertions if not a["passed"]]
    for a in failed:
        click.echo(f"FAILED assertion: {a['name']} {a['detail']}", err=True)
    sys.exit(2 if failed else 0)


def _single(name: str, params: dict, seed: int, out: str) -> None:
    try:
        rec = _execute(name, params, seed, out)
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(1)
    status = "ok" if rec.passed else "FAILED"
    click.echo(f"{name}: {status}; outputs: {', '.join(rec.outputs)}")
    _exit([rec])


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
def run_cmd(config, seed, out) -> None:
    """Run every experiment listed in a JSON config file."""
    try:
        try:
            with open(config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f'config file not found: "{config}"') from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f'config file is not valid JSON: {exc}'
                              ) from None
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f'cannot read config file "{config}": {reason}'
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
            if name not in _EXPERIMENTS:
                raise ConfigError(
                    f'unknown experiment name "{name}" in experiment #{k}; '
                    f"known: {sorted(_EXPERIMENTS)}")
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
        with _writing_to(out_dir):
            os.makedirs(out_dir, exist_ok=True)
        for k, name, params, sub_seed in plan:
            rec = _execute(name, params, sub_seed, out_dir,
                           prefix=f"{k:02d}_")
            manifest.experiments.append(rec)
            click.echo(f"[{k}] {name}: {'ok' if rec.passed else 'FAILED'}")
        manifest.finish()
        with _writing_to(out_dir):
            manifest.write(os.path.join(out_dir, "manifest.json"))
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(1)
    _exit(manifest.experiments)


def _option(f: _Field) -> click.Option:
    kw = {"type": f.kind, "multiple": f.many and "nargs" not in f.cli,
          "show_default": "default" in f.cli, **f.cli}
    return click.Option([f.flag, f.key], **kw)


def _command(exp: _Experiment) -> click.Command:
    """The experiment's command: one option per field with a flag."""
    def callback(seed, out, **values):
        params = {}
        for f in exp.fields:
            value = values.get(f.key)
            if value is not None and value != ():   # not given, no default
                params[f.key] = list(value) if f.many else value
        _single(exp.name, params, seed, out)

    options = [_option(f) for f in exp.fields if f.cli is not None] + [
        click.Option(["--seed"], type=int, default=0, show_default=True,
                     help="Master seed; every output is a pure function of "
                          "seed and parameters."),
        click.Option(["--out"], type=click.Path(), default="lppnoise-out",
                     show_default=True, help="Output directory.")]
    return click.Command(exp.name, callback=callback, params=options,
                         help=exp.doc)


for _exp in _EXPERIMENTS.values():
    main.add_command(_command(_exp))


if __name__ == "__main__":
    main()
