"""Command-line layer: validation, exit codes, files, reproducibility."""

import ast
import importlib.metadata
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import csv
import importlib
import inspect
import io

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lppnoise
from lppnoise import cli
from lppnoise.cli import main
from lppnoise.lattice import NoiseKind, Rect, noisy_group, weights
from lppnoise.lpp import geodesic_report
from lppnoise.stationary import build_stationary

import byte_pins

SUBCOMMANDS = ["run", "bks-verify", "corr-decay", "variance-scaling",
               "transversal", "geodesic-heatmap", "stationary-checks",
               "rw-bound", "sandwich", "noise-compare", "influence-map",
               "dump-field", "dump-geodesic", "dump-stationary"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def _invoke(args):
    """Run the CLI; every JSON file in the ``--out`` directory must then
    parse as strict JSON, with no NaN or Infinity."""
    res = CliRunner().invoke(main, args, catch_exceptions=False)
    if "--out" in args:
        for path in Path(args[args.index("--out") + 1]).glob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)
    return res


def test_help_lists_every_subcommand():
    res = _invoke(["--help"])
    assert res.exit_code == 0
    for name in SUBCOMMANDS:
        assert name in res.output


# ``--help`` of the group, ``run`` and every experiment command as a
# terminal of 80 or more columns shows them (click wraps at 78).
HELP_SNAPSHOTS = Path(__file__).parent / "help_snapshots"


@pytest.mark.parametrize("command", [None] + SUBCOMMANDS)
def test_help_text_matches_snapshot(command):
    args = [command, "--help"] if command else ["--help"]
    res = CliRunner().invoke(main, args, prog_name="lppnoise",
                             terminal_width=78, catch_exceptions=False)
    assert res.exit_code == 0
    snapshot = HELP_SNAPSHOTS / f"{command or 'lppnoise'}.txt"
    assert res.output == snapshot.read_text()


def test_version_flag():
    res = _invoke(["--version"])
    assert res.exit_code == 0


LIBRARY_MODULES = ["cube", "estimators", "lattice", "lpp", "manifest", "rng",
                   "stationary"]


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_public_names_resolve(module):
    mod = importlib.import_module(f"lppnoise.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_library_functions_have_a_caller(module):
    # a public function that no library module and no acceptance
    # criterion reads belongs in the unit tests that call it
    tests = Path(__file__).parent
    read = set()
    for path in [*(tests.parent / "src" / "lppnoise").glob("*.py"),
                 tests / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    mod = importlib.import_module(f"lppnoise.{module}")
    functions = {name for name in mod.__all__
                 if inspect.isfunction(getattr(mod, name))}
    assert functions
    assert not sorted(functions - read)


def test_no_module_imports_another_modules_private_name():
    # a name one module shares with another is public
    src = Path(__file__).parent.parent / "src" / "lppnoise"
    private = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("lppnoise")):
                private += [f"{path.name}: {a.name}" for a in node.names
                            if a.name.startswith("_")
                            and not a.name.endswith("__")]
    assert not private


def _names_numpy_random_or_ctypes(node) -> bool:
    if isinstance(node, ast.Attribute):
        return (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Name):
        return node.id == "ctypes"
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [f"{node.module}.{a.name}" for a in node.names]
    else:
        return False
    return any(n.split(".")[0] == "ctypes" or n.startswith("numpy.random")
               for n in names)


def test_only_bks_verify_names_numpy_random():
    # bootstrap indices come from rng.IndexStream, and no heap trim goes
    # through ctypes: the lattice experiments' path stays free of both
    src = Path(__file__).parent.parent / "src" / "lppnoise"
    found, allowed = [], 0
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if (path.name, node.name) == ("cli.py", "_run_bks_verify"):
                skip.update(map(id, ast.walk(node)))
            elif (path.name, node.name) == ("cube.py",
                                            "random_normal_function"):
                for arg in node.args.args:
                    if arg.annotation is not None:
                        skip.update(map(id, ast.walk(arg.annotation)))
        for node in ast.walk(tree):
            if _names_numpy_random_or_ctypes(node):
                if id(node) in skip:
                    allowed += 1
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert allowed == 2   # bks-verify's generator and its annotation
    assert not found


def test_corr_decay_writes_csv_and_summary(tmp_path):
    out = str(tmp_path)
    res = _invoke(["corr-decay", "--p", "0.5", "--n", "12", "--t", "0",
                   "--t", "0.5", "--replicas", "40", "--seed", "3",
                   "--out", out])
    assert res.exit_code == 0
    assert "corr-decay: ok" in res.output
    lines = (tmp_path / "corr_decay.csv").read_text().splitlines()
    assert lines[0] == "t,estimate,stderr,ci_low,ci_high,replicas,degenerate"
    assert len(lines) == 3
    assert lines[1].startswith("0,1,0,1,1,40,")  # t = 0 row is exact
    summary = json.loads((tmp_path / "corr_decay_summary.json").read_text())
    assert summary["name"] == "corr-decay" and summary["passed"] is True
    assert summary["seed"] == 3


@pytest.mark.parametrize("times", [("0.0", "0.25", "1.0"),
                                   ("1.0", "0.25", "0.0"),
                                   ("0.0", "0.25", "0.25", "1.0")])
def test_corr_decay_monotone_flag_ignores_time_order(tmp_path, times):
    # judged over the distinct times in increasing order
    args = ["corr-decay", "--n", "30", "--replicas", "60", "--seed", "3",
            "--out", str(tmp_path)]
    for t in times:
        args += ["--t", t]
    assert _invoke(args).exit_code == 0
    summary = json.loads((tmp_path / "corr_decay_summary.json").read_text())
    assert summary["monotone_decreasing"] is True


def test_invalid_parameter_exits_one(tmp_path):
    res = CliRunner().invoke(main, ["corr-decay", "--p", "1.5", "--n", "10",
                                    "--replicas", "40",
                                    "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert 'invalid value for "p" in corr-decay' in res.output
    assert "must be < 1.0, got 1.5" in res.output


def test_degenerate_fit_names_the_scale(tmp_path):
    # at p = 0.999 every weight is 0 with high probability, so Var(T_2) = 0
    res = CliRunner().invoke(main, ["variance-scaling", "--p", "0.999",
                                    "--n", "2", "--n", "3", "--n", "4",
                                    "--replicas", "2", "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert ("invalid parameters for variance-scaling: statistic is 0 at "
            "n=2 (p=0.999, replicas=2)") in res.output


def test_degenerate_bootstrap_resample_names_the_scale(tmp_path):
    # at p = 0.95 some resample of the 4 replicas at n = 2 has variance 0;
    # its log-log refit has no value, so the run must not report a CI
    res = CliRunner().invoke(main, ["variance-scaling", "--p", "0.95",
                                    "--n", "2", "--n", "3", "--n", "4",
                                    "--replicas", "4", "--seed", "5",
                                    "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert ("invalid parameters for variance-scaling: a bootstrap "
            "resample's statistic is 0 at n=2 (p=0.95, replicas=4)"
            ) in res.output
    assert not (tmp_path / "variance_scaling_summary.json").exists()


def test_dump_field_matches_library(tmp_path):
    res = _invoke(["dump-field", "--p", "0.5", "--lo", "-1", "2", "--hi", "1",
                   "4", "--seed", "11", "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "dump_field.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,weight"
    w = weights(0.5, 11, Rect((-1, 2), (1, 4)))
    body = [ln.split(",") for ln in lines[1:]]
    assert len(body) == w.size
    for x1, x2, val in body:
        assert int(val) == w[int(x1) + 1, int(x2) - 2]


def test_dump_field_with_noise_adds_column(tmp_path):
    res = _invoke(["dump-field", "--p", "0.5", "--lo", "0", "0", "--hi", "3",
                   "3", "--t", "0.5", "--kind", "BIT", "--seed", "7",
                   "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "dump_field.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,weight,noisy_weight"


def test_dump_stationary_matches_library(tmp_path):
    res = _invoke(["dump-stationary", "--p", "0.5", "--lam", "0.4", "--rows",
                   "4", "--cols", "5", "--seed", "13", "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "dump_stationary.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,G,relative_weight"
    sf = build_stationary(0.5, 0.4, (4, 5), seed=13)
    cells = {(int(a), int(b)): int(g)
             for a, b, g, _ in (ln.split(",") for ln in lines[1:])}
    for (i, j), g in cells.items():
        assert g == sf.G[i, j]
    assert len(cells) == 30


def test_dump_geodesic_flags_are_consistent(tmp_path):
    res = _invoke(["dump-geodesic", "--p", "0.5", "--n", "8", "--seed", "17",
                   "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "dump_geodesic.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,weight,on_geodesic,on_upmost,on_downmost"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 81
    for _, _, _, on_g, on_up, on_down in rows:
        if on_up == "1" or on_down == "1":
            assert on_g == "1"


def _per_site_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([[str(c) for c in row] for row in rows])
    return buf.getvalue().encode()


@pytest.mark.parametrize("lo,hi,kind", [((-3, -5), (2, 1), "BIT"),
                                        ((-7, 2), (-4, 9), "SITE"),
                                        ((0, -2), (0, 3), "SITE")])
def test_dump_field_bytes_match_per_site_reference(tmp_path, lo, hi, kind):
    res = _invoke(["dump-field", "--p", "0.4", "--lo", *map(str, lo), "--hi",
                   *map(str, hi), "--t", "0.7", "--kind", kind, "--seed",
                   "41", "--out", str(tmp_path)])
    assert res.exit_code == 0
    w = weights(0.4, 41, Rect(lo, hi))
    nw = noisy_group(0.4, (41,), Rect(lo, hi), (0.7,), NoiseKind[kind])[0, 0]
    rows = [[lo[0] + i, lo[1] + j, int(w[i, j]), int(nw[i, j])]
            for i in range(w.shape[0]) for j in range(w.shape[1])]
    assert (tmp_path / "dump_field.csv").read_bytes() == _per_site_csv(
        ["x1", "x2", "weight", "noisy_weight"], rows)


@pytest.mark.parametrize("n,seed", [(1, 3), (9, 17), (30, 5)])
def test_dump_geodesic_bytes_match_per_site_reference(tmp_path, n, seed):
    res = _invoke(["dump-geodesic", "--p", "0.5", "--n", str(n), "--seed",
                   str(seed), "--out", str(tmp_path)])
    assert res.exit_code == 0
    w = weights(0.5, seed, Rect((0, 0), (n, n)))
    rep = geodesic_report(w)
    up = {tuple(x) for x in rep.upmost}
    down = {tuple(x) for x in rep.downmost}
    rows = [[i, j, int(w[i, j]), int(rep.member_mask[i, j]),
             int((i, j) in up), int((i, j) in down)]
            for i in range(n + 1) for j in range(n + 1)]
    assert (tmp_path / "dump_geodesic.csv").read_bytes() == _per_site_csv(
        ["x1", "x2", "weight", "on_geodesic", "on_upmost", "on_downmost"],
        rows)


# The byte contract: every pinned command line of byte_pins.json, at
# each of its seeds, must write output files with the recorded SHA-256.
# Each entry names the test below that checks it; a test's ids are
# <label>-<seed>, or the seed alone when it checks one command line.
# CSVs are checked before summaries and reported apart, since summary
# floats can take their last bits from the CPU's numpy and BLAS kernels.
def _pinned(test):
    entries = [e for e in byte_pins.load() if e["test"] == test.__name__]
    return pytest.mark.parametrize("entry,seed", [
        pytest.param(entry, seed, id=f"{entry['label']}-{seed}"
                     if len(entries) > 1 else seed)
        for entry in entries for seed in entry["seeds"]])(test)


def _check_pinned_bytes(tmp_path, entry, seed):
    res = _invoke(byte_pins.command(entry, seed, tmp_path))
    assert res.exit_code == 0, res.output
    got = byte_pins.digests(tmp_path / "out")
    want = entry["seeds"][seed]

    def csvs(files):
        return {k: v for k, v in files.items() if k.endswith(".csv")}

    assert csvs(got) == csvs(want), "CSV bytes differ from the corpus"
    assert got == want, "summary bytes differ from the corpus (CSVs match)"


@_pinned
def test_dump_geodesic_bytes_are_pinned(tmp_path, entry, seed):
    _check_pinned_bytes(tmp_path, entry, seed)


@_pinned
def test_exact_experiment_bytes_are_pinned(tmp_path, entry, seed):
    _check_pinned_bytes(tmp_path, entry, seed)


@_pinned
def test_draw_experiment_bytes_are_pinned(tmp_path, entry, seed):
    _check_pinned_bytes(tmp_path, entry, seed)


@_pinned
def test_replica_loop_experiment_bytes_are_pinned(tmp_path, entry, seed):
    _check_pinned_bytes(tmp_path, entry, seed)


@_pinned
def test_two_chunk_heatmap_bytes_are_pinned(tmp_path, entry, seed):
    _check_pinned_bytes(tmp_path, entry, seed)


@_pinned
def test_two_strip_geodesic_set_bytes_are_pinned(tmp_path, entry, seed):
    _check_pinned_bytes(tmp_path, entry, seed)


@_pinned
def test_dump_and_stationary_bytes_are_pinned(tmp_path, entry, seed):
    _check_pinned_bytes(tmp_path, entry, seed)


@_pinned
def test_run_batch_bytes_are_pinned(tmp_path, entry, seed):
    _check_pinned_bytes(tmp_path, entry, seed)


def test_every_corpus_entry_has_its_pin_test():
    tests = {name for name in globals()
             if name.startswith("test_") and name.endswith("_bytes_are_pinned")}
    assert {e["test"] for e in byte_pins.load()} == tests


def test_every_command_is_pinned_at_three_seeds():
    seeds = {name: set() for name in [*cli._EXPERIMENTS, "run"]}
    for entry in byte_pins.load():
        seeds[entry["argv"][0]].update(entry["seeds"])
    assert [name for name, s in seeds.items() if len(s) < 3] == []


def test_stationary_checks_pass(tmp_path):
    res = _invoke(["stationary-checks", "--p", "0.5", "--lam", "0.5",
                   "--rows", "30", "--cols", "30", "--gof-samples", "2000",
                   "--seed", "19", "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "stationary_checks.csv").read_text().splitlines()
    assert lines[0] == "check,value,passed"
    assert all(ln.endswith(",true") for ln in lines[1:])


@pytest.mark.parametrize("n", range(2, 41))
def test_geodesic_heatmap_antidiagonal_sites_inside_square(tmp_path, n):
    res = _invoke(["geodesic-heatmap", "--n", str(n), "--replicas", "2",
                   "--seed", "2", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    summary = json.loads(
        (tmp_path / "geodesic_heatmap_summary.json").read_text())
    rows = list(csv.DictReader(io.StringIO(
        (tmp_path / "geodesic_heatmap.csv").read_text())))
    freq = {(int(r["x1"]), int(r["x2"])): float(r["frequency"]) for r in rows}
    for s, f in summary["antidiagonal_frequencies"]:
        d = math.ceil(s * n ** (2.0 / 3.0) / 2.0)
        x1, x2 = n // 2 + d, n // 2 - d
        assert 0 <= x2 and x1 <= n, (s, d)
        assert f == freq[x1, x2]


def test_rw_bound_cli(tmp_path):
    res = _invoke(["rw-bound", "--value", "-1", "--prob", "0.5", "--value",
                   "1", "--prob", "0.5", "--steps", "16", "--steps", "64",
                   "--replicas", "2000", "--seed", "23", "--out",
                   str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "rw_bound.csv").read_text().splitlines()
    assert lines[0] == "n_steps,q_hat,stderr,ci_low,ci_high,bound,exact"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "16" and first[6] != ""   # exact attached for N = 16
    assert lines[2].split(",")[6] == ""          # but not for N = 64


def test_noise_compare_t0(tmp_path):
    res = _invoke(["noise-compare", "--p", "0.5", "--n", "10", "--t", "0",
                   "--replicas", "40", "--seed", "29", "--out", str(tmp_path)])
    assert res.exit_code == 0
    text = (tmp_path / "noise_compare.csv").read_text()
    assert text.splitlines()[0] == "metric,value"


def test_noise_compare_nan_bootstrap_ci_is_degenerate(tmp_path):
    # at p near 1 nearly every travel time is 0, so some resamples are
    # constant; their correlations, and with them the bootstrap CI, are NaN
    res = _invoke(["noise-compare", "--p", "0.999", "--n", "3", "--t", "0.5",
                   "--replicas", "30", "--seed", "1", "--out", str(tmp_path)])
    assert res.exit_code == 0
    rows = dict(ln.split(",") for ln in
                (tmp_path / "noise_compare.csv").read_text().splitlines())
    assert rows["corr_diff_ci_low"] == rows["corr_diff_ci_high"] == "nan"
    summary = json.loads(
        (tmp_path / "noise_compare_summary.json").read_text())
    diff = summary["corr_diff"]
    assert diff["degenerate"] is True
    # strict JSON has no NaN: the summary holds null
    assert all(diff[k] is None for k in ("stderr", "ci_low", "ci_high"))
    assert summary["corr_bit_t"]["degenerate"] is False


def test_bks_verify_cli(tmp_path):
    res = _invoke(["bks-verify", "--m", "5", "--p", "0.5", "--t", "0.5",
                   "--trials", "20", "--seed", "31", "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "bks_verify.csv").read_text().splitlines()
    assert lines[0] == ("trial,m,p,t,theta,lhs,rhs_stated,rhs_proof,"
                        "margin_stated,margin_proof,stated_holds,proof_holds")
    assert len(lines) == 21
    assert all(ln.endswith(",true") for ln in lines[1:])  # proof form holds


def test_run_config_executes_in_order(tmp_path):
    out = tmp_path / "results"
    config = {
        "seed": 5,
        "output_dir": str(out),
        "experiments": [
            {"name": "dump-field",
             "params": {"p": 0.5, "lo": [0, 0], "hi": [3, 3]}},
            {"name": "rw-bound",
             "params": {"values": [-1, 1], "probs": [0.5, 0.5],
                        "n_steps": [16], "replicas": 500}, "seed": 99},
        ],
    }
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    res = _invoke(["run", "--config", str(cfg)])
    assert res.exit_code == 0
    assert (out / "00_dump_field.csv").exists()
    assert (out / "01_rw_bound.csv").exists()
    man = json.loads((out / "manifest.json").read_text())
    assert man["master_seed"] == 5
    names = [e["name"] for e in man["experiments"]]
    assert names == ["dump-field", "rw-bound"]
    assert all(e["passed"] for e in man["experiments"])
    # the per-experiment seed override is recorded in its summary
    summary = json.loads((out / "01_rw_bound_summary.json").read_text())
    assert summary["seed"] == 99


def test_run_rejects_unknown_experiment(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, "experiments": [{"name": "nope"}]}))
    res = CliRunner().invoke(main, ["run", "--config", str(cfg)])
    assert res.exit_code == 1
    assert 'unknown experiment name "nope"' in res.output
    assert "corr-decay" in res.output  # the message lists what exists


def test_run_rejects_unknown_fields(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, "experiments": [], "extra": 2}))
    res = CliRunner().invoke(main, ["run", "--config", str(cfg)])
    assert res.exit_code == 1
    assert 'unknown config field "extra"' in res.output


def test_run_missing_required_param(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, "experiments":
                               [{"name": "bks-verify", "params": {}}]}))
    res = CliRunner().invoke(main, ["run", "--config", str(cfg)])
    assert res.exit_code == 1
    assert 'missing required parameter "m" for bks-verify' in res.output


_CORR_DECAY = {"p": 0.5, "n": 4, "t_values": [0.5], "replicas": 30}


@pytest.mark.parametrize("bad,message", [
    pytest.param({"name": "bks-verify", "params": {}},
                 'missing required parameter "m" for bks-verify',
                 id="bks-verify-m"),
    pytest.param({"name": "corr-decay",
                  "params": {**_CORR_DECAY, "kind": "COUPLED"}},
                 'invalid value for "kind" in corr-decay: expected BIT or '
                 "SITE, got 'COUPLED'", id="corr-decay-kind"),
    pytest.param({"name": "sandwich", "params": {"p": 0.5, "v": [200, 200, 1],
                                                 "s": 0.3, "replicas": 2}},
                 'invalid value for "v" in sandwich: expected 2 components',
                 id="sandwich-v"),
    pytest.param({"name": "dump-field", "params": {"p": 0.5, "lo": [0, 0, 0],
                                                   "hi": [2, 2]}},
                 'invalid value for "lo" in dump-field: expected 2 '
                 "components", id="dump-field-lo"),
])
def test_run_checks_every_entry_before_running_any(tmp_path, bad, message):
    # a valid entry 0 must not run when entry 1 breaks a field's rule
    out = tmp_path / "out"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(
        {"seed": 1, "output_dir": str(out), "experiments": [
            {"name": "corr-decay", "params": _CORR_DECAY}, bad]}))
    res = CliRunner().invoke(main, ["run", "--config", str(cfg)])
    assert res.exit_code == 1
    assert message in res.output
    assert "[0]" not in res.output
    assert not out.exists() or not any(out.iterdir())


def test_config_kind_is_matched_without_regard_to_case(tmp_path):
    def batch(corr_kind, dump_kind):
        out = tmp_path / f"{corr_kind}-{dump_kind}"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"seed": 3, "output_dir": str(out), "experiments": [
                {"name": "corr-decay",
                 "params": {**_CORR_DECAY, "kind": corr_kind}},
                {"name": "dump-field",
                 "params": {"p": 0.4, "lo": [-2, 1], "hi": [3, 4], "t": 0.7,
                            "kind": dump_kind}}]}))
        res = CliRunner().invoke(main, ["run", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        files = {}
        for path in sorted(out.iterdir()):
            if path.suffix == ".csv":
                files[path.name] = path.read_bytes()
            elif path.name != "manifest.json":   # the summary echoes params
                summary = json.loads(path.read_text())
                del summary["params"]
                files[path.name] = summary
        return files

    assert batch("site", "Bit") == batch("SITE", "BIT")
    assert batch("bit", "sItE") == batch("BIT", "SITE")


def test_run_rejects_unknown_param(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(
        {"seed": 1, "experiments":
         [{"name": "corr-decay", "params": {"q": 0.5}}]}))
    res = CliRunner().invoke(main, ["run", "--config", str(cfg)])
    assert res.exit_code == 1
    assert 'unknown parameter "q"' in res.output


@pytest.mark.parametrize("name,params,field", [
    ("rw-bound", {"values": [-1, 1], "probs": [float("nan"), 1.0],
                  "n_steps": [100], "replicas": 100}, "probs[0]"),
    ("corr-decay", {"p": 0.5, "n": 8, "t_values": [float("nan")],
                    "replicas": 30}, "t_values[0]"),
    ("corr-decay", {"p": float("nan"), "n": 8, "t_values": [0.5],
                    "replicas": 30}, "p"),
])
def test_run_rejects_non_finite_float(tmp_path, name, params, field):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(   # json writes NaN / Infinity literals
        {"seed": 1, "output_dir": str(tmp_path / "out"),
         "experiments": [{"name": name, "params": params}]}))
    res = CliRunner().invoke(main, ["run", "--config", str(cfg)])
    assert res.exit_code == 1
    assert f'invalid value for "{field}" in {name}: must be finite' in res.output


def _run_one(tmp_path, name, params):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(
        {"seed": 1, "output_dir": str(tmp_path / "out"),
         "experiments": [{"name": name, "params": params}]}))
    return _invoke(["run", "--config", str(cfg)])


def test_run_reports_library_value_error_as_config_error(tmp_path):
    res = _run_one(tmp_path, "variance-scaling",
                   {"p": 0.5, "n_list": [16, 8], "replicas": 2})
    assert res.exit_code == 1
    assert ("configuration error: invalid parameters for variance-scaling: "
            "n_list needs at least three strictly increasing scales, "
            "got [16, 8]") in res.output


@pytest.mark.parametrize("name,params", [
    ("corr-decay", {"p": 0.5, "n": 8, "t_values": [0.5], "replicas": 30}),
    ("dump-field", {"p": 0.5, "lo": [0, 0], "hi": [2, 2], "t": 0.5}),
])
@pytest.mark.parametrize("kind", ["COUPLED", "coupled"])
def test_run_rejects_coupled_kind(tmp_path, name, params, kind):
    res = _run_one(tmp_path, name, {**params, "kind": kind})
    assert res.exit_code == 1
    assert (f'invalid value for "kind" in {name}: expected BIT or SITE, '
            f"got {kind!r}") in res.output


def test_run_rejects_p_below_floor(tmp_path):
    res = _run_one(tmp_path, "corr-decay",
                   {"p": 1e-7, "n": 8, "t_values": [0.5], "replicas": 30})
    assert res.exit_code == 1
    assert ('invalid value for "p" in corr-decay: must be >= 0.001'
            in res.output)


# A valid configuration of every experiment at a tiny size; the random
# configs below start from these and break fields at random.
_TINY = {
    "corr-decay": {"p": 0.5, "n": 3, "t_values": [0.0, 0.5], "kind": "BIT",
                   "replicas": 30},
    "variance-scaling": {"p": 0.5, "n_list": [2, 3, 4], "replicas": 16,
                         "n_boot": 10},
    "transversal": {"p": 0.5, "n_list": [2, 3, 4], "replicas": 2,
                    "n_boot": 10, "envelope_widths": [0, 2]},
    "geodesic-heatmap": {"p": 0.5, "n": 3, "replicas": 2},
    "stationary-checks": {"p": 0.5, "lam": 0.5, "rows": 2, "cols": 2,
                          "gof_samples": 500},
    "rw-bound": {"values": [-1, 1], "probs": [0.5, 0.5], "n_steps": [3],
                 "replicas": 100},
    "sandwich": {"p": 0.5, "v": [3, 3], "s": 0.05, "replicas": 2},
    "noise-compare": {"p": 0.5, "n": 3, "t": 0.1, "replicas": 30},
    "influence-map": {"p": 0.5, "n": 2, "replicas": 30, "i_max": 1,
                      "delta": 0.5},
    "bks-verify": {"m": 2, "p": 0.5, "t": 0.5, "trials": 2},
    "dump-field": {"p": 0.5, "lo": [-1, -2], "hi": [1, 0], "t": 0.5,
                   "kind": "SITE"},
    "dump-geodesic": {"p": 0.5, "n": 2},
    "dump-stationary": {"p": 0.5, "lam": 0.5, "rows": 2, "cols": 2},
}
# Ints far outside int64 go only where they cannot size an array.
_HUGE = st.sampled_from([2 ** 31, 2 ** 62 + 1, 2 ** 63, -2 ** 63 - 1, 2 ** 70,
                         -2 ** 70])
_COORD_FIELDS = {"lo", "hi", "values", "v", "envelope_widths"}
_ATOM = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6),
    st.sampled_from([0.0, -1.5, 0.5, 0.999, 1.0, 1e-9, 1e308, float("nan"),
                     float("inf"), float("-inf")]),
    st.sampled_from(["", "BIT", "site", "COUPLED", "x"]))
_JUNK = st.one_of(_ATOM, st.lists(_ATOM, max_size=4),
                  st.dictionaries(st.sampled_from(["a", "p"]), _ATOM,
                                  max_size=2))


_SEED = st.sampled_from(["int"] * 9 + ["junk"]).flatmap(
    lambda k: st.integers(-2 ** 64, 2 ** 64) if k == "int" else _ATOM)


@st.composite
def _experiment(draw):
    name = draw(st.sampled_from(sorted(_TINY)))
    params = dict(_TINY[name])
    broken = draw(st.lists(st.sampled_from(sorted(params)), max_size=2,
                           unique=True))
    for key in broken:
        action = draw(st.sampled_from(["drop", "junk", "huge"]))
        if action == "drop":
            del params[key]
        elif action == "huge" and key in _COORD_FIELDS:
            k = draw(st.integers(0, len(params[key]) - 1))
            params[key] = params[key][:k] + [draw(_HUGE)] + params[key][k + 1:]
        else:
            params[key] = draw(_JUNK)
    if draw(st.integers(0, 19)) == 0:
        params["unknown"] = 1
    entry = {"name": name, "params": params}
    if draw(st.integers(0, 3)) == 0:
        entry["seed"] = draw(_SEED)
    return entry


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(experiments=st.lists(_experiment(), min_size=1, max_size=2),
       seed=_SEED)
def test_random_config_never_raises(tmp_path, experiments, seed):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": seed,
                               "output_dir": str(tmp_path / "out"),
                               "experiments": experiments}))
    res = CliRunner().invoke(main, ["run", "--config", str(cfg)])
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        res.exc_info
    assert res.exit_code in (0, 1, 2)
    assert "Traceback" not in res.output
    if res.exit_code == 1:
        assert "configuration error: " in res.output


@pytest.mark.parametrize("name,params,message", [
    ("corr-decay", {"p": 0.5, "n": 3, "t_values": [0.5], "replicas": 1e308},
     '"replicas" in corr-decay: must fit in a signed 64-bit integer'),
    ("rw-bound", {"values": [2 ** 70, -1], "probs": [0.5, 0.5],
                  "n_steps": [3], "replicas": 100},
     '"values[0]" in rw-bound: must fit in a signed 64-bit integer'),
    ("rw-bound", {"values": [-1, 2 ** 62 + 1], "probs": [0.5, 0.5],
                  "n_steps": [3], "replicas": 100},
     '"values[1]" in rw-bound: must be <= 2147483648'),
    ("rw-bound", {"values": [-1, 1], "probs": [0.5, 0.5],
                  "n_steps": [2 ** 31 + 1], "replicas": 100},
     '"n_steps[0]" in rw-bound: must be <= 2147483648'),
    ("dump-field", {"p": 0.5, "lo": [2 ** 70, 0], "hi": [2 ** 70 + 1, 1]},
     '"lo[0]" in dump-field: must fit in a signed 64-bit integer'),
    ("dump-field", {"p": 0.5, "lo": [0, 2 ** 63 - 2], "hi": [1, 2 ** 63 - 1]},
     '"lo[1]" in dump-field: must be <= 4611686018427387904'),
    ("sandwich", {"p": 0.5, "v": [2 ** 40, 2 ** 40], "s": 0.05,
                  "replicas": 2},
     '"v[0]" in sandwich: must be <= 4000'),
    ("variance-scaling", {"p": 0.5, "n_list": [2, 3, 4], "replicas": 2,
                          "n_boot": 2 ** 40},
     '"n_boot" in variance-scaling: must be <= 100000'),
    ("transversal", {"p": 0.5, "n_list": [2, 3, 4], "replicas": 2,
                     "n_boot": 100_001},
     '"n_boot" in transversal: must be <= 100000'),
    ("bks-verify", {"m": 2, "p": 0.5, "t": 0.5, "trials": 100_001},
     '"trials" in bks-verify: must be <= 100000'),
    ("stationary-checks", {"p": 0.5, "lam": 0.5, "rows": 2, "cols": 2,
                           "gof_samples": 600_001},
     '"gof_samples" in stationary-checks: must be <= 600000'),
])
def test_run_rejects_out_of_range_ints(tmp_path, name, params, message):
    res = _run_one(tmp_path, name, params)
    assert res.exit_code == 1
    assert f"configuration error: invalid value for {message}" in res.output


# Each experiment's command at a small size; test_command_matches_config
# runs it, then runs the params the command passed on through a config.
_SMALL_COMMANDS = {
    "corr-decay": ["--p", "0.4", "--n", "4", "--t", "0", "--t", "0.5",
                   "--kind", "site", "--replicas", "30"],
    # a bootstrap resample of 2 replicas often has variance 0 (exit 1)
    "variance-scaling": ["--n", "2", "--n", "3", "--n", "4", "--replicas",
                         "16"],
    "transversal": ["--n", "2", "--n", "3", "--n", "4", "--replicas", "2",
                    "--envelope-width", "0", "--envelope-width", "2"],
    "geodesic-heatmap": ["--n", "4", "--replicas", "2"],
    "stationary-checks": ["--lam", "0.3", "--rows", "3", "--cols", "4",
                          "--gof-samples", "500"],
    "rw-bound": ["--value", "-1", "--prob", "0.4", "--value", "1", "--prob",
                 "0.6", "--steps", "3", "--steps", "40", "--replicas", "100"],
    "sandwich": ["--v", "3", "3", "--s", "0.05", "--replicas", "2"],
    "noise-compare": ["--n", "4", "--t", "0.1", "--replicas", "30"],
    "influence-map": ["--n", "4", "--replicas", "30", "--i-max", "1"],
    "bks-verify": ["--m", "2", "--p", "0.5", "--t", "0.5", "--trials", "2"],
    "dump-field": ["--lo", "-1", "-2", "--hi", "1", "0", "--t", "0.5",
                   "--kind", "SITE"],
    "dump-geodesic": ["--n", "4"],
    "dump-stationary": ["--rows", "3", "--cols", "4"],
}


@pytest.mark.parametrize("name", sorted(_SMALL_COMMANDS))
def test_command_matches_config(tmp_path, monkeypatch, name):
    fed, execute = [], cli._execute

    def spy(name, params, *args, **kwargs):
        fed.append(params)
        return execute(name, params, *args, **kwargs)

    monkeypatch.setattr(cli, "_execute", spy)
    direct, batch = tmp_path / "direct", tmp_path / "batch"
    res = _invoke([name, *_SMALL_COMMANDS[name], "--seed", "5", "--out",
                   str(direct)])
    assert res.exit_code == 0, res.output
    stem = name.replace("-", "_")
    summary = (direct / f"{stem}_summary.json").read_bytes()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(
        {"seed": 5, "output_dir": str(batch),
         "experiments": [{"name": name, "params": fed[0]}]}))
    res = _invoke(["run", "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    assert (batch / f"00_{stem}.csv").read_bytes() == \
        (direct / f"{stem}.csv").read_bytes()
    assert (batch / f"00_{stem}_summary.json").read_bytes() == summary
    ran = json.loads(cfg.read_text())["experiments"][0]["params"]
    assert json.loads(summary)["params"] == ran


def test_run_turns_memory_error_into_config_error(tmp_path, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 8.00 TiB")
    monkeypatch.setattr("lppnoise.cli.geodesic_report", out_of_memory)
    res = _run_one(tmp_path, "dump-geodesic", {"p": 0.5, "n": 3})
    assert res.exit_code == 1
    assert ("configuration error: out of memory for dump-geodesic: Unable "
            "to allocate 8.00 TiB") in res.output


def test_run_missing_config_file(tmp_path):
    res = CliRunner().invoke(main, ["run", "--config",
                                    str(tmp_path / "absent.json")])
    assert res.exit_code == 1
    assert "config file not found" in res.output


# "file" is a plain file, "bytes.json" is not UTF-8 and "c.json" runs no
# experiment
@pytest.mark.parametrize("args,path,message", [
    (["run", "--config", "{tmp}"], "{tmp}", "cannot read config file"),
    (["run", "--config", "{tmp}/bytes.json"], "{tmp}/bytes.json",
     "cannot read config file"),
    (["dump-field", "--hi", "1", "1", "--out", "{tmp}/file"], "{tmp}/file",
     "cannot write to output directory"),
    (["run", "--config", "{tmp}/c.json", "--out", "{tmp}/file"], "{tmp}/file",
     "cannot write to output directory"),
    (["dump-field", "--hi", "1", "1", "--out", "{tmp}/file/sub"],
     "{tmp}/file/sub", "cannot write to output directory"),
], ids=["config-dir", "config-not-utf8", "out-file", "run-out-file",
        "out-under-file"])
def test_unusable_path_is_a_config_error(tmp_path, args, path, message):
    (tmp_path / "file").write_text("")
    (tmp_path / "bytes.json").write_bytes(b"\xff\xfe{")
    (tmp_path / "c.json").write_text(json.dumps({"seed": 1,
                                                 "experiments": []}))
    res = _invoke([a.format(tmp=tmp_path) for a in args])
    assert res.exit_code == 1
    assert "Traceback" not in res.output
    assert (f'configuration error: {message} "{path.format(tmp=tmp_path)}": '
            in res.output)


def test_run_empty_experiment_list_writes_manifest(tmp_path):
    out = tmp_path / "results"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, "output_dir": str(out),
                               "experiments": []}))
    res = _invoke(["run", "--config", str(cfg)])
    assert res.exit_code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["experiments"] == []


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(not _distribution_installed("lppnoise"),
                    reason="no lppnoise distribution is installed, so there "
                           "is no console script to run")
def test_installed_entry_point_runs():
    proc = subprocess.run(["lppnoise", "--help"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "last-passage" in proc.stdout


def _fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports this lppnoise."""
    src = str(Path(lppnoise.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)


# scipy costs most of the start-up time; only stationary-checks needs it
_NO_SCIPY = """
import sys
from lppnoise.cli import main
for args in (["--help"],
             ["corr-decay", "--n", "4", "--t", "0.5", "--replicas", "30",
              "--out", sys.argv[1]]):
    try:
        main(args, prog_name="lppnoise")
    except SystemExit as exc:
        assert exc.code == 0, (args, exc.code)
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    proc = _fresh_python(_NO_SCIPY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "corr_decay.csv").exists()


# bootstrap indices come from rng.IndexStream; bks-verify's random
# functions are numpy.random's one user
_NUMPY_RANDOM_ONLY_IN_BKS_VERIFY = """
import sys
from lppnoise.cli import main
def run(*args):
    try:
        main([*args, "--out", sys.argv[1]], prog_name="lppnoise")
    except SystemExit as exc:
        assert exc.code == 0, (args, exc.code)
run("corr-decay", "--n", "4", "--t", "0.5", "--replicas", "30")
run("noise-compare", "--n", "4", "--t", "0.1", "--replicas", "30")
run("variance-scaling", "--n", "2", "--n", "3", "--n", "4", "--replicas", "16")
run("transversal", "--n", "2", "--n", "3", "--n", "4", "--replicas", "4")
assert "numpy.random" not in sys.modules
run("bks-verify", "--m", "2", "--p", "0.5", "--t", "0.5", "--trials", "2")
assert "numpy.random" in sys.modules
"""


def test_lattice_experiments_run_without_importing_numpy_random(tmp_path):
    proc = _fresh_python(_NUMPY_RANDOM_ONLY_IN_BKS_VERIFY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert {"noise_compare.csv", "variance_scaling.csv", "transversal.csv",
            "bks_verify.csv"} <= {p.name for p in tmp_path.iterdir()}


def test_stationary_checks_in_fresh_interpreter(tmp_path):
    proc = _fresh_python(
        "from lppnoise.cli import main; main(prog_name='lppnoise')",
        "stationary-checks", "--lam", "0.3", "--rows", "3", "--cols", "4",
        "--gof-samples", "500", "--seed", "5", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "stationary_checks.csv").exists()
