"""Command-line layer: validation, exit codes, files, reproducibility."""

import importlib.metadata
import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from lppnoise.cli import main
from lppnoise.lattice import Rect, WeightConfig, weights
from lppnoise.stationary import build_stationary

SUBCOMMANDS = ["run", "bks-verify", "corr-decay", "variance-scaling",
               "transversal", "geodesic-heatmap", "stationary-checks",
               "rw-bound", "sandwich", "noise-compare", "influence-map",
               "dump-field", "dump-geodesic", "dump-stationary"]


def _invoke(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_help_lists_every_subcommand():
    res = _invoke(["--help"])
    assert res.exit_code == 0
    for name in SUBCOMMANDS:
        assert name in res.output


def test_version_flag():
    res = _invoke(["--version"])
    assert res.exit_code == 0


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


def test_invalid_parameter_exits_one(tmp_path):
    res = CliRunner().invoke(main, ["corr-decay", "--p", "1.5", "--n", "10",
                                    "--replicas", "40",
                                    "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert 'invalid value for "p" in corr-decay' in res.output
    assert "must be < 1.0, got 1.5" in res.output


def test_dump_field_matches_library(tmp_path):
    res = _invoke(["dump-field", "--p", "0.5", "--lo", "-1", "2", "--hi", "1",
                   "4", "--seed", "11", "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "dump_field.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,weight"
    w = weights(WeightConfig(0.5, 11, Rect((-1, 2), (1, 4))))
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
        if on_up == "true" or on_down == "true":
            assert on_g == "true"


def test_stationary_checks_pass(tmp_path):
    res = _invoke(["stationary-checks", "--p", "0.5", "--lam", "0.5",
                   "--rows", "30", "--cols", "30", "--gof-samples", "2000",
                   "--seed", "19", "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "stationary_checks.csv").read_text().splitlines()
    assert lines[0] == "check,value,passed"
    assert all(ln.endswith(",true") for ln in lines[1:])


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


def test_run_missing_config_file(tmp_path):
    res = CliRunner().invoke(main, ["run", "--config",
                                    str(tmp_path / "absent.json")])
    assert res.exit_code == 1
    assert "config file not found" in res.output


def test_run_empty_experiment_list_writes_manifest(tmp_path):
    out = tmp_path / "results"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, "output_dir": str(out),
                               "experiments": []}))
    res = _invoke(["run", "--config", str(cfg)])
    assert res.exit_code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["experiments"] == []


def test_csv_bytes_identical_across_threads(tmp_path):
    args = ["corr-decay", "--p", "0.5", "--n", "12", "--t", "0.3",
            "--replicas", "40", "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert _invoke(args + ["--out", str(a), "--threads", "1"]).exit_code == 0
    assert _invoke(args + ["--out", str(b), "--threads", "3"]).exit_code == 0
    assert (a / "corr_decay.csv").read_bytes() == (b / "corr_decay.csv").read_bytes()


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
