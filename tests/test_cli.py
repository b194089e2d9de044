"""Command-line layer: validation, exit codes, files, reproducibility."""

import ast
import hashlib
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
from lppnoise.lattice import (NoiseKind, Rect, WeightConfig, noisy_stack,
                              weights)
from lppnoise.lpp import geodesic_report
from lppnoise.stationary import build_stationary

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
    cfg = WeightConfig(0.4, 41, Rect(lo, hi))
    w = weights(cfg)
    nw = noisy_stack(cfg, (0.7,), NoiseKind[kind])[0]
    rows = [[lo[0] + i, lo[1] + j, int(w[i, j]), int(nw[i, j])]
            for i in range(w.shape[0]) for j in range(w.shape[1])]
    assert (tmp_path / "dump_field.csv").read_bytes() == _per_site_csv(
        ["x1", "x2", "weight", "noisy_weight"], rows)


@pytest.mark.parametrize("n,seed", [(1, 3), (9, 17), (30, 5)])
def test_dump_geodesic_bytes_match_per_site_reference(tmp_path, n, seed):
    res = _invoke(["dump-geodesic", "--p", "0.5", "--n", str(n), "--seed",
                   str(seed), "--out", str(tmp_path)])
    assert res.exit_code == 0
    w = weights(WeightConfig(0.5, seed, Rect((0, 0), (n, n))))
    rep = geodesic_report(w)
    up = {tuple(x) for x in rep.upmost}
    down = {tuple(x) for x in rep.downmost}
    rows = [[i, j, int(w[i, j]), int(rep.member_mask[i, j]),
             int((i, j) in up), int((i, j) in down)]
            for i in range(n + 1) for j in range(n + 1)]
    assert (tmp_path / "dump_geodesic.csv").read_bytes() == _per_site_csv(
        ["x1", "x2", "weight", "on_geodesic", "on_upmost", "on_downmost"],
        rows)


# SHA-256 of dump_geodesic.csv and its summary for ``--n 40`` (p = 0.5),
# recorded from the backtracking implementation of the extreme geodesics
DUMP_GEODESIC_SHA256 = {
    11: ("1bfa3c081382aef9fb52ac32eb1e02194b13b7fb995a353cd3a642575987684c",
         "b0ee9dce9c2255064c84e0269ae5db5c4662b1e6777c1667d387b75c0eaa3083"),
    222: ("987c2ae991f355860471df43532cfe6c7f2788394e81eee35a40266a799753c7",
          "c713c98ff28328c279ff1bd3c7e1e85ed2dfbf91fcc2905b8327d9a6279d9dbb"),
    3333: ("2a5cbc0d047e0367e0f6356536ba806d75ead13e1369eebac1751eeb6c8bae1d",
           "6ff4adb425db13e4d6e46001731addcf8148a1d5732edde03cc1798db082fb46"),
}


@pytest.mark.parametrize("seed", sorted(DUMP_GEODESIC_SHA256))
def test_dump_geodesic_bytes_are_pinned(tmp_path, seed):
    res = _invoke(["dump-geodesic", "--n", "40", "--seed", str(seed),
                   "--out", str(tmp_path)])
    assert res.exit_code == 0
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("dump_geodesic.csv",
                             "dump_geodesic_summary.json"))
    assert got == DUMP_GEODESIC_SHA256[seed]


# SHA-256 of the CSV and summary of three exact experiments, recorded
# from the implementation that ran one full DP per avoided site, four
# full forward tables per sandwich replica and a separate expectation
# per influence and per variance term
EXACT_COMMANDS = {
    "sandwich": ["--p", "0.3", "--v", "40", "40", "--s", "0.2",
                 "--replicas", "12"],
    "influence-map": ["--p", "0.7", "--n", "3", "--replicas", "30",
                      "--i-max", "10"],
    "bks-verify": ["--m", "5", "--p", "0.3", "--t", "0.7", "--trials", "20"],
}
EXACT_SHA256 = {
    ("sandwich", 13): (
        "e302bc0c0ec1eeb8c00e4ffa53e0dc6576c1613c70585b4a7df4c8c041c4dfc9",
        "d73633634e066e886874d2896a7859b2da30521cb6f71c3324b50a60da95c95b"),
    ("sandwich", 808): (
        "79d19bda765118d77f48752e74c1138c80bd3a93f7c3ac045e5b862c0b60e702",
        "5a557f3eb97ab3e31f86d312a74cfba0b286a397f8caab9528b7790cea7a1baf"),
    ("sandwich", 31337): (
        "d53da75c461e0ce83517dec4275ecd98f21ac5585c4ab81272405a98cdc0b3fb",
        "893bf8eb4df11cc5c18b9a94a9b08ae5c7ccb4e83fde9761e162827da1b91988"),
    ("influence-map", 13): (
        "1b93123ff51e8ce8d78e64fbc358b85083f98de93b32c755efd9b1641e4ad328",
        "f52c1badaa765b9f38fd0396016d7ad8ab19621d07a980beb003d624ebc66348"),
    ("influence-map", 808): (
        "44dae077dad85561ca9d81695bcba4582a36a60b429a624cd49ad2c759cc1c45",
        "4c27d28723fdacbfef71cb127d5adf07cf79dae95abab011bcc7de1ee246f75b"),
    ("influence-map", 31337): (
        "adc12433a98e43e5d893da8b77daf21428bfdb61d8203ec0f20c2c457d0bcde9",
        "3ee5867813c38eefa45a859fc76bdacc083846c3715b5dde9458551399f8bcc8"),
    ("bks-verify", 13): (
        "a0d3782b1bbe03bca0e059e75ca6091c9be8e6555a065618e9e23b8bc72f82d5",
        "fe39b7fe438da1a22132d542b32ee61b0b000439623ce4d3a25bbf28350a01af"),
    ("bks-verify", 808): (
        "f29fa6bf6c733b0b3e8ee996638e9e278df9ebfa20b569165a69d6a41a2282ca",
        "5fef9c941f13535a2f53175b5a37fa5084e84a21e05783a1b09896ac24a367e4"),
    ("bks-verify", 31337): (
        "1251c8228e51088f4f4b2616db8d3d564cd5b9b25e8a097fb5ae48b9f59270dc",
        "946cc47c8a6d22504ef15250856747c062c14b430f796e1341d04027cc027b1c"),
}


@pytest.mark.parametrize("name,seed", sorted(EXACT_SHA256))
def test_exact_experiment_bytes_are_pinned(tmp_path, name, seed):
    res = _invoke([name, *EXACT_COMMANDS[name], "--seed", str(seed),
                   "--out", str(tmp_path)])
    assert res.exit_code == 0
    stem = name.replace("-", "_")
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in (f"{stem}.csv", f"{stem}_summary.json"))
    assert got == EXACT_SHA256[name, seed]


# SHA-256 of the CSV and summary of the walk and noise experiments,
# recorded from the implementation that turned every walk step into a
# double for a float search and every Exp(1) clock into -log1p(-U)
DRAW_COMMANDS = {
    "rw-bound-pm1": ["rw-bound", "--value", "-1", "--prob", "0.45", "--value",
                     "1", "--prob", "0.55", "--steps", "16", "--steps", "300",
                     "--replicas", "1500"],
    "rw-bound-m2-0-3": ["rw-bound", "--value", "-2", "--prob", "0.4",
                        "--value", "0", "--prob", "0.3", "--value", "3",
                        "--prob", "0.3", "--steps", "20", "--steps", "400",
                        "--replicas", "1500"],
    # unsorted and repeated step counts; N <= 24 fills the exact column
    "rw-bound-pm1-unsorted": ["rw-bound", "--value", "-1", "--prob", "0.5",
                              "--value", "1", "--prob", "0.5", "--steps",
                              "1000", "--steps", "10", "--steps", "1000",
                              "--steps", "1", "--replicas", "600"],
    "rw-bound-m2-0-3-unsorted": ["rw-bound", "--value", "-2", "--prob",
                                 "0.35", "--value", "0", "--prob", "0.3",
                                 "--value", "3", "--prob", "0.35", "--steps",
                                 "1000", "--steps", "10", "--steps", "1000",
                                 "--steps", "1", "--replicas", "600"],
    "corr-decay-bit": ["corr-decay", "--p", "0.3", "--n", "12", "--t", "0",
                       "--t", "0.25", "--t", "4", "--kind", "bit",
                       "--replicas", "30"],
    "corr-decay-site": ["corr-decay", "--p", "0.3", "--n", "12", "--t", "0",
                        "--t", "0.25", "--t", "4", "--kind", "site",
                        "--replicas", "30"],
    "noise-compare": ["noise-compare", "--p", "0.4", "--n", "10", "--t", "0.2",
                      "--replicas", "30"],
}
DRAW_SHA256 = {
    ("rw-bound-pm1", 17): (
        "f6cdcda830736088ba31350caccfc309f941d6a4076ea401228d851938ad08e0",
        "1a2251c99bc8445ac1382b14b552f79550b2c1a376d9f399b1a19713021f8cf9"),
    ("rw-bound-pm1", 404): (
        "70854c12c9f95614964a9ee3ca9d73ff2bfdb5630582c2d09a3effedb783c1e6",
        "7a5f2ba3a3907cdcfcd75d6de91d1a592bee09c4be2d8c84d2f6ead6537e7226"),
    ("rw-bound-pm1", 65537): (
        "c45ed0fc388c1f30acb16aea9bf68fd393bc4882c598d88c539d064a01f7ec12",
        "62b5bcc95242911f4ceee918883dd7401cb17283fc7c99241d1816d38cf200d5"),
    ("rw-bound-m2-0-3", 17): (
        "62c5eb0b436d5572097e6a7702bdf013da93d5fa8963508a7a64fe8091494579",
        "432b15672c46a0b95f64aa2045c4895e4d74e35a7254dd0e48d6014e56928ab5"),
    ("rw-bound-m2-0-3", 404): (
        "6e912aa314c05bcbe0e2e25b234c4d70882b45b2b05c40c7c8e29ceb392846a3",
        "f525b3a8ef9a315cc84a8a9cfab27a2b98485693888c6deff928c453fda309e6"),
    ("rw-bound-m2-0-3", 65537): (
        "0085cf82a80d8778b389085f76a4216fc3a31b56af5a94ac2c3817a0ebf6926c",
        "ac76208f2a299f49d75e4784deb4ef3ef78af682ae8aa72234d638acad434bc6"),
    ("rw-bound-pm1-unsorted", 5): (
        "ca074e580398cff11f2aa73ee8f904762a95701b43f06ccd414558f210395e9b",
        "367f65d1894368f86339e3e6b2e077d31eed22480069cdcfdf3974a34208eab6"),
    ("rw-bound-pm1-unsorted", 606): (
        "b3eb8d5c63618ea5c99a432aa6e27ac570ad58e3bc1e54e81c6d366ce26cdc3c",
        "381866748a03a8498716cad97732ba36aa970d6d488a8e7a836c731652c6c86c"),
    ("rw-bound-pm1-unsorted", 70707): (
        "d5d34550173a7b7d0b19e2ef3a8e11de1535444ea0949b426870257c4c18c58a",
        "62f4b21a707f2f3f5afb0bf6ce344117b4e3972372c46f9cccf8f79a1ee56138"),
    ("rw-bound-m2-0-3-unsorted", 5): (
        "e2bf32bf9fc600954409b1e6377b63a19887b502702972b823a88eb87aaf2454",
        "cdca29c9d30ec3982ccbc38307e40ffee7bcb5dcb88b4c4ee4906844ec888328"),
    ("rw-bound-m2-0-3-unsorted", 606): (
        "cfb4d5272db53957de4e2b835f9e90faa28d9558f2d450567807ed679bcfb8b7",
        "23bfd3831876903afbb55f29281cceb13c58f2a01df3c66e9918d10cb25bc456"),
    ("rw-bound-m2-0-3-unsorted", 70707): (
        "a2bd831a59d08c19ed0c234c564efd079e96dbcf148a13511285b78a8c7e7592",
        "dc3f84e689f8088b92f934b33dc05e72cc756395c25ff6693c4ce220b2611671"),
    ("corr-decay-bit", 17): (
        "8be855efa369bcc1488db076cc3fbd4c8921d5d9ffb5df8a3b1655b4210e7550",
        "7165b3d4e858d0a823f13bfe2f33fda940f860f25f65e52046bf8ee502c2643c"),
    ("corr-decay-bit", 404): (
        "4b573474f4a89685b11000aecedef1b7e8be95841222e6de44cdae488bb2775f",
        "b8a781582d3ac7735f2a95eb618c7b8cf5f3fed8f8699602e46a936417e019c4"),
    ("corr-decay-bit", 65537): (
        "6e25a03c167d9caf760d618fd6c912ac8ac5964b73dfe67cad79967b8e055b05",
        "28b691f8afa0edcbb2bdbd6efe776dedc6855b32c16e6e4b14229d25983c9e13"),
    ("corr-decay-site", 17): (
        "a52fa40e479506a1f2ec7d1583daa3d692e777c2d3f6110207c1d61221b35efb",
        "f278ca037a8fbc7760c508a7076373fc93451808c4e10238db52c587d039029b"),
    ("corr-decay-site", 404): (
        "99bdd722680c78180c0fdee6886093cb1ef3f41c560d78fdbe77892acc46a9e3",
        "447a9bcf43e383d36df979a4e20d489b4d96c2ab42c2ea5d17c6f0c2d95292fa"),
    ("corr-decay-site", 65537): (
        "3a980fcd3f2094efac4ab23dda21bca7361217723c927f9822d3ce8273e47504",
        "9288dcf78eb10dbbcfbf66fef520a7505e0824b3737b3430790b360a35060cfd"),
    ("noise-compare", 17): (
        "7bf21f4325e1b019c8eb33cdcd8ee95517b3e7947a7d55c06863188b8fd9f030",
        "9a65ff8cde24af8a442a415476ae5fbb831899bbb5e7a516821a3a6ace77200c"),
    ("noise-compare", 404): (
        "6ab77207428db7cb396a41c0ed4cb64818607b5de785b3a55e01acf300f0d8b7",
        "e802e789983be20d65e5d07b2b0f5594935589501d4a9895edf88d28eb7a0458"),
    ("noise-compare", 65537): (
        "b866ea09b875b8a6b783b3a17642b2967a63345b58dadeb62065b81b7d65dd39",
        "ff5ae8578b84a5fee587368755798d5ea89849045e90c5e7ba3a7bf7167a7879"),
}


@pytest.mark.parametrize("config,seed", sorted(DRAW_SHA256))
def test_draw_experiment_bytes_are_pinned(tmp_path, config, seed):
    args = DRAW_COMMANDS[config]
    res = _invoke([*args, "--seed", str(seed), "--out", str(tmp_path)])
    assert res.exit_code == 0
    stem = args[0].replace("-", "_")
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in (f"{stem}.csv", f"{stem}_summary.json"))
    assert got == DRAW_SHA256[config, seed]


# SHA-256 of the CSV and summary of the grouped-replica experiments,
# recorded from the implementation that wrote each estimator's replica
# loop out by hand
LOOP_COMMANDS = {
    "variance-scaling": ["--p", "0.3", "--n", "6", "--n", "10", "--n", "15",
                         "--replicas", "16"],
    "transversal": ["--p", "0.7", "--n", "6", "--n", "10", "--n", "15",
                    "--replicas", "16", "--envelope-width", "0",
                    "--envelope-width", "2"],
    "geodesic-heatmap": ["--p", "0.4", "--n", "12", "--replicas", "9"],
}
LOOP_SHA256 = {
    ("variance-scaling", 5): (
        "0faac8d26b14992bea05878ba495125fba29e3094e25449ec5d91c8de81af12a",
        "adc634de02661fe4e325d3c422d4fd3aceea851f201b7ec4ab71b01f9b12b75a"),
    ("variance-scaling", 606): (
        "1b9e6adbf299405113ea5b95dd772424573864d04143c727d1bb4ae013d3fb7e",
        "7198b0e1516bff6e4de0a8ca0244ab72c728759ef709d80955793e547c16eccc"),
    ("variance-scaling", 70707): (
        "fe63aefc1f7202d67446dee43b8575299d614094d6b39147e3413fb3c3211d6a",
        "56221fd78c5d4ca751145e8a7f5fa5ece4d6732a7cb8fdb0e9c93d720cae9dbb"),
    ("transversal", 5): (
        "aa3f81dead9c6a2250a4968ca64fdb6f46b8c6260b51dfcd2cdfa30ef359f2d9",
        "f80c55bfe4b6a0cfbe75c23f8f145f4a5ff074540fc7f88ad0a08055f5280b9b"),
    ("transversal", 606): (
        "c12a9dca94377816a77eba90bf7721214456cce7241d6ae8db24ad24580336d1",
        "3cef93f05ddd94fdccb6aa2345b95d3532bb58da3caf2a0dbd8f0f871078df76"),
    ("transversal", 70707): (
        "278e82e94280b28e008de4d91613384f367c4e48754f97f41e20361a4a0221dd",
        "aaf6642272ac15487e7f6ff9c67e1edf2ba3f909649333b4b685b10428adaa19"),
    ("geodesic-heatmap", 5): (
        "6e47e27ab7d01305da526fde0595ee7bef45e50bbf55eff3c04f4454c4ef785a",
        "fbc1581cc858ece916030ddce47389cc90f58090edc9f66c2ee339faf8d38377"),
    ("geodesic-heatmap", 606): (
        "1a229e31228d514628bc6b01111bdac38c4517305fcc2db3fe0ae0e4bc7eced7",
        "d73c1fa2e3d2392139b4ed4222f9f1a3631adb8c9bc2bb535a1884d5823243b0"),
    ("geodesic-heatmap", 70707): (
        "1ce4b4d0a5a8ccff404d2f897f63568253b56a1f217502db05b664906e9c5f57",
        "9ad4efb1678d794684047dc93afe7793cc12ea0a353d3265bc8445d334c2862c"),
}


@pytest.mark.parametrize("name,seed", sorted(LOOP_SHA256))
def test_replica_loop_experiment_bytes_are_pinned(tmp_path, name, seed):
    res = _invoke([name, *LOOP_COMMANDS[name], "--seed", str(seed),
                   "--out", str(tmp_path)])
    assert res.exit_code == 0
    stem = name.replace("-", "_")
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in (f"{stem}.csv", f"{stem}_summary.json"))
    assert got == LOOP_SHA256[name, seed]


# SHA-256 of the CSV and summary of a 101 x 101 heatmap, whose 10,201 rows
# span two CSV chunks, recorded from the writer that passed each chunk to
# csv.writerows
TWO_CHUNK_HEATMAP_SHA256 = {
    5: ("7547b40083c0fdc2db0b5ec4f9835bc6a0df84ffaeb05b46d49aae7c51e52bc0",
        "11f567ffe5bdf63cd180f6016c63fbc417289df1acdb408894ac3c2790d417a2"),
    606: ("57a7bf2e47da2d775f6f8a850f626ebd748db41ba2472442234aaa01233c0778",
          "456700967f9a95567aa9106516f5fe62ddd6973ecd5cf8a7341b17fa92c8ef7e"),
    70707: (
        "57b48e059e133036caf9c34c40de0ef54ab3c35de96c757867cbecdc186559bf",
        "de760f2834869a1523e40c0f417eb778af234b5acfe69160328773696d536aa0"),
}


@pytest.mark.parametrize("seed", sorted(TWO_CHUNK_HEATMAP_SHA256))
def test_two_chunk_heatmap_bytes_are_pinned(tmp_path, seed):
    res = _invoke(["geodesic-heatmap", "--n", "100", "--replicas", "2",
                   "--seed", str(seed), "--out", str(tmp_path)])
    assert res.exit_code == 0
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("geodesic_heatmap.csv",
                          "geodesic_heatmap_summary.json"))
    assert got == TWO_CHUNK_HEATMAP_SHA256[seed]


# SHA-256 of the CSV and summary of geodesic-set statistics on fields of
# 257 x 257 sites, which one decode cuts into two strips, recorded from
# the implementation that built fresh forward, backward and F + B tables
# for each field and a full grid of envelope margins
TWO_STRIP_COMMANDS = {
    "transversal": ["--p", "0.5", "--n", "64", "--n", "128", "--n", "256",
                    "--replicas", "16", "--envelope-width", "0",
                    "--envelope-width", "8"],
    "geodesic-heatmap": ["--p", "0.5", "--n", "256", "--replicas", "2"],
}
TWO_STRIP_SHA256 = {
    ("transversal", 5): (
        "8b761f341560ee9e436908067c8dd798541af887c9671177b903be0a13c7e99d",
        "becde7eacf75bb7fa3a757656611acf82acd0edae0b992f4c6638eedd5af006d"),
    ("transversal", 606): (
        "8eacb051de63ae65d7bd148c506ac648e4540897fe51884710d36a0c91308e60",
        "689cecfb3b9afe243132c8f788e04396454f3b0b427ed8d27e36b8c1ed9301d5"),
    ("transversal", 70707): (
        "31d5e4dac89df5ce7f720d1ab8fe287fe51191e03a3af2dc1116d779608a3d29",
        "a04b49fd40f7173c221ae449b8ee68fe3c1448da56296d177ca97108f801b205"),
    ("geodesic-heatmap", 5): (
        "ee39713aa0b6613ea22a73ec43014df1c5b3f0aaf021b21cd1d327abbc9da6c0",
        "ebf49a361f5cb0e0883650d446ee692146aec12ff6f48373fd156cb8d5820337"),
    ("geodesic-heatmap", 606): (
        "a5f086282af728e2ff9dedbbfe56a7c7c0f8c1846e9751c418cc8ba35a2adb62",
        "8fae52a7a7dc54f002b8dbc4adfd81d9a4205016aefc6015b29b95c813e2272d"),
    ("geodesic-heatmap", 70707): (
        "65396310111290e3cd7664c0980cf7e328981c954bc6f4f9e24ebe1af19a5f50",
        "59e0f0c582b455be4a0b8147a6358c44b60fc797f44f43dde98e3896f175a982"),
}


@pytest.mark.parametrize("name,seed", sorted(TWO_STRIP_SHA256))
def test_two_strip_geodesic_set_bytes_are_pinned(tmp_path, name, seed):
    res = _invoke([name, *TWO_STRIP_COMMANDS[name], "--seed", str(seed),
                   "--out", str(tmp_path)])
    assert res.exit_code == 0
    stem = name.replace("-", "_")
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in (f"{stem}.csv", f"{stem}_summary.json"))
    assert got == TWO_STRIP_SHA256[name, seed]


# SHA-256 of the CSV and summary of the field and stationary dumps and
# the stationary checks, recorded from the implementation that joined
# each whole CSV table in memory before writing it
DUMP_COMMANDS = {
    "dump-field": ["--p", "0.3", "--lo", "-3", "2", "--hi", "9", "14",
                   "--t", "0.7", "--kind", "site"],
    "dump-stationary": ["--p", "0.4", "--lam", "0.35", "--rows", "20",
                        "--cols", "30"],
    "stationary-checks": ["--p", "0.6", "--lam", "0.3", "--rows", "40",
                          "--cols", "40", "--gof-samples", "2000"],
}
DUMP_SHA256 = {
    ("dump-field", 5): (
        "b7b8dca9eadaf473c0ccc9a5544aa3bd0e68e95100297ab012c69cc32147fb59",
        "6fd385e832cdbc35d461844203b4d258d2362e5c8bd2651a31c45fb174f52a68"),
    ("dump-field", 606): (
        "43a0ea8e8620f54400245becfeca942b52ddfa70ae969594fc27229414a87526",
        "88c047667c8181f685d57496f050ca267fda41248050659d3e025fabd3e9cc80"),
    ("dump-field", 70707): (
        "45c88b76d9d78db16fcd811d32b09e68f170cbf3afdb8a0c49d4c858e4f8f088",
        "51a499e63f822293a831cdf3a38970254cea53c1ea75aeb1841b31cf0ba7b9d5"),
    ("dump-stationary", 5): (
        "70bc174f7ad34574134fb9a6a104ffa25fedddba37444e778db3e8eedd5f7521",
        "0dce783dfb7a806df1f50339e71879c7e4b1d54094ada87ce0733336c0487f22"),
    ("dump-stationary", 606): (
        "9ce39780ade80065d9333dfb248a89c92e29743063090fec62fdecbb99d09bc8",
        "475010ebd3b3523d1b381bb6bb07483112f2921351a1cdec852244de3729631a"),
    ("dump-stationary", 70707): (
        "8bb3453f233a50da3834ea4eb6a9884efb40d5639ed353ad21fa8ada6746da67",
        "bc0f9073ce66f967f18e38c4fc9754d38c1d71e8373a7cab7d20eb17fee59f77"),
    ("stationary-checks", 5): (
        "6e67f41716b835fdf1c0ad13275bd263c70c432e2b6b5782f7bfb5c6d083447f",
        "b483a0de5ce32ac33e86cdbb54053b3efb026944d866acc8355b8bbf18780756"),
    ("stationary-checks", 606): (
        "f85c99cf6d95afac47a52af1c6d016b6e56ef3e4b701138bb221a715c9f437ec",
        "31e14e1b059cce3d62472388482d9fa755224e6b9ff7ad3183341a95115ead56"),
    ("stationary-checks", 70707): (
        "3f339b8b136f17c569116f4327d5da67736e8e8e52aa7e188e973c1a65b06fa0",
        "8bd9e9f7aedf9d71ce4fc1534f721eca9f81a21edb65691c5ca830032d8a7289"),
}


@pytest.mark.parametrize("name,seed", sorted(DUMP_SHA256))
def test_dump_and_stationary_bytes_are_pinned(tmp_path, name, seed):
    res = _invoke([name, *DUMP_COMMANDS[name], "--seed", str(seed),
                   "--out", str(tmp_path)])
    assert res.exit_code == 0
    stem = name.replace("-", "_")
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in (f"{stem}.csv", f"{stem}_summary.json"))
    assert got == DUMP_SHA256[name, seed]


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


def test_stationary_checks_in_fresh_interpreter(tmp_path):
    proc = _fresh_python(
        "from lppnoise.cli import main; main(prog_name='lppnoise')",
        "stationary-checks", "--lam", "0.3", "--rows", "3", "--cols", "4",
        "--gof-samples", "500", "--seed", "5", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "stationary_checks.csv").exists()
