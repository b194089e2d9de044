"""Self-tests of the benchmark harness, on a tiny batch that touches
every layer.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans

TINY = [
    {"name": "corr-decay",
     "params": {"p": 0.5, "n": 10, "t_values": [0.0, 0.5], "kind": "SITE",
                "replicas": 30}},
    {"name": "noise-compare",
     "params": {"p": 0.5, "n": 10, "t": 0.2, "replicas": 30}},
    {"name": "transversal",
     "params": {"p": 0.5, "n_list": [8, 16, 32], "replicas": 4, "n_boot": 10}},
    {"name": "rw-bound",
     "params": {"values": [-1, 1], "probs": [0.5, 0.5], "n_steps": [50],
                "replicas": 200}},
    {"name": "bks-verify", "params": {"m": 3, "p": 0.5, "t": 0.5, "trials": 3}},
    {"name": "sandwich",
     "params": {"p": 0.5, "v": [20, 20], "s": 0.1, "replicas": 4}},
]
SEED = 5


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs on one seed, the first run's traced pass and its spans."""
    first = run.run_workload(TINY, SEED, 0, True, min_passes=3)
    traced = next(p for p in first["passes"] if p["traced"])
    with open(os.path.join(run.RUN_DIR, f"spans{traced['pass']}.json")) as fh:
        first_spans = json.load(fh)
    second = run.run_workload(TINY, SEED, 0, True, min_passes=3)
    return first, second, traced, first_spans


def test_benchmark_json_matches_reported_metrics(traced_runs):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    first = traced_runs[0]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(
        run.summarize(first, True)[1])
    plain = dict(first, passes=[p for p in first["passes"] if not p["traced"]])
    assert sorted(m["name"] for m in bench["end_to_end"]) == sorted(
        run.summarize(plain, False)[1])


def test_corrupted_reference_fails_every_pass():
    good = run.run_workload(TINY, SEED, 0, False, min_passes=2)
    assert len(good["setups"]) == run.SETUP_SAMPLES
    assert run.summarize(good, False)[1]["ok_frac"] == 1.0
    reference = dict(good["passes"][0]["digests"])
    name = sorted(reference)[0]
    reference[name] = "0" * 64
    bad = run.run_workload(TINY, SEED, 0, False, reference, min_passes=2)
    correct, values = run.summarize(bad, False)
    assert not correct
    assert values["ok_frac"] == 0.0          # failed_frac == 1


def test_worker_out_of_time_is_killed_and_failed(monkeypatch):
    monkeypatch.setattr(run, "RUN_BUDGET_S", 0.2)
    slow = run.run_workload(TINY, SEED, 0, True)
    (p,) = slow["passes"]
    assert not p["ok"] and p["error"].startswith("timeout")
    correct, values = run.summarize(slow, False)
    assert not correct and values["ok_frac"] == 0.0


def test_uninstall_restores_every_function(monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    import lppnoise.estimators as estimators
    before = dict(vars(estimators))
    tracer = spans.Tracer()
    tracer.install()
    assert estimators.weights is not before["weights"]
    tracer.uninstall()
    assert dict(vars(estimators)) == before


def test_traced_runs_repeat_exact_counters(traced_runs):
    first, second, _, _ = traced_runs
    a, b = (run.summarize(r, True) for r in (first, second))
    assert a[0] and b[0]
    for name in spans.EXACT:
        assert a[1][name] == b[1][name], name
    assert a[1]["rng.draws"] > 0 and a[1]["lpp.dp_cells"] > 0


def test_self_times_add_up_to_traced_wall(traced_runs):
    _, _, traced, first_spans = traced_runs
    root = [s for s in first_spans if s[4] == -1]
    assert [s[0] for s in root] == [spans.ROOT_SPAN]
    root_s = root[0][3] - root[0][2]
    layers = {}
    for s, own in zip(first_spans, spans.self_times(first_spans)):
        layer = s[0].partition(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    assert set(layers) <= set(spans.LAYERS)
    assert sum(layers.values()) == pytest.approx(root_s, rel=1e-9)
    assert layers["cli"] == pytest.approx(traced["layers"]["cli.self_s"])
    # the worker's wall clock brackets the root span
    assert 0.0 <= traced["wall_s"] - root_s < 0.01


def test_refuses_to_run_without_sources():
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walks", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
