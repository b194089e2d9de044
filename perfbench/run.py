"""End-to-end and per-layer benchmark of the lppnoise CLI experiments.

Run from the root of a checkout:

    python3 perfbench/run.py --workload noise --seed 1 --seconds 30 --trace 0

Set-up is timed in SETUP_SAMPLES fresh interpreters (worker.py), each
from process start to ``lppnoise.cli`` imported.  Then one more worker
runs one ``lppnoise run --config ...`` batch again and again in-process
through ``lppnoise.cli.main``, with the CLI default ``--threads 1``.  The
first pass is a warm-up; passes repeat until the next one would end
after ``--seconds`` from the start of the run, with at least MIN_PASSES.
The config is generated here from ``--seed``; sizes are fixed, so only
the random fields change with the seed.

Each pass is checked: it must exit 0 without a traceback and write CSVs
whose SHA-256 digests equal reference.json at the default seed, or equal
the run's first pass at any other seed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of the
set-up samples), ``wall_s`` (median batch time over the passes after the
warm-up), ``peak_rss_mb`` (peak RSS of the worker after its first pass)
and ``ok_frac`` (passes that passed the check over passes attempted).
Set-up and batch times are scaled to a fixed machine speed by a probe
timed next to each sample (``_scaled``).  ``--trace 1`` skips the extra
set-up samples, alternates untraced and traced passes and reports the
per-layer metrics of spans.py, medians over traced passes, plus
``trace.overhead_s`` (traced minus untraced median wall).

The last stdout line is the result object; the line before it records
the environment.  ``--workload all`` runs every workload in turn and
prints the two lines for each.  Everything a run writes goes to
.perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
RUN_DIR = os.path.join(WORK, "run")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE_FILE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1
MIN_PASSES = 4         # the first is a warm-up: checked, not timed
SETUP_SAMPLES = 5      # imports of lppnoise.cli timed per untraced run
# worker.probe's time on the machine described in README.md when it ran at
# full speed; set-up and pass times are reported at that speed (_scaled).
PROBE_REF_S = 0.017
RUN_BUDGET_S = 170     # a run must end within 180 s, even if a pass hangs
# One BLAS/OpenMP thread, so the bootstrap's polyfit adds no threads.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
               "VECLIB_MAXIMUM_THREADS": "1"}

# Sizes fit a pass of a few seconds on 2 cores; replica counts for
# corr-decay and noise-compare are the CLI's minimum of 30.
WORKLOADS = {
    "noise": [
        {"name": "corr-decay",
         "params": {"p": 0.5, "n": 200, "t_values": [0.0, 0.25, 1.0, 4.0],
                    "kind": "BIT", "replicas": 30}},
        {"name": "corr-decay",
         "params": {"p": 0.5, "n": 200, "t_values": [0.0, 0.25, 1.0, 4.0],
                    "kind": "SITE", "replicas": 30}},
        {"name": "noise-compare",
         "params": {"p": 0.5, "n": 100, "t": 0.2, "replicas": 30}},
    ],
    "geodesics": [
        {"name": "transversal",
         "params": {"p": 0.5, "n_list": [64, 128, 256, 512], "replicas": 10,
                    "n_boot": 200, "envelope_widths": [0, 8, 32]}},
        {"name": "geodesic-heatmap",
         "params": {"p": 0.5, "n": 400, "replicas": 5}},
    ],
    "walks": [
        {"name": "rw-bound",
         "params": {"values": values, "probs": probs,
                    "n_steps": [100, 1000, 10000], "replicas": 1000}}
        for values, probs in (([-1, 1], [0.5, 0.5]),
                              ([-1, 1], [0.475, 0.525]),
                              ([-2, 0, 3], [0.35, 0.3, 0.35]))
    ],
    # dump-stationary stands in for stationary-checks, whose two
    # chi-square checks at level 1e-3 fail on about one seed in 500.
    "exact": [
        {"name": "bks-verify",
         "params": {"m": 8, "p": 0.5, "t": 0.5, "trials": 200}},
        {"name": "bks-verify",
         "params": {"m": 10, "p": 0.3, "t": 1.0, "trials": 50}},
        {"name": "dump-stationary",
         "params": {"p": 0.5, "lam": 0.3, "rows": 150, "cols": 150}},
        {"name": "sandwich",
         "params": {"p": 0.5, "v": [200, 200], "s": 0.3, "replicas": 40}},
        {"name": "influence-map",
         "params": {"p": 0.5, "n": 32, "replicas": 60}},
    ],
}


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=WORK)
    env.update(THREAD_PINS)
    return env


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _csv_digests(out_dir: str) -> dict[str, str]:
    out = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            if name.endswith(".csv"):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_worker(args: list[str], timeout: float) -> tuple[list[dict], str]:
    """Run worker.py; its JSON lines and, if it failed, why.

    A worker still running after ``timeout`` seconds is killed."""
    out_path = os.path.join(RUN_DIR, "worker.out")
    with open(out_path, "w+") as out, open(out_path + ".err", "w+") as err:
        proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=out,
                                stderr=err, env=_child_env(), cwd=ROOT)
        try:
            code = proc.wait(timeout=max(timeout, 0.0))
            why = f"worker exit code {code}" if code else ""
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            why = f"timeout after {timeout:.0f} s"
        out.seek(0)
        lines = []
        for line in out:
            try:
                lines.append(json.loads(line))
            except ValueError:
                pass
        if why:
            err.seek(0)
            why += ": " + err.read()[-4000:]
    return lines, why


def _check_pass(rep: dict) -> dict:
    """A pass line of the worker with its CSV digests and, if traced, its
    per-layer metrics."""
    k = rep["pass"]
    out_dir = os.path.join(RUN_DIR, f"pass{k}")
    p = {"pass": k, "warmup": k == 0, "traced": rep["traced"],
         "wall_s": rep["wall_s"], "probe_s": rep["probe_s"],
         "cpu_s": rep["cpu_s"],
         "peak_rss_mb": rep["peak_rss_kb"] / 1024.0,
         "ok": rep["exit_code"] == 0 and not rep["error"],
         "digests": _csv_digests(out_dir)}
    if not p["ok"]:
        p["error"] = rep["error"] or f"exit code {rep['exit_code']}"
    if p["ok"] and p["traced"]:
        with open(os.path.join(RUN_DIR, f"spans{k}.json")) as fh:
            p["layers"] = spans.layer_metrics(json.load(fh), p["cpu_s"])
        p["layers"]["manifest.csv_bytes"] = sum(
            os.path.getsize(os.path.join(out_dir, name)) for name in p["digests"])
    return p


def run_workload(experiments: list, seed: int, seconds: float, trace: bool,
                 reference: dict | None = None,
                 min_passes: int | None = None) -> dict:
    """Time set-up and passes of one batch for ``seconds`` and check every pass.

    Untraced runs first start SETUP_SAMPLES interpreters that only import
    lppnoise.cli, each a ``setup_s`` sample; then one worker repeats the
    batch (see worker.py).  With ``reference`` (CSV name -> SHA-256) each
    pass must match it; without, each pass must match the first."""
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)
    config = os.path.join(RUN_DIR, "config.json")
    with open(config, "w") as fh:
        json.dump({"seed": seed, "experiments": experiments}, fh)
    start = _clock()
    setups: list[dict] = []
    passes: list[dict] = []
    for _ in range(0 if trace else SETUP_SAMPLES):
        started = _clock()
        lines, why = run_worker(["--import-only"],
                                RUN_BUDGET_S - (started - start))
        if why or not lines:
            passes.append({"ok": False, "traced": False, "warmup": False,
                           "digests": {}, "error": why or "no output"})
            break
        setups.append({"setup_s": lines[0]["imported_at"] - started,
                       "probe_s": lines[0]["probe_s"]})
    if not passes:
        started = _clock()
        lines, why = run_worker(
            [config, RUN_DIR, repr(start + seconds),
             str(min_passes or MIN_PASSES), str(int(trace))],
            RUN_BUDGET_S - (started - start))
        passes = [_check_pass(rep) for rep in lines]
        if why or not passes:   # the pass under way when the worker died
            passes.append({"ok": False, "traced": False, "warmup": False,
                           "digests": {}, "error": why or "no passes"})
    expected = reference if reference is not None else passes[0]["digests"]
    for p in passes:
        if p["ok"] and (not p["digests"] or p["digests"] != expected):
            p["ok"] = False
            p["error"] = "CSV digests differ from the expected ones"
    return {"setups": setups, "passes": passes}


def _scaled(seconds: float, timed: dict) -> float:
    """A time at the probe's reference speed; ``timed["probe_s"]`` is the
    probe's time measured next to it.

    On a shared host the CPU's speed drifts by a fifth or more within a
    minute, as neighbours load the same cores; the probe slows by about
    as much as the program does, so the ratio stays."""
    return seconds * PROBE_REF_S / timed["probe_s"]


def summarize(run: dict, trace: bool) -> tuple[bool, dict]:
    """(correct, metric values) of one run; warm-up passes are checked but
    not timed."""
    passes = run["passes"]
    ok = [p for p in passes if p["ok"]]
    timed = [p for p in ok if not p["warmup"]]
    correct = len(ok) == len(passes)
    if not trace:
        return correct, {
            "setup_s": _median(_scaled(s["setup_s"], s) for s in run["setups"]),
            "wall_s": _median(_scaled(p["wall_s"], p) for p in timed),
            # the peak only grows in a process: this is the first ok pass,
            # so the peak of a process that ran the batch once
            "peak_rss_mb": min((p["peak_rss_mb"] for p in ok), default=0.0),
            "ok_frac": len(ok) / len(passes)}
    layers = [p["layers"] for p in timed if p["traced"]]
    for name in spans.EXACT:
        if len({m[name] for m in layers}) > 1:
            correct = False
    values = {name: (value if name in spans.EXACT
                     else _median(m[name] for m in layers))
              for name, value in (layers[0].items() if layers else ())}
    values["trace.overhead_s"] = (
        _median(_scaled(p["wall_s"], p) for p in timed if p["traced"])
        - _median(_scaled(p["wall_s"], p) for p in timed if not p["traced"]))
    return correct, values


def environment(seed: int) -> dict:
    return {"python": platform.python_version(),
            **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(), "seed": seed,
            "thread_pins": THREAD_PINS}


def record_reference() -> None:
    """Write reference.json: CSV digests of every workload at the default seed."""
    ref = {}
    for name, experiments in WORKLOADS.items():
        (p,) = run_workload(experiments, DEFAULT_SEED, 0, False,
                            min_passes=1)["passes"]
        if not p["ok"]:
            raise SystemExit(f"{name}: reference pass failed: {p.get('error')}")
        ref[name] = p["digests"]
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report(name: str, seed: int, seconds: float, trace: bool,
           declared: list[dict]) -> None:
    """Run one workload; print its environment line, then its result line."""
    reference = None
    if seed == DEFAULT_SEED:
        with open(REFERENCE_FILE) as fh:
            reference = json.load(fh)[name]
    env = environment(seed)
    run = run_workload(WORKLOADS[name], seed, seconds, trace, reference)
    passes = run["passes"]
    correct, values = summarize(run, trace)
    env["loadavg_end"] = os.getloadavg()
    # a metric is missing only when every pass that gives it failed
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in declared}
    result = {"correct": correct, "attempted": len(passes),
              "failed": sum(not p["ok"] for p in passes), "metrics": metrics}
    with open(os.path.join(WORK, f"result-{name}.json"), "w") as fh:
        json.dump({"workload": name, "env": env, **run,
                   "result": result}, fh, indent=1)
    print(f"{name} setup: " + ", ".join(
        f"{s['setup_s']:.3f} s (probe {1e3 * s['probe_s']:.1f} ms)"
        for s in run["setups"]), file=sys.stderr)
    for k, p in enumerate(passes):
        status = "ok" if p["ok"] else "FAILED: " + p.get("error", "")
        kind = " warm-up" if p["warmup"] else " traced" if p["traced"] else ""
        print(f"{name} pass {k}{kind}: wall {p.get('wall_s', 0):.3f} s, "
              f"probe {1e3 * p.get('probe_s', 0):.1f} ms, "
              f"rss {p.get('peak_rss_mb', 0):.1f} MB, {status}", file=sys.stderr)
    print(json.dumps({"workload": name, "env": env}))
    print(json.dumps(result), flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from this checkout and exit")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lppnoise", "cli.py")):
        print(f"perfbench: {SRC}/lppnoise/cli.py not found; run from the "
              "root of an lppnoise checkout", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        report(name, args.seed, args.seconds, bool(args.trace),
               bench["per_layer" if args.trace else "end_to_end"])
    return 0

if __name__ == "__main__":
    sys.exit(main())
