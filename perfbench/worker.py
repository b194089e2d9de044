"""Benchmark passes in one fresh interpreter: import lppnoise.cli, then
run one ``lppnoise run`` batch again and again in-process through
``lppnoise.cli.main``.

    python3 perfbench/worker.py CONFIG RUN_DIR DEADLINE MIN_PASSES TRACE
    python3 perfbench/worker.py --import-only

Pass k writes its CSVs to RUN_DIR/pass<k>.  Passes go on until MIN_PASSES
have run and the next one, as long as the last, would end after DEADLINE
(a CLOCK_MONOTONIC reading).  With TRACE 1 every odd pass is traced (see
spans.py) and its spans are written to RUN_DIR/spans<k>.json once, after
the pass.

A fixed probe (``probe``) is timed after each pass; a pass's ``probe_s``
is the mean of the probes on either side of it, so the harness can tell
how fast the machine ran during that pass.

Stdout is JSON lines, one per pass: its wall and CPU seconds, its probe
time, the CLI's exit code, whether it raised, and the process's peak RSS
so far.  The CLI's own output is kept off stdout.  With ``--import-only``
the one line holds the CLOCK_MONOTONIC reading right after the import
(the harness took one just before starting the process) and a probe
timed after it.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_PROBE_ARRAYS = []


def _probe_once(np) -> float:
    if not _PROBE_ARRAYS:
        x = (np.arange(300_000) * 7919 % 300_001).astype(np.float64)
        _PROBE_ARRAYS.extend((x, np.empty_like(x), np.empty_like(x)))
    x, buf, out = _PROBE_ARRAYS
    t0 = _clock()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    np.copyto(buf, x)
    buf.sort()
    np.cumsum(buf, out=out)
    return _clock() - t0


def probe() -> float:
    """Seconds for a fixed piece of work that does not use lppnoise: a
    pure-Python loop, then a numpy sort and cumsum of 300k doubles.  The
    median of three, so that a burst on the host during one of them does
    not count."""
    import numpy as np
    return statistics.median(_probe_once(np) for _ in range(3))


def _emit(obj: dict) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def run_pass(main, config: str, out_dir: str) -> dict:
    """One batch; its timings, exit code and any traceback."""
    log = io.StringIO()
    cpu0, t0 = time.process_time(), _clock()
    error = ""
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            main(["run", "--config", config, "--out", out_dir],
                 standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    except Exception:
        code, error = 1, traceback.format_exc()
    wall_s, cpu_s = _clock() - t0, time.process_time() - cpu0
    if "Traceback" in log.getvalue():
        error = error or log.getvalue()
    return {"wall_s": wall_s, "cpu_s": cpu_s, "exit_code": code,
            "error": error[-4000:],
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main(argv: list[str]) -> int:
    import lppnoise.cli as cli
    imported_at = _clock()
    if argv[1:] == ["--import-only"]:
        _emit({"imported_at": imported_at, "probe_s": probe()})
        return 0
    config, run_dir = argv[1], argv[2]
    deadline, min_passes, trace = float(argv[3]), int(argv[4]), argv[5] == "1"
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        traced_main = tracer.wrap(cli.main, spans.ROOT_SPAN, "worker")
    # no probe before the warm-up, so its peak RSS is the batch's alone
    k, last, before = 0, 0.0, None
    while k < min_passes or _clock() + last <= deadline:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        p = run_pass(traced_main if traced else cli.main, config,
                     os.path.join(run_dir, f"pass{k}"))
        if traced:
            tracer.uninstall()
            with open(os.path.join(run_dir, f"spans{k}.json"), "w") as fh:
                json.dump(tracer.spans, fh)
            tracer.spans.clear()
        after = probe()
        probe_s = after if before is None else (before + after) / 2
        _emit({"pass": k, "traced": traced, "probe_s": probe_s, **p})
        before = after
        k, last = k + 1, p["wall_s"]
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
