"""The byte-contract corpus: SHA-256 digests of every output file of
pinned command lines, per seed, kept in ``byte_pins.json``.

Each entry names the ``test`` in ``test_cli.py`` that checks it and a
``label`` unique within that test, and has the ``argv`` (starting with
the experiment name, or ``run`` plus a ``config`` object for a batch), a
one-line provenance ``note`` and ``seeds``: seed -> {output file name ->
SHA-256}. ``manifest.json`` holds timestamps and is not pinned.

Running this file recomputes every entry with the ``lppnoise`` on the
import path and rewrites the corpus (sorted keys, indent 2, trailing
newline), so an unchanged tree leaves it byte-identical::

    PYTHONPATH=<tree>/src python3 tests/byte_pins.py

To pin a new command line, add its entry with empty digest maps
(``"seeds": {"5": {}, ...}``) and run this on the parent tree; a new
``test`` name needs its function in ``test_cli.py``.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from lppnoise.cli import main

CORPUS = Path(__file__).with_name("byte_pins.json")


def load() -> list[dict]:
    entries = json.loads(CORPUS.read_text())
    keys = [(e["test"], e["label"]) for e in entries]
    if len(set(keys)) != len(keys):
        raise ValueError(f"{CORPUS.name}: labels are not unique per test")
    return entries


def command(entry: dict, seed: str, tmp: Path) -> list[str]:
    """The argv of one pinned run, writing into ``tmp / "out"``; a
    batch's config is written to ``tmp / "config.json"``."""
    argv = list(entry["argv"])
    if "config" in entry:
        config = tmp / "config.json"
        config.write_text(json.dumps(entry["config"]))
        argv += ["--config", str(config)]
    return argv + ["--seed", seed, "--out", str(tmp / "out")]


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file in ``out_dir`` but ``manifest.json``."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())
            if path.name != "manifest.json"}


def record() -> None:
    entries = load()
    for entry in entries:
        for seed in entry["seeds"]:
            with tempfile.TemporaryDirectory() as tmp:
                argv = command(entry, seed, Path(tmp))
                res = CliRunner().invoke(main, argv, catch_exceptions=False)
                if res.exit_code != 0:
                    sys.exit(f"{entry['test']}[{entry['label']}] at seed "
                             f"{seed} exited {res.exit_code}: {res.output}")
                entry["seeds"][seed] = digests(Path(tmp) / "out")
    CORPUS.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
