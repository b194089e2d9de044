"""Byte-stable CSV/JSON writers and run bookkeeping."""

import csv
import io
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lppnoise import manifest
from lppnoise.manifest import (ExperimentRecord, RunManifest, format_cell,
                               write_csv_atomic, write_json_atomic)


def test_format_cell():
    assert format_cell(True) == "true" and format_cell(False) == "false"
    assert format_cell(3) == "3"
    assert format_cell(None) == ""
    assert format_cell(0.1) == "0.1"
    assert format_cell(1.0 / 3.0) == "0.333333333333"
    assert format_cell(1.5e-300) == "1.5e-300"
    assert format_cell("x") == "x"


def test_format_cell_numpy_scalars():
    assert format_cell(np.True_) == "true" and format_cell(np.False_) == "false"
    assert format_cell(np.int64(-3)) == "-3"
    assert format_cell(np.float64(-0.0)) == "-0"
    assert format_cell(float("nan")) == "nan"
    assert format_cell(float("-inf")) == "-inf"


def test_write_csv_atomic(tmp_path):
    path = str(tmp_path / "a.csv")
    n = write_csv_atomic(path, ["a", "b"], [(1, 2), (0.5, None)])
    assert n == 2 and type(n) is int
    with open(path, "rb") as fh:
        data = fh.read()
    assert data == b"a,b\n1,0.5\n2,\n"
    # same content, same bytes
    write_csv_atomic(path, ["a", "b"], [np.array([1, 2]), [0.5, None]])
    with open(path, "rb") as fh:
        assert fh.read() == data
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")] == []


def _per_row_reference(header, columns) -> str:
    """The per-cell writer the columnar one replaced."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([format_cell(c) for c in row])
    return buf.getvalue()


_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\n\r\'-0.')),
                max_size=6)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"),
                     5e-324, -2.2250738585072014e-308, 1e16, 2.0 ** 60,
                     -123456789012345678.0, 0.1]),
    # any bit pattern, NaN payloads and signs included
    st.integers(0, 2 ** 64 - 1).map(
        lambda b: float(np.uint64(b).view(np.float64))))
_INT64 = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                   st.sampled_from([-2 ** 63, -2 ** 63 + 1, -1, 0,
                                    2 ** 63 - 1]))
_SCALAR = st.one_of(
    st.integers(-2 ** 80, 2 ** 80), _FLOATS, st.booleans(), st.none(), _TEXT,
    _INT64.map(np.int64), _FLOATS.map(np.float64), st.booleans().map(np.bool_))


def _column(kind, n):
    """Strategy for one column of n cells of the given kind."""
    if kind == "int64":
        return st.lists(_INT64, min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64))
    if kind == "uint64":
        return st.lists(st.integers(0, 2 ** 64 - 1), min_size=n,
                        max_size=n).map(lambda v: np.array(v, dtype=np.uint64))
    if kind == "int8":
        return st.lists(st.integers(-128, 127), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int8))
    if kind == "float64":
        return st.lists(_FLOATS, min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.float64))
    if kind == "float32":
        return st.lists(st.floats(width=32), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.float32))
    if kind == "bool":
        return st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    if kind == "object":
        return st.lists(_SCALAR, min_size=n, max_size=n).map(
            lambda v: np.array(v + [None], dtype=object)[:n])
    if kind == "tuple":
        return st.lists(_SCALAR, min_size=n, max_size=n).map(tuple)
    return st.lists(_SCALAR, min_size=n, max_size=n)   # mixed-type list


_KINDS = ["int64", "uint64", "int8", "float64", "float32", "bool", "object",
          "tuple", "list"]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_columnar_writer_matches_per_row_writer(tmp_path, data):
    n = data.draw(st.integers(0, 12), label="rows")
    kinds = data.draw(st.lists(st.sampled_from(_KINDS), min_size=1,
                               max_size=5), label="kinds")
    columns = [data.draw(_column(k, n), label=k) for k in kinds]
    header = data.draw(st.lists(_TEXT, min_size=len(kinds),
                                max_size=len(kinds)), label="header")
    path = str(tmp_path / "t.csv")
    count = write_csv_atomic(path, header, columns)
    assert count == n and type(count) is int
    with open(path, "rb") as fh:
        got = fh.read()
    assert got == _per_row_reference(header, columns).encode()


def test_columnar_writer_distinguishes_signed_zero(tmp_path):
    path = str(tmp_path / "z.csv")
    write_csv_atomic(path, ["z"], [np.array([0.0, -0.0, 0.0, -0.0])])
    with open(path, "rb") as fh:
        assert fh.read() == b"z\n0\n-0\n0\n-0\n"


def _leftovers(directory):
    return sorted(f for f in os.listdir(directory) if f.startswith(".tmp-"))


def test_columnar_writer_rejects_bad_columns(tmp_path):
    path = str(tmp_path / "bad.csv")
    with pytest.raises(ValueError, match="differ in length"):
        write_csv_atomic(path, ["a", "b"], [np.arange(3), [1, 2]])
    with pytest.raises(ValueError, match="header fields"):
        write_csv_atomic(path, ["a", "b"], [np.arange(3)])
    with pytest.raises(ValueError, match="1-D"):
        write_csv_atomic(path, ["a"], [np.zeros((2, 2))])
    with pytest.raises(ValueError, match="1-D"):
        write_csv_atomic(path, ["a", "b"], [np.arange(4), np.zeros((2, 2))])
    assert not os.path.exists(path) and _leftovers(tmp_path) == []


def test_chunked_writer_matches_one_whole_table_pass(tmp_path):
    n = 2 * manifest._CSV_CHUNK_ROWS + 1
    i = np.arange(n)
    ints = i - n // 2
    floats = np.where(i % 3 == 0, -0.0, i / 7.0)
    floats[i % 11 == 5] = np.nan
    bools = i % 2 == 0
    mixed = [None if k % 5 == 0 else "a,b" if k % 5 == 1
             else 'q"\r\n' if k % 5 == 2 else k for k in range(n)]
    header = ["int", "float", "bool", "mixed"]
    path = str(tmp_path / "big.csv")
    assert write_csv_atomic(path, header, [ints, floats, bools, mixed]) == n
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_cell(c) for c in row] for row in zip(
        ints.tolist(), floats.tolist(), bools.tolist(), mixed))
    with open(path, "rb") as fh:
        got = fh.read()
    assert b'"a,b"' in got and b',"q""\r\n"\n' in got
    assert b",-0," in got and b",nan," in got
    assert got == buf.getvalue().encode()
    # csv writes a one-column row whose cell is empty as ""
    write_csv_atomic(path, ["none"], [[None] * n])
    with open(path, "rb") as fh:
        assert fh.read() == b'none\n' + b'""\n' * n


def test_failure_after_a_written_chunk_leaves_no_file(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("cannot format")

    n = manifest._CSV_CHUNK_ROWS + 5
    col = [0] * n
    col[-1] = Unprintable()      # fails only in the second chunk
    path = tmp_path / "broken.csv"
    with pytest.raises(RuntimeError, match="cannot format"):
        write_csv_atomic(str(path), ["a"], [col])
    assert not path.exists() and _leftovers(tmp_path) == []


def test_write_json_atomic_handles_numpy(tmp_path):
    path = str(tmp_path / "b.json")
    write_json_atomic(path, {"x": np.int64(3), "y": np.float64(0.5),
                             "z": [np.bool_(True)]})
    with open(path) as fh:
        doc = json.load(fh)
    assert doc == {"x": 3, "y": 0.5, "z": [True]}


def test_write_json_atomic_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "c.json"
    write_json_atomic(str(path), {"v": [float("nan"), np.float64("inf"),
                                        -np.inf, np.float64(1.5)]})
    text = path.read_text()
    assert "NaN" not in text and "Infinity" not in text
    assert json.loads(text) == {"v": [None, None, None, 1.5]}


def test_experiment_record_checks():
    rec = ExperimentRecord(name="demo", params={"n": 3})
    assert rec.passed  # vacuous
    rec.check("first", True, "fine")
    assert rec.passed
    rec.check("second", False, "broke")
    assert not rec.passed
    assert rec.assertions[1] == {"name": "second", "passed": False,
                                 "detail": "broke"}


def test_run_manifest_roundtrip(tmp_path):
    man = RunManifest(tool_version="0.0", master_seed=7, config_echo={"a": 1})
    man.start()
    rec = ExperimentRecord(name="demo", params={})
    rec.check("ok", True)
    man.experiments.append(rec)
    man.finish()
    path = str(tmp_path / "manifest.json")
    man.write(path)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["master_seed"] == 7
    assert doc["experiments"][0]["name"] == "demo"
    assert doc["experiments"][0]["passed"] is True
    assert doc["started_at"] <= doc["finished_at"]
