"""The committed ``BENCH_<name>.json`` snapshots pin every simulated cell.

A rerun of an experiment must reproduce every sim cell of its committed
snapshot exactly; wall-clock columns must be present but may differ.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import sys

import numpy as np
import pytest

from repro.baselines.base import LookupResult
from repro.baselines.sorted_array import SortedArrayIndex
from repro.bench import experiments
from repro.bench.harness import ExperimentResult, byte_identical, probe_identical
from repro.gpu.kernels import KernelStats

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

#: Experiments rerun at their defaults by the gate: the fast paper figures
#: and every operational experiment whose default run takes a few seconds.
GATED = (
    "table_1",
    "figure_9",
    "figure_10",
    "figure_17",
    "serving",
    "availability",
    "lifecycle",
    "durability",
    "reliability",
)


@functools.lru_cache(maxsize=None)
def rerun(name: str) -> ExperimentResult:
    return experiments.ALL_EXPERIMENTS[name]()


def committed(result_name: str) -> dict:
    with open(os.path.join(ROOT, f"BENCH_{result_name}.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", GATED)
def test_rerun_matches_committed_snapshot(name):
    result = rerun(name)
    assert result.diff(committed(result.name)) == []


def small_result() -> ExperimentResult:
    result = ExperimentResult(name="unit", description="diff unit test", wall_columns=("wall_ms",))
    result.add(index="a", time_ms=1.5, wall_ms=3.0)
    result.add(index="b", time_ms=2.0, wall_ms=4.0, missing=float("nan"))
    return result


def test_diff_reports_a_tampered_sim_cell_but_not_a_wall_cell():
    result = small_result()
    snapshot = json.loads(result.to_json())
    assert result.diff(snapshot) == []
    snapshot["rows"][0]["wall_ms"] = 99.0
    assert result.diff(snapshot) == []
    snapshot["rows"][1]["time_ms"] = 2.5
    assert result.diff(snapshot) == ["row 1, time_ms: committed 2.5, new 2.0"]


def test_diff_compares_values_as_written():
    result = small_result()
    snapshot = json.loads(result.to_json())
    snapshot["rows"][0]["time_ms"] = 1.5000000000000002
    snapshot["rows"][1]["time_ms"] = 2
    assert result.diff(snapshot) == [
        "row 0, time_ms: committed 1.5000000000000002, new 1.5",
        "row 1, time_ms: committed 2, new 2.0",
    ]


def test_diff_reports_missing_and_extra_rows_and_renamed_columns():
    result = small_result()
    snapshot = json.loads(result.to_json())
    extra_row = {"index": "c", "time_ms": 7.0, "wall_ms": 1.0}
    longer = dict(snapshot, rows=snapshot["rows"] + [extra_row])
    assert result.diff(longer) == [f"row 2: missing, committed {extra_row}"]
    shorter = dict(snapshot, rows=snapshot["rows"][:1])
    [line] = result.diff(shorter)
    assert line.startswith("row 1: extra, new ")
    snapshot["rows"][0]["time"] = snapshot["rows"][0].pop("time_ms")
    assert result.diff(snapshot) == [
        "row 0, time: missing, committed 1.5",
        "row 0, time_ms: extra, new 1.5",
    ]
    # A wall cell must be present even though its value is not compared.
    del snapshot["rows"][1]["wall_ms"]
    assert "row 1, wall_ms: extra, new 4.0" in result.diff(snapshot)


def test_a_wall_column_no_row_has_is_an_error():
    result = small_result()
    result.wall_columns = ("wall_ms", "typo_ms")
    with pytest.raises(ValueError, match="typo_ms"):
        result.diff(json.loads(result.to_json()))


def test_durability_wall_cells_are_not_compared():
    result = rerun("durability")
    snapshot = committed(result.name)
    cold_start = next(row for row in snapshot["rows"] if row["panel"] == "b_cold_start")
    cold_start["cold_start_wall_ms"] = -1.0
    assert result.diff(snapshot) == []
    cold_start["entries_recovered"] += 1
    [line] = result.diff(snapshot)
    assert "entries_recovered" in line


def test_byte_identical_compares_every_array_where_the_mask_is_set():
    rows = np.array([5, -1, 7], dtype=np.int64)
    counts = np.array([1, 0, 2], dtype=np.int64)
    assert byte_identical(LookupResult(rows.copy(), counts.copy(), KernelStats()), (rows, counts))
    assert not byte_identical((rows, counts), (rows, counts + 1))
    assert not byte_identical((rows.astype(np.int32), counts), (rows, counts))
    changed = rows.copy()
    changed[2] = 8
    assert not byte_identical((changed, counts), (rows, counts))
    assert byte_identical((changed, counts), (rows, counts), np.array([True, True, False]))


def test_probe_identical_catches_a_lost_entry():
    keys = np.array([3, 9, 9, 40, 41, 1000, 70000, 123456], dtype=np.uint32)
    rows = np.arange(keys.size, dtype=np.uint32)
    # 224 positional draws from 8 entries reach every entry.
    whole = SortedArrayIndex(keys, rows, key_bits=32)
    assert probe_identical(whole, keys, rows, seed=1)
    lost = SortedArrayIndex(keys[1:], rows[1:], key_bits=32)
    assert not probe_identical(lost, keys, rows, seed=1)


def run_cli(monkeypatch, *arguments) -> int:
    monkeypatch.setattr(sys, "argv", ["repro-bench", *arguments])
    try:
        experiments.main()
    except SystemExit as exited:
        return exited.code
    return 0


def test_check_cli_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(monkeypatch, f"--check={ROOT}", "table_1") == 0
    # No snapshot in the working directory.
    assert run_cli(monkeypatch, "--check", "table_1") == 1
    assert "no snapshot" in capsys.readouterr().out
    snapshot = committed("table_1")
    snapshot["rows"][0]["index"] = "tampered"
    (tmp_path / "BENCH_table_1.json").write_text(json.dumps(snapshot))
    assert run_cli(monkeypatch, "--check", "table_1") == 1
    assert "committed 'tampered'" in capsys.readouterr().out
    assert run_cli(monkeypatch, "--check", "--quick", "table_1") == 2
    assert "--quick" in capsys.readouterr().err


def test_check_cli_reads_the_snapshot_named_after_the_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copy(os.path.join(ROOT, "BENCH_replication.json"), tmp_path)
    result = rerun("availability")
    monkeypatch.setitem(experiments.ALL_EXPERIMENTS, "availability", lambda: result)
    assert run_cli(monkeypatch, "--check", "availability") == 0
    assert "0 difference(s) against ./BENCH_replication.json" in capsys.readouterr().out
