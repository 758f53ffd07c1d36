"""The benchmark gate runner's contract (``benchmarks/gates.py``).

Synthetic rows only, so nothing here simulates: a failed check, a row that
raises and an unknown row name fail the run; a deterministic row must
return the same values twice and rewrites its report; a wall-clock row's
committed report is read and never written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

GATES_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "gates.py"


@pytest.fixture(scope="module")
def gates():
    spec = importlib.util.spec_from_file_location("gates", GATES_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules["gates"] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_failing_check_prints_fail_and_exits_nonzero(gates, capsys):
    row = gates.Row("synthetic", lambda: {"x": 1}, {
        "x is one": lambda v: v["x"] == 1,
        "x is two": lambda v: v["x"] == 2,
    })
    assert gates.run([], [row]) != 0
    out = capsys.readouterr().out
    assert "PASS  synthetic: x is one  x=1" in out
    assert "FAIL  synthetic: x is two  x=1" in out


def test_passing_row_exits_zero_and_prints_its_values(gates, capsys):
    row = gates.Row("synthetic", lambda: {"x": {"a": 3}}, {"a": lambda v: v["x"]["a"] == 3})
    assert gates.run(["synthetic"], [row]) == 0
    out = capsys.readouterr().out
    assert '{"row": "synthetic", "x": {"a": 3}}' in out
    assert "PASS  synthetic: a  x.a=3" in out


def test_row_that_raises_fails_and_the_others_still_run(gates, capsys):
    def broken():
        raise RuntimeError("workload crashed")

    rows = [
        gates.Row("broken", broken, {"never judged": lambda v: True}),
        gates.Row("fine", lambda: {"x": 1}, {"x": lambda v: v["x"] == 1}),
    ]
    assert gates.run([], rows) != 0
    out = capsys.readouterr().out
    assert "FAIL  broken: raised" in out
    assert "PASS  fine: x" in out


def test_unknown_row_name_fails(gates, capsys):
    row = gates.Row("synthetic", lambda: {"x": 1}, {"x": lambda v: v["x"] == 1})
    assert gates.run(["synthetic", "no-such-row"], [row]) != 0
    assert "no-such-row" in capsys.readouterr().out


def test_deterministic_row_whose_runs_differ_fails(gates, tmp_path, capsys):
    calls = []

    def drifting():
        calls.append(None)
        return {"runs": len(calls)}

    report = tmp_path / "BENCH_drift.json"
    row = gates.Row(
        "drift", drifting, {"ran": lambda v: v["runs"] >= 1},
        deterministic=True, report=str(report),
    )
    assert gates.run([], [row]) != 0
    assert len(calls) == 2
    assert "FAIL  drift: deterministic" in capsys.readouterr().out


def test_deterministic_row_rewrites_its_report(gates, tmp_path):
    report = tmp_path / "BENCH_sim.json"
    report.write_text("stale\n")
    row = gates.Row(
        "sim", lambda: {"x": 1}, {"x": lambda v: v["x"] == 1},
        deterministic=True, report=str(report),
    )
    assert gates.run([], [row]) == 0
    assert report.read_text() == '{\n  "x": 1\n}\n'


def test_wall_clock_row_reads_its_report_and_leaves_it_unchanged(gates, tmp_path, capsys):
    report = tmp_path / "BENCH_wall.json"
    committed = b'{"speedup": 2.0,\n "note": "recorded elsewhere"}\n'
    report.write_bytes(committed)
    row = gates.Row(
        "wall", lambda: {"speedup": 1.99},
        {"ratchet": lambda v: v["speedup"] * 1.05 >= v["committed"]["speedup"]},
        report=str(report),
    )
    assert gates.run([], [row]) == 0
    assert report.read_bytes() == committed
    assert "PASS  wall: ratchet  speedup=1.99 committed.speedup=2.0" in capsys.readouterr().out


def test_each_labels_one_check_per_parameter(gates, capsys):
    row = gates.Row("cells", lambda: {"s": {"a": 1, "b": 5}},
                    gates._each("small", ("a", "b"), lambda v, k: v["s"][k] < 3))
    assert gates.run([], [row]) != 0
    out = capsys.readouterr().out
    assert "PASS  cells: small [a]  s.a=1" in out
    assert "FAIL  cells: small [b]  s.b=5" in out


def test_table_rows_are_unique_and_all_checked(gates):
    names = [row.name for row in gates.ROWS]
    assert len(names) == len(set(names))
    assert all(row.checks for row in gates.ROWS)
    # Only simulated rows may write a report; wall-clock baselines are read.
    writers = {row.name for row in gates.ROWS if row.deterministic and row.report}
    assert writers == {"prefetch", "cluster", "writes", "predict"}
