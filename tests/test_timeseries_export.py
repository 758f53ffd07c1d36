"""Tests for latency recording, rate binning, and JSON export."""

import json

import pytest

from repro.metrics.timeseries import bin_rate, percentile_table
from repro.telemetry import LatencyRecorder


# ---------------------------------------------------------------- LatencyRecorder
def test_recorder_summary_percentiles():
    rec = LatencyRecorder()
    for i in range(1, 101):
        rec.record(float(i), i * 1e-3)
    s = rec.summary()
    assert s.count == 100
    assert s.p50 == pytest.approx(0.0505, rel=0.02)
    assert s.p99 == pytest.approx(0.099, rel=0.02)
    assert s.maximum == pytest.approx(0.1)
    assert "p99" in s.row()


def test_recorder_reservoir_bounds_memory():
    rec = LatencyRecorder(max_samples=100)
    for i in range(10_000):
        rec.record(float(i), 1e-3)
    assert len(rec) == 100
    assert rec.total_observed == 10_000
    assert rec.summary().mean == pytest.approx(1e-3)


def test_recorder_validation():
    with pytest.raises(ValueError):
        LatencyRecorder(max_samples=0)
    rec = LatencyRecorder()
    with pytest.raises(ValueError):
        rec.record(0.0, -1.0)
    with pytest.raises(ValueError):
        rec.summary()


def test_percentile_table():
    rec = LatencyRecorder("a")
    rec.record(0.0, 1e-3)
    out = percentile_table({"baseline": rec})
    assert out.startswith("baseline:")


# ---------------------------------------------------------------- bin_rate
def test_bin_rate_basic():
    events = [(0.5, 100.0), (0.7, 100.0), (1.5, 300.0)]
    bins = bin_rate(events, bin_width=1.0, t_end=3.0)
    assert bins == [(0.0, 200.0), (1.0, 300.0), (2.0, 0.0)]


def test_bin_rate_validation():
    with pytest.raises(ValueError):
        bin_rate([(0.0, 1.0)], bin_width=0.0)
    assert bin_rate([], 1.0) == []


# ---------------------------------------------------------------- JSON export
def test_figure2_export_roundtrip(tmp_path):
    from repro.experiments import ExperimentScale, run_figure2
    from repro.experiments.export import dump_json, figure2_to_dict
    from repro.frameworks.models import LENET

    scale = ExperimentScale(scale=400, epochs=1)
    result = run_figure2(scale=scale, models=(LENET,), batch_sizes=(32,))
    doc = figure2_to_dict(result, scale)
    assert doc["figure"] == "figure2"
    assert doc["meta"]["scale"] == 400
    assert len(doc["cells"]) == 3
    prisma = next(c for c in doc["cells"] if c["setup"] == "tf-prisma")
    assert prisma["reduction_vs_baseline_pct"] > 0

    out = tmp_path / "fig2.json"
    dump_json(doc, str(out))
    loaded = json.loads(out.read_text())
    assert loaded == json.loads(json.dumps(doc))  # round-trips cleanly


def test_figure4_export_structure():
    from repro.experiments import ExperimentScale, run_figure4
    from repro.experiments.export import figure4_to_dict
    from repro.frameworks.models import LENET

    scale = ExperimentScale(scale=400, epochs=1)
    result = run_figure4(
        scale=scale, models=(LENET,), worker_counts=(0,), batch_size=16
    )
    doc = figure4_to_dict(result, scale)
    assert len(doc["cells"]) == 2
    assert doc["advantages"][0]["advantage_seconds"] > 0


def test_cli_json_flag(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "f2.json"
    assert main([
        "figure2", "--quick", "--models", "lenet", "--batches", "256",
        "--json", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["figure"] == "figure2"
