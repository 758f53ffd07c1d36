"""Tests for the §VII extension runners and their CLI commands."""

from repro.experiments.extensions import (
    format_distributed_sweep,
    format_latency,
    format_multitenant,
    run_distributed_sweep,
    run_latency_comparison,
    run_multitenant_comparison,
)


def test_distributed_sweep_shape():
    rows = run_distributed_sweep(node_counts=(1, 2), scale=800, global_batch=16)
    assert [r.n_nodes for r in rows] == [1, 2]
    for row in rows:
        assert row.speedup > 1.0  # PRISMA wins at every node count
    text = format_distributed_sweep(rows)
    assert "speedup" in text and "barrier" in text


def test_multitenant_comparison_shape():
    rows = run_multitenant_comparison(n_jobs=2, files_per_job=64)
    modes = [r.mode for r in rows]
    assert modes == ["none", "independent", "global"]
    by_mode = {r.mode: r for r in rows}
    assert by_mode["independent"].mean_job_time < by_mode["none"].mean_job_time
    assert 0 < by_mode["global"].fairness <= 1.0
    assert "makespan" in format_multitenant(rows)


def test_latency_comparison_prisma_cuts_median():
    summaries = run_latency_comparison(scale=800, sample_count=800)
    assert summaries["prisma"].p50 < summaries["baseline"].p50 / 2
    assert summaries["prisma"].mean < summaries["baseline"].mean
    text = format_latency(summaries)
    assert "p99" in text and "prisma" in text


def test_cli_extension_commands(capsys):
    from repro.cli import main

    assert main(["latency"]) == 0
    out = capsys.readouterr().out
    assert "Per-read service time" in out

    assert main(["multitenant", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "independent" in out

    assert main(["distributed", "--nodes", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
