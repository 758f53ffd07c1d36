"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def test_parser_subcommands_exist():
    parser = build_parser()
    for argv in (
        ["figure2", "--quick"],
        ["figure3"],
        ["figure4", "--workers", "0", "4"],
        ["ablation", "autotune"],
        ["demo"],
    ):
        args = parser.parse_args(argv)
        assert callable(args.func)


def test_parser_rejects_unknown_model():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["figure2", "--models", "vgg"])


def test_parser_rejects_unknown_ablation():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["ablation", "everything"])


def test_parser_requires_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_demo_command_runs(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "baseline=" in out and "prisma=" in out


def test_figure2_quick_single_cell(capsys):
    # One model, one batch size, quick scale: a fast end-to-end CLI pass.
    assert main(["figure2", "--quick", "--models", "lenet", "--batches", "256"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "tf-prisma" in out
    assert "vs-baseline" in out


def test_live_demo_global_controller(capsys, tmp_path):
    # Real threads + real files under one global live controller.
    out_file = tmp_path / "live.json"
    trace_file = tmp_path / "live_trace.json"
    argv = [
        "live-demo", "--files", "12", "--quiet",
        "--out", str(out_file), "--trace", str(trace_file),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "global controller" in out
    assert "rpc failures" in out

    import json

    summary = json.loads(out_file.read_text())
    assert len(summary["jobs"]) == 2
    assert all(job["files"] == 12 for job in summary["jobs"])
    assert summary["control"]["cycles"] >= 1

    from repro.telemetry import validate_chrome_trace

    assert validate_chrome_trace(json.loads(trace_file.read_text())) is None


def test_live_demo_rejects_seed(capsys):
    assert main(["live-demo", "--seed", "7"]) == 2


def test_profile_command_dumps_hot_functions(capsys):
    assert main(["profile", "simcore", "--top", "5", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "cumulative" in out  # pstats sort header
    assert "kernel.py" in out  # the kernel shows up in the hot list


def test_profile_reports_the_workload_not_its_imports():
    """In a fresh interpreter, every module is loaded before the profiler
    starts, so no row of the report is module loading."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "repro", "profile", "simcore", "--sort", "cumulative",
         "--top", "400"],
        env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.PIPE, text=True,
        check=True, timeout=300,
    ).stdout
    assert "kernel.py" in out
    assert "_find_and_load" not in out


def test_profile_rejects_unknown_workload_and_shared_flags():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["profile", "everything"])
    assert main(["profile", "simcore", "--seed", "7"]) == 2


def test_predict_quick_runs_and_exports(capsys, tmp_path):
    import json

    samples = tmp_path / "samples.jsonl"
    model_file = tmp_path / "model.json"
    out_file = tmp_path / "predict.json"
    assert main([
        "predict", "--quick", "--quiet",
        "--samples", str(samples), "--model-out", str(model_file),
        "--out", str(out_file),
    ]) == 0
    out = capsys.readouterr().out
    assert "predictive jumped to" in out
    assert "live parity ok" in out

    header = json.loads(samples.read_text().splitlines()[0])
    assert header == {"kind": "perf_samples", "schema_version": 1}

    from repro.perfmodel import ThroughputModel

    model = ThroughputModel.load(str(model_file))
    assert model.fitted

    report = json.loads(out_file.read_text())
    assert {r["backend_kind"] for r in report["results"]} == {"posix", "object"}


def test_predict_rejects_trace(capsys):
    assert main(["predict", "--trace", "/tmp/t.json"]) == 2


#: The shared flags an experiment rejects; the others accept all three.
REJECTED = {
    "ablation": {"--seed", "--trace", "--out"},
    "distributed": {"--seed", "--trace", "--out"},
    "multitenant": {"--seed", "--trace", "--out"},
    "latency": {"--seed", "--trace", "--out"},
    "live-demo": {"--seed"},  # wall-clock runs are not reproducible
    "predict": {"--trace"},
}


@pytest.mark.parametrize("flag", ["--seed", "--trace", "--out"])
@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment_shared_flag_contract(name, flag, monkeypatch, tmp_path, capsys):
    """Each shared flag an experiment rejects exits 2 with its message;
    every other one reaches the experiment's run.  The run is a stub: no
    experiment runs."""
    import json

    from repro.telemetry import validate_chrome_trace

    entry = EXPERIMENTS[name]
    positionals = [
        keywords["choices"][0] for names, keywords in entry.flags
        if not names[0].startswith("-")
    ]
    value = "7" if flag == "--seed" else str(tmp_path / "file.json")
    argv = [name, *positionals, flag, value]
    if flag in REJECTED.get(name, ()):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {flag} is not supported for {name!r}\n"
        assert not (tmp_path / "file.json").exists()
        return

    seen = {}

    def run(args, telemetry):
        seen.update(seed=args.seed, telemetry=telemetry)
        return "the text", {"the": "document"}, 0

    monkeypatch.setitem(EXPERIMENTS, name, entry._replace(run=run))
    assert main(argv) == 0
    assert capsys.readouterr().out == "the text\n"
    assert seen["seed"] == (7 if flag == "--seed" else 0)
    assert (seen["telemetry"] is not None) == (flag == "--trace")
    if flag == "--out":
        assert json.loads((tmp_path / "file.json").read_text()) == {"the": "document"}
    if flag == "--trace":
        trace = json.loads((tmp_path / "file.json").read_text())
        assert validate_chrome_trace(trace) is None


def test_trace_rejects_its_own_trace_flag_and_untraceable_experiments(tmp_path, capsys):
    assert main(["trace", "--trace", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err == "error: --trace is not supported for 'trace'\n"
    argv = ["trace", "--experiment", "predict", "--out", str(tmp_path / "t.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --trace is not supported for 'predict'\n"
    assert list(tmp_path.iterdir()) == []
