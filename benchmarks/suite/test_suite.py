"""Tests of the benchmark itself, at reduced workload sizes.

    python -m pytest benchmarks/suite
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.telemetry import validate_chrome_trace  # noqa: E402

SMALL = {
    "cluster-read": {"n_nodes": 4, "n_files": 32, "epochs": 2},
    "train-tf": {"scale": {"scale": 1000, "epochs": 1}, "batch_size": 32},
    "ckpt-write": {"n_files": 128, "epochs": 2},
    "live-epoch": {"n_files": 64, "epochs": 2},
}
SIM_WORKLOADS = ("cluster-read", "train-tf", "ckpt-write")


def small(name: str, tmp_path: Path, seed: int = 0):
    return workloads.make_workload(name, seed, str(tmp_path), **SMALL[name])


def traced_repeat(name: str) -> dict:
    cfg = {"workload": name, "seed": 0, "budget_s": 0.0, "trace": True,
           "trace_id": name, "size": SMALL[name], "spawned_at": time.monotonic()}
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, text=True, timeout=300, check=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_workload_passes_its_checks(name, tmp_path):
    workload = small(name, tmp_path)
    try:
        outcome = workload.run_once(measure.Timer())
    finally:
        workload.close()
    assert outcome.problems == []
    assert outcome.requests > 0 and outcome.failed == 0
    assert (outcome.digest is not None) == (name in SIM_WORKLOADS)


@pytest.mark.parametrize("name", SIM_WORKLOADS)
def test_two_traced_runs_give_identical_counts(name):
    first, second = traced_repeat(name), traced_repeat(name)
    counted = [k for k in first["layers"]
               if k.endswith(("calls_per_request", "procs_per_request", "events_per_request"))]
    assert counted
    assert {k: first["layers"][k] for k in counted} == {k: second["layers"][k] for k in counted}
    assert first["digests"] == second["digests"] and len(first["digests"]) == 1
    assert first["layers"]["simcore.events_per_request"] > 0
    assert validate_chrome_trace(run.chrome_trace(first["spans"])) is None
    names = {s["name"] for s in first["spans"]}
    assert {"iteration", "Simulator.run"} <= names


def test_traced_live_run_reports_the_live_layer():
    layers = traced_repeat("live-epoch")["layers"]
    assert layers["live.calls_per_request"] > 0
    assert 0 < layers["live.wait_p50_us"] <= layers["live.wait_p99_us"]


def test_thread_profiles_cover_threads_started_inside():
    def producer_work():
        return sum(range(100))

    with measure.ThreadProfiles() as profiles:
        thread = threading.Thread(target=producer_work)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert "producer_work" in {name for (_, _, name) in profiles.stats()}


def test_corrupted_live_sample_fails_the_check(tmp_path):
    workload = small("live-epoch", tmp_path)
    try:
        index = min(workload.full_check)
        good = workload.expected(index)
        assert workload.check_sample(index, good) is None
        assert "bytes" in workload.check_sample(index, good[:-1])
        assert "header" in workload.check_sample(index, workload.expected(index + 1))
        flipped = good[:-1] + bytes([good[-1] ^ 1])
        assert "content" in workload.check_sample(index, flipped)
        with open(workload.paths[index], "wb") as fh:
            fh.write(flipped)
        outcome = workload.run_once(measure.Timer())
    finally:
        workload.close()
    assert any("content" in p for p in outcome.problems)


def test_altered_reports_fail_the_checks():
    cluster = workloads.run_cluster_serving(0, n_nodes=4, n_files=32, epochs=2)
    assert workloads.check_cluster(cluster, 4, 32, 2) == []
    assert workloads.check_cluster(dataclasses.replace(cluster, worst_reads_per_path=2), 4, 32, 2)
    assert workloads.check_cluster(dataclasses.replace(cluster, requests=255), 4, 32, 2)

    writes = workloads.run_write_workloads(0, n_files=128, epochs=2)
    assert workloads.check_writes(writes) == []
    writes.trials[4] = dataclasses.replace(writes.trials[4], write_bytes=1.0)
    assert workloads.check_writes(writes)

    tf = small("train-tf", Path("."))
    trial = workloads.run_tf_trial("tf-prisma", workloads.LENET, 32, tf.scale, seed=0)
    assert workloads.check_tf(trial, tf.scale, 32) == []
    trial.training.epoch_stats[0].train_batches -= 1
    assert workloads.check_tf(trial, tf.scale, 32)


def test_digest_mismatch_and_nondeterminism_fail_the_check():
    repeat = {"problems": [], "digests": ["a"]}
    assert run.check("cluster-read", 0, [repeat], {"cluster-read": "a"}) == []
    assert run.check("cluster-read", 0, [repeat], {"cluster-read": "b"})
    assert run.check("cluster-read", 1, [repeat], {"cluster-read": "b"}) == []
    assert run.check("ckpt-write", 3, [repeat, {"problems": [], "digests": ["c"]}], {})


def test_layer_of_groups_sources_by_module():
    pkg = os.path.join("/x", "repro")
    cases = {
        "simcore/kernel.py": "simcore", "storage/device.py": "storage",
        "core/buffer.py": "prefetch", "core/__init__.py": "prefetch",
        "core/tiering.py": "tiering", "cluster/node.py": "cluster",
        "core/control/rpc.py": "rpc", "core/control/policy.py": "control",
        "core/live/buffer.py": "live", "frameworks/training.py": "frameworks",
        "core/integrations/tf_binding.py": "frameworks",
        "telemetry/hub.py": "telemetry", "metrics/cdf.py": "telemetry",
        "experiments/cluster.py": "harness", "dataset/catalog.py": "harness",
    }
    for rel, layer in cases.items():
        assert measure.layer_of(os.path.join(pkg, *rel.split("/")), pkg) == layer, rel
    assert measure.layer_of("/usr/lib/python3/threading.py", pkg) == "python"


def test_timer_speed_ignores_one_slow_calibration_reading():
    timer = measure.Timer()
    timer.readings = [0.010, 0.010, 0.010, 0.050, 0.010, 0.010, 0.020, 0.020, 0.020]

    def speed(reading):
        return (measure.CALIBRATION_REF_S / reading) ** measure.CALIBRATION_EXPONENT

    assert timer.speed(-1) == speed(0.010)
    assert timer.speed(2) == speed(0.010)
    assert timer.speed(8) == speed(0.020)


def test_judge_labels():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.judge(base, [v * 0.97 for v in base], "higher", 0.10) == "within bound"
    assert run.judge(base, [v * 0.80 for v in base], "higher", 0.10) == "worse"
    assert run.judge(base, [v * 1.20 for v in base], "lower", 0.10) == "worse"
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
    assert run.judge(base, noisy, "higher", 0.10) == "unresolved"
    assert run.judge(noisy, [200.0, 210.0, 220.0], "higher", 0.10) == "within bound"


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "cluster-read"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
