"""Integration tests: the experiment harness reproduces the paper's shapes.

These run scaled-down versions of the real figure configurations and assert
the qualitative results the paper reports — who wins, where the crossover
falls, how many threads each system uses.  Full-resolution runs live in
``benchmarks/``.
"""

import math
import os

import pytest

from repro.dataset.synthetic import IMAGENET_TRAIN_FILES, IMAGENET_VAL_FILES
from repro.experiments import (
    ExperimentScale,
    figure2_scale,
    figure4_scale,
    run_figure2,
    run_figure3,
    run_figure4,
    run_tf_trial,
    run_torch_trial,
)
from repro.experiments.config import abci_node
from repro.experiments.figure3 import Figure3Curve, Figure3Result
from repro.experiments.report import format_figure2, format_figure3, format_figure4
from repro.frameworks.models import LENET, RESNET50
from repro.metrics.cdf import DiscreteCDF

#: Small-but-faithful scale for tests: 3202 train files, 100 batches at bs32.
TEST_SCALE = ExperimentScale(scale=400, epochs=1)
TEST_BATCH = 32


# ---------------------------------------------------------------- config
def test_scale_presets_respect_granularity():
    figure2_scale().check_granularity(64)
    figure4_scale().check_granularity(256, min_batches=96)
    with pytest.raises(ValueError):
        ExperimentScale(scale=2000).check_granularity(256)


def test_paper_equivalent_scaling():
    scale = ExperimentScale(scale=100, epochs=2)
    # 2 simulated epochs at 1/100 size -> x100 x(10/2).
    assert scale.paper_equivalent(1.0) == pytest.approx(500.0)


def test_hardware_profile():
    hw = abci_node()
    assert hw.n_gpus == 4
    assert hw.cpu_cores == 40
    assert hw.device.name.startswith("intel-p4600")


def test_scale_validation():
    with pytest.raises(ValueError):
        ExperimentScale(scale=0)
    with pytest.raises(ValueError):
        ExperimentScale(scale=1, epochs=0)
    with pytest.raises(ValueError):
        ExperimentScale(scale=1, control_period_unscaled=0.0)


# ---------------------------------------------------------------- single trials
def test_tf_trial_rejects_unknown_setup():
    with pytest.raises(ValueError):
        run_tf_trial("tf-magic", LENET, TEST_BATCH, TEST_SCALE)


def test_torch_trial_rejects_unknown_setup():
    with pytest.raises(ValueError):
        run_torch_trial("torch-magic", LENET, TEST_BATCH, 0, TEST_SCALE)


def test_tf_trial_deterministic_given_seed():
    a = run_tf_trial("tf-baseline", LENET, TEST_BATCH, TEST_SCALE, seed=7)
    b = run_tf_trial("tf-baseline", LENET, TEST_BATCH, TEST_SCALE, seed=7)
    assert a.paper_equivalent_seconds == b.paper_equivalent_seconds


def test_tf_trial_seed_changes_dataset():
    a = run_tf_trial("tf-baseline", LENET, TEST_BATCH, TEST_SCALE, seed=1)
    b = run_tf_trial("tf-baseline", LENET, TEST_BATCH, TEST_SCALE, seed=2)
    assert a.paper_equivalent_seconds != b.paper_equivalent_seconds


# ---------------------------------------------------------------- Figure 2 shape
def test_figure2_lenet_ordering():
    """Paper: baseline >> PRISMA >= TF-optimized for I/O-bound LeNet."""
    times = {}
    for setup in ("tf-baseline", "tf-optimized", "tf-prisma"):
        times[setup] = run_tf_trial(setup, LENET, TEST_BATCH, TEST_SCALE).paper_equivalent_seconds
    assert times["tf-baseline"] > times["tf-prisma"] * 1.5  # >=33% reduction
    assert times["tf-baseline"] > times["tf-optimized"] * 1.5
    # PRISMA is close to TF-optimized but not better (validation gap).
    assert times["tf-prisma"] >= times["tf-optimized"] * 0.95


def test_figure2_resnet_storage_insensitive():
    """Paper: no impact on compute-bound ResNet-50."""
    times = {}
    for setup in ("tf-baseline", "tf-prisma"):
        times[setup] = run_tf_trial(setup, RESNET50, TEST_BATCH, TEST_SCALE).paper_equivalent_seconds
    ratio = times["tf-baseline"] / times["tf-prisma"]
    assert 0.95 < ratio < 1.15


def test_figure2_result_structure():
    result = run_figure2(
        scale=TEST_SCALE, models=(LENET,), batch_sizes=(TEST_BATCH,),
    )
    assert len(result.cells) == 3
    assert result.reduction("lenet", TEST_BATCH, "tf-prisma") > 30.0
    table = format_figure2(result)
    assert "tf-prisma" in table and "lenet" in table


def test_figure2_prisma_trial_event_budget(kernel_probe):
    """A quick Figure-2 ``tf-prisma`` trial costs at most 8 kernel events
    per sample (7.03 measured) and spawns no process per sample: buffer
    inserts and requests return the store's own events, a serve's copy-out
    fires the serve event itself, a filesystem read is settled by the
    device, and the TF pipeline's stages and PRISMA's producers hand off
    by callback, with no process of their own.  Counted the way the
    benchmark probe counts them."""
    scale = figure2_scale(quick=True)
    trial = run_tf_trial("tf-prisma", LENET, 256, scale, seed=0)
    n_train = max(IMAGENET_TRAIN_FILES // scale.scale, 1)
    n_val = max(IMAGENET_VAL_FILES // scale.scale, 1)
    for epoch in trial.training.epoch_stats:
        assert epoch.train_batches == math.ceil(n_train / 256)
    samples = scale.epochs * (n_train + n_val)
    assert kernel_probe.events / samples <= 8
    # Long-lived processes only: the producers, trainer, controller and
    # model; none per sample, and none for the TF pipeline.
    spawned = kernel_probe.spawned
    assert len(spawned) * 100 < samples
    owners = {os.path.join(*os.path.normpath(f).split(os.sep)[-2:]) for f in spawned}
    assert os.path.join("tensorflow", "pipeline.py") not in owners
    assert os.path.join("core", "prefetcher.py") not in owners
    assert owners <= {
        os.path.join("frameworks", "training.py"),
        os.path.join("control", "controller.py"),
        os.path.join("frameworks", "models.py"),
    }


def test_figure2_prisma_trial_call_budget(package_calls):
    """The same quick Figure-2 ``tf-prisma`` trial makes at most 100 calls
    per served sample into functions of the package (78.6 measured on
    Python 3.11; 81.6 with a ``DatasetCatalog.path()`` call per sample in
    the reader and in the filenames seam, 102.3 with producer processes,
    before the per-sample chain was trimmed).  Counted with cProfile,
    comprehensions aside; the slack covers other Python versions."""
    scale = figure2_scale(quick=True)
    _, calls = package_calls(run_tf_trial, "tf-prisma", LENET, 256, scale, seed=0)
    n_train = max(IMAGENET_TRAIN_FILES // scale.scale, 1)
    n_val = max(IMAGENET_VAL_FILES // scale.scale, 1)
    samples = scale.epochs * (n_train + n_val)
    assert calls / samples <= 100


# ---------------------------------------------------------------- Figure 3 shape
def test_figure3_prisma_uses_few_threads():
    result = run_figure3(scale=TEST_SCALE, models=(LENET,), batch_size=TEST_BATCH)
    prisma = result.curve("lenet", "tf-prisma")
    tf_opt = result.curve("lenet", "tf-optimized")
    # Paper: PRISMA at most ~4 threads; TF-opt spreads far higher.
    assert prisma.max_threads <= 6
    assert tf_opt.max_threads > prisma.max_threads
    ratios = result.thread_ratio("lenet")
    assert max(ratios.values()) >= 2.0  # "2-7x more threads"
    table = format_figure3(result)
    assert "tf-prisma" in table


def test_figure3_ratio_rows_follow_curve_order():
    """The thread-ratio table lists models in curve order, never hash order."""
    wide = DiscreteCDF((1.0, 8.0), (0.5, 1.0))
    narrow = DiscreteCDF((1.0, 2.0), (0.5, 1.0))
    # Two opposite orders: a set iterates both the same way, whatever the seed.
    for order in (["resnet50", "alexnet", "lenet"], ["lenet", "alexnet", "resnet50"]):
        result = Figure3Result()
        for model in order:
            result.curves.append(Figure3Curve(model, "tf-optimized", wide, None))
            result.curves.append(Figure3Curve(model, "tf-prisma", narrow, None))
        ratio_table = format_figure3(result).split("thread ratio")[1]
        rows = [line.split()[0] for line in ratio_table.splitlines() if "p50=" in line]
        assert rows == order


# ---------------------------------------------------------------- Figure 4 shape
def test_figure4_crossover_shape():
    scale = ExperimentScale(scale=400, epochs=1)
    batch = 16
    result = run_figure4(
        scale=scale, models=(LENET,), worker_counts=(0, 4), batch_size=batch,
    )
    # PRISMA beats 0 workers decisively, and stays ~constant across counts.
    assert result.advantage("lenet", 0) > 0
    assert result.prisma_spread("lenet") < 1.25
    table = format_figure4(result)
    assert "prisma" in table and "advantage" in table


def test_figure4_native_improves_with_workers():
    scale = ExperimentScale(scale=400, epochs=1)
    t0 = run_torch_trial("torch-native", LENET, 16, 0, scale).paper_equivalent_seconds
    t4 = run_torch_trial("torch-native", LENET, 16, 4, scale).paper_equivalent_seconds
    assert t4 < t0


# ---------------------------------------------------------------- PRISMA telemetry
def test_prisma_trial_reports_controller_activity():
    trial = run_tf_trial("tf-prisma", LENET, TEST_BATCH, TEST_SCALE)
    assert trial.control_cycles > 0
    assert trial.final_producers >= 1
    assert trial.peak_producers >= trial.final_producers - 1
    assert trial.producer_activity  # gauge populated
    assert 0.0 <= trial.buffer_hit_rate <= 1.0
