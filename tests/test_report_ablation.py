"""Tests for report formatting and the ablation module."""

from repro.experiments import ExperimentScale
from repro.experiments.ablation import (
    AblationPoint,
    autotune_point,
    best_static,
    control_period_sensitivity,
    device_sensitivity,
    static_grid,
)
from repro.experiments.report import format_ablation
from repro.frameworks.models import LENET

#: Very small but granular: 3202 files, 100 batches at bs32.
SCALE = ExperimentScale(scale=400, epochs=1)
BATCH = 32


def test_static_grid_shapes():
    points = static_grid(
        producers=(1, 4), buffers=(256,), model=LENET, batch_size=BATCH, scale=SCALE
    )
    assert len(points) == 2
    by_t = {p.detail["producers"]: p.paper_equivalent_seconds for p in points}
    # 4 producers beat 1 on the I/O-bound workload.
    assert by_t[4] < by_t[1]
    best = best_static(points)
    assert best.detail["producers"] == 4


def test_autotune_point_converges():
    point = autotune_point(model=LENET, batch_size=BATCH, scale=SCALE)
    assert point.paper_equivalent_seconds > 0
    assert 1 <= point.detail["final_producers"] <= 8


def test_autotune_close_to_best_static():
    grid = static_grid(
        producers=(1, 4), buffers=(256,), model=LENET, batch_size=BATCH, scale=SCALE
    )
    auto = autotune_point(model=LENET, batch_size=BATCH, scale=SCALE)
    best = best_static(grid)
    assert auto.paper_equivalent_seconds < best.paper_equivalent_seconds * 1.2


def test_device_sensitivity_ordering():
    from repro.storage import intel_p4600, sata_hdd

    points = device_sensitivity(
        model=LENET, batch_size=BATCH, scale=SCALE,
        devices={"sata-hdd": sata_hdd(), "intel-p4600": intel_p4600()},
    )
    by_dev = {p.detail["device"]: p.paper_equivalent_seconds for p in points}
    assert by_dev["sata-hdd"] > by_dev["intel-p4600"]


def test_control_period_sensitivity_bounded():
    points = control_period_sensitivity(
        periods_unscaled=(0.5, 4.0), model=LENET, batch_size=BATCH, scale=SCALE
    )
    times = [p.paper_equivalent_seconds for p in points]
    assert max(times) / min(times) < 1.5


def test_format_ablation_renders():
    points = [
        AblationPoint("a", 100.0, {"k": 1}),
        AblationPoint("b", 200.0, {"k": 2}),
    ]
    text = format_ablation("Sweep", points, baseline=points[0])
    assert "Sweep" in text
    assert "2.00x" in text
    assert "k=2" in text
