"""Tests for the performance model and the predictive control policy.

Covers the whole ``repro.perfmodel`` surface — feature encoding, sample
JSONL serialization, telemetry harvesting, the ridge throughput model and
its versioned on-disk form — plus :class:`~repro.core.PredictivePolicy`'s
jump / refine / fallback seams and the plateau behaviour of the reactive
tuner it warm-starts.
"""

import json
import math

import pytest

from repro.core import (
    AutotuneParams,
    PredictiveParams,
    PredictivePolicy,
    PrismaAutotunePolicy,
    PrismaConfig,
    TuningSettings,
    build_prisma,
)
from repro.core.control import OscillationDampedPolicy
from repro.core.optimization import MetricsSnapshot
from repro.perfmodel import (
    ModelSchemaError,
    PerfSample,
    ThroughputModel,
    WorkloadContext,
    context_from_decision_args,
    feature_vector,
    merge_samples,
    read_samples_jsonl,
    samples_from_history,
    settings_grid,
    sorted_samples,
    write_samples_jsonl,
)
from repro.simcore import Simulator


# ---------------------------------------------------------------- fixtures
def surface(threads: int, depth: int, kind: str = "posix") -> float:
    """A concave synthetic (t, N) -> throughput surface peaking inside
    the grid: saturating in t, log-diminishing in N."""
    base = 4e8 if kind == "posix" else 1e8
    t_gain = threads / (threads + 2.0)
    n_gain = 1.0 + 0.05 * math.log(depth / 64.0 + 1.0)
    return base * t_gain * n_gain


def grid_samples(kinds=("posix",), threads=(1, 2, 3, 4, 6, 8),
                 depths=(64, 256, 1024)) -> list:
    return [
        PerfSample(
            threads=t, prefetch_depth=n, batch_size=32, backend_kind=kind,
            lookahead_epochs=0, throughput=surface(t, n, kind),
        )
        for kind in kinds
        for t in threads
        for n in depths
    ]


def fitted_model(**kw) -> ThroughputModel:
    return ThroughputModel().fit(grid_samples(**kw))


def snap(time=1.0, requests=100, hits=90, waits=10, level=10, capacity=64,
         producers=2, bytes_fetched=1e6, queue=100):
    return MetricsSnapshot(
        time=time, requests=requests, hits=hits, waits=waits,
        buffer_level=level, buffer_capacity=capacity,
        producers_allocated=producers, producers_active=producers,
        bytes_fetched=bytes_fetched, queue_remaining=queue,
    )


CONTEXT = WorkloadContext(backend_kind="posix", batch_size=32)


# ---------------------------------------------------------------- features
def test_feature_vector_rejects_unknown_kind():
    with pytest.raises(ValueError):
        feature_vector(2, 64, CONTEXT, kinds=("object",))


def test_samples_jsonl_round_trip_and_determinism(tmp_path):
    samples = grid_samples(kinds=("posix", "object"), threads=(1, 2), depths=(64,))
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_samples_jsonl(samples, str(a))
    write_samples_jsonl(list(reversed(samples)), str(b))
    # Byte-identical regardless of input order (rows are sorted + canonical).
    assert a.read_bytes() == b.read_bytes()
    back = read_samples_jsonl(str(a))
    assert back == sorted_samples(samples)


def test_samples_jsonl_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind":"perf_samples","schema_version":99}\n')
    with pytest.raises(ValueError, match="schema"):
        read_samples_jsonl(str(path))


# ---------------------------------------------------------------- harvesting
def test_samples_from_history_requires_stable_settings():
    class History:
        def snapshots(self):
            return [
                snap(time=1.0, producers=2, capacity=64, bytes_fetched=1e6),
                snap(time=2.0, producers=2, capacity=64, bytes_fetched=3e6),
                # settings change: the spanning interval must not be harvested
                snap(time=3.0, producers=3, capacity=64, bytes_fetched=5e6),
                snap(time=4.0, producers=3, capacity=64, bytes_fetched=8e6),
            ]

    samples = samples_from_history(History(), CONTEXT)
    assert [(s.threads, s.throughput) for s in samples] == [(2, 2e6), (3, 3e6)]
    assert all(s.source == "telemetry" for s in samples)


def test_samples_from_history_window_filters_settle_transient():
    class History:
        def snapshots(self):
            return [
                snap(time=float(i), producers=2, capacity=64, bytes_fetched=1e6 * i)
                for i in range(1, 6)
            ]

    # window=3 needs three consecutive stable intervals before emitting.
    samples = samples_from_history(History(), CONTEXT, window=3)
    assert len(samples) == 2
    assert all(s.throughput == pytest.approx(1e6) for s in samples)


def test_context_from_decision_args():
    ctx = context_from_decision_args(
        {"backend_kind": "object", "batch_size": 64, "lookahead_epochs": 2}
    )
    assert ctx == WorkloadContext("object", 64, 2)
    assert context_from_decision_args({"producers": 3}) is None


def test_merge_samples_dedups_exact_rows_only():
    s = grid_samples(threads=(1, 2), depths=(64,))
    reseeded = [
        PerfSample(
            threads=x.threads, prefetch_depth=x.prefetch_depth,
            batch_size=x.batch_size, backend_kind=x.backend_kind,
            lookahead_epochs=x.lookahead_epochs, throughput=x.throughput,
            seed=1,
        )
        for x in s
    ]
    merged = merge_samples(s, s, reseeded)
    assert len(merged) == 2 * len(s)  # exact dups collapse, reseeds kept
    assert settings_grid(merged) == {"threads": [1, 2], "depths": [64]}


# ---------------------------------------------------------------- the model
def test_model_fits_and_finds_the_peak():
    model = fitted_model()
    assert model.fitted and model.fit_rmse_rel < 0.05
    t, n, predicted = model.argmax_settings(CONTEXT)
    # The surface increases in both axes: the grid corner wins.
    assert (t, n) == (8, 1024)
    assert predicted == pytest.approx(surface(8, 1024), rel=0.1)


def test_model_argmax_stays_inside_each_kinds_training_grid():
    # posix swept only to t=4; object to t=8.  The posix argmax must not
    # extrapolate into the other kind's thread range.
    samples = grid_samples(kinds=("posix",), threads=(1, 2, 3, 4)) + grid_samples(
        kinds=("object",), threads=(1, 2, 3, 4, 6, 8)
    )
    model = ThroughputModel().fit(samples)
    t_posix, _, _ = model.argmax_settings(CONTEXT)
    t_object, _, _ = model.argmax_settings(
        WorkloadContext(backend_kind="object", batch_size=32)
    )
    assert t_posix <= 4
    assert t_object == 8


def test_model_resource_slack_prefers_lean_settings():
    # A surface flat beyond t=4: within 5% slack the leanest winner is picked.
    samples = [
        PerfSample(threads=t, prefetch_depth=n, batch_size=32,
                   backend_kind="posix", lookahead_epochs=0,
                   throughput=1e8 * min(t, 4) / 4.0)
        for t in (1, 2, 3, 4, 6, 8)
        for n in (64, 256)
    ]
    model = ThroughputModel().fit(samples)
    t, n, lean_pred = model.argmax_settings(CONTEXT, resource_slack=0.05)
    greedy_t, greedy_n, greedy_pred = model.argmax_settings(CONTEXT, resource_slack=0.0)
    assert (t, n) <= (greedy_t, greedy_n)
    assert lean_pred >= 0.95 * greedy_pred


def test_model_envelope_gates_workload_features():
    model = fitted_model()
    assert model.in_envelope(CONTEXT)
    assert not model.in_envelope(WorkloadContext(backend_kind="object", batch_size=32))
    assert not model.in_envelope(WorkloadContext(backend_kind="posix", batch_size=4096))


def test_model_serialization_round_trips_byte_identically(tmp_path):
    model = fitted_model(kinds=("posix", "object"))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    model.save(str(a))
    loaded = ThroughputModel.load(str(a))
    loaded.save(str(b))
    assert a.read_bytes() == b.read_bytes()
    for t in (1, 3, 8):
        assert loaded.predict(t, 256, CONTEXT) == model.predict(t, 256, CONTEXT)
    assert loaded.argmax_settings(CONTEXT) == model.argmax_settings(CONTEXT)


def test_model_rejects_mismatched_schema(tmp_path):
    model = fitted_model()
    blob = model.to_dict()
    blob["schema_version"] = 99
    with pytest.raises(ModelSchemaError, match="schema version"):
        ThroughputModel.from_dict(blob)
    blob = model.to_dict()
    blob["kind"] = "linear_regression"
    with pytest.raises(ModelSchemaError):
        ThroughputModel.from_dict(blob)


def test_model_refuses_tiny_training_sets():
    with pytest.raises(ValueError):
        ThroughputModel().fit(grid_samples(threads=(1,), depths=(64,)))


def test_unfitted_model_refuses_queries():
    model = ThroughputModel()
    assert not model.fitted
    with pytest.raises(ValueError):
        model.predict(2, 64, CONTEXT)
    with pytest.raises(ValueError):
        model.argmax_settings(CONTEXT)


# ---------------------------------------------------------------- PredictivePolicy
def feed(policy, snapshots):
    decisions, prev = [], None
    for s in snapshots:
        decisions.append(policy.decide(s, prev))
        prev = s
    return decisions


def test_predictive_policy_jumps_once_then_refines():
    policy = PredictivePolicy(fitted_model(), CONTEXT)
    # Idle period first: no queue, no jump.
    assert policy.decide(snap(queue=0), None) is None
    first = policy.decide(snap(), None)
    assert first == TuningSettings(producers=8, buffer_capacity=1024)
    assert policy.last_reason == "predictive-jump"
    assert policy.jumped_to[:2] == (8, 1024)
    assert not policy.fell_back


def test_predictive_policy_clamps_jump_to_params():
    params = PredictiveParams(max_producers=4, max_buffer=256)
    policy = PredictivePolicy(fitted_model(), CONTEXT, params=params)
    first = policy.decide(snap(), None)
    assert first == TuningSettings(producers=4, buffer_capacity=256)


def test_predictive_policy_refinement_floor_suppresses_deep_shrinks():
    policy = PredictivePolicy(fitted_model(), CONTEXT)
    policy.decide(snap(), None)  # the jump to t=8
    # Long calm, buffer-full plateau: the embedded refiner wants to walk
    # producers down, but the floor (jump - radius = 7) holds.
    seq = [
        snap(time=float(i + 2), hits=100 * (i + 1), waits=0,
             requests=100 * (i + 1), level=1024, capacity=1024, producers=8,
             bytes_fetched=1e6)
        for i in range(12)
    ]
    decisions = [d for d in feed(policy, seq) if d is not None]
    floors = [d.producers for d in decisions if d.producers is not None]
    assert all(p >= 7 for p in floors)


def test_predictive_policy_fallback_reasons():
    # Unfitted model.
    policy = PredictivePolicy(ThroughputModel(), CONTEXT)
    assert policy.decide(snap(), None) is None or policy.fell_back
    assert policy.fell_back
    assert policy.fallback_reason == "predictive-fallback-unfitted"

    # Out-of-envelope workload (unknown backend kind).
    policy = PredictivePolicy(
        fitted_model(), WorkloadContext(backend_kind="object", batch_size=32)
    )
    policy.decide(snap(), None)
    assert policy.fallback_reason == "predictive-fallback-out-of-envelope"

    # Model that cannot explain its own training data.
    bad = fitted_model()
    bad.fit_rmse_rel = 0.9
    policy = PredictivePolicy(bad, CONTEXT)
    policy.decide(snap(), None)
    assert policy.fallback_reason == "predictive-fallback-low-confidence"


def test_predictive_policy_fallback_delegates_to_reactive():
    fallback = PrismaAutotunePolicy(AutotuneParams(measure_periods=1, settle_periods=1))
    policy = PredictivePolicy(ThroughputModel(), CONTEXT, fallback=fallback)
    seq = [
        snap(time=float(i + 1), hits=0, waits=50 * (i + 1), requests=50 * (i + 1),
             level=0, producers=2, bytes_fetched=1e6 * (i + 1))
        for i in range(3)
    ]
    decisions = [d for d in feed(policy, seq) if d is not None]
    assert any(d.producers == 3 for d in decisions)  # reactive growth came through
    assert policy.fell_back


def test_predictive_policy_sim_live_parity():
    from repro.experiments.predictive import check_live_parity

    model = fitted_model()
    script = [
        snap(time=float(i + 1), requests=100 * (i + 1), hits=90 * (i + 1),
             waits=10 * (i + 1), bytes_fetched=1e6 * (i + 1))
        for i in range(6)
    ]
    assert check_live_parity(script, lambda: PredictivePolicy(model, CONTEXT))


# ---------------------------------------------------------------- plateau regression
def plateau_loop(policy, periods: int, knee: int = 2):
    """Drive a policy against a flat-throughput plateau: added producers
    never raise the fetch rate, and the consumer always starves.  Returns
    the producer-change decisions and the final producer count."""
    t = knee
    rate = 1e6
    fetched = 0.0
    waits = 0
    changes = []
    prev = None
    for i in range(periods):
        fetched += rate  # flat: more producers buy nothing
        waits += 50
        s = snap(time=float(i + 1), hits=0, waits=waits, requests=waits,
                 level=0, producers=t, bytes_fetched=fetched)
        d = policy.decide(s, prev)
        prev = s
        if d is not None and d.producers is not None and d.producers != t:
            changes.append((i, d.producers))
            t = d.producers
    return changes, t


def test_autotune_plateau_reprobes_back_off():
    """At a throughput plateau the reactive tuner must not ping-pong.

    Each failed probe (grow, measure, revert) doubles the re-probe
    backoff, so probe cycles become geometrically sparser: the second
    half of a long plateau sees strictly fewer changes than the first.
    """
    policy = PrismaAutotunePolicy()
    changes, final = plateau_loop(policy, periods=400)
    assert final == 2, "the tuner must settle back at the knee"
    first = [i for i, _ in changes if i < 200]
    second = [i for i, _ in changes if i >= 200]
    assert len(changes) <= 12, f"plateau ping-pong: {len(changes)} changes"
    assert len(second) < len(first), (
        f"re-probes did not back off: {len(first)} then {len(second)}"
    )
    # Probe cycles strictly stretch: gaps between successive grow attempts.
    grows = [i for i, p in changes if p > 2]
    gaps = [b - a for a, b in zip(grows, grows[1:])]
    assert all(b > a for a, b in zip(gaps, gaps[1:])), f"gaps not widening: {gaps}"


def test_damped_autotune_plateau_no_ping_pong():
    policy = OscillationDampedPolicy(PrismaAutotunePolicy(), cooldown_periods=4)
    changes, final = plateau_loop(policy, periods=400)
    assert final == 2
    assert len(changes) <= 12
    # No immediate undo pairs inside the cooldown window.
    for (i1, p1), (i2, p2) in zip(changes, changes[1:]):
        if p2 < p1:  # a revert
            assert i2 - i1 >= 4, f"revert {p1}->{p2} after only {i2 - i1} periods"


# ---------------------------------------------------------------- telemetry labels
def test_control_decisions_carry_feature_labels(tmp_path):
    """The satellite: ``control.decision`` instants are self-describing
    training data — backend kind, batch size, and lookahead ride along
    and survive the JSONL export round trip."""
    from repro.core import StaticPolicy
    from repro.core.integrations import PrismaTensorFlowPipeline
    from repro.dataset.catalog import DatasetCatalog
    from repro.dataset.shuffle import EpochShuffler
    from repro.dataset.synthetic import uniform_sizes
    from repro.frameworks.models import LENET, GpuEnsemble
    from repro.frameworks.training import Trainer, TrainingConfig
    from repro.simcore.random import RandomStreams
    from repro.storage.backend import BackendConfig, build_backend
    from repro.storage.posix import PosixLayer
    from repro.telemetry import Telemetry
    from repro.telemetry.export import write_jsonl

    streams = RandomStreams(0)
    sim = Simulator()
    tel = Telemetry().attach(sim)
    backend = build_backend(sim, BackendConfig(kind="posix"), streams=streams)
    catalog = DatasetCatalog("/data/lbl", uniform_sizes(32, 32 * 65536))
    catalog.materialize(backend)
    stage, _, controller = build_prisma(
        sim, PosixLayer(sim, backend),
        PrismaConfig(
            control_period=1e-3, lookahead_epochs=0,
            policy=StaticPolicy(producers=3, buffer_capacity=128),
        ),
    )
    pipeline = PrismaTensorFlowPipeline(
        sim, catalog, EpochShuffler(32, streams.spawn("sh")), 16, stage, LENET
    )
    Trainer(
        sim, LENET, GpuEnsemble(sim), pipeline,
        TrainingConfig(epochs=1, global_batch=16, validate=False),
    ).run_to_completion()
    controller.stop()

    decisions = [s for s in tel.instants("control") if s.name == "control.decision"]
    assert decisions, "the autotuner made no decisions"
    for d in decisions:
        assert d.args["backend_kind"] == "posix"
        assert d.args["batch_size"] == 16
        assert d.args["lookahead_epochs"] == 0
        assert context_from_decision_args(d.args) == WorkloadContext("posix", 16, 0)

    out = tmp_path / "metrics.jsonl"
    write_jsonl(tel, str(out))
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    exported = [r for r in rows if r["name"] == "control.decision"]
    assert exported and all(
        context_from_decision_args(r["args"]) == WorkloadContext("posix", 16, 0)
        for r in exported
    )


# ---------------------------------------------------------------- end to end
def test_predictive_policy_drives_a_real_stack():
    """A fitted model steers an actual simulated training run: the jump is
    applied through the controller and the stage lands at the predicted
    operating point."""
    from repro.experiments.predictive import run_policy_trial
    from repro.perfmodel.sweep import run_offline_sweep
    from repro.storage.backend import BackendConfig

    config = BackendConfig(kind="posix")
    samples = run_offline_sweep(
        [config], threads_grid=(1, 2, 4), depths_grid=(64, 256),
        n_files=32, file_size=64 * 1024, epochs=1,
    )
    model = ThroughputModel().fit(samples)
    policy = PredictivePolicy(model, CONTEXT)
    trial = run_policy_trial(
        config, policy, "predictive", n_files=48, file_size=64 * 1024,
        epochs=1, control_period=1e-3,
    )
    assert not policy.fell_back
    assert policy.jumped_to is not None
    assert trial.final_producers == policy.jumped_to[0]
    assert trial.steady_throughput > 0
