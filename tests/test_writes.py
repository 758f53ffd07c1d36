"""Write-path workload tests: interference, burst windows, the experiment.

Covers the checkpoint-vs-read contention machinery the ``repro writes``
experiment is built on: ``write_windows`` / ``time_in_windows`` burst
accounting, the read-throughput dip during synchronous checkpoints on an
interference-enabled device, checkpoint writers over every backend kind,
and the experiment + CLI surface.
"""

import json
import math

import pytest

from repro.dataset import SequentialOrder, tiny_dataset
from repro.experiments.writes import (
    WRITE_CONFIGS,
    WRITE_SETUPS,
    _ReadMeter,
    backend_config_for,
    format_writes,
    run_write_trial,
    run_write_workloads,
)
from repro.frameworks import GpuEnsemble, LENET, Trainer, TrainingConfig
from repro.frameworks.checkpoint import (
    CHECKPOINT_BYTES,
    CheckpointConfig,
    CheckpointWriter,
)
from repro.frameworks.tensorflow import tf_baseline
from repro.simcore import RandomStreams, Simulator
from repro.storage import (
    BackendConfig,
    BlockDevice,
    DistributedFilesystem,
    Filesystem,
    ObjectStore,
    PosixLayer,
    build_backend,
    ramdisk,
    s3_like,
)
from repro.telemetry import Telemetry

KiB = 1024


def make_env(backend=None, n_train=64):
    streams = RandomStreams(0)
    sim = Simulator()
    backend = backend or Filesystem(sim, BlockDevice(sim, ramdisk()))
    if backend == "mixed":
        backend = build_backend(
            sim, BackendConfig(write_penalty=0.45), streams=streams
        )
    split = tiny_dataset(streams, n_train=n_train, n_val=8)
    split.materialize(backend)
    posix = PosixLayer(sim, backend)
    return sim, backend, posix, split


def make_trainer(sim, posix, split, checkpointer, epochs=1, batch=8):
    src = tf_baseline(
        sim, split.train, SequentialOrder(len(split.train)), batch, posix, LENET
    )
    val = tf_baseline(
        sim, split.validation, SequentialOrder(8), batch, posix, LENET, name="v"
    )
    return Trainer(
        sim, LENET, GpuEnsemble(sim), src,
        TrainingConfig(epochs=epochs, global_batch=batch), val,
        checkpointer=checkpointer,
    )


# ---------------------------------------------------------------- byte hygiene
def test_checkpoint_bytes_are_whole_ints():
    for model, nbytes in CHECKPOINT_BYTES.items():
        assert isinstance(nbytes, int) and not isinstance(nbytes, bool), model
        assert nbytes > 0


def test_checkpoint_config_coerces_integral_floats():
    assert CheckpointConfig(every_steps=1, nbytes=0.75e6).nbytes == 750_000
    assert isinstance(CheckpointConfig(every_steps=1, nbytes=5e5).nbytes, int)
    for bad in (1.5, math.nan, math.inf, -math.inf, True, "1000"):
        with pytest.raises(ValueError):
            CheckpointConfig(every_steps=1, nbytes=bad)


# ---------------------------------------------------------------- burst windows
def test_write_windows_and_time_in_windows():
    sim, fs, posix, split = make_env()
    writer = CheckpointWriter(sim, fs, CheckpointConfig(every_steps=4, nbytes=10_000_000))
    trainer = make_trainer(sim, posix, split, writer)
    trainer.run_to_completion()
    assert writer.checkpoints_written == 2
    assert len(writer.write_windows) == 2
    for start, end in writer.write_windows:
        assert end > start >= 0.0
    total = writer.time_in_windows(0.0, sim.now)
    assert total == pytest.approx(
        sum(end - start for start, end in writer.write_windows)
    )
    # Clipping: a range before the first burst covers nothing.
    first_start = min(start for start, _ in writer.write_windows)
    assert writer.time_in_windows(0.0, first_start) == 0.0


def test_time_in_windows_merges_overlaps():
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, ramdisk()))
    writer = CheckpointWriter(sim, fs, CheckpointConfig(every_steps=1, nbytes=1))
    writer.write_windows = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]
    assert writer.time_in_windows(0.0, 10.0) == pytest.approx(4.0)
    assert writer.time_in_windows(0.0, 2.5) == pytest.approx(2.5)
    assert writer.time_in_windows(4.0, 10.0) == pytest.approx(1.0)


# ---------------------------------------------------------------- telemetry
def test_checkpoint_writes_emit_spans_and_counter():
    sim = Simulator()
    tel = Telemetry().attach(sim)
    fs = Filesystem(sim, BlockDevice(sim, ramdisk()))
    streams = RandomStreams(0)
    split = tiny_dataset(streams, n_train=64, n_val=8)
    split.materialize(fs)
    posix = PosixLayer(sim, fs)
    writer = CheckpointWriter(
        sim, fs, CheckpointConfig(every_steps=4, nbytes=2_000_000, synchronous=False)
    )
    trainer = make_trainer(sim, posix, split, writer)
    trainer.run_to_completion()
    ckpt_spans = [s for s in tel.spans("storage") if s.name == "ckpt.write"]
    assert len(ckpt_spans) == writer.checkpoints_written == 2
    # lane=True suffixes a private sub-lane onto the requested track
    assert all(s.track.startswith("train.ckpt") for s in ckpt_spans)
    assert {s.args["mode"] for s in ckpt_spans} == {"async"}
    counter = tel.registry.counter("storage.write_bytes_total", object=fs.name)
    assert counter.value == writer.bytes_written == 2 * 2_000_000
    tel.detach()


# ---------------------------------------------------------------- backends
def test_checkpoint_writer_over_object_store():
    sim = Simulator()
    store = ObjectStore(sim, s3_like())
    streams = RandomStreams(0)
    split = tiny_dataset(streams, n_train=32, n_val=8)
    split.materialize(store)
    posix = PosixLayer(sim, store)
    writer = CheckpointWriter(sim, store, CheckpointConfig(every_steps=2, nbytes=1_000_000))
    trainer = make_trainer(sim, posix, split, writer)
    trainer.run_to_completion()
    assert writer.checkpoints_written == 2
    assert store.bytes_written() == 2_000_000
    for path in store.list_prefix("/ckpt/"):
        assert store.stat(path).size == 1_000_000


def test_checkpoint_writer_over_distributed_fs():
    sim = Simulator()
    pfs = DistributedFilesystem(sim, n_targets=4, target_profile=ramdisk())
    streams = RandomStreams(0)
    split = tiny_dataset(streams, n_train=32, n_val=8)
    split.materialize(pfs)
    posix = PosixLayer(sim, pfs)
    writer = CheckpointWriter(sim, pfs, CheckpointConfig(every_steps=2, nbytes=1_000_000))
    trainer = make_trainer(sim, posix, split, writer)
    trainer.run_to_completion()
    assert writer.checkpoints_written == 2
    assert pfs.bytes_written() == 2_000_000


# ---------------------------------------------------------------- interference
def test_sync_checkpoint_dips_read_throughput_then_recovers():
    """On an interference-enabled device, reads stall during a sync burst.

    Measured exactly as the experiment does: cumulative device read bytes
    inside vs outside the checkpoint write windows.
    """
    sim, fs, posix, split = make_env(backend="mixed", n_train=256)
    writer = CheckpointWriter(
        sim, fs, CheckpointConfig(every_steps=8, nbytes=64_000_000)
    )
    samples = []

    def sampler():
        while True:
            yield sim.timeout(2e-4)
            samples.append((sim.now, fs.bytes_read()))

    sim.process(sampler(), name="sampler")
    trainer = make_trainer(sim, posix, split, writer, batch=8)
    trainer.run_to_completion()
    assert writer.checkpoints_written >= 2
    samples.append((sim.now, fs.bytes_read()))

    def bytes_at(t):
        prev_t, prev_v = 0.0, 0.0
        for st, sv in samples:
            if st >= t:
                if st == prev_t:
                    return sv
                return prev_v + (sv - prev_v) * (t - prev_t) / (st - prev_t)
            prev_t, prev_v = st, sv
        return samples[-1][1]

    burst_time = writer.time_in_windows(0.0, sim.now)
    burst_read = sum(bytes_at(end) - bytes_at(start) for start, end in writer.write_windows)
    assert burst_time > 0
    steady_time = sim.now - burst_time
    steady_read = fs.bytes_read() - burst_read
    burst_rate = burst_read / burst_time
    steady_rate = steady_read / steady_time
    # The dip: read throughput during sync bursts falls well below the
    # steady rate (consumer stalled, buffer full, device penalized) ...
    assert burst_rate < 0.6 * steady_rate
    # ... and recovers: the run completes with all reads served.
    assert fs.bytes_read() >= split.train.total_bytes()


def test_read_meter_records_the_grid_a_sampler_sees():
    """Sampling at read completions, the meter records the same curve as
    a process waking every millisecond to read ``bytes_read()``."""
    sim, fs, _posix, split = make_env(backend="mixed", n_train=128)
    meter = _ReadMeter(sim, fs, 1e-3)
    writer = CheckpointWriter(sim, fs, CheckpointConfig(every_steps=4, nbytes=16_000_000))
    times, values = [0.0], [0.0]

    def sampler():
        while True:
            yield sim.timeout(1e-3)
            times.append(sim.now)
            values.append(float(fs.bytes_read()))

    sim.process(sampler(), name="sampler")
    make_trainer(sim, PosixLayer(sim, meter), split, writer, batch=8).run_to_completion()
    meter.finalize()
    times.append(sim.now)
    values.append(float(fs.bytes_read()))
    assert writer.checkpoints_written >= 2 and len(times) > 100
    assert meter.times == times
    assert meter.values == values


# ---------------------------------------------------------------- experiment
def test_backend_config_for_names():
    assert backend_config_for("posix-read").kind == "posix"
    assert backend_config_for("posix-read").write_penalty is None
    assert backend_config_for("posix-mixed", 0.3).write_penalty == pytest.approx(0.3)
    assert backend_config_for("object-mixed").kind == "object"
    with pytest.raises(ValueError):
        backend_config_for("tape-mixed")


QUICK = dict(n_files=128, epochs=1, ckpt_every=4, ckpt_bytes=24_000_000, batch_size=16)


def test_write_trial_interference_and_win():
    sync = run_write_trial("posix-mixed", "prisma-sync", **QUICK)
    async_ = run_write_trial("posix-mixed", "prisma-async", **QUICK)
    assert sync.checkpoints == async_.checkpoints > 0
    assert sync.ckpt_stall_time > 0 and async_.ckpt_stall_time == 0.0
    assert async_.sim_seconds < sync.sim_seconds
    assert async_.burst_read_throughput > sync.burst_read_throughput


def test_write_trial_object_store_runs_via_config():
    trial = run_write_trial("object-mixed", "prisma-async", **QUICK)
    assert trial.checkpoints > 0
    assert trial.write_bytes == trial.checkpoints * QUICK["ckpt_bytes"]
    assert trial.read_bytes > 0


def test_write_workloads_matrix_and_determinism():
    kwargs = dict(configs=("posix-mixed",), setups=WRITE_SETUPS, **QUICK)
    report = run_write_workloads(**kwargs)
    repeat = run_write_workloads(**kwargs)
    assert report.metrics_dict() == repeat.metrics_dict()
    assert [t.setup for t in report.trials] == list(WRITE_SETUPS)
    json.dumps(report.metrics_dict())  # JSON-serializable
    text = format_writes(report)
    assert "posix-mixed" in text and "burst-window reads" in text


def test_write_configs_cover_read_only_control():
    trial = run_write_trial("posix-read", "prisma-async", **QUICK)
    assert trial.checkpoints == 0
    assert trial.write_bytes == 0
    assert trial.burst_time == 0.0
    assert trial.burst_read_throughput == 0.0
    with pytest.raises(ValueError):
        run_write_trial("posix-read", "prisma-turbo", **QUICK)


def test_write_matrix_event_budget(kernel_probe):
    """The nine-cell write matrix costs at most 7.5 kernel events per
    sample read (6.63 measured): the TF pipeline's stages hand off by
    callback rather than through stores, and the read meter samples at
    read completions instead of waking every simulated millisecond.  Counted
    the way the benchmark probe counts them."""
    report = run_write_workloads(0, n_files=64, epochs=2)
    samples = len(report.trials) * 64 * 2
    assert len(report.trials) == 9
    assert all(t.read_bytes == 64 * report.file_size * 2 for t in report.trials)
    assert kernel_probe.events / samples <= 7.5


def test_write_matrix_call_budget(package_calls):
    """The same nine-cell write matrix makes at most 90 calls into the
    package per sample read (77.3 measured on Python 3.11; 79.4 with a
    ``DatasetCatalog.path()`` call per sample in the reader and in the
    filenames seam, 96.0 with producer processes, before the per-sample
    chain was trimmed).
    Counted with cProfile by the shared fixture, comprehensions aside."""
    report, calls = package_calls(run_write_workloads, 0, n_files=64, epochs=2)
    samples = len(report.trials) * 64 * 2
    assert calls / samples <= 90


def test_writes_cli_smoke(capsys):
    from repro.cli import main

    code = main(["writes", "--quick", "--files", "96", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "write-path workloads" in out
    for config in WRITE_CONFIGS:
        assert config in out
