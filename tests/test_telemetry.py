"""The unified telemetry subsystem: hub, registry, export, and shims.

Covers the :mod:`repro.telemetry` public API — span recording with lane
allocation, the labelled metrics registry every simulator owns, the
Chrome-trace exporter and its validator — plus the contract with
downstream users: traced experiment runs are byte-reproducible under a
fixed seed, the legacy import paths are gone, and importing repro raises
no deprecation warning.
"""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.core import PrismaConfig, StaticPolicy, build_prisma
from repro.core.buffer import PrefetchBuffer
from repro.experiments import ExperimentScale, figure2_scale, run_tf_trial
from repro.experiments.cluster import run_cluster_serving
from repro.frameworks.models import LENET
from repro.simcore import Simulator
from repro.storage import (
    BlockDevice,
    Filesystem,
    PageCache,
    PosixLayer,
    intel_p4600,
    ramdisk,
    sata_hdd,
)
from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
    write_csv,
    write_jsonl,
)

TEST_SCALE = ExperimentScale(scale=400, epochs=1)
TEST_BATCH = 32

SRC = str(Path(__file__).resolve().parent.parent / "src")


# ---------------------------------------------------------------- registry
def test_registry_counter_gauge_histogram():
    reg = MetricsRegistry()
    reg.counter("reads_total", device="nvme0").inc()
    reg.counter("reads_total", device="nvme0").inc(2)
    reg.gauge("occupancy").set(7)
    for v in (0.1, 0.2, 0.3, 0.4):
        reg.histogram("latency").observe(v)
    assert reg.counter("reads_total", device="nvme0").value == 3
    assert reg.gauge("occupancy").value == 7
    assert reg.histogram("latency").mean == pytest.approx(0.25)
    assert reg.histogram("latency").percentile(100) == pytest.approx(0.4)


def test_registry_interns_by_name_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("hits", cache="page")
    b = reg.counter("hits", cache="page")
    c = reg.counter("hits", cache="block")
    assert a is b
    assert a is not c
    assert len(reg) == 2


def test_registry_counters_reject_negative():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("ops").inc(-1)


def test_counters_live_in_the_simulators_registry_untraced():
    """Every layer counts into ``sim.metrics``, with no hub attached."""
    sim = Simulator()
    cache = PageCache(sim, 0.0)
    twin = PageCache(sim, 0.0)  # same name: the second counts apart
    buf = PrefetchBuffer(sim, capacity=4)
    fs = Filesystem(sim, BlockDevice(sim, ramdisk()))
    fs.create("/f", 0)

    def drive():
        cache.lookup("/a")
        cache.lookup("/b")
        twin.lookup("/a")
        yield buf.insert("/s", 1024)
        _hit, fetched = buf.request("/s")
        yield fetched
        yield fs.write("/f", 4096)

    sim.process(drive())
    sim.run()
    assert sim.telemetry is None
    counter = sim.metrics.counter
    assert cache.counters.get("misses") == 2
    assert twin.counters.get("misses") == 1
    assert counter("storage.misses_total", object="pagecache").value == 2
    assert counter("storage.misses_total", object="pagecache#1").value == 1
    for key in ("inserts", "hits"):
        assert buf.counters.get(key) == 1
        assert counter(f"prefetch.{key}_total", object="prisma.buffer").value == 1
    assert fs.counters.get("write_bytes") == 4096
    assert counter("storage.write_bytes_total", object="fs").value == 4096
    assert counter("storage.write_bytes_total", object="dev0").value == 4096


def test_registry_outlives_detach():
    """The hub reads its simulator's registry, also after the run detaches."""
    tel = Telemetry()
    report = run_cluster_serving(
        0, n_nodes=4, n_files=32, file_size=64 * 1024, epochs=2, telemetry=tel
    )
    backing = tel.registry.counter("cluster.backing_reads_total", object="cluster")
    assert backing.value == report.backing_reads == 32


def test_readme_serve_latency_histogram():
    """README's tracing example: the histogram of one quick LeNet trial."""
    tel = Telemetry()
    run_tf_trial("tf-prisma", LENET, 256, figure2_scale(quick=True), telemetry=tel)
    hist = tel.registry.histogram("prisma.serve_latency_seconds", object="prisma.prefetch")
    assert hist.summary()["count"] == 6405


def test_registry_collect_is_deterministic():
    def build():
        reg = MetricsRegistry()
        reg.counter("b_total", z="2").inc()
        reg.counter("a_total").inc(4)
        reg.gauge("g", node="n1").set(2)
        reg.histogram("h").observe(0.5)
        return reg.collect()

    assert build() == build()


# ---------------------------------------------------------------- hub / spans
def test_span_records_sim_time_and_args():
    sim = Simulator()
    tel = Telemetry().attach(sim)

    def proc():
        span = tel.begin("work", "worker", "test", path="/a")
        yield sim.timeout(1.5)
        tel.end(span, ok=True)

    sim.process(proc())
    sim.run()
    (span,) = tel.spans("test")
    assert (span.start, span.end) == (0.0, 1.5)
    assert span.duration == pytest.approx(1.5)
    assert span.args == {"path": "/a", "ok": True}


def test_concurrent_spans_get_distinct_lanes():
    sim = Simulator()
    tel = Telemetry().attach(sim)
    a = tel.begin("r", "dev", "test", lane=True)
    b = tel.begin("r", "dev", "test", lane=True)
    assert (a.track, b.track) == ("dev/0", "dev/1")
    tel.end(a)
    c = tel.begin("r", "dev", "test", lane=True)  # freed lane is reused
    assert c.track == "dev/0"


def test_nested_span_leaves_its_parents_lane_held():
    """``dev.seek_wait`` and ``dev.transfer`` open on their read's lane
    without owning it, so ending them must not free that lane for the next
    read while the read itself is still in flight."""
    sim = Simulator()
    tel = Telemetry().attach(sim)
    device = BlockDevice(sim, sata_hdd())

    def read_at(start):
        yield sim.timeout(start)
        yield device.read(4 * 1024 * 1024)

    for start in (0.0, 0.0, 1e-3):
        sim.process(read_at(start))
    sim.run()
    reads = [s for s in tel.spans("storage") if s.name == "dev.seqread"]
    assert len(reads) == 3
    for i, a in enumerate(reads):
        for b in reads[i + 1:]:
            if a.start < b.end and b.start < a.end:
                assert a.track != b.track, (a, b)
    assert validate_chrome_trace({"traceEvents": chrome_trace_events(tel)}) is None


@pytest.mark.parametrize("through_fs", [False, True])
def test_device_read_chained_from_a_completion_reuses_its_lane(through_fs):
    """A device request's spans close before its caller's callbacks run,
    so a reader that issues its next read from the completion callback
    finds the lane free, as a reader resuming one event later did."""
    sim = Simulator()
    tel = Telemetry().attach(sim)
    device = BlockDevice(sim, intel_p4600())
    fs = Filesystem(sim, device)
    fs.create("/f", 4096)

    def issue(reads_left):
        read = fs.read_whole("/f") if through_fs else device.read(4096)
        if reads_left > 1:
            read.add_callback(lambda _ev: issue(reads_left - 1))

    issue(3)
    sim.run()
    tracks = [s.track for s in tel.events if s.name in ("dev.read", "dev.transfer")]
    assert len(tracks) == 6
    assert set(tracks) == {"storage.dev0/0"}


def test_context_threads_trace_id_through_spans():
    sim = Simulator()
    tel = Telemetry().attach(sim)
    ctx = tel.new_context("/data/1")
    with tel.with_context(ctx):
        inner = tel.begin("serve", "stage", "test")
        tel.end(inner)
    outer = tel.begin("other", "stage", "test")
    assert inner.trace_id == ctx.trace_id
    assert outer.trace_id is None


def test_instants_and_samples_are_recorded():
    sim = Simulator()
    tel = Telemetry().attach(sim)
    tel.instant("cache.hit", "cache", "storage", path="/x")
    tel.sample("buffer.occupancy", 12)
    assert len(tel.instants("storage")) == 1
    assert tel.counter_samples[0].value == 12.0


def test_max_events_drops_instead_of_growing():
    sim = Simulator()
    tel = Telemetry(max_events=2).attach(sim)
    for _ in range(5):
        tel.instant("e", "t", "test")
    assert len(tel.events) == 2
    assert tel.dropped == 3


def test_detach_restores_disabled_mode():
    sim = Simulator()
    tel = Telemetry().attach(sim)
    assert sim.telemetry is tel
    tel.detach()
    assert sim.telemetry is None


# ---------------------------------------------------------------- instrumented stack
def _tiny_stack():
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, ramdisk()))
    paths = [f"/data/{i}" for i in range(8)]
    fs.create_many((p, 4096) for p in paths)
    return sim, PosixLayer(sim, fs), paths


def test_prisma_stack_emits_spans_from_every_layer():
    sim, posix, paths = _tiny_stack()
    tel = Telemetry().attach(sim)
    stage, prefetcher, controller = build_prisma(
        sim, posix,
        PrismaConfig(control_period=1e-3, policy=StaticPolicy(2, 64)),
    )
    stage.load_epoch(paths)

    def consumer():
        for p in paths:
            yield stage.read_whole(p)

    sim.process(consumer())
    sim.run(until=sim.timeout(1.0))
    controller.stop()
    cats = set(tel.categories())
    assert {"storage", "prefetcher", "buffer", "control", "stage"} <= cats
    names = {s.name for s in tel.events}
    assert {"stage.read", "prefetch.fetch", "prefetch.serve", "buffer.insert",
            "control.monitor", "control.enforce", "control.decision"} <= names
    # stage reads carry a trace_id that the prefetcher serve spans inherit
    stage_ids = {s.trace_id for s in tel.spans("stage")}
    serve_ids = {s.trace_id for s in tel.spans("prefetcher") if s.name == "prefetch.serve"}
    assert stage_ids and serve_ids <= stage_ids


def test_disabled_telemetry_leaves_no_trace():
    sim, posix, paths = _tiny_stack()
    stage, prefetcher, controller = build_prisma(
        sim, posix, PrismaConfig(control_period=1e-3)
    )
    stage.load_epoch(paths)

    def consumer():
        for p in paths:
            yield stage.read_whole(p)

    sim.process(consumer())
    sim.run(until=sim.timeout(1.0))
    controller.stop()
    assert sim.telemetry is None  # nothing attached, nothing recorded


# ---------------------------------------------------------------- chrome export
def _traced_trial(tmp_path, filename):
    tel = Telemetry()
    run_tf_trial("tf-prisma", LENET, TEST_BATCH, TEST_SCALE, seed=3, telemetry=tel)
    out = tmp_path / filename
    stats = write_chrome_trace(tel, str(out))
    return tel, out, stats


def test_chrome_trace_round_trip_is_valid(tmp_path):
    tel, out, stats = _traced_trial(tmp_path, "trial.json")
    doc = json.loads(out.read_text())
    assert validate_chrome_trace(doc) is None
    assert stats["events"] == len(doc["traceEvents"])
    assert stats["unfinished_spans"] == 0
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert {"M", "B", "E", "i", "C"} <= phases
    cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] in ("B", "i")}
    assert {"storage", "prefetcher", "buffer", "control"} <= cats


def test_chrome_trace_b_e_pairs_match(tmp_path):
    _, out, _ = _traced_trial(tmp_path, "pairs.json")
    doc = json.loads(out.read_text())
    depth = {}
    for event in doc["traceEvents"]:
        if event["ph"] not in ("B", "E"):
            continue
        key = (event["pid"], event["tid"])
        depth[key] = depth.get(key, 0) + (1 if event["ph"] == "B" else -1)
        assert depth[key] >= 0, f"E before B on {key}"
    assert all(v == 0 for v in depth.values())


def test_chrome_trace_is_byte_identical_across_same_seed_runs(tmp_path):
    _, first, _ = _traced_trial(tmp_path, "a.json")
    _, second, _ = _traced_trial(tmp_path, "b.json")
    assert first.read_bytes() == second.read_bytes()


def test_validate_chrome_trace_flags_problems():
    assert validate_chrome_trace({}) is not None
    assert validate_chrome_trace({"traceEvents": [{"ph": "Q"}]}) is not None
    unbalanced = {
        "traceEvents": [
            {"ph": "E", "pid": "p", "tid": "t", "name": "x", "ts": 0.0},
        ]
    }
    assert validate_chrome_trace(unbalanced) is not None
    crossed = {
        "traceEvents": [
            {"ph": "B", "pid": "p", "tid": "t", "name": "outer", "ts": 0.0},
            {"ph": "B", "pid": "p", "tid": "t", "name": "inner", "ts": 1.0},
            {"ph": "E", "pid": "p", "tid": "t", "name": "outer", "ts": 2.0},
            {"ph": "E", "pid": "p", "tid": "t", "name": "inner", "ts": 3.0},
        ]
    }
    assert "closes open B 'inner'" in validate_chrome_trace(crossed)


def test_flat_exports_cover_all_events(tmp_path):
    sim = Simulator()
    tel = Telemetry().attach(sim)
    with tel.span("s", "track", "test"):
        tel.instant("i", "track", "test")
    tel.sample("occupancy", 3)
    write_jsonl(tel, str(tmp_path / "t.jsonl"))
    write_csv(tel, str(tmp_path / "t.csv"))
    rows = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
    kinds = {r["kind"] for r in rows}
    assert kinds == {"span", "instant", "counter"}
    header = (tmp_path / "t.csv").read_text().splitlines()[0]
    assert header.startswith("kind,")


def test_multi_run_traces_get_one_pid_per_process_label():
    tel = Telemetry()
    for seed in (0, 1):
        sim = Simulator()
        tel.attach(sim, process=f"trial/seed{seed}")
        tel.instant("tick", "t", "test")
    tel.detach()
    events = chrome_trace_events(tel)
    names = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert names == {"trial/seed0", "trial/seed1"}
    # the two instants land in distinct Chrome process groups
    assert len({e["pid"] for e in events if e["ph"] == "i"}) == 2


# ---------------------------------------------------------------- config redesign
def test_build_prisma_accepts_typed_config():
    sim, posix, _ = _tiny_stack()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stage, prefetcher, controller = build_prisma(
            sim, posix, PrismaConfig(control_period=0.01, producers=3)
        )
    assert controller.period == 0.01
    controller.stop()


def test_build_prisma_rejects_legacy_kwargs():
    sim, posix, _ = _tiny_stack()
    with pytest.raises(TypeError):
        build_prisma(sim, posix, control_period=0.02)


def test_prisma_config_validates_fields():
    with pytest.raises(ValueError):
        PrismaConfig(control_period=0)
    with pytest.raises(ValueError):
        PrismaConfig(producers=0)
    with pytest.raises(ValueError):
        PrismaConfig(producers=4, max_producers=2)
    assert PrismaConfig().with_overrides(buffer_capacity=64).buffer_capacity == 64


# ---------------------------------------------------------------- legacy paths stay dead
@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.simcore", "CounterSet"),
        ("repro.simcore", "Tracer"),
        ("repro.metrics.timeseries", "LatencyRecorder"),
        ("repro.metrics", "LatencySummary"),
        ("repro.core.control", "MetricsSnapshot"),
    ],
)
def test_legacy_import_paths_are_gone(module, name):
    """The PR-3/PR-7 deprecation shims were removed, not just silenced."""
    import importlib

    mod = importlib.import_module(module)
    with pytest.raises(AttributeError):
        getattr(mod, name)


def test_internal_modules_do_not_use_legacy_paths():
    """Importing all of repro under -W error must raise no DeprecationWarning."""
    code = (
        "import pkgutil, importlib\n"
        "import repro\n"
        "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if m.name.endswith('__main__'):\n"
        "        continue  # importing it would run the CLI\n"
        "    importlib.import_module(m.name)\n"
        "print('clean')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "clean" in proc.stdout


# ---------------------------------------------------------------- public API
def test_subpackages_export_explicit_all():
    import repro
    import repro.cluster
    import repro.core
    import repro.metrics
    import repro.simcore
    import repro.storage
    import repro.telemetry

    for pkg in (repro, repro.cluster, repro.core, repro.metrics, repro.simcore,
                repro.storage, repro.telemetry):
        assert isinstance(getattr(pkg, "__all__", None), list), pkg.__name__
        for name in pkg.__all__:
            assert getattr(pkg, name) is not None, f"{pkg.__name__}.{name}"
