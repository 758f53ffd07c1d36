"""PRISMA reproduction — storage optimization decoupling for DL frameworks.

A full reimplementation of the system from *"The Case for Storage
Optimization Decoupling in Deep Learning Frameworks"* (CLUSTER 2021):
a Software-Defined Storage middleware whose **data plane** provides
self-contained I/O optimizations (parallel prefetching into a bounded
in-memory buffer behind a POSIX facade) and whose **control plane** runs a
feedback auto-tuner over the number of producer threads *t* and buffer
capacity *N* — portable across TensorFlow- and PyTorch-style data loaders.

Layers (bottom-up):

* :mod:`repro.simcore` — discrete-event simulation kernel;
* :mod:`repro.storage` — devices, filesystems, POSIX, distributed PFS;
* :mod:`repro.dataset` — catalogs, synthetic ImageNet, epoch shuffling;
* :mod:`repro.frameworks` — TF/PyTorch input-pipeline + GPU simulators;
* :mod:`repro.core` — **PRISMA** (the paper's contribution) + integrations;
* :mod:`repro.core.live` — a real-threads PRISMA usable on actual files;
* :mod:`repro.perfmodel` — the learned (t, N) → throughput model behind
  :class:`~repro.core.control.policy.PredictivePolicy`;
* :mod:`repro.multitenant` — shared-storage multi-job coordination;
* :mod:`repro.cluster` — sharded peer-to-peer sample serving with a
  cluster-wide cooperative cache;
* :mod:`repro.faults` — deterministic fault injection & chaos schedules;
* :mod:`repro.experiments` — the harness regenerating every paper figure.

Quickstart::

    from repro import quick_demo
    print(quick_demo())
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

# Lazy, so that ``import repro.core.live`` loads no simulator through here.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cluster": ["ClusterConfig", "ClusterMount", "ClusterNode", "ClusterStore", "ShardMap"],
    ".core": [
        "ClairvoyantTieringObject",
        "Controller",
        "DegradedModePolicy",
        "LookaheadSchedule",
        "ParallelPrefetcher",
        "PredictivePolicy",
        "PrismaAutotunePolicy",
        "PrismaConfig",
        "PrismaStage",
        "StaticPolicy",
        "TieringConfig",
        "TieringObject",
        "build_prisma",
    ],
    ".faults": ["FaultEvent", "FaultInjector", "FaultPlan"],
    ".simcore": ["RandomStreams", "Simulator"],
}, own=["__version__", "quick_demo"])


def quick_demo() -> str:
    """Run a tiny PRISMA-vs-baseline comparison; returns a summary string.

    Uses a CI-sized dataset so it completes in well under a second — see
    ``examples/quickstart.py`` for the narrated version.
    """
    from .core import PrismaConfig, build_prisma
    from .core.integrations import PrismaTensorFlowPipeline
    from .dataset.shuffle import EpochShuffler
    from .dataset.synthetic import tiny_dataset
    from .frameworks.models import LENET, GpuEnsemble
    from .frameworks.tensorflow.pipeline import tf_baseline
    from .frameworks.training import Trainer, TrainingConfig
    from .simcore import RandomStreams, Simulator
    from .storage.backend import BackendConfig, build_backend
    from .storage.posix import PosixLayer

    def run(prisma: bool) -> float:
        streams = RandomStreams(0)
        sim = Simulator()
        fs = build_backend(sim, BackendConfig(device_profile="intel-p4600"))
        split = tiny_dataset(streams, n_train=512, n_val=64)
        split.materialize(fs)
        posix = PosixLayer(sim, fs)
        shuffler = EpochShuffler(len(split.train), streams.spawn("t"))
        val_sh = EpochShuffler(len(split.validation), streams.spawn("v"))
        if prisma:
            stage, _, controller = build_prisma(
                sim, posix, PrismaConfig(control_period=0.01)
            )
            train = PrismaTensorFlowPipeline(sim, split.train, shuffler, 32, stage, LENET)
        else:
            controller = None
            train = tf_baseline(sim, split.train, shuffler, 32, posix, LENET)
        val = tf_baseline(sim, split.validation, val_sh, 32, posix, LENET, name="val")
        trainer = Trainer(
            sim, LENET, GpuEnsemble(sim), train,
            TrainingConfig(epochs=2, global_batch=32), val,
            setup="prisma" if prisma else "baseline",
        )
        result = trainer.run_to_completion()
        if controller is not None:
            controller.stop()
        return result.total_time

    baseline = run(prisma=False)
    prisma = run(prisma=True)
    return (
        f"baseline={baseline:.3f}s prisma={prisma:.3f}s "
        f"reduction={100 * (1 - prisma / baseline):.0f}%"
    )
