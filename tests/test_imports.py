"""What importing the package loads, each checked in a fresh interpreter.

The live plane is a library a training script links, so importing it must
not load the simulator or numpy (DESIGN §2, the import rule).  numpy loads
only where arrays or RNG streams are built, and a simulation builds its
streams while it sets up: the first ``Simulator.run``, where the benchmark
starts its clock, must find numpy already loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: packages the live plane must not load
SIMULATOR_PACKAGES = ("repro.simcore", "repro.storage", "repro.cluster", "repro.faults")


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True,
        check=True, timeout=300,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_live_plane_loads_no_simulator_and_no_numpy():
    loaded = run_fresh(
        "import json, sys\n"
        "import repro.core.live\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    simulator = [
        m for m in loaded if any(m == p or m.startswith(p + ".") for p in SIMULATOR_PACKAGES)
    ]
    assert simulator == []
    assert "numpy" not in loaded
    assert "repro.core.live.dataloader" in loaded  # the probe imported the plane


def test_every_lazy_export_resolves_from_a_fresh_interpreter():
    result = run_fresh(
        "import importlib, json\n"
        "missing = []\n"
        "for package in ('repro', 'repro.core', 'repro.core.control'):\n"
        "    names = importlib.import_module(package).__all__\n"
        "    for name in names:\n"
        "        try:\n"
        "            exec(f'from {package} import {name}')\n"
        "        except ImportError as exc:\n"
        "            missing.append(f'{package}.{name}: {exc}')\n"
        "print(json.dumps(missing))\n"
    )
    assert result == []


def test_importing_every_module_leaves_numpy_unloaded():
    result = run_fresh(
        "import importlib, json, pkgutil, sys\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages(repro.__path__, 'repro.')\n"
        "         if not m.name.endswith('__main__')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps({'modules': len(names), 'numpy': 'numpy' in sys.modules}))\n"
    )
    assert result["modules"] > 100
    assert not result["numpy"]


RUNNERS = {
    "run_cluster_serving": (
        "from repro.experiments.cluster import run_cluster_serving\n"
        "go = lambda: run_cluster_serving(0, n_nodes=4, n_files=32, epochs=1)\n"
    ),
    "run_tf_trial": (
        "from repro.experiments.config import ExperimentScale\n"
        "from repro.experiments.runner import run_tf_trial\n"
        "from repro.frameworks.models import LENET\n"
        "go = lambda: run_tf_trial('tf-prisma', LENET, 32, ExperimentScale(scale=1000, epochs=1))\n"
    ),
    "run_write_workloads": (
        "from repro.experiments.writes import run_write_workloads\n"
        "go = lambda: run_write_workloads(0, n_files=32, epochs=1)\n"
    ),
}


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_a_simulation_loads_numpy_before_its_first_run(runner):
    result = run_fresh(
        "import json, sys\n"
        "from repro.simcore import Simulator\n"
        + RUNNERS[runner]
        + "seen = []\n"
        "run = Simulator.run\n"
        "def first_run(sim, until=None):\n"
        "    if not seen:\n"
        "        seen.append('numpy' in sys.modules)\n"
        "    return run(sim, until)\n"
        "Simulator.run = first_run\n"
        "before = 'numpy' in sys.modules\n"
        "go()\n"
        "print(json.dumps({'before': before, 'at_first_run': seen}))\n"
    )
    assert result["before"] is False  # importing the runner did not load it
    assert result["at_first_run"] == [True]
