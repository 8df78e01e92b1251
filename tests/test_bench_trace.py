"""The benchmark's layer trace still sees every layer it predicts.

`perfbench/layers.py` wraps the program's layer functions by name, and each
workload in `perfbench/workloads.py` lists the layers that must record calls
in its run.  Here every workload's manifest, shrunk to a few particles and
cells, runs once untraced and once under the trace in a fresh process, so a
traced name that was dropped, renamed or is no longer called, or a wrapper
that changes what the program computes, fails in the test suite rather than
in a benchmark run.  A second test checks that the traced pool counts the
path bytes the workers send back.  Only reads `perfbench/`.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]

# runs the shrunk manifest untraced, then installs the trace and runs it
# again; prints the traced call counts and both bundle digests
CHILD = """
import json, sys, tempfile
import child, layers, workloads
from levylab.experiments import run
from levylab.manifests import RunManifest

manifest = workloads.WORKLOADS[sys.argv[1]].manifest(workloads.DEFAULT_SEED)
manifest.update(n_particles=40, T=0.2, h=0.05)
rec = layers.Recorder()
with tempfile.TemporaryDirectory() as plain, tempfile.TemporaryDirectory() as traced:
    run(RunManifest.from_dict(manifest), plain)
    layers.install(rec)
    run(RunManifest.from_dict(manifest), traced)
    digests = [child.bundle_digest(plain), child.bundle_digest(traced)]
print(json.dumps({"calls": dict(rec.calls), "digests": digests}))
"""


def run_child(*args):
    """Runs a child script with perfbench/ and src/ on its path."""
    path = os.pathsep.join([str(BENCH), str(ROOT / "src")])
    env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_layers_record_calls(name):
    proc = run_child(CHILD, name)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    silent = [layer for layer in WORKLOADS[name].layers if not result["calls"].get(layer)]
    assert silent == [], f"{name}: traced layers recorded no calls"
    plain, traced = result["digests"]
    assert traced == plain, f"{name}: the traced bundle differs from the untraced one"


# marches a 2-member registry family on two workers under the trace; prints
# the path bytes the traced pool counted in the workers' results
POOL_CHILD = """
import layers
import levylab as L
from levylab import engine
from levylab.measures import TruncationConfig

fam = L.family_from_config({"base": {"name": "ou", "d": 1, "m": 1, "gamma": 0.4,
                                     "params": {"theta": 1.0, "sigma": 1.0}},
                            "drift_perturbation": {"name": "shift", "amp": 1.0},
                            "schedule": [1, 2]})
rec = layers.Recorder()
layers.install(rec)
engine.simulate_coupled_family(fam, L.AtomicLevyMeasure([[0.8]], [2.0]),
                               TruncationConfig(level=0.5), L.GaussianLaw([0.0], [1.0]),
                               8, 0.25, 0.5, seed=3, workers=2)
print(rec.path_bytes)
"""


def test_traced_pool_counts_the_workers_values():
    # a pool task returns the values array alone, which the traced pool
    # sizes: 3 sets x 8 particles x 3 grid slices x d = 1 float64s
    proc = run_child(POOL_CHILD)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) == 3 * 8 * 3 * 8
