"""The benchmark's layer trace still sees every layer it predicts.

`perfbench/layers.py` wraps the program's layer functions by name, and each
workload in `perfbench/workloads.py` lists the layers that must record calls
in its run.  Here every workload's manifest, shrunk to a few particles and
cells, runs once untraced and once under the trace in a fresh process, so a
traced name that was dropped, renamed or is no longer called, or a wrapper
that changes what the program computes, fails in the test suite rather than
in a benchmark run.  Only reads `perfbench/`.
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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_layers_record_calls(name):
    path = os.pathsep.join([str(BENCH), str(ROOT / "src")])
    env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, name], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    silent = [layer for layer in WORKLOADS[name].layers if not result["calls"].get(layer)]
    assert silent == [], f"{name}: traced layers recorded no calls"
    plain, traced = result["digests"]
    assert traced == plain, f"{name}: the traced bundle differs from the untraced one"
