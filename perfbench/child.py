"""One repetition of a workload, in a fresh process.

Usage: python3 perfbench/child.py '<spec json>'

The spec names the manifest file, the bundle directory, the worker count,
and whether to trace or only to set up.  The process times its own set-up
(importing levylab and its `run` entry point, loading the manifest and
validating it), then times `levylab.experiments.run`, checks the bundle,
and prints one JSON object as the last line of standard output.  Four
times a second, from a timer signal, it also times a fixed pure-Python
kernel, which measures how fast the machine runs Python while the set-up
and the run happen; the kernel's time is taken out of their timings.

Exit code 0 means a result was printed, including a run that raised (its
error is reported and counts as failed).  Exit code 3 means the trace could
not be installed because a traced name no longer exists.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback

# run_info.json holds wall-clock metadata: the one bundle file that may
# differ between runs of the same manifest.
VOLATILE = {"run_info.json"}


def bundle_digest(out_dir: str) -> str:
    """sha256 over the names and bytes of every deterministic bundle file."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name in VOLATILE:
            continue
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def bundle_problems(out_dir: str, tables: dict, manifest) -> list[str]:
    """Missing tables, wrong row counts, non-finite values, wrong summary."""
    problems = []
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    if summary["kind"] != manifest.kind or summary["seed"] != manifest.seed:
        problems.append("summary.json names another kind or seed")
    if sorted(summary["tables"]) != sorted(tables):
        problems.append(f"tables {summary['tables']} != expected {sorted(tables)}")
    for v in summary["verdicts"].values():
        if isinstance(v, float) and not math.isfinite(v):
            problems.append(f"non-finite verdict value {v}")
    for name, rows_expected in tables.items():
        path = os.path.join(out_dir, f"{name}.csv")
        if not os.path.exists(path):
            problems.append(f"{name}.csv missing")
            continue
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        if not rows or (rows_expected is not None and len(rows) != rows_expected):
            problems.append(f"{name}.csv has {len(rows)} rows")
        for row in rows:
            cells = dict(zip(header, row))
            for column, cell in cells.items():
                try:
                    value = float(cell)
                except ValueError:
                    continue                    # labels and booleans
                # a martingale bin with one path has no s.e.: the program
                # writes inf there and leaves the bin unscored
                if column == "se" and value == math.inf and cells.get("scored") == "False":
                    continue
                if not math.isfinite(value):
                    problems.append(f"{name}.csv holds non-finite {column} {cell}")
    return problems


def _kernel() -> int:
    total = 0
    for i in range(20_000):
        total += (i * i) % 7
    return total


class Speedometer:
    """Times the fixed kernel (1-2 ms) every INTERVAL_S from a SIGALRM
    handler, and once on entry and on exit.  Python runs the handler between
    bytecodes of the main thread, so the samples cover the work as it runs.
    `spent` is the kernel time so far, which the timings subtract."""

    INTERVAL_S = 0.25

    def __init__(self):
        self.samples = []

    @property
    def spent(self) -> float:
        return sum(self.samples)

    def tick(self, *_):
        t = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self.tick()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.tick()


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def main(spec: dict) -> dict:
    with Speedometer() as speed:
        result = _measure(spec, speed)
    result["calibration_s"] = statistics.fmean(speed.samples)
    return result


def _measure(spec: dict, speed: Speedometer) -> dict:
    t0, k0 = time.perf_counter(), speed.spent
    from levylab.experiments import run
    from levylab.manifests import RunManifest
    manifest = RunManifest.load(spec["manifest"])
    errors = manifest.validate()
    setup_s = time.perf_counter() - t0 - (speed.spent - k0)
    if errors:
        return {"setup_s": setup_s, "error": "invalid manifest: " + "; ".join(errors)}
    if spec["setup_only"]:
        return {"setup_s": setup_s}

    rec = None
    if spec["trace"]:
        import layers
        rec = layers.Recorder()
        try:
            layers.install(rec)
        except layers.TraceError as exc:
            print(f"trace: {exc}", file=sys.stderr)
            raise SystemExit(3)

    out = spec["out"]
    cpu_self, cpu_children = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t1, k1 = time.perf_counter(), speed.spent
    try:
        summary = run(manifest, out, workers=spec["workers"])
    except Exception:                           # reported, counts as failed
        return {"setup_s": setup_s, "error": traceback.format_exc(limit=3)}
    kernel_s = speed.spent - k1
    run_s = time.perf_counter() - t1 - kernel_s
    worker_cpu_s = _cpu(resource.RUSAGE_CHILDREN) - cpu_children
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": _cpu(resource.RUSAGE_SELF) - cpu_self - kernel_s + worker_cpu_s,
        "worker_cpu_s": worker_cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "worker_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "digest": bundle_digest(out),
        "bundle_bytes": sum(os.path.getsize(os.path.join(out, f))
                            for f in os.listdir(out) if f not in VOLATILE),
        "verdicts_failed": sum(1 for v in summary["verdicts"].values() if v is False),
        "failed_verdicts": sorted(k for k, v in summary["verdicts"].items() if v is False),
        "problems": bundle_problems(out, spec["tables"], manifest),
    }
    if rec is not None:
        result["layers"] = layers.metrics(rec)
        result["calls"] = dict(rec.calls)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
