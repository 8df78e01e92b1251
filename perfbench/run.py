"""levylab benchmark: end-to-end runs of four manifest workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--out FILE]

Every repetition is one `levylab.experiments.run` of the workload's manifest
in a fresh Python process, started after the previous one ended (closed
loop, one client), with BLAS/OpenMP threads pinned to 1.  At least two
repetitions run, then more until the next one would end after `--seconds`;
set-up is sampled at least five times.  The last line of standard output is
one JSON object:

  --trace 0  end-to-end medians: run_s, cpu_s, setup_s (scaled to the
             reference speed, see REFERENCE_KERNEL_S) and peak_rss_mb
  --trace 1  per-layer numbers from traced repetitions (layers.py), each
             paired with an untraced one; `limit` also runs once traced
             with two workers, for the pool numbers and the speed-up

`failed` counts repetitions that raised, wrote a malformed or non-finite
bundle, or wrote a bundle whose digest differs from the first repetition's
(for --trace 1 also the traced and the two-worker bundles).  The line above
the result records the environment, the bundle digest, error_rate and the
verdicts that came out false.  `--all` runs every workload both ways,
prints all six end-to-end metrics and the per-layer table, and with `--out`
writes the whole record as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5
# The speed of a shared virtual machine drifts: on the 2-vCPU Xeon guest
# this benchmark was built on, a fixed pure-Python loop took 16-28 ms within
# one minute, and the ten-seed spread of wall times reached 0.31-0.39.  Each
# repetition therefore also times a fixed kernel four times a second while
# it sets up and runs (child.Speedometer), and the end-to-end times are
# scaled to a machine on which one kernel timing takes REFERENCE_KERNEL_S,
# about the mean on that guest.  Wall times and kernel timings are in the
# detail line.
REFERENCE_KERNEL_S = 0.0016
TIME_LIMIT_S = 170.0          # a benchmark run must end within 180 s

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
REPORT_ONLY = {"error_rate": "fraction", "verdicts_failed": "count"}
PER_LAYER = {
    "manifests.validate_s": "s",
    "rng.streams": "count",
    "measures.sample_events_calls": "count",
    "measures.sample_events_s": "s",
    "engine.prepare_s": "s",
    "engine.prepare_particles": "count",
    "engine.redraw_ratio": "ratio",
    "engine.march_s": "s",
    "engine.cells": "count",
    "engine.path_mb": "MB",
    "engine.pool_s": "s",
    "engine.worker_cpu_s": "s",
    "engine.worker_rss_mb": "MB",
    "engine.parallel_speedup": "ratio",
    "coefficients.evals": "count",
    "testfunctions.evals": "count",
    "testfunctions.eval_s": "s",
    "generator.apply_calls": "count",
    "generator.apply_s": "s",
    "generator.fpe_s": "s",
    "generator.martingale_s": "s",
    "generator.guards_s": "s",
    "generator.hypotheses_s": "s",
    "convergence.distance_s": "s",
    "convergence.density_s": "s",
    "filtering.filter_runs": "count",
    "filtering.filter_run_s": "s",
    "filtering.band_integral_calls": "count",
    "filtering.band_integral_s": "s",
    "filtering.lambda_calls": "count",
    "filtering.observation_s": "s",
    "experiments.write_s": "s",
    "experiments.bundle_bytes": "bytes",
    "experiments.verdicts_failed": "count",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def environment(seed: int) -> dict:
    """Machine, library versions, thread pinning and seed of a result."""
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = (index / "size").read_text().strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "threads": {v: "1" for v in THREAD_VARS},
            "seed": seed}


class Session:
    """The manifest of one workload at one seed, and its repetitions."""

    def __init__(self, name: str, seed: int, work: Path, deadline: float):
        self.workload = WORKLOADS[name]
        self.work = work
        self.deadline = deadline
        self.manifest = work / "manifest.json"
        self.manifest.write_text(json.dumps(self.workload.manifest(seed), indent=2))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        TMPDIR=str(work), **{v: "1" for v in THREAD_VARS})
        self.count = 0

    def child(self, workers: int = 1, trace: bool = False,
              setup_only: bool = False) -> dict:
        """One repetition in a fresh process; returns its result dict."""
        self.count += 1
        spec = {"manifest": str(self.manifest), "out": str(self.work / f"b{self.count}"),
                "workers": workers, "trace": trace,
                "setup_only": setup_only, "tables": self.workload.tables}
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                stdout=subprocess.PIPE, text=True, env=self.env,
                                cwd=ROOT, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("a repetition ran past the time limit") from None
        finally:
            try:                                # pool workers left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode == 3:
            raise BenchError("the trace could not be installed (see above)")
        if proc.returncode != 0:
            return {"error": f"repetition exited with code {proc.returncode}"}
        shutil.rmtree(spec["out"], ignore_errors=True)
        return json.loads(out.strip().splitlines()[-1])

    def setup(self) -> dict:
        """Set-up alone in a fresh process; the first call compiles bytecode
        and fills the file cache, so its time is not used."""
        result = self.child(setup_only=True)
        if "error" in result:
            raise BenchError(f"set-up failed: {result['error']}")
        return result

    def setups(self, reps: list) -> list:
        """The repetitions' set-ups, topped up with set-up-only processes."""
        done = [r for r in reps if "setup_s" in r]
        while len(done) < SETUP_SAMPLES:
            done.append(self.setup())
        return done


def _repeat(seconds: float, step, least: int) -> list:
    """Call step() at least `least` times, then until the next call would
    end after `seconds`."""
    out = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        out.append(step())
        if len(out) >= least and time.monotonic() - start + (time.monotonic() - t) > seconds:
            return out


def judge(reps: list) -> tuple[list, int, str | None]:
    """(finished repetitions, failed count, reference digest).

    A repetition fails if it raised, wrote a malformed bundle, or wrote a
    bundle whose digest differs from the first finished repetition's.  Only
    a repetition that raised has no timings.
    """
    finished, failed, digest = [], 0, None
    for r in reps:
        if "error" in r:
            failed += 1
            print(f"repetition failed: {r['error']}", file=sys.stderr)
            continue
        finished.append(r)
        digest = digest or r["digest"]
        if r["problems"] or r["digest"] != digest:
            failed += 1
            print(f"repetition failed: {r['problems'] or 'bundle digest differs'}",
                  file=sys.stderr)
    return finished, failed, digest


def timing(values: list) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 11:
        q = math.floor(100 * (1 - 10 / len(values)))
        out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
    else:
        out["max"] = max(values)
        out["note"] = "fewer than 11 samples: no percentile has ten beyond it"
    return out


def median(values: list):
    """Median; a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def scaled(r: dict, key: str) -> float:
    """A repetition's time at the reference speed (see REFERENCE_KERNEL_S)."""
    return r[key] * REFERENCE_KERNEL_S / r["calibration_s"]


def measure(s: Session, seconds: float) -> dict:
    """Untraced repetitions: the end-to-end metrics."""
    s.setup()                                   # warm-up, not timed
    # two repetitions at least, so that every run compares two bundles
    reps = _repeat(seconds, s.child, least=2)
    setups = s.setups(reps)
    done, failed, digest = judge(reps)
    if not done:
        raise BenchError("every repetition raised")
    med = lambda rows, key: statistics.median(scaled(r, key) for r in rows)  # noqa: E731
    return {
        "attempted": len(reps), "failed": failed,
        "metrics": {"run_s": med(done, "run_s"), "cpu_s": med(done, "cpu_s"),
                    "setup_s": med(setups, "setup_s"),
                    "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done)},
        "detail": {"digest": digest,
                   "wall_run_s": timing([r["run_s"] for r in done]),
                   "wall_setup_s": timing([r["setup_s"] for r in setups]),
                   "calibration_s": timing([r["calibration_s"] for r in setups]),
                   "error_rate": failed / len(reps),
                   "verdicts_failed": done[0]["verdicts_failed"],
                   "failed_verdicts": done[0]["failed_verdicts"]},
    }


def trace(s: Session, seconds: float) -> dict:
    """Traced repetitions, each paired with an untraced one: per-layer metrics.

    A workload with `parallel` workers also runs once traced with that many
    workers, for the pool numbers and the speed-up over one worker.
    """
    wl = s.workload
    s.setup()                                   # warm-up, not timed
    pairs = _repeat(seconds, lambda: (s.child(), s.child(trace=True)), least=1)
    par = s.child(workers=wl.parallel, trace=True) if wl.parallel else None
    reps = [r for pair in pairs for r in pair] + ([par] if par else [])
    done, failed, digest = judge(reps)
    traced = [r for _, r in pairs if r in done]
    plain = [r for r, _ in pairs if r in done]
    if not traced or not plain or (par is not None and par not in done):
        raise BenchError("a traced, untraced or parallel repetition raised")
    checks = [(r, wl.layers) for r in traced]
    if par:
        checks.append((par, ("engine.pool",)))
    for r, layers in checks:
        silent = [layer for layer in layers if not r["calls"].get(layer)]
        if silent:
            raise BenchError(f"layers predicted to run on {wl.name} recorded no "
                             f"calls: {', '.join(silent)}")
    traced_s = statistics.median(scaled(r, "run_s") for r in traced)
    metrics = {k: median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
    metrics.update({
        "engine.pool_s": par["layers"]["engine.pool_s"] if par else 0.0,
        "engine.worker_cpu_s": par["worker_cpu_s"] if par else 0.0,
        "engine.worker_rss_mb": par["worker_rss_mb"] if par else 0.0,
        "engine.parallel_speedup": traced_s / scaled(par, "run_s") if par else 1.0,
        "experiments.bundle_bytes": traced[0]["bundle_bytes"],
        "experiments.verdicts_failed": traced[0]["verdicts_failed"],
        "trace.overhead_s": traced_s - statistics.median(scaled(r, "run_s") for r in plain),
    })
    return {"attempted": len(reps), "failed": failed, "metrics": metrics,
            "detail": {"digest": digest, "pairs": len(traced),
                       "parallel_run_s": par["run_s"] if par else None,
                       "error_rate": failed / len(reps)}}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        s = Session(name, seed, work, deadline)
        return (trace if traced else measure)(s, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def result_line(res: dict, units: dict) -> dict:
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": res["metrics"][k], "unit": u}
                        for k, u in units.items()}}


def report(seed: int, seconds: float, out: str | None):
    """Every workload untraced and traced; prints all metrics with units."""
    record = {"env": environment(seed), "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, traced=False)
        traced = run_workload(name, seed, seconds, traced=True)
        record["workloads"][name] = {"end_to_end": plain, "traced": traced}
    cols = list(END_TO_END) + list(REPORT_ONLY)
    units = {**END_TO_END, **REPORT_ONLY}
    print(f"{'workload':15}" + "".join(f"{f'{c} ({units[c]})':>24}" for c in cols))
    for name, rec in record["workloads"].items():
        values = {**rec["end_to_end"]["metrics"],
                  **{c: rec["end_to_end"]["detail"][c] for c in REPORT_ONLY}}
        print(f"{name:15}" + "".join(f"{values[c]:>24.4g}" for c in cols))
    print(f"\n{'per-layer':36}" + "".join(f"{n:>16}" for n in WORKLOADS))
    for key, unit in PER_LAYER.items():
        row = [record["workloads"][n]["traced"]["metrics"][key] for n in WORKLOADS]
        print(f"{f'{key} ({unit})':36}" + "".join(f"{v:>16.4g}" for v in row))
    print()
    for name, rec in record["workloads"].items():
        d = rec["end_to_end"]["detail"]
        print(f"{name}: wall run_s {d['wall_run_s']['median']:.4g} s "
              f"(n={d['wall_run_s']['n']}), kernel {d['calibration_s']['median']:.4g} s, "
              f"digest {d['digest']}, false verdicts {d['failed_verdicts']}")
    if out:
        Path(out).write_text(json.dumps(record, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=sorted(WORKLOADS))
    what.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write the record as JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "levylab" / "__init__.py").is_file():
        print(f"no levylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.all:
            report(args.seed, args.seconds, args.out)
            return 0
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "env": environment(args.seed), **res["detail"]}))
    print(json.dumps(result_line(res, PER_LAYER if args.trace else END_TO_END)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
