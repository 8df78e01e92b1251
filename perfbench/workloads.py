"""The four benchmark workloads: manifests generated from a seed.

Each workload is one `levylab run` of a manifest of one of the paper's
experiment kinds.  The benchmark writes the manifest to a file and the
program receives only that file; the seed given to the benchmark becomes
the manifest's master seed, so the same seed gives the same inputs.

`layers` names the traced layers that must record at least one call in the
workload's own process (see layers.py); a layer listed here that records
zero calls fails the traced run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_SEED = 2024

# The acceptance suite's bench dynamics (tests/test_acceptance.py).
BENCH_COEFFS = {"name": "ou", "d": 1, "m": 1,
                "params": {"theta": 1.0, "sigma": math.sqrt(2.0)},
                "gamma": 0.5, "growth_bound": 3.0}
BENCH_DRIVER = {"name": "atomic",
                "params": {"atoms": [[0.9], [-0.9]], "masses": [0.3, 0.3]}}
BENCH_MU0 = {"name": "gaussian", "params": {"mean": [0.0], "std": [0.5]}}

# Criterion 09's dynamics and observation model.
FILTER_FAMILY = {"base": {"name": "ou", "d": 1, "m": 1,
                          "params": {"theta": 1.0, "sigma": 1.0},
                          "gamma": 0.4, "growth_bound": 4.0},
                 "drift_perturbation": {"name": "sine", "amp": 1.0},
                 "gamma_perturbation": 0.4,
                 "schedule": [1, 2, 4, 8, 16, 32]}
FILTER_DRIVER = {"name": "atomic",
                 "params": {"atoms": [[0.8], [-0.8]], "masses": [0.25, 0.25]}}
ATOMIC_NU2 = {"name": "atomic", "params": {"atoms": [[0.3], [-0.5], [1.8]],
                                           "masses": [0.8, 0.7, 0.4]}}
EXP_NU2 = {"name": "exponential_tails_1d",
           "params": {"intensity_pos": 1.0, "rate_pos": 2.0}}

ENGINE = ("rng.stream", "measures.sample_events", "engine.prepare",
          "engine.march", "coefficients.eval")
FILTER = ("filtering.filter_run", "filtering.band_integral", "filtering.lambda",
          "filtering.observation")
ALWAYS = ("manifests.validate", "experiments.write")


@dataclass(frozen=True)
class Workload:
    name: str
    manifest: callable          # seed -> manifest dict
    tables: dict                # CSV table name -> expected row count (None: any)
    layers: tuple               # traced layers that must record calls
    parallel: int = 0           # workers of one extra traced repetition, if any


def superposition(seed: int) -> dict:
    return {"kind": "superposition", "seed": seed, "T": 1.0, "h": 0.01,
            "n_particles": 10_000,
            "spec": {"coefficients": BENCH_COEFFS, "driver": BENCH_DRIVER,
                     "truncation": {"level": 0.3}, "mu0": BENCH_MU0}}


def limit(seed: int) -> dict:
    """The README's minimal `limit` manifest, verbatim apart from the seed."""
    return {"kind": "limit", "seed": seed, "T": 1.0, "h": 0.01,
            "n_particles": 10_000,
            "spec": {"family": {"base": BENCH_COEFFS,
                                "drift_perturbation": {"name": "sine", "amp": 1.0},
                                "gamma_perturbation": 0.5,
                                "schedule": [1, 2, 4, 8, 16, 32]},
                     "driver": BENCH_DRIVER, "truncation": {"level": 0.3},
                     "mu0": BENCH_MU0},
            "assumptions": {
                "forward_equation_uniqueness": "assumed, not verified",
                "uniform_density_bound": "estimated per member in distances.csv, "
                                         "not proven"}}


def _filter(seed: int, nu2: dict, n: int, T: float, h: float, reps: int) -> dict:
    return {"kind": "filter_robustness", "seed": seed, "T": T, "h": h,
            "n_particles": n,
            "spec": {"family": FILTER_FAMILY,
                     "observation": {
                         "sensor": {"name": "identity"},
                         "lambda": {"name": "state_logistic",
                                    "params": {"base": 0.8, "decay": 0.5}},
                         "nu2": nu2, "u0_region": [0.0, 1.0]},
                     "driver": FILTER_DRIVER, "truncation": {"level": 0.5},
                     "mu0": BENCH_MU0, "reps": reps}}


def filter_atomic(seed: int) -> dict:
    return _filter(seed, ATOMIC_NU2, n=2000, T=1.0, h=0.01, reps=3)


def filter_expnu2(seed: int) -> dict:
    """Every observation proposal adds a grid cell, and each cell costs one
    2000-node band quadrature per filter run.  A short horizon keeps the
    expected number of added cells at 0.1 against 10 base cells, so the
    cost varies little with the seed."""
    return _filter(seed, EXP_NU2, n=200, T=0.1, h=0.01, reps=2)


# Every timed repetition runs one worker.  On a 2-vCPU Xeon virtual machine
# shared with other guests, `limit` at two workers, which keeps both CPUs
# busy, spread 0.24 and 0.39 (quartile distance over median) across ten
# seeds, against 0.12-0.18 for the one-worker workloads.  So `limit` runs
# two workers only in its traced run, for the pool and speed-up numbers.
WORKLOADS = {w.name: w for w in (
    Workload("superposition", superposition,
             {"fpe_residuals": None, "martingale_residuals": None},
             ALWAYS + ENGINE + ("testfunctions.eval", "generator.apply",
                                "generator.fpe", "generator.martingale",
                                "generator.guards", "generator.hypotheses")),
    Workload("limit", limit, {"distances": 6},
             ALWAYS + ENGINE + ("convergence.distance", "convergence.density"),
             parallel=2),
    Workload("filter-atomic", filter_atomic,
             {"robustness": 6, "filter_limit": None}, ALWAYS + ENGINE + FILTER),
    Workload("filter-expnu2", filter_expnu2,
             {"robustness": 6, "filter_limit": None}, ALWAYS + ENGINE + FILTER),
)}
