"""Experiment orchestration: manifest -> artifact bundle, and bitwise replay.

A bundle directory holds the manifest, one CSV per table, a deterministic
summary.json with the verdicts, and run_info.json with wall-clock metadata
(the only file excluded from replay comparison).  All reductions happen in
fixed particle/block order, so a bundle reproduces bit-for-bit for any
worker count.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
import time

import numpy as np

from .convergence import (decreasing_verdict, default_bl_dictionary,
                          density_sup_estimate, lyapunov_moment, tightness_diagnostics)
from .engine import pool_processes, simulate_coupled_family, simulate_ensemble
# the benchmark's layer trace patches this name; the pool itself is in engine
from .engine import ProcessPoolExecutor  # noqa: F401
from .filtering import robustness_experiment
# the benchmark's layer trace patches this name; the filters run in filtering
from .filtering import filter_run  # noqa: F401
from .generator import (GeneratorContext, fpe_verdict, fpe_weak_residual,
                        martingale_residual, validate_hypotheses)
from .manifests import ManifestError, RunManifest
from .psi import construct_psi, weighted_big_psi_sum
from .testfunctions import default_dictionary


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def write_csv(path: str, header: list, rows: list):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# kind: superposition
# ---------------------------------------------------------------------------

def run_superposition(man: RunManifest, built: tuple, seed: int, workers: int):
    coeffs, driver, trunc, mu0 = built
    ctx = GeneratorContext(coeffs, driver, trunc)
    dictionary = default_dictionary(coeffs.d)
    hyp = validate_hypotheses(ctx, T=man.T)
    block = int(man.spec.get("block_size", 4096))
    # one march per ensemble for the whole dictionary; the h run's march also
    # accumulates the martingale increments on the sub-window.  One path
    # tensor is held at a time: the h run's is dropped before the h/2 run
    s_win = man.spec.get("martingale_window", [0.25 * man.T, 0.5 * man.T])
    window = (float(s_win[0]), float(s_win[1]))
    ens = simulate_ensemble(coeffs, driver, trunc, mu0, man.n_particles, man.h,
                            man.T, seed, workers=workers, block_size=block)
    reports = fpe_weak_residual(ens, ctx, dictionary, martingale_window=window)
    mart_rows, mart_pass = [], True
    for rep in reports:
        mrep = martingale_residual(ens, rep)
        mart_pass = mart_pass and mrep.within
        mart_rows += [[rep.phi_name, b["bin"], b["count"], b["estimate"], b["se"],
                       b["scored"], b["pass"]] for b in mrep.bins]
    del ens
    ens_half = simulate_ensemble(coeffs, driver, trunc, mu0, man.n_particles,
                                 man.h / 2, man.T, seed + 1, workers=workers,
                                 block_size=block)
    halves = fpe_weak_residual(ens_half, ctx, dictionary, run_guards=False)
    fpe_rows, all_pass, halving_ok = [], True, True
    for phi, rep, rep_half in zip(dictionary, reports, halves):
        verdict = fpe_verdict(rep, rep_half, man.h)
        all_pass = all_pass and verdict.within
        halving_ok = halving_ok and verdict.halving
        fpe_rows += [[float(t), phi.name, res, se, budget, ok] for t, res, se, budget, ok
                     in zip(rep.times, rep.residual, rep.mc_se, verdict.budget,
                            verdict.passes)]
    tables = {
        "fpe_residuals": (["t", "phi_id", "residual", "mc_se", "budget", "pass"],
                          fpe_rows),
        "martingale_residuals": (["phi_id", "bin", "count", "estimate", "se",
                                  "scored", "pass"], mart_rows),
    }
    verdicts = {
        "fpe_within_budget": bool(all_pass),
        "fpe_halving": bool(halving_ok),
        "martingale_within_3se": bool(mart_pass),
        "hypotheses_ok": bool(hyp.ok),
    }
    return tables, verdicts


# ---------------------------------------------------------------------------
# kind: limit
# ---------------------------------------------------------------------------

def run_limit(man: RunManifest, built: tuple, seed: int, workers: int):
    family, driver, trunc, mu0 = built
    keys = sorted(family.members)
    cfg = default_bl_dictionary(family.limit.d)
    n_checkpoints = int(man.spec.get("n_checkpoints", 10))
    checkpoints = np.linspace(man.T / n_checkpoints, man.T, n_checkpoints)
    members, limit = simulate_coupled_family(
        family, driver, trunc, mu0, man.n_particles, man.h, man.T, seed,
        workers=workers, record_times=checkpoints)
    # looked up at call time, where the benchmark's layer trace patches it
    from .convergence import bl_distance_coupled
    # per member: its largest gap with that gap's s.e., and its density sup;
    # checkpoints in time order, so a later equal gap takes the s.e.
    rows = [[n, 0.0, 0.0, 0.0] for n in keys]
    for tc in checkpoints:
        i = limit.index_at(float(tc))
        # the limit's dictionary values, once for every member
        at_limit = cfg.at(limit.values[:, i, :])
        for row in rows:
            x = members[row[0]].values[:, i, :]
            gap, se = bl_distance_coupled(x, limit.values[:, i, :], cfg, at_limit)
            if gap >= row[1]:
                row[1:3] = gap, se
            row[3] = max(row[3], density_sup_estimate(x))
    non_inc, ratio, passed = decreasing_verdict([r[1] for r in rows],
                                                [r[2] for r in rows])
    tables = {"distances": (["n", "distance", "se", "density_sup"], rows)}
    verdicts = {"non_increasing": bool(non_inc),
                "final_to_initial_ratio": ratio,
                "limit_pass": bool(passed)}
    return tables, verdicts


# ---------------------------------------------------------------------------
# kind: filter_robustness
# ---------------------------------------------------------------------------

def run_filter_robustness(man: RunManifest, built: tuple, seed: int, workers: int):
    family, model, driver, trunc, mu0 = built
    reps = int(man.spec.get("reps", 3))
    rep = robustness_experiment(family, model, driver, trunc, mu0, man.n_particles, man.h,
                                man.T, seed, reps=reps)
    rows = [[r["n"], r["distance"], r["se"]] for r in rep.rows]
    # one filter table for the limit dynamics, per the CSV interface: rep 0's
    # limit filter at filter_run's default checkpoints
    phi_list = [("mean", lambda x: x[:, 0]),
                ("second_moment", lambda x: x[:, 0] ** 2)]
    ftable = [[st.t, name, st.estimate(fn), math.exp(st.log_normalizer), st.ess]
              for st in rep.limit_states for name, fn in phi_list]
    tables = {
        "robustness": (["n", "distance", "se"], rows),
        "filter_limit": (["t", "phi_id", "pi_t", "rho_t_1", "ess"], ftable),
    }
    verdicts = {"non_increasing": bool(rep.non_increasing),
                "final_to_initial_ratio": rep.ratio,
                "robustness_pass": bool(rep.passed)}
    return tables, verdicts


# ---------------------------------------------------------------------------
# kind: diagnostics
# ---------------------------------------------------------------------------

def run_diagnostics(man: RunManifest, built: tuple, seed: int, workers: int):
    coeffs, driver, trunc, mu0 = built
    ctx = GeneratorContext(coeffs, driver, trunc)
    hyp = validate_hypotheses(ctx, T=man.T)
    ens = simulate_ensemble(coeffs, driver, trunc, mu0, man.n_particles, man.h,
                            man.T, seed)
    x0 = ens.values[:, 0, :]
    psi = construct_psi(x0)
    moment, moment_se = lyapunov_moment(ens, psi)
    tight = tightness_diagnostics({"0": ens},
                                  K_grid=man.spec.get("K_grid", [1, 2, 4, 8, 16]),
                                  theta_grid=man.spec.get("theta_grid",
                                                          [0.2, 0.1, 0.05]),
                                  N_threshold=man.spec.get("N_threshold", 1.0))
    hyp_rows = [[name, fit["constant"], fit["witness"] is None] for name, fit in (
        ("linear_growth_C1", hyp.linear_growth), ("small_jump_C2", hyp.small_jump),
        ("large_jump_C3", hyp.large_jump))]
    tight_rows = [["sup_tail", K, p] for K, p in tight.sup_tail]
    tight_rows += [["increment_tail", th, p] for th, p in tight.increment_tail]
    tables = {
        "hypotheses": (["name", "constant", "ok"], hyp_rows),
        "tightness": (["kind", "parameter", "probability"], tight_rows),
    }
    verdicts = {
        "hypotheses_ok": bool(hyp.ok),
        "lyapunov_moment": float(moment),
        "lyapunov_moment_se": float(moment_se),
        "psi_weighted_sum": float(weighted_big_psi_sum(psi, x0)),
        "psi_profile": psi.to_dict(),
        "sup_tail_decays": bool(tight.sup_tail_decays),
        "diagnostics_pass": bool(hyp.ok),
    }
    return tables, verdicts


_RUNNERS = {
    "superposition": run_superposition,
    "limit": run_limit,
    "filter_robustness": run_filter_robustness,
    "diagnostics": run_diagnostics,
}


# ---------------------------------------------------------------------------
# bundle production and replay
# ---------------------------------------------------------------------------

def run(manifest: RunManifest, out_dir: str, seed: int | None = None,
        workers: int = 1) -> dict:
    """Execute a manifest into a bundle directory; returns the summary.

    `seed` overrides the manifest's seed; the bundle's manifest records the
    seed used.  The runner computes with the objects validate() built."""
    if workers < 1:
        raise ManifestError([f"workers must be at least 1, got {workers}"])
    fields = manifest.to_dict()
    if seed is not None:
        fields["seed"] = seed
    effective = RunManifest.from_dict(fields)
    built = effective.require_valid()
    seed = effective.seed
    t0 = time.perf_counter()
    tables, verdicts = _RUNNERS[manifest.kind](effective, built, seed, workers)
    elapsed = time.perf_counter() - t0
    # made only now, so a run that raises leaves no bundle directory
    os.makedirs(out_dir, exist_ok=True)
    effective.save(os.path.join(out_dir, "manifest.json"))
    for name, (header, rows) in tables.items():
        write_csv(os.path.join(out_dir, f"{name}.csv"), header, rows)
    summary = {
        "kind": manifest.kind,
        "seed": seed,
        "verdicts": verdicts,
        "tables": sorted(tables),
        "assumptions": manifest.assumptions,
        "overall_pass": all(v for k, v in verdicts.items()
                            if isinstance(v, bool)),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    # only these kinds hand work to a process pool; the others ignore workers
    pooled = manifest.kind in ("superposition", "limit")
    used = pool_processes(workers, effective.n_particles) if pooled else 1
    with open(os.path.join(out_dir, "run_info.json"), "w") as fh:
        json.dump({"elapsed_seconds": elapsed, "workers": used}, fh)
        fh.write("\n")
    return summary


def replay(bundle_dir: str, workers: int = 1) -> dict:
    """Re-run a bundle's manifest and compare every table bit-for-bit."""
    import filecmp
    man_path = os.path.join(bundle_dir, "manifest.json")
    if not os.path.exists(man_path):
        raise ManifestError(["bundle has no manifest.json"])
    manifest = RunManifest.load(man_path)
    with tempfile.TemporaryDirectory() as tmp:
        run(manifest, tmp, seed=manifest.seed, workers=workers)
        compared = ["summary.json"] + sorted(
            f for f in os.listdir(bundle_dir) if f.endswith(".csv"))
        diffs = []
        for name in compared:
            a, b = os.path.join(bundle_dir, name), os.path.join(tmp, name)
            if not os.path.exists(b):
                diffs.append(f"{name}: missing in replay")
            elif not filecmp.cmp(a, b, shallow=False):
                diffs.append(f"{name}: contents differ")
    return {"identical": not diffs, "diffs": diffs, "compared": compared}
