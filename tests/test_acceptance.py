"""The acceptance suite: every exit criterion at its stated tolerance.

One test per criterion, each printing a single pass/fail line (collected in
the terminal summary).  Pinned parameters appear inline; nothing here is
calibrated after the fact -- the budgets come from the stated tolerances
plus, where a criterion runs at finite step size, the self-convergence
first-order term measured from the paired half-step run.

Where the library has a runner for a criterion, the criterion asserts that
runner's verdicts and restates none of its rules: criteria 02 and 03 read
one `run_superposition` run (the per-time forward-identity budget, the
halving check and the per-bin 3-s.e. rule are `levylab.generator`'s), and
criterion 06 reads `run_limit`.
"""

import math
import time

import numpy as np
import pytest

import levylab as L
from levylab.convergence import gronwall_check
from levylab.experiments import run_limit, run_superposition
from levylab.filtering import ObservationSetup, filter_run, log_likelihood, \
    observation_model_from_config, robustness_experiment
from levylab.generator import GeneratorContext, eval_generator, fpe_weak_residual, \
    martingale_residual
from levylab.manifests import RunManifest
from levylab.measures import TruncationConfig
from levylab.psi import construct_psi, weighted_big_psi_sum
from levylab.testfunctions import default_dictionary, plateau_bump, \
    windowed_monomial

from conftest import record_acceptance
from oracles import brute_force_generator, discrete_kalman, riccati_closed_form

SEED = 2024

# the shared benchmark: mean-reverting diffusion with two-sided atomic jumps
BENCH_COEFFS = {"name": "ou", "d": 1, "m": 1,
                "params": {"theta": 1.0, "sigma": math.sqrt(2.0)},
                "gamma": 0.5, "growth_bound": 3.0}
BENCH_ATOMS = {"atoms": [[0.9], [-0.9]], "masses": [0.3, 0.3]}
BENCH_LEVEL = 0.3


def bench_ctx():
    cs = L.coefficients_from_config(BENCH_COEFFS)
    drv = L.AtomicLevyMeasure(**BENCH_ATOMS)
    trunc = TruncationConfig(level=BENCH_LEVEL)
    return GeneratorContext(cs, drv, trunc)


@pytest.fixture(scope="module")
def bench_superposition():
    """Criteria 02 and 03's run: the superposition kind on the shared
    benchmark at N = 1e5, h = 0.01 (from the seed) and h/2 (from seed + 1),
    with its wall time."""
    man = RunManifest(
        kind="superposition", seed=SEED, T=1.0, h=0.01, n_particles=100_000,
        spec={"coefficients": BENCH_COEFFS,
              "driver": {"name": "atomic", "params": BENCH_ATOMS},
              "truncation": {"level": BENCH_LEVEL},
              "mu0": {"name": "gaussian", "params": {"mean": [0.0], "std": [0.5]}},
              "martingale_window": [0.25, 0.5]})
    t0 = time.perf_counter()
    tables, verdicts = run_superposition(man, man.require_valid(), SEED, workers=1)
    return tables, verdicts, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bench_ensemble():
    """Criterion 03's corrupted-drift ensemble: the run's h ensemble again."""
    ctx = bench_ctx()
    ens = L.simulate_ensemble(ctx.coeffs, ctx.driver, ctx.trunc, L.GaussianLaw([0.0], [0.5]),
                              100_000, 0.01, 1.0, seed=SEED)
    return ctx, ens


def test_criterion_01_generator_exactness():
    """Atomic generator values match a brute-force oracle to 1e-12."""
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for probe in range(50):
        d = 1 if probe % 3 else 2
        atoms = rng.uniform(-2.0, 2.0, size=(rng.integers(1, 5), d))
        atoms[np.abs(atoms).sum(axis=1) < 1e-3] += 0.7
        masses = rng.uniform(0.0, 2.0, size=atoms.shape[0])
        cs = L.coefficients_from_config({
            "name": "ou", "d": d, "m": d,
            "params": {"theta": rng.uniform(0.2, 2.0), "sigma": rng.uniform(0.2, 2.0)},
            "gamma": rng.uniform(-1.5, 1.5)})
        ctx = GeneratorContext(cs, L.AtomicLevyMeasure(atoms, masses),
                               TruncationConfig(level=rng.uniform(0.2, 2.5)))
        if probe % 2:
            phi = windowed_monomial([2] + [0] * (d - 1), r0=8.0, r1=16.0,
                                    coef=rng.uniform(0.5, 2.0))
        else:
            phi = plateau_bump(center=rng.uniform(-1, 1, size=d), r0=2.0, r1=6.0,
                               height=rng.uniform(0.5, 2.0))
        x = rng.uniform(-1.2, 1.2, size=d)
        t = rng.uniform(0.0, 1.0)
        got = eval_generator(ctx, phi, t, x)
        want = brute_force_generator(
            b_val=cs.b(t, x[None, :])[0], a_val=cs.a(t, x[None, :])[0],
            f_val=float(cs.f(t, x[None, :])[0]),
            atoms=atoms.tolist(), masses=masses.tolist(),
            level=ctx.trunc.level,
            phi=lambda pt: float(phi.phi(np.atleast_2d(pt))[0]),
            grad_at=phi.grad(x[None, :])[0], hess_at=phi.hess(x[None, :])[0],
            x=x.tolist())
        rel = abs(got - want) / max(abs(want), 1e-10)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    record_acceptance(1, "generator-exactness", ok,
                      f"max rel err {worst:.2e}, {elapsed:.2f} s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_superposition(bench_superposition):
    """Every weak forward-identity residual within its budget at its own
    time; the residual halves with h."""
    tables, verdicts, elapsed = bench_superposition
    header, rows = tables["fpe_residuals"]
    assert header == ["t", "phi_id", "residual", "mc_se", "budget", "pass"]
    worst = {}
    for _, name, residual, _, budget, _ in rows:
        worst[name] = max(worst.get(name, 0.0), abs(residual) / max(budget, 1e-300))
    assert len(worst) == 6
    ok = verdicts["fpe_within_budget"] and verdicts["fpe_halving"] and elapsed < 300.0
    details = "; ".join(f"{name}:{ratio:.3f}" for name, ratio in worst.items())
    record_acceptance(2, "superposition-forward-identity", ok,
                      f"max |res|/budget {details}; halving={verdicts['fpe_halving']}; "
                      f"{elapsed:.0f} s")
    assert verdicts["fpe_within_budget"], \
        "a residual exceeded 3 s.e. plus the self-convergence term"
    assert verdicts["fpe_halving"], "residual did not halve within noise when h halved"
    assert elapsed < 300.0


def test_criterion_03_martingale_residual(bench_superposition, bench_ensemble):
    """All scored bins within 3 s.e.; the corrupted drift leaves 3 s.e."""
    tables, verdicts, run_seconds = bench_superposition
    ctx, ens = bench_ensemble
    t0 = time.perf_counter()
    header, rows = tables["martingale_residuals"]
    assert header == ["phi_id", "bin", "count", "estimate", "se", "scored", "pass"]
    scored = [row for row in rows if row[5]]
    assert scored and all(row[2] >= 100 for row in scored)
    worst = max(abs(row[3]) / row[4] for row in scored)
    bad = L.CoefficientSet(b=lambda t, x: ctx.coeffs.b(t, x) + 1.0,
                           sigma=ctx.coeffs.sigma, d=1, m=1,
                           gamma=ctx.coeffs.gamma, g=ctx.coeffs.g)
    bad_ctx = GeneratorContext(bad, ctx.driver, ctx.trunc)
    # one march of three functions over the window's slices, as an ensemble
    # view; the first function whose report fails the bin rule
    i_s, i_t = ens.index_at(0.25), ens.index_at(0.5)
    window = L.PathEnsemble(ens.times[i_s:i_t + 1], ens.values[:, i_s:i_t + 1])
    reports = fpe_weak_residual(window, bad_ctx, default_dictionary(1)[:3],
                                run_guards=False, martingale_window=(0.25, 0.5))
    caught = next((rep for rep in (martingale_residual(window, r) for r in reports)
                   if not rep.within), None)
    elapsed = run_seconds + time.perf_counter() - t0
    ok = verdicts["martingale_within_3se"] and caught is not None and elapsed < 300.0
    corrupted = (f"{caught.phi_name} {caught.max_sigmas:.1f} se" if caught
                 else "not caught")
    record_acceptance(3, "martingale-residual", ok,
                      f"honest max {worst:.2f} se, corrupted {corrupted}, {elapsed:.0f} s")
    assert verdicts["martingale_within_3se"]
    assert caught is not None, "no corrupted-drift report left 3 s.e."
    assert elapsed < 300.0


def test_criterion_04_psi_construction():
    """Profile constraints exact at 1e3 probes; heavy-tail sum matches the
    direct-summation oracle to 1e-9."""
    js = np.arange(2, 7)
    r_targets = np.exp(js)
    xs = np.sqrt(np.expm1(r_targets))[:, None]
    ws = 1.0 / (js * np.log(js) ** 2)
    psi = construct_psi(xs, weights=ws, budget_factor=1.0)
    rng = np.random.default_rng(SEED)
    probes = np.sort(np.concatenate([
        rng.uniform(0.0, float(r_targets[-1]) * 1.1, size=1000 - 2 * psi.breaks.size),
        psi.breaks, np.nextafter(psi.breaks, np.inf)]))
    d = psi.deriv(probes)
    s = psi.second(probes)
    constraints = (psi.value(0.0) == 0.0 and np.all(d > 0.0) and np.all(d <= 1.0)
                   and np.all(s >= -2.0) and np.all(s <= 0.0))
    terms = [float(w) * float(psi.value(float(math.log1p(float(x) ** 2))))
             for w, x in zip(ws, xs[:, 0])]
    oracle = math.fsum(terms) / math.fsum(float(w) for w in ws)
    got = weighted_big_psi_sum(psi, xs, ws)
    gap = abs(got - oracle)
    ok = constraints and math.isfinite(got) and gap <= 1e-9 and psi.breaks.size > 1
    record_acceptance(4, "psi-construction", ok,
                      f"constraints at {probes.size} probes, oracle gap {gap:.1e}")
    assert constraints
    assert psi.breaks.size > 1, "flattening should engage on the heavy tail"
    assert gap <= 1e-9


def test_criterion_05_stochastic_gronwall():
    """Closed-form equality case to 1e-10; randomized instances never violate."""
    grid = np.linspace(0.0, 1.0, 401)
    xi = np.exp(grid)[None, :]
    eta = np.ones_like(xi)
    A = grid[None, :].copy()
    M = np.zeros_like(xi)
    closed_ok = True
    for p, q in [(0.9, 0.5), (0.5, 0.25)]:
        res = gronwall_check(xi, eta, A, M, p, q, grid)
        lhs_exact = math.e
        rhs_exact = (p / (p - q)) ** (1.0 / q) * math.e
        closed_ok &= abs(res.lhs - lhs_exact) <= 1e-10
        closed_ok &= abs(res.rhs - rhs_exact) <= 1e-10
        closed_ok &= res.lhs <= res.rhs
    rng = np.random.default_rng(SEED)
    violations = 0
    n_instances = 0
    for batch in range(50):
        R = 20
        xi_b = np.abs(rng.normal(1.0, 0.5, size=(R, 51))).cumsum(axis=1) * 0.05
        A_b = np.concatenate([np.zeros((R, 1)),
                              0.04 * np.abs(rng.normal(size=(R, 50)))], axis=1)
        A_b = np.cumsum(A_b, axis=1)
        steps = rng.choice([-1.0, 1.0], size=(R, 51)) * 0.2
        steps[:, 0] = 0.0
        M_b = np.cumsum(steps, axis=1)
        integ = np.zeros_like(xi_b)
        integ[:, 1:] = np.cumsum(xi_b[:, 1:] * np.diff(A_b, axis=1), axis=1)
        eta_b = np.maximum(xi_b - integ - M_b, 0.0)
        p = rng.uniform(0.55, 0.95)
        q = rng.uniform(0.2, 0.9) * p
        res = gronwall_check(xi_b, eta_b, A_b, M_b, p, q, np.linspace(0, 1, 51))
        n_instances += R
        if res.lhs > res.rhs + 3.0 * (res.lhs_se + res.rhs_se):
            violations += 1
    ok = closed_ok and violations == 0 and n_instances >= 1000
    record_acceptance(5, "stochastic-gronwall", ok,
                      f"closed form to 1e-10, {n_instances} randomized paths, "
                      f"{violations} violations")
    assert closed_ok
    assert violations == 0
    assert n_instances >= 1000


def test_criterion_06_limit_theorem():
    """Coupled-family distances non-increasing (2 s.e.) with ratio <= 1/4."""
    t0 = time.perf_counter()
    man = RunManifest(
        kind="limit", seed=SEED, T=1.0, h=0.01, n_particles=10_000,
        spec={"family": {"base": BENCH_COEFFS,
                         "drift_perturbation": {"name": "sine", "amp": 1.0},
                         "gamma_perturbation": 0.5,
                         "schedule": [1, 2, 4, 8, 16, 32]},
              "driver": {"name": "atomic", "params": BENCH_ATOMS},
              "truncation": {"level": BENCH_LEVEL},
              "mu0": {"name": "gaussian", "params": {"mean": [0.0], "std": [0.5]}}})
    tables, verdicts = run_limit(man, man.require_valid(), SEED, workers=1)
    elapsed = time.perf_counter() - t0
    ratio = verdicts["final_to_initial_ratio"]
    ok = verdicts["limit_pass"] and elapsed < 600.0
    dists = ", ".join(f"{row[1]:.4f}" for row in tables["distances"][1])
    record_acceptance(6, "coefficient-limit", ok,
                      f"distances [{dists}], ratio {ratio:.3f}, {elapsed:.0f} s")
    assert verdicts["non_increasing"]
    assert ratio is not None and ratio <= 0.25
    assert elapsed < 600.0


def test_criterion_07_filter_kalman_benchmark():
    """Linear-Gaussian filter matches the Kalman oracle within 3 s.e. at 20
    checkpoints (N = 1e4), and the discrete gain recursion converges to the
    closed-form steady equation at first order."""
    t0 = time.perf_counter()
    theta, sig_x, h, T, N = 1.0, 1.0, 0.005, 1.0, 10_000
    cs = L.coefficients_from_config({
        "name": "ou", "d": 1, "m": 1,
        "params": {"theta": theta, "sigma": sig_x}, "gamma": 0.0,
        "growth_bound": 4.0})
    model = observation_model_from_config({
        "sensor": {"name": "identity"},
        "lambda": {"name": "constant", "params": {"c": 0.5}},
        "nu2": {"name": "zero", "params": {"dim": 1}},
        "u0_region": [0.0, 1.0]})
    mu0 = L.GaussianLaw([0.0], [0.7])
    checkpoints = np.linspace(0.05, T, 20)
    # enough replications that each per-checkpoint statistic is effectively
    # Gaussian; small counts put t-tails on the max over 40 comparisons
    reps = 30
    mean_gaps = np.zeros((reps, 20))
    var_gaps = np.zeros((reps, 20))
    for r in range(reps):
        seed = SEED + 10 * r
        truth = L.simulate_path(cs, L.zero_measure(1), TruncationConfig(level=0.5),
                                mu0, h, T, seed=seed)
        setup = ObservationSetup(model, T, h, seed=seed)
        rec = setup.record_for(np.vstack([truth.value_at(t) for t in setup.grid]))
        res = filter_run(model, cs, L.zero_measure(1), TruncationConfig(level=0.5),
                         mu0, rec, N, seed + 555, checkpoints=checkpoints)
        kal = discrete_kalman(rec.grid, rec.cont_increments[:, 0], -theta,
                              sig_x ** 2, 0.0, 0.49)
        kal_t = np.array([k[0] for k in kal])
        for j, st in enumerate(res.states):
            i = int(np.argmin(np.abs(kal_t - st.t)))
            mean_gaps[r, j] = st.mean()[0] - kal[i][1]
            var_gaps[r, j] = st.variance()[0] - kal[i][2]
    z_mean = np.abs(mean_gaps.mean(axis=0)) / (mean_gaps.std(axis=0, ddof=1)
                                               / math.sqrt(reps))
    z_var = np.abs(var_gaps.mean(axis=0)) / (var_gaps.std(axis=0, ddof=1)
                                             / math.sqrt(reps))
    z_worst = float(max(z_mean.max(), z_var.max()))
    # continuous-limit link: the discrete variance recursion approaches the
    # closed-form solution of the variance flow equation at first order
    p_cf = riccati_closed_form(-theta, sig_x ** 2, 0.49, T)
    grid_h = np.linspace(0, T, int(T / h) + 1)
    grid_h2 = np.linspace(0, T, int(T / (h / 2)) + 1)
    gap_h = abs(discrete_kalman(grid_h, np.zeros(grid_h.size - 1), -theta,
                                sig_x ** 2, 0.0, 0.49)[-1][2] - p_cf)
    gap_h2 = abs(discrete_kalman(grid_h2, np.zeros(grid_h2.size - 1), -theta,
                                 sig_x ** 2, 0.0, 0.49)[-1][2] - p_cf)
    riccati_ok = gap_h <= 0.02 and gap_h2 <= 0.6 * gap_h
    elapsed = time.perf_counter() - t0
    ok = z_worst <= 3.0 and riccati_ok and elapsed < 120.0
    record_acceptance(7, "filter-kalman-benchmark", ok,
                      f"worst z {z_worst:.2f} over 20 checkpoints x (mean,var), "
                      f"variance-flow gap {gap_h:.1e}->{gap_h2:.1e}, {elapsed:.0f} s")
    assert z_worst <= 3.0
    assert riccati_ok
    assert elapsed < 120.0


def test_criterion_08_likelihood_exactness():
    """Analytic log-likelihood reproduced to 1e-12 for 100 random (c, m, T)."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for trial in range(100):
        c = float(rng.uniform(0.05, 0.95))
        mass = float(rng.uniform(0.1, 3.0))
        T = float(rng.uniform(0.3, 2.5))
        k_atoms = int(rng.integers(1, 4))
        model = observation_model_from_config({
            "sensor": {"name": "zero", "params": {"k": 1}},
            "lambda": {"name": "constant", "params": {"c": c}},
            "nu2": {"name": "atomic",
                    "params": {"atoms": rng.uniform(0.1, 0.9,
                                                    size=(k_atoms, 1)).tolist(),
                               "masses": [mass / k_atoms] * k_atoms}},
            "u0_region": [0.0, 1.0]})
        setup = ObservationSetup(model, T, 0.05, seed=trial)
        sig = np.zeros((setup.grid.size, 1))
        rec = setup.record_for(sig)
        got = log_likelihood(np.zeros((setup.grid.size, 1)), rec, model)
        want = len(rec.events_band) * math.log(c) + (1.0 - c) * mass * T
        worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-12
    record_acceptance(8, "likelihood-exactness", ok, f"max rel err {worst:.1e}")
    assert worst <= 1e-12


def test_criterion_09_filter_robustness():
    """Coupled filter distances non-increasing (2 s.e.) with ratio <= 1/4."""
    t0 = time.perf_counter()
    fam = L.family_from_config({
        "base": {"name": "ou", "d": 1, "m": 1,
                 "params": {"theta": 1.0, "sigma": 1.0},
                 "gamma": 0.4, "growth_bound": 4.0},
        "drift_perturbation": {"name": "sine", "amp": 1.0},
        "gamma_perturbation": 0.4,
        "schedule": [1, 2, 4, 8, 16, 32]})
    drv = L.AtomicLevyMeasure([[0.8], [-0.8]], [0.25, 0.25])
    model = observation_model_from_config({
        "sensor": {"name": "identity"},
        "lambda": {"name": "state_logistic", "params": {"base": 0.8, "decay": 0.5}},
        "nu2": {"name": "atomic", "params": {"atoms": [[0.3], [-0.5], [1.8]],
                                             "masses": [0.8, 0.7, 0.4]}},
        "u0_region": [0.0, 1.0]})
    rep = robustness_experiment(fam, model, drv, TruncationConfig(level=0.5),
                                L.GaussianLaw([0.0], [0.5]), 10_000, 0.01, 1.0,
                                seed=SEED, reps=3)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 900.0
    dists = ", ".join(f"{r['distance']:.4f}" for r in rep.rows)
    record_acceptance(9, "filter-robustness", ok,
                      f"D [{dists}], ratio {rep.ratio:.3f}, {elapsed:.0f} s")
    assert rep.non_increasing
    assert rep.ratio is not None and rep.ratio <= 0.25
    assert elapsed < 900.0


def test_criterion_10_determinism(tmp_path):
    """Replay reproduces every table bit-for-bit across workers 1, 4, 8."""
    import filecmp

    from levylab.experiments import replay, run
    sup = RunManifest(
        kind="superposition", seed=SEED, T=0.5, h=0.025, n_particles=3000,
        spec={"coefficients": BENCH_COEFFS,
              "driver": {"name": "atomic", "params": BENCH_ATOMS},
              "truncation": {"level": BENCH_LEVEL},
              "mu0": {"name": "gaussian", "params": {"mean": [0.0], "std": [0.5]}},
              "block_size": 512})
    lim = RunManifest(
        kind="limit", seed=SEED, T=0.5, h=0.05, n_particles=1500,
        spec={"family": {"base": BENCH_COEFFS,
                         "drift_perturbation": {"name": "sine", "amp": 1.0},
                         "gamma_perturbation": 0.5,
                         "schedule": [1, 2, 4, 8]},
              "driver": {"name": "atomic", "params": BENCH_ATOMS},
              "truncation": {"level": BENCH_LEVEL},
              "mu0": {"name": "gaussian", "params": {"mean": [0.0], "std": [0.5]}}})
    all_ok = True
    details = []
    for label, man in (("superposition", sup), ("limit", lim)):
        outs = {}
        for w in (1, 4, 8):
            out = tmp_path / f"{label}-w{w}"
            run(man, str(out), workers=w)
            outs[w] = out
        names = sorted(f.name for f in outs[1].iterdir()
                       if f.suffix == ".csv") + ["summary.json"]
        same = all(filecmp.cmp(outs[1] / n, outs[w] / n, shallow=False)
                   for w in (4, 8) for n in names)
        rep = replay(str(outs[8]), workers=4)
        all_ok &= same and rep["identical"]
        details.append(f"{label}: files={same}, replay={rep['identical']}")
    record_acceptance(10, "determinism-across-workers", all_ok,
                      "; ".join(details))
    assert all_ok
