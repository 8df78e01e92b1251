"""The integro-differential generator and the two residual tests built on it.

For a test function phi the generator value at (t, x) is

    a_ij(t, x) d_ij phi(x) + b_i(t, x) d_i phi(x)
      + int [ phi(x + u) - phi(x) - 1_{|u| <= l} u . grad phi(x) ] nu_x(du)

with a = sigma sigma^T / 2 and nu_x the push-forward of the driver measure
through z -> f(t, x) z.  Because f is scalar, the compensated region
{|u| <= l} pulls back to the centered ball of radius l / |f(t, x)|, so all
jump-term pieces reduce to annulus queries of the driver measure: exact sums
for atomic drivers, Monte Carlo quadrature (with reported standard error)
for parametric ones.

The two residual tests:

* martingale_residual checks that phi(x_t) - phi(x_s) - sum (L phi) dr has
  conditionally zero mean given a coarse binning of x_s, over an ensemble;
* fpe_weak_residual checks the weak forward identity
  mu_t(phi) = mu_0(phi) + int mu_s(L phi) ds on empirical marginals,
  which together with the simulation engine is the empirical rendering of
  the equivalence between path laws and weak forward solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .coefficients import CoefficientSet, linear_growth_report
from .engine import PathEnsemble
from .measures import AtomicLevyMeasure, LevyMeasure, TruncationConfig
from .testfunctions import COMPACT, LOG_GROWTH, TestFunction


class GeneratorError(RuntimeError):
    pass


ATOMIC_SUM = "atomic_sum"
MONTE_CARLO = "monte_carlo"


@dataclass
class GeneratorContext:
    coeffs: CoefficientSet
    driver: LevyMeasure
    trunc: TruncationConfig
    jump_quadrature: str = None
    n_quad: int = 10_000
    quad_seed: int = 2024

    def __post_init__(self):
        if self.jump_quadrature is None:
            self.jump_quadrature = (ATOMIC_SUM if isinstance(self.driver, AtomicLevyMeasure)
                                    else MONTE_CARLO)
        if self.jump_quadrature == ATOMIC_SUM and not isinstance(self.driver, AtomicLevyMeasure):
            raise GeneratorError("atomic_sum quadrature needs an atomic driver")
        self._quad_nodes = None

    def quad_nodes(self):
        """Fixed Monte Carlo quadrature nodes, shared across evaluations."""
        if self._quad_nodes is None:
            total = self.driver.mass(0.0, math.inf)
            if not math.isfinite(total):
                raise GeneratorError(
                    "Monte Carlo jump quadrature needs a finite-activity driver; "
                    "the small-jump square integrability must be checked via "
                    "validate_hypotheses instead")
            rng = rngmod.stream(self.quad_seed, rngmod.QUADRATURE,
                                namespace=rngmod.EXPERIMENT)
            nodes = (self.driver.sample(rng, self.n_quad, 0.0, math.inf)
                     if total > 0 else np.empty((0, self.driver.dim)))
            self._quad_nodes = (nodes, total)
        return self._quad_nodes

    def a_matrix(self, t, x):
        return self.coeffs.a(t, np.atleast_2d(x))


@dataclass
class GeneratorValue:
    value: float
    quad_se: float = 0.0


def _jump_term(ctx: GeneratorContext, phi: TestFunction, t, X: np.ndarray,
               grad_vals: np.ndarray):
    """Non-local term and its quadrature s.e. for all rows of X at once."""
    n, d = X.shape
    fv = ctx.coeffs.f(t, X)
    level = ctx.trunc.level
    if ctx.jump_quadrature == ATOMIC_SUM:
        z = ctx.driver.atoms            # (k, d)
        w = ctx.driver.masses           # (k,)
        if z.shape[0] == 0:
            return np.zeros(n), np.zeros(n)
        U = fv[:, None, None] * z[None, :, :]                    # (n, k, d)
        shifted = phi.phi((X[:, None, :] + U).reshape(-1, d)).reshape(n, -1)
        base = phi.phi(X)[:, None]
        comp = np.einsum("nkd,nd->nk", U, grad_vals)
        small = np.linalg.norm(U, axis=2) <= level
        vals = (shifted - base - np.where(small, comp, 0.0)) @ w
        return vals, np.zeros(n)
    nodes, total = ctx.quad_nodes()
    if total == 0.0 or nodes.shape[0] == 0:
        return np.zeros(n), np.zeros(n)
    U = fv[:, None, None] * nodes[None, :, :]                    # (n, q, d)
    q = nodes.shape[0]
    shifted = phi.phi((X[:, None, :] + U).reshape(-1, d)).reshape(n, q)
    base = phi.phi(X)[:, None]
    comp = np.einsum("nqd,nd->nq", U, grad_vals)
    small = np.linalg.norm(U, axis=2) <= level
    integrand = shifted - base - np.where(small, comp, 0.0)
    vals = total * integrand.mean(axis=1)
    ses = total * integrand.std(axis=1, ddof=1) / math.sqrt(q)
    return vals, ses


def generator_apply(ctx: GeneratorContext, phi: TestFunction, t, X: np.ndarray):
    """Vectorized generator values over rows of X; returns (values, quad_se)."""
    X = np.atleast_2d(X)
    g = phi.grad(X)
    h = phi.hess(X)
    a = ctx.coeffs.a(t, X)
    b = ctx.coeffs.b(t, X)
    local = np.einsum("nij,nij->n", a, h) + np.einsum("ni,ni->n", b, g)
    jump, se = _jump_term(ctx, phi, t, X, g)
    return local + jump, se


def eval_generator(ctx: GeneratorContext, phi: TestFunction, t: float,
                   x) -> GeneratorValue:
    """Generator value at a single point, with integrability guards."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _check_integrability_at(ctx, t, x)
    vals, ses = generator_apply(ctx, phi, t, x)
    return GeneratorValue(float(vals[0]), float(ses[0]))


def _check_integrability_at(ctx: GeneratorContext, t, x):
    fv = ctx.coeffs.f(t, x)
    level = ctx.trunc.level
    for f in np.atleast_1d(fv):
        if f == 0.0:
            continue
        r = level / abs(float(f))
        sm = ctx.driver.second_moment(0.0, r) * f * f
        if not math.isfinite(sm):
            raise GeneratorError(
                "small-jump square integrability fails at this point "
                "(hypothesis H^s on the compensated band)")
        if not math.isfinite(ctx.driver.mass(r, math.inf)):
            raise GeneratorError(
                "big-jump mass is infinite at this point "
                "(hypothesis H^l on the uncompensated region)")


# ---------------------------------------------------------------------------
# hypothesis validation
# ---------------------------------------------------------------------------

@dataclass
class HypothesisReport:
    linear_growth: dict
    small_jump: dict
    large_jump: dict

    @property
    def ok(self) -> bool:
        return (self.linear_growth.get("witness") is None
                and self.small_jump["witness"] is None
                and self.large_jump["witness"] is None)


def default_probe_grid(d: int, T: float):
    rng = np.random.Generator(np.random.Philox(key=99))
    radii = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0])
    xs = []
    for r in radii:
        if r == 0.0:
            xs.append(np.zeros(d))
            continue
        for _ in range(3):
            v = rng.standard_normal(d)
            xs.append(r * v / np.linalg.norm(v))
    return np.array([0.0, 0.5 * T, T]), np.array(xs)


def validate_hypotheses(ctx: GeneratorContext, probe_grid=None,
                        T: float = 1.0) -> HypothesisReport:
    """Fit the smallest hypothesis constants on a probe grid, or find witnesses.

    Fits C1 for the linear growth of (b, sigma), C2 for the normalized
    second moment of compensated jump images, C3 for the log-moment of the
    uncompensated images.  A witness is a probe point where a required
    integral is not finite; constants are reported even when large.
    """
    if probe_grid is None:
        probe_grid = default_probe_grid(ctx.coeffs.d, T)
    ts, xs = probe_grid
    lg = linear_growth_report(ctx.coeffs, (ts, xs))

    level = ctx.trunc.level
    c2, c3 = 0.0, 0.0
    w2 = w3 = None
    for t in ts:
        fv = ctx.coeffs.f(float(t), xs)
        norms = np.linalg.norm(xs, axis=1)
        for i, f in enumerate(fv):
            if f == 0.0:
                continue
            r = level / abs(float(f))
            sm = ctx.driver.second_moment(0.0, r) * f * f
            if not math.isfinite(sm):
                w2 = w2 or (float(t), xs[i].copy())
                continue
            c2 = max(c2, sm / (1.0 + norms[i] ** 2))
            big_mass = ctx.driver.mass(r, math.inf)
            if not math.isfinite(big_mass):
                w3 = w3 or (float(t), xs[i].copy())
                continue
            scale = abs(float(f)) / (1.0 + norms[i])
            lm = ctx.driver.radial_integral(
                lambda rr: np.log1p(scale * rr), r, math.inf)
            c3 = max(c3, lm)
    return HypothesisReport(
        linear_growth=lg,
        small_jump={"constant": c2, "witness": w2},
        large_jump={"constant": c3, "witness": w3},
    )


# ---------------------------------------------------------------------------
# martingale residual
# ---------------------------------------------------------------------------

@dataclass
class MartingaleReport:
    s: float
    t: float
    phi_name: str
    bins: list           # per-bin dicts: lo, hi, count, estimate, se, scored
    max_abs: float       # max |estimate| over scored bins
    max_se: float        # s.e. at the argmax bin
    max_sigmas: float    # max |estimate| / se over scored bins
    overall: tuple       # (estimate, se) without conditioning
    caveat: str | None = None

    @property
    def within(self) -> bool:
        return self.max_sigmas <= 3.0


def _per_path_increment(ensemble: PathEnsemble, ctx: GeneratorContext,
                        phi: TestFunction, i_s: int, i_t: int):
    """phi(x_t) - phi(x_s) - sum of generator values times dt, per path."""
    times = ensemble.times
    vals = ensemble.values
    acc = np.zeros(vals.shape[0])
    for i in range(i_s, i_t):
        gv, _ = generator_apply(ctx, phi, float(times[i]), vals[:, i, :])
        acc += gv * (times[i + 1] - times[i])
    return phi.phi(vals[:, i_t, :]) - phi.phi(vals[:, i_s, :]) - acc


def martingale_residual(ensemble: PathEnsemble, ctx: GeneratorContext,
                        phi: TestFunction, s: float, t: float,
                        n_bins: int = 8, min_bin: int = 100) -> MartingaleReport:
    """Conditional-mean test of the compensated increment over [s, t].

    Bins the ensemble on the state at time s (a coarse measurable partition
    of the past, hence a necessary condition for the martingale property)
    and reports the worst normalized bin mean.
    """
    if phi.support_class not in (COMPACT, LOG_GROWTH):
        raise GeneratorError("martingale test needs a compact or log-growth function")
    caveat = ("log-growth test function: only a local-martingale statement "
              "is available, residual interpreted under localization"
              if phi.support_class == LOG_GROWTH else None)
    if not s < t:
        raise GeneratorError("need s < t")
    i_s, i_t = ensemble.index_at(s), ensemble.index_at(t)
    inc = _per_path_increment(ensemble, ctx, phi, i_s, i_t)
    xs = ensemble.values[:, i_s, :]
    # bin on each coordinate with spread; combine bin ids
    active = [j for j in range(xs.shape[1]) if np.ptp(xs[:, j]) > 0]
    if not active:
        ids = np.zeros(xs.shape[0], dtype=int)
        edges = {}
    else:
        ids = np.zeros(xs.shape[0], dtype=int)
        edges = {}
        for j in active:
            e = np.linspace(xs[:, j].min(), xs[:, j].max(), n_bins + 1)
            e[-1] += 1e-12
            ids = ids * n_bins + np.clip(np.digitize(xs[:, j], e) - 1, 0, n_bins - 1)
            edges[j] = e
    bins = []
    max_abs = 0.0
    max_se = math.inf
    max_sig = 0.0
    for bid in np.unique(ids):
        sel = ids == bid
        cnt = int(sel.sum())
        scored = cnt >= min_bin
        est = float(inc[sel].mean())
        se = float(inc[sel].std(ddof=1) / math.sqrt(cnt)) if cnt > 1 else math.inf
        bins.append({"bin": int(bid), "count": cnt, "estimate": est,
                     "se": se, "scored": scored})
        if scored:
            if est == 0.0:
                sig = 0.0
            else:
                sig = abs(est) / se if se > 0 else math.inf
            if sig > max_sig:
                max_sig = sig
            if abs(est) > max_abs:
                max_abs, max_se = abs(est), se
    overall = (float(inc.mean()), float(inc.std(ddof=1) / math.sqrt(inc.size)))
    return MartingaleReport(s=s, t=t, phi_name=phi.name, bins=bins,
                            max_abs=max_abs, max_se=max_se, max_sigmas=max_sig,
                            overall=overall, caveat=caveat)


# ---------------------------------------------------------------------------
# weak forward-equation residual
# ---------------------------------------------------------------------------

@dataclass
class FpeReport:
    phi_name: str
    times: np.ndarray
    residual: np.ndarray
    mc_se: np.ndarray
    sup_abs: float
    sup_se: float
    guards: dict
    h: float

    @property
    def sup_index(self) -> int:
        return int(np.argmax(np.abs(self.residual)))


def integrability_guards(ensemble: PathEnsemble, ctx: GeneratorContext,
                         radius: float | None = None) -> dict:
    """Empirical finiteness checks of the two integrability conditions that
    make the weak forward identity well-posed; divergent estimates abort."""
    times, vals = ensemble.times, ensemble.values
    n = vals.shape[0]
    level = ctx.trunc.level
    if radius is None:
        radius = float(np.quantile(np.linalg.norm(vals, axis=2).max(axis=1), 0.95))
    g1 = 0.0
    g2 = 0.0
    for i in range(times.size - 1):
        dt = times[i + 1] - times[i]
        x = vals[:, i, :]
        norms = np.linalg.norm(x, axis=1)
        inside = norms <= radius
        bnorm = np.linalg.norm(ctx.coeffs.b(float(times[i]), x), axis=1)
        anorm = np.linalg.norm(ctx.coeffs.a(float(times[i]), x), axis=(1, 2))
        fv = ctx.coeffs.f(float(times[i]), x)
        sm = np.zeros(n)
        bigmass_l = np.zeros(n)
        bigmass_far = np.zeros(n)
        nz = fv != 0.0
        if nz.any():
            r_comp = level / np.abs(fv[nz])
            sm[nz] = ctx.driver.second_moment_upper(0.0, r_comp) * fv[nz] ** 2
            bigmass_l[nz] = ctx.driver.mass_lower(r_comp, math.inf)
            far = np.maximum(level, norms[nz] - radius) / np.abs(fv[nz])
            bigmass_far[nz] = ctx.driver.mass_lower(far, math.inf)
        g1 += dt * float(np.mean(np.where(inside, bnorm + anorm + sm, 0.0)))
        g2 += dt * float(np.mean(bigmass_far + np.where(inside, bigmass_l, 0.0)))
    report = {"radius": radius, "local_integrals": g1, "jump_mass_integrals": g2}
    if not math.isfinite(g1):
        raise GeneratorError(
            "integrability guard failed: local coefficient/compensated-jump "
            "integral diverges (first well-posedness condition)")
    if not math.isfinite(g2):
        raise GeneratorError(
            "integrability guard failed: big-jump mass integral diverges "
            "(second well-posedness condition)")
    return report


def fpe_weak_residual(ensemble: PathEnsemble, ctx: GeneratorContext,
                      phi: TestFunction, run_guards: bool = True) -> FpeReport:
    """Residual curve of the empirical weak forward identity for one phi."""
    if phi.support_class != COMPACT:
        raise GeneratorError("the weak forward identity is tested on "
                             "compactly supported functions")
    guards = integrability_guards(ensemble, ctx) if run_guards else {}
    times, vals = ensemble.times, ensemble.values
    n, M1, _ = vals.shape
    phi0 = phi.phi(vals[:, 0, :])
    acc = np.zeros(n)
    residual = np.zeros(M1)
    se = np.zeros(M1)
    h_eff = float(np.max(np.diff(times)))
    for i in range(M1 - 1):
        gv, _ = generator_apply(ctx, phi, float(times[i]), vals[:, i, :])
        acc += gv * (times[i + 1] - times[i])
        stat = phi.phi(vals[:, i + 1, :]) - phi0 - acc
        residual[i + 1] = float(stat.mean())
        se[i + 1] = float(stat.std(ddof=1) / math.sqrt(n))
    k = int(np.argmax(np.abs(residual)))
    return FpeReport(phi_name=phi.name, times=times.copy(), residual=residual,
                     mc_se=se, sup_abs=float(abs(residual[k])), sup_se=float(se[k]),
                     guards=guards, h=h_eff)


# ---------------------------------------------------------------------------
# superposition cross-check
# ---------------------------------------------------------------------------

@dataclass
class CrosscheckRow:
    phi_name: str
    sup_abs: float
    mc_se: float
    budget: float
    passed: bool
    sup_abs_refined: float | None = None


@dataclass
class CrosscheckReport:
    rows: list
    hypothesis: HypothesisReport
    h: float
    n_particles: int
    halving_ok: bool | None
    slope_constants: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        row_ok = all(r.passed for r in self.rows)
        return row_ok and (self.halving_ok is not False)


def superposition_crosscheck(ctx: GeneratorContext, mu0, dictionary,
                             h: float, n_particles: int, T: float, seed: int,
                             refine: bool = True,
                             se_factor: float = 3.0) -> CrosscheckReport:
    """Simulate an ensemble and test the weak forward identity per phi.

    The error budget per function is se_factor * (MC s.e.) + C * h where C
    is calibrated from the first-order decay between the h and h/2 runs
    (Richardson estimate with 25% headroom).  With refine=True the h/2 run
    also powers the halving check: the refined sup-residual must be at most
    half the coarse one, within combined noise.
    """
    from .engine import simulate_ensemble

    hyp = validate_hypotheses(ctx)
    if not hyp.ok:
        raise GeneratorError(f"hypothesis validation failed: {hyp}")
    ens = simulate_ensemble(ctx.coeffs, ctx.driver, ctx.trunc, mu0, n_particles,
                            h, T, seed)
    ens_half = None
    if refine:
        ens_half = simulate_ensemble(ctx.coeffs, ctx.driver, ctx.trunc, mu0,
                                     n_particles, h / 2, T, seed + 1)
    rows = []
    halving_ok = None if not refine else True
    slopes = {}
    run_guards = True
    for phi in dictionary:
        rep = fpe_weak_residual(ens, ctx, phi, run_guards=run_guards)
        run_guards = False  # guards are phi-independent; once per ensemble
        sup_half = None
        if refine:
            rep_half = fpe_weak_residual(ens_half, ctx, phi, run_guards=False)
            sup_half = rep_half.sup_abs
            slope = 2.5 * abs(rep.sup_abs - rep_half.sup_abs) / (h / 2)
            combined = se_factor * (rep_half.sup_se + 0.5 * rep.sup_se)
            if rep_half.sup_abs > 0.5 * rep.sup_abs + combined:
                halving_ok = False
        else:
            slope = 0.0
        slopes[phi.name] = slope
        budget = se_factor * rep.sup_se + slope * h
        rows.append(CrosscheckRow(phi_name=phi.name, sup_abs=rep.sup_abs,
                                  mc_se=rep.sup_se, budget=budget,
                                  passed=rep.sup_abs <= budget,
                                  sup_abs_refined=sup_half))
    return CrosscheckReport(rows=rows, hypothesis=hyp, h=h,
                            n_particles=n_particles, halving_ok=halving_ok,
                            slope_constants=slopes)
