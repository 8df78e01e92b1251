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

Both are evaluated for a whole test-function dictionary in one march over
the ensemble's time slices.  Each slice makes one generator_apply call:
b, a, f, the jump images and the small-jump mask are computed once, and
the whole dictionary's phi, grad and hess come from one dictionary pass
(`testfunctions.evaluate`) over the slice, and its phi alone from one pass
over each chunk of jump images.  The slice's phi(x_i) is both the
generator's base value and the FPE statistic at t_i, and the martingale
increments on a sub-window accumulate in the same march.  Only O(K n)
accumulators are kept, never per-slice values.  A single function is the
one-element dictionary of the same code; all results are bit for bit those
of evaluating each function on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .coefficients import CoefficientSet, linear_growth_report
from .engine import PathEnsemble
from .measures import AtomicLevyMeasure, LevyMeasure, TruncationConfig
from .testfunctions import COMPACT, LOG_GROWTH, TestFunction, evaluate


class GeneratorError(RuntimeError):
    pass


# master seed of the Monte Carlo jump-quadrature nodes
_QUAD_SEED = 2024


@dataclass
class GeneratorContext:
    coeffs: CoefficientSet
    driver: LevyMeasure
    trunc: TruncationConfig
    n_quad: int = 10_000

    def __post_init__(self):
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
            rng = rngmod.stream(_QUAD_SEED, rngmod.QUADRATURE,
                                namespace=rngmod.EXPERIMENT)
            nodes = (self.driver.sample(rng, self.n_quad, 0.0, math.inf)
                     if total > 0 else np.empty((0, self.driver.dim)))
            self._quad_nodes = (nodes, total)
        return self._quad_nodes


@dataclass
class GeneratorValue:
    value: float
    quad_se: float = 0.0


# cap on the entries of one (paths, nodes, d) Monte Carlo jump-image temporary;
# a chunk's value-only dictionary pass holds every function's phi at once,
# so a chunk peaks at about 20 arrays of this size
_IMAGE_ENTRIES = 1 << 19


def _jump_terms(ctx: GeneratorContext, phis: list, jets: list, t, X: np.ndarray):
    """Non-local term and its quadrature s.e., (K, n) each, for the whole
    dictionary: the images X + f(X) z and the small-jump mask are built
    once, and one value-only dictionary pass gives every phi at a chunk's
    images.  `jets` are the functions' (phi, grad, hess) at X.  Monte Carlo
    nodes are taken in chunks of paths (mean and std reduce each row alone,
    so no bit changes); an atomic driver's sum is a matmul, which may round
    a row differently in a smaller batch, so it is never chunked."""
    n, d = X.shape
    vals = np.zeros((len(phis), n))
    ses = np.zeros((len(phis), n))
    fv = ctx.coeffs.f(t, X)
    if isinstance(ctx.driver, AtomicLevyMeasure):
        z, total = ctx.driver.atoms, None                         # (k, d)
    else:
        z, total = ctx.quad_nodes()                               # (q, d)
        if total == 0.0:
            return vals, ses
    q = z.shape[0]
    if q == 0:
        return vals, ses
    step = max(1, n if total is None else _IMAGE_ENTRIES // (q * d))
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        U = fv[rows, None, None] * z[None, :, :]                  # (chunk, q, d)
        images = (X[rows, None, :] + U).reshape(-1, d)
        small = np.linalg.norm(U, axis=2) <= ctx.trunc.level
        # with no image in the band the compensator term is +0.0 everywhere,
        # and subtracting +0.0 changes no bit
        any_small = small.any()
        at_images = evaluate(phis, images, derivatives=False)
        for k, (phi_images, (base, grad, _)) in enumerate(zip(at_images, jets)):
            integrand = phi_images.reshape(-1, q) - base[rows, None]
            if any_small:
                integrand -= np.where(small, np.einsum("nqd,nd->nq", U, grad[rows]), 0.0)
            if total is None:
                vals[k, rows] = integrand @ ctx.driver.masses
            else:
                vals[k, rows] = total * integrand.mean(axis=1)
                ses[k, rows] = total * integrand.std(axis=1, ddof=1) / math.sqrt(q)
    return vals, ses


def generator_apply(ctx: GeneratorContext, phis, t, X: np.ndarray, jets=None):
    """Generator values over rows of X for one function or a whole dictionary.

    One TestFunction gives (values, quad_se) of shape (n,); a sequence of K
    functions gives (K, n) arrays, with b, a and the jump images computed
    once.  `jets` are the functions' (phi, grad, hess) at X when the caller
    already has them.
    """
    single = isinstance(phis, TestFunction)
    phis = [phis] if single else list(phis)
    X = np.atleast_2d(X)
    if jets is None:
        jets = evaluate(phis, X)
    a = ctx.coeffs.a(t, X)
    b = ctx.coeffs.b(t, X)
    vals, ses = _jump_terms(ctx, phis, jets, t, X)
    for k, (_, g, h) in enumerate(jets):
        vals[k] = np.einsum("nij,nij->n", a, h) + np.einsum("ni,ni->n", b, g) + vals[k]
    return (vals[0], ses[0]) if single else (vals, ses)


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


@dataclass
class MartingaleIncrements:
    """Per-path compensated increments of one function over one window."""

    phi_name: str
    window: tuple        # (i_s, i_t), slice indices of s and t
    values: np.ndarray   # (n,) phi(x_t) - phi(x_s) - sum_{[s, t)} (L phi) dt


def _window_indices(ensemble: PathEnsemble, s: float, t: float):
    if not s < t:
        raise GeneratorError("need s < t")
    return ensemble.index_at(s), ensemble.index_at(t)


def _march(ensemble: PathEnsemble, ctx: GeneratorContext, phis: list,
           fpe: bool, window=None):
    """One pass over the ensemble's time slices for the whole dictionary.

    Each slice i makes one dictionary pass (`testfunctions.evaluate`) for
    the jets at x_i and one generator_apply call.  The jets give the
    generator its base values and are also phi(x_i) for the FPE statistic
    at t_i, so phi is evaluated once per slice and function.  The last
    slice needs phi alone, from each function's own phi.  With
    fpe=False only the slices of window = (i_s, i_t) are marched.  Returns
    the (K, M1) residual and s.e. curves and, when a window is given, the
    per-function MartingaleIncrements over it.  Only (K, n) accumulators
    are kept, never per-slice generator values.
    """
    times, vals = ensemble.times, ensemble.values
    n, M1, _ = vals.shape
    K = len(phis)
    first, last = (0, M1 - 1) if fpe else window
    residual = np.zeros((K, M1))
    se = np.zeros((K, M1))
    acc = np.zeros((K, n))        # int_0^{t_i} L phi dr per path
    win_acc = np.zeros((K, n))    # the same over the martingale window
    i_s, i_t = window if window is not None else (None, None)
    for i in range(first, last + 1):
        X = vals[:, i, :]
        jets = evaluate(phis, X) if i < last else None
        base = ([jet[0] for jet in jets] if jets is not None
                else [phi.phi(X) for phi in phis])
        if i == first:
            phi0 = base
        if i == i_s:
            phi_s = base
        if i == i_t:
            phi_t = base
        if fpe and i > first:
            for k in range(K):
                stat = base[k] - phi0[k] - acc[k]
                residual[k, i] = float(stat.mean())
                se[k, i] = float(stat.std(ddof=1) / math.sqrt(n))
        if i == last:
            break
        gv, _ = generator_apply(ctx, phis, float(times[i]), X, jets=jets)
        step = gv * (times[i + 1] - times[i])
        acc += step
        if window is not None and i_s <= i < i_t:
            win_acc += step
    increments = None
    if window is not None:
        increments = [MartingaleIncrements(phi.name, (i_s, i_t),
                                           phi_t[k] - phi_s[k] - win_acc[k])
                      for k, phi in enumerate(phis)]
    return residual, se, increments


def martingale_residual(ensemble: PathEnsemble, ctx: GeneratorContext,
                        phi: TestFunction, s: float, t: float,
                        n_bins: int = 8, min_bin: int = 100,
                        increments=None) -> MartingaleReport:
    """Conditional-mean test of the compensated increment over [s, t].

    Bins the ensemble on the state at time s (a coarse measurable partition
    of the past, hence a necessary condition for the martingale property)
    and reports the worst normalized bin mean.  `increments` are the
    MartingaleIncrements of phi over [s, t] when the caller already has them
    (`fpe_weak_residual(..., martingale_window=(s, t))`); they must be of
    this phi, this window and one value per path.  Otherwise the window's
    slices are marched here.
    """
    if phi.support_class not in (COMPACT, LOG_GROWTH):
        raise GeneratorError("martingale test needs a compact or log-growth function")
    caveat = ("log-growth test function: only a local-martingale statement "
              "is available, residual interpreted under localization"
              if phi.support_class == LOG_GROWTH else None)
    i_s, i_t = _window_indices(ensemble, s, t)
    if increments is None:
        increments = _march(ensemble, ctx, [phi], fpe=False, window=(i_s, i_t))[2][0]
    if increments.phi_name != phi.name:
        raise GeneratorError(f"increments are of {increments.phi_name!r}, "
                             f"not of {phi.name!r}")
    if tuple(increments.window) != (i_s, i_t):
        raise GeneratorError(f"increments are over slices {tuple(increments.window)}, "
                             f"not over the window's slices {(i_s, i_t)}")
    inc = increments.values
    if inc.shape != (ensemble.n_particles,):
        raise GeneratorError(f"need one increment per path, got shape {inc.shape}")
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
    martingale_increments: MartingaleIncrements | None = None   # see fpe_weak_residual


def path_sup_norms(vals: np.ndarray) -> np.ndarray:
    """max over slices of |vals[p, i]| per path p of an (n, M+1, d) tensor,
    taken slice by slice, so no (n, M+1) temporary is built."""
    sup = np.linalg.norm(vals[:, 0, :], axis=1)
    for i in range(1, vals.shape[1]):
        np.maximum(sup, np.linalg.norm(vals[:, i, :], axis=1), out=sup)
    return sup


def integrability_guards(ensemble: PathEnsemble, ctx: GeneratorContext,
                         radius: float | None = None) -> dict:
    """Empirical finiteness checks of the two integrability conditions that
    make the weak forward identity well-posed; divergent estimates abort."""
    times, vals = ensemble.times, ensemble.values
    n = vals.shape[0]
    level = ctx.trunc.level
    if radius is None:
        radius = float(np.quantile(path_sup_norms(vals), 0.95))
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
                      phis, run_guards: bool = True, martingale_window=None):
    """Residual curves of the empirical weak forward identity.

    `phis` is one TestFunction, giving one FpeReport, or a dictionary, giving
    a list of reports in its order; either way the ensemble's slices are
    marched once.  With martingale_window=(s, t) each report also carries
    the per-path compensated increments over [s, t], accumulated in the same
    march, for martingale_residual(..., increments=...).
    """
    single = isinstance(phis, TestFunction)
    phis = [phis] if single else list(phis)
    if any(phi.support_class != COMPACT for phi in phis):
        raise GeneratorError("the weak forward identity is tested on "
                             "compactly supported functions")
    window = (None if martingale_window is None
              else _window_indices(ensemble, *martingale_window))
    guards = integrability_guards(ensemble, ctx) if run_guards else {}
    times = ensemble.times
    h_eff = float(np.max(np.diff(times)))
    residual, se, increments = _march(ensemble, ctx, phis, fpe=True, window=window)
    reports = []
    for k, phi in enumerate(phis):
        j = int(np.argmax(np.abs(residual[k])))
        reports.append(FpeReport(
            phi_name=phi.name, times=times.copy(), residual=residual[k],
            mc_se=se[k], sup_abs=float(abs(residual[k, j])), sup_se=float(se[k, j]),
            guards=guards, h=h_eff,
            martingale_increments=None if increments is None else increments[k]))
    return reports[0] if single else reports


# ---------------------------------------------------------------------------
# the superposition budget's step-size term
# ---------------------------------------------------------------------------

def richardson_slope(rep, rep_half, h: float):
    """Slope C of the C * h budget term, and whether the residual halves.

    C is the first-order decay between the h and h/2 runs' sup-residuals,
    with 25% headroom.  The refined sup-residual passes the halving check
    unless it exceeds half the coarse one by more than 3 combined standard
    errors, so a NaN residual does not fail it.
    """
    slope = 2.5 * abs(rep.sup_abs - rep_half.sup_abs) / (h / 2)
    combined = 3.0 * (rep_half.sup_se + 0.5 * rep.sup_se)
    return slope, not rep_half.sup_abs > 0.5 * rep.sup_abs + combined
