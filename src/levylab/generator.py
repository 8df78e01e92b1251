"""The integro-differential generator and the two residual tests built on it.

For a test function phi the generator value at (t, x) is

    a_ij(t, x) d_ij phi(x) + b_i(t, x) d_i phi(x)
      + int [ phi(x + u) - phi(x) - 1_{|u| <= l} u . grad phi(x) ] nu_x(du)

with a = sigma sigma^T / 2 and nu_x the push-forward of the driver measure
through z -> f(t, x) z.  Because f is scalar, the compensated region
{|u| <= l} pulls back to the centered ball of radius l / |f(t, x)|, so all
jump-term pieces reduce to annulus queries of the driver measure: exact sums
for atomic drivers; for radial ones, the measure's deterministic
Gauss-Legendre rule (`LevyMeasure.quadrature`) for phi(x + u) - phi(x) and
the analytic first moment on the compensated ball.

The two residual tests:

* martingale_residual checks that phi(x_t) - phi(x_s) - sum (L phi) dr has
  conditionally zero mean given a coarse binning of x_s, over an ensemble;
* fpe_weak_residual checks the weak forward identity
  mu_t(phi) = mu_0(phi) + int mu_s(L phi) ds on empirical marginals,
  which together with the simulation engine is the empirical rendering of
  the equivalence between path laws and weak forward solutions.

The paper's two jump hypotheses, H^s (square-integrable compensated small
jumps) and H^l (finite big-jump mass), are evaluated per row by
jump_hypotheses alone: eval_generator, validate_hypotheses and the forward
residual's integrability_guards all read it.

The superposition kind's two verdict rules live here too: fpe_verdict
holds each residual to 3 s.e. plus a first-order C h term at its own time,
with the halving check between the h and h/2 runs, and each bin of a
MartingaleReport carries its own 3-s.e. `pass`.

Both tests are evaluated for a whole test-function dictionary in one march
over the ensemble's time slices.  Each slice makes one generator_apply call:
b, a, f, the jump images and an atomic driver's small-jump mask are
computed once, and the whole dictionary's phi, grad and hess come from one
dictionary pass (`testfunctions.evaluate`) over the slice, and its phi
alone from one pass over each chunk of jump images.  The slice's phi(x_i) is both the
generator's base value and the FPE statistic at t_i, and the martingale
increments on a sub-window accumulate in the same march: the martingale
test bins the increments an FpeReport carries.  A caller that wants only
the window marches the window's slices as an ensemble view,
PathEnsemble(times[i_s:i_t+1], values[:, i_s:i_t+1]).  Only O(K n)
accumulators are kept, never per-slice values.  A single function is the
one-element dictionary; all results are bit for bit those of evaluating
each function on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, default_probe_points, linear_growth_report
from .engine import PathEnsemble, linear_quantile, sorted_unique
from .measures import AtomicLevyMeasure, LevyMeasure, TruncationConfig
from .testfunctions import COMPACT, TestFunction, evaluate


class GeneratorError(RuntimeError):
    pass


@dataclass
class GeneratorContext:
    coeffs: CoefficientSet
    driver: LevyMeasure
    trunc: TruncationConfig


def _norms(y, axis=1):
    """np.linalg.norm(y, axis=axis) for real y, bit for bit, without its overhead."""
    return np.sqrt(np.add.reduce(y * y, axis=axis))


# cap on the entries of one (paths, nodes, d) jump-image temporary; a chunk's
# value-only dictionary pass holds every function's phi at once, so a chunk
# peaks at about 20 arrays of this size
_IMAGE_ENTRIES = 1 << 19


def _require_finite_activity(driver: LevyMeasure):
    """The jump quadrature integrates the driver over the whole line."""
    if not math.isfinite(driver.mass(0.0, math.inf)):
        raise GeneratorError(
            "jump quadrature needs a finite-activity driver; the small-jump "
            "square integrability must be checked via validate_hypotheses instead")


def _jump_terms(ctx: GeneratorContext, phis: list, jets: list, t, X: np.ndarray):
    """Non-local term, (K, n), for the whole dictionary: the images X + f(X) z
    are built once, and one value-only dictionary pass gives every phi at a
    chunk's images.  `jets` are the functions' (phi, grad, hess) at X.

    An atomic driver's sum is a matmul, which may round a row differently
    in a smaller batch, so it is never chunked.  Any other driver is
    integrated by its quadrature rule (nodes z_j, weights w_j) over the whole
    line, per row sum_j w_j (phi(x + f z_j) - phi(x)) - f grad phi(x) .
    first_moment(0, l / |f|): the compensator is analytic, so the rule
    needs no break where the small-jump indicator jumps.  The rule's images
    are taken in chunks of paths, laid out (paths, nodes) with the nodes
    innermost; each row is reduced on its own, so chunking changes no bit."""
    n, d = X.shape
    vals = np.zeros((len(phis), n))
    fv = ctx.coeffs.f(t, X)
    if isinstance(ctx.driver, AtomicLevyMeasure):
        if ctx.driver.atoms.shape[0]:
            _atomic_sums(ctx, phis, jets, fv, X, vals)
        return vals
    _require_finite_activity(ctx.driver)
    z, w = ctx.driver.quadrature(0.0, math.inf)                  # (q, d), (q,)
    q = w.size
    if q == 0:
        return vals
    step = max(1, _IMAGE_ENTRIES // (q * d))
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        # (d, chunk, q) products, handed to the pass as (chunk * q, d) points
        images = X.T[:, rows, None] + fv[rows, None] * z.T[:, None, :]
        at_images = evaluate(phis, np.moveaxis(images, 0, -1).reshape(-1, d),
                             derivatives=False)
        for out, phi_images, (base, _, _) in zip(vals, at_images, jets):
            integrand = phi_images.reshape(-1, q) - base[rows, None]
            integrand *= w
            out[rows] = integrand.sum(axis=1)
    with np.errstate(divide="ignore"):
        radius = ctx.trunc.level / np.abs(fv)                    # inf where f = 0
    compensator = fv[:, None] * ctx.driver.first_moment(0.0, radius)   # (n, d)
    for out, (_, grad, _) in zip(vals, jets):
        out -= np.einsum("nd,nd->n", compensator, grad)
    return vals


def _atomic_sums(ctx: GeneratorContext, phis: list, jets: list, fv, X, vals):
    """An atomic driver's jump terms, written into vals (K, n): per row, the
    sum over the atoms z_j of mass_j (phi(x + u_j) - phi(x) - 1_{|u_j| <= l}
    u_j . grad phi(x)), u_j = f(x) z_j.

    The images are laid out atom-major, (k, n, d) with atom j's block the n
    rows, so every broadcast runs along the n rows and not along the k atoms
    or d coordinates.  The integrand is filled column by column into a
    C-contiguous (n, k) array: the one matmul with the masses may round a
    row otherwise."""
    z = ctx.driver.atoms                                          # (k, d)
    k, (n, d) = z.shape[0], X.shape
    U = z[:, None, :] * fv[None, :, None]                         # (k, n, d)
    images = (X + U).reshape(-1, d)
    small = _norms(U, axis=2) <= ctx.trunc.level
    # with no image in the band the compensator term is +0.0 everywhere,
    # and subtracting +0.0 changes no bit
    any_small = small.any()
    at_images = evaluate(phis, images, derivatives=False)
    integrand = np.empty((n, k))
    for out, phi_images, (base, grad, _) in zip(vals, at_images, jets):
        for j, column in enumerate(phi_images.reshape(k, n)):
            np.subtract(column, base, out=integrand[:, j])
        if any_small:
            integrand -= np.where(small, np.einsum("knd,nd->kn", U, grad), 0.0).T
        out[:] = integrand @ ctx.driver.masses


def generator_apply(ctx: GeneratorContext, phis, t, X: np.ndarray, jets=None):
    """Generator values, (K, n), of a sequence of K functions over the n rows
    of X, with b, a and the jump images computed once.  `jets` are the
    functions' (phi, grad, hess) at X when the caller already has them.
    """
    phis = list(phis)
    X = np.atleast_2d(X)
    if jets is None:
        jets = evaluate(phis, X)
    a = ctx.coeffs.a(t, X)
    b = ctx.coeffs.b(t, X)
    vals = _jump_terms(ctx, phis, jets, t, X)
    for k, (_, g, h) in enumerate(jets):
        vals[k] = np.einsum("nij,nij->n", a, h) + np.einsum("ni,ni->n", b, g) + vals[k]
    return vals


def jump_hypotheses(ctx: GeneratorContext, t, X: np.ndarray):
    """The paper's two jump hypotheses on each row of X, as (f, small, big).

    f is f(t, x); small is the compensated band's second moment
    f^2 int_{|z| <= l/|f|} |z|^2 nu(dz) (H^s) and big the uncompensated mass
    nu(|z| > l/|f|) (H^l).  A row with f = 0 has no jump images and gets 0
    and 0.  Either may be inf; the callers decide what that means."""
    f = ctx.coeffs.f(t, X)
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = ctx.trunc.level / np.abs(f)                     # inf where f = 0
        # inf * 0 is NaN on a row with f = 0, which the mask replaces
        small = np.where(f != 0.0, ctx.driver.second_moment(0.0, radius) * f * f, 0.0)
    return f, small, ctx.driver.mass(radius, math.inf)     # 0 at radius inf


def eval_generator(ctx: GeneratorContext, phi: TestFunction, t: float, x) -> float:
    """Generator value at a single point, once both jump hypotheses hold there."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _, small, big = jump_hypotheses(ctx, t, x)
    if not np.isfinite(small).all():
        raise GeneratorError(
            "small-jump square integrability fails at this point "
            "(hypothesis H^s on the compensated band)")
    if not np.isfinite(big).all():
        raise GeneratorError(
            "big-jump mass is infinite at this point "
            "(hypothesis H^l on the uncompensated region)")
    return float(generator_apply(ctx, [phi], t, x)[0, 0])


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


def validate_hypotheses(ctx: GeneratorContext, T: float = 1.0) -> HypothesisReport:
    """Fit the smallest hypothesis constants on the probe grid, or find witnesses.

    Fits C1 for the linear growth of (b, sigma), C2 for the normalized
    second moment of compensated jump images, C3 for the log-moment of the
    uncompensated images, on default_probe_points(d, T), the grid that a
    simulation's growth check reads.  A witness is the first probe (t, x), in
    time then point order, where a required integral is not finite; a point
    that fails H^s is not tested for H^l.  Constants are reported even when
    large.
    """
    ts, xs = probes = default_probe_points(ctx.coeffs.d, T)
    lg = linear_growth_report(ctx.coeffs, probes)
    norms = np.linalg.norm(xs, axis=1)
    c2, c3 = 0.0, 0.0
    w2 = w3 = None
    for t in ts:
        f, small, big = jump_hypotheses(ctx, float(t), xs)
        ok2 = np.isfinite(small)
        bad3 = ok2 & ~np.isfinite(big)
        if w2 is None and not ok2.all():
            w2 = (float(t), xs[np.argmin(ok2)].copy())
        if w3 is None and bad3.any():
            w3 = (float(t), xs[np.argmax(bad3)].copy())
        if ok2.any():
            c2 = max(c2, float(np.max(small[ok2] / (1.0 + norms[ok2] ** 2))))
        for i in np.flatnonzero(ok2 & ~bad3 & (f != 0.0)):
            r, scale = ctx.trunc.level / abs(f[i]), abs(f[i]) / (1.0 + norms[i])
            c3 = max(c3, ctx.driver.radial_integral(lambda rr: np.log1p(scale * rr),
                                                    float(r), math.inf))
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
    phi_name: str
    bins: list           # per-bin dicts: bin, count, estimate, se, scored, pass
    max_sigmas: float    # max |estimate| / se over scored bins
    overall: tuple       # (estimate, se) without conditioning

    @property
    def within(self) -> bool:
        """Every bin passes: it is not scored, or |estimate| <= 3 se."""
        return all(b["pass"] for b in self.bins)


_N_BINS = 8   # bins per coordinate of the state at s that varies


def martingale_residual(ensemble: PathEnsemble, report: FpeReport,
                        min_bin: int = 100) -> MartingaleReport:
    """Conditional-mean test of the compensated increments over [s, t] that
    `report` carries (`fpe_weak_residual(ensemble, ..., martingale_window=(s, t))`).

    Bins the ensemble on the state at time s (a coarse measurable partition
    of the past, hence a necessary condition for the martingale property)
    and reports the worst normalized bin mean.
    """
    if report.window is None:
        raise GeneratorError(f"the report of {report.phi_name!r} has no martingale "
                             "window: pass martingale_window to fpe_weak_residual")
    inc = report.increments
    if inc.shape != (ensemble.n_particles,):
        raise GeneratorError(f"need one increment per path, got shape {inc.shape}")
    xs = ensemble.values[:, report.window[0], :]
    # bin on each coordinate with spread; combine bin ids
    ids = np.zeros(xs.shape[0], dtype=int)
    for j in [j for j in range(xs.shape[1]) if np.ptp(xs[:, j]) > 0]:
        e = np.linspace(xs[:, j].min(), xs[:, j].max(), _N_BINS + 1)
        e[-1] += 1e-12
        ids = ids * _N_BINS + np.clip(np.digitize(xs[:, j], e) - 1, 0, _N_BINS - 1)
    bins = []
    max_sig = 0.0
    for bid in sorted_unique(ids):
        sel = ids == bid
        cnt = int(sel.sum())
        scored = cnt >= min_bin
        est = float(inc[sel].mean())
        se = float(inc[sel].std(ddof=1) / math.sqrt(cnt)) if cnt > 1 else math.inf
        # the bin rule: a scored bin's mean within 3 s.e. of zero; NaN fails
        bins.append({"bin": int(bid), "count": cnt, "estimate": est, "se": se,
                     "scored": scored, "pass": (not scored) or abs(est) <= 3 * se})
        if scored:
            sig = 0.0 if est == 0.0 else abs(est) / se if se > 0 else math.inf
            max_sig = max(max_sig, sig)
    overall = (float(inc.mean()), float(inc.std(ddof=1) / math.sqrt(inc.size)))
    return MartingaleReport(phi_name=report.phi_name, bins=bins,
                            max_sigmas=max_sig, overall=overall)


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
    window: tuple | None = None              # (i_s, i_t), the martingale window's slices
    increments: np.ndarray | None = None     # (n,) phi(x_t) - phi(x_s) - sum_{[s, t)} (L phi) dt


def path_sup_norms(vals: np.ndarray) -> np.ndarray:
    """max over slices of |vals[p, i]| per path p of an (n, M+1, d) tensor,
    taken slice by slice, so no (n, M+1) temporary is built."""
    sup = _norms(vals[:, 0, :])
    for i in range(1, vals.shape[1]):
        np.maximum(sup, _norms(vals[:, i, :]), out=sup)
    return sup


def integrability_guards(ensemble: PathEnsemble, ctx: GeneratorContext) -> None:
    """Empirical finiteness checks of the two integrability conditions that
    make the weak forward identity well-posed; divergent estimates abort.
    Inside the ball of the 95% quantile of the path sup-norms a path adds
    |b| + |a| + H^s to the first and H^l to the second; every path adds to
    the second the mass of the jumps that reach the ball."""
    times, vals = ensemble.times, ensemble.values
    level = ctx.trunc.level
    radius = linear_quantile(path_sup_norms(vals), 0.95)
    g1 = 0.0
    g2 = 0.0
    for i in range(times.size - 1):
        dt = times[i + 1] - times[i]
        t, x = float(times[i]), vals[:, i, :]
        norms = _norms(x)
        inside = norms <= radius
        bnorm = _norms(ctx.coeffs.b(t, x))
        anorm = _norms(ctx.coeffs.a(t, x), axis=(1, 2))
        f, small, big = jump_hypotheses(ctx, t, x)
        with np.errstate(divide="ignore"):
            far = np.maximum(level, norms - radius) / np.abs(f)   # inf where f = 0
        g1 += dt * float(np.mean(np.where(inside, bnorm + anorm + small, 0.0)))
        g2 += dt * float(np.mean(ctx.driver.mass(far, math.inf)
                                 + np.where(inside, big, 0.0)))
    if not math.isfinite(g1):
        raise GeneratorError(
            "integrability guard failed: local coefficient/compensated-jump "
            "integral diverges (first well-posedness condition)")
    if not math.isfinite(g2):
        raise GeneratorError(
            "integrability guard failed: big-jump mass integral diverges "
            "(second well-posedness condition)")


def _march(ensemble: PathEnsemble, ctx: GeneratorContext, phis: list, window=None):
    """One pass over all of the ensemble's time slices for the whole dictionary.

    Each slice i makes one dictionary pass (`testfunctions.evaluate`) for
    the jets at x_i and one generator_apply call.  The jets give the
    generator its base values and are also phi(x_i) for the FPE statistic
    at t_i, so phi is evaluated once per slice and function.  The last
    slice needs phi alone, from each function's own phi.  Returns the
    (K, M1) residual and s.e. curves and, when window = (i_s, i_t) is
    given, the K per-path compensated increments over it, summed from zero
    at i_s.  Only (K, n) accumulators are kept, never per-slice generator
    values.
    """
    times, vals = ensemble.times, ensemble.values
    n, M1, _ = vals.shape
    K = len(phis)
    last = M1 - 1
    residual = np.zeros((K, M1))
    se = np.zeros((K, M1))
    acc = np.zeros((K, n))        # int_0^{t_i} L phi dr per path
    win_acc = np.zeros((K, n))    # the same over the martingale window
    i_s, i_t = window if window is not None else (M1, M1)
    increments = None
    for i in range(M1):
        X = vals[:, i, :]
        jets = evaluate(phis, X) if i < last else None
        base = ([jet[0] for jet in jets] if jets is not None
                else [phi.phi(X) for phi in phis])
        if i == 0:
            phi0 = base
        else:
            for k in range(K):
                stat = base[k] - phi0[k] - acc[k]
                residual[k, i] = float(stat.mean())
                se[k, i] = float(stat.std(ddof=1) / math.sqrt(n))
        if i == i_s:
            phi_s = base
        if i == i_t:
            increments = [base[k] - phi_s[k] - win_acc[k] for k in range(K)]
        if i == last:
            break
        gv = generator_apply(ctx, phis, float(times[i]), X, jets=jets)
        step = gv * (times[i + 1] - times[i])
        acc += step
        if i_s <= i < i_t:
            win_acc += step
    return residual, se, increments


def fpe_weak_residual(ensemble: PathEnsemble, ctx: GeneratorContext,
                      phis, run_guards: bool = True, martingale_window=None) -> list:
    """Residual curves of the empirical weak forward identity, one FpeReport
    per function of the sequence `phis`, in its order, from one march over
    the ensemble's slices.  With martingale_window=(s, t) each report also
    carries the window's slice indices and the per-path compensated
    increments over [s, t], accumulated in the same march, for
    martingale_residual.
    """
    phis = list(phis)
    if any(phi.support_class != COMPACT for phi in phis):
        raise GeneratorError("the weak forward identity is tested on "
                             "compactly supported functions")
    window = None
    if martingale_window is not None:
        s, t = martingale_window
        if not s < t:
            raise GeneratorError("need s < t")
        window = (ensemble.index_at(s), ensemble.index_at(t))
    if run_guards:
        integrability_guards(ensemble, ctx)
    times = ensemble.times
    residual, se, increments = _march(ensemble, ctx, phis, window)
    reports = []
    for k, phi in enumerate(phis):
        j = int(np.argmax(np.abs(residual[k])))
        reports.append(FpeReport(
            phi_name=phi.name, times=times.copy(), residual=residual[k],
            mc_se=se[k], sup_abs=float(abs(residual[k, j])), sup_se=float(se[k, j]),
            window=window, increments=None if increments is None else increments[k]))
    return reports


# ---------------------------------------------------------------------------
# the superposition kind's forward-identity verdict
# ---------------------------------------------------------------------------

@dataclass
class FpeVerdict:
    budget: np.ndarray   # 3 mc_se + C h per time
    passes: np.ndarray   # |residual| <= budget per time; a NaN residual fails
    halving: bool        # the h/2 sup-residual is about half the h one

    @property
    def within(self) -> bool:
        return bool(self.passes.all())


def fpe_verdict(rep: FpeReport, rep_half: FpeReport, h: float) -> FpeVerdict:
    """The forward-identity verdict of one function from its h and h/2 runs.

    Each residual at step h must lie within the budget 3 mc_se + C h at its
    own time.  C is the first-order decay between the two runs'
    sup-residuals, C = 2.5 |sup_h - sup_{h/2}| / (h/2), so with 25% headroom.
    The refined sup-residual passes the halving check unless it exceeds half
    the coarse one by more than 3 combined standard errors, so a NaN
    residual does not fail it (it fails the budget).
    """
    slope = 2.5 * abs(rep.sup_abs - rep_half.sup_abs) / (h / 2)
    budget = 3.0 * rep.mc_se + slope * h
    combined = 3.0 * (rep_half.sup_se + 0.5 * rep.sup_se)
    return FpeVerdict(budget=budget, passes=np.abs(rep.residual) <= budget,
                      halving=not rep_half.sup_abs > 0.5 * rep.sup_abs + combined)
