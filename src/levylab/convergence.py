"""Quantitative tools for the coefficient-limit experiment.

Weak convergence of the path laws is probed through a finite-dictionary
bounded-Lipschitz distance between empirical marginals at checkpoint times
(the checkable finite-dimensional shadow of path-space convergence; every
report carries that restriction), plus tightness diagnostics patterned on
the sup-norm tail and the increment-at-stopping-time criteria, and a
numerical checker for the stochastic Gronwall inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import PathEnsemble, linear_quantile
from .psi import PsiFunction


class ConvergenceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# bounded-Lipschitz distance
# ---------------------------------------------------------------------------

# the random pairs on which validate() checks each dictionary entry
_PROBES, _PROBE_SEED = 256, 5


@dataclass
class EmpiricalDistanceConfig:
    """Finite dictionary of 1-bounded, 1-Lipschitz functions."""

    dictionary: list                  # (name, fn) with fn: (n, d) -> (n,)

    def validate(self, dim: int):
        rng = np.random.Generator(np.random.Philox(key=_PROBE_SEED))
        x = rng.uniform(-6, 6, size=(_PROBES, dim))
        y = x + rng.standard_normal((_PROBES, dim)) * rng.uniform(0, 2, (_PROBES, 1))
        tol = 1e-9
        for name, fn in self.dictionary:
            fx, fy = fn(x), fn(y)
            if np.max(np.abs(fx)) > 1.0 + tol:
                raise ConvergenceError(f"dictionary entry {name} exceeds bound 1")
            gap = np.linalg.norm(x - y, axis=1)
            if np.any(np.abs(fx - fy) > gap + tol):
                raise ConvergenceError(f"dictionary entry {name} is not 1-Lipschitz")
        return self

    def at(self, x: np.ndarray) -> list:
        """Every entry's values at the points x, in dictionary order."""
        return [fn(x) for _, fn in self.dictionary]


def default_bl_dictionary(dim: int = 1) -> EmpiricalDistanceConfig:
    entries = []
    for c in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for j in range(dim):
            def fn(x, c=c, j=j):
                return np.tanh(np.atleast_2d(x)[:, j] - c)
            entries.append((f"tanh[{j}]-{c:g}", fn))
    for c in (-1.5, 0.0, 1.5):
        def fn(x, c=c):
            x = np.atleast_2d(x)
            return np.maximum(0.0, 1.0 - np.linalg.norm(x - c, axis=1))
        entries.append((f"hat@{c:g}", fn))
    return EmpiricalDistanceConfig(entries).validate(dim)


def bl_distance_coupled(values1: np.ndarray, values2: np.ndarray,
                        cfg: EmpiricalDistanceConfig, at2: list | None = None):
    """Distance plus the common-random-number s.e. for coupled particle sets.

    at2 is cfg.at(values2), for a caller that compares several sets with
    one values2 and so evaluates the dictionary there once."""
    best, best_se = 0.0, 0.0
    n = values1.shape[0]
    if at2 is None:
        at2 = cfg.at(values2)
    for (_, fn), f2 in zip(cfg.dictionary, at2):
        diff = fn(values1) - f2
        gap = abs(float(diff.mean()))
        if gap >= best:
            best = gap
            best_se = float(diff.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return best, best_se


# ---------------------------------------------------------------------------
# Lyapunov moment and tightness diagnostics
# ---------------------------------------------------------------------------

def lyapunov_moment(ensemble: PathEnsemble, psi: PsiFunction):
    """Monte Carlo estimate of E sup_t Psi^(1/2)(X_t), with its s.e."""
    if ensemble.n_particles == 0:
        raise ConvergenceError("empty ensemble")
    vals = ensemble.values
    n, M1, d = vals.shape
    w = psi.value(np.log1p(np.einsum("nmd,nmd->nm", vals, vals)))
    per_path = np.sqrt(np.maximum(w, 0.0)).max(axis=1)
    return float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(n))


@dataclass
class TightnessReport:
    sup_tail: list          # rows (K, sup_n P(sup_t |X| > K))
    increment_tail: list    # rows (theta, sup over n and taus of P(|X_{tau+theta}-X_tau| >= N))
    sup_tail_decays: bool
    increment_tail_decays: bool


def tightness_diagnostics(ensembles: dict, K_grid, theta_grid,
                          N_threshold: float) -> TightnessReport:
    """Empirical renderings of the two tightness criteria for a family.

    Stopping times cannot be enumerated; the surrogate lattice uses
    deterministic times and first-exit times of centered balls, which are
    the stopping times the estimates actually manipulate.
    """
    sup_rows = []
    members = list(ensembles.values())
    sups = [np.linalg.norm(e.values, axis=2).max(axis=1) for e in members]
    for K in K_grid:
        sup_rows.append((float(K), max(float(np.mean(s > K)) for s in sups)))
    inc_rows = []
    for theta in theta_grid:
        worst = 0.0
        for e in members:
            times, vals = e.times, e.values
            norms = np.linalg.norm(vals, axis=2)
            taus = []
            # deterministic times at quartiles of the horizon
            for frac in (0.0, 0.25, 0.5, 0.75):
                taus.append(np.full(vals.shape[0],
                                    int(frac * (times.size - 1)), dtype=int))
            # first-exit times of centered balls at sup-norm quantiles
            for qv in (0.5, 0.9):
                radius = linear_quantile(norms.max(axis=1), qv)
                exited = norms > radius
                first = np.where(exited.any(axis=1),
                                 exited.argmax(axis=1), times.size - 1)
                taus.append(first.astype(int))
            for tau_idx in taus:
                t_tau = times[tau_idx]
                t_target = t_tau + theta
                ok = t_target <= times[-1] + 1e-12
                if not ok.any():
                    continue
                idx2 = np.clip(np.searchsorted(times, t_target[ok], side="right") - 1,
                               0, times.size - 1)
                x1 = vals[np.nonzero(ok)[0], tau_idx[ok], :]
                x2 = vals[np.nonzero(ok)[0], idx2, :]
                p = float(np.mean(np.linalg.norm(x2 - x1, axis=1) >= N_threshold))
                worst = max(worst, p)
        inc_rows.append((float(theta), worst))
    sup_vals = [p for _, p in sup_rows]
    inc_vals = [p for _, p in inc_rows]
    return TightnessReport(
        sup_tail=sup_rows, increment_tail=inc_rows,
        sup_tail_decays=all(b <= a + 1e-12 for a, b in zip(sup_vals, sup_vals[1:])),
        increment_tail_decays=all(a <= b + 1e-12 for a, b in zip(inc_vals, inc_vals[1:])),
    )


# ---------------------------------------------------------------------------
# stochastic Gronwall inequality checker
# ---------------------------------------------------------------------------

@dataclass
class GronwallResult:
    lhs: float
    rhs: float
    lhs_se: float
    rhs_se: float
    passed: bool


def gronwall_check(xi, eta, A, M, p: float, q: float, grid,
                   tau=None) -> GronwallResult:
    """Monte Carlo check of the stochastic Gronwall bound.

    Inputs are arrays of shape (paths, len(grid)).  The pathwise hypothesis
    xi <= eta + int xi dA + M is verified on the grid with the right-point
    Stieltjes sum (the convention under which the exponential equality case
    holds exactly on a grid); violating inputs are rejected with a witness.
    tau is a time (scalar) or per-path array of times; default: end of grid.
    """
    if not 0 < q < p < 1:
        raise ConvergenceError("need 0 < q < p < 1")
    xi, eta, A, M = (np.atleast_2d(np.asarray(z, dtype=float)) for z in (xi, eta, A, M))
    grid = np.asarray(grid, dtype=float)
    R, K = xi.shape
    if np.any(xi < 0) or np.any(eta < 0):
        raise ConvergenceError("xi and eta must be non-negative")
    if np.any(A[:, 0] != 0) or np.any(np.diff(A, axis=1) < 0):
        raise ConvergenceError("A must be non-decreasing with A_0 = 0")
    if np.any(M[:, 0] != 0):
        raise ConvergenceError("M must start at 0")
    # right-point Stieltjes sum of xi dA
    integ = np.zeros_like(xi)
    integ[:, 1:] = np.cumsum(xi[:, 1:] * np.diff(A, axis=1), axis=1)
    slack = xi - (eta + integ + M)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(xi))))
    if np.any(slack > tol):
        r, k = np.unravel_index(int(np.argmax(slack)), slack.shape)
        raise ConvergenceError(
            f"hypothesis xi <= eta + int xi dA + M violated on path {r} at "
            f"t={grid[k]:.6g} by {slack[r, k]:.3g}")
    if tau is None:
        idx = np.full(R, K - 1, dtype=int)
    else:
        taus = np.broadcast_to(np.asarray(tau, dtype=float), (R,))
        idx = np.clip(np.searchsorted(grid, taus, side="right") - 1, 0, K - 1)
    rows = np.arange(R)
    mask = np.arange(K)[None, :] <= idx[:, None]
    sup_xi_q = np.where(mask, xi, -np.inf).max(axis=1) ** q
    sup_eta = np.where(mask, eta, -np.inf).max(axis=1)
    expA = np.exp(p * A[rows, idx] / (1.0 - p))

    def mean_se(z):
        return float(z.mean()), float(z.std(ddof=1) / math.sqrt(R)) if R > 1 else 0.0

    m1, s1 = mean_se(sup_xi_q)
    lhs = m1 ** (1.0 / q)
    lhs_se = (1.0 / q) * m1 ** (1.0 / q - 1.0) * s1 if m1 > 0 else s1
    factor = (p / (p - q)) ** (1.0 / q)
    m2, s2 = mean_se(expA)
    f2 = m2 ** ((1.0 - p) / p)
    f2_se = ((1.0 - p) / p) * m2 ** ((1.0 - p) / p - 1.0) * s2
    m3, s3 = mean_se(sup_eta)
    rhs = factor * f2 * m3
    rhs_se = factor * math.hypot(f2_se * m3, f2 * s3)
    passed = lhs <= rhs + 3.0 * (lhs_se + rhs_se)
    return GronwallResult(lhs=lhs, rhs=rhs, lhs_se=lhs_se, rhs_se=rhs_se,
                          passed=passed)


# ---------------------------------------------------------------------------
# density estimates (assumption log for the uniform-density hypothesis)
# ---------------------------------------------------------------------------

def density_sup_estimate(points: np.ndarray) -> float:
    """Scott-rule histogram sup of the first coordinate's marginal density.

    Crude by design: this feeds an assumption log, not a proof.
    """
    x = np.atleast_2d(points)[:, 0]
    n = x.size
    sd = float(x.std())
    if sd == 0.0:
        return math.inf
    width = 3.49 * sd * n ** (-1.0 / 3.0)
    lo, hi = float(x.min()), float(x.max())
    nbins = max(1, int(math.ceil((hi - lo) / width)))
    counts, _ = np.histogram(x, bins=nbins, range=(lo, hi + 1e-12))
    return float(counts.max() / (n * width))


# ---------------------------------------------------------------------------
# the limit experiment's verdict and level bound
# ---------------------------------------------------------------------------

def decreasing_verdict(distances, ses):
    """(non_increasing, ratio, passed) for distances ordered by n: no step up
    beyond 2 s.e. of the pair, and final/initial <= 1/4, or initial and final
    both <= 1e-14 (ratio None)."""
    non_inc = not any(b > a + 2.0 * (sa + sb) for a, b, sa, sb
                      in zip(distances, distances[1:], ses, ses[1:]))
    d0, d1 = distances[0], distances[-1]
    if d0 > 1e-14:
        ratio = float(d1 / d0)
        return non_inc, ratio, non_inc and ratio <= 0.25
    return non_inc, None, non_inc and d1 <= 1e-14


def enforce_level_bound(trunc_level: float, gamma_sup: float):
    """The limit experiment requires level <= 1 / (sqrt(2) * sup |gamma^n|)."""
    if gamma_sup > 0 and trunc_level > 1.0 / (math.sqrt(2.0) * gamma_sup) + 1e-12:
        raise ConvergenceError(
            f"truncation level {trunc_level} exceeds 1/(sqrt(2)*Gamma) = "
            f"{1.0 / (math.sqrt(2.0) * gamma_sup):.6g} required by the "
            "limit experiment")
