"""Construction of the slowly growing Lyapunov profile psi.

psi is a C^2 function on [0, inf) with

    psi(0) = 0,   0 < psi' <= 1,   -2 <= psi'' <= 0,   psi(r) -> inf,

whose composition with log(1 + |x|^2) has a finite integral against a given
initial law.  The representation is a continuous piecewise-linear derivative
psi' (so psi is piecewise quadratic and exactly C^2-evaluable): constant
slopes between knots, linear blends at knots.  Each blend width is at least
half the slope drop, which pins psi'' >= -2 by construction; equalities in
the four constraints are exact at every evaluation point, not approximate.

When the plain identity profile already integrates, it is used as is; when
the weighted sum diverges past a budget, slopes are flattened geometrically
past quantile knots, doubling the flattening until the sum fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PsiError(ValueError):
    pass


MIN_BLEND = 1e-3


@dataclass
class PsiFunction:
    """Piecewise-quadratic profile: breaks of psi' with values at the breaks.

    breaks: increasing, breaks[0] == 0; deriv values v[j] = psi'(breaks[j]),
    linear in between, constant (= v[-1]) beyond the last break.
    """

    breaks: np.ndarray
    deriv_values: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breaks, dtype=float)
        v = np.asarray(self.deriv_values, dtype=float)
        if b[0] != 0.0 or (b.size > 1 and not np.all(np.diff(b) > 0)):
            raise PsiError("breaks must start at 0 and increase strictly")
        if np.any(v <= 0.0) or np.any(v > 1.0):
            raise PsiError("psi' must lie in (0, 1]")
        if np.any(np.diff(v) > 0.0):
            raise PsiError("psi' must be non-increasing")
        seg = np.diff(b)
        if seg.size and np.any(-np.diff(v) > 2.0 * seg + 1e-15):
            raise PsiError("psi'' < -2 somewhere: blend widths too small")
        self.breaks = b
        self.deriv_values = v
        # cumulative psi at breaks (trapezoid of the piecewise-linear derivative)
        self._cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * seg)]) \
            if b.size > 1 else np.zeros(1)

    def _locate(self, r):
        return np.clip(np.searchsorted(self.breaks, r, side="right") - 1, 0,
                       self.breaks.size - 1)

    def deriv(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        j = self._locate(r)
        b, v = self.breaks, self.deriv_values
        out = np.empty_like(r, dtype=float)
        last = j >= b.size - 1
        out[last] = v[-1]
        mid = ~last
        if mid.any():
            jm = j[mid]
            t = (r[mid] - b[jm]) / (b[jm + 1] - b[jm])
            interp = v[jm] + (v[jm + 1] - v[jm]) * t
            # interpolation can stray by one ulp; the clip is part of the
            # definition so the range constraint is exact
            out[mid] = np.clip(interp, v[jm + 1], v[jm])
        return float(out[0]) if scalar else out

    def second(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        j = self._locate(r)
        b, v = self.breaks, self.deriv_values
        out = np.zeros_like(r, dtype=float)
        mid = j < b.size - 1
        if mid.any():
            jm = j[mid]
            out[mid] = np.clip((v[jm + 1] - v[jm]) / (b[jm + 1] - b[jm]), -2.0, 0.0)
        return float(out[0]) if scalar else out

    def value(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        j = self._locate(r)
        b, v = self.breaks, self.deriv_values
        dr = r - b[j]
        out = self._cum[j] + v[j] * dr
        mid = j < b.size - 1
        if mid.any():
            jm = j[mid]
            curv = (v[jm + 1] - v[jm]) / (b[jm + 1] - b[jm])
            out[mid] += 0.5 * curv * dr[mid] ** 2
        return float(out[0]) if scalar else out

    def big_psi(self, x):
        """Psi(x) = psi(log(1 + |x|^2)) for an (n, d) array of states."""
        x = np.atleast_2d(x)
        return self.value(np.log1p(np.sum(x * x, axis=1)))

    def to_dict(self):
        return {"breaks": [float(b) for b in self.breaks],
                "deriv_values": [float(v) for v in self.deriv_values]}


def identity_psi() -> PsiFunction:
    return PsiFunction(np.array([0.0]), np.array([1.0]))


def _weighted_quantile(values, weights, q):
    order = np.argsort(values)
    v = values[order]
    cw = np.cumsum(weights[order])
    cw /= cw[-1]
    i = np.searchsorted(cw, q, side="left")
    return v[min(i, v.size - 1)]


def _build_from_slopes(knots, slopes):
    """Breaks/values of psi' for plateau slopes with C^2 blends after knots."""
    breaks = [0.0]
    values = [slopes[0]]
    prev_end = 0.0
    cur_slope = slopes[0]
    for k, s_next in zip(knots, slopes[1:]):
        if s_next >= cur_slope:
            continue
        drop = cur_slope - s_next
        width = max(MIN_BLEND, drop / 2.0)
        start = max(k, prev_end)
        breaks.extend([start, start + width])
        values.extend([cur_slope, s_next])
        prev_end = start + width
        cur_slope = s_next
    b = np.array(breaks)
    v = np.array(values)
    keep = np.concatenate([[True], np.diff(b) > 0])
    return PsiFunction(b[keep], v[keep])


def construct_psi(samples, weights=None, budget_factor: float = 10.0,
                  max_knots: int = 40) -> PsiFunction:
    """Profile adapted to an initial law given by samples or weighted atoms.

    With r = log(1 + |x|^2): if the weighted mean of r is within the budget
    (budget_factor times 1 + the weighted median), the identity profile is
    returned.  Otherwise slopes are flattened geometrically past weighted
    quantile knots, doubling the flattening exponent until the weighted sum
    of psi(r) fits the budget.
    """
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    if x.shape[0] == 0:
        raise PsiError("empty sample set")
    r = np.log1p(np.sum(x * x, axis=1))
    if weights is None:
        w = np.full(r.size, 1.0 / r.size)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape[0] != r.shape[0] or np.any(w < 0) or w.sum() <= 0:
            raise PsiError("weights must be non-negative and sum to > 0")
        w = w / w.sum()
    med = _weighted_quantile(r, w, 0.5)
    budget = budget_factor * (1.0 + med)
    if float(w @ r) <= budget:
        return identity_psi()
    # knots at quantile levels 1 - 2^-m
    knots = []
    for m2 in range(1, max_knots + 1):
        k = float(_weighted_quantile(r, w, 1.0 - 0.5 ** m2))
        if not knots or k > knots[-1] + 2 * MIN_BLEND:
            knots.append(k)
    knots = [k for k in knots if k > 0]
    for power in range(1, 60):
        rho = 0.5 ** power
        slopes = [1.0] + [max(rho ** (m + 1), 5e-324) for m in range(len(knots))]
        slopes = [min(1.0, max(s, 1e-300)) for s in slopes]
        psi = _build_from_slopes(np.asarray(knots), slopes)
        if float(w @ psi.value(r)) <= budget:
            return psi
    raise PsiError("could not flatten psi enough to meet the budget")


def weighted_big_psi_sum(psi: PsiFunction, samples, weights=None) -> float:
    """Direct weighted sum of Psi over atoms; the integrability statistic."""
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    if weights is None:
        weights = np.full(x.shape[0], 1.0 / x.shape[0])
    w = np.asarray(weights, dtype=float)
    return float(w @ psi.big_psi(x) / w.sum())
