"""Test functions with analytic gradients and Hessians.

The workhorse shapes are radially windowed functions built from the C^2
quintic step S(v) = 10 v^3 - 15 v^4 + 6 v^5: the window equals 1 on a
plateau |x - c| <= r0 and decays to 0 at |x - c| = r1.  A windowed
polynomial is therefore *exactly* polynomial on its plateau, which is what
makes closed-form generator oracles possible, while still being a C^2
compactly supported function.

Analytic derivatives are cross-validated against finite differences at
registration; a silent derivative bug fails construction, not a later test.
The library shapes compute phi, grad and hess together in one fused `jet`
(one window evaluation; the generator calls it once per time slice) and
read grad and hess off it, so the check covers the jet itself; its phi must
equal the standalone phi bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

COMPACT = "compact"
LOG_GROWTH = "log_growth"


class TestFunctionError(ValueError):
    __test__ = False  # not a pytest collection target


@dataclass
class TestFunction:
    """phi: (n, d) -> (n,), grad: -> (n, d), hess: -> (n, d, d)."""

    __test__ = False  # not a pytest collection target

    name: str
    phi: callable
    grad: callable
    hess: callable
    dim: int
    support_class: str = COMPACT
    support_radius: float | None = None   # |x - center| beyond which phi == 0
    center: np.ndarray | None = None
    # x -> (phi, grad, hess) from one pass over x; defaults to the three calls
    jet: callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.jet is None:
            self.jet = lambda x: (self.phi(x), self.grad(x), self.hess(x))

    def __call__(self, x):
        return self.phi(np.atleast_2d(x))

    def validate_derivatives(self, probes: np.ndarray, rel_tol: float = 1e-5,
                             fd_step: float = 1e-6):
        """Cross-check grad/hess against central finite differences of phi,
        and the jet's phi against phi bit for bit."""
        probes = np.atleast_2d(probes)
        n, d = probes.shape
        if not np.array_equal(self.jet(probes)[0], self.phi(probes)):
            raise TestFunctionError(f"{self.name}: jet value disagrees with phi")
        g = self.grad(probes)
        h = self.hess(probes)
        scale = float(np.max(np.abs(self.phi(probes))) + 1.0)
        for j in range(d):
            e = np.zeros(d)
            e[j] = fd_step
            fp = self.phi(probes + e)
            fm = self.phi(probes - e)
            fd_g = (fp - fm) / (2 * fd_step)
            err = np.max(np.abs(fd_g - g[:, j]))
            if err > rel_tol * max(scale, float(np.max(np.abs(g))) + 1e-12) * 10:
                raise TestFunctionError(
                    f"{self.name}: gradient component {j} disagrees with finite "
                    f"differences (max err {err:.3g})")
            gp = self.grad(probes + e)
            gm = self.grad(probes - e)
            fd_h = (gp - gm) / (2 * fd_step)
            err = np.max(np.abs(fd_h - h[:, :, j]))
            if err > rel_tol * max(scale, float(np.max(np.abs(h))) + 1e-12) * 10:
                raise TestFunctionError(
                    f"{self.name}: hessian column {j} disagrees with finite "
                    f"differences (max err {err:.3g})")
        return True


# ---------------------------------------------------------------------------
# the C^2 quintic window
# ---------------------------------------------------------------------------

def _smooth_step(v):
    return v * v * v * (10.0 + v * (-15.0 + 6.0 * v))


def _smooth_step_d1(v):
    return v * v * (30.0 + v * (-60.0 + 30.0 * v))


def _smooth_step_d2(v):
    return v * (60.0 + v * (-180.0 + 120.0 * v))


def _window(r, r0, r1):
    """W(r): 1 on [0, r0], C^2 decay to 0 at r1, 0 beyond; returns W, W', W''."""
    r = np.asarray(r, dtype=float)
    W = np.ones_like(r)
    W1 = np.zeros_like(r)
    W2 = np.zeros_like(r)
    L = r1 - r0
    mid = (r > r0) & (r < r1)
    if mid.any():
        v = (r[mid] - r0) / L
        W[mid] = 1.0 - _smooth_step(v)
        W1[mid] = -_smooth_step_d1(v) / L
        W2[mid] = -_smooth_step_d2(v) / L ** 2
    W[r >= r1] = 0.0
    return W, W1, W2


def _radial_parts(x, center):
    y = np.atleast_2d(x) - center
    r = np.linalg.norm(y, axis=1)
    return y, r


def _radial_hess(y, r, W1, W2):
    """Hessian of W(|y|) given radial derivatives; safe at r=0 (plateau)."""
    n, d = y.shape
    out = np.zeros((n, d, d))
    pos = r > 0
    if pos.any():
        u = y[pos] / r[pos, None]
        outer = np.einsum("ni,nj->nij", u, u)
        eye = np.eye(d)[None, :, :]
        out[pos] = (W2[pos, None, None] * outer
                    + (W1[pos] / r[pos])[:, None, None] * (eye - outer))
    return out


def plateau_bump(center=0.0, r0=1.0, r1=2.0, height=1.0, dim=None,
                 name=None) -> TestFunction:
    """Compactly supported C^2 bump: equal to `height` on |x-c| <= r0."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d = dim or center.shape[0]
    center = np.broadcast_to(center, (d,)).copy()
    if not 0 < r0 < r1:
        raise TestFunctionError("need 0 < r0 < r1")

    def phi(x):
        _, r = _radial_parts(x, center)
        W, _, _ = _window(r, r0, r1)
        return height * W

    def jet(x):
        y, r = _radial_parts(x, center)
        W, W1, W2 = _window(r, r0, r1)
        g = np.zeros_like(y)
        pos = r > 0
        g[pos] = height * (W1[pos] / r[pos])[:, None] * y[pos]
        return height * W, g, height * _radial_hess(y, r, W1, W2)

    fn = TestFunction(name or f"bump(c={center.tolist()},r0={r0},r1={r1})",
                      phi, lambda x: jet(x)[1], lambda x: jet(x)[2], d, COMPACT,
                      support_radius=r1, center=center, jet=jet)
    return fn


def windowed_monomial(powers, center=0.0, r0=2.0, r1=4.0, coef=1.0,
                      name=None) -> TestFunction:
    """coef * prod_i (x_i - c_i)^p_i times the plateau window.

    Exactly polynomial on the plateau |x - c| <= r0.  Supported powers per
    coordinate: 0, 1, 2.
    """
    powers = np.atleast_1d(np.asarray(powers, dtype=int))
    d = powers.shape[0]
    center = np.broadcast_to(np.atleast_1d(np.asarray(center, dtype=float)), (d,)).copy()
    if powers.min() < 0 or powers.max() > 2:
        raise TestFunctionError("windowed_monomial supports powers 0, 1, 2")

    def mono(y):
        m = np.full(y.shape[0], coef)
        for i, p in enumerate(powers):
            if p:
                m = m * y[:, i] ** p
        return m

    def mono_grad(y):
        out = np.zeros_like(y)
        for i, p in enumerate(powers):
            if p == 0:
                continue
            gi = np.full(y.shape[0], coef) * (p * y[:, i] ** (p - 1))
            for j, pj in enumerate(powers):
                if j != i and pj:
                    gi = gi * y[:, j] ** pj
            out[:, i] = gi
        return out

    def mono_hess(y):
        n = y.shape[0]
        out = np.zeros((n, d, d))
        for i, pi in enumerate(powers):
            for j, pj in enumerate(powers):
                if i == j:
                    if pi == 2:
                        hij = np.full(n, 2.0 * coef)
                        for k, pk in enumerate(powers):
                            if k != i and pk:
                                hij = hij * y[:, k] ** pk
                        out[:, i, i] = hij
                else:
                    if pi and pj:
                        hij = np.full(n, coef * pi * pj)
                        hij = hij * y[:, i] ** (pi - 1) * y[:, j] ** (pj - 1)
                        for k, pk in enumerate(powers):
                            if k not in (i, j) and pk:
                                hij = hij * y[:, k] ** pk
                        out[:, i, j] = hij
        return out

    def phi(x):
        y, r = _radial_parts(x, center)
        W, _, _ = _window(r, r0, r1)
        return mono(y) * W

    def jet(x):
        y, r = _radial_parts(x, center)
        W, W1, W2 = _window(r, r0, r1)
        gW = np.zeros_like(y)
        pos = r > 0
        gW[pos] = (W1[pos] / r[pos])[:, None] * y[pos]
        m, gm = mono(y), mono_grad(y)
        cross = np.einsum("ni,nj->nij", gm, gW)
        hess = (mono_hess(y) * W[:, None, None]
                + cross + np.transpose(cross, (0, 2, 1))
                + m[:, None, None] * _radial_hess(y, r, W1, W2))
        return m * W, gm * W[:, None] + m[:, None] * gW, hess

    fn = TestFunction(name or f"wmono(p={powers.tolist()},c={center.tolist()},r0={r0})",
                      phi, lambda x: jet(x)[1], lambda x: jet(x)[2], d, COMPACT,
                      support_radius=r1, center=center, jet=jet)
    return fn


def constant_function(value=1.0, dim=1) -> TestFunction:
    def phi(x):
        return np.full(np.atleast_2d(x).shape[0], value)

    def grad(x):
        return np.zeros_like(np.atleast_2d(x))

    def hess(x):
        x = np.atleast_2d(x)
        return np.zeros((x.shape[0], dim, dim))

    return TestFunction(f"const({value})", phi, grad, hess, dim, COMPACT,
                        support_radius=math.inf)


def log_growth_from_psi(psi, dim=1, name="psi_log_growth") -> TestFunction:
    """psi(log(1 + |x|^2)) with derivatives from psi', psi''; log-growth class."""

    def parts(x):
        x = np.atleast_2d(x)
        s = np.sum(x * x, axis=1)
        w = np.log1p(s)
        return x, s, w

    def phi(x):
        _, _, w = parts(x)
        return psi.value(w)

    def grad(x):
        x, s, w = parts(x)
        return (2.0 * psi.deriv(w) / (1.0 + s))[:, None] * x

    def hess(x):
        x, s, w = parts(x)
        n, d = x.shape
        p1 = psi.deriv(w)
        p2 = psi.second(w)
        outer = np.einsum("ni,nj->nij", x, x)
        eye = np.eye(d)[None]
        c1 = (4.0 * (p2 - p1) / (1.0 + s) ** 2)[:, None, None]
        c2 = (2.0 * p1 / (1.0 + s))[:, None, None]
        return c1 * outer + c2 * eye

    return TestFunction(name, phi, grad, hess, dim, LOG_GROWTH,
                        support_radius=None)


def default_dictionary(dim: int = 1, validate: bool = True) -> list[TestFunction]:
    """Six compactly supported functions spanning local and tail behaviour."""
    fns = [
        plateau_bump(center=np.zeros(dim), r0=0.8, r1=2.2, name="bump0"),
        plateau_bump(center=np.full(dim, 1.0), r0=0.8, r1=2.6, name="bump+1"),
        plateau_bump(center=np.full(dim, -1.0), r0=0.8, r1=2.6, name="bump-1"),
        plateau_bump(center=np.zeros(dim), r0=2.0, r1=4.5, name="bump_wide"),
        windowed_monomial([1] + [0] * (dim - 1), r0=2.0, r1=4.5, coef=0.5,
                          name="wlin"),
        windowed_monomial([2] + [0] * (dim - 1), r0=2.0, r1=4.5, coef=0.25,
                          name="wquad"),
    ]
    if validate:
        probes = _default_probes(dim)
        for f in fns:
            f.validate_derivatives(probes)
    return fns


def _default_probes(dim: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=1234))
    pts = rng.uniform(-4.0, 4.0, size=(64, dim))
    return np.vstack([pts, np.zeros((1, dim))])
