"""Test functions with analytic gradients and Hessians.

The workhorse shapes are radially windowed functions built from the C^2
quintic step S(v) = 10 v^3 - 15 v^4 + 6 v^5: the window equals 1 on a
plateau |x - c| <= r0 and decays to 0 at |x - c| = r1.  A windowed
polynomial is therefore *exactly* polynomial on its plateau, which is what
makes closed-form generator oracles possible, while still being a C^2
compactly supported function.

A whole dictionary is evaluated in one pass (`evaluate`): the library
shapes record their radial structure (centre, r0, r1 and the height, or the
monomial's coefficient and powers), so the offsets x - c and radii are
computed once per distinct centre and the window W, W', W'' once per
distinct (centre, r0, r1); each function then takes its phi, grad and hess
from its own expressions.  When only phi is needed, as at the generator's
jump images, W is computed alone.  A shape's own phi and jet are the same
pass on a dictionary of one, so the results are bit for bit the same either
way.  Functions without that structure (hand-built ones) run their own jet
or phi in their place in the dictionary.

Analytic derivatives are cross-validated against finite differences at
registration; a silent derivative bug fails construction, not a later test.
The check reads grad and hess off the fused `jet`, so it covers the jet
itself; its phi must equal the standalone phi bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

COMPACT = "compact"


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
    # radial structure read by `evaluate`; None runs jet or phi instead
    shape: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.jet is None:
            self.jet = lambda x: (self.phi(x), self.grad(x), self.hess(x))

    def __call__(self, x):
        return self.phi(np.atleast_2d(x))

    def validate_derivatives(self, probes: np.ndarray):
        """Cross-check grad/hess against central finite differences of phi
        (step 1e-6, relative tolerance 1e-5), and the jet's phi against phi
        bit for bit."""
        rel_tol, fd_step = 1e-5, 1e-6
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


def _window(r, r0, r1, derivatives=True):
    """W(r): 1 on [0, r0], C^2 decay to 0 at r1, 0 beyond.

    W = 1 - S(clip((r - r0) / L, 0, 1)) with L = r1 - r0, exact at both
    seams because S(0) = 0 and S(1) = 1.  With derivatives, also W' and W'',
    which are +0.0 off the open band (r0, r1).
    """
    L = r1 - r0
    v = np.clip((r - r0) / L, 0.0, 1.0)
    W = 1.0 - _smooth_step(v)
    if not derivatives:
        return W
    band = (r > r0) & (r < r1)
    return (W, np.where(band, -_smooth_step_d1(v) / L, 0.0),
            np.where(band, -_smooth_step_d2(v) / L ** 2, 0.0))


class _Frame:
    """The points seen from one centre: offsets y = x - c and radii r = |y|.

    With derivatives the frame also holds the radial outer products u u^T
    and I - u u^T (u = y / r), which every window about the centre shares.
    At r = 0 the direction is undefined; there grad and hess are 0.  Outer
    products are taken as u_i u_j + 0.0, so a zero is +0.0 whatever the
    signs of the factors, as in an einsum, which sums each product into a
    zeroed output; the sign of a zero reaches the Hessian's bits.
    """

    def __init__(self, x, center, derivatives):
        self.y = x - center
        self.r = np.sqrt(np.add.reduce(self.y * self.y, axis=1))    # np.linalg.norm's
        self.derivatives = derivatives
        if derivatives:
            self.pos = self.r > 0
            self.r_pos = np.where(self.pos, self.r, 1.0)
            u = self.y / self.r_pos[:, None]
            self.outer = u[:, :, None] * u[:, None, :] + 0.0
            self.perp = np.eye(u.shape[1]) - self.outer

    def window(self, r0, r1):
        """W alone, or (W, W'(r) / r, Hessian of W(|y|)) with derivatives."""
        if not self.derivatives:
            return _window(self.r, r0, r1, derivatives=False)
        W, W1, W2 = _window(self.r, r0, r1)
        q = W1 / self.r_pos
        hess = np.where(self.pos[:, None, None],
                        W2[:, None, None] * self.outer + q[:, None, None] * self.perp,
                        0.0)
        return W, q, hess


@dataclass(frozen=True, eq=False)
class _Windowed:
    """Radial structure of a windowed shape: a factor times W(|x - c|)."""

    center: np.ndarray
    r0: float
    r1: float

    def keys(self):
        """Cache keys of the centre and of the window."""
        c = self.center.tobytes()
        return c, (c, self.r0, self.r1)


@dataclass(frozen=True, eq=False)
class _Bump(_Windowed):
    height: float

    def value(self, frame, W):
        return self.height * W

    def jet(self, frame, window):
        W, q, hess = window
        g = np.where(frame.pos[:, None], (self.height * q)[:, None] * frame.y, 0.0)
        return self.height * W, g, self.height * hess


@dataclass(frozen=True, eq=False)
class _Monomial(_Windowed):
    coef: float
    powers: np.ndarray

    def mono(self, y):
        m = np.full(y.shape[0], self.coef)
        for i, p in enumerate(self.powers):
            if p:
                m = m * y[:, i] ** p
        return m

    def mono_grad(self, y):
        out = np.zeros_like(y)
        for i, p in enumerate(self.powers):
            if p == 0:
                continue
            gi = np.full(y.shape[0], self.coef) * (p * y[:, i] ** (p - 1))
            for j, pj in enumerate(self.powers):
                if j != i and pj:
                    gi = gi * y[:, j] ** pj
            out[:, i] = gi
        return out

    def mono_hess(self, y):
        n, d = y.shape
        out = np.zeros((n, d, d))
        for i, pi in enumerate(self.powers):
            for j, pj in enumerate(self.powers):
                if i == j:
                    if pi == 2:
                        hij = np.full(n, 2.0 * self.coef)
                        for k, pk in enumerate(self.powers):
                            if k != i and pk:
                                hij = hij * y[:, k] ** pk
                        out[:, i, i] = hij
                else:
                    if pi and pj:
                        hij = np.full(n, self.coef * pi * pj)
                        hij = hij * y[:, i] ** (pi - 1) * y[:, j] ** (pj - 1)
                        for k, pk in enumerate(self.powers):
                            if k not in (i, j) and pk:
                                hij = hij * y[:, k] ** pk
                        out[:, i, j] = hij
        return out

    def value(self, frame, W):
        return self.mono(frame.y) * W

    def jet(self, frame, window):
        W, q, hess_W = window
        y = frame.y
        gW = np.where(frame.pos[:, None], q[:, None] * y, 0.0)
        m, gm = self.mono(y), self.mono_grad(y)
        cross = gm[:, :, None] * gW[:, None, :] + 0.0      # see _Frame
        hess = (self.mono_hess(y) * W[:, None, None]
                + cross + np.transpose(cross, (0, 2, 1))
                + m[:, None, None] * hess_W)
        return m * W, gm * W[:, None] + m[:, None] * gW, hess


def evaluate(fns, x, derivatives=True) -> list:
    """Every function of a dictionary at the points x, in one pass.

    Returns one (phi, grad, hess) per function, in order, or with
    derivatives=False one phi.  y = x - c and r = |y| are computed once per
    distinct centre, and the window once per distinct (centre, r0, r1); a
    function without radial structure runs its own jet or phi in its place.
    A centre's or window's arrays are dropped after the last function that
    uses them, which bounds the memory of a pass over many jump images.
    The results are bit for bit those of each function alone.
    """
    x = np.atleast_2d(x)
    keys = [None if f.shape is None else f.shape.keys() for f in fns]
    last = {key: i for i, pair in enumerate(keys) if pair for key in pair}
    cache, out = {}, []
    for i, (f, pair) in enumerate(zip(fns, keys)):
        if pair is None:
            out.append(f.jet(x) if derivatives else f.phi(x))
            continue
        c, w = pair
        shape = f.shape
        if c not in cache:
            cache[c] = _Frame(x, shape.center, derivatives)
        if w not in cache:
            cache[w] = cache[c].window(shape.r0, shape.r1)
        out.append((shape.jet if derivatives else shape.value)(cache[c], cache[w]))
        for key in pair:
            if last[key] == i:
                del cache[key]
    return out


def _windowed_function(name, shape, support_radius) -> TestFunction:
    """A TestFunction whose phi and jet are the dictionary pass on itself."""

    def phi(x):
        return evaluate([fn], x, derivatives=False)[0]

    def jet(x):
        return evaluate([fn], x)[0]

    fn = TestFunction(name, phi, lambda x: jet(x)[1], lambda x: jet(x)[2],
                      shape.center.shape[0], COMPACT, support_radius=support_radius,
                      center=shape.center, jet=jet, shape=shape)
    return fn


def plateau_bump(center=0.0, r0=1.0, r1=2.0, height=1.0, name=None) -> TestFunction:
    """Compactly supported C^2 bump: equal to `height` on |x-c| <= r0; the
    dimension is the center's."""
    center = np.atleast_1d(np.asarray(center, dtype=float)).copy()
    if not 0 < r0 < r1:
        raise TestFunctionError("need 0 < r0 < r1")
    return _windowed_function(name or f"bump(c={center.tolist()},r0={r0},r1={r1})",
                              _Bump(center, float(r0), float(r1), height), r1)


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
    if not r0 < r1:
        raise TestFunctionError("need r0 < r1")
    return _windowed_function(
        name or f"wmono(p={powers.tolist()},c={center.tolist()},r0={r0})",
        _Monomial(center, float(r0), float(r1), coef, powers), r1)


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
