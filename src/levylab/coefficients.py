"""Drift/diffusion/jump coefficient sets, indexed families, and validators.

Coefficient callables are vectorized over particles:

    b(t, x)     -> (n, d)   with x of shape (n, d), t a float or (n,) array
    sigma(t, x) -> (n, d, m)
    g(t, x)     -> (n,)     scalar jump shape

The jump coefficient of the state equation is f(t, x) = gamma * g(t, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class CoefficientError(ValueError):
    pass


def _wrap_rowwise(fn, out_shape_fn):
    """Adapt a per-point callable to the vectorized (t, x) contract."""

    def wrapped(t, x):
        x = np.atleast_2d(x)
        n = x.shape[0]
        ts = np.broadcast_to(np.asarray(t, dtype=float), (n,))
        out = np.empty(out_shape_fn(n))
        for i in range(n):
            out[i] = fn(float(ts[i]), x[i])
        return out

    return wrapped


@dataclass
class CoefficientSet:
    """One set of SDE coefficients with a scalar jump coefficient gamma * g."""

    b: callable
    sigma: callable
    d: int
    m: int
    gamma: float = 0.0
    g: callable = None
    growth_bound: float | None = None   # declared linear-growth constant, if any
    config: dict | None = None          # registry config, for worker processes
    vectorized: bool = True

    def __post_init__(self):
        if self.g is None:
            self.g = lambda t, x: np.ones(np.atleast_2d(x).shape[0])
        if not self.vectorized:
            b0, s0, g0 = self.b, self.sigma, self.g
            self.b = _wrap_rowwise(b0, lambda n: (n, self.d))
            self.sigma = _wrap_rowwise(s0, lambda n: (n, self.d, self.m))
            self.g = _wrap_rowwise(g0, lambda n: (n,)) if g0 is not None else None
            self.vectorized = True

    def f(self, t, x):
        """Jump coefficient gamma * g(t, x), shape (n,)."""
        if self.gamma == 0.0:
            return np.zeros(np.atleast_2d(x).shape[0])
        return self.gamma * self.g(t, x)

    def a(self, t, x):
        """Diffusion matrix a = sigma sigma^T / 2, shape (n, d, d)."""
        s = self.sigma(t, x)
        return 0.5 * np.einsum("nim,njm->nij", s, s)


@dataclass
class CoefficientFamily:
    """Indexed coefficient sets sharing the jump shape g, plus their limit."""

    limit: CoefficientSet
    members: dict = field(default_factory=dict)  # n -> CoefficientSet
    config: dict | None = None

    def __post_init__(self):
        for n, cs in self.members.items():
            if (cs.d, cs.m) != (self.limit.d, self.limit.m):
                raise CoefficientError(f"member {n} has mismatched dimensions")
            if cs.g is not self.limit.g:
                raise CoefficientError(f"member {n} does not share the jump shape g")

    @property
    def gamma_sup(self) -> float:
        """Uniform bound on the jump coefficients across the family."""
        gammas = [abs(cs.gamma) for cs in self.members.values()] + [abs(self.limit.gamma)]
        sup = max(gammas)
        if not math.isfinite(sup):
            raise CoefficientError("family gamma sequence is not uniformly bounded")
        return sup

    def all_sets(self) -> list:
        """The members in schedule order, then the limit."""
        return [*self.members.values(), self.limit]


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def default_probe_points(d: int, T: float, n_radial: int = 24, seed: int = 7):
    """Probe (t, x) grid used by the growth validators: radial fan + random fill."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    xs = [np.zeros(d)]
    for r in (0.1, 1.0, 3.0, 10.0, 30.0, 100.0):
        for _ in range(max(1, n_radial // 6)):
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            xs.append(r * v)
    x = np.array(xs)
    ts = np.array([0.0, 0.5 * T, T])
    return ts, x


def linear_growth_report(cs: CoefficientSet, probes=None) -> dict:
    """Fit the smallest C with |b| + ||sigma|| <= C (1 + |x|) on the probe grid.

    Returns the fitted constant, and a violation witness when a declared
    growth bound exists and some probe exceeds it.
    """
    if probes is None:
        probes = default_probe_points(cs.d, 1.0)
    ts, x = probes
    worst = 0.0
    witness = None
    norms = 1.0 + np.linalg.norm(x, axis=1)
    for t in ts:
        bv = np.linalg.norm(cs.b(float(t), x), axis=1)
        sv = np.linalg.norm(cs.sigma(float(t), x), axis=(1, 2))
        ratio = (bv + sv) / norms
        i = int(np.argmax(ratio))
        if ratio[i] > worst:
            worst = float(ratio[i])
            worst_at = (float(t), x[i].copy())
    if cs.growth_bound is not None and worst > cs.growth_bound * (1 + 1e-12):
        witness = worst_at
    return {"constant": worst, "declared": cs.growth_bound, "witness": witness}


def require_linear_growth(cs: CoefficientSet, probes=None):
    rep = linear_growth_report(cs, probes)
    if rep["witness"] is not None:
        t, x = rep["witness"]
        raise CoefficientError(
            f"linear growth bound {cs.growth_bound} violated at t={t}, x={x} "
            f"(fitted constant {rep['constant']:.6g})")
    return rep


def log_lipschitz_report(cs: CoefficientSet, pairs=None, T: float = 1.0) -> dict:
    """Fit the smallest constants of the log-Lipschitz moduli on probe pairs:

        |b(t,x)-b(t,y)|        <= C_b |x-y| log(|x-y|^-1 + e)
        ||sigma(t,x)-sigma(t,y)||^2 <= C_sigma |x-y|^2 log(|x-y|^-1 + e)
    """
    if pairs is None:
        rng = np.random.Generator(np.random.Philox(key=11))
        base = rng.standard_normal((64, cs.d)) * 2.0
        delta = rng.standard_normal((64, cs.d))
        delta *= (10.0 ** rng.uniform(-6, 0, size=(64, 1)))
        pairs = (base, base + delta)
    x, y = pairs
    cb = 0.0
    csig = 0.0
    for t in (0.0, 0.5 * T, T):
        gap = np.linalg.norm(x - y, axis=1)
        ok = gap > 0
        mod = gap * np.log(1.0 / gap + math.e)
        db = np.linalg.norm(cs.b(t, x) - cs.b(t, y), axis=1)
        ds = np.linalg.norm(cs.sigma(t, x) - cs.sigma(t, y), axis=(1, 2)) ** 2
        cb = max(cb, float(np.max(db[ok] / mod[ok], initial=0.0)))
        csig = max(csig, float(np.max(ds[ok] / (gap[ok] * mod[ok]), initial=0.0)))
    return {"C_b": cb, "C_sigma": csig}


# ---------------------------------------------------------------------------
# registry of named coefficient builders
# ---------------------------------------------------------------------------

def _const_sigma(mat):
    mat = np.asarray(mat, dtype=float)

    def sigma(t, x):
        n = np.atleast_2d(x).shape[0]
        return np.broadcast_to(mat, (n,) + mat.shape)

    return sigma


def _build_zero(params, d, m):
    return (lambda t, x: np.zeros_like(np.atleast_2d(x))), _const_sigma(np.zeros((d, m)))


def _build_constant_drift(params, d, m):
    c = np.broadcast_to(np.asarray(params.get("c", 1.0), dtype=float), (d,))

    def b(t, x):
        return np.broadcast_to(c, np.atleast_2d(x).shape)

    return b, _const_sigma(np.zeros((d, m)))


def _build_ou(params, d, m):
    theta = float(params.get("theta", 1.0))
    mean = np.broadcast_to(np.asarray(params.get("mean", 0.0), dtype=float), (d,))
    s = params.get("sigma", math.sqrt(2.0))
    mat = np.asarray(s, dtype=float)
    if mat.ndim == 0:
        mat = mat * np.eye(d, m)

    def b(t, x):
        return -theta * (np.atleast_2d(x) - mean)

    return b, _const_sigma(mat)


def _build_linear(params, d, m):
    A = np.asarray(params.get("A", -np.eye(d)), dtype=float)
    c = np.broadcast_to(np.asarray(params.get("c", 0.0), dtype=float), (d,))
    mat = np.asarray(params.get("sigma", np.zeros((d, m))), dtype=float)
    if mat.ndim == 0:
        mat = mat * np.eye(d, m)

    def b(t, x):
        # a fixed-order sum over columns, not a matmul: BLAS may round a lone
        # row differently from a batch, which would tie bits to the block size
        x = np.atleast_2d(x)
        out = x[:, 0:1] * A[:, 0]
        for j in range(1, x.shape[1]):
            out = out + x[:, j:j + 1] * A[:, j]
        return out + c

    return b, _const_sigma(mat)


def _build_rotation_degenerate(params, d, m):
    # planar rotation drift with rank-one, genuinely degenerate noise
    if d != 2 or m != 1:
        raise CoefficientError("rotation_degenerate needs d=2, m=1")
    omega = float(params.get("omega", 1.0))
    s = float(params.get("s", 1.0))
    J = np.array([[0.0, -omega], [omega, 0.0]])

    def b(t, x):
        return np.atleast_2d(x) @ J.T

    return b, _const_sigma(np.array([[s], [0.0]]))


def _build_bounded_nonlinear(params, d, m):
    amp = float(params.get("amp", 1.0))
    freq = float(params.get("freq", 1.0))
    s0 = float(params.get("s0", 0.5))
    s1 = float(params.get("s1", 0.25))

    def b(t, x):
        return amp * np.sin(freq * np.atleast_2d(x))

    def sigma(t, x):
        x = np.atleast_2d(x)
        n = x.shape[0]
        out = np.zeros((n, d, m))
        diag = s0 + s1 * np.cos(x[:, :min(d, m)])
        for i in range(min(d, m)):
            out[:, i, i] = diag[:, i]
        return out

    return b, sigma


_DRIFT_SIGMA_REGISTRY = {
    "zero": _build_zero,
    "constant_drift": _build_constant_drift,
    "ou": _build_ou,
    "linear": _build_linear,
    "rotation_degenerate": _build_rotation_degenerate,
    "bounded_nonlinear": _build_bounded_nonlinear,
}


def _g_one(params):
    return lambda t, x: np.ones(np.atleast_2d(x).shape[0])


def _g_cosine(params):
    a = float(params.get("a", 0.5))
    k = float(params.get("k", 1.0))

    def g(t, x):
        x = np.atleast_2d(x)
        return 1.0 + a * np.cos(k * x.sum(axis=1))

    return g


def _g_linear_growth(params):
    # violates the square-integrability of small jump images when paired with
    # a fat-tailed measure; used to build hypothesis-check counterexamples
    c = float(params.get("c", 1.0))

    def g(t, x):
        x = np.atleast_2d(x)
        return c * (1.0 + np.linalg.norm(x, axis=1))

    return g


G_REGISTRY = {
    "one": _g_one,
    "cosine": _g_cosine,
    "linear_growth": _g_linear_growth,
}


def coefficients_from_config(cfg: dict) -> CoefficientSet:
    """Build a CoefficientSet from a registry config dict.

    Expected keys: name, d, m, params, gamma, g ({"name":..., "params":...}),
    growth_bound (optional).
    """
    name = cfg["name"]
    if name not in _DRIFT_SIGMA_REGISTRY:
        raise CoefficientError(f"unknown coefficients {name!r}")
    d = int(cfg.get("d", 1))
    m = int(cfg.get("m", d))
    b, sigma = _DRIFT_SIGMA_REGISTRY[name](cfg.get("params", {}), d, m)
    gcfg = cfg.get("g", {"name": "one"})
    gname = gcfg["name"]
    if gname not in G_REGISTRY:
        raise CoefficientError(f"unknown jump shape {gname!r}")
    g = G_REGISTRY[gname](gcfg.get("params", {}))
    return CoefficientSet(
        b=b, sigma=sigma, d=d, m=m,
        gamma=float(cfg.get("gamma", 0.0)), g=g,
        growth_bound=cfg.get("growth_bound"), config=cfg)


def _perturbed_drift(base_b, kind: str, amp: float, n: int):
    if amp == 0.0:
        return base_b
    scale = amp / n
    if kind == "sine":
        return lambda t, x, _b=base_b: _b(t, x) + scale * np.sin(np.atleast_2d(x))
    if kind == "shift":
        return lambda t, x, _b=base_b: _b(t, x) + scale
    raise CoefficientError(f"unknown drift perturbation {kind!r}")


def family_from_config(cfg: dict) -> CoefficientFamily:
    """Coefficient family with 1/n-type perturbations of a base config.

    cfg keys: base (coefficient config), schedule (list of n), and the
    perturbations drift_perturbation {name, amp}, gamma_perturbation (amp),
    sigma_perturbation (amp, multiplicative 1 + amp/n).
    """
    limit = coefficients_from_config(cfg["base"])
    dp = cfg.get("drift_perturbation", {"name": "shift", "amp": 0.0})
    gp = float(cfg.get("gamma_perturbation", 0.0))
    sp = float(cfg.get("sigma_perturbation", 0.0))
    members = {}
    for n in cfg["schedule"]:
        n = int(n)
        b_n = _perturbed_drift(limit.b, dp.get("name", "shift"), float(dp.get("amp", 0.0)), n)
        if sp != 0.0:
            fac = 1.0 + sp / n
            sigma_n = lambda t, x, _s=limit.sigma, _f=fac: _f * _s(t, x)
        else:
            sigma_n = limit.sigma
        members[n] = CoefficientSet(
            b=b_n, sigma=sigma_n, d=limit.d, m=limit.m,
            gamma=limit.gamma + gp / n, g=limit.g,
            growth_bound=limit.growth_bound)
    return CoefficientFamily(limit=limit, members=members, config=cfg)
