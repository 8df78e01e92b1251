"""Drift/diffusion/jump coefficient sets, indexed families, and validators.

Coefficient callables take every particle in one call:

    b(t, x)     -> (n, d)   with x of shape (n, d), t a float or (n,) array
    sigma(t, x) -> (n, d, m)
    g(t, x)     -> (n,)     scalar jump shape

The jump coefficient of the state equation is f(t, x) = gamma * g(t, x).
Each may fill out=, an array of its result's shape; callers use what it
returns, which may be x or a read-only broadcast.  A callable with no out
parameter is wrapped to ignore it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .manifests import _check_keys, _is_finite, _is_int, _registry_entry


class CoefficientError(ValueError):
    pass


@dataclass(frozen=True)
class CoefficientSet:
    """One set of SDE coefficients with a scalar jump coefficient gamma * g.

    Frozen, like CoefficientFamily: a pool worker rebuilds a set from its
    config, so a set changed in place would march other dynamics there; a
    changed copy is a dataclasses.replace, which has no config and stays in
    process."""

    b: callable
    sigma: callable
    d: int
    m: int
    gamma: float = 0.0
    g: callable = None
    growth_bound: float | None = None   # declared linear-growth constant, if any
    # registry config the set was built from, for worker processes; set only
    # by coefficients_from_config, so a dataclasses.replace copy has none
    config: dict | None = field(default=None, init=False)

    def __post_init__(self):
        for name, fn in (("b", self.b), ("sigma", self.sigma),
                         ("g", _g_one(None) if self.g is None else self.g)):
            object.__setattr__(self, name, _taking_out(fn))

    def f(self, t, x, out=None):
        """Jump coefficient gamma * g(t, x), shape (n,) (into out, if given)."""
        if self.gamma == 0.0:
            return np.zeros(np.atleast_2d(x).shape[0])
        return np.multiply(self.gamma, self.g(t, x, out=out), out=out)

    def a(self, t, x):
        """Diffusion matrix a = sigma sigma^T / 2, shape (n, d, d)."""
        s = self.sigma(t, x)
        return 0.5 * np.einsum("nim,njm->nij", s, s)

    def on_rows(self, slots):
        """The coefficients of a march's block slots `slots`: a set's, on any slot."""
        return self


@dataclass(frozen=True)
class CoefficientFamily:
    """The sets (b_n, sigma_n, gamma_n) of a 1/n perturbation of a limit set.

    Member n has the drift b + amp/n * sin(x) ("sine") or b + amp/n
    ("shift"), the diffusion (1 + sigma_amp/n) sigma and the jump
    coefficient (gamma + gamma_amp/n) g: the limit's closures plus three
    scalars.  members (n -> CoefficientSet, in schedule order) is built once
    from these fields and is read-only; dataclasses.replace builds a family
    with consistent members.  With no schedule the family is its limit alone.
    """

    limit: CoefficientSet
    schedule: tuple = ()
    drift: str = "shift"
    drift_amp: float = 0.0
    gamma_amp: float = 0.0
    sigma_amp: float = 0.0
    members: Mapping = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.drift not in _DRIFTS:
            raise CoefficientError(f"unknown drift perturbation {self.drift!r}; "
                                   f"known: {list(_DRIFTS)}")
        object.__setattr__(self, "members", MappingProxyType(
            {n: self._member(n) for n in self.schedule}))

    def _member(self, n) -> CoefficientSet:
        lim = self.limit
        sigma = lim.sigma
        if self.sigma_amp != 0.0:
            fac = 1.0 + self.sigma_amp / n
            sigma = lambda t, x, _s=lim.sigma: fac * _s(t, x)
        return CoefficientSet(b=_perturbed_drift(lim.b, self.drift, self.drift_amp, n),
                              sigma=sigma, d=lim.d, m=lim.m,
                              gamma=lim.gamma + self.gamma_amp / n, g=lim.g,
                              growth_bound=lim.growth_bound)

    @property
    def gamma_sup(self) -> float:
        """Uniform bound on the jump coefficients across the family."""
        sup = max(abs(cs.gamma) for cs in self.all_sets())
        if not math.isfinite(sup):
            raise CoefficientError("family gamma sequence is not uniformly bounded")
        return sup

    def all_sets(self) -> list:
        """The members in schedule order, then the limit."""
        return [*self.members.values(), self.limit]

    def stacked(self, B: int):
        """What one march of every set on blocks of B slots runs: the
        StackedFamily, or the limit set for a family with no members."""
        return StackedFamily(self, B) if self.schedule else self.limit


class StackedFamily:
    """Every set of a family on one block of B slots, S*B rows set by set.

    Row s*B + p is slot p under set s of all_sets().  A member is the limit
    plus three scalars: a drift term amp/n, a sigma factor 1 + sp/n and its
    gamma.  The limit's b, sigma and g run once on all the rows, and each
    member scalar is applied to the leading member rows only, as the member
    sets' closures apply it; limit rows keep the limit's bits.
    """

    def __init__(self, family: CoefficientFamily, B: int):
        amp, sp = family.drift_amp, family.sigma_amp
        n = np.array(family.schedule, dtype=float)
        self.limit, self.B = family.limit, B
        self.sine = family.drift == "sine"
        self.names = [f"member n={k}" for k in family.schedule] + ["limit"]
        self.scale = amp / n if amp != 0.0 else None
        self.fac = 1.0 + sp / n if sp != 0.0 else None
        self.gamma = np.array([cs.gamma for cs in family.all_sets()])

    def on_rows(self, slots):
        """b, sigma and f on the block slots `slots` (None: all) of every set, set by set."""
        return _StackedRows(self, self.B if slots is None else len(slots))


class _StackedRows:
    """A StackedFamily on k slots of every set: the first (S-1)*k are member rows."""

    def __init__(self, fam: StackedFamily, k: int):
        self.lim, self.cut, self.sine = fam.limit, (fam.gamma.size - 1) * k, fam.sine
        self.gamma = np.repeat(fam.gamma, k)
        self.scale = None if fam.scale is None else np.repeat(fam.scale, k)[:, None]
        self.fac = None if fam.fac is None else np.repeat(fam.fac, k)[:, None, None]
        self.nz = None if self.gamma.all() else self.gamma != 0.0
        self._sin = np.empty((self.cut, fam.limit.d)) if self.sine else None

    def b(self, t, x, out=None):
        bv, c = self.lim.b(t, x, out=out), self.cut
        if self.scale is None:
            return bv
        term = self.scale if not self.sine else np.multiply(
            self.scale, np.sin(x[:c], out=self._sin), out=self._sin)
        bv = bv if bv is out else np.array(bv)      # a copy unless b filled out
        bv[:c] += term
        return bv

    def sigma(self, t, x, out=None):
        sv, c = self.lim.sigma(t, x, out=out), self.cut
        return sv if self.fac is None else np.concatenate([self.fac * sv[:c], sv[c:]])

    def f(self, t, x, out=None):
        """gamma * g; a row with gamma = 0 gets +0.0 without a call of g."""
        if self.nz is None:
            return np.multiply(self.gamma, self.lim.g(t, x, out=out), out=out)
        fv, nz = np.zeros(self.nz.size), self.nz
        if nz.any():
            fv[nz] = self.gamma[nz] * self.lim.g(t if np.ndim(t) == 0 else t[nz], x[nz])
        return fv


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def default_probe_points(d: int, T: float):
    """The probe (t, x) grid of every hypothesis check: the times 0, T/2, T
    and the origin plus 3 random directions at each radius 0.5 ... 200."""
    rng = np.random.Generator(np.random.Philox(key=99))
    xs = [np.zeros(d)]
    for r in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0):
        for _ in range(3):
            v = rng.standard_normal(d)
            xs.append(r * v / np.linalg.norm(v))
    return np.array([0.0, 0.5 * T, T]), np.array(xs)


def linear_growth_report(cs: CoefficientSet, probes=None) -> dict:
    """Fit the smallest C with |b| + ||sigma|| <= C (1 + |x|) on the probe grid.

    Returns the fitted constant, and a violation witness when a declared
    growth bound exists and some probe exceeds it.
    """
    return linear_growth_reports(CoefficientFamily(cs), probes)[0]


def linear_growth_reports(family: CoefficientFamily, probes=None) -> list:
    """linear_growth_report of each of family.all_sets(), from one call of b
    and sigma per probe time on the family's stacked probe rows; each set
    reads its constant and witness from its own rows, the same bits."""
    if probes is None:
        probes = default_probe_points(family.limit.d, 1.0)
    ts, x = probes
    sets = family.all_sets()
    S, B = len(sets), x.shape[0]
    coeffs, xs = family.stacked(B).on_rows(None), np.tile(x, (S, 1))
    norms = 1.0 + np.linalg.norm(xs, axis=1)
    worst, worst_at = [0.0] * S, [None] * S
    for t in ts:
        bv = np.linalg.norm(coeffs.b(float(t), xs), axis=1)
        sv = np.linalg.norm(coeffs.sigma(float(t), xs), axis=(1, 2))
        ratio = ((bv + sv) / norms).reshape(S, B)
        for s, i in enumerate(ratio.argmax(axis=1).tolist()):
            if ratio[s, i] > worst[s]:
                worst[s], worst_at[s] = float(ratio[s, i]), (float(t), x[i].copy())
    return [{"constant": c, "declared": cs.growth_bound,
             "witness": at if cs.growth_bound is not None
             and c > cs.growth_bound * (1 + 1e-12) else None}
            for cs, c, at in zip(sets, worst, worst_at)]


def require_linear_growth(coeffs, probes=None):
    """Raise for the first set of coeffs (a CoefficientSet, or a family's
    all_sets()) that a probe shows over its declared growth bound."""
    family = coeffs if isinstance(coeffs, CoefficientFamily) else CoefficientFamily(coeffs)
    for cs, rep in zip(family.all_sets(), linear_growth_reports(family, probes)):
        if rep["witness"] is not None:
            t, x = rep["witness"]
            raise CoefficientError(
                f"linear growth bound {cs.growth_bound} violated at t={t}, x={x} "
                f"(fitted constant {rep['constant']:.6g})")


# ---------------------------------------------------------------------------
# registry of named coefficient builders
# ---------------------------------------------------------------------------

def _taking_out(fn):
    """fn if it is a function with an out parameter, else fn wrapped to ignore
    one (read from its code: inspect.signature costs more than a small march)."""
    code = getattr(fn, "__code__", None)
    if code is not None and "out" in code.co_varnames[:code.co_argcount]:
        return fn
    return lambda t, x, out=None: fn(t, x)


def _const_sigma(mat, d, m):
    """A state-free sigma: the (d, m) matrix mat, or mat times the identity."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim == 0:
        mat = mat * np.eye(d, m)

    def sigma(t, x):
        n = np.atleast_2d(x).shape[0]
        return np.broadcast_to(mat, (n,) + mat.shape)

    return sigma


def _build_zero(params, d, m):
    return (lambda t, x: np.zeros_like(np.atleast_2d(x))), _const_sigma(0.0, d, m)


def _build_constant_drift(params, d, m):
    c = np.broadcast_to(np.asarray(params.get("c", 1.0), dtype=float), (d,))

    def b(t, x):
        return np.broadcast_to(c, np.atleast_2d(x).shape)

    return b, _const_sigma(0.0, d, m)


def _build_ou(params, d, m):
    theta = float(params.get("theta", 1.0))
    mean = np.broadcast_to(np.asarray(params.get("mean", 0.0), dtype=float), (d,))

    def b(t, x, out=None):
        out = np.subtract(np.atleast_2d(x), mean, out=out)
        return np.multiply(-theta, out, out=out)

    return b, _const_sigma(params.get("sigma", math.sqrt(2.0)), d, m)


def _build_linear(params, d, m):
    A = np.asarray(params.get("A", -np.eye(d)), dtype=float)
    c = np.broadcast_to(np.asarray(params.get("c", 0.0), dtype=float), (d,))

    def b(t, x):
        # a fixed-order sum over columns, not a matmul: BLAS may round a lone
        # row differently from a batch, which would tie bits to the block size
        x = np.atleast_2d(x)
        out = x[:, 0:1] * A[:, 0]
        for j in range(1, x.shape[1]):
            out = out + x[:, j:j + 1] * A[:, j]
        return out + c

    return b, _const_sigma(params.get("sigma", 0.0), d, m)


def _build_rotation_degenerate(params, d, m):
    # planar rotation drift with rank-one, genuinely degenerate noise
    if d != 2 or m != 1:
        raise CoefficientError("rotation_degenerate needs d=2, m=1")
    omega = float(params.get("omega", 1.0))
    s = float(params.get("s", 1.0))
    J = np.array([[0.0, -omega], [omega, 0.0]])

    def b(t, x):
        return np.atleast_2d(x) @ J.T

    return b, _const_sigma([[s], [0.0]], d, m)


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
# the params each builder reads: any other key would be silently ignored
_DRIFT_SIGMA_PARAMS = {"zero": (), "constant_drift": ("c",), "ou": ("theta", "mean", "sigma"),
                       "linear": ("A", "c", "sigma"), "rotation_degenerate": ("omega", "s"),
                       "bounded_nonlinear": ("amp", "freq", "s0", "s1")}


def _g_one(params):
    return lambda t, x, out=None: np.positive(      # 1.0 in each row, filled into out
        1.0, out=np.empty(np.atleast_2d(x).shape[0]) if out is None else out)


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
G_PARAMS = {"one": (), "cosine": ("a", "k"), "linear_growth": ("c",)}


def coefficients_from_config(cfg: dict) -> CoefficientSet:
    """Build a CoefficientSet from a registry config dict.

    Expected keys: name, d, m, params, gamma, g ({"name":..., "params":...}),
    growth_bound (optional).
    """
    _check_keys(cfg, ("name", "d", "m", "params", "g", "gamma", "growth_bound"),
                CoefficientError, "a coefficient set")
    build, params = _registry_entry(cfg, _DRIFT_SIGMA_REGISTRY, _DRIFT_SIGMA_PARAMS,
                                    CoefficientError, "coefficients")
    d = int(cfg.get("d", 1))
    m = int(cfg.get("m", d))
    b, sigma = build(params, d, m)
    gcfg = cfg.get("g", {"name": "one"})
    _check_keys(gcfg, ("name", "params"), CoefficientError, "the jump shape g")
    build, params = _registry_entry(gcfg, G_REGISTRY, G_PARAMS, CoefficientError,
                                    "jump shape")
    g = build(params)
    cs = CoefficientSet(b=b, sigma=sigma, d=d, m=m,
                        gamma=float(cfg.get("gamma", 0.0)), g=g,
                        growth_bound=cfg.get("growth_bound"))
    object.__setattr__(cs, "config", cfg)
    return cs


_DRIFTS = ("sine", "shift")


def _perturbed_drift(base_b, kind: str, amp: float, n: int):
    if amp == 0.0:
        return base_b
    scale = amp / n
    if kind == "sine":
        return lambda t, x, _b=base_b: _b(t, x) + scale * np.sin(np.atleast_2d(x))
    return lambda t, x, _b=base_b: _b(t, x) + scale


def family_from_config(cfg: dict) -> CoefficientFamily:
    """Coefficient family with 1/n-type perturbations of a base config.

    cfg keys: base (coefficient config), schedule (a non-empty list of
    distinct integers n >= 1), and the perturbations drift_perturbation
    {name, amp}, gamma_perturbation (amp), sigma_perturbation (amp,
    multiplicative 1 + amp/n); every amp a finite number.
    """
    _check_keys(cfg, ("base", "schedule", "drift_perturbation", "gamma_perturbation",
                      "sigma_perturbation"), CoefficientError, "a family")
    limit = coefficients_from_config(cfg["base"])
    schedule = cfg.get("schedule")
    if not (isinstance(schedule, (list, tuple)) and schedule
            and all(_is_int(n) and _is_finite(n) and n >= 1 for n in schedule)
            and len(set(schedule)) == len(schedule)):
        raise CoefficientError(f"schedule must be a non-empty list of distinct integers "
                               f">= 1, got {schedule!r}")
    dp = cfg.get("drift_perturbation", {})
    _check_keys(dp, ("name", "amp"), CoefficientError, "a drift perturbation")
    amps = {"drift_perturbation.amp": dp.get("amp", 0.0),
            "gamma_perturbation": cfg.get("gamma_perturbation", 0.0),
            "sigma_perturbation": cfg.get("sigma_perturbation", 0.0)}
    for key, amp in amps.items():
        if not _is_finite(amp):
            raise CoefficientError(f"{key} must be a finite number, got {amp!r}")
    return CoefficientFamily(limit, tuple(schedule), dp.get("name", "shift"),
                             *map(float, amps.values()))
