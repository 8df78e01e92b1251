"""Levy measures for the driving noise and for the observation random measure.

Two concrete representations are supported:

* finite atomic measures (list of marks with non-negative masses), for which
  every annulus query and every jump-operator sum is exact, and

* parametric radial measures on the line, given by one-sided densities with
  analytic annulus masses, exact inverse-CDF samplers and a deterministic
  Gauss-Legendre rule for annulus integrals (`quadrature`).

All annulus conventions are half-open: region(r_lo, r_hi) means
{z : r_lo < |z| <= r_hi}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .manifests import _check_keys, _registry_entry


class LevyConfigError(ValueError):
    """Raised for ill-posed measure or truncation configurations."""


class InfiniteMassError(LevyConfigError):
    """Raised when an operation needs a finite mass on a region that has none."""


class JumpEvents:
    """Jump events of one path, stored as arrays.

    Times are strictly increasing; marks are (n, dim).
    """

    def __init__(self, times: np.ndarray, marks: np.ndarray):
        times = np.asarray(times, dtype=float)
        marks = np.asarray(marks, dtype=float)
        if marks.ndim == 1:
            marks = marks[:, None]
        if times.shape[0] != marks.shape[0]:
            raise LevyConfigError("times and marks length mismatch")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise LevyConfigError("jump times must be strictly increasing")
        self.times = times
        self.marks = marks

    def __len__(self) -> int:
        return self.times.shape[0]

    @staticmethod
    @functools.cache
    def empty(dim: int) -> "JumpEvents":
        """No events in dimension dim: one shared instance with read-only arrays."""
        ev = JumpEvents(np.empty(0), np.empty((0, dim)))
        ev.times.flags.writeable = ev.marks.flags.writeable = False
        return ev


@dataclass(frozen=True)
class TruncationConfig:
    """Big/small jump handling for the simulation of the driver.

    level: the cutoff l > 0 separating compensated from raw jumps.
    small_jump_mode: 'exact_compound_poisson' samples every atom of the
        driver (requires the measure to have finite total activity);
        'discard_below_eps' drops atoms with |z| <= eps; the discarded
        variance, second_moment(0, eps) of the driver, bounds the bias.
    """

    level: float
    small_jump_mode: str = "exact_compound_poisson"
    eps: float | None = None

    def __post_init__(self):
        if not self.level > 0:
            raise LevyConfigError("truncation level must be strictly positive")
        if self.small_jump_mode not in ("exact_compound_poisson", "discard_below_eps"):
            raise LevyConfigError(f"unknown small_jump_mode: {self.small_jump_mode!r}")
        if self.small_jump_mode == "discard_below_eps":
            if self.eps is None or not 0 < self.eps <= self.level:
                raise LevyConfigError("discard_below_eps requires 0 < eps <= level")

    @property
    def sampling_floor(self) -> float:
        """Radius below which driver atoms are not sampled."""
        return self.eps if self.small_jump_mode == "discard_below_eps" else 0.0


class LevyMeasure:
    """Base class: annulus mass/moment queries plus restricted sampling."""

    dim: int

    # -- queries ---------------------------------------------------------
    # mass, first_moment and second_moment broadcast over arrays of radii,
    # for either bound or both; two scalar radii give a float, and
    # first_moment's vector integral has shape (..., dim)

    def mass(self, r_lo=0.0, r_hi=math.inf):
        """Mass of the annulus (may be inf)."""
        raise NotImplementedError

    def first_moment(self, r_lo, r_hi) -> np.ndarray:
        """Vector integral of z over the annulus."""
        raise NotImplementedError

    def second_moment(self, r_lo, r_hi):
        """Integral of |z|^2 over the annulus (may be inf)."""
        raise NotImplementedError

    def radial_integral(self, fn, r_lo: float, r_hi: float) -> float:
        """Integral of fn(|z|) over the annulus; fn maps an array of radii
        elementwise."""
        raise NotImplementedError

    def quadrature(self, r_lo: float, r_hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes (q, dim) in the annulus and weights (q,): the integral of g(z)
        over the annulus is taken as sum_j weights_j g(nodes_j)."""
        raise NotImplementedError

    def constant_first_moment(self, r_lo: float) -> np.ndarray | None:
        """The row that first_moment(r_lo, r) returns for every r > 0, bit for
        bit, or None when the rows differ or it is not known.  Used by the
        SDE engine, whose compensated region has a state-dependent upper
        radius."""
        return None

    # -- sampling --------------------------------------------------------

    def marks(self, u: np.ndarray, r_lo: float = 0.0, r_hi: float = math.inf) -> np.ndarray:
        """(len(u), dim) marks of the normalized restriction to the annulus,
        one from each uniform in u, elementwise (a mark depends on its own
        uniform only)."""
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------

    def require_finite(self, r_lo: float, r_hi: float) -> float:
        m = self.mass(r_lo, r_hi)
        if not math.isfinite(m):
            raise InfiniteMassError(
                f"measure has infinite mass on region {r_lo} < |z| <= {r_hi}")
        if m < 0:
            raise LevyConfigError(f"negative mass on region {r_lo} < |z| <= {r_hi}")
        return m


class AtomicLevyMeasure(LevyMeasure):
    """Finite measure supported on finitely many marks; every query is exact."""

    def __init__(self, atoms, masses):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        masses = np.asarray(masses, dtype=float)
        if atoms.shape[0] != masses.shape[0]:
            raise LevyConfigError("atoms and masses length mismatch")
        if np.any(masses < 0):
            raise LevyConfigError("atom masses must be non-negative")
        if atoms.shape[0] and np.any(np.linalg.norm(atoms, axis=1) == 0.0):
            raise LevyConfigError("marks must be nonzero")
        self.atoms = atoms
        self.masses = masses
        self.dim = atoms.shape[1] if atoms.size else 1
        self._radii = np.linalg.norm(atoms, axis=1) if atoms.size else np.empty(0)
        # first moments summed in increasing radius, for first_moment
        order = np.argsort(self._radii, kind="stable")
        self._sorted_radii = self._radii[order]
        self._moment_prefix = np.zeros((order.size + 1, atoms.shape[1]))
        np.cumsum((masses[:, None] * atoms)[order], axis=0, out=self._moment_prefix[1:])

    def _sel(self, r_lo, r_hi):
        return (self._radii > r_lo) & (self._radii <= r_hi)

    def _annulus_sum(self, r_lo, r_hi, w):
        """Sum of w over the atoms in each annulus, added atom by atom in
        order: it rounds alike for scalar radii and in any batch of radii
        (a matmul does not)."""
        r_lo, r_hi = np.asarray(r_lo, dtype=float), np.asarray(r_hi, dtype=float)
        out = np.zeros(np.broadcast_shapes(r_lo.shape, r_hi.shape))
        for r, wj in zip(self._radii, w):
            out += np.where((r_lo < r) & (r <= r_hi), wj, 0.0)
        return out

    def mass(self, r_lo=0.0, r_hi=math.inf):
        # the samplers' Poisson total sums the selected masses pairwise (np.sum),
        # which agrees with the atom-by-atom sum up to 7 atoms in the annulus
        if np.ndim(r_lo) == np.ndim(r_hi) == 0:
            return float(self.masses[self._sel(r_lo, r_hi)].sum())
        return self._annulus_sum(r_lo, r_hi, self.masses)

    def first_moment(self, r_lo, r_hi):
        # a difference of prefix sums rounds a row the same in any batch (a
        # matmul does not), so the march does not depend on the block size
        lo = np.searchsorted(self._sorted_radii, r_lo, side="right")
        hi = np.maximum(np.searchsorted(self._sorted_radii, r_hi, side="right"), lo)
        return self._moment_prefix[hi] - self._moment_prefix[lo]

    def second_moment(self, r_lo, r_hi):
        out = self._annulus_sum(r_lo, r_hi, self.masses * self._radii ** 2)
        return float(out) if out.ndim == 0 else out

    def radial_integral(self, fn, r_lo, r_hi):
        sel = self._sel(r_lo, r_hi)
        if not sel.any():
            return 0.0
        return float(np.sum(self.masses[sel] * fn(self._radii[sel])))

    def quadrature(self, r_lo, r_hi):
        # the atoms in the annulus and their masses: the sum is the integral
        sel = self._sel(r_lo, r_hi)
        return self.atoms[sel], self.masses[sel]

    def constant_first_moment(self, r_lo):
        # the rows are the empty band (r = r_lo) and the band up to each radius
        # above r_lo; compared as bits, so a -0.0 row differs from +0.0
        radii = self._sorted_radii
        rows = self.first_moment(r_lo, np.append(r_lo, radii[radii > r_lo]))
        bits = rows.view(np.int64)
        return rows[0] if np.all(bits == bits[0]) else None

    def marks(self, u, r_lo=0.0, r_hi=math.inf):
        sel = self._sel(r_lo, r_hi)
        masses = self.masses[sel]
        total = float(masses.sum())                     # mass(r_lo, r_hi)
        if total <= 0:
            if u.size == 0:
                return np.empty((0, self.dim))
            raise LevyConfigError("cannot sample from a zero-mass region")
        idx = np.searchsorted(np.cumsum(masses) / total, u, side="right")
        return self.atoms[sel][np.minimum(idx, masses.size - 1)]


# the half-line sides of a 1-d radial measure, each with its analytic
# moment(k, a, b), density(r) and inverse_cdf(u, a, b)
class _ExpSide:
    def __init__(self, intensity: float, rate: float):
        if intensity < 0 or rate <= 0:
            raise LevyConfigError("exponential side needs intensity >= 0, rate > 0")
        self.i = intensity
        self.rate = rate

    def moment(self, k, a, b):
        # broadcasts over a and b, +0.0 where a >= b; np.exp(-inf) underflows to 0
        i, lam = self.i, self.rate
        if i == 0.0:
            shape = np.broadcast_shapes(np.shape(a), np.shape(b))
            return 0.0 if shape == () else np.zeros(shape)

        def anti(r):  # -antiderivative of r^k e^{-lam r}
            r = np.asarray(r, dtype=float)
            er = np.exp(-lam * np.minimum(r, 1e306))
            # the polynomial is 0 where exp(-lam r) is: r r overflows above
            # about 1.3e154 (and is inf at r = inf), and inf * 0 is NaN
            r0 = np.where(er == 0.0, 0.0, r)
            if k == 0:
                return er / lam
            if k == 1:
                return (r0 / lam + 1.0 / lam ** 2) * er
            return (r0 * r0 / lam + 2.0 * r0 / lam ** 2 + 2.0 / lam ** 3) * er

        out = np.where(np.less(a, b), i * (anti(a) - anti(b)), 0.0)
        return float(out) if out.ndim == 0 else out

    def density(self, r):
        return self.i * np.exp(-self.rate * r)

    def inverse_cdf(self, u, a, b):
        lam = self.rate
        ea = math.exp(-lam * a)
        eb = 0.0 if math.isinf(b) else math.exp(-lam * b)
        return -np.log(ea - u * (ea - eb)) / lam


class _PowerSide:
    def __init__(self, coef: float, exponent: float, r_max: float):
        if coef < 0 or not 0 < r_max < math.inf:
            raise LevyConfigError("power side needs coef >= 0 and a finite r_max > 0")
        self.c = coef
        self.beta = exponent
        self.r_max = r_max

    def moment(self, k, a, b):
        # broadcasts over a and b; divergence at a lower endpoint of 0 yields inf
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        if self.c == 0.0:
            return 0.0 if shape == () else np.zeros(shape)
        p = k + 1.0 - self.beta
        a_arr = np.broadcast_to(np.asarray(a, dtype=float), shape).ravel()
        b_arr = np.broadcast_to(np.minimum(np.asarray(b, dtype=float), self.r_max),
                                shape).ravel()
        out = np.zeros(a_arr.shape)
        ok = b_arr > a_arr
        zero_lo = ok & (a_arr == 0.0)
        pos_lo = ok & (a_arr > 0.0)
        if p <= 0.0:
            out[zero_lo] = math.inf
        else:
            out[zero_lo] = self.c * b_arr[zero_lo] ** p / p
        if pos_lo.any():
            if p == 0.0:
                out[pos_lo] = self.c * np.log(b_arr[pos_lo] / a_arr[pos_lo])
            else:
                out[pos_lo] = self.c * (b_arr[pos_lo] ** p - a_arr[pos_lo] ** p) / p
        out = out.reshape(shape)
        return float(out) if shape == () else out

    def density(self, r):
        return self.c * r ** -self.beta

    def inverse_cdf(self, u, a, b):
        b = min(b, self.r_max)
        p = 1.0 - self.beta
        if p == 0.0:
            return a * (b / a) ** u
        return (a ** p + u * (b ** p - a ** p)) ** (1.0 / p)


# radial_integral's rule: geometric panels follow both the r^-beta spike at a
# small r_lo and the exponential decay over a long [r_lo, hi]
_PANELS = 16
# 16-point Gauss-Legendre rule on [-1, 1], bit for bit as
# np.polynomial.legendre.leggauss(16) gives it (a test pins it), written out
# because importing numpy.polynomial adds about 2 ms to every run's set-up
_GL_HALF = np.array([0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                     0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                     0.9445750230732326, 0.9894009349916499])
_GL_HALF_WEIGHTS = np.array([0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                             0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                             0.062253523938647456, 0.027152459411754176])
_GL_NODES = np.concatenate([-_GL_HALF[::-1], _GL_HALF])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])


class Radial1DMeasure(LevyMeasure):
    """1-d measure with independent positive and negative radial components."""

    dim = 1

    def __init__(self, pos: _ExpSide | _PowerSide | None,
                 neg: _ExpSide | _PowerSide | None):
        self.pos = pos
        self.neg = neg

    def _side_moment(self, k, r_lo, r_hi):
        p = self.pos.moment(k, r_lo, r_hi) if self.pos else 0.0
        n = self.neg.moment(k, r_lo, r_hi) if self.neg else 0.0
        return p, n

    def mass(self, r_lo=0.0, r_hi=math.inf):
        p, n = self._side_moment(0, r_lo, r_hi)
        out = p + n
        return float(out) if np.ndim(out) == 0 else out

    def first_moment(self, r_lo, r_hi):
        p, n = self._side_moment(1, r_lo, r_hi)
        return np.asarray(p - n, dtype=float)[..., None]

    def second_moment(self, r_lo, r_hi):
        p, n = self._side_moment(2, r_lo, r_hi)
        out = p + n
        return float(out) if np.ndim(out) == 0 else out

    def _rule(self, r_lo, r_hi) -> list:
        """The annulus rule as pieces (sign, scale, radii, weights, density):
        a piece integrates g over its radii as scale * sum(weights * g(radii)
        * density), on the side of the given sign.  Per side: 16-point
        Gauss-Legendre on each of 16 geometric panels of [r_lo, hi] (scale
        1), with hi = r_max on a power side and r_lo + 60/rate on an
        exponential one, where the density has fallen by e^-60.  r_lo = 0
        needs finite mass: the panels start at a = 1e-6 hi, and [0, a] gets
        16 points in the side's CDF (scale its mass there, density 1)."""
        if not (r_lo > 0 or r_lo == 0 and math.isfinite(self.mass(0.0, r_hi))):
            raise LevyConfigError(f"radial_integral needs r_lo > 0, or r_lo = 0 with "
                                  f"finite mass near 0; got {r_lo}")
        pieces = []
        for sign, side in ((1.0, self.pos), (-1.0, self.neg)):
            if side is None:
                continue
            if isinstance(side, _ExpSide):
                hi = min(r_hi, 60.0 / side.rate + r_lo)
            else:
                hi = min(r_hi, side.r_max)
            if hi <= r_lo:
                continue
            a = r_lo or 1e-6 * hi
            if r_lo == 0:
                pieces.append((sign, side.moment(0, 0.0, a),
                               side.inverse_cdf(0.5 * (1.0 + _GL_NODES), 0.0, a),
                               0.5 * _GL_WEIGHTS, 1.0))
            edges = np.geomspace(a, hi, _PANELS + 1)[:, None]
            half = 0.5 * np.diff(edges, axis=0)
            r = edges[:-1] + half * (1.0 + _GL_NODES)       # (panels, nodes)
            pieces.append((sign, 1.0, r, half * _GL_WEIGHTS, side.density(r)))
        return pieces

    def radial_integral(self, fn, r_lo, r_hi):
        """Integral of fn(|z|) over the annulus by quadrature's rule, for
        r_lo >= 0 and an fn that takes an array of radii, called once per
        piece.  Each piece is summed in factored form, scale * sum(weights *
        fn * density), which rounds otherwise than quadrature's products."""
        return sum((scale * float(np.sum(w * fn(r) * density))
                    for _, scale, r, w, density in self._rule(r_lo, r_hi)), 0.0)

    def quadrature(self, r_lo, r_hi):
        """radial_integral's rule as signed nodes (q, 1) and weights (q,):
        16 x 16 panel nodes per side, and 16 more below the panels when
        r_lo = 0."""
        pieces = self._rule(r_lo, r_hi)
        nodes = [sign * np.ravel(r) for sign, _, r, _, _ in pieces]
        weights = [np.ravel(scale * w * density) for _, scale, _, w, density in pieces]
        return (np.concatenate([np.empty(0)] + nodes)[:, None],
                np.concatenate([np.empty(0)] + weights))

    def marks(self, u, r_lo=0.0, r_hi=math.inf):
        mp, mn = self._side_moment(0, r_lo, r_hi)
        total = mp + mn
        if not math.isfinite(total):
            raise InfiniteMassError(
                f"measure has infinite mass on region {r_lo} < |z| <= {r_hi}")
        if total <= 0:
            if u.size == 0:
                return np.empty((0, 1))
            raise LevyConfigError("cannot sample from a zero-mass region")
        p_pos = mp / total
        out = np.empty(u.size)
        take_pos = u < p_pos
        if take_pos.any():
            u_pos = u[take_pos] / p_pos
            out[take_pos] = self.pos.inverse_cdf(u_pos, r_lo, r_hi)
        if (~take_pos).any():
            u_neg = (u[~take_pos] - p_pos) / (1.0 - p_pos)
            out[~take_pos] = -self.neg.inverse_cdf(u_neg, r_lo, r_hi)
        return out[:, None]


def exponential_tails_1d(intensity_pos=1.0, rate_pos=1.0,
                         intensity_neg=None, rate_neg=None) -> Radial1DMeasure:
    """Density intensity*exp(-rate*|z|) per side; symmetric unless told otherwise."""
    if intensity_neg is None:
        intensity_neg = intensity_pos
    if rate_neg is None:
        rate_neg = rate_pos
    pos = _ExpSide(intensity_pos, rate_pos) if intensity_pos > 0 else None
    neg = _ExpSide(intensity_neg, rate_neg) if intensity_neg > 0 else None
    return Radial1DMeasure(pos, neg)


def power_law_tails_1d(coef=1.0, exponent=1.5, r_max=1.0, two_sided=True) -> Radial1DMeasure:
    """Density coef*|z|^(-exponent) on 0 < |z| <= r_max.

    exponent in (1, 3) gives an infinite-activity Levy measure (finite
    second moment near zero); exponent >= 3 deliberately breaks the
    small-jump square-integrability and is used to build counterexamples.
    """
    pos = _PowerSide(coef, exponent, r_max)
    neg = _PowerSide(coef, exponent, r_max) if two_sided else None
    return Radial1DMeasure(pos, neg)


def zero_measure(dim: int = 1) -> AtomicLevyMeasure:
    m = AtomicLevyMeasure(np.empty((0, dim)), np.empty(0))
    m.dim = dim
    return m


# ---------------------------------------------------------------------------
# driver-level operations
# ---------------------------------------------------------------------------

def sample_jump_events(spec: LevyMeasure, region: tuple[float, float],
                       t_max: float, rng: np.random.Generator | rngmod.Streams):
    """Atoms of the Poisson random measure with intensity dt x nu on a region.

    The event count is Poisson(nu(region) * t_max), times are uniform on
    (0, t_max] and sorted, marks are i.i.d. from the normalized restriction.
    rng is one path's generator, and the result its JumpEvents; or a block
    of fresh streams (rng.Streams), and the result (counts, times, marks):
    every stream's events, the same bits as a fresh generator of each
    stream gives, concatenated in stream order.
    """
    if t_max < 0:
        raise LevyConfigError("horizon must be non-negative")
    total = spec.require_finite(*region)
    if isinstance(rng, rngmod.Streams):
        return _block_events(spec, region, total, t_max, rng)
    return _path_events(spec, region, total, t_max, rng)


def _path_events(spec, region, total, t_max, rng) -> JumpEvents:
    """One path's events drawn from the generator rng."""
    if total == 0.0 or t_max == 0.0:
        return JumpEvents.empty(spec.dim)
    n = int(rng.poisson(total * t_max))
    if n == 0:
        return JumpEvents.empty(spec.dim)
    times = np.sort(t_max * (1.0 - rng.random(n)))  # in (0, t_max]
    marks = spec.marks(rng.random(n), *region)
    _nudge_ties(times)
    return JumpEvents(times, marks)


def _block_events(spec, region, total, t_max, streams):
    """Every stream's events, drawn as _path_events draws them from a fresh
    generator of the stream, from the stream words philox4x64 computes."""
    lam = total * t_max
    if lam >= 10.0:
        # numpy draws such a count by transformed rejection (PTRS), which is
        # not reproduced here: the streams draw one by one
        evs = [_path_events(spec, region, total, t_max, g) for g in streams.generators()]
        return (np.array([len(ev) for ev in evs], dtype=np.int64),
                np.concatenate([np.empty(0)] + [ev.times for ev in evs]),
                np.vstack([np.empty((0, spec.dim))] + [ev.marks for ev in evs]))
    keys = streams.keys()
    counts = np.zeros(len(keys), dtype=np.int64)
    if lam == 0.0:
        return counts, np.empty(0), np.empty((0, spec.dim))
    # numpy's multiplication method: the count is the number of uniforms
    # whose running product stays above exp(-lam); blocks are drawn only
    # for the streams still counting
    e_lam, prod, live, block = math.exp(-lam), np.ones(len(keys)), np.arange(len(keys)), 0
    while live.size:
        block += 1
        u = _uniforms(rngmod.philox4x64(keys[live], _counters(block, live.size)))
        p, c, alive = prod[live], counts[live], np.ones(live.size, dtype=bool)
        for j in range(4):
            p = p * u[:, j]
            alive &= p > e_lam
            c += alive
        prod[live], counts[live], live = p, c, live[alive]
    # a stream with n events reads n + 1 uniforms for its count, then n for
    # its times and n for its marks: its first ceil((3n + 1) / 4) blocks
    jumped = np.flatnonzero(counts)
    n = counts[jumped]
    blocks = (3 * n + 4) // 4
    first = np.cumsum(blocks) - blocks
    counter = np.arange(blocks.sum()) - np.repeat(first, blocks) + 1
    words = rngmod.philox4x64(np.repeat(keys[jumped], blocks, axis=0),
                              _counters(counter, counter.size)).reshape(-1)
    # event k of a stream with n events: time word n + 1 + k, mark word 2n + 1 + k
    stream = np.repeat(np.arange(n.size), n)
    k = np.arange(stream.size) - np.repeat(np.cumsum(n) - n, n)
    word = 4 * first[stream] + n[stream] + 1 + k
    times = t_max * (1.0 - _uniforms(words[word]))
    marks = spec.marks(_uniforms(words[word + n[stream]]), *region)
    times = times[np.lexsort((times, stream))]
    ends = np.cumsum(n)
    tied = (times[1:] <= times[:-1]) & (stream[1:] == stream[:-1])
    for i in dict.fromkeys(stream[1:][tied].tolist()):
        _nudge_ties(times[ends[i] - n[i]:ends[i]])
    return counts, times, marks


def _counters(low, size: int) -> np.ndarray:
    """(size, 4) Philox counters whose low word is low and the rest zero."""
    out = np.zeros((size, 4), dtype=np.uint64)
    out[:, 0] = low
    return out


def _uniforms(words: np.ndarray) -> np.ndarray:
    """numpy's next_double of each 64-bit word: its top 53 bits / 2^53."""
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _nudge_ties(times: np.ndarray):
    """Make sorted times strictly increasing in place: ties have probability
    zero, but would break strict ordering."""
    for i in range(1, times.size):
        if times[i] <= times[i - 1]:
            times[i] = np.nextafter(times[i - 1], math.inf)


# registry for manifest-driven construction ---------------------------------

def _build_atomic(params):
    return AtomicLevyMeasure(params["atoms"], params["masses"])


def _build_exponential(params):
    return exponential_tails_1d(**params)


def _build_power_law(params):
    return power_law_tails_1d(**params)


def _build_zero(params):
    return zero_measure(int(params.get("dim", 1)))


MEASURE_REGISTRY = {
    "atomic": _build_atomic,
    "exponential_tails_1d": _build_exponential,
    "power_law_tails_1d": _build_power_law,
    "zero": _build_zero,
}
MEASURE_PARAMS = {
    "atomic": ("atoms", "masses"),
    "exponential_tails_1d": ("intensity_pos", "rate_pos", "intensity_neg", "rate_neg"),
    "power_law_tails_1d": ("coef", "exponent", "r_max", "two_sided"), "zero": ("dim",)}


def measure_from_config(cfg: dict) -> LevyMeasure:
    _check_keys(cfg, ("name", "params"), LevyConfigError, "a measure")
    build, params = _registry_entry(cfg, MEASURE_REGISTRY, MEASURE_PARAMS,
                                    LevyConfigError, "measure")
    return build(params)
