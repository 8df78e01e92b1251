"""Jump-contaminated nonlinear filtering.

The observation has a Brownian part, a drift h(X_t) dt, and a marked point
process whose intensity is lambda(X_t, u) dt nu2(du): simulated by thinning
proposals of a dominating Poisson measure.  The filter is a weighted
particle implementation of the reference-measure formula: particles evolve
under the signal law, independent of the observations, and accumulate the
log-likelihood

    log S_t = int h(X) . dY_cont - 1/2 int |h(X)|^2 dt
              + sum over small-band events of log lambda(X_-, u)
              + int int_band (1 - lambda(X, u)) nu2(du) dt

with left-point (predictable) evaluation of h and lambda.  The normalized
filter is the ratio of weighted means, computed with log-sum-exp.  The band
integral is exact for an atomic nu2 or a separable lambda(x, u) = c(x) rho(|u|)
on a radial nu2, and nu2's deterministic Gauss-Legendre rule otherwise.

Coupling for the robustness experiment: family members share the Brownian
observation noise, the proposal atoms, and one thinning uniform per atom
(member n accepts iff the shared uniform is below lambda(X^n, u)).  Each
rep is one filter_run over the family, one record per set: the filter
particles' randomness is drawn once, and every filter marches in one
BlockMarch of S*n rows on the one block.  h, |h|^2 and the band
integral are taken once per cell on all rows; each filter's record,
weights, resampling stream and snapshots stay on its own rows, so each
filter equals a filter_run of its set alone, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import rng as rngmod
from .coefficients import CoefficientFamily, CoefficientSet
from .engine import (BlockMarch, InitialLaw, _prepare_block, make_base_grid,
                     simulate_coupled_family, sorted_unique)
from .manifests import _check_keys, _is_finite, _registry_entry
from .measures import (JumpEvents, LevyMeasure, Radial1DMeasure, TruncationConfig,
                       sample_jump_events)


class FilterError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# observation model
# ---------------------------------------------------------------------------

# caps the (particles x nodes) matrix of one lambda evaluation in a band
# quadrature, so peak memory does not grow with the number of nodes
_SLICE_ENTRIES = 1 << 16


def _add_in_order(acc, terms):
    """acc + terms[:, 0] + terms[:, 1] + ..., added left to right like a loop
    over the columns.  numpy adds row by row along an array's slow axis but
    pairs terms along its fast axis, hence rows of a (q + 1, n + 1) array:
    the spare column keeps the particle axis the fast one when n = 1."""
    rows = np.zeros((terms.shape[1] + 1, acc.size + 1))
    rows[0, :-1], rows[1:, :-1] = acc, terms.T
    return rows.sum(axis=0)[:-1]


@dataclass
class ObservationModel:
    """Sensor h, thinning intensity lambda, driving measure nu2, small band U0.

    lam takes arrays in both arguments: for n states x (n, d) and q marks
    U (q, k) it returns the (n, q) matrix lambda(x_i, U_j), every entry in
    (0, 1); a mark_profile attribute Lbar declares it separable, lambda(x, u)
    = lambda(x, 0) Lbar(|u|) / Lbar(0).  u0_region is (lo, hi]: the band
    whose jumps are compensated in the observation and enter the likelihood.
    eps_obs is the sampling floor inside the band when nu2 has infinite
    activity there: marks are observed, and the band integrals taken, on
    (band_floor(), hi].
    """

    h: callable                       # (n, d) -> (n, k)
    lam: callable                     # ((n, d), (q, k)) -> (n, q)
    nu2: LevyMeasure
    u0_region: tuple = (0.0, 1.0)
    eps_obs: float = 0.0

    def __post_init__(self):
        lo, hi = self.u0_region
        if not 0 <= lo < hi:
            raise FilterError("u0_region must be (lo, hi] with 0 <= lo < hi")
        if self.eps_obs and not lo < self.eps_obs < hi:
            raise FilterError("eps_obs must lie inside the band")
        self._quad = self._sep = None

    def band_floor(self) -> float:
        lo, _ = self.u0_region
        return max(lo, self.eps_obs)

    def outside_regions(self):
        lo, hi = self.u0_region
        return ([(0.0, lo)] if lo > 0 else []) + [(hi, math.inf)]

    def check_measure_invariants(self):
        lo, hi = self.u0_region
        for r in self.outside_regions():
            if not math.isfinite(self.nu2.mass(*r)):
                raise FilterError(
                    f"nu2 must have finite mass outside the band; region {r} fails")
        if not math.isfinite(self.nu2.second_moment(lo, hi)):
            raise FilterError("nu2 must have a finite second moment on the band")

    def _quad_nodes(self):
        """Nodes and weights for integrals of g(x, u) over the observed band
        (band_floor(), hi]: nu2's quadrature rule there, the atoms themselves
        for an atomic nu2."""
        if self._quad is None:
            lo, hi = self.band_floor(), self.u0_region[1]
            if not math.isfinite(self.nu2.mass(lo, hi)):
                raise FilterError(
                    "band quadrature needs finite nu2 mass on the band; "
                    "set eps_obs > 0 for infinite-activity nu2")
            self._quad = self.nu2.quadrature(lo, hi)
        return self._quad

    def _separable(self):
        """(m, A0, rho, nodes), computed once, for a lam with a mark profile
        Lbar on a radial nu2, else None: m = nu2(band), A0 the band integral
        of rho = Lbar / Lbar(0), rho at the nodes; the band is the observed
        one, (band_floor(), hi]."""
        profile = getattr(self.lam, "mark_profile", None)
        if profile is None or not isinstance(self.nu2, Radial1DMeasure):
            return None
        if self._sep is None:
            lo, hi = self.band_floor(), self.u0_region[1]
            (nodes, _), p0 = self._quad_nodes(), profile(0.0)
            self._sep = (self.nu2.mass(lo, hi),
                         self.nu2.radial_integral(lambda r: profile(r) / p0, lo, hi),
                         profile(np.abs(nodes[:, 0])) / p0, nodes)
        return self._sep

    def band_integral(self, x: np.ndarray) -> np.ndarray:
        """Integral of 1 - lambda(x, u) over the observed band against nu2.

        Exact for atomic nu2 (a sum over the atoms) and for a separable
        lambda on a radial nu2: m - c A0 with c = lambda(x, 0) (see
        _separable).  Otherwise nu2's deterministic Gauss-Legendre rule on
        the band (`LevyMeasure.quadrature`).
        """
        sep = self._separable()
        if sep is None:
            return self._band_sum(x)
        mass, a0, rho, nodes = sep
        x = np.atleast_2d(x)
        c = self._lambda(x, np.zeros((1, self.nu2.dim)))        # (n, 1)
        if c.size and rho.size:
            # lambda = c rho: its extremes over x and the nodes are c's times rho's
            for i, j in ((c.argmin(), rho.argmin()), (c.argmax(), rho.argmax())):
                if not 0.0 < c[i, 0] * rho[j] < 1.0:
                    self._lambda(x[[i]], nodes[[j]])    # raises there, naming x and u
        return (mass - c * a0)[:, 0]

    def _band_sum(self, x):
        """sum over the band nodes u of w(u) * (1 - lambda(x, u)), node by node
        in order, with one lambda call per slice of nodes."""
        x = np.atleast_2d(x)
        nodes, weights = self._quad_nodes()
        n = x.shape[0]
        step = max(1, _SLICE_ENTRIES // max(n, 1))
        # _add_in_order's layout, allocated once: row 0 takes the running sum,
        # rows 1..q a slice's weighted terms, and the spare column stays 0
        rows = np.zeros((min(step, nodes.shape[0]) + 1, n + 1))
        acc = np.zeros(n + 1)
        for a in range(0, nodes.shape[0], step):
            vals = 1.0 - self._lambda(x, nodes[a:a + step])
            q = vals.shape[1]
            rows[0] = acc
            np.multiply(vals.T, weights[a:a + step, None], out=rows[1:q + 1, :-1])
            np.add.reduce(rows[:q + 1], axis=0, out=acc)
        return acc[:-1]

    def _lambda(self, x, U):
        """lambda(x, U) as an (n, q) matrix, checked to lie in (0, 1)."""
        x, U = np.atleast_2d(x), np.atleast_2d(np.asarray(U, dtype=float))
        lamv = np.asarray(self.lam(x, U))
        if lamv.shape != (x.shape[0], U.shape[0]):
            raise FilterError(f"lambda returned shape {lamv.shape} for "
                              f"{x.shape[0]} states and {U.shape[0]} marks")
        if lamv.size and not 0.0 < lamv.min() <= lamv.max() < 1.0:
            i, j = np.unravel_index(np.argmin((lamv > 0.0) & (lamv < 1.0)), lamv.shape)
            raise FilterError(
                f"lambda outside (0,1): value {lamv[i, j]} at x={x[i]}, u={U[j]}")
        return lamv


# registries ----------------------------------------------------------------

SENSOR_REGISTRY = {
    "identity": lambda params: np.atleast_2d,
    "zero": lambda params: (
        lambda x, k=int(params.get("k", 1)): np.zeros((np.atleast_2d(x).shape[0], k))),
    "tanh": lambda params: (
        lambda x, c=float(params.get("scale", 1.0)): np.tanh(c * np.atleast_2d(x))),
    # a sum over columns, not a matmul: BLAS may round a row differently in
    # a larger batch, and the filter stacks its blocks
    "linear": lambda params: (
        lambda x, H=np.atleast_2d(np.asarray(params["H"], dtype=float)):
        np.sum(np.atleast_2d(x)[:, None, :] * H, axis=2)),
}
SENSOR_PARAMS = {"identity": (), "zero": ("k",), "tanh": ("scale",), "linear": ("H",)}


def sensor_from_config(cfg: dict):
    _check_keys(cfg, ("name", "params"), FilterError, "a sensor")
    build, params = _registry_entry(cfg, SENSOR_REGISTRY, SENSOR_PARAMS, FilterError,
                                    "sensor")
    return build(params)


def _lambda_param(params: dict, key: str, default: float) -> float:
    """The lambda parameter key as a float; it must be a finite number, not
    a bool or a string that float() would take."""
    v = params.get(key, default)
    if not _is_finite(v):
        raise FilterError(f"lambda.params.{key} must be a finite number, got {v!r}")
    return float(v)


def _constant_lambda(params):
    c = _lambda_param(params, "c", 0.5)
    if not 0 < c < 1:
        raise FilterError("constant lambda needs c in (0,1)")

    def lam(x, U):
        return np.full((np.atleast_2d(x).shape[0], np.atleast_2d(U).shape[0]), c)

    lam.mark_profile = np.ones_like
    return lam, (lambda u: np.full(np.atleast_2d(u).shape[0], 0.5 * c)), 0.5 * c


def _state_logistic_lambda(params):
    # lambda(x, u) = Lbar(u) / (1 + exp(-|x|)), in (Lbar/2, Lbar)
    base = _lambda_param(params, "base", 0.8)
    decay = _lambda_param(params, "decay", 0.0)
    if not 0 < base < 1:
        raise FilterError("state_logistic needs base in (0,1)")

    def lbar(u):
        u = np.atleast_2d(u)
        return base * np.exp(-decay * np.linalg.norm(u, axis=1))

    def lam(x, U):
        s = 1.0 / (1.0 + np.exp(-np.linalg.norm(np.atleast_2d(x), axis=1)))
        # np.outer(s, lbar(U))'s products, computed mark-major: the inner loop
        # runs over the n states, not the few marks, and the (n, q) result is
        # an F-ordered view whose transpose the band sum reads contiguously
        return (lbar(U)[:, None] * s).T

    lam.mark_profile = lambda r: base * np.exp(-decay * r)
    return lam, (lambda u: 0.49 * lbar(u)), None


LAMBDA_REGISTRY = {"constant": _constant_lambda, "state_logistic": _state_logistic_lambda}
LAMBDA_PARAMS = {"constant": ("c",), "state_logistic": ("base", "decay")}


def lambda_from_config(cfg: dict):
    """Returns (lam, floor, iota): lam carries its mark_profile, floor is a
    positive lower envelope of lam in the mark and iota its infimum."""
    # models keep only lam; the triple stays because the benchmark's layer trace unpacks it
    _check_keys(cfg, ("name", "params"), FilterError, "a lambda")
    build, params = _registry_entry(cfg, LAMBDA_REGISTRY, LAMBDA_PARAMS, FilterError,
                                    "lambda")
    return build(params)


def observation_model_from_config(cfg: dict) -> ObservationModel:
    from .measures import measure_from_config

    _check_keys(cfg, ("sensor", "lambda", "nu2", "u0_region", "eps_obs"), FilterError,
                "an observation")
    region = cfg.get("u0_region", (0.0, 1.0))
    if not (isinstance(region, (list, tuple)) and len(region) == 2
            and all(map(_is_finite, region))):
        raise FilterError(f"u0_region must be two finite numbers [lo, hi], got {region!r}")
    return ObservationModel(
        h=sensor_from_config(cfg["sensor"]),
        lam=lambda_from_config(cfg["lambda"])[0],
        nu2=measure_from_config(cfg["nu2"]),
        u0_region=tuple(map(float, region)),
        eps_obs=float(cfg.get("eps_obs", 0.0)))


# ---------------------------------------------------------------------------
# observation records
# ---------------------------------------------------------------------------

@dataclass
class ObservationRecord:
    """What the filter is allowed to see.

    cont_increments are the per-cell continuous-part increments
    (Brownian plus sensor drift); the band and big jump events are the
    accepted atoms.
    """

    grid: np.ndarray
    cont_increments: np.ndarray
    events_band: JumpEvents
    events_big: JumpEvents


class ObservationSetup:
    """Shared observation randomness: proposals, thinning uniforms, Brownian.

    Drawing this once and thinning per member realizes the coupled
    observations: same W, same proposal atoms, one shared uniform per atom.
    """

    def __init__(self, model: ObservationModel, T: float, grid_step: float,
                 seed: int):
        self.model = model
        lo, hi = model.u0_region
        rng_prop = rngmod.stream(seed, rngmod.OBS_PROPOSAL, namespace=rngmod.OBSERVATION)
        band = sample_jump_events(model.nu2, (model.band_floor(), hi), T, rng_prop)
        outs = [sample_jump_events(model.nu2, r, T, rng_prop)
                for r in model.outside_regions()]
        times = np.concatenate([band.times] + [o.times for o in outs])
        marks = np.vstack([band.marks] + [o.marks for o in outs]) if times.size else \
            np.empty((0, model.nu2.dim))
        in_band = np.concatenate([np.ones(len(band), dtype=bool)]
                                 + [np.zeros(len(o), dtype=bool) for o in outs])
        order = np.argsort(times, kind="stable")
        self.prop_times = times[order]
        self.prop_marks = marks[order]
        self.prop_in_band = in_band[order]
        rng_thin = rngmod.stream(seed, rngmod.OBS_THIN, namespace=rngmod.OBSERVATION)
        self.uniforms = rng_thin.random(self.prop_times.size)
        self.grid = make_base_grid(T, grid_step, self.prop_times)
        rng_w = rngmod.stream(seed, rngmod.OBS_W, namespace=rngmod.OBSERVATION)
        dts = np.diff(self.grid)
        self.w_increments = (rng_w.standard_normal((dts.size, model.nu2.dim))
                             * np.sqrt(dts)[:, None])
        self._prop_idx = np.searchsorted(self.grid, self.prop_times, side="left")

    def record_for(self, signal_values: np.ndarray) -> ObservationRecord:
        """Thin the shared proposals against one signal path on self.grid."""
        model = self.model
        # lambda at each proposal's own (x, u): diagonals of square blocks
        x, U = signal_values[self._prop_idx], self.prop_marks
        step = math.isqrt(_SLICE_ENTRIES)
        lamv = np.concatenate(
            [np.diagonal(model._lambda(x[a:a + step], U[a:a + step]))
             for a in range(0, U.shape[0], step)] + [np.empty(0)])
        accept = self.uniforms < lamv
        dts = np.diff(self.grid)
        hv = model.h(signal_values[:-1])
        cont = self.w_increments + hv * dts[:, None]
        band = accept & self.prop_in_band
        big = accept & ~self.prop_in_band
        return ObservationRecord(
            grid=self.grid, cont_increments=cont,
            events_band=JumpEvents(self.prop_times[band], self.prop_marks[band]),
            events_big=JumpEvents(self.prop_times[big], self.prop_marks[big]))


# ---------------------------------------------------------------------------
# log-likelihood
# ---------------------------------------------------------------------------

def _band_events_by_index(record: ObservationRecord) -> dict:
    """Band event marks (q, k) keyed by the grid index of their time, each
    group in record order; every event time must be a grid point."""
    grid, ev = record.grid, record.events_band
    idx = np.searchsorted(grid, ev.times, side="left")
    off = (idx >= grid.size) | (grid[np.minimum(idx, grid.size - 1)] != ev.times)
    if np.any(off):
        t_ev = ev.times[np.argmax(off)]
        raise FilterError(f"band event at t={t_ev} is not aligned with the grid")
    return {int(j): ev.marks[idx == j] for j in sorted_unique(idx)}


def _cell_loglik(model: ObservationModel, x: np.ndarray, conts: np.ndarray,
                 dt: float) -> np.ndarray:
    """The continuous and compensator terms of log S over one cell of length
    dt for states x at its left end, as (S, n): row s for the s-th block of
    rows of x and continuous increment conts[s]."""
    hv = model.h(x)
    n = hv.shape[0] // len(conts)
    drift = np.stack([hv[s * n:(s + 1) * n] @ c for s, c in enumerate(conts)])
    return (drift - (0.5 * np.sum(hv * hv, axis=1) * dt).reshape(drift.shape)
            + (model.band_integral(x) * dt).reshape(drift.shape))


def _log_s_cell(lw: np.ndarray, model: ObservationModel, x: np.ndarray,
                conts: np.ndarray, dt: float, advance, marks: list):
    """One cell of log S, added to the (S, n) log-weights lw in place: first
    _cell_loglik at the states x at the cell's left end; then advance()
    returns the states at the cell's end, and each band event there adds
    log lambda(X_t-, u) in record order.  marks[s] are the marks (q, k) of
    row s's band events at the cell's end, or None."""
    lw += _cell_loglik(model, x, conts, dt)
    x = advance()
    n = lw.shape[1]
    for s, m in enumerate(marks):
        if m is not None:
            lw[s] = _add_in_order(lw[s], np.log(model._lambda(x[s * n:(s + 1) * n], m)))


def log_likelihood(path_values: np.ndarray, record: ObservationRecord,
                   model: ObservationModel) -> float:
    """log S_T for one particle path aligned with the record grid (its
    states at the grid points), accumulated cell by cell as a filter's
    log-weights are."""
    grid = record.grid
    if path_values.shape[0] != grid.size:
        raise FilterError("particle values are not aligned with the record grid")
    events = _band_events_by_index(record)
    lw = np.zeros((1, 1))
    for i, dt in enumerate(np.diff(grid)):
        _log_s_cell(lw, model, path_values[i:i + 1], record.cont_increments[i, None], dt,
                    lambda i=i: path_values[i + 1:i + 2], [events.get(i + 1)])
    return float(lw[0, 0])


# ---------------------------------------------------------------------------
# the particle filter
# ---------------------------------------------------------------------------

def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass
class FilterState:
    """The weighted particles of one filter at time t.

    A snapshot of filter_run normalises its log-weights once, in the pass
    that gives every filter's log_normalizer and ess, and carries the
    normalised weights in weights; its particles, log_weights and weights
    are read-only, so the carried weights cannot go stale.  A hand-built
    state (weights None) normalises its log_weights whenever asked.
    """

    t: float
    particles: np.ndarray
    log_weights: np.ndarray
    log_normalizer: float
    ess: float
    weights: np.ndarray | None = field(default=None, repr=False, compare=False)

    def estimate(self, fn) -> float:
        w = self.normalized_weights()
        return float(w @ fn(self.particles))

    def normalized_weights(self) -> np.ndarray:
        if self.weights is not None:
            return self.weights
        lw = self.log_weights
        m = float(np.max(lw))
        w = np.exp(lw - m)
        return w / w.sum()

    def mean(self) -> np.ndarray:
        return self.normalized_weights() @ self.particles

    def variance(self) -> np.ndarray:
        w = self.normalized_weights()
        mu = w @ self.particles
        return w @ (self.particles - mu) ** 2


@dataclass
class FilterResult:
    states: list
    resampled_at: list = field(default_factory=list)


def _default_checkpoints(grid: np.ndarray) -> np.ndarray:
    """filter_run's checkpoints when none are given: 21 grid points, evenly
    spaced by index and including both ends (all points on a shorter grid)."""
    return grid[np.linspace(0, grid.size - 1, min(21, grid.size)).astype(int)]


def filter_run(model: ObservationModel, coeffs, driver: LevyMeasure,
               trunc: TruncationConfig, mu0: InitialLaw, record, n_particles: int,
               seed: int, ess_threshold: float | None = None, checkpoints=None,
               keep=None):
    """Reference-measure particle filter against one observation record.

    Particles evolve under the signal law on the record grid (so the band
    event times are cell boundaries); weights accumulate the per-cell
    log-likelihood increments.  Optional multinomial resampling fires when
    ESS < ess_threshold * n (disabled when ess_threshold is None: exactness
    tests need weight paths uncontaminated by resampling noise).

    One CoefficientSet and one record give one FilterResult.  A
    CoefficientFamily and one record per set, in all_sets() order, give a
    list of FilterResults in that order: the particle randomness is drawn
    once and every filter marches in one BlockMarch of family.stacked(n)
    over S*n rows.  Each filter has its own resample stream and equals a
    filter_run of its set alone, bit for bit.  keep, one callable per set,
    maps (k, state) to the result's k-th state.
    """
    one = isinstance(coeffs, CoefficientSet)
    family = CoefficientFamily(limit=coeffs) if one else coeffs
    records = [record] if one else list(record)
    S = len(family.all_sets())
    if len(records) != S:
        raise FilterError(f"{S} coefficient sets for {len(records)} records")
    grid = records[0].grid
    if any(not np.array_equal(rec.grid, grid) for rec in records[1:]):
        raise FilterError("the records lie on different grids")
    inputs = _prepare_block(driver, trunc, mu0, grid, family.limit.m, range(n_particles),
                            seed, rngmod.FILTER)
    results = _march_filter(model, family.stacked(n_particles), driver, trunc, records,
                            inputs, ess_threshold, checkpoints,
                            [None] * S if keep is None else list(keep))
    return results[0] if one else results


def _march_filter(model: ObservationModel, coeffs, driver: LevyMeasure,
                  trunc: TruncationConfig, records: list, inputs, ess_threshold,
                  checkpoints, keeps) -> list:
    """filter_run's filters, one per record, over the particle draw inputs
    (only read): coeffs is one set, or a StackedFamily of S sets on the
    block that inputs draws.  Filter s owns the states' rows
    s*n..(s+1)*n - 1 and row s of the log-weights.

    A snapshot normalises the (S, n) log-weights once, row by row: each
    row's max m, its exponentials w = exp(lw - m) and their sum give the
    filter's log-normaliser (m + log sum w, then the log n shift), its ESS
    and the weights its state carries, the bits each filter gets alone.  A
    resampling check normalises its filter's row once for the ESS, the
    parent draw and the log-normaliser."""
    grid, S, n = records[0].grid, len(records), inputs.particles.size
    march = BlockMarch(coeffs, driver, trunc, grid, inputs)
    checkpoints = np.asarray(_default_checkpoints(grid) if checkpoints is None
                             else checkpoints, dtype=float)
    dts = np.diff(grid)
    conts = np.stack([rec.cont_increments for rec in records], axis=1)
    events = [_band_events_by_index(rec) for rec in records]
    if ess_threshold is not None:
        rngs = [rngmod.stream(inputs.seed, rngmod.RESAMPLE, namespace=rngmod.FILTER)
                for _ in records]
    lw = np.zeros((S, n))
    log_norm = [0.0] * S
    results = [FilterResult(states=[]) for _ in records]
    tag = f"seed {inputs.seed}, namespace {inputs.namespace})"
    where = [f"({name}, {tag}" for name in coeffs.names] if S > 1 else [f"({tag}"]

    def snapshot(t):
        m = lw.max(axis=1)
        with np.errstate(invalid="ignore"):     # a row whose max is not finite collapsed
            w = lw - m[:, None]
            np.exp(w, out=w)
        total, sq = w.sum(axis=1), (w * w).sum(axis=1)
        for s, res in enumerate(results):
            ms = float(m[s])
            lse = ms + math.log(float(total[s])) if math.isfinite(ms) else ms
            ln = log_norm[s] + lse - math.log(n)
            if not math.isfinite(ln):
                raise FilterError(f"filter collapsed: all weights vanished by "
                                  f"t={t:.6g} {where[s]}")
            st = FilterState(t=float(t),
                             particles=_read_only(march.x[s * n:(s + 1) * n].copy()),
                             log_weights=_read_only(lw[s].copy()), log_normalizer=ln,
                             ess=float(total[s] ** 2 / sq[s]),
                             weights=_read_only(w[s] / total[s]))
            res.states.append(st if keeps[s] is None else keeps[s](len(res.states), st))

    ck = 0
    if ck < checkpoints.size and abs(grid[0] - checkpoints[ck]) < 1e-12:
        snapshot(grid[0])
        ck += 1

    def advance(i):
        march.advance_cell(i)
        return march.x

    for i in range(dts.size):
        _log_s_cell(lw, model, march.x, conts[i], dts[i], lambda i=i: advance(i),
                    [ev.get(i + 1) for ev in events])
        for s, res in enumerate(results):
            rows, lws = slice(s * n, (s + 1) * n), lw[s]
            if not np.any(np.isfinite(lws)):
                raise FilterError(f"filter collapsed: all weights -inf at "
                                  f"t={grid[i + 1]:.6g} {where[s]}")
            if ess_threshold is not None:
                m = float(np.max(lws))
                w = np.exp(lws - m)
                total = w.sum()
                if float(total ** 2 / np.sum(w * w)) < ess_threshold * n:
                    parents = rngs[s].choice(n, size=n, p=w / total)
                    march.x[rows] = march.x[rows][parents]
                    log_norm[s] += m + math.log(float(total)) - math.log(n)
                    lws[:] = 0.0
                    res.resampled_at.append(float(grid[i + 1]))
        while ck < checkpoints.size and grid[i + 1] >= checkpoints[ck] - 1e-12:
            snapshot(grid[i + 1])
            ck += 1
    return results


# ---------------------------------------------------------------------------
# the robustness experiment
# ---------------------------------------------------------------------------

@dataclass
class RobustnessReport:
    rows: list             # dicts: n, distance, se
    non_increasing: bool
    ratio: float | None
    passed: bool
    limit_states: list     # rep 0's limit filter at filter_run's default checkpoints


def robustness_experiment(family, model: ObservationModel, driver, trunc,
                          mu0, n_particles: int, h: float, T: float,
                          seed: int, phis=None, n_checkpoints: int = 10,
                          reps: int = 3,
                          ess_threshold: float | None = None) -> RobustnessReport:
    """Distance table n -> D(pi^n, pi), for every member n of the family,
    under fully coupled randomness.

    D averages |pi^n_t(phi) - pi_t(phi)| over checkpoint times and a test
    dictionary; signals, observations (shared W / proposals / thinning
    uniforms) and filter particles are all coupled across members, so a
    member equal to the limit reproduces it bitwise and D = 0.  Each rep is
    one filter_run over the family (one particle draw, one stacked march).
    A filter keeps only its phi estimates at the checkpoints, taken at each
    snapshot.  Rep 0's filters also snapshot at filter_run's default
    checkpoints; the report keeps the limit's states there.
    """
    from .convergence import decreasing_verdict, enforce_level_bound

    if reps < 1:
        raise FilterError(f"reps must be at least 1, got {reps}")
    enforce_level_bound(trunc.level, family.gamma_sup)
    if phis is None:
        phis = [("tanh", lambda x: np.tanh(np.atleast_2d(x)[:, 0])),
                ("first", lambda x: np.atleast_2d(x)[:, 0]),
                ("bump", lambda x: np.exp(-0.5 * np.sum(np.atleast_2d(x) ** 2, axis=1)))]
    keys = sorted(family.members)
    dists = np.zeros((reps, len(keys)))
    checkpoints = np.linspace(T / n_checkpoints, T, n_checkpoints)
    for r in range(reps):
        rep_seed = seed + 1000 * r
        setup = ObservationSetup(model, T, h, rep_seed)
        sig_members, sig_limit = simulate_coupled_family(
            family, driver, trunc, mu0, 1, h, T, rep_seed,
            extra_times=setup.prop_times)
        records = [setup.record_for(sig_members[n].values[0]) for n in family.members]
        records.append(setup.record_for(sig_limit.values[0]))
        wanted = checkpoints if r else np.concatenate(
            [checkpoints, _default_checkpoints(setup.grid)])
        order = np.argsort(wanted, kind="stable")
        scored = order < checkpoints.size   # snapshots at the robustness checkpoints

        def keep(limit):
            return lambda k, st: ([st.estimate(fn) for _, fn in phis] if scored[k]
                                  else st if limit else None)

        *members, lim = filter_run(model, family, driver, trunc, mu0, records,
                                   n_particles, rep_seed, ess_threshold, wanted[order],
                                   [keep(False)] * len(family.members) + [keep(True)])
        if r == 0:
            limit_states = list(compress(lim.states, ~scored))
        runs = dict(zip(family.members, members))
        for j, n in enumerate(keys):
            dists[r, j] = np.mean([abs(a - b) for e_n, e_l in zip(
                compress(runs[n].states, scored), compress(lim.states, scored))
                for a, b in zip(e_n, e_l)])
    mean_d = dists.mean(axis=0)
    se_d = dists.std(axis=0, ddof=1) / math.sqrt(reps) if reps > 1 else np.zeros(len(keys))
    rows = [{"n": n, "distance": float(mean_d[j]), "se": float(se_d[j])}
            for j, n in enumerate(keys)]
    non_inc, ratio, passed = decreasing_verdict([r["distance"] for r in rows],
                                                [r["se"] for r in rows])
    return RobustnessReport(rows=rows, non_increasing=non_inc, ratio=ratio, passed=passed,
                            limit_states=limit_states)

