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
on a radial nu2, and a fixed-node Monte Carlo quadrature otherwise.

Coupling for the robustness experiment: family members share the Brownian
observation noise, the proposal atoms, and one thinning uniform per atom
(member n accepts iff the shared uniform is below lambda(X^n, u)).  Each
rep is one filter_run over sequences of coefficient sets and records: the
filter particles' randomness (initial points, Brownian rows, driver jumps)
is drawn once and shared read-only by the limit filter and every member's
filter, which march one at a time as the caller takes their results, so
runs with identical coefficients are bitwise identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import rng as rngmod
from .coefficients import CoefficientSet
from .engine import (BlockMarch, InitialLaw, _prepare_block, make_base_grid,
                     simulate_coupled_family)
from .manifests import _is_finite
from .measures import (AtomicLevyMeasure, JumpEvents, LevyMeasure, Radial1DMeasure,
                       TruncationConfig, sample_jump_events)


class FilterError(RuntimeError):
    pass


def _logsumexp(v):
    m = float(np.max(v))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(v - m))))


# ---------------------------------------------------------------------------
# observation model
# ---------------------------------------------------------------------------

# caps the (particles x nodes) matrix of one lambda evaluation in a band
# quadrature, so peak memory does not grow with the number of nodes
_SLICE_ENTRIES = 1 << 16

# master seed of the Monte Carlo band-quadrature nodes
_QUAD_SEED = 77


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

    lam is vectorized over both arguments: for n states x (n, d) and q marks
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
    n_quad: int = 2000

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
            m = self.nu2.mass(*r)
            if not math.isfinite(m):
                raise FilterError(
                    f"nu2 must have finite mass outside the band; region {r} fails")
        sm = self.nu2.second_moment(lo, hi)
        if not math.isfinite(sm):
            raise FilterError("nu2 must have a finite second moment on the band")
        return {"outside_mass": sum(self.nu2.mass(*r) for r in self.outside_regions()),
                "band_second_moment": sm}

    def _quad_nodes(self):
        """Fixed nodes and weights for integrals of g(x, u) over the observed
        band (band_floor(), hi]."""
        if self._quad is None:
            lo, hi = self.band_floor(), self.u0_region[1]
            if isinstance(self.nu2, AtomicLevyMeasure):
                radii = np.linalg.norm(self.nu2.atoms, axis=1)
                sel = (radii > lo) & (radii <= hi)
                self._quad = (self.nu2.atoms[sel], self.nu2.masses[sel])
            else:
                mass = self.nu2.mass(lo, hi)
                if not math.isfinite(mass):
                    raise FilterError(
                        "band quadrature needs finite nu2 mass on the band; "
                        "set eps_obs > 0 for infinite-activity nu2")
                rng = rngmod.stream(_QUAD_SEED, rngmod.QUADRATURE,
                                    namespace=rngmod.OBSERVATION)
                nodes = (self.nu2.sample(rng, self.n_quad, lo, hi)
                         if mass > 0 else np.empty((0, self.nu2.dim)))
                w = np.full(nodes.shape[0], mass / max(nodes.shape[0], 1))
                self._quad = (nodes, w)
        return self._quad

    def _separable(self):
        """(m, A0, G0, rho, nodes), computed once, for a lam with a mark profile
        Lbar on a radial nu2, else None: m = nu2(band), A0 and G0 the band
        integrals of rho = Lbar / Lbar(0) and of log rho, rho at the nodes;
        the band is the observed one, (band_floor(), hi]."""
        profile = getattr(self.lam, "mark_profile", None)
        if profile is None or not isinstance(self.nu2, Radial1DMeasure):
            return None
        if self._sep is None:
            lo, hi = self.band_floor(), self.u0_region[1]
            (nodes, _), p0 = self._quad_nodes(), profile(0.0)
            self._sep = (self.nu2.mass(lo, hi),
                         self.nu2.radial_integral(lambda r: profile(r) / p0, lo, hi),
                         self.nu2.radial_integral(lambda r: np.log(profile(r) / p0), lo, hi),
                         profile(np.abs(nodes[:, 0])) / p0, nodes)
        return self._sep

    def band_integral(self, x: np.ndarray, integrand: str) -> np.ndarray:
        """Integral over the observed band of a function of lambda(x, u) against nu2.

        integrand: 'one_minus_lambda' or 'log_lambda'.  Exact for atomic nu2
        (a sum over the atoms) and for a separable lambda on a radial nu2:
        m - c A0 and m log c + G0 with c = lambda(x, 0) (see _separable).
        Otherwise a fixed-node Monte Carlo quadrature.
        """
        sep = self._separable()
        if sep is None:
            term = (lambda lamv: 1.0 - lamv) if integrand == "one_minus_lambda" else np.log
            return self._band_sum(term, x)
        mass, a0, g0, rho, nodes = sep
        x = np.atleast_2d(x)
        c = self._lambda(x, np.zeros((1, self.nu2.dim)))        # (n, 1)
        if c.size and rho.size:
            # lambda = c rho: its extremes over x and the nodes are c's times rho's
            for i, j in ((c.argmin(), rho.argmin()), (c.argmax(), rho.argmax())):
                if not 0.0 < c[i, 0] * rho[j] < 1.0:
                    self._lambda(x[[i]], nodes[[j]])    # raises there, naming x and u
        col = mass - c * a0 if integrand == "one_minus_lambda" else mass * np.log(c) + g0
        return col[:, 0]

    def _band_sum(self, term, x):
        """sum over the band nodes u of w(u) * term(lambda(x, u)), node by node
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
            vals = term(self._lambda(x, nodes[a:a + step]))
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

def sensor_from_config(cfg: dict):
    name, params = cfg["name"], cfg.get("params", {})
    if name == "identity":
        return lambda x: np.atleast_2d(x)
    if name == "zero":
        k = int(params.get("k", 1))
        return lambda x: np.zeros((np.atleast_2d(x).shape[0], k))
    if name == "tanh":
        scale = float(params.get("scale", 1.0))
        return lambda x: np.tanh(scale * np.atleast_2d(x))
    if name == "linear":
        H = np.atleast_2d(np.asarray(params["H"], dtype=float))
        return lambda x: np.atleast_2d(x) @ H.T
    raise FilterError(f"unknown sensor {name!r}")


def lambda_from_config(cfg: dict):
    """Returns (lam, floor, iota): lam carries its mark_profile, floor is a
    positive lower envelope of lam in the mark and iota its infimum."""
    # models keep only lam; the triple stays because the benchmark's layer trace unpacks it
    name, params = cfg["name"], cfg.get("params", {})
    if name == "constant":
        c = float(params.get("c", 0.5))
        if not 0 < c < 1:
            raise FilterError("constant lambda needs c in (0,1)")

        def lam(x, U):
            return np.full((np.atleast_2d(x).shape[0], np.atleast_2d(U).shape[0]), c)

        lam.mark_profile = np.ones_like
        return lam, (lambda u: np.full(np.atleast_2d(u).shape[0], 0.5 * c)), 0.5 * c
    if name == "state_logistic":
        # lambda(x, u) = Lbar(u) / (1 + exp(-|x|)), in (Lbar/2, Lbar)
        base = float(params.get("base", 0.8))
        decay = float(params.get("decay", 0.0))
        if not 0 < base < 1:
            raise FilterError("state_logistic needs base in (0,1)")

        def lbar(u):
            u = np.atleast_2d(u)
            return base * np.exp(-decay * np.linalg.norm(u, axis=1))

        def lam(x, U):
            s = 1.0 / (1.0 + np.exp(-np.linalg.norm(np.atleast_2d(x), axis=1)))
            return np.outer(s, lbar(U))

        lam.mark_profile = lambda r: base * np.exp(-decay * r)
        return lam, (lambda u: 0.49 * lbar(u)), None
    raise FilterError(f"unknown lambda {name!r}")


def observation_model_from_config(cfg: dict) -> ObservationModel:
    from .measures import measure_from_config

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
    """What the filter is allowed to see, plus a truth link for diagnostics.

    cont_increments are the per-cell continuous-part increments
    (Brownian plus sensor drift); the band and big jump events are the
    accepted atoms.  truth_link is never read by the filter.
    """

    grid: np.ndarray
    cont_increments: np.ndarray
    events_band: JumpEvents
    events_big: JumpEvents
    truth_link: str = ""


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

    def record_for(self, signal_values: np.ndarray, truth_link: str = "") -> ObservationRecord:
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
            events_big=JumpEvents(self.prop_times[big], self.prop_marks[big]),
            truth_link=truth_link)


def simulate_observation(signal_path, model: ObservationModel, T: float,
                         grid_step: float, seed: int,
                         truth_link: str = "") -> ObservationRecord:
    """Observation record for a signal given as a CadlagPath-like object.

    The signal must be defined on (at least) the setup grid; values are
    taken by left lookup.
    """
    setup = ObservationSetup(model, T, grid_step, seed)
    vals = np.vstack([signal_path.value_at(float(t)) for t in setup.grid])
    return setup.record_for(vals, truth_link)


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
    return {int(j): ev.marks[idx == j] for j in np.unique(idx)}


def _cell_loglik(model: ObservationModel, x: np.ndarray, cont: np.ndarray,
                 dt: float) -> np.ndarray:
    """The continuous and compensator terms of log S over one cell of length
    dt, for states x at its left end and continuous increment cont."""
    hv = model.h(x)
    return (hv @ cont - 0.5 * np.sum(hv * hv, axis=1) * dt
            + model.band_integral(x, "one_minus_lambda") * dt)


def loglik_cell_increments(values: np.ndarray, record: ObservationRecord,
                           model: ObservationModel) -> np.ndarray:
    """Per-cell increments of log S_t for every particle, shape (n, M).

    values must be aligned with record.grid (particle paths recorded at its
    points).  Band events at a grid point t contribute log lambda(X_t-, u)
    to the cell ending at t.
    """
    grid = record.grid
    n, M1, d = values.shape
    if M1 != grid.size:
        raise FilterError("particle values are not aligned with the record grid")
    events = _band_events_by_index(record)
    dts = np.diff(grid)
    out = np.zeros((n, dts.size))
    for i in range(dts.size):
        out[:, i] = _cell_loglik(model, values[:, i, :], record.cont_increments[i],
                                 dts[i])
    for j, marks in events.items():
        out[:, j - 1] = _add_in_order(out[:, j - 1],
                                      np.log(model._lambda(values[:, j, :], marks)))
    return out


def log_likelihood(path_values: np.ndarray, record: ObservationRecord,
                   model: ObservationModel) -> float:
    """log S_T for one particle path aligned with the record grid."""
    inc = loglik_cell_increments(path_values[None, :, :], record, model)
    return float(inc.sum())


def compensated_log_jump_statistic(values: np.ndarray, record: ObservationRecord,
                                   model: ObservationModel) -> np.ndarray:
    """Running compensated band statistic per grid time, shape (n, M+1):
    sum of log lambda over band events minus its reference compensator."""
    grid = record.grid
    n = values.shape[0]
    out = np.zeros((n, grid.size))
    dts = np.diff(grid)
    for i in range(dts.size):
        out[:, i + 1] = out[:, i] - model.band_integral(values[:, i, :],
                                                        "log_lambda") * dts[i]
    for j, marks in _band_events_by_index(record).items():
        # each event's term moves every later column, one event at a time
        for logv in np.log(model._lambda(values[:, j, :], marks)).T:
            out[:, j:] += logv[:, None]
    return out


# ---------------------------------------------------------------------------
# the particle filter
# ---------------------------------------------------------------------------

@dataclass
class FilterState:
    t: float
    particles: np.ndarray
    log_weights: np.ndarray
    log_normalizer: float
    ess: float

    def estimate(self, fn) -> float:
        w = self.normalized_weights()
        return float(w @ fn(self.particles))

    def normalized_weights(self) -> np.ndarray:
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
    checkpoint_times: np.ndarray
    resampled_at: list = field(default_factory=list)


def _default_checkpoints(grid: np.ndarray) -> np.ndarray:
    """filter_run's checkpoints when none are given: 21 grid points, evenly
    spaced by index and including both ends (all points on a shorter grid)."""
    return grid[np.linspace(0, grid.size - 1, min(21, grid.size)).astype(int)]


def filter_run(model: ObservationModel, coeffs, driver: LevyMeasure,
               trunc: TruncationConfig, mu0: InitialLaw, record, n_particles: int,
               seed: int, ess_threshold: float | None = None, checkpoints=None):
    """Reference-measure particle filter against one observation record.

    Particles evolve under the signal law on the record grid (so the band
    event times are cell boundaries); weights accumulate the per-cell
    log-likelihood increments.  Optional multinomial resampling fires when
    ESS < ess_threshold * n (disabled when ess_threshold is None: exactness
    tests need weight paths uncontaminated by resampling noise).

    One CoefficientSet and one record give one FilterResult.  Equal-length
    sequences of sets and of records on one grid give an iterator of
    FilterResults, in order: the particle randomness is drawn once, now,
    and each filter marches over it, with its own resample stream, only
    when the iterator is advanced.  Each result equals a filter_run of its
    set and record alone, bit for bit.
    """
    many = not isinstance(coeffs, CoefficientSet)
    sets, records = (list(coeffs), list(record)) if many else ([coeffs], [record])
    if len(sets) != len(records) or not sets:
        raise FilterError(f"{len(sets)} coefficient sets for {len(records)} records")
    grid = records[0].grid
    if any(not np.array_equal(rec.grid, grid) for rec in records[1:]):
        raise FilterError("the records lie on different grids")
    inputs = _prepare_block(driver, trunc, mu0, grid, sets[0].m,
                            range(n_particles), seed, rngmod.FILTER)
    results = (_march_filter(model, cs, driver, trunc, rec, inputs, ess_threshold,
                             checkpoints) for cs, rec in zip(sets, records))
    return results if many else next(results)


def _march_filter(model: ObservationModel, coeffs: CoefficientSet,
                  driver: LevyMeasure, trunc: TruncationConfig,
                  record: ObservationRecord, inputs, ess_threshold,
                  checkpoints) -> FilterResult:
    """The filter of filter_run over particle randomness already drawn on
    record.grid; inputs is only read, so one draw can feed many filters."""
    grid = record.grid
    march = BlockMarch(coeffs, driver, trunc, grid, inputs)
    n_particles = march.x.shape[0]
    rng_rs = rngmod.stream(inputs.seed, rngmod.RESAMPLE, namespace=rngmod.FILTER)
    checkpoints = np.asarray(_default_checkpoints(grid) if checkpoints is None
                             else checkpoints, dtype=float)
    dts = np.diff(grid)
    lw = np.zeros(n_particles)
    log_norm = 0.0
    events = _band_events_by_index(record)
    states = []
    resampled_at = []

    def snapshot(t):
        ln = log_norm + _logsumexp(lw) - math.log(n_particles)
        if not math.isfinite(ln):
            raise FilterError(f"filter collapsed: all weights vanished by t={t:.6g}")
        w = np.exp(lw - np.max(lw))
        ess = float(w.sum() ** 2 / np.sum(w * w))
        states.append(FilterState(t=float(t), particles=march.x.copy(),
                                  log_weights=lw.copy(), log_normalizer=ln,
                                  ess=ess))

    ck = 0
    if ck < checkpoints.size and abs(grid[0] - checkpoints[ck]) < 1e-12:
        snapshot(grid[0])
        ck += 1
    for i in range(dts.size):
        lw += _cell_loglik(model, march.x, record.cont_increments[i], dts[i])
        march.advance_cell(i)
        if i + 1 in events:
            lw[:] = _add_in_order(lw, np.log(model._lambda(march.x, events[i + 1])))
        if not np.any(np.isfinite(lw)):
            raise FilterError(f"filter collapsed: all weights -inf at t={grid[i+1]:.6g}")
        if ess_threshold is not None:
            w = np.exp(lw - np.max(lw))
            ess = float(w.sum() ** 2 / np.sum(w * w))
            if ess < ess_threshold * n_particles:
                probs = w / w.sum()
                parents = rng_rs.choice(n_particles, size=n_particles, p=probs)
                march.x[:] = march.x[parents]
                log_norm += _logsumexp(lw) - math.log(n_particles)
                lw[:] = 0.0
                resampled_at.append(float(grid[i + 1]))
        while ck < checkpoints.size and grid[i + 1] >= checkpoints[ck] - 1e-12:
            snapshot(grid[i + 1])
            ck += 1
    return FilterResult(states=states, checkpoint_times=checkpoints,
                        resampled_at=resampled_at)


# ---------------------------------------------------------------------------
# the robustness experiment
# ---------------------------------------------------------------------------

@dataclass
class RobustnessReport:
    rows: list             # dicts: n, distance, se
    checkpoint_times: np.ndarray
    non_increasing: bool
    ratio: float | None
    passed: bool
    limit_states: list     # rep 0's limit filter at filter_run's default checkpoints


def robustness_experiment(family, model: ObservationModel, driver, trunc,
                          mu0, schedule, n_particles: int, h: float, T: float,
                          seed: int, phis=None, n_checkpoints: int = 10,
                          reps: int = 3,
                          ess_threshold: float | None = None) -> RobustnessReport:
    """Distance table n -> D(pi^n, pi) under fully coupled randomness.

    D averages |pi^n_t(phi) - pi_t(phi)| over checkpoint times and a test
    dictionary; signals, observations (shared W / proposals / thinning
    uniforms) and filter particles are all coupled across members, so a
    member equal to the limit reproduces it bitwise and D = 0.  Each rep is
    one filter_run over the limit and every member: the particle randomness
    is drawn once and every filter marches over it with its own resample
    stream.  Rep 0's filters also snapshot at filter_run's default
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
    keys = sorted(int(n) for n in schedule)
    dists = np.zeros((reps, len(keys)))
    checkpoints = np.linspace(T / n_checkpoints, T, n_checkpoints)
    for r in range(reps):
        rep_seed = seed + 1000 * r
        setup = ObservationSetup(model, T, h, rep_seed)
        sig_members, sig_limit = simulate_coupled_family(
            family, driver, trunc, mu0, 1, h, T, rep_seed,
            extra_times=setup.prop_times, validate=(r == 0))
        records = [setup.record_for(sig_limit.values[0], "limit")] + [
            setup.record_for(sig_members[n].values[0], f"member-{n}") for n in keys]
        wanted = checkpoints if r else np.concatenate(
            [checkpoints, _default_checkpoints(setup.grid)])
        order = np.argsort(wanted, kind="stable")
        scored = order < checkpoints.size   # snapshots at the robustness checkpoints
        runs = filter_run(model, [family.limit] + [family.members[n] for n in keys],
                          driver, trunc, mu0, records, n_particles, rep_seed,
                          ess_threshold, wanted[order])
        states_lim = next(runs).states
        if r == 0:
            limit_states = list(compress(states_lim, ~scored))
        states_lim = list(compress(states_lim, scored))

        def distance(run_n):
            gaps = []
            for st_n, st_l in zip(compress(run_n.states, scored), states_lim):
                for _, fn in phis:
                    gaps.append(abs(st_n.estimate(fn) - st_l.estimate(fn)))
            return float(np.mean(gaps))

        # map holds no member's states while the next member marches
        dists[r] = list(map(distance, runs))
    mean_d = dists.mean(axis=0)
    se_d = dists.std(axis=0, ddof=1) / math.sqrt(reps) if reps > 1 else np.zeros(len(keys))
    rows = [{"n": n, "distance": float(mean_d[j]), "se": float(se_d[j])}
            for j, n in enumerate(keys)]
    non_inc, ratio, passed = decreasing_verdict([r["distance"] for r in rows],
                                                [r["se"] for r in rows])
    return RobustnessReport(rows=rows, checkpoint_times=checkpoints,
                            non_increasing=non_inc, ratio=ratio, passed=passed,
                            limit_states=limit_states)

