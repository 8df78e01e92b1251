"""Jump-adapted Euler simulation of coupled jump-diffusion ensembles.

The marching scheme between driver jumps is Euler with left-point
coefficients; driver jumps are applied exactly at their sampled times, which
are inserted into the time grid.  The compensated small-jump band is handled
by a state-dependent drift correction: the dynamics compensate exactly the
jump images u = f(t, x) z with |u| <= level that the sampler produces atoms
for, so the simulated process matches the non-local generator evaluated by
the generator module, with no hidden drift mismatch.

Randomness protocol (the contract that makes runs schedule-independent):
every particle p owns three streams keyed by (seed, namespace, purpose, p) --
one for its initial condition, one for its driver atoms, one for its Brownian
rows.  Brownian rows are consumed one row per positive-length sub-interval of
the particle's own grid (base grid plus its jump times), in time order.
A block draws its particles' driver atoms in one sample_jump_events call on
their DRIVER streams (rng.Streams), whose words the numpy Philox kernel
(rng.philox4x64) computes as arrays; it re-keys one generator
(Streams.generators) only to each particle's INIT and BROWNIAN streams,
whose Gaussian draws numpy makes, and the initial law maps the block's
draws at once (InitialLaw.sample_block).  A stream is still a pure function
of its four labels, so block partitioning and worker counts cannot change
any drawn number.

Every simulation runs through one block runner: each particle block's
randomness is drawn once (_prepare_block) and the S sets of a family march
over that draw as one: one BlockMarch of S*B rows (set by set, on the
block's one schedule and noise rows) under its StackedFamily, so each cell
pays the numpy calls and schedule loop once, and gathers the block's B
noise rows once for all S sets (the filter marches a family's filters so
too).  An ensemble is a family with no members, and marches its one
set.  With several workers the blocks go to one process pool when the
limit carries its registry config: coefficient closures do not pickle, so
each worker rebuilds the limit from that config and the members from the
family's scalars; a limit with no config stays in process.  A caller that
reads only some times (record_times) gets only those grid slices: every
cell is still marched, but no other slice is stored, nor sent back from a
worker.

The draw also carries each cell's jump schedule: the slots that jump in the
cell, their sub-step start times, the jump times and marks, and each
slot's noise row in the next cell.  Every march over the draw, family
members and filters alike, reads that schedule instead of rebuilding it.
BlockMarch takes one Euler step of the whole block per cell, then replays
only the slots that jump in the cell, in every set, through their sub-steps
and jumps and writes them back.  This gives the bits of a march that steps
the quiet slots and the jumping slots apart, provided the coefficients are
row-independent (a row's value does not depend on the rows evaluated with
it), which the block-size contract already requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .coefficients import (CoefficientFamily, CoefficientSet, StackedFamily,
                           coefficients_from_config, default_probe_points,
                           require_linear_growth)
from .manifests import _check_keys, _registry_entry
from .measures import (JumpEvents, LevyConfigError, LevyMeasure,
                       TruncationConfig, discarded_second_moment,
                       sample_jump_events)


class SimulationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# initial-condition samplers
# ---------------------------------------------------------------------------

class InitialLaw:
    """Initial distribution: one draw per particle from its own stream."""

    dim: int

    def sample_one(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def sample_block(self, rngs, n: int) -> np.ndarray:
        """(n, dim) draws, row j from the j-th generator rngs yields: what
        sample_one gives on each, bit for bit."""
        x = np.empty((n, self.dim))
        for j, rng in enumerate(rngs):
            x[j] = self.sample_one(rng)
        return x


class PointMass(InitialLaw):
    def __init__(self, x0):
        self.x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        self.dim = self.x0.shape[0]

    def sample_one(self, rng):
        return self.x0


class GaussianLaw(InitialLaw):
    def __init__(self, mean, std):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        self.std = np.broadcast_to(np.asarray(std, dtype=float), self.mean.shape)
        self.dim = self.mean.shape[0]

    def sample_one(self, rng):
        return self.mean + self.std * rng.standard_normal(self.dim)

    def sample_block(self, rngs, n):
        # the normals row by row, then mean + std z on the whole block
        z = np.empty((n, self.dim))
        for j, rng in enumerate(rngs):
            rng.standard_normal(out=z[j])
        return self.mean + self.std * z


class UniformBallLaw(InitialLaw):
    def __init__(self, center, radius):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        self.dim = self.center.shape[0]

    def sample_one(self, rng):
        while True:
            v = rng.uniform(-1.0, 1.0, self.dim)
            if np.dot(v, v) <= 1.0:
                return self.center + self.radius * v


class AtomicLaw(InitialLaw):
    def __init__(self, points, weights):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        w = np.asarray(weights, dtype=float)
        self.cum = np.cumsum(w) / w.sum()
        self.dim = self.points.shape[1]

    def sample_one(self, rng):
        i = int(np.searchsorted(self.cum, rng.random(), side="right"))
        return self.points[min(i, len(self.points) - 1)]


INITIAL_LAW_REGISTRY = {
    "point": lambda p: PointMass(p["x0"]),
    "gaussian": lambda p: GaussianLaw(p["mean"], p["std"]),
    "uniform_ball": lambda p: UniformBallLaw(p["center"], p["radius"]),
    "atomic": lambda p: AtomicLaw(p["points"], p["weights"]),
}
INITIAL_LAW_PARAMS = {"point": ("x0",), "gaussian": ("mean", "std"),
                      "uniform_ball": ("center", "radius"), "atomic": ("points", "weights")}


def initial_law_from_config(cfg: dict) -> InitialLaw:
    _check_keys(cfg, ("name", "params"), LevyConfigError, "an initial law")
    build, params = _registry_entry(cfg, INITIAL_LAW_REGISTRY, INITIAL_LAW_PARAMS,
                                    LevyConfigError, "initial law")
    return build(params)


# ---------------------------------------------------------------------------
# path containers
# ---------------------------------------------------------------------------

@dataclass
class CadlagPath:
    """One path: values on a strictly increasing grid that contains its jump times."""

    grid: np.ndarray
    values: np.ndarray
    jumps: JumpEvents

    def __post_init__(self):
        if not np.all(np.diff(self.grid) > 0):
            raise SimulationError("path grid must be strictly increasing")
        if len(self.jumps) and not np.all(np.isin(self.jumps.times, self.grid)):
            raise SimulationError("jump times must be grid points")

    @property
    def dim(self):
        return self.values.shape[1]

    def value_at(self, t: float) -> np.ndarray:
        i = int(np.searchsorted(self.grid, t, side="right")) - 1
        return self.values[max(i, 0)]


class PathEnsemble:
    """Ensemble of paths recorded on a shared base grid.

    values has shape (n, len(times), d): every grid slice, or the ones a
    caller asked to record.  Values at a grid time are post-jump (cadlag
    convention).
    """

    def __init__(self, times, values, trunc_report=None):
        self.times = np.asarray(times, dtype=float)
        self.values = values
        self.trunc_report = trunc_report or {}

    @property
    def n_particles(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return self.values.shape[2]

    def index_at(self, t: float) -> int:
        if t < self.times[0] - 1e-12 or t > self.times[-1] + 1e-12:
            raise SimulationError(f"time {t} outside [{self.times[0]}, {self.times[-1]}]")
        return max(int(np.searchsorted(self.times, t, side="right")) - 1, 0)


# ---------------------------------------------------------------------------
# the block march
# ---------------------------------------------------------------------------

def sorted_unique(a) -> np.ndarray:
    """The sorted distinct values of a, as np.unique(a) gives them for
    numbers with no NaN, without the numpy.ma import np.unique makes."""
    a = np.sort(np.ravel(a))
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def linear_quantile(x, q: float) -> float:
    """np.quantile(x, q) (its default "linear" rule) for q in [0, 1] and a
    sample with no NaN, bit for bit, from a full sort: np.quantile's
    partition imports numpy.ma."""
    a = np.sort(np.ravel(x))
    v = (a.size - 1) * q
    # np.quantile's neighbours; at the top both are index -1, and the
    # weight is still taken from that index
    i = -1 if v >= a.size - 1 else math.floor(v)
    j = -1 if i == -1 else i + 1
    lo, hi, w = float(a[i]), float(a[j]), v - i
    d = hi - lo
    return hi - d * (1 - w) if w >= 0.5 else lo + d * w


def make_base_grid(T: float, grid_step: float, extra_times=()) -> np.ndarray:
    n_cells = max(1, int(round(T / grid_step)))
    grid = np.linspace(0.0, T, n_cells + 1)
    if len(extra_times):
        extra = np.asarray(extra_times, dtype=float)
        extra = extra[(extra > 0) & (extra < T)]
        grid = sorted_unique(np.concatenate([grid, extra]))
    return grid


@dataclass(frozen=True)
class _JumpSchedule:
    """The driver jumps of one block, laid out for the march, cell by cell.

    A jump is replayed as an Euler sub-step from start to time, then the
    jump by mark.  Jumps are sorted by (cell, k, slot), where k counts the
    slot's earlier jumps in the cell; a step is the jumps of one k in one
    cell, and its sub-steps read the k-th noise row after each slot's row
    for the cell.  Each (cell, slot) pair with a jump has one entry of
    slots and of next_row (the slot's noise row in the next cell), sorted
    by (cell, slot), and idx places a jump among its cell's pairs.  A pair
    whose last jump is off the grid has a tail sub-step from tail_start to
    the cell end, on the row before next_row; tail_idx places it among the
    cell's pairs.

    Cell i owns pairs[i]:pairs[i+1], tails[i]:tails[i+1] and steps
    steps[i]:steps[i+1]; step j owns jumps step_jumps[j]:step_jumps[j+1].
    """

    pairs: tuple
    tails: tuple
    steps: tuple
    step_jumps: tuple
    slots: np.ndarray
    next_row: np.ndarray
    idx: np.ndarray
    start: np.ndarray
    time: np.ndarray
    mark: np.ndarray
    tail_idx: np.ndarray
    tail_start: np.ndarray


@dataclass
class _BlockInputs:
    """Pre-drawn randomness for one block of particles, reusable across a family.

    particles are the global indices of the block's slots, drawn from the
    (seed, namespace) streams.  schedule holds the block's jumps, their only
    copy, in the order the march replays them.  Every array is read-only:
    marches share one draw, so a write into it would silently couple them.
    """

    particles: np.ndarray
    seed: int
    namespace: int
    x0: np.ndarray
    schedule: _JumpSchedule
    noise: np.ndarray           # Brownian rows, particle-major
    offsets: np.ndarray         # first noise row of each particle


def _prepare_block(driver: LevyMeasure, trunc: TruncationConfig, mu0: InitialLaw,
                   grid: np.ndarray, m: int, particles, seed: int,
                   namespace: int) -> _BlockInputs:
    """One block's randomness: its initial states, jump schedule and noise rows."""
    ids = np.array(particles, dtype=np.int64)
    B = ids.size
    # every particle's driver atoms as arrays, in (particle, time) order
    counts, ev_t, ev_z = sample_jump_events(
        driver, _driver_region(driver, trunc), float(grid[-1]),
        rngmod.Streams(seed, rngmod.DRIVER, ids, namespace))
    ev_p = np.repeat(np.arange(B, dtype=np.int64), counts)
    # a jump off the grid adds one row to its particle's cells
    at = np.searchsorted(grid, ev_t, side="left")
    inner = grid[np.minimum(at, grid.size - 1)] != ev_t
    n_cells = grid.size - 1
    offsets = np.zeros(B + 1, dtype=np.int64)
    np.cumsum(n_cells + np.bincount(ev_p[inner], minlength=B), out=offsets[1:])
    # the row of the sub-step that ends at a jump: its particle's rows, one
    # per earlier cell and one per earlier off-grid jump
    ev_row = ev_p * n_cells + (at - 1) + (np.cumsum(inner) - inner)
    # built before the noise, so its temporaries are gone before that is drawn
    schedule = _jump_schedule(grid, ev_p, ev_t, ev_z, at - 1, ev_row)
    # one generator per block, re-keyed to each particle's Gaussian streams
    gen = rngmod.stream(seed, rngmod.INIT, 0, namespace)
    init, brownian = (rngmod.Streams(seed, purpose, ids, namespace).generators(gen)
                      for purpose in (rngmod.INIT, rngmod.BROWNIAN))
    x0 = mu0.sample_block(init, B)
    noise = np.empty((int(offsets[-1]), m))
    bounds = offsets.tolist()
    for j, g in enumerate(brownian):
        g.standard_normal(out=noise[bounds[j]:bounds[j + 1]])
    arrays = [a for a in vars(schedule).values() if isinstance(a, np.ndarray)]
    for a in [ids, x0, noise, offsets, *arrays]:
        a.flags.writeable = False
    return _BlockInputs(ids, seed, namespace, x0, schedule, noise, offsets[:-1])


def _driver_region(driver: LevyMeasure, trunc: TruncationConfig) -> tuple:
    """The radii (floor, inf) whose driver atoms a path draws; their mass
    must be finite."""
    floor = trunc.sampling_floor
    if not math.isfinite(driver.mass(floor, math.inf)):
        raise LevyConfigError(
            "driver has infinite activity above the sampling floor; use "
            "discard_below_eps with a positive eps")
    return floor, math.inf


def _run_starts(*keys) -> np.ndarray:
    """True where a run of equal consecutive key tuples begins."""
    new = np.ones(keys[0].size, dtype=bool)
    new[1:] = np.any([k[1:] != k[:-1] for k in keys], axis=0)
    return new


def _jump_schedule(grid, ev_p, ev_t, ev_z, ev_c, ev_row) -> _JumpSchedule:
    """The _JumpSchedule of a block's events, given in (particle, time) order."""
    # sorted by (cell, slot, time); a pair is one slot in one cell
    order = np.lexsort((ev_t, ev_p, ev_c))
    ev_p, ev_t, ev_z, ev_c, ev_row = (a[order] for a in (ev_p, ev_t, ev_z, ev_c, ev_row))
    new = _run_starts(ev_c, ev_p)
    first, last = np.flatnonzero(new), np.flatnonzero(np.roll(new, -1))
    pair = np.cumsum(new) - 1
    k = np.arange(ev_t.size) - first[pair]
    start = np.where(new, grid[ev_c], np.roll(ev_t, 1))
    p_cell = ev_c[first]
    p_local = np.arange(first.size) - np.searchsorted(p_cell, p_cell)
    tail = ev_t[last] < grid[p_cell + 1]
    # replay order (cell, k, slot)
    by_step = np.lexsort((ev_p, k, ev_c))
    step_lo = np.flatnonzero(_run_starts(ev_c[by_step], k[by_step]))
    # each cell's first pair, tail and step, and each step's first jump
    cells = np.arange(grid.size)
    pairs, tails, steps = (tuple(np.searchsorted(key, cells).tolist())
                           for key in (p_cell, p_cell[tail], ev_c[by_step][step_lo]))
    # slot indices fit int32; the schedule lives through every march of the block
    return _JumpSchedule(
        pairs=pairs, tails=tails, steps=steps,
        step_jumps=tuple(step_lo.tolist()) + (ev_t.size,),
        slots=ev_p[first].astype(np.int32), next_row=ev_row[last] + 1 + tail,
        idx=p_local[pair[by_step]].astype(np.int32), start=start[by_step],
        time=ev_t[by_step], mark=ev_z[by_step], tail_idx=p_local[tail].astype(np.int32),
        tail_start=ev_t[last[tail]])


class BlockMarch:
    """Marches one block of particles cell by cell over a shared base grid.

    Each cell is one Euler step of the whole block over the cell.  The slots
    that jump inside the cell (the draw's schedule, shared by every march
    over it) are then replayed from their saved start states: an Euler
    sub-step to each jump, the jump, and a last sub-step to the cell end,
    each on the slot's next Brownian row.  The replayed states overwrite the
    whole-cell step of those slots, so coefficients must be row-independent
    (a row's value may not depend on the other rows passed with it), which
    the block-size contract already requires.

    coeffs is a CoefficientSet, or a StackedFamily of S sets on S*B rows of
    x, set by set, which all read the block's schedule and its noise rows.

    Used directly by the particle filter, which interleaves weight updates
    and resampling between cells; whole-path simulation just runs all cells.
    Resampling may overwrite `x` between cells: a particle slot keeps its own
    future noise and driver atoms, which is a valid branching of the dynamics.
    """

    def __init__(self, coeffs: CoefficientSet, driver: LevyMeasure,
                 trunc: TruncationConfig, grid: np.ndarray, inputs: _BlockInputs):
        self.coeffs = coeffs
        self.driver = driver
        self.trunc = trunc
        self.grid = grid
        self.inp = inputs
        self.S = coeffs.gamma.size if isinstance(coeffs, StackedFamily) else 1
        # each row's state, and each slot's noise row in this cell
        self.x = np.tile(inputs.x0, (self.S, 1))
        self.row = inputs.offsets.copy()
        # a family's whole-block increments are tiled into one buffer for the
        # march: a new S*B-row array each cell ran slower
        self._tiled = (np.empty((self.S * inputs.particles.size, inputs.noise.shape[1]))
                       if self.S > 1 else None)
        self._whole = coeffs.on_rows(None)
        self._needs_comp = driver.mass(trunc.sampling_floor, math.inf) > 0.0
        # the band moment as one row when it is the same at every radius
        # (a symmetric atomic driver): it is then never looked up per step
        self._moment = driver.constant_first_moment(trunc.sampling_floor)

    # -- pieces ----------------------------------------------------------

    def _band_moment(self, fv):
        """int_{floor<|z|<=l/|f|} z nu(dz) for each nonzero f in fv."""
        if self._moment is not None:
            return self._moment
        return self.driver.first_moment(self.trunc.sampling_floor,
                                        self.trunc.level / np.abs(fv))

    def _compensator(self, cs, t, xs):
        """Drift of the compensated jump band: -f * int_{floor<|z|<=l/|f|} z nu(dz)."""
        if not self._needs_comp:
            return 0.0
        fv = cs.f(t, xs)
        # a row with f = 0 must get +0.0: its radius l/|f| is infinite, and
        # -0 * moment would be -0.0, or NaN for an infinite first moment
        if fv.all():
            return -fv[:, None] * self._band_moment(fv)
        out = np.zeros_like(xs)
        nz = fv != 0.0
        if nz.any():
            out[nz] = -fv[nz, None] * self._band_moment(fv[nz])
        return out

    def _increments(self, dt, rows, out=None):
        """Brownian increments over dt (a scalar or one per row) on the noise
        rows `rows`, once per set, set by set (into out, if given)."""
        dw = self.inp.noise[rows]
        dw *= np.sqrt(np.asarray(dt)[..., None])
        return dw if self.S == 1 else np.concatenate((dw,) * self.S, out=out)

    def _step(self, cs, t, dt, xs, dw):
        """Euler step of the states xs under cs from t over dt, with increments dw."""
        # xs + (b + comp) dt + sigma dw, computed in place in the drift array
        out = cs.b(t, xs) + self._compensator(cs, t, xs)
        out *= np.asarray(dt)[..., None]
        out += xs
        out += np.einsum("kim,km->ki", cs.sigma(t, xs), dw)
        return out

    # -- one cell --------------------------------------------------------

    def advance_cell(self, i: int):
        t0, t1 = self.grid[i], self.grid[i + 1]
        # every set's row of a slot reads the slot's noise row, so the block's
        # increments are gathered once and tiled over the sets
        dw = self._increments(t1 - t0, self.row, self._tiled)
        x = self._step(self._whole, float(t0), t1 - t0, self.x, dw)
        self.row += 1
        sch = self.inp.schedule
        pairs = slice(sch.pairs[i], sch.pairs[i + 1])
        if pairs.start < pairs.stop:
            S, d, slots = self.S, self.x.shape[1], sch.slots[pairs]
            # a replay step's times and marks, once per set
            rep = (lambda a: a) if S == 1 else (lambda a: np.concatenate((a,) * S))
            # the jumping slots' start states in every set, (S, pairs, d)
            xs = self.x.reshape(S, -1, d)[:, slots]
            # the k-th sub-step of a slot reads the k-th row after its cell row
            rows = self.row[slots] - 1
            for k, j in enumerate(range(sch.steps[i], sch.steps[i + 1])):
                s = slice(sch.step_jumps[j], sch.step_jumps[j + 1])
                idx, start, t = sch.idx[s], rep(sch.start[s]), rep(sch.time[s])
                cs, dt = self.coeffs.on_rows(slots[idx]), t - start
                xk = self._step(cs, start, dt, xs[:, idx].reshape(-1, d),
                                self._increments(dt[:idx.size], rows[idx] + k))
                xk += cs.f(t, xk)[:, None] * rep(sch.mark[s])
                xs[:, idx] = xk.reshape(S, -1, d)
            next_row = sch.next_row[pairs]
            tails = slice(sch.tails[i], sch.tails[i + 1])
            if tails.start < tails.stop:
                idx, start = sch.tail_idx[tails], sch.tail_start[tails]
                xs[:, idx] = self._step(
                    self.coeffs.on_rows(slots[idx]), rep(start), rep(t1 - start),
                    xs[:, idx].reshape(-1, d),
                    self._increments(t1 - start, next_row[idx] - 1)).reshape(S, -1, d)
            x.reshape(S, -1, d)[:, slots] = xs      # a view of x: it splits one axis
            self.row[slots] = next_row
        self.x = x
        if not np.all(np.isfinite(x)):
            bad = np.nonzero(~np.isfinite(x).all(axis=1))[0][0]
            inp, B = self.inp, self.inp.particles.size
            # a row of a family is a particle under one of its sets
            which = f"{self.coeffs.names[bad // B]}, " if self.S > 1 else ""
            raise SimulationError(
                f"non-finite state first reached at t={float(t1):.6g} "
                f"({which}particle {int(inp.particles[bad % B])}, seed {inp.seed}, "
                f"namespace {inp.namespace})")

    def run(self, out=None, keep=None):
        """March every cell; out[..., j, :] gets the state at grid index
        keep[j] (increasing from 0; default every grid index).  out is
        (rows, len(keep), d), or (S, B, len(keep), d) for a family of S sets."""
        if keep is None:
            keep = range(self.grid.size)
        if out is None:
            out = np.empty((self.x.shape[0], len(keep), self.x.shape[1]))
        col = {int(k): j for j, k in enumerate(keep)}
        rows = out.shape[:-2] + self.x.shape[1:]
        out[..., 0, :] = self.x.reshape(rows)
        for i in range(self.grid.size - 1):
            self.advance_cell(i)
            if i + 1 in col:
                out[..., col[i + 1], :] = self.x.reshape(rows)
        return out


# ---------------------------------------------------------------------------
# public simulation entry points
# ---------------------------------------------------------------------------

DEFAULT_BLOCK = 4096


def kept_slices(grid: np.ndarray, record_times=None) -> np.ndarray:
    """Grid indices an ensemble records: every one for record_times None,
    else index 0 and, per time t, the last index whose grid time is <= t
    (PathEnsemble.index_at's rule), without duplicates."""
    if record_times is None:
        return np.arange(grid.size)
    at = np.searchsorted(grid, np.asarray(record_times, dtype=float), side="right") - 1
    return sorted_unique(np.concatenate([[0], np.maximum(at, 0)]))


def _run_block(family, driver, trunc, mu0, grid, keep, block, seed, namespace, out):
    """Draw one block's randomness once and march every set of the family
    over it, as one BlockMarch of family.stacked(B).

    Set k's (B, len(keep), d) values at the grid indices keep are written
    into out[k].
    """
    inputs = _prepare_block(driver, trunc, mu0, grid, family.limit.m, block, seed,
                            namespace)
    BlockMarch(family.stacked(len(block)), driver, trunc, grid, inputs).run(out, keep)


def ProcessPoolExecutor(max_workers):
    """concurrent.futures' process pool, imported on first use, so a run
    that does not pool never loads it (nor multiprocessing)."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=max_workers)


def _pool_block(args) -> np.ndarray:
    """Worker task: one block, with the family rebuilt from its limit's
    config and its scalars; returns the (S, B, len(keep), d) values of the
    kept slices alone."""
    (config, *scalars), driver, trunc, mu0, grid, keep, block, *rest = args
    family = CoefficientFamily(coefficients_from_config(config), *scalars)
    out = np.empty((len(family.all_sets()), len(block), len(keep), family.limit.d))
    _run_block(family, driver, trunc, mu0, grid, keep, block, *rest, out)
    return out


def _simulate_blocks(family: CoefficientFamily, driver, trunc, mu0, n_particles,
                     grid_step, T, seed, namespace, extra_times, block_size, workers,
                     record_times=None):
    """One PathEnsemble per set of family.all_sets(), block by block, holding
    the grid slices kept_slices(grid, record_times)."""
    grid = make_base_grid(T, grid_step, extra_times)
    keep = kept_slices(grid, record_times)
    values = np.empty((len(family.all_sets()), n_particles, keep.size, family.limit.d))
    # workers rebuild the family from its limit's registry config and its scalars
    if workers > 1 and family.limit.config is not None:
        # a multiple of workers of near-equal blocks, none over block_size
        k = min(-(-n_particles // (block_size * workers)) * workers, n_particles)
        ranges = [range(n_particles * i // k, n_particles * (i + 1) // k) for i in range(k)]
        params = (family.limit.config, family.schedule, family.drift, family.drift_amp,
                  family.gamma_amp, family.sigma_amp)
        tasks = [(params, driver, trunc, mu0, grid, keep, r, seed, namespace)
                 for r in ranges]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for r, out in zip(ranges, pool.map(_pool_block, tasks)):
                values[:, r.start:r.stop] = out
    else:
        for lo in range(0, n_particles, block_size):
            r = range(lo, min(lo + block_size, n_particles))
            _run_block(family, driver, trunc, mu0, grid, keep, r, seed, namespace,
                       values[:, r.start:r.stop])
    report = {"sampling_floor": trunc.sampling_floor,
              "discarded_second_moment": discarded_second_moment(driver, trunc)}
    return [PathEnsemble(grid[keep], v, trunc_report=report) for v in values]


def simulate_ensemble(coeffs: CoefficientSet, driver: LevyMeasure,
                      trunc: TruncationConfig, mu0: InitialLaw, n_particles: int,
                      grid_step: float, T: float, seed: int,
                      namespace: int = rngmod.SIGNAL, extra_times=(),
                      workers: int = 1, block_size: int = DEFAULT_BLOCK) -> PathEnsemble:
    """Simulate n_particles independent paths on a uniform grid of step h.

    The ensemble runs through the block runner as a family with no members.
    With workers > 1 the blocks go to a process pool when coeffs carries a
    registry config, which the workers rebuild the coefficients from;
    hand-built coefficients (config None) run in this process.  Results are
    identical for any worker count and block size, because every particle
    owns its streams.
    """
    if coeffs.growth_bound is not None:
        require_linear_growth(coeffs)
    return _simulate_blocks(CoefficientFamily(limit=coeffs), driver, trunc, mu0,
                            n_particles, grid_step, T, seed, namespace, extra_times,
                            block_size, workers)[-1]


def simulate_path(coeffs: CoefficientSet, driver: LevyMeasure,
                  trunc: TruncationConfig, x0, grid_step: float, T: float,
                  seed: int, particle_index: int = 0, extra_times=()) -> CadlagPath:
    """One path of the signal namespace, on its own grid with the driver jump
    times inserted."""
    if coeffs.growth_bound is not None:
        require_linear_growth(coeffs)
    mu0 = x0 if isinstance(x0, InitialLaw) else PointMass(x0)
    jumps = sample_jump_events(driver, _driver_region(driver, trunc), float(T),
                               rngmod.stream(seed, rngmod.DRIVER, particle_index))
    # on the grid with the jumps inserted the particle consumes the same rows
    grid = make_base_grid(T, grid_step, [*extra_times, *jumps.times])
    inputs = _prepare_block(driver, trunc, mu0, grid, coeffs.m, [particle_index],
                            seed, rngmod.SIGNAL)
    values = BlockMarch(coeffs, driver, trunc, grid, inputs).run()
    return CadlagPath(grid, values[0], jumps)


def simulate_coupled_family(family: CoefficientFamily, driver: LevyMeasure,
                            trunc: TruncationConfig, mu0: InitialLaw,
                            n_particles: int, grid_step: float, T: float,
                            seed: int, namespace: int = rngmod.SIGNAL,
                            extra_times=(), workers: int = 1,
                            block_size: int = DEFAULT_BLOCK, record_times=None):
    """Simulate every family member and the limit under the same randomness.

    For each particle index the same initial draw, the same driver atoms and
    the same Brownian rows feed every member; only coefficients differ.
    Workers are used as in simulate_ensemble, keyed on family.limit.config:
    a worker rebuilds the limit from it and the members from the family's
    scalars.  With record_times every ensemble holds only the grid slices
    kept_slices picks for them, the same bits as the full paths there.
    Returns (members: dict n -> PathEnsemble, limit: PathEnsemble).
    """
    # every set on one probe grid, in one stacked evaluation
    require_linear_growth(family, default_probe_points(family.limit.d, 1.0))
    ensembles = _simulate_blocks(family, driver, trunc, mu0, n_particles, grid_step,
                                 T, seed, namespace, extra_times, block_size, workers,
                                 record_times)
    return dict(zip(family.members, ensembles)), ensembles[-1]
