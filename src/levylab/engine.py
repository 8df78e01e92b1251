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
A block builds one generator and re-keys it (rng.rekey) to each particle's
three streams in turn; a stream is still a pure function of its four labels,
so block partitioning and worker counts cannot change any drawn number.

Every simulation runs through one block runner: each particle block's
randomness is drawn once (_prepare_block) and every coefficient set of a
family marches over that draw; an ensemble is a family with no members.
With several workers the blocks go to one process pool, and each worker
rebuilds the coefficient sets from the family's registry config, because
coefficient closures do not pickle.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .coefficients import (CoefficientFamily, CoefficientSet, family_from_config,
                           require_linear_growth)
from .measures import (JumpEvents, LevyConfigError, LevyMeasure,
                       TruncationConfig, discarded_second_moment,
                       sample_jump_events)


class SimulationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# initial-condition samplers
# ---------------------------------------------------------------------------

class InitialLaw:
    """Initial distribution: one draw per particle from its own stream.

    density_sup is an optional declared bound on the Lebesgue density; the
    engine cannot verify it and experiments record it as an assumption.
    """

    dim: int
    density_sup: float | None = None

    def sample_one(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class PointMass(InitialLaw):
    def __init__(self, x0):
        self.x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        self.dim = self.x0.shape[0]
        self.density_sup = None

    def sample_one(self, rng):
        return self.x0


class GaussianLaw(InitialLaw):
    def __init__(self, mean, std, density_sup=None):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        self.std = np.broadcast_to(np.asarray(std, dtype=float), self.mean.shape)
        self.dim = self.mean.shape[0]
        if density_sup is None:
            density_sup = float(np.prod(1.0 / (math.sqrt(2 * math.pi) * self.std)))
        self.density_sup = density_sup

    def sample_one(self, rng):
        return self.mean + self.std * rng.standard_normal(self.dim)


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
    "gaussian": lambda p: GaussianLaw(p["mean"], p["std"], p.get("density_sup")),
    "uniform_ball": lambda p: UniformBallLaw(p["center"], p["radius"]),
    "atomic": lambda p: AtomicLaw(p["points"], p["weights"]),
}


def initial_law_from_config(cfg: dict) -> InitialLaw:
    return INITIAL_LAW_REGISTRY[cfg["name"]](cfg.get("params", {}))


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


@dataclass
class EnsembleLaw:
    """Weighted particle cloud representing a law on R^d at one time."""

    points: np.ndarray
    weights: np.ndarray
    t: float

    @classmethod
    def equal_weight(cls, points, t):
        points = np.atleast_2d(points)
        n = points.shape[0]
        return cls(points=points, weights=np.full(n, 1.0 / n), t=t)

    @property
    def dim(self):
        return self.points.shape[1]

    def mean(self, fn) -> float:
        return float(self.weights @ fn(self.points))


class PathEnsemble:
    """Ensemble of paths recorded on a shared base grid.

    values has shape (n, M+1, d); per-particle jump events are kept for
    diagnostics.  Values at a grid time are post-jump (cadlag convention).
    """

    def __init__(self, times, values, jump_times, jump_marks, seed=None,
                 trunc_report=None):
        self.times = np.asarray(times, dtype=float)
        self.values = values
        self.jump_times = jump_times
        self.jump_marks = jump_marks
        self.seed = seed
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

    def marginal(self, t: float) -> EnsembleLaw:
        if self.n_particles == 0:
            raise SimulationError("empty ensemble has no marginal law")
        i = self.index_at(t)
        return EnsembleLaw.equal_weight(self.values[:, i, :], float(self.times[i]))


# ---------------------------------------------------------------------------
# the block march
# ---------------------------------------------------------------------------

def make_base_grid(T: float, grid_step: float, extra_times=()) -> np.ndarray:
    n_cells = max(1, int(round(T / grid_step)))
    grid = np.linspace(0.0, T, n_cells + 1)
    if len(extra_times):
        extra = np.asarray(extra_times, dtype=float)
        extra = extra[(extra > 0) & (extra < T)]
        grid = np.unique(np.concatenate([grid, extra]))
    return grid


@dataclass
class _BlockInputs:
    """Pre-drawn randomness for one block of particles, reusable across a family.

    particles are the global indices of the block's slots, drawn from the
    (seed, namespace) streams.  Every array is read-only: marches share one
    draw, so a write into it would silently couple them.
    """

    particles: np.ndarray
    seed: int
    namespace: int
    x0: np.ndarray
    ev_particle: np.ndarray     # events sorted by (cell, particle, time)
    ev_time: np.ndarray
    ev_mark: np.ndarray
    ev_cell: np.ndarray
    noise: np.ndarray           # Brownian rows, particle-major
    offsets: np.ndarray         # first noise row of each particle
    jump_times: list
    jump_marks: list


def _prepare_block(driver: LevyMeasure, trunc: TruncationConfig, mu0: InitialLaw,
                   grid: np.ndarray, m: int, particles, seed: int,
                   namespace: int) -> _BlockInputs:
    T = float(grid[-1])
    floor = trunc.sampling_floor
    sampled_mass = driver.mass(floor, math.inf)
    if not math.isfinite(sampled_mass):
        raise LevyConfigError(
            "driver has infinite activity above the sampling floor; use "
            "discard_below_eps with a positive eps")
    B = len(particles)
    x0 = np.empty((B, mu0.dim))
    jt_list, jm_list = [], []
    # one generator per block, re-keyed to each particle's streams
    gen = rngmod.stream(seed, rngmod.INIT, 0, namespace)
    for j, p in enumerate(particles):
        x0[j] = mu0.sample_one(rngmod.rekey(gen, seed, rngmod.INIT, p, namespace))
        if sampled_mass > 0.0:
            ev = sample_jump_events(driver, (floor, math.inf), T,
                                    rngmod.rekey(gen, seed, rngmod.DRIVER, p, namespace))
        else:
            ev = JumpEvents.empty(driver.dim)
        jt_list.append(ev.times)
        jm_list.append(ev.marks)
    # flatten events; a jump off the grid adds one row to its particle's cells
    ev_p = np.repeat(np.arange(B, dtype=np.int64), [len(t) for t in jt_list])
    ev_t = np.concatenate([np.empty(0), *jt_list])
    ev_z = np.vstack([np.empty((0, driver.dim)), *jm_list])
    at = np.searchsorted(grid, ev_t, side="left")
    on_grid = grid[np.minimum(at, grid.size - 1)] == ev_t
    interior = np.bincount(ev_p[~on_grid], minlength=B)
    ev_c = at - 1
    rows = (grid.size - 1) + interior
    offsets = np.zeros(B + 1, dtype=np.int64)
    np.cumsum(rows, out=offsets[1:])
    noise = np.empty((int(offsets[-1]), m))
    for j, p in enumerate(particles):
        rngmod.rekey(gen, seed, rngmod.BROWNIAN, p, namespace).standard_normal(
            out=noise[offsets[j]:offsets[j + 1]])
    # events sorted by (cell, particle, time)
    order = np.lexsort((ev_t, ev_p, ev_c))
    ev_p, ev_t, ev_z, ev_c = ev_p[order], ev_t[order], ev_z[order], ev_c[order]
    ids = np.array(particles, dtype=np.int64)
    for a in [ids, x0, ev_p, ev_t, ev_z, ev_c, noise, offsets] + jt_list + jm_list:
        a.flags.writeable = False
    return _BlockInputs(ids, seed, namespace, x0, ev_p, ev_t, ev_z, ev_c, noise,
                        offsets[:-1], jt_list, jm_list)


class BlockMarch:
    """Marches one block of particles cell by cell over a shared base grid.

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
        self.x = inputs.x0.copy()
        self.cursor = np.zeros(len(inputs.offsets), dtype=np.int64)
        self.cell = 0
        self._ev_cell_starts = np.searchsorted(inputs.ev_cell, np.arange(grid.size))
        self._has_jumps = inputs.ev_time.size > 0
        self._needs_comp = driver.mass(trunc.sampling_floor, math.inf) > 0.0

    # -- pieces ----------------------------------------------------------

    def _compensator(self, t, xs):
        """Drift of the compensated jump band: -f * int_{floor<|z|<=l/|f|} z nu(dz)."""
        if not self._needs_comp:
            return 0.0
        fv = self.coeffs.f(t, xs)
        out = np.zeros_like(xs)
        nz = fv != 0.0
        if nz.any():
            r_hi = self.trunc.level / np.abs(fv[nz])
            fm = self.driver.first_moment_upper(self.trunc.sampling_floor, r_hi)
            out[nz] = -fv[nz, None] * fm
        return out

    def _euler(self, idx, t0, dt):
        xs = self.x[idx]
        rows = self.inp.offsets[idx] + self.cursor[idx]
        dw = self.inp.noise[rows] * np.sqrt(np.asarray(dt))[..., None]
        bv = self.coeffs.b(t0, xs)
        sv = self.coeffs.sigma(t0, xs)
        comp = self._compensator(t0, xs)
        dtc = np.asarray(dt)[..., None]
        self.x[idx] = xs + (bv + comp) * dtc + np.einsum("kim,km->ki", sv, dw)
        self.cursor[idx] += 1

    def _apply_jumps(self, idx, t, marks):
        fv = self.coeffs.f(t, self.x[idx])
        self.x[idx] = self.x[idx] + fv[:, None] * marks

    # -- one cell --------------------------------------------------------

    def advance_cell(self, i: int):
        grid = self.grid
        t0, t1 = grid[i], grid[i + 1]
        e0, e1 = self._ev_cell_starts[i], self._ev_cell_starts[i + 1]
        if e0 == e1:
            self._euler(slice(None), float(t0), t1 - t0)
        else:
            inp = self.inp
            jp = inp.ev_particle[e0:e1]
            jt = inp.ev_time[e0:e1]
            jz = inp.ev_mark[e0:e1]
            involved, counts = np.unique(jp, return_counts=True)
            quiet = np.ones(self.x.shape[0], dtype=bool)
            quiet[involved] = False
            qi = np.nonzero(quiet)[0]
            if qi.size:
                self._euler(qi, float(t0), t1 - t0)
            # events are contiguous per particle and time-ordered within it
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            cur_t = np.full(involved.size, float(t0))
            for k in range(int(counts.max())):
                has = counts > k
                rows = starts[has] + k
                pk = involved[has]
                tk = jt[rows]
                self._euler(pk, cur_t[has], tk - cur_t[has])
                self._apply_jumps(pk, tk, jz[rows])
                cur_t[has] = tk
            last = cur_t < t1
            if last.any():
                pk = involved[last]
                self._euler(pk, cur_t[last], t1 - cur_t[last])
        if not np.all(np.isfinite(self.x)):
            bad = np.nonzero(~np.isfinite(self.x).all(axis=1))[0][0]
            inp = self.inp
            raise SimulationError(
                f"non-finite state first reached at t={float(t1):.6g} "
                f"(particle {int(inp.particles[bad])}, seed {inp.seed}, "
                f"namespace {inp.namespace})")
        self.cell = i + 1

    def run(self, out=None):
        if out is None:
            out = np.empty((self.x.shape[0], self.grid.size, self.x.shape[1]))
        out[:, 0] = self.x
        for i in range(self.grid.size - 1):
            self.advance_cell(i)
            out[:, i + 1] = self.x
        return out


# ---------------------------------------------------------------------------
# public simulation entry points
# ---------------------------------------------------------------------------

DEFAULT_BLOCK = 4096


def _run_block(sets, driver, trunc, mu0, grid, block, seed, namespace, out):
    """Draw one block's randomness once; every coefficient set marches over it.

    Set k's (B, M+1, d) values are written into out[k], one set at a time.
    Returns the block's jump times and marks.
    """
    inputs = _prepare_block(driver, trunc, mu0, grid, sets[0].m, block, seed, namespace)
    for cs, vals in zip(sets, out):
        BlockMarch(cs, driver, trunc, grid, inputs).run(vals)
    return inputs.jump_times, inputs.jump_marks


def _pool_block(args):
    """Worker task: one block, with the sets rebuilt from the family config."""
    config, driver, trunc, mu0, grid, block, *rest = args
    sets = family_from_config(config).all_sets()
    out = np.empty((len(sets), len(block), grid.size, sets[0].d))
    return out, *_run_block(sets, driver, trunc, mu0, grid, block, *rest, out)


def _simulate_blocks(family: CoefficientFamily, driver, trunc, mu0, n_particles,
                     grid_step, T, seed, namespace, extra_times, block_size, workers):
    """One PathEnsemble per set of family.all_sets(), block by block."""
    grid = make_base_grid(T, grid_step, extra_times)
    sets = family.all_sets()
    values = [np.empty((n_particles, grid.size, family.limit.d)) for _ in sets]
    jump_times, jump_marks = [], []
    ranges = [range(lo, min(lo + block_size, n_particles))
              for lo in range(0, n_particles, block_size)]
    if workers > 1 and family.config is not None:
        tasks = [(family.config, driver, trunc, mu0, grid, r, seed, namespace)
                 for r in ranges]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for r, (out, jt, jm) in zip(ranges, pool.map(_pool_block, tasks)):
                for v, vals in zip(values, out):
                    v[r.start:r.stop] = vals
                jump_times += jt
                jump_marks += jm
    else:
        for r in ranges:
            jt, jm = _run_block(sets, driver, trunc, mu0, grid, r, seed, namespace,
                                [v[r.start:r.stop] for v in values])
            jump_times += jt
            jump_marks += jm
    report = {"sampling_floor": trunc.sampling_floor,
              "discarded_second_moment": discarded_second_moment(driver, trunc)}
    return [PathEnsemble(grid, v, jump_times, jump_marks, seed=seed,
                         trunc_report=report) for v in values]


def simulate_ensemble(coeffs: CoefficientSet, driver: LevyMeasure,
                      trunc: TruncationConfig, mu0: InitialLaw, n_particles: int,
                      grid_step: float, T: float, seed: int,
                      namespace: int = rngmod.SIGNAL, extra_times=(),
                      workers: int = 1, block_size: int = DEFAULT_BLOCK,
                      validate: bool = True) -> PathEnsemble:
    """Simulate n_particles independent paths on a uniform grid of step h.

    The ensemble runs through the block runner as a family with no members.
    With workers > 1 the blocks go to a process pool when coeffs carries a
    registry config, which the workers rebuild the coefficients from;
    hand-built coefficients (config None) run in this process.  Results are
    identical for any worker count and block size, because every particle
    owns its streams.
    """
    if validate and coeffs.growth_bound is not None:
        require_linear_growth(coeffs)
    config = None if coeffs.config is None else {"base": coeffs.config, "schedule": []}
    family = CoefficientFamily(limit=coeffs, config=config)
    return _simulate_blocks(family, driver, trunc, mu0, n_particles, grid_step, T,
                            seed, namespace, extra_times, block_size, workers)[-1]


def simulate_path(coeffs: CoefficientSet, driver: LevyMeasure,
                  trunc: TruncationConfig, x0, grid_step: float, T: float,
                  seed: int, particle_index: int = 0,
                  namespace: int = rngmod.SIGNAL, extra_times=()) -> CadlagPath:
    """One path, on its own grid with the driver jump times inserted."""
    if coeffs.growth_bound is not None:
        require_linear_growth(coeffs)
    mu0 = x0 if isinstance(x0, InitialLaw) else PointMass(x0)
    base = _prepare_block(driver, trunc, mu0, make_base_grid(T, grid_step, extra_times),
                          coeffs.m, [particle_index], seed, namespace)
    jumps = JumpEvents(base.jump_times[0], base.jump_marks[0])
    # on the grid with the jumps inserted the particle consumes the same rows
    grid = make_base_grid(T, grid_step, [*extra_times, *jumps.times])
    inputs = _prepare_block(driver, trunc, mu0, grid, coeffs.m, [particle_index],
                            seed, namespace)
    values = BlockMarch(coeffs, driver, trunc, grid, inputs).run()
    return CadlagPath(grid, values[0], jumps)


def simulate_coupled_family(family: CoefficientFamily, driver: LevyMeasure,
                            trunc: TruncationConfig, mu0: InitialLaw,
                            n_particles: int, grid_step: float, T: float,
                            seed: int, namespace: int = rngmod.SIGNAL,
                            extra_times=(), workers: int = 1,
                            block_size: int = DEFAULT_BLOCK,
                            validate: bool = True):
    """Simulate every family member and the limit under the same randomness.

    For each particle index the same initial draw, the same driver atoms and
    the same Brownian rows feed every member; only coefficients differ.
    Workers are used as in simulate_ensemble, keyed on family.config.
    Returns (members: dict n -> PathEnsemble, limit: PathEnsemble).
    """
    if validate:
        for cs in family.all_sets():
            require_linear_growth(cs)
    ensembles = _simulate_blocks(family, driver, trunc, mu0, n_particles, grid_step,
                                 T, seed, namespace, extra_times, block_size, workers)
    return dict(zip(family.members, ensembles)), ensembles[-1]
