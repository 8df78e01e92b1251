import hashlib
import itertools
import math
import os
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import levylab as L
from levylab import rng as R
from levylab import engine
from levylab.coefficients import CoefficientError, StackedFamily, require_linear_growth
from levylab.engine import BlockMarch, SimulationError, _prepare_block, make_base_grid
from levylab.measures import (AtomicLevyMeasure, LevyConfigError, TruncationConfig,
                              sample_jump_events)

from oracles import noise_rows_used, ou_euler_chain_variance, quad_radial


def ou_coeffs(theta=1.0, sigma=math.sqrt(2.0), gamma=0.0, bound=4.0):
    return L.coefficients_from_config({
        "name": "ou", "d": 1, "m": 1,
        "params": {"theta": theta, "sigma": sigma},
        "gamma": gamma, "growth_bound": bound})


NO_JUMPS = L.zero_measure(1)
TR = TruncationConfig(level=0.5)


def drawn_events(driver, particles, seed, namespace=R.SIGNAL, T=1.0):
    """The driver atoms a block of particles draws: (counts, times, marks),
    from sample_jump_events on the block's DRIVER streams."""
    return sample_jump_events(driver, (TR.sampling_floor, math.inf), T,
                              R.Streams(seed, R.DRIVER, np.asarray(particles), namespace))


def per_particle(counts, a):
    """The flat event array a split into each particle's events."""
    return np.split(a, np.cumsum(counts)[:-1])


def schedule_events(inp):
    """Each slot's jumps as the block's schedule lays them out, in time
    order: per-slot lists of times and of marks."""
    sch = inp.schedule
    step_cell = np.repeat(np.arange(len(sch.steps) - 1), np.diff(sch.steps))
    jump_cell = np.repeat(step_cell, np.diff(sch.step_jumps))
    slot = sch.slots[np.asarray(sch.pairs, dtype=np.int64)[jump_cell] + sch.idx]
    order = np.lexsort((sch.time, slot))
    counts = np.bincount(slot, minlength=inp.x0.shape[0])
    return per_particle(counts, sch.time[order]), per_particle(counts, sch.mark[order])


class UnionRecordMarch:
    """Reference march of one block, independent of BlockMarch: the
    per-subset sub-step algorithm, recording the state after every sub-step
    (at each jump and at each cell end).

    In a cell, the slots with no jump take one Euler step together; a slot
    with jumps steps to each of its jumps in turn, jumps, and steps on to
    the cell end.  Every sub-step reads its slot's next row of inp.noise,
    counted from inp.offsets.  The compensator always masks the slots with
    f = 0.  simulate_path once marched this way on the base grid; it now
    inserts the jump times into its grid instead, and must give the same bits.
    """

    def __init__(self, coeffs, driver, trunc, grid, inp):
        self.coeffs, self.driver, self.trunc, self.grid, self.inp = \
            coeffs, driver, trunc, grid, inp
        self.x = inp.x0.copy()
        self.cursor = np.zeros(len(inp.offsets), dtype=np.int64)
        self.needs_comp = driver.mass(trunc.sampling_floor, math.inf) > 0.0
        # every jump of the block, sorted by (cell, slot, time)
        counts, t, z = drawn_events(driver, inp.particles, inp.seed, inp.namespace,
                                    float(grid[-1]))
        p = np.repeat(np.arange(counts.size), counts)
        c = np.searchsorted(grid, t, side="left") - 1
        order = np.lexsort((t, p, c))
        self.jp, self.jt, self.jz, jc = p[order], t[order], z[order], c[order]
        self.cell_starts = np.searchsorted(jc, np.arange(grid.size))
        self.records = [(float(grid[0]), self.x.copy())]

    def compensator(self, t, xs):
        if not self.needs_comp:
            return 0.0
        fv = self.coeffs.f(t, xs)
        out = np.zeros_like(xs)
        nz = fv != 0.0
        if nz.any():
            r_hi = self.trunc.level / np.abs(fv[nz])
            out[nz] = -fv[nz, None] * self.driver.first_moment(
                self.trunc.sampling_floor, r_hi)
        return out

    def euler(self, idx, t0, dt):
        xs = self.x[idx]
        rows = self.inp.offsets[idx] + self.cursor[idx]
        dw = self.inp.noise[rows] * np.sqrt(np.asarray(dt))[..., None]
        drift = self.coeffs.b(t0, xs) + self.compensator(t0, xs)
        self.x[idx] = (xs + drift * np.asarray(dt)[..., None]
                       + np.einsum("kim,km->ki", self.coeffs.sigma(t0, xs), dw))
        self.cursor[idx] += 1

    def advance_cell(self, i):
        t0, t1 = self.grid[i], self.grid[i + 1]
        e0, e1 = self.cell_starts[i], self.cell_starts[i + 1]
        jp, jt, jz = self.jp[e0:e1], self.jt[e0:e1], self.jz[e0:e1]
        involved, counts = np.unique(jp, return_counts=True)
        quiet = np.ones(self.x.shape[0], dtype=bool)
        quiet[involved] = False
        if quiet.any():
            self.euler(np.flatnonzero(quiet), float(t0), t1 - t0)
        # events are contiguous per slot and time-ordered within it
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
        cur_t = np.full(involved.size, float(t0))
        for k in range(int(counts.max(initial=0))):
            has = counts > k
            rows = starts[has] + k
            pk = involved[has]
            tk = jt[rows]
            self.euler(pk, cur_t[has], tk - cur_t[has])
            self.x[pk] = self.x[pk] + self.coeffs.f(tk, self.x[pk])[:, None] * jz[rows]
            cur_t[has] = tk
            self.records.append((float(tk[-1]), self.x.copy()))
        last = cur_t < t1
        if last.any():
            self.euler(involved[last], cur_t[last], t1 - cur_t[last])
        self.records.append((float(t1), self.x.copy()))

    def run(self):
        """The state at every base-grid point, (B, M+1, d)."""
        out = [self.x.copy()]
        for i in range(self.grid.size - 1):
            self.advance_cell(i)
            out.append(self.x.copy())
        return np.stack(out, axis=1)


def union_record_path(cs, driver, x0, h, T, seed, particle, extra_times):
    grid = make_base_grid(T, h, extra_times)
    inp = _prepare_block(driver, TR, L.PointMass(x0), grid, cs.m, [particle], seed,
                         R.SIGNAL)
    march = UnionRecordMarch(cs, driver, TR, grid, inp)
    for i in range(grid.size - 1):
        march.advance_cell(i)
    times = np.array([t for t, _ in march.records])
    values = np.vstack([v[0] for _, v in march.records])
    # a jump on a grid point is recorded twice; keep the post-jump record
    keep = np.append(np.diff(times) > 0, True)
    return times[keep], values[keep], grid


def _time_dependent_1d():
    return L.CoefficientSet(
        b=lambda t, x: -np.atleast_2d(x) + np.cos(3.0 * np.asarray(t, float)).reshape(-1, 1),
        sigma=lambda t, x: 0.4 * (1.0 + np.asarray(t, float)).reshape(-1, 1, 1)
        * np.ones((np.atleast_2d(x).shape[0], 1, 1)),
        d=1, m=1, gamma=0.6, g=lambda t, x: 1.0 + 0.5 * np.sin(np.atleast_2d(x)[:, 0]))


SINGLE_PATH_CASES = {
    "atomic-1d": (AtomicLevyMeasure([[0.9], [-0.6]], [2.5, 2.0]), _time_dependent_1d, [0.2]),
    "atomic-2d": (AtomicLevyMeasure([[0.9, 0.1], [-0.6, 0.4], [0.2, -1.1]],
                                    [2.0, 1.5, 1.0]),
                  lambda: L.coefficients_from_config({
                      "name": "linear", "d": 2, "m": 2, "gamma": 0.5,
                      "params": {"A": [[-1.0, 0.3], [0.2, -0.7]], "sigma": 0.6},
                      "g": {"name": "cosine"}}), [0.2, -0.1]),
    "exponential": (L.exponential_tails_1d(intensity_pos=2.5, rate_pos=2.0),
                    lambda: ou_coeffs(gamma=0.5), [0.2]),
}


class TestSinglePath:
    def test_zero_dynamics_constant(self):
        cs = L.coefficients_from_config({"name": "zero", "d": 1, "m": 1})
        p = L.simulate_path(cs, NO_JUMPS, TR, [1.0], 0.1, 1.0, seed=2)
        assert np.all(p.values == 1.0)

    def test_constant_drift_exact(self):
        cs = L.coefficients_from_config({"name": "constant_drift", "d": 1, "m": 1,
                                         "params": {"c": 1.0}})
        p = L.simulate_path(cs, NO_JUMPS, TR, [0.0], 0.25, 1.0, seed=2)
        assert p.values[-1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_jumps_are_grid_points(self):
        cs = L.coefficients_from_config({"name": "zero", "d": 1, "m": 1, "gamma": 1.0})
        drv = L.AtomicLevyMeasure([[1.0]], [5.0])
        p = L.simulate_path(cs, drv, TR, [0.0], 0.2, 1.0, seed=9)
        assert len(p.jumps) > 0
        assert np.all(np.isin(p.jumps.times, p.grid))
        # pure-jump path: value changes exactly at jumps by the mark size
        for time, mark in zip(p.jumps.times, p.jumps.marks):
            i = int(np.searchsorted(p.grid, time))
            assert p.values[i, 0] - p.values[i - 1, 0] == pytest.approx(mark[0])

    @pytest.mark.parametrize("case", sorted(SINGLE_PATH_CASES))
    def test_matches_union_record_march(self, case):
        # off-grid jumps, a jump put exactly on a grid point through
        # extra_times, and several jumps in one cell of the coarse grid
        driver, make_coeffs, x0 = SINGLE_PATH_CASES[case]
        cs = make_coeffs()
        seen = {"on_grid": 0, "shared_cell": 0}
        for seed in range(6):
            for h, particle in ((0.1, 0), (0.5, 3)):
                drawn = drawn_events(driver, [particle], seed)[1]
                extra = drawn[:1] if seed % 2 else ()
                times, values, grid = union_record_path(cs, driver, x0, h, 1.0, seed,
                                                        particle, extra)
                p = L.simulate_path(cs, driver, TR, x0, h, 1.0, seed,
                                    particle_index=particle, extra_times=extra)
                assert p.grid.tobytes() == times.tobytes()
                assert p.values.tobytes() == values.tobytes()
                assert p.jumps.times.tobytes() == drawn.tobytes()
                seen["on_grid"] += np.isin(drawn, grid).sum()
                cells = np.searchsorted(grid, drawn, side="left")
                seen["shared_cell"] += np.count_nonzero(np.bincount(cells) > 1)
        assert seen["on_grid"] >= 3 and seen["shared_cell"] >= 3


def _zero_f_time_dependent_1d():
    # f = 0 where x < 0, so the compensator masks part of a batch, and b,
    # sigma and g all depend on time
    return L.CoefficientSet(
        b=lambda t, x: -np.atleast_2d(x) + np.cos(3.0 * np.asarray(t, float)).reshape(-1, 1),
        sigma=lambda t, x: 0.4 * (1.0 + np.asarray(t, float)).reshape(-1, 1, 1)
        * np.ones((np.atleast_2d(x).shape[0], 1, 1)),
        d=1, m=1, gamma=0.6,
        g=lambda t, x: np.where(np.atleast_2d(x)[:, 0] > 0.0,
                                1.0 + 0.5 * np.sin(np.atleast_2d(x)[:, 0] + t), 0.0))


# driver, coefficients, initial law; each driver has an atom inside the
# compensated band |f z| <= level, and about 6 jumps per unit time.  The
# symmetric driver's band moment is +0.0 at every radius, so BlockMarch
# uses its one constant row; the one-sided driver's moment is 0 below its
# smaller atom and not above it.
MARCH_CASES = {
    "zero-f-time-1d": (AtomicLevyMeasure([[0.9], [-0.6], [0.3]], [2.5, 2.0, 2.0]),
                       _zero_f_time_dependent_1d, L.GaussianLaw([0.0], [1.0])),
    "symmetric-1d": (AtomicLevyMeasure([[0.9], [-0.9], [0.3], [-0.3]], [1.5] * 4),
                     _zero_f_time_dependent_1d, L.GaussianLaw([0.0], [1.0])),
    "one-sided-1d": (AtomicLevyMeasure([[0.75], [2.0]], [3.0, 3.0]),
                     _time_dependent_1d, L.GaussianLaw([0.0], [1.0])),
    "linear-2d": (AtomicLevyMeasure([[0.9, 0.1], [-0.6, 0.4], [0.2, -0.1]],
                                    [2.0, 2.0, 2.0]),
                  SINGLE_PATH_CASES["atomic-2d"][1], L.GaussianLaw([0.0, 0.5], [1.0, 0.5])),
}


class TestWholeBlockMarch:
    """BlockMarch steps the whole block per cell and replays the jumping
    slots; it must give the bits of the per-subset reference march for any
    block partition."""

    N = 80

    def draw(self, case, seed):
        # the first jump of every eighth particle is put on the grid
        driver, make_coeffs, mu0 = MARCH_CASES[case]
        cs = make_coeffs()
        counts, times, _ = drawn_events(driver, range(self.N), seed)
        drawn = per_particle(counts, times)
        grid = make_base_grid(1.0, 0.1, [t[0] for t in drawn[::8] if t.size])
        return cs, driver, mu0, grid

    @settings(max_examples=24)
    @given(case=st.sampled_from(sorted(MARCH_CASES)), seed=st.integers(0, 2 ** 16),
           block=st.sampled_from([1, 3, 64, N]))
    def test_matches_reference_for_any_block_size(self, case, seed, block):
        cs, driver, mu0, grid = self.draw(case, seed)
        want = UnionRecordMarch(cs, driver, TR, grid, _prepare_block(
            driver, TR, mu0, grid, cs.m, range(self.N), seed, R.SIGNAL)).run()
        got = [BlockMarch(cs, driver, TR, grid, _prepare_block(
            driver, TR, mu0, grid, cs.m, range(lo, min(lo + block, self.N)), seed,
            R.SIGNAL)).run() for lo in range(0, self.N, block)]
        assert np.concatenate(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", sorted(MARCH_CASES))
    def test_cases_reach_the_edge_cases(self, case):
        # at seed 0 the draw has jumps on grid points, cells where one slot
        # jumps twice, and slots that start with f = 0 and with f != 0
        cs, driver, mu0, grid = self.draw(case, 0)
        inp = _prepare_block(driver, TR, mu0, grid, cs.m, range(self.N), 0, R.SIGNAL)
        sch = inp.schedule
        on_grid = np.isin(sch.time, grid).sum()
        cells = range(grid.size - 1)
        assert on_grid >= 5
        # a second step in a cell replays a slot's second jump there
        assert sum(sch.steps[i + 1] - sch.steps[i] >= 2 for i in cells) >= 5
        # a cell where some slot's last jump sits on the cell end has no tail for it
        assert sum(sch.tails[i + 1] - sch.tails[i] < sch.pairs[i + 1] - sch.pairs[i]
                   for i in cells) >= 5
        if case in ("zero-f-time-1d", "symmetric-1d"):
            f0 = cs.f(0.0, inp.x0)
            assert (f0 == 0.0).sum() >= 10 and (f0 != 0.0).sum() >= 10
        march = BlockMarch(cs, driver, TR, grid, inp)
        assert (march._moment is not None) == (case == "symmetric-1d")
        if case == "one-sided-1d":
            fv = np.abs(cs.f(0.0, inp.x0))
            assert (TR.level / fv < 0.75).sum() >= 5 and (TR.level / fv > 0.75).sum() >= 5


class TestConstantBandMoment:
    """AtomicLevyMeasure.constant_first_moment gives the row that
    first_moment returns at every radius, bit for bit, or None."""

    @staticmethod
    def rows(drv, floor):
        radii = np.linalg.norm(drv.atoms, axis=1)
        r = np.concatenate([[floor, 1e-3, 1e9, np.inf], radii, np.nextafter(radii, 0.0)])
        return drv.first_moment(floor, r)

    def test_symmetric_driver_has_the_zero_row(self):
        drv = AtomicLevyMeasure([[0.9, 0.2], [-0.9, -0.2], [0.2, -0.1], [-0.2, 0.1]],
                                [1.5, 1.5, 1.0, 1.0])
        c = drv.constant_first_moment(0.0)
        assert c.tobytes() == np.zeros(2).tobytes()
        rows = self.rows(drv, 0.0)
        assert rows.tobytes() == np.tile(c, (len(rows), 1)).tobytes()

    def test_the_empty_band_row_counts(self):
        # every nonempty band holds the one atom; the empty band gives 0
        assert AtomicLevyMeasure([[0.9]], [1.0]).constant_first_moment(0.0) is None

    def test_minus_zero_differs_from_plus_zero(self):
        # a zero-mass negative atom makes the prefix -0.0, which is == 0.0
        drv = AtomicLevyMeasure([[-0.5]], [0.0])
        assert np.all(self.rows(drv, 0.0) == 0.0)
        assert drv.constant_first_moment(0.0) is None

    def test_rows_start_at_the_sampling_floor(self):
        drv = AtomicLevyMeasure([[0.25], [0.75], [-0.75]], [1.0, 1.0, 1.0])
        assert drv.constant_first_moment(0.0) is None
        assert drv.constant_first_moment(0.5).tobytes() == np.zeros(1).tobytes()
        # 0.1 + 0.9 - 0.9 rounds away from 0.1, so above a floor of 0.2 the
        # band moment is not exactly 0
        drv = AtomicLevyMeasure([[0.1], [0.9], [-0.9]], [1.0, 1.0, 1.0])
        assert np.any(self.rows(drv, 0.2) != 0.0)
        assert drv.constant_first_moment(0.2) is None

    def test_non_atomic_driver_has_no_constant_row(self):
        assert L.exponential_tails_1d().constant_first_moment(0.0) is None


class TestEnsembleLaws:
    def test_ou_stationary_variance(self):
        # var of the Euler chain is known exactly; the engine must match it
        # within Monte Carlo noise, and the chain value is within O(h) of 1
        h, T, n = 0.02, 5.0, 40_000
        ens = L.simulate_ensemble(ou_coeffs(), NO_JUMPS, TR, L.PointMass([0.0]),
                                  n, h, T, seed=21)
        v_hat = ens.values[:, -1, 0].var()
        v_chain = ou_euler_chain_variance(1.0, math.sqrt(2.0), h, round(T / h))
        se = v_chain * math.sqrt(2.0 / (n - 1))
        assert abs(v_hat - v_chain) <= 3 * se
        assert abs(v_chain - 1.0) <= h

    def test_exact_jump_law(self):
        # b = 0, sigma = 0, f = 1, single atom: X_T - x0 = 2 * Poisson(1) count
        cs = L.coefficients_from_config({"name": "zero", "d": 1, "m": 1, "gamma": 1.0})
        drv = L.AtomicLevyMeasure([[2.0]], [1.0])
        ens = L.simulate_ensemble(cs, drv, TR, L.PointMass([0.5]), 20_000, 0.1,
                                  1.0, seed=3)
        counts = (ens.values[:, -1, 0] - 0.5) / 2.0
        assert np.array_equal(counts, np.round(counts))
        kmax = 8
        obs = np.bincount(np.minimum(counts.astype(int), kmax), minlength=kmax + 1)
        exp = stats.poisson.pmf(np.arange(kmax + 1), 1.0) * counts.size
        exp[-1] = counts.size - exp[:-1].sum()
        assert stats.chisquare(obs, exp).pvalue >= 0.01

    def test_compensated_infinite_activity_mean(self):
        # one-sided power-law driver in discard mode: between-jump drift must
        # compensate the band (eps, level], so E X_T = x0 + T * int_{|z|>l} z nu
        cs = L.coefficients_from_config({"name": "zero", "d": 1, "m": 1, "gamma": 1.0})
        drv = L.power_law_tails_1d(coef=0.5, exponent=1.5, r_max=1.0, two_sided=False)
        tr = TruncationConfig(level=0.4, small_jump_mode="discard_below_eps", eps=0.02)
        n = 30_000
        ens = L.simulate_ensemble(cs, drv, tr, L.PointMass([0.0]), n, 0.05, 1.0,
                                  seed=8)
        want = quad_radial(lambda r: r, lambda r: 0.5 * r ** -1.5, 0.4, 1.0)
        xT = ens.values[:, -1, 0]
        se = xT.std() / math.sqrt(n)
        # bias budget: discarded sub-eps jumps are compensated, mean error ~ 0
        assert abs(xT.mean() - want) <= 3 * se + 1e-3

    def test_empty_band_gets_no_compensator(self):
        # discard mode compensates eps < |z| <= level/|f|, which is empty for
        # |f| > level/eps: such a row gets -f times a +0.0 moment (the zero a
        # row with f = 0 gets is +0.0), though the asymmetric driver's band
        # moment is nonzero wherever the band is not empty
        drv = L.exponential_tails_1d(1.0, 1.0, 2.0, 3.0)
        tr = TruncationConfig(level=0.5, small_jump_mode="discard_below_eps", eps=0.1)
        cs = L.CoefficientSet(b=lambda t, x: 0.0 * x, sigma=lambda t, x: 0.0 * x[:, :, None],
                              d=1, m=1, gamma=1.0, g=lambda t, x: x[:, 0])
        grid = make_base_grid(1.0, 0.1)
        march = BlockMarch(cs, drv, tr, grid,
                           _prepare_block(drv, tr, L.PointMass([0.0]), grid, 1, [0], 3, R.SIGNAL))
        comp = march._compensator(cs, 0.0, np.array([[10.0], [-20.0], [2.0], [0.0], [-2.0]]), {})
        assert comp[[0, 1, 3], 0].tobytes() == np.array([-0.0, 0.0, 0.0]).tobytes()
        want = -np.array([2.0, -2.0])[:, None] * drv.first_moment(0.1, 0.25)
        assert comp[[2, 4]].tobytes() == want.tobytes() and (want != 0.0).all()
        # a path with f = 10 everywhere moves only at its jumps
        ten = L.coefficients_from_config({"name": "zero", "d": 1, "m": 1, "gamma": 10.0})
        path = L.simulate_path(ten, drv, tr, [0.3], 0.1, 1.0, seed=3)
        moved = np.diff(path.values[:, 0]) != 0.0
        assert len(path.jumps) and (moved == np.isin(path.grid[1:], path.jumps.times)).all()

    @pytest.mark.parametrize("simulate", [
        lambda cs, drv, tr: L.simulate_ensemble(cs, drv, tr, L.PointMass([0.0]), 10, 0.1,
                                                1.0, seed=1),
        lambda cs, drv, tr: L.simulate_path(cs, drv, tr, [0.0], 0.1, 1.0, seed=1)],
        ids=["simulate_ensemble", "simulate_path"])
    def test_exact_mode_requires_finite_activity(self, simulate):
        cs = L.coefficients_from_config({"name": "zero", "d": 1, "m": 1, "gamma": 1.0})
        drv = L.power_law_tails_1d(exponent=1.5)
        with pytest.raises(LevyConfigError, match="infinite activity above the sampling floor"):
            simulate(cs, drv, TruncationConfig(level=0.5))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_reports_first_time(self):
        cs = L.CoefficientSet(b=lambda t, x: np.atleast_2d(x) ** 3,
                              sigma=lambda t, x: np.zeros((np.atleast_2d(x).shape[0], 1, 1)),
                              d=1, m=1)
        with pytest.raises(SimulationError, match="non-finite state"):
            L.simulate_ensemble(cs, NO_JUMPS, TR, L.PointMass([5.0]), 4, 0.5,
                                3.0, seed=1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_names_global_particle(self):
        # state leaves [-1, 1] -> infinite drift at once; with blocks of 2 the
        # first bad particle sits past the first block, and the message must
        # name it globally so simulate_path can replay it alone
        cs = L.CoefficientSet(
            b=lambda t, x: np.where(np.abs(np.atleast_2d(x)) > 1.0, np.inf, 0.0),
            sigma=lambda t, x: np.zeros((np.atleast_2d(x).shape[0], 1, 1)), d=1, m=1)
        mu0, seed = L.GaussianLaw([0.0], [1.0]), 3
        x0 = L.simulate_ensemble(L.coefficients_from_config({"name": "zero", "d": 1, "m": 1}),
                                 NO_JUMPS, TR, mu0, 8, 0.5, 1.0, seed).values[:, 0, 0]
        bad = int(np.argmax(np.abs(x0) > 1.0))
        assert bad >= 2 and abs(x0[bad]) > 1.0
        msg = rf"t=0\.5 \(particle {bad}, seed {seed}, namespace {R.SIGNAL}\)"
        with pytest.raises(SimulationError, match=msg):
            L.simulate_ensemble(cs, NO_JUMPS, TR, mu0, 8, 0.5, 1.0, seed, block_size=2)
        with pytest.raises(SimulationError, match=msg):
            L.simulate_path(cs, NO_JUMPS, TR, mu0, 0.5, 1.0, seed, particle_index=bad)


class TestNoiseProtocol:
    def test_no_jump_reduction_matches_reference_euler(self):
        # with no driver the engine must reproduce a hand-rolled Euler loop
        # that consumes the same documented per-particle streams, bitwise
        theta, sig = 1.0, math.sqrt(2.0)
        h, T, n = 0.1, 1.0, 7
        cs = ou_coeffs(theta, sig)
        ens = L.simulate_ensemble(cs, NO_JUMPS, TR, L.PointMass([0.3]), n, h, T,
                                  seed=31)
        grid = make_base_grid(T, h)
        for p in range(n):
            rng = R.stream(31, R.BROWNIAN, p)
            noise = rng.standard_normal((grid.size - 1, 1))
            x = 0.3
            for i in range(grid.size - 1):
                dt = grid[i + 1] - grid[i]
                dw = noise[i, 0] * np.sqrt(dt)
                x = x + (-theta * x + 0.0) * dt + sig * dw
                assert x == ens.values[p, i + 1, 0], (p, i)

    def test_block_inputs_match_fresh_per_particle_streams(self):
        # the block re-keys one generator; every draw must be the one a fresh
        # (seed, namespace, purpose, particle) stream gives: INIT for the
        # initial law, DRIVER for the jump atoms, BROWNIAN for the rows; for
        # every initial law, at several block sizes
        drv = L.AtomicLevyMeasure([[0.9], [-0.9]], [2.0, 2.0])
        laws = [engine.initial_law_from_config({"name": name, "params": params})
                for name, params in [
                    ("point", {"x0": [0.5, -1.0]}),
                    ("gaussian", {"mean": [0.5, -1.0], "std": [1.0, 0.3]}),
                    ("uniform_ball", {"center": [0.5, -1.0], "radius": 2.0}),
                    ("atomic", {"points": [[0.0, 1.0], [2.0, -1.0], [1.0, 1.0]],
                                "weights": [0.2, 0.5, 0.3]})]]
        grid = make_base_grid(1.0, 0.1)
        for law, B in itertools.product(laws, (1, 3, 64)):
            particles = range(3, 3 + B)
            inp = _prepare_block(drv, TR, law, grid, 2, particles, 17, R.FILTER)
            times, marks = schedule_events(inp)
            rows = 0
            for j, p in enumerate(particles):
                x0 = law.sample_one(R.stream(17, R.INIT, p, R.FILTER))
                assert inp.x0[j].tobytes() == x0.tobytes()
                ev = sample_jump_events(drv, (0.0, math.inf), 1.0,
                                        R.stream(17, R.DRIVER, p, R.FILTER))
                assert times[j].tobytes() == ev.times.tobytes()
                assert marks[j].tobytes() == ev.marks.tobytes()
                n_rows = grid.size - 1 + np.count_nonzero(~np.isin(ev.times, grid))
                want = R.stream(17, R.BROWNIAN, p, R.FILTER).standard_normal((n_rows, 2))
                assert inp.offsets[j] == rows
                assert inp.noise[rows:rows + n_rows].tobytes() == want.tobytes()
                rows += n_rows
            assert inp.x0.shape == (B, 2) and inp.noise.shape == (rows, 2)
            assert inp.schedule.time.size == sum(t.size for t in times)
        z = R.stream(17, R.INIT, 3, R.FILTER).standard_normal(2)
        assert laws[1].sample_one(R.stream(17, R.INIT, 3, R.FILTER)).tobytes() == \
            (laws[1].mean + laws[1].std * z).tobytes()

    def test_block_size_invariance(self):
        # both atoms lie in the compensated band, so the compensator sums a
        # cancelling pair; a lone particle must round it as a batch does
        cs = ou_coeffs(gamma=0.5)
        drv = L.AtomicLevyMeasure([[0.9], [-0.9]], [0.3, 0.3])
        b = L.simulate_ensemble(cs, drv, TR, L.GaussianLaw([0.0], [1.0]), 300,
                                0.05, 1.0, seed=13, block_size=4096)
        for block in (1, 3, 64, 300):
            a = L.simulate_ensemble(cs, drv, TR, L.GaussianLaw([0.0], [1.0]), 300,
                                    0.05, 1.0, seed=13, block_size=block)
            assert a.values.tobytes() == b.values.tobytes(), block

    def test_block_inputs_read_only(self):
        # marches share one draw, so the draw must reject writes
        drv = L.AtomicLevyMeasure([[0.9], [-0.9]], [2.0, 2.0])
        grid = make_base_grid(1.0, 0.1)
        inp = _prepare_block(drv, TR, L.GaussianLaw([0.0], [1.0]), grid, 1,
                             range(4, 9), 13, R.FILTER)
        sch = inp.schedule
        assert sch.time.size and inp.particles.tolist() == [4, 5, 6, 7, 8]
        arrays = [inp.particles, inp.x0, inp.noise, inp.offsets, sch.slots, sch.next_row,
                  sch.idx, sch.start, sch.time, sch.mark, sch.tail_idx,
                  sch.tail_start]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        BlockMarch(ou_coeffs(gamma=0.5), drv, TR, grid, inp).run()

    def test_jumps_on_the_grid_add_no_noise_rows(self):
        # a jump at a grid time needs no extra Brownian row; check the
        # vectorized count against a per-particle membership test, with
        # some of the block's own jump times inserted into the grid
        drv = L.AtomicLevyMeasure([[0.9], [-0.9]], [2.0, 2.0])
        law = L.GaussianLaw([0.0], [1.0])
        base = make_base_grid(1.0, 0.1)
        counts, times, _ = drawn_events(drv, range(6), 13, R.FILTER)
        drawn = per_particle(counts, times)
        taken = np.concatenate([t[::2] for t in drawn])
        assert taken.size
        grid = np.union1d(base, taken)
        inp = _prepare_block(drv, TR, law, grid, 1, range(6), 13, R.FILTER)
        rows = [grid.size - 1 + np.count_nonzero(~np.isin(t, grid)) for t in drawn]
        assert inp.offsets.tolist() == np.cumsum([0] + rows[:-1]).tolist()
        assert inp.noise.shape[0] == sum(rows)
        assert sum(rows) < 6 * (grid.size - 1) + counts.sum()

    def test_weak_order_one(self):
        # engine matches the exact Euler-chain variance at two step sizes,
        # and the chain bias halves with the step (first weak order)
        theta, sig, T = 1.0, math.sqrt(2.0), 2.0
        v_exact = 1.0 - math.exp(-2 * theta * T)
        for n, h in ((20_000, 0.1), (20_000, 0.05)):
            ens = L.simulate_ensemble(ou_coeffs(theta, sig), NO_JUMPS, TR,
                                      L.PointMass([0.0]), n, h, T, seed=37)
            v_hat = ens.values[:, -1, 0].var()
            v_chain = ou_euler_chain_variance(theta, sig, h, round(T / h))
            assert abs(v_hat - v_chain) <= 3 * v_chain * math.sqrt(2.0 / (n - 1))
        bias_h = abs(ou_euler_chain_variance(theta, sig, 0.1, round(T / 0.1)) - v_exact)
        bias_h2 = abs(ou_euler_chain_variance(theta, sig, 0.05, round(T / 0.05)) - v_exact)
        assert bias_h / bias_h2 == pytest.approx(2.0, rel=0.06)


class TestCoupledFamily:
    def family(self, amp=1.0, gamma_pert=0.0):
        return L.family_from_config({
            "base": {"name": "linear", "d": 1, "m": 1,
                     "params": {"A": [[-1.0]], "sigma": 1.0},
                     "gamma": 0.4, "growth_bound": 4.0},
            "drift_perturbation": {"name": "shift", "amp": amp},
            "gamma_perturbation": gamma_pert,
            "schedule": [1, 2, 4, 8],
        })

    def test_identical_members_bitwise(self):
        fam = self.family(amp=0.0)
        drv = L.AtomicLevyMeasure([[0.8]], [0.5])
        members, limit = L.simulate_coupled_family(
            fam, drv, TR, L.GaussianLaw([0.0], [1.0]), 200, 0.05, 1.0, seed=5)
        for n, ens in members.items():
            assert np.array_equal(ens.values, limit.values)

    def test_coupled_family_bits_pinned(self):
        # sha256 of a d = 2 family with the cosine jump shape, marched in
        # blocks of 16, as computed by the per-subset march it replaced
        fam = L.family_from_config({
            "base": {"name": "linear", "d": 2, "m": 2, "gamma": 0.5,
                     "params": {"A": [[-1.0, 0.3], [0.2, -0.7]], "sigma": 0.4},
                     "g": {"name": "cosine"}},
            "drift_perturbation": {"name": "sine", "amp": 1.0},
            "gamma_perturbation": 0.3, "schedule": [1, 2, 4]})
        drv = AtomicLevyMeasure([[0.9, 0.2], [-0.5, 0.8], [0.2, -0.1]], [1.5, 1.5, 1.0])
        members, limit = L.simulate_coupled_family(
            fam, drv, TR, L.GaussianLaw([0.0, 0.5], [1.0, 0.5]), 40, 0.1, 1.0,
            seed=43, block_size=16)
        digest = hashlib.sha256()
        for ens in [*members.values(), limit]:
            digest.update(ens.values.tobytes())
        assert digest.hexdigest() == (
            "f2f812b3178e40f5414f25e1570dfa97255839ee29eee79d42d7c7de683e6c28")

    def test_symmetric_driver_family_bits_pinned(self):
        # the same family over a symmetric driver, whose band moment is one
        # constant row; sha256 as computed when every step looked it up
        fam = L.family_from_config({
            "base": {"name": "linear", "d": 2, "m": 2, "gamma": 0.5,
                     "params": {"A": [[-1.0, 0.3], [0.2, -0.7]], "sigma": 0.4},
                     "g": {"name": "cosine"}},
            "drift_perturbation": {"name": "sine", "amp": 1.0},
            "gamma_perturbation": 0.3, "schedule": [1, 2, 4]})
        drv = AtomicLevyMeasure([[0.9, 0.2], [-0.9, -0.2], [0.2, -0.1], [-0.2, 0.1]],
                                [1.5, 1.5, 1.0, 1.0])
        members, limit = L.simulate_coupled_family(
            fam, drv, TR, L.GaussianLaw([0.0, 0.5], [1.0, 0.5]), 40, 0.1, 1.0,
            seed=43, block_size=16)
        digest = hashlib.sha256()
        for ens in [*members.values(), limit]:
            digest.update(ens.values.tobytes())
        assert digest.hexdigest() == (
            "e947c59bf891ded80c0b893ee83a4e04ec99cd0f5354d7c49038bd931ca25495")

    def test_linear_gap_bound(self):
        # constant drift shift 1/n with shared noise: the coupled gap obeys
        # the exponential bound e^(C T) * T / n with C = 1, per particle
        fam = self.family(amp=1.0)
        drv = L.AtomicLevyMeasure([[0.8]], [0.5])
        T = 1.0
        members, limit = L.simulate_coupled_family(
            fam, drv, TR, L.GaussianLaw([0.0], [1.0]), 500, 0.05, T, seed=6)
        prev_gap = None
        for n in sorted(members):
            gap = np.abs(members[n].values - limit.values).max(axis=(1, 2))
            assert np.all(gap <= math.exp(T) * T / n + 1e-12)
            mean_gap = np.abs(members[n].values[:, -1, 0]
                              - limit.values[:, -1, 0]).mean()
            if prev_gap is not None:
                assert mean_gap <= prev_gap
            prev_gap = mean_gap

    def test_member_validation(self):
        fam = self.family(amp=50.0)  # member 1 breaks the declared bound
        drv = L.AtomicLevyMeasure([[0.8]], [0.5])
        with pytest.raises(Exception, match="violated"):
            L.simulate_coupled_family(fam, drv, TR, L.PointMass([0.0]), 10,
                                      0.1, 1.0, seed=6)

    @pytest.mark.parametrize("amp", [1.0, 50.0])
    def test_validation_builds_one_probe_grid(self, monkeypatch, amp):
        # every set is checked on one probe grid, with the verdict and the
        # message each set gets on a grid of its own
        fam = self.family(amp=amp)
        want = None
        for cs in fam.all_sets():
            try:
                require_linear_growth(cs)
            except CoefficientError as exc:
                want = str(exc)
                break
        built, build = [], engine.default_probe_points
        monkeypatch.setattr(engine, "default_probe_points",
                            lambda *a: built.append(a) or build(*a))
        drv = L.AtomicLevyMeasure([[0.8]], [0.5])
        try:
            L.simulate_coupled_family(fam, drv, TR, L.PointMass([0.0]), 10, 0.1, 1.0,
                                      seed=6)
            got = None
        except CoefficientError as exc:
            got = str(exc)
        assert built == [(1, 1.0)]
        assert got == want and (want is None) == (amp == 1.0)


class TestBlockRunner:
    """Block partition and worker count must not change a single bit.

    The 2-d linear drift mixes coordinates, so a row rounded differently in
    a lone-row batch than in a full block would show here.
    """

    N = 150
    DRIVER = AtomicLevyMeasure([[0.9, 0.2], [-0.5, 0.8]], [0.6, 0.6])
    MU0 = L.GaussianLaw([0.0, 0.5], [1.0, 0.5])
    FAMILY = {"base": {"name": "linear", "d": 2, "m": 2, "gamma": 0.5,
                       "params": {"A": [[-1.0, 0.3], [0.2, -0.7]], "sigma": 0.4}},
              "drift_perturbation": {"name": "sine", "amp": 1.0},
              "gamma_perturbation": 0.3, "schedule": [1, 2, 4]}

    def ensemble(self, coeffs, **kw):
        return L.simulate_ensemble(coeffs, self.DRIVER, TR, self.MU0, self.N, 0.05,
                                   1.0, seed=13, **kw)

    def family(self, fam, **kw):
        return L.simulate_coupled_family(fam, self.DRIVER, TR, self.MU0, self.N, 0.05,
                                         1.0, seed=13, **kw)

    @staticmethod
    def same(a, b):
        assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block", [1, 3, 64, N])
    def test_ensemble_bitwise(self, block, workers):
        cs = L.coefficients_from_config(self.FAMILY["base"])
        want = self.ensemble(cs, block_size=4096)
        self.same(self.ensemble(cs, block_size=block, workers=workers), want)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block", [1, 3, 64, N])
    def test_family_bitwise(self, block, workers):
        fam = L.family_from_config(self.FAMILY)
        want_members, want_limit = self.family(fam, block_size=4096)
        members, limit = self.family(fam, block_size=block, workers=workers)
        assert list(members) == list(want_members) == [1, 2, 4]
        for n in members:
            self.same(members[n], want_members[n])
        self.same(limit, want_limit)
        # the limit of the family is the plain ensemble of its limit dynamics
        self.same(limit, self.ensemble(fam.limit, block_size=block))

    # record times on the grid (the 0.05 grid's own points, 0 and T among
    # them), off it, outside [0, T] and repeated
    GRID = make_base_grid(1.0, 0.05)
    TIMES = st.lists(st.one_of(st.sampled_from(list(GRID)), st.floats(-0.2, 1.2)),
                     max_size=8).map(lambda ts: ts + ts[:2])

    @staticmethod
    def last_at_or_before(grid, times):
        """Slice 0 and, per time, the last grid index at or before it."""
        return sorted({0} | {max([i for i, g in enumerate(grid) if g <= t], default=0)
                             for t in times})

    def same_slices(self, thin, full, keep, times):
        assert thin.times.tobytes() == full.times[keep].tobytes()
        assert thin.values.tobytes() == full.values[:, keep].tobytes()
        # a recorded time reads the slice it reads on the full grid; index_at
        # refuses times past the last recorded slice (checkpoints end at T)
        for t in (t for t in times if 0.0 <= t <= thin.times[-1]):
            assert thin.times[thin.index_at(t)] == full.times[full.index_at(t)]

    @settings(max_examples=12, deadline=None)
    @given(block=st.sampled_from([1, 3, 64, N]), workers=st.sampled_from([1, 2]),
           times=TIMES)
    def test_recorded_slices_are_the_full_paths_slices(self, block, workers, times):
        keep = self.last_at_or_before(self.GRID, times)
        fam = L.family_from_config(self.FAMILY)
        full_members, full_limit = self.family(fam)
        members, limit = self.family(fam, block_size=block, workers=workers,
                                     record_times=times)
        for n in members:
            self.same_slices(members[n], full_members[n], keep, times)
        self.same_slices(limit, full_limit, keep, times)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 40), data=st.data(), seed=st.integers(0, 2 ** 16),
           times=st.none() | TIMES)
    def test_any_block_size_gives_the_one_block_bits(self, n, data, seed, times):
        # the determinism contract: no block partition changes a bit of any
        # set's values, whichever slices are recorded
        block = data.draw(st.integers(1, n), label="block")
        fam = L.family_from_config({**self.FAMILY, "schedule": [1, 2]})

        def run(**kw):
            members, limit = L.simulate_coupled_family(fam, self.DRIVER, TR, self.MU0, n,
                                                       0.05, 1.0, seed, **kw)
            return [*members.values(), limit]

        keep = (slice(None) if times is None else self.last_at_or_before(self.GRID, times))
        for got, want in zip(run(block_size=block, record_times=times), run(block_size=n)):
            assert got.values.tobytes() == want.values[:, keep].tobytes()

    def test_pool_block_returns_only_the_kept_slices(self):
        fam = L.family_from_config(self.FAMILY)
        # grid[6] = 6/20 and grid[14] round above 0.3 and 0.7
        keep = engine.kept_slices(self.GRID, [0.3, 0.7, 1.0])
        assert keep.tolist() == [0, 5, 13, 20]
        out = engine._pool_block((pool_params(fam), self.DRIVER, TR, self.MU0,
                                  self.GRID, keep, range(3, 40), 13, R.SIGNAL))
        # one array: nothing but the kept values goes back through the pipe
        assert type(out) is np.ndarray and out.shape == (4, 37, keep.size, 2)
        full_members, full_limit = self.family(fam)
        for vals, ens in zip(out, [*full_members.values(), full_limit]):
            assert vals.tobytes() == ens.values[3:40, keep].tobytes()

    @pytest.mark.parametrize("workers, cpus, sizes, started", [
        (2, 3, [37, 38, 37, 38], 2), (3, 3, [50, 50, 50], 3),
        (4, None, [37, 38, 37, 38], 1), (10_000, 3, [1] * 150, 3)])
    def test_pool_blocks_are_balanced(self, monkeypatch, workers, cpus, sizes, started):
        # a multiple of workers of near-equal blocks, none over block_size 64,
        # whatever the pool's size: it starts no more processes than there
        # are blocks or CPUs.  The fake pool maps serially and starts none
        seen, built = [], []

        class InProcessPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                seen.extend(len(task[6]) for task in tasks)
                return map(fn, tasks)

        fam = L.family_from_config(self.FAMILY)
        want = self.family(fam)[1]
        monkeypatch.setattr(engine, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        self.same(self.family(fam, block_size=64, workers=workers)[1], want)
        assert seen == sizes
        assert built == [started] and engine.pool_processes(workers, self.N) == started

    def test_hand_built_coefficients_run_in_process(self, monkeypatch):
        # closures without a registry config cannot be rebuilt in a worker,
        # so workers > 1 must run them here, with the same bits
        A = np.array([[-1.0, 0.3], [0.2, -0.7]])
        cs = L.CoefficientSet(
            b=lambda t, x: np.atleast_2d(x) * np.diag(A),
            sigma=lambda t, x: np.broadcast_to(0.4 * np.eye(2),
                                               (np.atleast_2d(x).shape[0], 2, 2)),
            d=2, m=2, gamma=0.5)
        fam = L.CoefficientFamily(limit=cs, schedule=(2,))
        want = self.ensemble(cs)
        want_members, want_limit = self.family(fam)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
        self.same(self.ensemble(cs, block_size=7, workers=2), want)
        members, limit = self.family(fam, block_size=7, workers=2)
        self.same(members[2], want_members[2])
        self.same(limit, want_limit)

    def test_replaced_coefficients_keep_their_dynamics_across_workers(self):
        # a dataclasses.replace copy no longer matches the registry config it
        # was built from, so it must not be rebuilt from that config
        cs = replace(L.coefficients_from_config(self.FAMILY["base"]), gamma=1.0)
        assert cs.config is None
        self.same(self.ensemble(cs, block_size=64, workers=2),
                  self.ensemble(cs, block_size=64))
        fam = L.family_from_config(self.FAMILY)
        fam = replace(fam, limit=replace(fam.limit, gamma=1.0))
        assert fam.limit.config is None
        want_members, want_limit = self.family(fam, block_size=64)
        members, limit = self.family(fam, block_size=64, workers=2)
        for n in members:
            self.same(members[n], want_members[n])
        self.same(limit, want_limit)
        assert limit.values.tobytes() != self.family(L.family_from_config(
            self.FAMILY), block_size=64)[1].values.tobytes()

    def test_a_set_is_changed_by_a_copy_not_in_place(self):
        # a worker rebuilds a registry set from its config, so a set changed
        # in place would march other dynamics there: a set is frozen, and a
        # changed copy has no config and marches the same bits on any workers
        cs = L.coefficients_from_config({"name": "ou", "d": 2, "m": 2, "gamma": 0.4,
                                         "params": {"theta": 1.0, "sigma": 1.0}})
        for name, value in (("gamma", 1.0), ("g", None), ("b", cs.sigma), ("config", None)):
            with pytest.raises(FrozenInstanceError):
                setattr(cs, name, value)
        assert cs.gamma == 0.4 and cs.config is not None
        copy = replace(cs, gamma=1.0)
        assert copy.config is None
        want = self.ensemble(copy, block_size=64)
        self.same(self.ensemble(copy, block_size=64, workers=2), want)
        assert want.values.tobytes() != self.ensemble(cs, block_size=64).values.tobytes()

    def test_the_pool_is_a_working_concurrent_futures_pool(self, monkeypatch):
        # the engine imports the pool on first use: what it builds is
        # concurrent.futures' own, and a two-worker family marched in it
        # gives the one-worker bits
        from concurrent.futures import ProcessPoolExecutor
        with engine.ProcessPoolExecutor(max_workers=2) as pool:
            assert isinstance(pool, ProcessPoolExecutor)
            assert list(pool.map(abs, [-1, 2, -3])) == [1, 2, 3]
        built, build = [], engine.ProcessPoolExecutor
        monkeypatch.setattr(engine, "ProcessPoolExecutor",
                            lambda max_workers: built.append(max_workers) or build(max_workers))
        fam = L.family_from_config(self.FAMILY)
        want_members, want_limit = self.family(fam)
        assert built == []
        members, limit = self.family(fam, block_size=64, workers=2)
        assert built == [min(2, os.cpu_count() or 1)]
        for n in fam.members:
            self.same(members[n], want_members[n])
        self.same(limit, want_limit)

    def test_pool_iff_the_limit_has_a_registry_config(self, monkeypatch):
        # workers rebuild the limit from its config and the members from the
        # family's scalars: an ensemble and a family pool alike, a copy whose
        # limit has no config runs here
        def pooled(max_workers):
            raise AssertionError("pooled")

        monkeypatch.setattr(engine, "ProcessPoolExecutor", pooled)
        cs = L.coefficients_from_config(self.FAMILY["base"])
        fam = L.family_from_config(self.FAMILY)
        for run in (lambda: self.ensemble(cs, workers=2),
                    lambda: self.family(fam, workers=2),
                    lambda: self.family(L.CoefficientFamily(cs, (3,)), workers=2)):
            with pytest.raises(AssertionError, match="pooled"):
                run()
        self.ensemble(replace(cs), workers=2)
        self.family(replace(fam, limit=replace(cs)), workers=2)


# the family test's drivers: MARCH_CASES' atomic ones (symmetric, one-sided,
# 2-d) and a radial one, whose band moment is looked up per row
FAMILY_DRIVERS = {**{case: (drv, mu0) for case, (drv, _, mu0) in MARCH_CASES.items()},
                  "radial-1d": (L.exponential_tails_1d(intensity_pos=3.0, rate_pos=2.0),
                                L.GaussianLaw([0.0], [1.0]))}
# (base gamma, gamma perturbation): no jump coefficient anywhere, only on
# the members, everywhere, and on all but the n = 2 member
GAMMAS = [(0.0, 0.0), (0.0, 0.6), (0.4, 0.6), (-0.3, 0.6)]


def parametric_family(d, gamma, gp, kind, amp, sp):
    base = ({"name": "bounded_nonlinear", "d": 1, "m": 1} if d == 1 else
            {"name": "linear", "d": 2, "m": 2,
             "params": {"A": [[-1.0, 0.3], [0.2, -0.7]], "sigma": 0.4}})
    return L.family_from_config({
        "base": {**base, "gamma": gamma, "g": {"name": "cosine"}},
        "drift_perturbation": {"name": kind, "amp": amp}, "sigma_perturbation": sp,
        "gamma_perturbation": gp, "schedule": [1, 2, 4]})


def pool_params(fam):
    """The family part of a pool task: the limit's config and the scalars."""
    return (fam.limit.config, fam.schedule, fam.drift, fam.drift_amp, fam.gamma_amp,
            fam.sigma_amp)


class TestStackedFamily:
    """A family marches as one StackedFamily over each block, S*B rows set
    by set on the block's one schedule and noise rows; every set must get
    the bits it gets marched alone."""

    N = 80

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(sorted(FAMILY_DRIVERS)),
           kind=st.sampled_from(["sine", "shift"]),
           amp=st.sampled_from([0.0, 1.0]), sp=st.sampled_from([0.0, 0.5]),
           gammas=st.sampled_from(GAMMAS), block=st.sampled_from([1, 3, 64, N]),
           workers=st.sampled_from([1, 2]), hand=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_matches_per_set_marches(self, case, kind, amp, sp, gammas, block, workers,
                                     hand, seed):
        driver, mu0 = FAMILY_DRIVERS[case]
        fam = parametric_family(driver.dim, *gammas, kind, amp, sp)
        if hand:    # a hand-built limit (no registry config): marched in process
            fam = replace(fam, limit=replace(fam.limit))
        grid = make_base_grid(1.0, 0.1)
        inputs = _prepare_block(driver, TR, mu0, grid, fam.limit.m, range(self.N), seed,
                                R.SIGNAL)
        want = [BlockMarch(cs, driver, TR, grid, inputs).run() for cs in fam.all_sets()]
        members, limit = L.simulate_coupled_family(
            fam, driver, TR, mu0, self.N, 0.1, 1.0, seed, block_size=block,
            workers=workers)
        for ens, vals in zip([*members.values(), limit], want):
            assert ens.values.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("gammas", [(0.4, 0.6), (-0.3, 0.6)])
    @pytest.mark.parametrize("block", [1, 3, 64, N])
    @pytest.mark.parametrize("kind, drift", [("sine", None), *itertools.product(
        ["sine", "shift"], ["returns x", "ignores out", "constant"])])
    def test_heavy_jumps_match_per_set_marches(self, block, gammas, kind, drift):
        # many cells hold several jumps of one slot and some jumps sit on
        # grid points; every set replays the block's one schedule and must
        # get the bits of its own march over the whole draw.  A limit drift
        # may return its own x, ignore the march's out array, or return a
        # read-only broadcast: the march writes none of them
        fam = parametric_family(1, *gammas, kind, 1.0, 0.5)
        b = {None: fam.limit.b, "returns x": lambda t, x: x,
             "ignores out": lambda t, x, out=None: 0.5 * np.sin(x),
             "constant": L.coefficients_from_config({
                 "name": "constant_drift", "d": 1, "m": 1, "params": {"c": -0.3}}).b}[drift]
        fam = replace(fam, limit=replace(fam.limit, b=b))
        drv, mu0 = L.AtomicLevyMeasure([[0.9], [-0.9]], [4.0, 4.0]), L.GaussianLaw([0.0], [1.0])
        _, ev_t, _ = drawn_events(drv, range(self.N), 7)
        grid = make_base_grid(1.0, 0.1, ev_t[::3])
        inputs = _prepare_block(drv, TR, mu0, grid, 1, range(self.N), 7, R.SIGNAL)
        # a cell with two steps has a slot that jumps twice in it
        assert np.diff(inputs.schedule.steps).max() > 1
        assert 0 < np.count_nonzero(np.isin(ev_t, grid)) < ev_t.size
        want = [BlockMarch(cs, drv, TR, grid, inputs).run() for cs in fam.all_sets()]
        members, limit = L.simulate_coupled_family(fam, drv, TR, mu0, self.N, 0.1, 1.0, 7,
                                                   extra_times=ev_t[::3], block_size=block)
        for ens, vals in zip([*members.values(), limit], want, strict=True):
            assert ens.values.tobytes() == vals.tobytes()

    def test_run_slices_keep_their_values(self):
        # the march swaps its state with a kept work array every cell: what
        # run() recorded, and a copy taken after a cell, must not move later
        fam = parametric_family(1, 0.4, 0.6, "sine", 1.0, 0.5)
        drv, B = L.AtomicLevyMeasure([[0.9], [-0.9]], [4.0, 4.0]), 16
        grid = make_base_grid(1.0, 0.1)
        inputs = _prepare_block(drv, TR, L.GaussianLaw([0.0], [1.0]), grid, 1, range(B), 3,
                                R.SIGNAL)
        ran = BlockMarch(fam.stacked(B), drv, TR, grid, inputs).run()
        march = BlockMarch(fam.stacked(B), drv, TR, grid, inputs)
        states = [march.x.copy()]
        for i in range(grid.size - 1):
            march.advance_cell(i)
            states.append(march.x.copy())
        assert len({s.tobytes() for s in states}) == grid.size
        assert ran.tobytes() == np.stack(states, axis=1).tobytes()

    def test_cell_allocates_no_row_sized_array(self):
        # the README limit family on a 4,096-slot block: once warm, a cell
        # fills the march's work arrays and allocates no S*B-row temporary
        fam = L.family_from_config({
            "base": {"name": "ou", "d": 1, "m": 1, "gamma": 0.5,
                     "params": {"theta": 1.0, "sigma": math.sqrt(2.0)}},
            "drift_perturbation": {"name": "sine", "amp": 1.0}, "gamma_perturbation": 0.5,
            "schedule": [1, 2, 4, 8, 16, 32]})
        drv, B = L.AtomicLevyMeasure([[0.9], [-0.9]], [0.3, 0.3]), 4096
        grid = make_base_grid(1.0, 0.01)
        march = BlockMarch(fam.stacked(B), drv, TruncationConfig(level=0.3), grid,
                           _prepare_block(drv, TruncationConfig(level=0.3),
                                          L.GaussianLaw([0.0], [0.5]), grid, 1, range(B),
                                          2024, R.SIGNAL))
        march.advance_cell(0)
        march.advance_cell(1)
        tracemalloc.start()
        try:
            march.advance_cell(2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert march.S == 7 and peak < march.S * B * 8, peak

    def test_slot_rows_advance_one_per_cell_and_off_grid_jump(self):
        # all S sets read a slot's one noise row: after every cell each slot
        # is one row further, plus one per jump off the grid in the cell
        # (several jumps in a cell, some on the grid, included)
        fam = parametric_family(1, 0.4, 0.6, "sine", 1.0, 0.5)
        drv = L.AtomicLevyMeasure([[0.9], [-0.9]], [4.0, 4.0])
        B = 64
        counts, ev_t, _ = drawn_events(drv, range(B), 5)
        grid = make_base_grid(1.0, 0.1, ev_t[::3])
        inputs = _prepare_block(drv, TR, L.GaussianLaw([0.0], [1.0]), grid, 1, range(B), 5,
                                R.SIGNAL)
        march = BlockMarch(fam.stacked(B), drv, TR, grid, inputs)
        assert march.x.shape == (4 * B, 1) and march.row.shape == (B,)
        assert 0 < np.count_nonzero(np.isin(ev_t, grid)) < ev_t.size
        for i in range(grid.size - 1):
            march.advance_cell(i)
            assert (march.row - inputs.offsets == noise_rows_used(grid, counts, ev_t, i)).all(), i
        # each slot used exactly its own rows
        assert march.row.tolist() == [*inputs.offsets[1:], inputs.noise.shape[0]]

    # rows 0-11 of a block of B = 3 under sets n = 1, 2, 4 and the limit:
    # signed zeros, inf and NaN show a stray + 0.0 or 0 * sin(x)
    X = np.array([[-0.0], [0.7], [np.inf], [np.nan], [-2.0], [-0.0],
                  [1.5], [-np.inf], [0.0], [-0.0], [np.inf], [0.3]])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["sine", "shift"])
    @pytest.mark.parametrize("amp", [0.0, 1.0])
    @pytest.mark.parametrize("sp", [0.0, 0.5])
    @pytest.mark.parametrize("gammas", GAMMAS)
    def test_rows_get_their_own_sets_bits(self, kind, amp, sp, gammas):
        fam = parametric_family(1, *gammas, kind, amp, sp)
        sets, g = fam.all_sets(), fam.limit.g
        # the same family, with a limit g that counts the rows it is called on
        called = []
        counted = replace(fam, limit=replace(
            fam.limit, g=lambda t, x: called.append(len(x)) or g(t, x)))
        stacked = counted.stacked(3)
        for slots in (None, np.array([0, 2]), np.array([1]), np.array([2])):
            # the block slots' rows in every set, set by set
            rows = (3 * np.arange(4)[:, None] + (np.arange(3) if slots is None
                                                 else slots)).ravel()
            x = self.X[rows]
            t = 0.3 if slots is None else np.linspace(0.0, 1.0, rows.size)
            called.clear()
            cs = stacked.on_rows(slots)
            got = [cs.b(t, x), cs.sigma(t, x), cs.f(t, x)]
            # a row with gamma = 0 gets +0.0 from f without a call of g
            assert sum(called) == sum(sets[r // 3].gamma != 0.0 for r in rows)
            for j, r in enumerate(rows):
                own, tj = sets[r // 3], t if np.ndim(t) == 0 else t[j:j + 1]
                want = [own.b(tj, x[j:j + 1]), own.sigma(tj, x[j:j + 1]),
                        own.f(tj, x[j:j + 1])]
                assert [v[j].tobytes() for v in got] == [w[0].tobytes() for w in want]

    def test_every_family_is_stacked(self):
        fam = parametric_family(1, 0.4, 0.6, "sine", 1.0, 0.5)
        for f in (fam, replace(fam, limit=replace(fam.limit, gamma=1.0)),
                  replace(fam, schedule=(2,)), L.CoefficientFamily(fam.limit, (3, 1))):
            stacked = f.stacked(4)
            assert isinstance(stacked, StackedFamily)
            assert stacked.names == [f"member n={n}" for n in f.schedule] + ["limit"]
        # an ensemble is a family with no members: it marches its one set
        assert L.CoefficientFamily(limit=fam.limit).stacked(4) is fam.limit

    def test_pool_task_is_one_stacked_march(self, monkeypatch):
        fam = parametric_family(2, 0.4, 0.6, "sine", 1.0, 0.5)
        marched = []
        run = BlockMarch.run
        monkeypatch.setattr(BlockMarch, "run",
                            lambda self, *a: marched.append(self.x.shape[0]) or run(self, *a))
        grid = make_base_grid(1.0, 0.1)
        out = engine._pool_block((pool_params(fam), FAMILY_DRIVERS["linear-2d"][0], TR,
                                  FAMILY_DRIVERS["linear-2d"][1], grid,
                                  engine.kept_slices(grid), range(5, 30), 13, R.SIGNAL))
        assert marched == [4 * 25] and out.shape == (4, 25, grid.size, 2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("amp, big, which", [(1e307, 4e307, "member n=1"),
                                                 (-1e307, 4.6e307, "limit")])
    def test_failure_names_set_and_global_particle(self, amp, big, which):
        # x0 + (x0 + amp/n) per unit cell gives 4 x0 + 3 amp/n at t = 2: only
        # the named set overflows, and only where x0 = big; rows are set by
        # set, so the first bad row is past the first set
        fam = L.family_from_config({
            "base": {"name": "linear", "d": 1, "m": 1, "params": {"A": [[1.0]]}},
            "drift_perturbation": {"name": "shift", "amp": amp}, "schedule": [2, 1, 4]})
        mu0, seed = engine.AtomicLaw([[0.0], [big]], [0.8, 0.2]), 5
        x0 = _prepare_block(NO_JUMPS, TR, mu0, make_base_grid(2.0, 1.0), 1, range(9), seed,
                            R.SIGNAL).x0[:, 0]
        bad = int(np.argmax(x0 == big))
        assert bad >= 3 and bad % 3 != 0
        msg = rf"t=2 \({which}, particle {bad}, seed {seed}, namespace {R.SIGNAL}\)"
        with pytest.raises(SimulationError, match=msg):
            L.simulate_coupled_family(fam, NO_JUMPS, TR, mu0, 9, 1.0, 2.0, seed,
                                      block_size=3)
