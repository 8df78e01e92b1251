import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import levylab as L
from levylab import rng as R
from levylab import engine
from levylab.engine import BlockMarch, SimulationError, _prepare_block, make_base_grid
from levylab.measures import AtomicLevyMeasure, TruncationConfig, sample_jump_events

from oracles import ou_euler_chain_variance, quad_radial


def ou_coeffs(theta=1.0, sigma=math.sqrt(2.0), gamma=0.0, bound=4.0):
    return L.coefficients_from_config({
        "name": "ou", "d": 1, "m": 1,
        "params": {"theta": theta, "sigma": sigma},
        "gamma": gamma, "growth_bound": bound})


NO_JUMPS = L.zero_measure(1)
TR = TruncationConfig(level=0.5)


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
        p = np.repeat(np.arange(len(inp.jump_times)), [len(t) for t in inp.jump_times])
        t = np.concatenate([np.empty(0), *inp.jump_times])
        z = np.vstack([np.empty((0, driver.dim)), *inp.jump_marks])
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
            out[nz] = -fv[nz, None] * self.driver.first_moment_upper(
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

    def test_jump_times_are_grid_points(self):
        cs = L.coefficients_from_config({"name": "zero", "d": 1, "m": 1, "gamma": 1.0})
        drv = L.AtomicLevyMeasure([[1.0]], [5.0])
        p = L.simulate_path(cs, drv, TR, [0.0], 0.2, 1.0, seed=9)
        assert len(p.jumps) > 0
        assert np.all(np.isin(p.jumps.times, p.grid))
        # pure-jump path: value changes exactly at jumps by the mark size
        for ev in p.jumps:
            i = int(np.searchsorted(p.grid, ev.time))
            assert p.values[i, 0] - p.values[i - 1, 0] == pytest.approx(ev.mark[0])

    @pytest.mark.parametrize("case", sorted(SINGLE_PATH_CASES))
    def test_matches_union_record_march(self, case):
        # off-grid jumps, a jump put exactly on a grid point through
        # extra_times, and several jumps in one cell of the coarse grid
        driver, make_coeffs, x0 = SINGLE_PATH_CASES[case]
        cs = make_coeffs()
        seen = {"on_grid": 0, "shared_cell": 0}
        for seed in range(6):
            for h, particle in ((0.1, 0), (0.5, 3)):
                drawn = _prepare_block(driver, TR, L.PointMass(x0), make_base_grid(1.0, h),
                                       cs.m, [particle], seed, R.SIGNAL).jump_times[0]
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
        base = make_base_grid(1.0, 0.1)
        drawn = _prepare_block(driver, TR, mu0, base, cs.m, range(self.N), seed,
                               R.SIGNAL).jump_times
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
        on_grid = sum(np.isin(t, grid).sum() for t in inp.jump_times)
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
    """AtomicLevyMeasure.constant_first_moment_upper gives the row that
    first_moment_upper returns at every radius, bit for bit, or None."""

    @staticmethod
    def rows(drv, floor):
        radii = np.linalg.norm(drv.atoms, axis=1)
        r = np.concatenate([[floor, 1e-3, 1e9, np.inf], radii, np.nextafter(radii, 0.0)])
        return drv.first_moment_upper(floor, r)

    def test_symmetric_driver_has_the_zero_row(self):
        drv = AtomicLevyMeasure([[0.9, 0.2], [-0.9, -0.2], [0.2, -0.1], [-0.2, 0.1]],
                                [1.5, 1.5, 1.0, 1.0])
        c = drv.constant_first_moment_upper(0.0)
        assert c.tobytes() == np.zeros(2).tobytes()
        rows = self.rows(drv, 0.0)
        assert rows.tobytes() == np.tile(c, (len(rows), 1)).tobytes()

    def test_the_empty_band_row_counts(self):
        # every nonempty band holds the one atom; the empty band gives 0
        assert AtomicLevyMeasure([[0.9]], [1.0]).constant_first_moment_upper(0.0) is None

    def test_minus_zero_differs_from_plus_zero(self):
        # a zero-mass negative atom makes the prefix -0.0, which is == 0.0
        drv = AtomicLevyMeasure([[-0.5]], [0.0])
        assert np.all(self.rows(drv, 0.0) == 0.0)
        assert drv.constant_first_moment_upper(0.0) is None

    def test_rows_start_at_the_sampling_floor(self):
        drv = AtomicLevyMeasure([[0.25], [0.75], [-0.75]], [1.0, 1.0, 1.0])
        assert drv.constant_first_moment_upper(0.0) is None
        assert drv.constant_first_moment_upper(0.5).tobytes() == np.zeros(1).tobytes()
        # 0.1 + 0.9 - 0.9 rounds away from 0.1, so above a floor of 0.2 the
        # band moment is not exactly 0
        drv = AtomicLevyMeasure([[0.1], [0.9], [-0.9]], [1.0, 1.0, 1.0])
        assert np.any(self.rows(drv, 0.2) != 0.0)
        assert drv.constant_first_moment_upper(0.2) is None

    def test_non_atomic_driver_has_no_constant_row(self):
        assert L.exponential_tails_1d().constant_first_moment_upper(0.0) is None


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
        assert ens.trunc_report["discarded_second_moment"] == pytest.approx(
            quad_radial(lambda r: r * r, lambda r: 0.5 * r ** -1.5, 0.0, 0.02),
            rel=1e-9)

    def test_exact_mode_requires_finite_activity(self):
        cs = L.coefficients_from_config({"name": "zero", "d": 1, "m": 1, "gamma": 1.0})
        drv = L.power_law_tails_1d(exponent=1.5)
        with pytest.raises(Exception, match="infinite activity"):
            L.simulate_ensemble(cs, drv, TruncationConfig(level=0.5),
                                L.PointMass([0.0]), 10, 0.1, 1.0, seed=1)

    def test_marginal_law(self):
        cs = L.coefficients_from_config({"name": "zero", "d": 1, "m": 1})
        ens = L.simulate_ensemble(cs, NO_JUMPS, TR, L.PointMass([2.0]), 50, 0.1,
                                  1.0, seed=4)
        law = ens.marginal(0.55)
        assert np.all(law.points == 2.0)
        assert law.weights.sum() == pytest.approx(1.0)
        with pytest.raises(SimulationError):
            L.PathEnsemble(ens.times, ens.values[:0], [], []).marginal(0.5)

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
        # Gaussian start, DRIVER for the jump atoms, BROWNIAN for the rows
        drv = L.AtomicLevyMeasure([[0.9], [-0.9]], [2.0, 2.0])
        law = L.GaussianLaw([0.5, -1.0], [1.0, 0.3])
        grid = make_base_grid(1.0, 0.1)
        particles = range(3, 10)
        inp = _prepare_block(drv, TR, law, grid, 2, particles, 17, R.FILTER)
        rows = 0
        for j, p in enumerate(particles):
            z = R.stream(17, R.INIT, p, R.FILTER).standard_normal(2)
            assert inp.x0[j].tobytes() == (law.mean + law.std * z).tobytes()
            ev = sample_jump_events(drv, (0.0, math.inf), 1.0,
                                    R.stream(17, R.DRIVER, p, R.FILTER))
            assert inp.jump_times[j].tobytes() == ev.times.tobytes()
            assert inp.jump_marks[j].tobytes() == ev.marks.tobytes()
            n_rows = grid.size - 1 + np.count_nonzero(~np.isin(ev.times, grid))
            want = R.stream(17, R.BROWNIAN, p, R.FILTER).standard_normal((n_rows, 2))
            assert inp.offsets[j] == rows
            assert inp.noise[rows:rows + n_rows].tobytes() == want.tobytes()
            rows += n_rows
        assert inp.noise.shape == (rows, 2)
        assert sum(len(t) for t in inp.jump_times) > len(particles)

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
            assert [t.tobytes() for t in a.jump_times] == \
                [t.tobytes() for t in b.jump_times]
            assert [z.tobytes() for z in a.jump_marks] == \
                [z.tobytes() for z in b.jump_marks]

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
                  sch.tail_start] + inp.jump_times + inp.jump_marks
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
        first = _prepare_block(drv, TR, law, base, 1, range(6), 13, R.FILTER)
        taken = np.concatenate([t[::2] for t in first.jump_times])
        assert taken.size
        grid = np.union1d(base, taken)
        inp = _prepare_block(drv, TR, law, grid, 1, range(6), 13, R.FILTER)
        rows = [grid.size - 1 + np.count_nonzero(~np.isin(t, grid))
                for t in inp.jump_times]
        assert inp.offsets.tolist() == np.cumsum([0] + rows[:-1]).tolist()
        assert inp.noise.shape[0] == sum(rows)
        assert sum(rows) < 6 * (grid.size - 1) + sum(len(t) for t in inp.jump_times)

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
        assert [t.tobytes() for t in a.jump_times] == [t.tobytes() for t in b.jump_times]
        assert [z.tobytes() for z in a.jump_marks] == [z.tobytes() for z in b.jump_marks]

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
        assert [t.tobytes() for t in thin.jump_times] == [t.tobytes() for t in full.jump_times]
        assert [z.tobytes() for z in thin.jump_marks] == [z.tobytes() for z in full.jump_marks]
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

    def test_pool_block_returns_only_the_kept_slices(self):
        fam = L.family_from_config(self.FAMILY)
        # grid[6] = 6/20 and grid[14] round above 0.3 and 0.7
        keep = engine.kept_slices(self.GRID, [0.3, 0.7, 1.0])
        assert keep.tolist() == [0, 5, 13, 20]
        out, jt, jm = engine._pool_block((self.FAMILY, self.DRIVER, TR, self.MU0,
                                          self.GRID, keep, range(3, 40), 13, R.SIGNAL))
        assert out.shape == (4, 37, keep.size, 2)
        full_members, full_limit = self.family(fam)
        for vals, ens in zip(out, [*full_members.values(), full_limit]):
            assert vals.tobytes() == ens.values[3:40, keep].tobytes()
        assert [t.tobytes() for t in jt] == [t.tobytes() for t in full_limit.jump_times[3:40]]

    @pytest.mark.parametrize("workers, sizes", [(2, [37, 38, 37, 38]), (3, [50, 50, 50])])
    def test_pool_blocks_are_balanced(self, monkeypatch, workers, sizes):
        # a multiple of workers of near-equal blocks, none over block_size 64
        seen = []

        class InProcessPool:
            def __init__(self, max_workers):
                pass

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
        self.same(self.family(fam, block_size=64, workers=workers)[1], want)
        assert seen == sizes

    def test_hand_built_coefficients_run_in_process(self, monkeypatch):
        # closures without a registry config cannot be rebuilt in a worker,
        # so workers > 1 must run them here, with the same bits
        A = np.array([[-1.0, 0.3], [0.2, -0.7]])
        cs = L.CoefficientSet(
            b=lambda t, x: np.atleast_2d(x) * np.diag(A),
            sigma=lambda t, x: np.broadcast_to(0.4 * np.eye(2),
                                               (np.atleast_2d(x).shape[0], 2, 2)),
            d=2, m=2, gamma=0.5)
        fam = L.CoefficientFamily(limit=cs, members={2: cs})
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
        assert fam.config is None
        want_members, want_limit = self.family(fam, block_size=64)
        members, limit = self.family(fam, block_size=64, workers=2)
        for n in members:
            self.same(members[n], want_members[n])
        self.same(limit, want_limit)
        assert limit.values.tobytes() != self.family(L.family_from_config(
            self.FAMILY), block_size=64)[1].values.tobytes()
