import math

import numpy as np
import pytest
from scipy import stats

import levylab as L
from levylab import rng as R
from levylab.engine import BlockMarch, SimulationError, _prepare_block, make_base_grid
from levylab.measures import TruncationConfig

from oracles import ou_euler_chain_variance, quad_radial


def ou_coeffs(theta=1.0, sigma=math.sqrt(2.0), gamma=0.0, bound=4.0):
    return L.coefficients_from_config({
        "name": "ou", "d": 1, "m": 1,
        "params": {"theta": theta, "sigma": sigma},
        "gamma": gamma, "growth_bound": bound})


NO_JUMPS = L.zero_measure(1)
TR = TruncationConfig(level=0.5)


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
        law = L.marginal_law(ens, 0.55)
        assert np.all(law.points == 2.0)
        assert law.weights.sum() == pytest.approx(1.0)
        with pytest.raises(SimulationError):
            L.marginal_law(L.PathEnsemble(ens.times, ens.values[:0], [], []), 0.5)

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

    def test_block_size_invariance(self):
        cs = ou_coeffs(gamma=0.5)
        drv = L.AtomicLevyMeasure([[0.9], [-0.9]], [0.3, 0.3])
        a = L.simulate_ensemble(cs, drv, TR, L.GaussianLaw([0.0], [1.0]), 300,
                                0.05, 1.0, seed=13, block_size=64)
        b = L.simulate_ensemble(cs, drv, TR, L.GaussianLaw([0.0], [1.0]), 300,
                                0.05, 1.0, seed=13, block_size=4096)
        assert np.array_equal(a.values, b.values)

    def test_block_inputs_read_only(self):
        # marches share one draw, so the draw must reject writes
        drv = L.AtomicLevyMeasure([[0.9], [-0.9]], [2.0, 2.0])
        grid = make_base_grid(1.0, 0.1)
        inp = _prepare_block(drv, TR, L.GaussianLaw([0.0], [1.0]), grid, 1,
                             range(4, 9), 13, R.FILTER)
        assert inp.ev_time.size and inp.particles.tolist() == [4, 5, 6, 7, 8]
        arrays = [inp.particles, inp.x0, inp.ev_particle, inp.ev_time, inp.ev_mark,
                  inp.ev_cell, inp.noise, inp.offsets] + inp.jump_times + inp.jump_marks
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        BlockMarch(ou_coeffs(gamma=0.5), drv, TR, grid, inp).run()

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


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        cs = ou_coeffs(gamma=0.3)
        drv = L.AtomicLevyMeasure([[1.2]], [0.4])
        ens = L.simulate_ensemble(cs, drv, TR, L.GaussianLaw([0.0], [1.0]), 50,
                                  0.1, 1.0, seed=77)
        path = tmp_path / "ens.bin"
        ens.save(str(path))
        back = L.PathEnsemble.load(str(path))
        assert np.array_equal(back.values, ens.values)
        assert np.array_equal(back.times, ens.times)
