import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import levylab as L
from levylab import engine
from levylab.convergence import (ConvergenceError, EmpiricalDistanceConfig,
                                 bl_distance, default_bl_dictionary,
                                 density_sup_estimate, enforce_level_bound,
                                 gronwall_check, limit_experiment,
                                 lyapunov_moment, tightness_diagnostics)
from levylab.engine import EnsembleLaw
from levylab.measures import TruncationConfig
from levylab.psi import construct_psi, identity_psi

from oracles import bl_gap_normal_oracle


class TestBlDistance:
    def test_identical_clouds_zero(self):
        cfg = default_bl_dictionary(1)
        pts = np.random.default_rng(0).normal(size=(200, 1))
        law = EnsembleLaw.equal_weight(pts, 0.0)
        assert bl_distance(law, law, cfg) == 0.0

    def test_point_masses(self):
        cfg = default_bl_dictionary(1)
        a = EnsembleLaw.equal_weight(np.zeros((4, 1)), 0.0)
        b = EnsembleLaw.equal_weight(np.full((4, 1), 8.0), 0.0)
        d = bl_distance(a, b, cfg)
        assert 0.0 < d <= 2.0
        # a unit hat centered at 0 separates the two by exactly 1
        hat = EmpiricalDistanceConfig(
            [("hat0", lambda x: np.maximum(0.0, 1.0 - np.abs(np.atleast_2d(x)[:, 0])))])
        hat.validate(1)
        assert bl_distance(a, b, hat) == 1.0

    def test_matches_quadrature_oracle_for_normals(self):
        cfg = default_bl_dictionary(1)
        rng = np.random.default_rng(3)
        n = 100_000
        a = EnsembleLaw.equal_weight(rng.normal(0.0, 1.0, size=(n, 1)), 0.0)
        b = EnsembleLaw.equal_weight(rng.normal(0.5, 1.0, size=(n, 1)), 0.0)
        got = bl_distance(a, b, cfg)
        want = bl_gap_normal_oracle(cfg.dictionary, 0.0, 0.5)
        assert abs(got - want) <= 3.5 * 2.0 / math.sqrt(n)

    def test_dimension_mismatch(self):
        cfg = default_bl_dictionary(1)
        a = EnsembleLaw.equal_weight(np.zeros((4, 1)), 0.0)
        b = EnsembleLaw.equal_weight(np.zeros((4, 2)), 0.0)
        with pytest.raises(ConvergenceError):
            bl_distance(a, b, cfg)

    def test_dictionary_validation_rejects_violations(self):
        too_big = EmpiricalDistanceConfig([("bad", lambda x: 2.0 * np.tanh(
            np.atleast_2d(x)[:, 0]))])
        with pytest.raises(ConvergenceError, match="bound"):
            too_big.validate(1)
        too_steep = EmpiricalDistanceConfig([("bad", lambda x: np.sin(
            5.0 * np.atleast_2d(x)[:, 0]))])
        with pytest.raises(ConvergenceError, match="Lipschitz"):
            too_steep.validate(1)

    @given(shift=st.floats(-3, 3), scale=st.floats(0.1, 2.0),
           seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_pseudometric_properties(self, shift, scale, seed):
        cfg = default_bl_dictionary(1)
        rng = np.random.default_rng(seed)
        a = EnsembleLaw.equal_weight(rng.normal(size=(64, 1)), 0.0)
        b = EnsembleLaw.equal_weight(shift + scale * rng.normal(size=(64, 1)), 0.0)
        c = EnsembleLaw.equal_weight(rng.normal(1.0, 1.0, size=(64, 1)), 0.0)
        dab, dba = bl_distance(a, b, cfg), bl_distance(b, a, cfg)
        assert dab == dba
        assert dab <= 2.0
        assert bl_distance(a, c, cfg) <= dab + bl_distance(b, c, cfg) + 1e-12

    def test_wasserstein_mode(self):
        cfg = EmpiricalDistanceConfig([], mode="wasserstein1_marginal")
        a = EnsembleLaw.equal_weight(np.zeros((10, 1)), 0.0)
        b = EnsembleLaw.equal_weight(np.full((10, 1), 0.7), 0.0)
        assert bl_distance(a, b, cfg) == pytest.approx(0.7)

    # integer points make ties within and across the samples; a weight may be 0
    @settings(max_examples=60)
    @given(data=st.data())
    def test_wasserstein_mode_against_scipy(self, data):
        cfg = EmpiricalDistanceConfig([], mode="wasserstein1_marginal")
        laws = []
        for _ in range(2):
            n = data.draw(st.integers(1, 40))
            points = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
            weights = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.25]),
                                         min_size=n, max_size=n)
                                .filter(lambda w: sum(w) > 0))
            laws.append(EnsembleLaw(np.array(points, dtype=float)[:, None],
                                    np.array(weights), 0.0))
        want = stats.wasserstein_distance(laws[0].points[:, 0], laws[1].points[:, 0],
                                          laws[0].weights, laws[1].weights)
        assert bl_distance(*laws, cfg) == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestLyapunovAndTightness:
    def test_constant_zero_paths(self):
        times = np.linspace(0, 1, 11)
        values = np.zeros((40, 11, 1))
        ens = L.PathEnsemble(times, values, [None] * 40, [None] * 40)
        m, se = lyapunov_moment(ens, identity_psi())
        assert m == 0.0

    def test_constant_paths_at_known_radius(self):
        # |x| = sqrt(e - 1): log(1 + |x|^2) = 1, so the statistic is exactly 1
        times = np.linspace(0, 1, 6)
        values = np.full((10, 6, 1), math.sqrt(math.e - 1.0))
        ens = L.PathEnsemble(times, values, [None] * 10, [None] * 10)
        m, se = lyapunov_moment(ens, identity_psi())
        assert m == pytest.approx(1.0, rel=1e-12)

    def test_tightness_trivial_cases(self):
        times = np.linspace(0, 1, 11)
        values = np.full((30, 11, 1), 0.5)
        ens = L.PathEnsemble(times, values, [None] * 30, [None] * 30)
        rep = tightness_diagnostics({"0": ens}, identity_psi(),
                                    K_grid=[0.4, 0.6, 1.0],
                                    theta_grid=[0.2, 0.1], N_threshold=0.1)
        assert rep.sup_tail[0][1] == 1.0     # below the constant radius
        assert rep.sup_tail[1][1] == 0.0     # above it
        assert all(p == 0.0 for _, p in rep.increment_tail)
        assert rep.increment_tail_decays

    def test_sup_tail_cross_checked_against_independent_estimate(self):
        # family tail probabilities agree with a direct estimate from an
        # independently seeded ensemble of the same dynamics
        cs = L.coefficients_from_config({
            "name": "ou", "d": 1, "m": 1,
            "params": {"theta": 1.0, "sigma": 1.0},
            "gamma": 0.4, "growth_bound": 4.0})
        drv = L.AtomicLevyMeasure([[0.8]], [0.4])
        tr = TruncationConfig(level=0.5)
        mu0 = L.GaussianLaw([0.0], [0.5])
        n = 4000
        ens_a = L.simulate_ensemble(cs, drv, tr, mu0, n, 0.02, 1.0, seed=100)
        ens_b = L.simulate_ensemble(cs, drv, tr, mu0, n, 0.02, 1.0, seed=200)
        rep = tightness_diagnostics({"0": ens_a}, identity_psi(),
                                    K_grid=[1.0, 2.0, 3.0], theta_grid=[0.1],
                                    N_threshold=1.0)
        sup_b = np.linalg.norm(ens_b.values, axis=2).max(axis=1)
        for K, p in rep.sup_tail:
            direct = float(np.mean(sup_b > K))
            se = math.sqrt(max(direct * (1 - direct), 1e-4) / n)
            assert abs(p - direct) <= 3.5 * se * math.sqrt(2.0)
        assert rep.sup_tail_decays

    def test_moment_bound_stable_across_family(self):
        fam = L.family_from_config({
            "base": {"name": "ou", "d": 1, "m": 1,
                     "params": {"theta": 1.0, "sigma": 1.0},
                     "gamma": 0.4, "growth_bound": 4.0},
            "drift_perturbation": {"name": "sine", "amp": 1.0},
            "schedule": [1, 4, 16]})
        drv = L.AtomicLevyMeasure([[0.8], [-0.8]], [0.3, 0.3])
        members, limit = L.simulate_coupled_family(
            fam, drv, TruncationConfig(level=0.5), L.GaussianLaw([0.0], [0.5]),
            4000, 0.02, 1.0, seed=9)
        psi = construct_psi(members[1].values[:, 0, :])
        member_stats = {n: lyapunov_moment(members[n], psi) for n in sorted(members)}
        lim_mean, _ = lyapunov_moment(limit, psi)
        means = [m for m, _ in member_stats.values()] + [lim_mean]
        assert all(math.isfinite(m) for m in means)
        # uniformly bounded across the family: no growth with n
        assert max(means) - min(means) <= 0.15 * lim_mean
        gaps = [abs(member_stats[n][0] - lim_mean) for n in sorted(member_stats)]
        assert gaps == sorted(gaps, reverse=True)


class TestGronwall:
    def test_exponential_equality_case(self):
        grid = np.linspace(0.0, 1.0, 401)
        xi = np.exp(grid)[None, :]
        eta = np.ones_like(xi)
        A = grid[None, :].copy()
        M = np.zeros_like(xi)
        for p, q in [(0.9, 0.5), (0.5, 0.25)]:
            res = gronwall_check(xi, eta, A, M, p, q, grid)
            lhs_exact = math.e
            rhs_exact = (p / (p - q)) ** (1.0 / q) * math.exp(1.0)
            assert abs(res.lhs - lhs_exact) <= 1e-10
            assert abs(res.rhs - rhs_exact) <= 1e-10
            assert res.lhs <= res.rhs
            assert res.passed

    def test_zero_processes(self):
        grid = np.linspace(0, 1, 11)
        z = np.zeros((3, 11))
        res = gronwall_check(z, z, z, z, 0.7, 0.3, grid)
        assert res.lhs == 0.0 and res.passed

    def test_constant_case_factor(self):
        grid = np.linspace(0, 1, 21)
        c = 2.5
        xi = np.full((5, 21), c)
        eta = np.full((5, 21), c)
        A = np.zeros((5, 21))
        M = np.zeros((5, 21))
        res = gronwall_check(xi, eta, A, M, 0.9, 0.5, grid)
        assert res.lhs == pytest.approx(c, rel=1e-12)
        assert res.rhs == pytest.approx((0.9 / 0.4) ** 2 * c, rel=1e-12)
        assert res.passed

    def test_hypothesis_violation_rejected_with_witness(self):
        grid = np.linspace(0, 1, 11)
        xi = np.ones((2, 11))
        eta = np.zeros((2, 11))
        A = np.zeros((2, 11))
        M = np.zeros((2, 11))
        with pytest.raises(ConvergenceError, match="violated on path"):
            gronwall_check(xi, eta, A, M, 0.9, 0.5, grid)

    def test_randomized_instances_never_violate(self):
        # eta is defined as the positive part of the defect, so the
        # hypothesis holds by construction; the bound must then hold
        rng = np.random.default_rng(12)
        grid = np.linspace(0, 1, 51)
        for batch in range(20):
            R = 64
            xi = np.abs(rng.normal(1.0, 0.5, size=(R, 51))).cumsum(axis=1) * 0.05
            A = np.minimum(0.04 * np.abs(rng.normal(size=(R, 51))), 1.0)
            A[:, 0] = 0.0
            A = np.cumsum(A, axis=1)
            steps = rng.choice([-1.0, 1.0], size=(R, 51)) * 0.2
            steps[:, 0] = 0.0
            M = np.cumsum(steps, axis=1)
            integ = np.zeros_like(xi)
            integ[:, 1:] = np.cumsum(xi[:, 1:] * np.diff(A, axis=1), axis=1)
            eta = np.maximum(xi - integ - M, 0.0)
            p = rng.uniform(0.55, 0.95)
            q = rng.uniform(0.1, 0.9) * p
            res = gronwall_check(xi, eta, A, M, p, q, grid)
            assert res.lhs <= res.rhs + 3.0 * (res.lhs_se + res.rhs_se), batch

    def test_bad_exponents_rejected(self):
        grid = np.linspace(0, 1, 5)
        z = np.zeros((1, 5))
        with pytest.raises(ConvergenceError):
            gronwall_check(z, z, z, z, 0.5, 0.9, grid)


class TestLimitExperiment:
    def family(self, amp=1.0, gamma_pert=0.5):
        return L.family_from_config({
            "base": {"name": "ou", "d": 1, "m": 1,
                     "params": {"theta": 1.0, "sigma": math.sqrt(2.0)},
                     "gamma": 0.5, "growth_bound": 4.0},
            "drift_perturbation": {"name": "sine", "amp": amp},
            "gamma_perturbation": gamma_pert,
            "schedule": [1, 2, 4, 8]})

    def test_trivial_family_all_zero(self):
        fam = self.family(amp=0.0, gamma_pert=0.0)
        drv = L.AtomicLevyMeasure([[0.9], [-0.9]], [0.3, 0.3])
        rep = limit_experiment(fam, drv, TruncationConfig(level=0.3),
                               L.PointMass([0.2]), 400, 0.05, 0.5, seed=3)
        assert all(r["distance"] == 0.0 for r in rep.rows)
        assert rep.passed

    def test_perturbed_family_decreasing(self):
        fam = self.family()
        drv = L.AtomicLevyMeasure([[0.9], [-0.9]], [0.3, 0.3])
        rep = limit_experiment(fam, drv, TruncationConfig(level=0.3),
                               L.GaussianLaw([0.0], [0.5]), 3000, 0.02, 1.0,
                               seed=4)
        ds = [r["distance"] for r in rep.rows]
        assert rep.non_increasing
        assert ds[-1] < ds[0]
        assert all(math.isfinite(r["density_sup"]) for r in rep.rows)

    def test_checkpoint_slices_give_the_full_path_rows(self, monkeypatch):
        # the family records only the checkpoints' slices; the rows must be
        # those of the full paths, bit for bit.  h = 0.03 over T = 0.7 puts
        # the checkpoints 0.1, 0.2, ... off the grid
        args = (self.family(), L.AtomicLevyMeasure([[0.9], [-0.9]], [0.3, 0.3]),
                TruncationConfig(level=0.3), L.GaussianLaw([0.0], [0.5]), 500, 0.03, 0.7)
        thinned = limit_experiment(*args, seed=5, n_checkpoints=7)
        asked = []
        simulate = engine.simulate_coupled_family

        def full_paths(*a, record_times=None, **kw):
            asked.append(record_times)
            return simulate(*a, **kw)

        monkeypatch.setattr(engine, "simulate_coupled_family", full_paths)
        full = limit_experiment(*args, seed=5, n_checkpoints=7)
        assert len(asked) == 1 and len(asked[0]) == 7
        assert full.rows == thinned.rows
        assert np.array_equal(full.checkpoints, thinned.checkpoints)

    def test_level_bound_enforced(self):
        fam = self.family()   # gamma_sup = 1.0 -> level must be <= 0.7071
        drv = L.AtomicLevyMeasure([[0.9]], [0.3])
        with pytest.raises(ConvergenceError, match="exceeds"):
            limit_experiment(fam, drv, TruncationConfig(level=1.0),
                             L.PointMass([0.0]), 10, 0.1, 0.5, seed=1)
        enforce_level_bound(0.5, 1.0)  # fine


def test_density_sup_estimate_sane():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50_000, 1))
    est = density_sup_estimate(x)
    assert est == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=0.1)
