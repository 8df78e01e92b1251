import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levylab as L
from levylab import experiments
from levylab.convergence import (ConvergenceError, EmpiricalDistanceConfig,
                                 bl_distance_coupled, default_bl_dictionary,
                                 density_sup_estimate, enforce_level_bound,
                                 gronwall_check, lyapunov_moment,
                                 tightness_diagnostics)
from levylab.manifests import RunManifest
from levylab.measures import TruncationConfig
from levylab.psi import construct_psi, identity_psi

from oracles import bl_gap_normal_oracle

GAUSSIAN = {"name": "gaussian", "params": {"mean": [0.0], "std": [0.5]}}


class TestBlDistance:
    def test_identical_clouds_zero(self):
        cfg = default_bl_dictionary(1)
        pts = np.random.default_rng(0).normal(size=(200, 1))
        assert bl_distance_coupled(pts, pts, cfg) == (0.0, 0.0)

    def test_point_masses(self):
        cfg = default_bl_dictionary(1)
        a, b = np.zeros((4, 1)), np.full((4, 1), 8.0)
        d, se = bl_distance_coupled(a, b, cfg)
        assert 0.0 < d <= 2.0 and se == 0.0
        # a unit hat centered at 0 separates the two by exactly 1
        hat = EmpiricalDistanceConfig(
            [("hat0", lambda x: np.maximum(0.0, 1.0 - np.abs(np.atleast_2d(x)[:, 0])))])
        hat.validate(1)
        assert bl_distance_coupled(a, b, hat) == (1.0, 0.0)

    def test_matches_quadrature_oracle_for_normals(self):
        cfg = default_bl_dictionary(1)
        rng = np.random.default_rng(3)
        n = 100_000
        a = rng.normal(0.0, 1.0, size=(n, 1))
        b = rng.normal(0.5, 1.0, size=(n, 1))
        got, _ = bl_distance_coupled(a, b, cfg)
        want = bl_gap_normal_oracle(cfg.dictionary, 0.0, 0.5)
        assert abs(got - want) <= 3.5 * 2.0 / math.sqrt(n)

    def test_se_is_that_of_the_argmax_entry(self):
        cfg = default_bl_dictionary(2)
        rng = np.random.default_rng(12)
        n = 500
        a = rng.normal(size=(n, 2))
        b = a + rng.normal(0.3, 0.5, size=(n, 2))
        diffs = [fn(a) - fn(b) for _, fn in cfg.dictionary]
        k = int(np.argmax([abs(float(diff.mean())) for diff in diffs]))
        assert bl_distance_coupled(a, b, cfg) == (
            abs(float(diffs[k].mean())), float(diffs[k].std(ddof=1) / math.sqrt(n)))
        d, se = bl_distance_coupled(a[:1], b[:1], cfg)
        assert d > 0.0 and se == 0.0

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
        a = rng.normal(size=(64, 1))
        b = shift + scale * rng.normal(size=(64, 1))
        c = rng.normal(1.0, 1.0, size=(64, 1))
        (dab, _), (dba, _) = bl_distance_coupled(a, b, cfg), bl_distance_coupled(b, a, cfg)
        assert dab == dba
        assert dab <= 2.0
        assert (bl_distance_coupled(a, c, cfg)[0]
                <= dab + bl_distance_coupled(b, c, cfg)[0] + 1e-12)


class TestLyapunovAndTightness:
    def test_constant_zero_paths(self):
        times = np.linspace(0, 1, 11)
        values = np.zeros((40, 11, 1))
        ens = L.PathEnsemble(times, values)
        m, se = lyapunov_moment(ens, identity_psi())
        assert m == 0.0

    def test_constant_paths_at_known_radius(self):
        # |x| = sqrt(e - 1): log(1 + |x|^2) = 1, so the statistic is exactly 1
        times = np.linspace(0, 1, 6)
        values = np.full((10, 6, 1), math.sqrt(math.e - 1.0))
        ens = L.PathEnsemble(times, values)
        m, se = lyapunov_moment(ens, identity_psi())
        assert m == pytest.approx(1.0, rel=1e-12)

    def test_tightness_trivial_cases(self):
        times = np.linspace(0, 1, 11)
        values = np.full((30, 11, 1), 0.5)
        ens = L.PathEnsemble(times, values)
        rep = tightness_diagnostics({"0": ens}, K_grid=[0.4, 0.6, 1.0],
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
        rep = tightness_diagnostics({"0": ens_a}, K_grid=[1.0, 2.0, 3.0],
                                    theta_grid=[0.1], N_threshold=1.0)
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

    def test_stopping_time_tau(self):
        # the lemma at a stopping time: tau at the grid's end is the default,
        # and a shared tau = grid[k] is the check of the paths cut at column k
        rng = np.random.default_rng(29)
        grid = np.linspace(0, 1, 51)
        R = 64
        xi = np.abs(rng.normal(1.0, 0.5, size=(R, 51))).cumsum(axis=1) * 0.05
        A = np.cumsum(np.minimum(0.04 * np.abs(rng.normal(size=(R, 51))), 1.0), axis=1)
        A -= A[:, :1]
        M = np.cumsum(rng.choice([-1.0, 1.0], size=(R, 51)) * 0.2, axis=1)
        M -= M[:, :1]
        integ = np.zeros_like(xi)
        integ[:, 1:] = np.cumsum(xi[:, 1:] * np.diff(A, axis=1), axis=1)
        eta = np.maximum(xi - integ - M, 0.0)
        full = gronwall_check(xi, eta, A, M, 0.8, 0.3, grid)
        assert gronwall_check(xi, eta, A, M, 0.8, 0.3, grid, tau=grid[-1]) == full
        for k in (0, 17, 50):
            cut = [z[:, :k + 1] for z in (xi, eta, A, M)]
            want = gronwall_check(*cut, 0.8, 0.3, grid[:k + 1])
            assert gronwall_check(xi, eta, A, M, 0.8, 0.3, grid, tau=grid[k]) == want, k

    def test_bad_exponents_rejected(self):
        grid = np.linspace(0, 1, 5)
        z = np.zeros((1, 5))
        with pytest.raises(ConvergenceError):
            gronwall_check(z, z, z, z, 0.5, 0.9, grid)


class TestLimitExperiment:
    """The `limit` kind's runner on manifests of a perturbed OU family."""

    def manifest(self, mu0, n, h, T, seed, amp=1.0, gamma_pert=0.5, level=0.3, **spec):
        return RunManifest(
            kind="limit", seed=seed, T=T, h=h, n_particles=n,
            spec={"family": {"base": {"name": "ou", "d": 1, "m": 1,
                                      "params": {"theta": 1.0, "sigma": math.sqrt(2.0)},
                                      "gamma": 0.5, "growth_bound": 4.0},
                             "drift_perturbation": {"name": "sine", "amp": amp},
                             "gamma_perturbation": gamma_pert,
                             "schedule": [1, 2, 4, 8]},
                  "driver": {"name": "atomic",
                             "params": {"atoms": [[0.9], [-0.9]], "masses": [0.3, 0.3]}},
                  "truncation": {"level": level},
                  "mu0": mu0, **spec})

    def run(self, man):
        tables, verdicts = experiments.run_limit(man, man.seed, workers=1)
        return tables["distances"][1], verdicts

    def test_trivial_family_all_zero(self):
        rows, verdicts = self.run(self.manifest(
            {"name": "point", "params": {"x0": [0.2]}}, 400, 0.05, 0.5, seed=3,
            amp=0.0, gamma_pert=0.0))
        assert all(distance == 0.0 for _, distance, _, _ in rows)
        assert verdicts["limit_pass"]

    def test_perturbed_family_decreasing(self):
        rows, verdicts = self.run(self.manifest(GAUSSIAN, 3000, 0.02, 1.0, seed=4))
        ds = [distance for _, distance, _, _ in rows]
        assert verdicts["non_increasing"]
        assert ds[-1] < ds[0]
        assert all(math.isfinite(dens) for _, _, _, dens in rows)

    def test_checkpoint_slices_give_the_full_path_rows(self, monkeypatch):
        # the family records only the checkpoints' slices; the rows must be
        # those of the full paths, bit for bit.  h = 0.03 over T = 0.7 puts
        # the checkpoints 0.1, 0.2, ... off the grid
        man = self.manifest(GAUSSIAN, 500, 0.03, 0.7, seed=5, n_checkpoints=7)
        thinned, _ = self.run(man)
        asked = []
        simulate = experiments.simulate_coupled_family

        def full_paths(*a, record_times=None, **kw):
            asked.append(record_times)
            return simulate(*a, **kw)

        monkeypatch.setattr(experiments, "simulate_coupled_family", full_paths)
        full, _ = self.run(man)
        assert len(asked) == 1
        assert np.array_equal(asked[0], np.linspace(0.7 / 7, 0.7, 7))
        assert full == thinned

    def test_level_bound_enforced(self):
        # gamma_sup = 1.0 -> level must be <= 0.7071
        man = self.manifest({"name": "point", "params": {"x0": [0.0]}}, 10, 0.1, 0.5,
                            seed=1, level=1.0)
        with pytest.raises(ConvergenceError, match="exceeds"):
            self.run(man)
        enforce_level_bound(0.5, 1.0)  # fine


def test_density_sup_estimate_sane():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50_000, 1))
    est = density_sup_estimate(x)
    assert est == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=0.1)
