import math

import numpy as np
import pytest

import levylab as L
from levylab import rng as R
from levylab.filtering import (FilterError, ObservationRecord, ObservationSetup,
                               compensated_log_jump_statistic, filter_run,
                               hypothesis_checks_h_lambda,
                               lambda_from_config, log_likelihood,
                               loglik_cell_increments,
                               observation_model_from_config,
                               robustness_experiment)
from levylab.measures import TruncationConfig

from oracles import discrete_kalman, riccati_closed_form

TR = TruncationConfig(level=0.5)


def make_model(sensor="identity", lam=("constant", {"c": 0.5}),
               nu2=None, u0=(0.0, 1.0)):
    if nu2 is None:
        nu2 = {"name": "atomic", "params": {"atoms": [[0.3], [-0.5], [1.8]],
                                            "masses": [0.8, 0.7, 0.4]}}
    return observation_model_from_config({
        "sensor": {"name": sensor} if isinstance(sensor, str) else sensor,
        "lambda": {"name": lam[0], "params": lam[1]},
        "nu2": nu2,
        "u0_region": list(u0)})


def ou_dynamics(theta=1.0, sigma=1.0, gamma=0.0):
    return L.coefficients_from_config({
        "name": "ou", "d": 1, "m": 1,
        "params": {"theta": theta, "sigma": sigma},
        "gamma": gamma, "growth_bound": 4.0})


class TestObservationSimulation:
    def test_no_sensor_no_jumps_pure_brownian(self):
        model = make_model(sensor={"name": "zero", "params": {"k": 1}},
                           nu2={"name": "zero", "params": {"dim": 1}})
        setup = ObservationSetup(model, 1.0, 0.1, seed=5)
        rec = setup.record_for(np.zeros((setup.grid.size, 1)))
        rng = R.stream(5, R.OBS_W, namespace=R.OBSERVATION)
        dts = np.diff(setup.grid)
        want = rng.standard_normal((dts.size, 1)) * np.sqrt(dts)[:, None]
        assert np.array_equal(rec.cont_increments, want)
        assert len(rec.events_band) == 0 and len(rec.events_big) == 0

    def test_thinned_count_mean(self):
        # lambda = c constant, band mass m: accepted count ~ Poisson(c m T)
        c, mass, T = 0.4, 1.5, 2.0
        model = make_model(lam=("constant", {"c": c}),
                           nu2={"name": "atomic",
                                "params": {"atoms": [[0.5]], "masses": [mass]}})
        counts = []
        for i in range(2000):
            setup = ObservationSetup(model, T, 0.25, seed=i)
            rec = setup.record_for(np.zeros((setup.grid.size, 1)))
            counts.append(len(rec.events_band))
        lam = c * mass * T
        assert abs(np.mean(counts) - lam) <= 3 * math.sqrt(lam / len(counts))

    def test_thinning_matches_per_proposal_loop(self):
        # over 256 proposals, so the thinning spans several square blocks
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}),
                           nu2={"name": "atomic",
                                "params": {"atoms": [[0.5], [2.0]],
                                           "masses": [250.0, 150.0]}})
        setup = ObservationSetup(model, 1.0, 0.1, seed=8)
        assert setup.prop_times.size > 256
        sig = np.sin(np.arange(setup.grid.size, dtype=float))[:, None]
        rec = setup.record_for(sig)
        lam = [model.lam(sig[ti][None, :], u[None, :])[0, 0]
               for ti, u in zip(setup._prop_idx, setup.prop_marks)]
        accept = setup.uniforms < np.array(lam)
        assert np.array_equal(rec.events_band.times,
                              setup.prop_times[accept & setup.prop_in_band])
        assert np.array_equal(rec.events_big.times,
                              setup.prop_times[accept & ~setup.prop_in_band])

    def test_sensor_drift_mean(self):
        # E Y_T = x0 (1 - exp(-theta T)) / theta for the mean-reverting signal
        theta, x0, T, h = 1.0, 2.0, 1.0, 0.02
        cs = ou_dynamics(theta=theta, sigma=1.0)
        model = make_model(nu2={"name": "zero", "params": {"dim": 1}})
        tot = []
        for rep in range(300):
            sig = L.simulate_path(cs, L.zero_measure(1), TR, [x0], h, T,
                                  seed=900 + rep)
            setup = ObservationSetup(model, T, h, seed=900 + rep)
            vals = np.vstack([sig.value_at(t) for t in setup.grid])
            rec = setup.record_for(vals)
            tot.append(rec.cont_increments.sum())
        want = x0 * (1.0 - math.exp(-theta * T)) / theta
        se = np.std(tot) / math.sqrt(len(tot))
        assert abs(np.mean(tot) - want) <= 3 * se + 2 * h

    def test_big_jumps_recorded_but_outside_band(self):
        model = make_model(u0=(0.0, 1.0))
        setup = ObservationSetup(model, 4.0, 0.1, seed=1)
        rec = setup.record_for(np.zeros((setup.grid.size, 1)))
        if len(rec.events_big):
            assert np.all(np.linalg.norm(rec.events_big.marks, axis=1) > 1.0)
        assert np.all(np.linalg.norm(rec.events_band.marks, axis=1) <= 1.0)

    def test_simulate_observation_from_path(self):
        cs = ou_dynamics(gamma=0.3)
        drv = L.AtomicLevyMeasure([[0.8]], [0.5])
        model = make_model()
        sig = L.simulate_path(cs, drv, TR, [0.4], 0.01, 1.0, seed=51)
        rec = L.simulate_observation(sig, model, 1.0, 0.05, seed=52,
                                     truth_link="p51")
        assert rec.truth_link == "p51"
        assert rec.cont_increments.shape == (rec.grid.size - 1, 1)
        assert np.all(np.isin(rec.events_band.times, rec.grid))

    def test_record_roundtrip(self):
        model = make_model()
        setup = ObservationSetup(model, 1.0, 0.1, seed=2)
        rec = setup.record_for(np.zeros((setup.grid.size, 1)), "truth-7")
        back = ObservationRecord.from_json(rec.to_json())
        assert np.array_equal(back.grid, rec.grid)
        assert np.array_equal(back.cont_increments, rec.cont_increments)
        assert np.array_equal(back.events_band.times, rec.events_band.times)
        assert back.truth_link == "truth-7"


class TestLogLikelihood:
    def test_compensator_only(self):
        # no sensor, constant lambda, no events: log S_T = (1-c) m T exactly
        c, mass, T = 0.3, 2.0, 1.5
        model = make_model(sensor={"name": "zero", "params": {"k": 1}},
                           lam=("constant", {"c": c}),
                           nu2={"name": "atomic",
                                "params": {"atoms": [[0.4]], "masses": [mass]}})
        grid = np.linspace(0, T, 31)
        rec = ObservationRecord(grid, np.zeros((30, 1)),
                                L.JumpEvents.empty(1), L.JumpEvents.empty(1))
        got = log_likelihood(np.zeros((31, 1)), rec, model)
        assert got == pytest.approx((1 - c) * mass * T, rel=1e-12)

    def test_single_event_formula(self):
        c, mass, T = 0.3, 2.0, 1.0
        model = make_model(sensor={"name": "zero", "params": {"k": 1}},
                           lam=("constant", {"c": c}),
                           nu2={"name": "atomic",
                                "params": {"atoms": [[0.4]], "masses": [mass]}})
        grid = np.sort(np.concatenate([np.linspace(0, T, 21), [0.333]]))
        rec = ObservationRecord(grid, np.zeros((grid.size - 1, 1)),
                                L.JumpEvents(np.array([0.333]), np.array([[0.4]])),
                                L.JumpEvents.empty(1))
        got = log_likelihood(np.zeros((grid.size, 1)), rec, model)
        assert got == pytest.approx(math.log(c) + (1 - c) * mass * T, rel=1e-12)

    def test_event_off_grid_rejected(self):
        model = make_model()
        grid = np.linspace(0, 1, 11)
        rec = ObservationRecord(grid, np.zeros((10, 1)),
                                L.JumpEvents(np.array([0.123]), np.array([[0.4]])),
                                L.JumpEvents.empty(1))
        with pytest.raises(FilterError, match="not aligned"):
            log_likelihood(np.zeros((11, 1)), rec, model)

    def test_lambda_out_of_range_rejected(self):
        model = make_model()
        model.lam = lambda x, U: np.full((np.atleast_2d(x).shape[0],
                                          np.atleast_2d(U).shape[0]), 1.5)
        grid = np.linspace(0, 1, 6)
        rec = ObservationRecord(grid, np.zeros((5, 1)),
                                L.JumpEvents(np.array([0.2]), np.array([[0.4]])),
                                L.JumpEvents.empty(1))
        with pytest.raises(FilterError, match="lambda outside"):
            log_likelihood(np.zeros((6, 1)), rec, model)

    def test_lambda_of_old_shape_rejected(self):
        # lam must return (n, q); one value per state is refused, not broadcast
        model = make_model()
        model.lam = lambda x, U: np.full(np.atleast_2d(x).shape[0], 0.5)
        with pytest.raises(FilterError, match="lambda returned shape"):
            model.band_integral(np.zeros((2, 1)), "one_minus_lambda")

    def test_single_out_of_range_entry_named(self):
        # one bad entry inside the (n, q) matrix: the message names its x and u
        model = make_model(nu2=EIGHT_ATOMS)
        model.lam = lambda x, U: np.where((x == 0.25) & (U.T == -0.41), 1.5, 0.5)
        x = np.array([[-1.0], [0.25], [0.5], [2.0]])
        with pytest.raises(FilterError,
                           match=r"lambda outside \(0,1\): value 1.5 at "
                                 r"x=\[0.25\], u=\[-0.41\]"):
            model.band_integral(x, "one_minus_lambda")


# eight atoms inside the band (0, 1]: enough nodes for ndarray.sum to pair them
EIGHT_ATOMS = {"name": "atomic", "params": {
    "atoms": [[0.05], [-0.12], [0.2], [0.33], [-0.41], [0.57], [0.7], [-0.95]],
    "masses": [0.9, 0.35, 1.7, 0.21, 0.66, 1.3, 0.48, 0.77]}}
EXP_NU2 = {"name": "exponential_tails_1d",
           "params": {"intensity_pos": 1.0, "rate_pos": 2.0}}


def node_by_node(model, term, *xs):
    """The band quadrature as a loop over nodes, one lambda call per node,
    with the state_logistic intensity written per mark (base 0.8, decay 0.5)."""
    def lam(x, u):
        s = 1.0 / (1.0 + np.exp(-np.linalg.norm(x, axis=1)))
        return float(0.8 * np.exp(-0.5 * np.linalg.norm(u[None, :], axis=1))[0]) * s

    nodes, weights = model._quad_nodes()
    out = np.zeros(xs[0].shape[0])
    for u, w in zip(nodes, weights):
        out += w * term(*(lam(x, u) for x in xs))
    return out


class TestBandQuadrature:
    @pytest.mark.parametrize("n", [1, 300])
    @pytest.mark.parametrize("nu2", [None, EIGHT_ATOMS, EXP_NU2],
                             ids=["three-atoms", "eight-atoms", "exponential"])
    def test_matches_node_by_node_loop_bitwise(self, nu2, n):
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}),
                           nu2=nu2)
        # 300 states split the 2000 exponential nodes into several slices
        x1 = np.linspace(-3.0, 3.0, 300)[:n, None]
        x2 = np.cos(7.0 * x1)
        assert np.array_equal(model.band_integral(x1, "one_minus_lambda"),
                              node_by_node(model, lambda lv: 1.0 - lv, x1))
        assert np.array_equal(model.band_integral(x1, "log_lambda"),
                              node_by_node(model, np.log, x1))
        assert np.array_equal(
            model.band_integral_sq_log_gap(x1, x2),
            node_by_node(model, lambda l1, l2: (np.log(l1) - np.log(l2)) ** 2, x1, x2))

    def test_exponential_nu2_against_closed_form(self):
        # lambda = Lbar(u) s(x) with Lbar(u) = base exp(-decay |u|): the band
        # integral of 1 - lambda is nu2(band) - s(x) int_band Lbar dnu2
        base, decay, intensity, rate = 0.8, 0.5, 1.0, 2.0
        model = make_model(lam=("state_logistic", {"base": base, "decay": decay}),
                           nu2=EXP_NU2)
        mass = 2.0 * intensity * (1.0 - math.exp(-rate)) / rate
        lbar_int = (2.0 * base * intensity * (1.0 - math.exp(-(decay + rate)))
                    / (decay + rate))
        x = np.array([[-2.0], [-0.3], [0.0], [0.7], [4.0]])
        s = 1.0 / (1.0 + np.exp(-np.abs(x[:, 0])))
        want = mass - s * lbar_int
        got = model.band_integral(x, "one_minus_lambda")
        nodes, _ = model._quad_nodes()
        lbar = base * np.exp(-decay * np.abs(nodes[:, 0]))
        se = mass * s * np.std(lbar, ddof=1) / math.sqrt(nodes.shape[0])
        assert np.all(np.abs(got - want) <= 4.0 * se)


class TestFilterRun:
    def test_uninformative_observation_uniform_weights(self):
        # sensor 0 and state-independent lambda: every particle gets the
        # same weight, so the filter is the unweighted prior ensemble
        model = make_model(sensor={"name": "zero", "params": {"k": 1}})
        cs = ou_dynamics()
        setup = ObservationSetup(model, 1.0, 0.05, seed=3)
        sig = np.zeros((setup.grid.size, 1))
        rec = setup.record_for(sig)
        res = filter_run(model, cs, L.zero_measure(1), TR, L.GaussianLaw([0.0], [1.0]),
                         rec, 200, seed=4)
        for st in res.states:
            assert np.ptp(st.log_weights) == 0.0
            assert st.estimate(lambda x: np.ones(x.shape[0])) == pytest.approx(1.0)

    def test_single_particle(self):
        model = make_model()
        cs = ou_dynamics()
        setup = ObservationSetup(model, 0.5, 0.1, seed=5)
        rec = setup.record_for(np.zeros((setup.grid.size, 1)))
        res = filter_run(model, cs, L.zero_measure(1), TR, L.PointMass([0.7]),
                         rec, 1, seed=6)
        for st in res.states:
            assert st.estimate(lambda x: x[:, 0]) == st.particles[0, 0]

    def test_normalization_identity(self):
        model = make_model()
        cs = ou_dynamics(gamma=0.3)
        drv = L.AtomicLevyMeasure([[0.8]], [0.5])
        setup = ObservationSetup(model, 1.0, 0.05, seed=7)
        sig = L.simulate_path(cs, drv, TR, [0.0], 0.05, 1.0, seed=70,
                              extra_times=setup.prop_times)
        rec = setup.record_for(np.vstack([sig.value_at(t) for t in setup.grid]))
        res = filter_run(model, cs, drv, TR, L.GaussianLaw([0.0], [1.0]), rec,
                         300, seed=8)
        for st in res.states:
            assert st.estimate(lambda x: np.ones(x.shape[0])) == pytest.approx(1.0, rel=1e-12)

    def test_weight_shift_invariance(self):
        model = make_model()
        cs = ou_dynamics()
        setup = ObservationSetup(model, 0.5, 0.1, seed=9)
        rec = setup.record_for(np.zeros((setup.grid.size, 1)))
        res = filter_run(model, cs, L.zero_measure(1), TR,
                         L.GaussianLaw([0.0], [1.0]), rec, 100, seed=10)
        st = res.states[-1]
        shifted = L.FilterState(st.t, st.particles, st.log_weights + 123.0,
                                st.log_normalizer, st.ess)
        f = lambda x: np.tanh(x[:, 0])
        assert shifted.estimate(f) == pytest.approx(st.estimate(f), rel=1e-12)

    def test_reference_measure_independence(self):
        # particle trajectories must be identical with or without the
        # observation contents; only the weights may differ
        model = make_model()
        cs = ou_dynamics(gamma=0.3)
        drv = L.AtomicLevyMeasure([[0.8]], [0.5])
        setup = ObservationSetup(model, 1.0, 0.05, seed=11)
        sig = L.simulate_path(cs, drv, TR, [0.0], 0.05, 1.0, seed=110,
                              extra_times=setup.prop_times)
        rec = setup.record_for(np.vstack([sig.value_at(t) for t in setup.grid]))
        blank = ObservationRecord(rec.grid, np.zeros_like(rec.cont_increments),
                                  L.JumpEvents.empty(1), L.JumpEvents.empty(1))
        res1 = filter_run(model, cs, drv, TR, L.GaussianLaw([0.0], [1.0]), rec,
                          150, seed=12)
        res2 = filter_run(model, cs, drv, TR, L.GaussianLaw([0.0], [1.0]), blank,
                          150, seed=12)
        for s1, s2 in zip(res1.states, res2.states):
            assert np.array_equal(s1.particles, s2.particles)
        assert not np.array_equal(res1.states[-1].log_weights,
                                  res2.states[-1].log_weights)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_collapse_aborts(self):
        model = make_model(sensor={"name": "linear", "params": {"H": [[1e308]]}},
                           nu2={"name": "zero", "params": {"dim": 1}})
        cs = ou_dynamics()
        grid = np.linspace(0, 1, 11)
        rec = ObservationRecord(grid, np.full((10, 1), 1e5),
                                L.JumpEvents.empty(1), L.JumpEvents.empty(1))
        with pytest.raises(FilterError, match="collapsed"):
            filter_run(model, cs, L.zero_measure(1), TR,
                       L.GaussianLaw([0.0], [1.0]), rec, 50, seed=13)

    def test_resampling_keeps_normalization(self):
        model = make_model()
        cs = ou_dynamics()
        setup = ObservationSetup(model, 1.0, 0.05, seed=14)
        sig = L.simulate_path(cs, L.zero_measure(1), TR, [1.0], 0.05, 1.0,
                              seed=140, extra_times=setup.prop_times)
        rec = setup.record_for(np.vstack([sig.value_at(t) for t in setup.grid]))
        res = filter_run(model, cs, L.zero_measure(1), TR,
                         L.GaussianLaw([0.0], [1.0]), rec, 200, seed=15,
                         ess_threshold=0.99)  # force frequent resampling
        assert len(res.resampled_at) > 0
        for st in res.states:
            assert st.estimate(lambda x: np.ones(x.shape[0])) == pytest.approx(1.0)


class TestKalmanBenchmark:
    def test_linear_gaussian_matches_kalman(self):
        theta, sig_x = 1.0, 1.0
        cs = ou_dynamics(theta=theta, sigma=sig_x)
        model = make_model(nu2={"name": "zero", "params": {"dim": 1}})
        h, T, n = 0.01, 1.0, 4000
        z_worst = 0.0
        for rep in range(3):
            seed = 300 + rep
            truth = L.simulate_path(cs, L.zero_measure(1), TR,
                                    L.GaussianLaw([0.0], [0.7]), h, T, seed=seed)
            setup = ObservationSetup(model, T, h, seed=seed)
            rec = setup.record_for(np.vstack([truth.value_at(t) for t in setup.grid]))
            res = filter_run(model, cs, L.zero_measure(1), TR,
                             L.GaussianLaw([0.0], [0.7]), rec, n, seed + 7000,
                             checkpoints=np.linspace(0.1, T, 10))
            kal = discrete_kalman(rec.grid, rec.cont_increments[:, 0], -theta,
                                  sig_x ** 2, 0.0, 0.49)
            kal_t = np.array([k[0] for k in kal])
            for st in res.states:
                i = int(np.argmin(np.abs(kal_t - st.t)))
                w = st.normalized_weights()
                mu = st.mean()[0]
                se = math.sqrt(float(w @ (st.particles[:, 0] - mu) ** 2
                                     * np.sum(w * w)))
                z_worst = max(z_worst, abs(mu - kal[i][1]) / max(se, 1e-9))
        assert z_worst <= 5.0

    def test_riccati_closed_form_limits_discrete_recursion(self):
        # the closed-form variance solves the continuous equation; the
        # discrete recursion converges to it at first order in the step
        a, s2, P0, T = -1.0, 1.0, 0.49, 1.0
        gaps = []
        for h in (0.02, 0.01):
            grid = np.linspace(0, T, int(T / h) + 1)
            kal = discrete_kalman(grid, np.zeros(grid.size - 1), a, s2, 0.0, P0)
            gaps.append(abs(kal[-1][2] - riccati_closed_form(a, s2, P0, T)))
        assert gaps[1] <= 0.6 * gaps[0]
        assert gaps[0] <= 0.05


class TestRobustness:
    def family(self, amp=1.0, gpert=0.4):
        return L.family_from_config({
            "base": {"name": "ou", "d": 1, "m": 1,
                     "params": {"theta": 1.0, "sigma": 1.0},
                     "gamma": 0.4, "growth_bound": 4.0},
            "drift_perturbation": {"name": "sine", "amp": amp},
            "gamma_perturbation": gpert,
            "schedule": [1, 2, 4, 8]})

    def test_identical_members_give_zero(self):
        fam = self.family(amp=0.0, gpert=0.0)
        drv = L.AtomicLevyMeasure([[0.8]], [0.4])
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}))
        rep = robustness_experiment(fam, model, drv, TR, L.PointMass([0.2]),
                                    [1, 2, 4, 8], 200, 0.05, 0.5, seed=21,
                                    reps=1)
        assert all(r["distance"] == 0.0 for r in rep.rows)
        assert rep.passed

    def test_decreasing_distance(self):
        fam = self.family()
        drv = L.AtomicLevyMeasure([[0.8], [-0.8]], [0.25, 0.25])
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}))
        rep = robustness_experiment(fam, model, drv, TR,
                                    L.GaussianLaw([0.0], [0.5]),
                                    [1, 2, 4, 8], 1000, 0.02, 1.0, seed=22,
                                    reps=2)
        ds = [r["distance"] for r in rep.rows]
        assert rep.non_increasing
        assert ds[-1] < 0.5 * ds[0]

    def test_uninformative_reduces_to_prior_gap(self):
        # sensor 0 and state-free lambda: weights cancel, D is the coupled
        # prior-marginal gap of the single signal path driven through phis
        fam = self.family(amp=0.0, gpert=0.0)
        drv = L.AtomicLevyMeasure([[0.8]], [0.4])
        model = make_model(sensor={"name": "zero", "params": {"k": 1}})
        rep = robustness_experiment(fam, model, drv, TR, L.PointMass([0.2]),
                                    [1, 2], 100, 0.05, 0.5, seed=23, reps=1)
        assert all(r["distance"] == 0.0 for r in rep.rows)


class TestHypothesisChecksAndShadow:
    def test_trivial_family_zero_gaps(self):
        fam = L.family_from_config({
            "base": {"name": "ou", "d": 1, "m": 1,
                     "params": {"theta": 1.0, "sigma": 1.0},
                     "gamma": 0.3, "growth_bound": 4.0},
            "schedule": [1, 2]})
        drv = L.AtomicLevyMeasure([[0.8]], [0.4])
        members, limit = L.simulate_coupled_family(
            fam, drv, TR, L.PointMass([0.1]), 100, 0.05, 0.5, seed=31)
        model = make_model(lam=("state_logistic", {"base": 0.8}))
        rows = hypothesis_checks_h_lambda(members, limit, model)
        for row in rows:
            assert row["sensor_l2_gap"] == 0.0
            assert row["log_lambda_l2_gap"] == 0.0

    def test_state_free_lambda_zero_log_gap(self):
        fam = L.family_from_config({
            "base": {"name": "ou", "d": 1, "m": 1,
                     "params": {"theta": 1.0, "sigma": 1.0},
                     "gamma": 0.0, "growth_bound": 4.0},
            "drift_perturbation": {"name": "shift", "amp": 1.0},
            "schedule": [1, 2]})
        members, limit = L.simulate_coupled_family(
            fam, L.zero_measure(1), TR, L.PointMass([0.1]), 100, 0.05, 0.5,
            seed=32)
        model = make_model(lam=("constant", {"c": 0.5}))
        rows = hypothesis_checks_h_lambda(members, limit, model)
        gaps = [row["sensor_l2_gap"] for row in rows]
        assert gaps[0] > gaps[1] > 0
        assert all(row["log_lambda_l2_gap"] == 0.0 for row in rows)

    def test_lipschitz_gap_scaling(self):
        # coupled gap ~ 1/n and a Lipschitz sensor: squared gap ~ 1/n^2
        fam = L.family_from_config({
            "base": {"name": "linear", "d": 1, "m": 1,
                     "params": {"A": [[-1.0]], "sigma": 1.0},
                     "gamma": 0.0, "growth_bound": 4.0},
            "drift_perturbation": {"name": "shift", "amp": 1.0},
            "schedule": [2, 8]})
        members, limit = L.simulate_coupled_family(
            fam, L.zero_measure(1), TR, L.PointMass([0.0]), 200, 0.02, 1.0,
            seed=33)
        model = make_model(sensor={"name": "tanh"})
        rows = hypothesis_checks_h_lambda(members, limit, model)
        ratio = rows[0]["sensor_l2_gap"] / rows[1]["sensor_l2_gap"]
        assert ratio == pytest.approx((8 / 2) ** 2, rel=0.2)

    def test_compensated_jump_statistic_stochastic_continuity(self):
        # the running compensated band statistic converges in probability
        # along refinements of the left endpoint
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.3}))
        cs = ou_dynamics()
        t_end = 1.0
        deltas = [0.4, 0.2, 0.1, 0.05]
        eps = 0.3
        probs = []
        reps = 300
        for delta in deltas:
            hits = 0
            for rep in range(reps):
                setup = ObservationSetup(model, t_end, 0.05, seed=5000 + rep)
                sig = L.simulate_path(cs, L.zero_measure(1), TR, [0.5], 0.05,
                                      t_end, seed=6000 + rep,
                                      extra_times=setup.prop_times)
                vals = np.vstack([sig.value_at(t) for t in setup.grid])
                rec = setup.record_for(vals)
                stat = compensated_log_jump_statistic(vals[None, :, :], rec, model)[0]
                i_t = rec.grid.size - 1
                i_s = int(np.searchsorted(rec.grid, t_end - delta, side="right")) - 1
                hits += abs(stat[i_t] - stat[i_s]) >= eps
            probs.append(hits / reps)
        assert probs[-1] <= probs[0]
        assert probs[-1] <= 0.2
