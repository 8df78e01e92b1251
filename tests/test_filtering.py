import dataclasses
import functools
import hashlib
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levylab as L
from levylab import filtering as F
from levylab import rng as R
from levylab.filtering import (FilterError, ObservationRecord,
                               ObservationSetup, filter_run, lambda_from_config,
                               log_likelihood, observation_model_from_config,
                               robustness_experiment)
from levylab.measures import TruncationConfig, sample_jump_events

from oracles import discrete_kalman, noise_rows_used, quad_radial, riccati_closed_form

TR = TruncationConfig(level=0.5)


def make_model(sensor="identity", lam=("constant", {"c": 0.5}),
               nu2=None, u0=(0.0, 1.0), eps_obs=0.0):
    if nu2 is None:
        nu2 = {"name": "atomic", "params": {"atoms": [[0.3], [-0.5], [1.8]],
                                            "masses": [0.8, 0.7, 0.4]}}
    return observation_model_from_config({
        "sensor": {"name": sensor} if isinstance(sensor, str) else sensor,
        "lambda": {"name": lam[0], "params": lam[1]},
        "nu2": nu2,
        "u0_region": list(u0), "eps_obs": eps_obs})


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
            model.band_integral(np.zeros((2, 1)))

    def test_single_out_of_range_entry_named(self):
        # one bad entry inside the (n, q) matrix: the message names its x and u
        model = make_model(nu2=EIGHT_ATOMS)
        model.lam = lambda x, U: np.where((x == 0.25) & (U.T == -0.41), 1.5, 0.5)
        x = np.array([[-1.0], [0.25], [0.5], [2.0]])
        with pytest.raises(FilterError,
                           match=r"lambda outside \(0,1\): value 1.5 at "
                                 r"x=\[0.25\], u=\[-0.41\]"):
            model.band_integral(x)


# eight atoms inside the band (0, 1]: enough nodes for ndarray.sum to pair them
EIGHT_ATOMS = {"name": "atomic", "params": {
    "atoms": [[0.05], [-0.12], [0.2], [0.33], [-0.41], [0.57], [0.7], [-0.95]],
    "masses": [0.9, 0.35, 1.7, 0.21, 0.66, 1.3, 0.48, 0.77]}}
EXP_NU2 = {"name": "exponential_tails_1d",
           "params": {"intensity_pos": 1.0, "rate_pos": 2.0}}


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 30), q=st.integers(0, 8), dx=st.integers(1, 3),
       du=st.integers(1, 3), base=st.floats(0.01, 0.99), decay=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_state_logistic_lambda_is_the_outer_product(n, q, dx, du, base, decay, seed):
    # lambda is computed mark-major; it must hold np.outer's products, bit for bit
    rng = np.random.default_rng(seed)
    x, U = rng.normal(0.0, 3.0, (n, dx)), rng.normal(0.0, 1.0, (q, du))
    lam = lambda_from_config({"name": "state_logistic",
                              "params": {"base": base, "decay": decay}})[0]
    s = 1.0 / (1.0 + np.exp(-np.linalg.norm(x, axis=1)))
    want = np.outer(s, base * np.exp(-decay * np.linalg.norm(U, axis=1)))
    got = lam(x, U)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def plain_logistic(x, U):
    """state_logistic's intensity (base 0.8, decay 0.5) with no mark profile,
    so band integrals take the quadrature path."""
    s = 1.0 / (1.0 + np.exp(-np.linalg.norm(np.atleast_2d(x), axis=1)))
    return np.outer(s, 0.8 * np.exp(-0.5 * np.linalg.norm(np.atleast_2d(U), axis=1)))


def quadrature_model(nu2, **kw):
    return dataclasses.replace(make_model(nu2=nu2), lam=plain_logistic, **kw)


def node_by_node(model, x):
    """The band quadrature as a loop over nodes, one lambda call per node,
    with the state_logistic intensity written per mark (base 0.8, decay 0.5)."""
    s = 1.0 / (1.0 + np.exp(-np.linalg.norm(x, axis=1)))
    nodes, weights = model._quad_nodes()
    out = np.zeros(x.shape[0])
    for u, w in zip(nodes, weights):
        out += w * (1.0 - float(0.8 * np.exp(-0.5 * np.linalg.norm(u[None, :], axis=1))[0]) * s)
    return out


def exponential_side_integrals(base=0.8, decay=0.5, intensity=1.0, rate=2.0):
    """m = nu2(band) and A = int Lbar dnu2 over the band (0, 1] of the
    symmetric exponential nu2, with Lbar(u) = base exp(-decay |u|)."""
    mass = 2.0 * intensity * (1.0 - math.exp(-rate)) / rate
    a = 2.0 * base * intensity * (1.0 - math.exp(-(decay + rate))) / (decay + rate)
    return mass, a


class TestBandQuadrature:
    @pytest.mark.parametrize("n", [1, 300])
    @pytest.mark.parametrize("nu2", [None, EIGHT_ATOMS, EXP_NU2],
                             ids=["three-atoms", "eight-atoms", "exponential"])
    def test_matches_node_by_node_loop_bitwise(self, nu2, n):
        model = quadrature_model(nu2)
        # 300 states split the 272 exponential nodes into two slices
        x1 = np.linspace(-3.0, 3.0, 300)[:n, None]
        assert np.array_equal(model.band_integral(x1), node_by_node(model, x1))

    # the slice holds _SLICE_ENTRIES // n nodes; k whole slices plus a part
    @settings(max_examples=25)
    @given(n=st.sampled_from([1, 2, 7, 200, 3000]), k=st.integers(0, 2),
           part=st.integers(0, 10 ** 6))
    def test_sliced_sum_equals_column_by_column_sum(self, n, k, part):
        model = quadrature_model(EXP_NU2)
        nodes, weights = model._quad_nodes()
        q = weights.size
        steps = [s for s in range(1, 2 * q + 1) if q // s == k and q % s]
        x1 = np.linspace(-3.0, 3.0, n)[:, None]
        lam1 = model._lambda(x1, nodes)

        def column_by_column(terms):
            acc = np.zeros(n)
            for j in range(weights.size):
                acc = acc + weights[j] * terms[:, j]
            return acc

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(F, "_SLICE_ENTRIES", n * steps[part % len(steps)])
            assert np.array_equal(model.band_integral(x1), column_by_column(1.0 - lam1))

    def test_exponential_nu2_closed_form_is_analytic(self):
        # lambda = s(x) Lbar(u): the band integral is m - s(x) A, with m and A
        # of the exponential side in closed form
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}),
                           nu2=EXP_NU2)
        mass, a = exponential_side_integrals()
        m0, a0, _, _ = model._separable()
        assert m0 == pytest.approx(mass, rel=1e-13)
        assert 0.8 * a0 == pytest.approx(a, rel=1e-13)
        x = np.array([[-2.0], [-0.3], [0.0], [0.7], [4.0]])
        s = 1.0 / (1.0 + np.exp(-np.abs(x[:, 0])))
        np.testing.assert_allclose(model.band_integral(x), mass - s * a, rtol=1e-13)

    def test_constant_lambda_closed_form(self):
        model = make_model(lam=("constant", {"c": 0.3}), nu2=EXP_NU2)
        mass, _ = exponential_side_integrals()
        x = np.array([[-1.0], [2.0]])
        np.testing.assert_allclose(model.band_integral(x), 0.7 * mass, rtol=1e-13)

    def test_exponential_nu2_against_closed_form(self):
        # the quadrature rule on a lambda with no profile meets the closed form
        closed = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}),
                            nu2=EXP_NU2)
        quad = quadrature_model(EXP_NU2)
        x = np.array([[-2.0], [-0.3], [0.0], [0.7], [4.0]])
        np.testing.assert_allclose(quad.band_integral(x), closed.band_integral(x),
                                   rtol=1e-12, atol=0.0)

    def test_closed_form_names_out_of_range_x_and_u(self):
        # decay < 0 makes lambda grow with |u|: above 1 for large |x| and |u|
        model = make_model(lam=("state_logistic", {"base": 0.9, "decay": -1.0}),
                           nu2=EXP_NU2)
        nodes, _ = model._quad_nodes()
        u = nodes[np.argmax(np.abs(nodes[:, 0]))]
        x = np.array([[0.1], [4.0], [-0.5]])
        with pytest.raises(FilterError,
                           match=rf"lambda outside \(0,1\): value .* at "
                                 rf"x=\[4\.\], u={re.escape(str(u))}"):
            model.band_integral(x)

    def test_wrapped_lambda_keeps_the_closed_form_bits(self):
        # a functools.wraps wrapper copies mark_profile, so a counting wrapper
        # (as a tracer installs) changes neither the path nor the bits
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}),
                           nu2=EXP_NU2)
        calls = []

        @functools.wraps(model.lam)
        def counted(x, U):
            calls.append(U.shape[0])
            return model.lam(x, U)

        wrapped = dataclasses.replace(model, lam=counted)
        x = np.linspace(-3.0, 3.0, 50)[:, None]
        assert np.array_equal(wrapped.band_integral(x), model.band_integral(x))
        assert calls == [1]

    def test_eps_obs_floors_the_closed_form_band(self):
        # power-law nu2 has infinite mass on (0, 1]; with eps_obs = 0.1 the
        # marks are observed, and the integrals taken, on 0.1 < |u| <= 1
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}),
                           nu2={"name": "power_law_tails_1d", "params": {"exponent": 1.5}},
                           eps_obs=0.1)
        density = lambda r: 2.0 * r ** -1.5         # noqa: E731 (both sides)
        x = np.array([[-2.0], [0.0], [0.7]])
        one = model.band_integral(x)
        for k, s in enumerate(1.0 / (1.0 + np.exp(-np.abs(x[:, 0])))):
            lam = lambda r: s * 0.8 * np.exp(-0.5 * r)      # noqa: E731
            assert one[k] == pytest.approx(
                quad_radial(lambda r: 1.0 - lam(r), density, 0.1, 1.0), rel=1e-12)

    def test_eps_obs_floors_the_quadrature_and_atomic_bands(self):
        quad = dataclasses.replace(make_model(
            nu2={"name": "power_law_tails_1d", "params": {"exponent": 1.5}},
            eps_obs=0.1), lam=plain_logistic)
        nodes, weights = quad._quad_nodes()
        assert np.all((np.abs(nodes) > 0.1) & (np.abs(nodes) <= 1.0))
        assert weights.sum() == pytest.approx(quad.nu2.mass(0.1, 1.0), rel=1e-12)
        # of the atoms 0.3, -0.5 and 1.8 only -0.5 (mass 0.7) is above 0.4 in the band
        atomic = make_model(lam=("constant", {"c": 0.3}), eps_obs=0.4)
        np.testing.assert_array_equal(atomic._quad_nodes()[0], [[-0.5]])
        assert np.array_equal(atomic.band_integral(np.zeros((2, 1))), np.full(2, 0.7 * 0.7))

    @pytest.mark.parametrize("region", [[0, 10 ** 400], [0.0, math.inf],
                                        [math.nan, 1.0], [0.5, 0.5], [-1.0, 1.0],
                                        [0.0], "01", [True, 2.0]])
    def test_bad_u0_region_rejected(self, region):
        with pytest.raises(FilterError, match="u0_region must be"):
            make_model(u0=region)


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

    def test_resampling_filter_bits_pinned(self):
        # sha256 of a jumping filter that resamples six times, as computed by
        # the per-subset march it replaced
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}))
        cs = ou_dynamics(gamma=0.4)
        drv = L.AtomicLevyMeasure([[0.8], [-0.8]], [1.5, 1.5])
        setup = ObservationSetup(model, 1.0, 0.05, seed=41)
        sig = L.simulate_path(cs, drv, TR, [0.5], 0.05, 1.0, seed=410,
                              extra_times=setup.prop_times)
        rec = setup.record_for(np.vstack([sig.value_at(t) for t in setup.grid]))
        res = filter_run(model, cs, drv, TR, L.GaussianLaw([0.0], [0.5]), rec, 120,
                         seed=42, ess_threshold=0.98)
        assert len(res.resampled_at) == 6
        digest = hashlib.sha256()
        for st in res.states:
            digest.update(st.particles.tobytes())
            digest.update(st.log_weights.tobytes())
        digest.update(np.array(res.resampled_at).tobytes())
        assert digest.hexdigest() == (
            "db275b95417887f7c2f93b597487d0708271056fd04ca35d528e244a66ef84a6")

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


def old_logsumexp(v):
    """log sum exp(v), as a snapshot took it for each filter on its own."""
    m = float(np.max(v))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(v - m))))


def old_normalized_weights(lw):
    """exp(lw - max lw), normalised: FilterState's weights of one filter."""
    m = float(np.max(lw))
    w = np.exp(lw - m)
    return w / w.sum()


def old_ess(lw):
    """The effective sample size of one filter's log-weights."""
    w = np.exp(lw - np.max(lw))
    return float(w.sum() ** 2 / np.sum(w * w))


class TestSnapshotNormalisation:
    """A snapshot normalises the S filters' log-weights in one (S, n) pass.
    Each filter must get the bits of the per-filter formulas above.  The
    log-likelihood increments are replaced by given (S, n) arrays, one per
    cell, so the weights can take any values."""

    MU0 = L.GaussianLaw([0.0], [1.0])
    SEED = 61

    def run(self, incs, ess=None):
        """filter_run of S sets (one set alone when S = 1) whose log-weights
        grow by incs[c] over cell c; returns the S FilterResults."""
        cells, S, n = incs.shape
        lim = ou_dynamics(gamma=0.4)
        coeffs = lim if S == 1 else L.CoefficientFamily(lim, tuple(range(1, S)), "shift",
                                                        1.0, -0.2, -0.5)
        grid = np.linspace(0.0, 0.1 * cells, cells + 1)
        rec = ObservationRecord(grid, np.zeros((cells, 1)), L.JumpEvents.empty(1),
                                L.JumpEvents.empty(1))
        it = iter(incs)
        with mock.patch.object(F, "_cell_loglik", lambda *a: next(it)):
            out = filter_run(make_model(), coeffs, L.zero_measure(1), TR, self.MU0,
                             rec if S == 1 else [rec] * S, n, self.SEED, ess)
        return [out] if S == 1 else out

    @staticmethod
    def reference(incs, s, ess):
        """Filter s's (t, log-weights, log-normaliser, ESS) at each grid point
        and its resampling times, one filter at a time."""
        cells, _, n = incs.shape
        grid = np.linspace(0.0, 0.1 * cells, cells + 1)
        lw, log_norm, snaps, resampled = np.zeros(n), 0.0, [], []
        for c in range(cells + 1):
            if c:
                lw = lw + incs[c - 1, s]
                if ess is not None and old_ess(lw) < ess * n:
                    log_norm += old_logsumexp(lw) - math.log(n)
                    lw = np.zeros(n)
                    resampled.append(float(grid[c]))
            snaps.append((float(grid[c]), lw,
                          log_norm + old_logsumexp(lw) - math.log(n), old_ess(lw)))
        return snaps, resampled

    @settings(max_examples=60, deadline=None)
    @given(S=st.sampled_from([1, 2, 7]), n=st.sampled_from([1, 3, 64]),
           cells=st.integers(1, 4), offset=st.floats(0.0, 700.0),
           spread=st.sampled_from([0.0, 1.0, 30.0]), p_inf=st.sampled_from([0.0, 0.3]),
           ess=st.sampled_from([None, 0.98]), seed=st.integers(0, 2 ** 32 - 1))
    def test_snapshot_matches_per_filter_formulas(self, S, n, cells, offset, spread, p_inf,
                                                  ess, seed):
        rng = np.random.default_rng(seed)
        incs = (rng.normal(0.0, spread, (cells, S, n))
                + rng.uniform(-1.0, 1.0, (cells, S, 1)) * offset)
        drop = rng.random((cells, S, n)) < p_inf
        drop[..., 0] = False                  # every filter keeps a finite weight
        incs[drop] = -np.inf
        fn = lambda x: np.tanh(x[:, 0])      # noqa: E731
        results = self.run(incs, ess)
        for s, res in enumerate(results):
            snaps, resampled = self.reference(incs, s, ess)
            assert res.resampled_at == resampled
            assert len(res.states) == len(snaps)
            for st_, (t, lw, ln, ess_s) in zip(res.states, snaps):
                w = old_normalized_weights(st_.log_weights)
                assert st_.t == t and st_.log_weights.tobytes() == lw.tobytes()
                assert st_.log_normalizer == ln and st_.ess == ess_s
                assert st_.normalized_weights().tobytes() == w.tobytes()
                assert st_.estimate(fn) == float(w @ fn(st_.particles))
                assert st_.mean().tobytes() == (w @ st_.particles).tobytes()
        for k in range(cells + 1):
            arrays = [(s, a) for s, res in enumerate(results) for a in (
                res.states[k].particles, res.states[k].log_weights, res.states[k].weights)]
            assert all(a.base is None for _, a in arrays)    # no state pins the (S, n) pass
            assert not any(np.shares_memory(a, b) for s, a in arrays for r, b in arrays
                           if r != s)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("ess", [None, 0.98])
    @pytest.mark.parametrize("S, rows, which", [(1, (0,), None), (7, (2, 5), "member n=3"),
                                                (7, (6,), "limit")])
    def test_bad_row_raises_the_collapse_message(self, bad, ess, S, rows, which):
        # one weight of each listed filter leaves the reals at cell 2: the
        # snapshot after it names the first such filter and warns nothing
        incs = np.random.default_rng(5).normal(0.0, 1.0, (3, S, 4))
        incs[1, rows, 1] = bad
        tag = f"seed {self.SEED}, namespace {R.FILTER})"
        where = f"({which}, {tag}" if which else f"({tag}"
        with warnings.catch_warnings():
            if ess is None:         # the resampling check warns on an inf weight
                warnings.simplefilter("error")
            with pytest.raises(FilterError, match=re.escape(
                    f"filter collapsed: all weights vanished by t={0.2:.6g} {where}")):
                self.run(incs, ess)

    @pytest.mark.parametrize("ess, streams", [(None, 0), (0.98, 7)])
    def test_resample_streams_only_when_resampling(self, ess, streams):
        made, stream = [], R.stream
        with mock.patch.object(R, "stream", lambda seed, purpose, *a, **k: made.append(
                purpose) or stream(seed, purpose, *a, **k)):
            self.run(np.zeros((2, 7, 3)), ess)
        assert made.count(R.RESAMPLE) == streams

    def test_snapshot_arrays_are_read_only(self):
        incs = np.random.default_rng(6).normal(0.0, 1.0, (2, 2, 5))
        for res in self.run(incs):
            for st_ in res.states:
                for a in (st_.particles, st_.log_weights, st_.normalized_weights()):
                    with pytest.raises(ValueError, match="read-only"):
                        a[0] = 1.0

    def test_hand_built_state_normalises_its_log_weights(self):
        lw = np.array([0.5, -np.inf, 700.0, 699.0])
        st_ = L.FilterState(0.0, np.arange(4.0)[:, None], lw, 0.0, 1.0)
        w = st_.normalized_weights()
        assert w.tobytes() == old_normalized_weights(lw).tobytes()
        lw[2] = 0.0                 # a hand-built state reads its log-weights anew
        assert st_.normalized_weights().tobytes() == old_normalized_weights(lw).tobytes()


def _same_states(a, b) -> bool:
    """Bitwise equality of two lists of filter states."""
    return len(a) == len(b) and all(
        x.t == y.t and np.array_equal(x.particles, y.particles)
        and np.array_equal(x.log_weights, y.log_weights)
        and x.log_normalizer == y.log_normalizer and x.ess == y.ess
        for x, y in zip(a, b))


class TestFilterRunSequences:
    """filter_run over a family and its sequence of records, one per set."""

    def setup_method(self):
        self.model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}))
        self.drv = L.AtomicLevyMeasure([[0.8], [-0.8]], [1.5, 1.5])
        self.mu0 = L.GaussianLaw([0.0], [0.5])
        # a hand-built family: a limit and its scalars, no family config
        self.fam = L.CoefficientFamily(ou_dynamics(gamma=0.4), (2, 1), "shift", 1.0, -0.2,
                                       -0.5)
        self.setup = ObservationSetup(self.model, 1.0, 0.05, seed=43)
        self.records = []
        for k, cs in enumerate(self.fam.all_sets()):
            sig = L.simulate_path(cs, self.drv, TR, [0.5], 0.05, 1.0, seed=430 + k,
                                  extra_times=self.setup.prop_times)
            self.records.append(self.setup.record_for(
                np.vstack([sig.value_at(t) for t in self.setup.grid])))

    def run(self, coeffs, records, **kw):
        return filter_run(self.model, coeffs, self.drv, TR, self.mu0, records, 120,
                          seed=44, ess_threshold=0.98, **kw)

    def test_sequence_equals_independent_runs(self):
        results = self.run(self.fam, self.records)
        assert isinstance(results, list) and len(results) == 3
        for cs, rec, got in zip(self.fam.all_sets(), self.records, results):
            want = self.run(cs, rec)
            assert want.resampled_at and got.resampled_at == want.resampled_at
            assert _same_states(got.states, want.states)

    def test_length_mismatch_rejected(self):
        with pytest.raises(FilterError, match="3 coefficient sets for 2 records"):
            self.run(self.fam, self.records[:2])
        with pytest.raises(FilterError, match="3 coefficient sets for 0 records"):
            self.run(self.fam, [])

    def test_records_on_different_grids_rejected(self):
        other = ObservationSetup(self.model, 1.0, 0.05, seed=45)
        assert not np.array_equal(other.grid, self.setup.grid)
        rec = other.record_for(np.zeros((other.grid.size, 1)))
        with pytest.raises(FilterError, match="different grids"):
            self.run(self.fam, [*self.records[:2], rec])


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
        rep = robustness_experiment(fam, model, drv, TR, L.PointMass([0.2]), 200, 0.05,
                                    0.5, seed=21, reps=1)
        assert all(r["distance"] == 0.0 for r in rep.rows)
        assert rep.passed

    def test_decreasing_distance(self):
        fam = self.family()
        drv = L.AtomicLevyMeasure([[0.8], [-0.8]], [0.25, 0.25])
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}))
        rep = robustness_experiment(fam, model, drv, TR,
                                    L.GaussianLaw([0.0], [0.5]), 1000, 0.02, 1.0,
                                    seed=22, reps=2)
        ds = [r["distance"] for r in rep.rows]
        assert rep.non_increasing
        assert ds[-1] < 0.5 * ds[0]

    def test_uninformative_reduces_to_prior_gap(self):
        # sensor 0 and state-free lambda: weights cancel, D is the coupled
        # prior-marginal gap of the single signal path driven through phis
        fam = dataclasses.replace(self.family(amp=0.0, gpert=0.0), schedule=(1, 2))
        drv = L.AtomicLevyMeasure([[0.8]], [0.4])
        model = make_model(sensor={"name": "zero", "params": {"k": 1}})
        rep = robustness_experiment(fam, model, drv, TR, L.PointMass([0.2]), 100, 0.05,
                                    0.5, seed=23, reps=1)
        assert [r["n"] for r in rep.rows] == [1, 2]
        assert all(r["distance"] == 0.0 for r in rep.rows)

    def test_matches_independent_filter_runs(self):
        # reference: every filter, the limit's and each member's, run on its
        # own by filter_run, which draws the particle randomness per call
        fam = self.family()
        drv = L.AtomicLevyMeasure([[0.8], [-0.8]], [0.25, 0.25])
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}))
        mu0 = L.GaussianLaw([0.0], [0.5])
        n_part, h, T, seed, reps, ess = 150, 0.05, 0.5, 24, 2, 0.9
        phis = [("first", lambda x: x[:, 0]), ("tanh", lambda x: np.tanh(x[:, 0]))]
        checkpoints = np.linspace(T / 5, T, 5)
        keys = sorted(fam.members)
        dists = np.zeros((reps, len(keys)))
        resampled = 0
        for r in range(reps):
            rep_seed = seed + 1000 * r
            setup = ObservationSetup(model, T, h, rep_seed)
            sig_members, sig_limit = L.simulate_coupled_family(
                fam, drv, TR, mu0, 1, h, T, rep_seed, extra_times=setup.prop_times)

            def run(cs, sig):
                rec = setup.record_for(sig.values[0])
                return filter_run(model, cs, drv, TR, mu0, rec, n_part, rep_seed,
                                  ess_threshold=ess, checkpoints=checkpoints)

            lim = run(fam.limit, sig_limit)
            resampled += len(lim.resampled_at)
            for j, n in enumerate(keys):
                mem = run(fam.members[n], sig_members[n])
                dists[r, j] = float(np.mean([abs(a.estimate(fn) - b.estimate(fn))
                                             for a, b in zip(mem.states, lim.states)
                                             for _, fn in phis]))
        assert resampled > 0
        rep = robustness_experiment(fam, model, drv, TR, mu0, n_part, h, T,
                                    seed, phis=phis, n_checkpoints=5, reps=reps,
                                    ess_threshold=ess)
        se = dists.std(axis=0, ddof=1) / math.sqrt(reps)
        assert [r["n"] for r in rep.rows] == keys
        assert [r["distance"] for r in rep.rows] == dists.mean(axis=0).tolist()
        assert [r["se"] for r in rep.rows] == se.tolist()

    def test_limit_states_are_rep_zero_limit_filter(self):
        # reference: rep 0's limit filter run again on its own at filter_run's
        # default checkpoints, as the filter_limit table once did
        fam = self.family()
        drv = L.AtomicLevyMeasure([[0.8], [-0.8]], [0.25, 0.25])
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}))
        mu0 = L.GaussianLaw([0.0], [0.5])
        n_part, h, T, seed = 200, 0.02, 0.5, 27
        rep = robustness_experiment(fam, model, drv, TR, mu0, n_part, h, T, seed, reps=2)
        setup = ObservationSetup(model, T, h, seed)
        _, sig_limit = L.simulate_coupled_family(fam, drv, TR, mu0, 1, h, T, seed,
                                                 extra_times=setup.prop_times)
        rec = setup.record_for(sig_limit.values[0])
        want = filter_run(model, fam.limit, drv, TR, mu0, rec, n_part, seed)
        assert len(want.states) == 21
        assert _same_states(rep.limit_states, want.states)

    def test_filter_particles_drawn_once_per_rep(self, monkeypatch):
        import levylab.filtering as F

        drawn = []
        prepare = F._prepare_block

        def counting(*args, **kwargs):
            inputs = prepare(*args, **kwargs)
            drawn.append((inputs.seed, inputs.namespace, inputs.particles.size))
            return inputs

        monkeypatch.setattr(F, "_prepare_block", counting)
        fam = self.family()
        drv = L.AtomicLevyMeasure([[0.8]], [0.4])
        robustness_experiment(fam, make_model(), drv, TR, L.PointMass([0.2]), 50, 0.1,
                              0.5, seed=25, reps=3)
        assert drawn == [(25 + 1000 * r, R.FILTER, 50) for r in range(3)]

    def test_reps_below_one_rejected(self):
        with pytest.raises(FilterError, match="reps"):
            robustness_experiment(self.family(), make_model(), L.zero_measure(1),
                                  TR, L.PointMass([0.2]), 10, 0.1, 0.5, seed=26,
                                  reps=0)


def filter_family(kind="sine", amp=1.0, gpert=0.4):
    return L.family_from_config({
        "base": {"name": "ou", "d": 1, "m": 1, "params": {"theta": 1.0, "sigma": 1.0},
                 "gamma": 0.4, "growth_bound": 4.0},
        "drift_perturbation": {"name": kind, "amp": amp},
        "gamma_perturbation": gpert, "schedule": [2, 1, 4]})


NU2S = {"atomic": None,
        "exponential": {"name": "exponential_tails_1d",
                        "params": {"intensity_pos": 1.0, "rate_pos": 2.0}}}


class TestStackedFilter:
    """A family's filters march as one BlockMarch of S*n rows over the one
    particle block; each filter must get the bits of a filter_run of its set
    and record alone."""

    DRV = L.AtomicLevyMeasure([[0.8], [-0.8]], [1.5, 1.5])
    MU0 = L.GaussianLaw([0.0], [0.5])
    T, H = 0.5, 0.05

    def records(self, fam, model, seed, workers=1):
        """One record per set of fam, in all_sets() order."""
        setup = ObservationSetup(model, self.T, self.H, seed)
        members, limit = L.simulate_coupled_family(fam, self.DRV, TR, self.MU0, 1, self.H,
                                                   self.T, seed, extra_times=setup.prop_times,
                                                   workers=workers)
        return [setup.record_for(e.values[0]) for e in [*members.values(), limit]]

    @settings(max_examples=30, deadline=None)
    @given(ess=st.sampled_from([None, 0.98]), nu2=st.sampled_from(sorted(NU2S)),
           kind=st.sampled_from(["sine", "shift"]), amp=st.sampled_from([0.0, 1.0]),
           gpert=st.sampled_from([0.0, 0.4]), n=st.sampled_from([1, 3, 64]),
           custom=st.booleans(), hand=st.booleans(), workers=st.sampled_from([1, 2]),
           seed=st.integers(0, 2 ** 16))
    def test_matches_per_set_filter_runs(self, ess, nu2, kind, amp, gpert, n, custom,
                                         hand, workers, seed):
        fam = filter_family(kind, amp, gpert)
        if hand:    # a hand-built limit (no registry config): its signals run in process
            fam = dataclasses.replace(fam, limit=dataclasses.replace(fam.limit))
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}),
                           nu2=NU2S[nu2])
        records = self.records(fam, model, seed, workers if hand else 1)
        checkpoints = np.linspace(0.1, self.T, 4) if custom else None
        got = filter_run(model, fam, self.DRV, TR, self.MU0, records, n, seed + 1, ess,
                         checkpoints)
        assert len(got) == 4
        for cs, rec, res in zip(fam.all_sets(), records, got):
            want = filter_run(model, cs, self.DRV, TR, self.MU0, rec, n, seed + 1, ess,
                              checkpoints)
            assert res.resampled_at == want.resampled_at
            assert _same_states(res.states, want.states)

    def test_family_and_hand_built_family_march_once(self, monkeypatch):
        import levylab.filtering as F

        marched = []
        march = F._march_filter
        monkeypatch.setattr(F, "_march_filter", lambda model, coeffs, *a: marched.append(
            (type(coeffs).__name__, len(a[2]))) or march(model, coeffs, *a))
        fam = filter_family()
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}))
        records = self.records(fam, model, 46)
        results = filter_run(model, fam, self.DRV, TR, self.MU0, records, 60, 47, 0.98)
        assert marched == [("StackedFamily", 4)]
        assert all(res.resampled_at for res in results)
        hand = L.CoefficientFamily(dataclasses.replace(fam.limit), fam.schedule, fam.drift,
                                   fam.drift_amp, fam.gamma_amp, fam.sigma_amp)
        again = filter_run(model, hand, self.DRV, TR, self.MU0, records, 60, 47, 0.98)
        assert marched == [("StackedFamily", 4)] * 2
        for res, want in zip(again, results, strict=True):
            assert res.resampled_at == want.resampled_at
            assert _same_states(res.states, want.states)

    def test_slot_rows_advance_one_per_cell_under_resampling(self, monkeypatch):
        # resampling moves only the states: each particle slot, which every
        # filter's rows read, is one noise row further after each cell, plus
        # one per jump off the grid in the cell
        import levylab.engine as E

        advance, checked = E.BlockMarch.advance_cell, []
        counts, times, _ = sample_jump_events(
            self.DRV, (0.0, math.inf), self.T, R.Streams(47, R.DRIVER, np.arange(60), R.FILTER))

        def checking(march, i):
            advance(march, i)
            used = noise_rows_used(march.grid, counts, times, i)
            checked.append(march.row.shape == (60,) and
                           bool((march.row - march.inp.offsets == used).all()))

        fam = filter_family()
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}))
        records = self.records(fam, model, 46)
        monkeypatch.setattr(E.BlockMarch, "advance_cell", checking)
        results = filter_run(model, fam, self.DRV, TR, self.MU0, records, 60, 47, 0.98)
        assert all(res.resampled_at for res in results)
        assert len(checked) == records[0].grid.size - 1 and all(checked)
        assert (~np.isin(times, records[0].grid)).any()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("index, which", [(1, "member n=1"), (3, "limit")])
    def test_collapse_names_the_filter(self, index, which):
        fam = filter_family()
        model = make_model(lam=("state_logistic", {"base": 0.8, "decay": 0.5}))
        records = self.records(fam, model, 48)
        cont = records[index].cont_increments.copy()
        cont[3] = np.inf          # only this filter's weights all leave the reals
        records[index] = dataclasses.replace(records[index], cont_increments=cont)
        t = records[index].grid[4]
        with pytest.raises(FilterError, match=re.escape(
                f"filter collapsed: all weights -inf at t={t:.6g} ({which}, seed 49, "
                f"namespace {R.FILTER})")):
            filter_run(model, fam, self.DRV, TR, self.MU0, records, 40, 49)
