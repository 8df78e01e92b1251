import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import levylab as L
from levylab import experiments
from levylab import generator as G
from levylab.coefficients import default_probe_points
from levylab.generator import (GeneratorContext, GeneratorError, eval_generator,
                               fpe_weak_residual, generator_apply,
                               fpe_verdict, integrability_guards, martingale_residual,
                               path_sup_norms, validate_hypotheses)
from levylab.manifests import RunManifest
from levylab.measures import TruncationConfig
from levylab.testfunctions import default_dictionary, plateau_bump, windowed_monomial

from oracles import brute_force_generator, poisson_marginal_expectation, radial_jump_term


def _window_function(phi):
    """A 1-d dictionary function written out in floats from its shape: coef
    (x - c)^p W(|x - c|), W = 1 - S(clip((r - r0) / (r1 - r0), 0, 1)) with
    the quintic step S, and the four seams c -+ r0, c -+ r1."""
    shape = phi.shape
    c, r0, r1 = float(shape.center[0]), shape.r0, shape.r1
    power = int(shape.powers[0]) if hasattr(shape, "powers") else 0
    coef = shape.coef if power else shape.height

    def fn(y):
        v = min(max((abs(y - c) - r0) / (r1 - r0), 0.0), 1.0)
        return coef * (y - c) ** power * (1.0 - v ** 3 * (10.0 - 15.0 * v + 6.0 * v * v))

    return fn, (c - r1, c - r0, c + r0, c + r1)


def zero_coeffs(gamma=0.0):
    return L.coefficients_from_config({"name": "zero", "d": 1, "m": 1,
                                       "gamma": gamma})


def ou_coeffs(gamma=0.0):
    return L.coefficients_from_config({
        "name": "ou", "d": 1, "m": 1,
        "params": {"theta": 1.0, "sigma": math.sqrt(2.0)},
        "gamma": gamma, "growth_bound": 4.0})


class TestEvalGenerator:
    def test_constant_annihilated(self):
        ctx = GeneratorContext(ou_coeffs(0.5),
                               L.AtomicLevyMeasure([[1.0]], [2.0]),
                               TruncationConfig(level=0.5))
        const = L.TestFunction(
            "const", phi=lambda y: np.full(len(y), 4.0), grad=np.zeros_like,
            hess=lambda y: np.zeros((len(y), 1, 1)), dim=1, support_class="compact")
        for x in (-3.0, 0.0, 1.7):
            assert eval_generator(ctx, const, 0.3, [x]) == 0.0

    def test_pure_drift(self):
        cs = L.coefficients_from_config({"name": "constant_drift", "d": 1, "m": 1,
                                         "params": {"c": 2.0}})
        ctx = GeneratorContext(cs, L.zero_measure(1), TruncationConfig(level=1.0))
        phi = windowed_monomial([1], r0=3.0, r1=6.0)
        assert eval_generator(ctx, phi, 0.0, [0.5]) == 2.0

    def test_pure_diffusion(self):
        cs = L.coefficients_from_config({"name": "ou", "d": 1, "m": 1,
                                         "params": {"theta": 0.0, "sigma": math.sqrt(2.0)}})
        ctx = GeneratorContext(cs, L.zero_measure(1), TruncationConfig(level=1.0))
        phi = windowed_monomial([2], r0=3.0, r1=6.0)
        assert eval_generator(ctx, phi, 0.0, [0.7]) == pytest.approx(2.0, abs=1e-14)

    def test_uncompensated_atom(self):
        # single atom at z=2 with mass 3 and level 1: no compensation, value 12
        ctx = GeneratorContext(zero_coeffs(gamma=1.0),
                               L.AtomicLevyMeasure([[2.0]], [3.0]),
                               TruncationConfig(level=1.0))
        phi = windowed_monomial([2], r0=3.0, r1=6.0)
        assert eval_generator(ctx, phi, 0.0, [0.0]) == 12.0

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(51)
        phi = windowed_monomial([2], r0=4.0, r1=8.0)
        for _ in range(25):
            atoms = rng.uniform(-1.5, 1.5, size=(3, 1))
            atoms[np.abs(atoms) < 1e-3] = 0.5
            masses = rng.uniform(0.0, 2.0, size=3)
            gamma = rng.uniform(-1.2, 1.2)
            level = rng.uniform(0.1, 2.0)
            cs = ou_coeffs(gamma)
            drv = L.AtomicLevyMeasure(atoms, masses)
            ctx = GeneratorContext(cs, drv, TruncationConfig(level=level))
            x = rng.uniform(-1.0, 1.0, size=1)
            t = rng.uniform(0.0, 1.0)
            got = eval_generator(ctx, phi, t, x)
            want = brute_force_generator(
                b_val=cs.b(t, x[None, :])[0], a_val=cs.a(t, x[None, :])[0],
                f_val=float(cs.f(t, x[None, :])[0]),
                atoms=atoms.tolist(), masses=masses.tolist(), level=level,
                phi=lambda pt: float(phi.phi(np.atleast_2d(pt))[0]),
                grad_at=phi.grad(x[None, :])[0], hess_at=phi.hess(x[None, :])[0],
                x=x.tolist())
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("driver", ["atomic", "radial"])
    @settings(max_examples=30, deadline=None)
    @given(c1=st.floats(-5.0, 5.0), c2=st.floats(-5.0, 5.0),
           x=hnp.arrays(np.float64, st.integers(1, 6), elements=st.floats(-3.0, 3.0)))
    def test_linearity_in_phi(self, driver, c1, c2, x):
        # L(c1 f1 + c2 f2) = c1 L f1 + c2 L f2 at drawn points, for an atomic
        # driver's exact sums and a radial driver's quadrature rule alike
        drv = (L.AtomicLevyMeasure([[0.6], [-1.1]], [0.4, 0.8]) if driver == "atomic"
               else L.exponential_tails_1d(1.0, 2.0))
        ctx = GeneratorContext(ou_coeffs(0.7), drv, TruncationConfig(level=0.5))
        f1 = plateau_bump(center=0.0, r0=1.0, r1=3.0)
        f2 = windowed_monomial([1], r0=2.0, r1=4.0)
        x = x[:, None]
        v1, v2 = generator_apply(ctx, [f1, f2], 0.2, x)
        combo = L.TestFunction(
            "combo",
            phi=lambda y: c1 * f1.phi(y) + c2 * f2.phi(y),
            grad=lambda y: c1 * f1.grad(y) + c2 * f2.grad(y),
            hess=lambda y: c1 * f1.hess(y) + c2 * f2.hess(y),
            dim=1, support_class="compact")
        vc = generator_apply(ctx, [combo], 0.2, x)[0]
        np.testing.assert_allclose(vc, c1 * v1 + c2 * v2, rtol=1e-13, atol=1e-14)

    def test_compensation_reduces_to_big_jump_sum(self):
        # phi linear where compensated images land: the non-local term equals
        # the raw sum over big images only
        ctx = GeneratorContext(zero_coeffs(gamma=1.0),
                               L.AtomicLevyMeasure([[0.2], [3.0]], [1.0, 0.5]),
                               TruncationConfig(level=0.5))
        phi = windowed_monomial([1], r0=4.0, r1=8.0)
        got = eval_generator(ctx, phi, 0.0, [0.0])
        assert got == pytest.approx(0.5 * (3.0 - 0.0), abs=1e-14)

    @pytest.mark.parametrize("gamma", [0.5, 1.5])
    def test_radial_jump_term_against_split_quad(self, gamma):
        # the quadrature rule's jump term at 101 points, for the whole
        # dictionary, within 1e-6 max|L phi| of adaptive quadrature split at
        # l / |f| and at every seam of the function's window
        ctx = GeneratorContext(ou_coeffs(gamma), L.exponential_tails_1d(1.0, 2.0),
                               TruncationConfig(level=0.3))
        dictionary = default_dictionary(1)
        X = np.linspace(-2.5, 2.5, 101)[:, None]
        jets = L.testfunctions.evaluate(dictionary, X)
        got = G._jump_terms(ctx, dictionary, jets, 0.0, X)
        scale = np.abs(generator_apply(ctx, dictionary, 0.0, X)).max()
        fv = ctx.coeffs.f(0.0, X)
        density = (lambda r: math.exp(-2.0 * r),) * 2
        for k, phi in enumerate(dictionary):
            fn, seams = _window_function(phi)
            for i, x in enumerate(X[:, 0]):
                want = radial_jump_term(fn, float(x), float(fv[i]), 0.3, density,
                                        float(jets[k][1][i, 0]), seams)
                assert abs(got[k, i] - want) <= 1e-6 * scale, (phi.name, x)

    def test_infinite_activity_driver_refused(self):
        # the quadrature rule needs finite mass near 0; an exponent in (1, 3)
        # gives infinite activity with a finite small-jump second moment
        ctx = GeneratorContext(zero_coeffs(gamma=1.0), L.power_law_tails_1d(exponent=1.5),
                               TruncationConfig(level=0.5))
        phi = plateau_bump(center=0.0, r0=1.0, r1=3.0)
        with pytest.raises(GeneratorError, match="finite-activity driver"):
            generator_apply(ctx, [phi], 0.0, np.zeros((2, 1)))

    def test_infinite_second_moment_rejected(self):
        ctx = GeneratorContext(zero_coeffs(gamma=1.0),
                               L.power_law_tails_1d(exponent=3.5),
                               TruncationConfig(level=0.5))
        phi = plateau_bump(center=0.0, r0=1.0, r1=3.0)
        with pytest.raises(GeneratorError, match="square integrability"):
            eval_generator(ctx, phi, 0.0, [0.0])


class TestValidateHypotheses:
    def test_zero_everything(self):
        ctx = GeneratorContext(zero_coeffs(0.0), L.zero_measure(1),
                               TruncationConfig(level=1.0))
        rep = validate_hypotheses(ctx)
        assert rep.linear_growth["constant"] == 0.0
        assert rep.small_jump["constant"] == 0.0
        assert rep.large_jump["constant"] == 0.0
        assert rep.ok

    def test_ou_with_atoms_ok(self):
        ctx = GeneratorContext(ou_coeffs(0.5),
                               L.AtomicLevyMeasure([[0.9], [-0.9]], [0.3, 0.3]),
                               TruncationConfig(level=0.3))
        rep = validate_hypotheses(ctx)
        assert rep.ok
        assert rep.large_jump["constant"] > 0.0

    def test_fitted_constants_bound_normalized_quantities(self):
        # the rewritten bounds: the fitted constants dominate the normalized
        # compensated second moment and the big-jump log moment at probes
        ctx = GeneratorContext(ou_coeffs(0.5),
                               L.AtomicLevyMeasure([[0.9], [-0.9]], [0.3, 0.3]),
                               TruncationConfig(level=0.3))
        rep = validate_hypotheses(ctx)
        level = ctx.trunc.level
        rng = np.random.default_rng(0)
        for x in rng.uniform(-5, 5, size=(20, 1)):
            f = float(ctx.coeffs.f(0.0, x[None, :])[0])
            r = level / abs(f)
            sm = ctx.driver.second_moment(0.0, r) * f * f
            assert sm / (1 + x[0] ** 2) <= rep.small_jump["constant"] + 1e-12
            lm = ctx.driver.radial_integral(
                lambda rr: np.log1p(abs(f) * rr / (1 + abs(x[0]))), r, math.inf)
            assert lm <= rep.large_jump["constant"] + 1e-12

    def test_growing_jump_shape_violation_witnessed(self):
        # g ~ 1 + |x| with a fat-tailed measure: the compensated-image second
        # moment diverges at large probes; the mass oracle flags it
        cs = L.coefficients_from_config({
            "name": "zero", "d": 1, "m": 1, "gamma": 1.0,
            "g": {"name": "linear_growth", "params": {"c": 1.0}}})
        ctx = GeneratorContext(cs, L.power_law_tails_1d(exponent=3.5),
                               TruncationConfig(level=1.0))
        rep = validate_hypotheses(ctx)
        assert rep.small_jump["witness"] is not None
        assert not rep.ok


HYPOTHESIS_DRIVERS = {
    "atomic": L.AtomicLevyMeasure([[0.8], [-1.7], [0.2]], [0.4, 0.2, 1.1]),
    "exponential": L.exponential_tails_1d(),
    "power-1.5": L.power_law_tails_1d(exponent=1.5),
    "power-3.5": L.power_law_tails_1d(exponent=3.5),
}


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _scalar_hypotheses(ctx, f):
    """H^s and H^l of one row from the measure's scalar queries."""
    if f == 0.0:
        return 0.0, 0.0
    r = ctx.trunc.level / abs(float(f))
    return ctx.driver.second_moment(0.0, r) * f * f, ctx.driver.mass(r, math.inf)


def _scalar_validation(ctx, T):
    """validate_hypotheses' C2, C3 and witnesses, point by point."""
    ts, xs = default_probe_points(ctx.coeffs.d, T)
    norms = np.linalg.norm(xs, axis=1)
    c2 = c3 = 0.0
    w2 = w3 = None
    for t in ts:
        for i, f in enumerate(ctx.coeffs.f(float(t), xs)):
            if f == 0.0:
                continue
            r = ctx.trunc.level / abs(float(f))
            sm = ctx.driver.second_moment(0.0, r) * f * f
            if not math.isfinite(sm):
                w2 = w2 or (float(t), xs[i].copy())
                continue
            c2 = max(c2, sm / (1.0 + norms[i] ** 2))
            if not math.isfinite(ctx.driver.mass(r, math.inf)):
                w3 = w3 or (float(t), xs[i].copy())
                continue
            scale = abs(float(f)) / (1.0 + norms[i])
            c3 = max(c3, ctx.driver.radial_integral(lambda rr: np.log1p(scale * rr),
                                                    r, math.inf))
    return c2, c3, w2, w3


class TestJumpHypotheses:
    @pytest.mark.parametrize("name", HYPOTHESIS_DRIVERS)
    def test_rows_equal_the_scalar_rule_bitwise(self, name):
        # f = 0.7 x takes zero, negative, tiny and huge values on these rows
        X = np.array([[0.0], [1.0], [-2.5], [1e-300], [-0.3], [40.0], [-0.0], [7e5]])
        cs = L.CoefficientSet(b=lambda t, x: x, sigma=lambda t, x: np.zeros((len(x), 1, 1)),
                              d=1, m=1, gamma=0.7, g=lambda t, x: x[:, 0])
        ctx = GeneratorContext(cs, HYPOTHESIS_DRIVERS[name], TruncationConfig(level=0.5))
        f, small, big = G.jump_hypotheses(ctx, 0.2, X)
        assert _bits(f) == _bits(cs.f(0.2, X))
        want = [_scalar_hypotheses(ctx, fi) for fi in f]
        assert _bits(small) == _bits([w[0] for w in want])
        assert _bits(big) == _bits([w[1] for w in want])
        assert np.isinf(small).any() == (name == "power-3.5")
        assert not np.isnan(small).any()

    @pytest.mark.parametrize("g", ["one", "cosine", "linear_growth"])
    @pytest.mark.parametrize("name", HYPOTHESIS_DRIVERS)
    def test_validation_equals_the_scalar_loop(self, name, g):
        cs = L.coefficients_from_config({"name": "ou", "d": 1, "m": 1, "gamma": 0.4,
                                         "g": {"name": g}})
        ctx = GeneratorContext(cs, HYPOTHESIS_DRIVERS[name], TruncationConfig(level=0.5))
        rep = validate_hypotheses(ctx, T=0.7)
        c2, c3, w2, w3 = _scalar_validation(ctx, 0.7)
        assert (_bits(rep.small_jump["constant"]), _bits(rep.large_jump["constant"])) \
            == (_bits(c2), _bits(c3))
        for got, want in ((rep.small_jump["witness"], w2), (rep.large_jump["witness"], w3)):
            assert (got is None) == (want is None)
            if want is not None:
                assert got[0] == want[0] and _bits(got[1]) == _bits(want[1])
        assert (w2 is not None) == (name == "power-3.5")

    def test_tiny_gamma_has_no_small_jump_witness(self):
        # every radius l/|f| is above 1e157, where r r overflows
        cs = L.coefficients_from_config({"name": "ou", "d": 1, "m": 1, "gamma": 1e-160})
        ctx = GeneratorContext(cs, HYPOTHESIS_DRIVERS["exponential"], TruncationConfig(level=0.5))
        rep = validate_hypotheses(ctx, T=0.7)
        assert rep.small_jump["witness"] is None
        assert _bits(rep.small_jump["constant"]) == _bits(_scalar_validation(ctx, 0.7)[0])


def _window_reports(ens, ctx, phis, s, t):
    """The window [s, t] of ens as an ensemble view, and phis' reports over
    it with their martingale increments, from one march of its slices."""
    i_s, i_t = ens.index_at(s), ens.index_at(t)
    view = L.PathEnsemble(ens.times[i_s:i_t + 1], ens.values[:, i_s:i_t + 1])
    return view, fpe_weak_residual(view, ctx, phis, run_guards=False,
                                   martingale_window=(s, t))


def _acceptance_setup(n=20_000, h=0.01, seed=11):
    cs = ou_coeffs(0.5)
    drv = L.AtomicLevyMeasure([[0.9], [-0.9]], [0.3, 0.3])
    trunc = TruncationConfig(level=0.3)
    ctx = GeneratorContext(cs, drv, trunc)
    ens = L.simulate_ensemble(cs, drv, trunc, L.GaussianLaw([0.0], [0.5]), n, h,
                              1.0, seed=seed)
    return ctx, ens


class TestMartingaleResidual:
    def test_zero_dynamics_exact_zero(self):
        cs = zero_coeffs()
        ctx = GeneratorContext(cs, L.zero_measure(1), TruncationConfig(level=1.0))
        ens = L.simulate_ensemble(cs, L.zero_measure(1), TruncationConfig(level=1.0),
                                  L.GaussianLaw([0.0], [1.0]), 500, 0.1, 1.0, seed=1)
        view, (fpe,) = _window_reports(ens, ctx, [plateau_bump(r0=1.0, r1=3.0)], 0.2, 0.8)
        rep = martingale_residual(view, fpe)
        assert [b["estimate"] for b in rep.bins] == [0.0] * len(rep.bins)
        assert rep.within
        assert rep.overall[0] == 0.0

    def test_ou_within_three_sigma(self):
        ctx, ens = _acceptance_setup()
        view, reports = _window_reports(ens, ctx, default_dictionary(1)[:3], 0.25, 0.5)
        for fpe in reports:
            rep = martingale_residual(view, fpe)
            assert rep.within, fpe.phi_name

    def test_corrupted_drift_detected_and_bias_matches_oracle(self):
        ctx, ens = _acceptance_setup()
        bad = L.CoefficientSet(b=lambda t, x: ctx.coeffs.b(t, x) + 1.0,
                               sigma=ctx.coeffs.sigma, d=1, m=1,
                               gamma=ctx.coeffs.gamma, g=ctx.coeffs.g)
        bad_ctx = GeneratorContext(bad, ctx.driver, ctx.trunc)
        phi = default_dictionary(1)[1]
        view, (fpe,) = _window_reports(ens, bad_ctx, [phi], 0.25, 0.5)
        rep = martingale_residual(view, fpe)
        assert not rep.within
        # the unconditional bias is -E int grad phi dr, computable directly
        i_s, i_t = ens.index_at(0.25), ens.index_at(0.5)
        acc = np.zeros(ens.n_particles)
        for i in range(i_s, i_t):
            acc += phi.grad(ens.values[:, i, :])[:, 0] * (ens.times[i + 1] - ens.times[i])
        oracle = -float(acc.mean())
        assert rep.overall[0] - oracle == pytest.approx(0.0, abs=5 * rep.overall[1])

    def test_small_bins_flagged_not_scored(self):
        ctx, ens = _acceptance_setup(n=900)
        view, (fpe,) = _window_reports(ens, ctx, default_dictionary(1)[:1], 0.25, 0.5)
        rep = martingale_residual(view, fpe, min_bin=100)
        assert any(not b["scored"] for b in rep.bins)
        scored = [b for b in rep.bins if b["scored"]]
        assert all(b["count"] >= 100 for b in scored)


class TestFpeResidual:
    def test_static_zero_dynamics(self):
        cs = zero_coeffs()
        ctx = GeneratorContext(cs, L.zero_measure(1), TruncationConfig(level=1.0))
        ens = L.simulate_ensemble(cs, L.zero_measure(1), TruncationConfig(level=1.0),
                                  L.PointMass([0.4]), 200, 0.1, 1.0, seed=2)
        rep, = fpe_weak_residual(ens, ctx, [plateau_bump(r0=1.0, r1=3.0)])
        assert rep.sup_abs == 0.0

    def test_pure_jump_matches_master_equation(self):
        # single positive atom, f = 1: X_t = x0 + z N_t (level below the atom)
        cs = zero_coeffs(gamma=1.0)
        drv = L.AtomicLevyMeasure([[0.7]], [1.2])
        trunc = TruncationConfig(level=0.3)
        ctx = GeneratorContext(cs, drv, trunc)
        n = 40_000
        ens = L.simulate_ensemble(cs, drv, trunc, L.PointMass([0.2]), n, 0.02,
                                  1.0, seed=3)
        phi = plateau_bump(center=1.0, r0=1.2, r1=3.0)
        rep, = fpe_weak_residual(ens, ctx, [phi])
        assert rep.sup_abs <= 3 * rep.sup_se + 0.02
        for k in (10, 25, 50):
            t = float(ens.times[k])
            emp = float(phi.phi(ens.values[:, k, :]).mean())
            want = poisson_marginal_expectation(
                lambda pts: phi.phi(pts), 0.2, 0.7, 1.2, 0.0, t)
            se = float(phi.phi(ens.values[:, k, :]).std() / math.sqrt(n))
            assert abs(emp - want) <= 3.5 * se

    def test_pure_jump_compensated_drift_master_equation(self):
        # compensated atom (level above it): X_t = x0 + z N_t - z m t
        cs = zero_coeffs(gamma=1.0)
        drv = L.AtomicLevyMeasure([[0.7]], [1.2])
        trunc = TruncationConfig(level=1.0)
        ctx = GeneratorContext(cs, drv, trunc)
        n = 40_000
        ens = L.simulate_ensemble(cs, drv, trunc, L.PointMass([0.2]), n, 0.02,
                                  1.0, seed=4)
        phi = plateau_bump(center=0.5, r0=1.2, r1=3.0)
        rep, = fpe_weak_residual(ens, ctx, [phi])
        assert rep.sup_abs <= 3 * rep.sup_se + 0.02
        t = float(ens.times[-1])
        emp = float(phi.phi(ens.values[:, -1, :]).mean())
        want = poisson_marginal_expectation(
            lambda pts: phi.phi(pts), 0.2, 0.7, 1.2, -0.7 * 1.2, t)
        se = float(phi.phi(ens.values[:, -1, :]).std() / math.sqrt(n))
        assert abs(emp - want) <= 3.5 * se

    def test_guards_abort_on_divergence(self):
        cs = L.coefficients_from_config({
            "name": "zero", "d": 1, "m": 1, "gamma": 1.0,
            "g": {"name": "linear_growth", "params": {"c": 1.0}}})
        drv = L.power_law_tails_1d(exponent=3.5)
        trunc = TruncationConfig(level=1.0, small_jump_mode="discard_below_eps",
                                 eps=0.5)
        ctx = GeneratorContext(cs, drv, trunc)
        ens = L.simulate_ensemble(cs, drv, trunc, L.PointMass([1.0]), 50, 0.1,
                                  0.5, seed=5)
        with pytest.raises(GeneratorError, match="integrability guard"):
            integrability_guards(ens, ctx)

    @settings(max_examples=60, deadline=None)
    @given(vals=hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 12),
                                                 st.integers(1, 3)),
                           elements=st.floats(allow_nan=False)))
    def test_path_sup_norms_equal_the_full_tensor_formula(self, vals):
        # the integrability guards' radius, slice by slice, against the
        # (n, M+1) norm tensor it replaces; huge entries overflow to inf
        with np.errstate(over="ignore"):
            assert np.array_equal(path_sup_norms(vals),
                                  np.linalg.norm(vals, axis=2).max(axis=1))

    # signed zeros, subnormals, squares that underflow or overflow, inf and NaN
    NORM_ENTRIES = [0.0, -0.0, 5e-324, -2.5e-310, 1e-170, 1e200, -3e300, np.inf, -np.inf,
                    np.nan, 0.7, -1.3]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_row_norms_are_numpys_bits(self, d):
        # the guards', path_sup_norms' and the test functions' row norms
        # take np.linalg.norm's own formula for real input: its bits
        from levylab.testfunctions import _Frame

        y = np.random.default_rng(d).choice(self.NORM_ENTRIES, size=(480, d))
        vals = y.reshape(40, 12, d)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            a = y[:, :, None] * y[:, None, ::-1]
            want = np.linalg.norm(y, axis=1)
            assert G._norms(y).tobytes() == want.tobytes()
            assert _Frame(y, np.zeros(d), False).r.tobytes() == want.tobytes()
            assert G._norms(a, axis=(1, 2)).tobytes() == \
                np.linalg.norm(a, axis=(1, 2)).tobytes()
            sup = np.linalg.norm(vals[:, 0], axis=1)
            for i in range(1, vals.shape[1]):
                np.maximum(sup, np.linalg.norm(vals[:, i], axis=1), out=sup)
            assert path_sup_norms(vals).tobytes() == sup.tobytes()
        assert np.isnan(want).any() and np.isinf(want).any() and (want == 0.0).any()

    def test_unbounded_function_rejected(self):
        # log(1 + x^2) is not compactly supported: the march behind both
        # residual tests refuses it
        ctx, ens = _acceptance_setup(n=500)
        unbounded = L.TestFunction(
            "log1p", phi=lambda y: np.log1p(y[:, 0] ** 2),
            grad=lambda y: 2.0 * y / (1.0 + y ** 2),
            hess=lambda y: (2.0 * (1.0 - y ** 2) / (1.0 + y ** 2) ** 2)[:, :, None],
            dim=1, support_class="log_growth")
        with pytest.raises(GeneratorError, match="compactly supported"):
            fpe_weak_residual(ens, ctx, [unbounded], martingale_window=(0.25, 0.5))


def _assert_verdicts_are_pass_columns(tables, verdicts):
    """Each table verdict is the conjunction of its table's pass column."""
    for table, verdict in (("fpe_residuals", "fpe_within_budget"),
                           ("martingale_residuals", "martingale_within_3se")):
        header, rows = tables[table]
        column = header.index("pass")
        assert verdicts[verdict] == all(row[column] for row in rows), verdict


class TestSuperpositionCrosscheck:
    def test_zero_dynamics_pass(self):
        man = RunManifest(
            kind="superposition", seed=6, T=0.5, h=0.1, n_particles=300,
            spec={"coefficients": {"name": "zero", "d": 1, "m": 1, "gamma": 0.0},
                  "driver": {"name": "zero", "params": {"dim": 1}},
                  "truncation": {"level": 1.0},
                  "mu0": {"name": "point", "params": {"x0": [0.1]}}})
        tables, verdicts = experiments.run_superposition(man, man.require_valid(), man.seed,
                                                         workers=1)
        assert all(verdicts.values())
        _assert_verdicts_are_pass_columns(tables, verdicts)
        assert all(residual == 0.0 for _, _, residual, *_ in tables["fpe_residuals"][1])

    def test_fpe_verdict_budget_and_halving(self):
        from types import SimpleNamespace as Rep

        def rep(residual, mc_se):
            residual, mc_se = np.array(residual), np.array(mc_se)
            j = int(np.argmax(np.abs(residual)))
            return Rep(residual=residual, mc_se=mc_se, sup_abs=abs(residual[j]),
                       sup_se=mc_se[j])

        coarse = rep([0.0, 0.2], [0.0, 0.01])
        v = fpe_verdict(coarse, rep([0.0, 0.1], [0.0, 0.02]), h=0.1)
        slope = 2.5 * abs(0.2 - 0.1) / 0.05
        assert v.budget.tolist() == [3.0 * 0.0 + slope * 0.1, 3.0 * 0.01 + slope * 0.1]
        assert v.within and v.halving
        # the refined residual may exceed half the coarse one by 3 combined s.e.
        edge = 0.5 * 0.2 + 3.0 * (0.02 + 0.5 * 0.01)
        assert fpe_verdict(coarse, rep([0.0, edge], [0.0, 0.02]), h=0.1).halving
        assert not fpe_verdict(coarse, rep([0.0, edge + 1e-9], [0.0, 0.02]),
                               h=0.1).halving
        # a NaN refined residual gives a NaN budget: every time fails the
        # budget, and the halving check does not fail
        v = fpe_verdict(coarse, rep([0.0, math.nan], [0.0, 0.02]), h=0.1)
        assert np.isnan(v.budget).all() and not v.passes.any()
        assert not v.within and v.halving
        # a NaN coarse residual fails at its own time
        v = fpe_verdict(rep([0.0, math.nan], [0.0, 0.01]), rep([0.0, 0.1], [0.0, 0.02]),
                        h=0.1)
        assert not v.within

    def test_fpe_verdict_is_per_time(self):
        # the sup rule passes: the argmax time's 0.5 is within 3 * 1.0.  At
        # t_2, 0.1 is far outside 3 * 0.001 plus the small C h
        from types import SimpleNamespace as Rep
        coarse = Rep(residual=np.array([0.0, 0.5, 0.1]), mc_se=np.array([0.0, 1.0, 0.001]),
                     sup_abs=0.5, sup_se=1.0)
        half = Rep(sup_abs=0.4999, sup_se=1.0)
        v = fpe_verdict(coarse, half, h=0.01)
        assert v.budget[2] < 0.1
        assert coarse.sup_abs <= 3.0 * coarse.sup_se + v.budget[0]
        assert v.passes.tolist() == [True, True, False]
        assert not v.within and v.halving

    def test_corrupted_jump_scale_fails(self):
        cs = ou_coeffs(0.5)
        drv = L.AtomicLevyMeasure([[0.9], [-0.9]], [0.3, 0.3])
        trunc = TruncationConfig(level=0.3)
        bad = L.CoefficientSet(b=cs.b, sigma=cs.sigma, d=1, m=1, gamma=1.0,
                               g=cs.g, growth_bound=4.0)
        ens = L.simulate_ensemble(cs, drv, trunc, L.GaussianLaw([0.0], [0.5]),
                                  20_000, 0.01, 1.0, seed=7)
        bad_ctx = GeneratorContext(bad, drv, trunc)
        phi = default_dictionary(1)[0]
        rep, = fpe_weak_residual(ens, bad_ctx, [phi])
        assert rep.sup_abs > 3 * rep.sup_se + 0.02

    def test_corrupted_generator_fails_the_fpe_budget(self, monkeypatch):
        # the superposition kind simulates gamma = 0.5 while its generator
        # sees the gamma = 1.0 set above: some residual must leave its
        # 3 s.e. + C h budget.  The martingale verdict is not asserted: its
        # 48 uncorrected 3-s.e. bin tests can fail on a clean run
        man = RunManifest(
            kind="superposition", seed=7, T=1.0, h=0.01, n_particles=10_000,
            spec={"coefficients": {"name": "ou", "d": 1, "m": 1,
                                   "params": {"theta": 1.0, "sigma": math.sqrt(2.0)},
                                   "gamma": 0.5, "growth_bound": 3.0},
                  "driver": {"name": "atomic",
                             "params": {"atoms": [[0.9], [-0.9]], "masses": [0.3, 0.3]}},
                  "truncation": {"level": 0.3},
                  "mu0": {"name": "gaussian", "params": {"mean": [0.0], "std": [0.5]}}})
        tables, clean = experiments.run_superposition(man, man.require_valid(), man.seed,
                                                      workers=1)
        assert clean["fpe_within_budget"]
        _assert_verdicts_are_pass_columns(tables, clean)

        def corrupted(cs, driver, trunc):
            bad = L.CoefficientSet(b=cs.b, sigma=cs.sigma, d=1, m=1, gamma=1.0,
                                   g=cs.g, growth_bound=4.0)
            return GeneratorContext(bad, driver, trunc)

        monkeypatch.setattr(experiments, "GeneratorContext", corrupted)
        tables, verdicts = experiments.run_superposition(man, man.require_valid(), man.seed,
                                                         workers=1)
        assert not verdicts["fpe_within_budget"]
        _assert_verdicts_are_pass_columns(tables, verdicts)


# ---------------------------------------------------------------------------
# the dictionary pass against the per-function formulas it replaced
# ---------------------------------------------------------------------------

def _reference_apply(ctx, phi, t, X):
    """Generator values for one function, every piece recomputed per call."""
    n, d = X.shape
    g, h = phi.grad(X), phi.hess(X)
    local = (np.einsum("nij,nij->n", ctx.coeffs.a(t, X), h)
             + np.einsum("ni,ni->n", ctx.coeffs.b(t, X), g))
    fv = ctx.coeffs.f(t, X)
    atomic = isinstance(ctx.driver, L.AtomicLevyMeasure)
    z, w = (ctx.driver.atoms, None) if atomic else ctx.driver.quadrature(0.0, math.inf)
    U = fv[:, None, None] * z[None, :, :]
    shifted = phi.phi((X[:, None, :] + U).reshape(-1, d)).reshape(n, -1)
    if atomic:
        comp = np.einsum("nkd,nd->nk", U, g)
        small = np.linalg.norm(U, axis=2) <= ctx.trunc.level
        integrand = shifted - phi.phi(X)[:, None] - np.where(small, comp, 0.0)
        return local + integrand @ ctx.driver.masses
    moment = ctx.driver.first_moment(0.0, ctx.trunc.level / np.abs(fv))
    jump = ((shifted - phi.phi(X)[:, None]) * w).sum(axis=1)
    return local + (jump - np.einsum("nd,nd->n", fv[:, None] * moment, g))


def _reference_fpe(ens, ctx, phi):
    times, vals = ens.times, ens.values
    n, M1, _ = vals.shape
    phi0 = phi.phi(vals[:, 0, :])
    acc = np.zeros(n)
    residual, se = np.zeros(M1), np.zeros(M1)
    for i in range(M1 - 1):
        gv = _reference_apply(ctx, phi, float(times[i]), vals[:, i, :])
        acc += gv * (times[i + 1] - times[i])
        stat = phi.phi(vals[:, i + 1, :]) - phi0 - acc
        residual[i + 1] = float(stat.mean())
        se[i + 1] = float(stat.std(ddof=1) / math.sqrt(n))
    return residual, se


def _reference_increment(ens, ctx, phi, i_s, i_t):
    acc = np.zeros(ens.n_particles)
    for i in range(i_s, i_t):
        gv = _reference_apply(ctx, phi, float(ens.times[i]), ens.values[:, i, :])
        acc += gv * (ens.times[i + 1] - ens.times[i])
    return phi.phi(ens.values[:, i_t, :]) - phi.phi(ens.values[:, i_s, :]) - acc


def _handmade(dim):
    """A user-built function with no fused jet."""
    f = plateau_bump(center=np.full(dim, 0.3), r0=0.5, r1=1.7, height=1.7)
    return L.TestFunction("handmade", lambda y: f.phi(y), lambda y: f.grad(y),
                          lambda y: f.hess(y), dim, "compact", support_radius=1.7)


def _pass_context(case):
    """(context, dim) of an atomic or a radial driver."""
    if case == "atomic-1d":
        drv = L.AtomicLevyMeasure([[0.3], [-1.6], [2.4]], [0.5, 0.8, 0.2])
        return GeneratorContext(ou_coeffs(0.7), drv, TruncationConfig(level=0.5)), 1
    if case == "radial-1d":
        return GeneratorContext(ou_coeffs(0.7), L.exponential_tails_1d(),
                                TruncationConfig(level=0.5)), 1
    if case == "atomic-no-band":
        # every image |0.5 * 0.9| lies above the level: no compensator term
        drv = L.AtomicLevyMeasure([[0.9], [-0.9]], [0.3, 0.3])
        return GeneratorContext(ou_coeffs(0.5), drv, TruncationConfig(level=0.3)), 1
    cs = L.coefficients_from_config({"name": "bounded_nonlinear", "d": 2, "m": 2,
                                     "gamma": 0.6})
    drv = L.AtomicLevyMeasure([[0.4, -0.2], [-1.5, 1.0]], [0.6, 0.3])
    return GeneratorContext(cs, drv, TruncationConfig(level=0.7)), 2


@pytest.mark.parametrize("case", ["atomic-1d", "radial-1d", "atomic-2d",
                                  "atomic-no-band"])
def test_dictionary_pass_matches_per_function_reference(case):
    ctx, dim = _pass_context(case)
    dictionary = default_dictionary(dim) + [_handmade(dim)]
    X = np.random.default_rng(23).uniform(-3.0, 3.0, size=(150, dim))
    vals = generator_apply(ctx, dictionary, 0.4, X)
    assert vals.shape == (len(dictionary), 150)
    for k, phi in enumerate(dictionary):
        want = _reference_apply(ctx, phi, 0.4, X)
        assert np.array_equal(vals[k], want), phi.name
        assert np.array_equal(generator_apply(ctx, [phi], 0.4, X)[0], want)


@pytest.mark.parametrize("cap", [1, 450, 3000])
def test_radial_chunks_equal_one_pass_bitwise(cap, monkeypatch):
    ctx, dim = _pass_context("radial-1d")
    q = ctx.driver.quadrature(0.0, math.inf)[1].size
    seen = []
    f = _handmade(dim)
    recording = L.TestFunction("recording", lambda y: seen.append(len(y)) or f.phi(y),
                               f.grad, f.hess, dim, "compact", support_radius=1.7)
    dictionary = default_dictionary(dim) + [recording]
    X = np.random.default_rng(31).uniform(-3.0, 3.0, size=(37, dim))
    whole = generator_apply(ctx, dictionary, 0.4, X)
    monkeypatch.setattr(G, "_IMAGE_ENTRIES", cap)
    seen.clear()
    chunked = generator_apply(ctx, dictionary, 0.4, X)
    # 544 nodes: chunks of 1, 1 and 5 paths; the jet sees all 37 paths once
    rows = {1: [1] * 37, 450: [1] * 37, 3000: [5] * 7 + [2]}[cap]
    assert q == 544 and seen == [37] + [q * r for r in rows]
    assert whole.tobytes() == chunked.tobytes()


def test_radial_jump_terms_memory_is_bounded(monkeypatch):
    # one unchunked (paths, nodes) float temporary would take 2 MB here
    cap = 1 << 13
    monkeypatch.setattr(G, "_IMAGE_ENTRIES", cap)
    ctx = GeneratorContext(ou_coeffs(0.7), L.exponential_tails_1d(),
                           TruncationConfig(level=0.5))
    X = np.random.default_rng(5).uniform(-3.0, 3.0, size=(500, 1))
    dictionary = default_dictionary(1)
    tracemalloc.start()
    try:
        vals = generator_apply(ctx, dictionary, 0.4, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(vals))
    assert peak < 32 * cap * 8 + 64 * X.size * 8


def test_fpe_and_martingale_share_one_pass_bitwise():
    ctx, ens = _acceptance_setup(n=600, h=0.05, seed=12)
    dictionary = default_dictionary(1) + [_handmade(1)]
    reports = fpe_weak_residual(ens, ctx, dictionary, martingale_window=(0.25, 0.5))
    i_s, i_t = ens.index_at(0.25), ens.index_at(0.5)
    view, alone = _window_reports(ens, ctx, dictionary, 0.25, 0.5)
    for phi, rep, window_rep in zip(dictionary, reports, alone):
        residual, se = _reference_fpe(ens, ctx, phi)
        assert np.array_equal(rep.residual, residual), phi.name
        assert np.array_equal(rep.mc_se, se), phi.name
        single, = fpe_weak_residual(ens, ctx, [phi], run_guards=False)
        assert np.array_equal(single.residual, residual)
        assert rep.window == (i_s, i_t) and window_rep.window == (0, i_t - i_s)
        assert np.array_equal(rep.increments,
                              _reference_increment(ens, ctx, phi, i_s, i_t))
        assert np.array_equal(window_rep.increments, rep.increments)
        # the full march and the window view's march bin for bin
        full = martingale_residual(ens, rep)
        windowed = martingale_residual(view, window_rep)
        assert full.bins == windowed.bins
        assert full.overall == windowed.overall


def test_martingale_window_reaching_the_horizon():
    ctx, ens = _acceptance_setup(n=300, h=0.1, seed=13)
    phi = default_dictionary(1)[0]
    rep, = fpe_weak_residual(ens, ctx, [phi], martingale_window=(0.3, 1.0))
    i_s, i_t = ens.index_at(0.3), ens.index_at(1.0)
    assert np.array_equal(rep.increments,
                          _reference_increment(ens, ctx, phi, i_s, i_t))


def test_martingale_report_needs_a_window_and_one_increment_per_path():
    ctx, ens = _acceptance_setup(n=300, h=0.1, seed=13)
    bump0 = default_dictionary(1)[0]
    bare, = fpe_weak_residual(ens, ctx, [bump0], run_guards=False)
    with pytest.raises(GeneratorError, match="'bump0' has no martingale window"):
        martingale_residual(ens, bare)
    rep, = fpe_weak_residual(ens, ctx, [bump0], run_guards=False,
                             martingale_window=(0.2, 0.5))
    short = replace(rep, increments=rep.increments[:-1])
    with pytest.raises(GeneratorError, match="one increment per path"):
        martingale_residual(ens, short)


_DICTIONARIES = {d: default_dictionary(d, validate=False) for d in (1, 2, 3)}


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), d=st.integers(1, 3), k=st.integers(1, 5), band=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_atomic_jump_terms_are_the_particle_major_sums(n, d, k, band, seed):
    # the atom-major layout of _jump_terms must give the bits of the
    # particle-major formula written out here; with band False no image lies
    # in the compensated band, with band True some may
    rng = np.random.default_rng(seed)
    atoms, masses = rng.uniform(-1.5, 1.5, (k, d)), rng.uniform(0.1, 2.0, k)
    cs = L.coefficients_from_config({"name": "zero", "d": d, "m": d, "gamma": 0.7,
                                     "g": {"name": "cosine", "params": {"a": 0.5}}})
    ctx = GeneratorContext(cs, L.AtomicLevyMeasure(atoms, masses),
                           TruncationConfig(level=0.8 if band else 1e-9))
    X = rng.normal(0.0, 2.0, (n, d))
    phis = _DICTIONARIES[d]
    jets = L.testfunctions.evaluate(phis, X)
    got = G._jump_terms(ctx, phis, jets, 0.3, X)
    fv = cs.f(0.3, X)
    U = fv[:, None, None] * atoms[None, :, :]
    small = np.linalg.norm(U, axis=2) <= ctx.trunc.level
    assert band or not small.any()
    at_images = L.testfunctions.evaluate(phis, (X[:, None, :] + U).reshape(-1, d),
                                         derivatives=False)
    for k_, (phi_images, (base, grad, _)) in enumerate(zip(at_images, jets)):
        integrand = phi_images.reshape(-1, k) - base[:, None]
        if small.any():
            integrand -= np.where(small, np.einsum("nqd,nd->nq", U, grad), 0.0)
        assert got[k_].tobytes() == (integrand @ masses).tobytes()
