import numpy as np
import pytest

from levylab.testfunctions import (TestFunction, TestFunctionError,
                                   constant_function, default_dictionary,
                                   plateau_bump, windowed_monomial)


def test_plateau_is_exact_inside():
    f = plateau_bump(center=0.0, r0=1.0, r1=2.0, height=3.0)
    x = np.array([[0.0], [0.5], [-0.99]])
    assert np.all(f.phi(x) == 3.0)
    assert np.all(f.grad(x) == 0.0)
    assert np.all(f.hess(x) == 0.0)
    assert np.all(f.phi(np.array([[2.0], [5.0]])) == 0.0)


def test_windowed_monomial_exact_on_plateau():
    f = windowed_monomial([2], center=0.0, r0=2.0, r1=4.0, coef=1.0)
    x = np.array([[0.3], [-1.5], [1.9]])
    np.testing.assert_array_equal(f.phi(x), x[:, 0] ** 2)
    np.testing.assert_array_equal(f.grad(x)[:, 0], 2 * x[:, 0])
    np.testing.assert_array_equal(f.hess(x)[:, 0, 0], np.full(3, 2.0))


def test_cross_monomial_2d():
    f = windowed_monomial([1, 1], center=[0.0, 0.0], r0=2.0, r1=4.0)
    x = np.array([[0.5, -1.0]])
    assert f.phi(x)[0] == pytest.approx(-0.5)
    np.testing.assert_allclose(f.grad(x)[0], [-1.0, 0.5])
    assert f.hess(x)[0, 0, 1] == pytest.approx(1.0)


def test_derivative_validation_passes_for_library_functions():
    for f in default_dictionary(1) + default_dictionary(2):
        assert f.support_class == "compact"


def test_derivative_validation_catches_planted_bug():
    good = plateau_bump(center=0.0, r0=0.8, r1=2.0)
    bad = TestFunction("bad", good.phi, lambda x: 1.1 * good.grad(x), good.hess,
                       1, "compact", support_radius=2.0)
    probes = np.linspace(-2.5, 2.5, 41)[:, None]
    with pytest.raises(TestFunctionError, match="gradient"):
        bad.validate_derivatives(probes)
    bad2 = TestFunction("bad2", good.phi, good.grad,
                        lambda x: good.hess(x) + 0.5, 1, "compact",
                        support_radius=2.0)
    with pytest.raises(TestFunctionError, match="hessian"):
        bad2.validate_derivatives(probes)


def test_constant_function():
    f = constant_function(2.5, 2)
    x = np.random.default_rng(0).normal(size=(4, 2))
    assert np.all(f.phi(x) == 2.5)
    assert np.all(f.grad(x) == 0.0)


def test_window_is_c2_smooth_at_seams():
    f = plateau_bump(center=0.0, r0=1.0, r1=2.0)
    for seam in (1.0, 2.0):
        eps = 1e-7
        left = f.phi(np.array([[seam - eps]]))[0]
        right = f.phi(np.array([[seam + eps]]))[0]
        assert abs(left - right) < 1e-6
        gl = f.grad(np.array([[seam - eps]]))[0, 0]
        gr = f.grad(np.array([[seam + eps]]))[0, 0]
        assert abs(gl - gr) < 1e-5
        hl = f.hess(np.array([[seam - eps]]))[0, 0, 0]
        hr = f.hess(np.array([[seam + eps]]))[0, 0, 0]
        assert abs(hl - hr) < 1e-4


def test_bad_radii_rejected():
    with pytest.raises(TestFunctionError):
        plateau_bump(r0=2.0, r1=1.0)
    with pytest.raises(TestFunctionError):
        windowed_monomial([3])


def _radial_probes(f, rng):
    """Points at r = 0, on the plateau, in the annulus and beyond r1."""
    r1 = f.support_radius
    radii = np.repeat([0.0, 0.3 * r1, 0.9 * r1, 1.5 * r1], 5)
    u = rng.normal(size=(radii.size, f.dim))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return f.center + radii[:, None] * u


@pytest.mark.parametrize("dim", [1, 2])
def test_jet_equals_separate_calls_bitwise(dim):
    rng = np.random.default_rng(17)
    for f in default_dictionary(dim):
        x = _radial_probes(f, rng)
        for got, want in zip(f.jet(x), (f.phi(x), f.grad(x), f.hess(x))):
            assert got.shape == want.shape
            assert np.array_equal(got, want), f.name


def test_jet_falls_back_to_separate_calls():
    good = plateau_bump(center=0.0, r0=0.8, r1=2.0)
    hand = TestFunction("hand", lambda x: good.phi(x), lambda x: good.grad(x),
                        lambda x: good.hess(x), 1, "compact", support_radius=2.0)
    x = np.linspace(-2.5, 2.5, 11)[:, None]
    for got, want in zip(hand.jet(x), good.jet(x)):
        assert np.array_equal(got, want)


def test_validation_covers_the_jet():
    good = plateau_bump(center=0.0, r0=0.8, r1=2.0)
    probes = np.linspace(-2.5, 2.5, 21)[:, None]

    def bad_grad_jet(x):
        v, g, h = good.jet(x)
        return v, 1.01 * g, h

    bad = TestFunction("bad_grad", good.phi, lambda x: bad_grad_jet(x)[1],
                       lambda x: bad_grad_jet(x)[2], 1, "compact",
                       support_radius=2.0, jet=bad_grad_jet)
    with pytest.raises(TestFunctionError, match="gradient"):
        bad.validate_derivatives(probes)

    def bad_value_jet(x):
        v, g, h = good.jet(x)
        return v + 1e-15, g, h

    off = TestFunction("bad_value", good.phi, good.grad, good.hess, 1, "compact",
                       support_radius=2.0, jet=bad_value_jet)
    with pytest.raises(TestFunctionError, match="jet value"):
        off.validate_derivatives(probes)
