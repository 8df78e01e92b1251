import numpy as np
import pytest

from levylab.testfunctions import (COMPACT, TestFunction, TestFunctionError, _window,
                                   default_dictionary, evaluate, plateau_bump,
                                   windowed_monomial)


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
    with pytest.raises(TestFunctionError):
        windowed_monomial([1], r0=4.0, r1=2.0)


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


# ---------------------------------------------------------------------------
# the dictionary pass against the per-function code it replaced
# ---------------------------------------------------------------------------
# The window, radial Hessian and the two windowed shapes as they were
# before the dictionary pass, kept verbatim as the bitwise reference.

def _ref_smooth_step(v):
    return v * v * v * (10.0 + v * (-15.0 + 6.0 * v))


def _ref_smooth_step_d1(v):
    return v * v * (30.0 + v * (-60.0 + 30.0 * v))


def _ref_smooth_step_d2(v):
    return v * (60.0 + v * (-180.0 + 120.0 * v))


def _ref_window(r, r0, r1):
    """W(r): 1 on [0, r0], C^2 decay to 0 at r1, 0 beyond; returns W, W', W''."""
    r = np.asarray(r, dtype=float)
    W = np.ones_like(r)
    W1 = np.zeros_like(r)
    W2 = np.zeros_like(r)
    L = r1 - r0
    mid = (r > r0) & (r < r1)
    if mid.any():
        v = (r[mid] - r0) / L
        W[mid] = 1.0 - _ref_smooth_step(v)
        W1[mid] = -_ref_smooth_step_d1(v) / L
        W2[mid] = -_ref_smooth_step_d2(v) / L ** 2
    W[r >= r1] = 0.0
    return W, W1, W2


def _ref_radial_parts(x, center):
    y = np.atleast_2d(x) - center
    r = np.linalg.norm(y, axis=1)
    return y, r


def _ref_radial_hess(y, r, W1, W2):
    """Hessian of W(|y|) given radial derivatives; safe at r=0 (plateau)."""
    n, d = y.shape
    out = np.zeros((n, d, d))
    pos = r > 0
    if pos.any():
        u = y[pos] / r[pos, None]
        outer = np.einsum("ni,nj->nij", u, u)
        eye = np.eye(d)[None, :, :]
        out[pos] = (W2[pos, None, None] * outer
                    + (W1[pos] / r[pos])[:, None, None] * (eye - outer))
    return out


def _ref_plateau_bump(center=0.0, r0=1.0, r1=2.0, height=1.0, dim=None,
                 name=None) -> TestFunction:
    """Compactly supported C^2 bump: equal to `height` on |x-c| <= r0."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d = dim or center.shape[0]
    center = np.broadcast_to(center, (d,)).copy()
    if not 0 < r0 < r1:
        raise TestFunctionError("need 0 < r0 < r1")

    def phi(x):
        _, r = _ref_radial_parts(x, center)
        W, _, _ = _ref_window(r, r0, r1)
        return height * W

    def jet(x):
        y, r = _ref_radial_parts(x, center)
        W, W1, W2 = _ref_window(r, r0, r1)
        g = np.zeros_like(y)
        pos = r > 0
        g[pos] = height * (W1[pos] / r[pos])[:, None] * y[pos]
        return height * W, g, height * _ref_radial_hess(y, r, W1, W2)

    fn = TestFunction(name or f"bump(c={center.tolist()},r0={r0},r1={r1})",
                      phi, lambda x: jet(x)[1], lambda x: jet(x)[2], d, COMPACT,
                      support_radius=r1, center=center, jet=jet)
    return fn


def _ref_windowed_monomial(powers, center=0.0, r0=2.0, r1=4.0, coef=1.0,
                      name=None) -> TestFunction:
    """coef * prod_i (x_i - c_i)^p_i times the plateau window.

    Exactly polynomial on the plateau |x - c| <= r0.  Supported powers per
    coordinate: 0, 1, 2.
    """
    powers = np.atleast_1d(np.asarray(powers, dtype=int))
    d = powers.shape[0]
    center = np.broadcast_to(np.atleast_1d(np.asarray(center, dtype=float)), (d,)).copy()
    if powers.min() < 0 or powers.max() > 2:
        raise TestFunctionError("windowed_monomial supports powers 0, 1, 2")

    def mono(y):
        m = np.full(y.shape[0], coef)
        for i, p in enumerate(powers):
            if p:
                m = m * y[:, i] ** p
        return m

    def mono_grad(y):
        out = np.zeros_like(y)
        for i, p in enumerate(powers):
            if p == 0:
                continue
            gi = np.full(y.shape[0], coef) * (p * y[:, i] ** (p - 1))
            for j, pj in enumerate(powers):
                if j != i and pj:
                    gi = gi * y[:, j] ** pj
            out[:, i] = gi
        return out

    def mono_hess(y):
        n = y.shape[0]
        out = np.zeros((n, d, d))
        for i, pi in enumerate(powers):
            for j, pj in enumerate(powers):
                if i == j:
                    if pi == 2:
                        hij = np.full(n, 2.0 * coef)
                        for k, pk in enumerate(powers):
                            if k != i and pk:
                                hij = hij * y[:, k] ** pk
                        out[:, i, i] = hij
                else:
                    if pi and pj:
                        hij = np.full(n, coef * pi * pj)
                        hij = hij * y[:, i] ** (pi - 1) * y[:, j] ** (pj - 1)
                        for k, pk in enumerate(powers):
                            if k not in (i, j) and pk:
                                hij = hij * y[:, k] ** pk
                        out[:, i, j] = hij
        return out

    def phi(x):
        y, r = _ref_radial_parts(x, center)
        W, _, _ = _ref_window(r, r0, r1)
        return mono(y) * W

    def jet(x):
        y, r = _ref_radial_parts(x, center)
        W, W1, W2 = _ref_window(r, r0, r1)
        gW = np.zeros_like(y)
        pos = r > 0
        gW[pos] = (W1[pos] / r[pos])[:, None] * y[pos]
        m, gm = mono(y), mono_grad(y)
        cross = np.einsum("ni,nj->nij", gm, gW)
        hess = (mono_hess(y) * W[:, None, None]
                + cross + np.transpose(cross, (0, 2, 1))
                + m[:, None, None] * _ref_radial_hess(y, r, W1, W2))
        return m * W, gm * W[:, None] + m[:, None] * gW, hess

    fn = TestFunction(name or f"wmono(p={powers.tolist()},c={center.tolist()},r0={r0})",
                      phi, lambda x: jet(x)[1], lambda x: jet(x)[2], d, COMPACT,
                      support_radius=r1, center=center, jet=jet)
    return fn


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def _shared_specs(d):
    """(shape, kwargs) with shared centres and windows; dyadic radii and
    centres, so that c + r lands exactly on r0 and r1."""
    e = [1] + [0] * (d - 1)
    zero, half = np.zeros(d), np.full(d, 0.5)
    specs = [
        ("bump", dict(center=zero, r0=0.75, r1=2.25)),
        ("bump", dict(center=half, r0=0.75, r1=2.5, height=1.7)),
        ("mono", dict(powers=e, center=zero, r0=0.75, r1=2.25, coef=0.5)),
        ("bump", dict(center=zero, r0=2.0, r1=4.5)),
        ("mono", dict(powers=[2] + [0] * (d - 1), center=zero, r0=2.0, r1=4.5,
                      coef=0.25)),
        ("mono", dict(powers=[1] * d, center=half, r0=0.75, r1=2.5, coef=1.5)),
    ]
    if d > 1:
        specs.append(("mono", dict(powers=[2, 1] + [0] * (d - 2), center=half,
                                   r0=0.75, r1=2.5, coef=-0.5)))
    return specs


def _build(specs, bump, mono):
    return [bump(**kw) if kind == "bump" else mono(**kw) for kind, kw in specs]


def _seam_points(specs, d, rng):
    """Random points plus, per spec, points at r = 0, on the plateau, exactly
    at r0, in the band, exactly at r1 and beyond r1, and x = -0.0."""
    pts = [rng.uniform(-5.0, 5.0, size=(40, d)), np.full((1, d), -0.0)]
    for _, kw in specs:
        c, r0, r1 = kw["center"], kw["r0"], kw["r1"]
        u = rng.normal(size=d)
        for s in (0.0, 0.5 * r0, r0, 0.5 * (r0 + r1), r1, 1.5 * r1):
            for sign in (1.0, -1.0):
                pts.append((c + sign * s * np.eye(d)[0])[None])
            pts.append((c + s * u / np.linalg.norm(u))[None])
    return np.vstack(pts)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dictionary_pass_matches_parent_bitwise(d):
    rng = np.random.default_rng(41 + d)
    specs = _shared_specs(d)
    ref = _build(specs, _ref_plateau_bump, _ref_windowed_monomial)
    new = _build(specs, plateau_bump, windowed_monomial)
    # a function without radial structure, in the middle of the dictionary
    hand = TestFunction("hand", ref[1].phi, ref[1].grad, ref[1].hess, d, "compact",
                        support_radius=2.5)
    ref[3:3] = new[3:3] = [hand]
    x = _seam_points(specs, d, rng)
    for _, kw in specs:
        r = np.linalg.norm(x - kw["center"], axis=1)
        assert {0.0, kw["r0"], kw["r1"]} <= set(r.tolist())
    jets = evaluate(new, x)
    values = evaluate(new, x, derivatives=False)
    assert len(jets) == len(values) == len(new)
    for k, (f, want) in enumerate(zip(new, ref)):
        want_jet = want.jet(x)
        assert all(_same_bits(a, b) for a, b in zip(jets[k], want_jet)), (k, f.name)
        assert _same_bits(values[k], want.phi(x)), (k, f.name)
        for got, w in zip((f.phi(x), f.grad(x), f.hess(x)), (want.phi(x),) + want_jet[1:]):
            assert _same_bits(got, w), (k, f.name)
        assert f.name == want.name


@pytest.mark.parametrize("d", [1, 2, 3])
def test_default_dictionary_matches_parent_bitwise(d):
    e = [1] + [0] * (d - 1)
    ref = [_ref_plateau_bump(center=np.zeros(d), r0=0.8, r1=2.2, name="bump0"),
           _ref_plateau_bump(center=np.full(d, 1.0), r0=0.8, r1=2.6, name="bump+1"),
           _ref_plateau_bump(center=np.full(d, -1.0), r0=0.8, r1=2.6, name="bump-1"),
           _ref_plateau_bump(center=np.zeros(d), r0=2.0, r1=4.5, name="bump_wide"),
           _ref_windowed_monomial(e, r0=2.0, r1=4.5, coef=0.5, name="wlin"),
           _ref_windowed_monomial([2] + e[1:], r0=2.0, r1=4.5, coef=0.25,
                                  name="wquad")]
    x = np.random.default_rng(d).normal(0.0, 2.0, size=(500, d))
    x = np.vstack([x, np.zeros((1, d)), np.full((1, d), 2.0)])
    dictionary = default_dictionary(d)
    for f, want, jet, value in zip(dictionary, ref, evaluate(dictionary, x),
                                   evaluate(dictionary, x, derivatives=False)):
        assert f.name == want.name
        assert all(_same_bits(a, b) for a, b in zip(jet, want.jet(x))), f.name
        assert _same_bits(value, want.phi(x)), f.name


def test_window_at_non_finite_radii():
    r = np.array([np.nan, np.inf, 0.5, 3.0])
    # value-only: NaN stays NaN (the code before the dictionary pass gave
    # W = 1 there); +inf is beyond r1, so W = 0 as before
    W = _window(r, 0.8, 2.2, derivatives=False)
    assert np.isnan(W[0]) and W[1:].tolist() == [0.0, 1.0, 0.0]
    Wj, W1, W2 = _window(r, 0.8, 2.2)
    assert _same_bits(Wj, W)
    assert _same_bits(W1, np.zeros(4)) and _same_bits(W2, np.zeros(4))
    bump = plateau_bump(center=0.0, r0=0.8, r1=2.2)
    x = np.array([[np.nan], [np.inf], [-np.inf]])
    with np.errstate(invalid="ignore"):     # inf / inf in the radial direction
        phi, jet_phi = bump.phi(x), bump.jet(x)[0]
    assert np.isnan(phi[0]) and phi[1:].tolist() == [0.0, 0.0]
    assert _same_bits(jet_phi, phi)
    ref = _ref_plateau_bump(center=0.0, r0=0.8, r1=2.2)
    assert ref.phi(x).tolist() == [1.0, 0.0, 0.0]


def test_one_dictionary_pass_evaluates_each_window_once(monkeypatch):
    import levylab.testfunctions as tf
    from levylab import AtomicLevyMeasure, GeneratorContext, TruncationConfig
    from levylab.coefficients import coefficients_from_config
    from levylab.generator import generator_apply

    windows, frames = [], []
    real_window, real_frame = tf._window, tf._Frame

    def counting_window(r, r0, r1, derivatives=True):
        windows.append((r0, r1, derivatives))
        return real_window(r, r0, r1, derivatives)

    class CountingFrame(real_frame):
        def __init__(self, *args):
            frames.append(args[2])
            super().__init__(*args)

    dictionary = default_dictionary(1)
    monkeypatch.setattr(tf, "_window", counting_window)
    monkeypatch.setattr(tf, "_Frame", CountingFrame)
    x = np.linspace(-3.0, 3.0, 50)[:, None]
    evaluate(dictionary, x)
    assert len(windows) == 4 and len(frames) == 3 and all(frames)
    # one slice: jets at x, then phi alone at the atomic driver's jump images
    windows.clear()
    frames.clear()
    ou = coefficients_from_config({"name": "ou", "d": 1, "m": 1, "gamma": 0.5,
                                   "params": {"theta": 1.0, "sigma": 1.0}})
    ctx = GeneratorContext(ou, AtomicLevyMeasure([[0.9], [-0.9]], [0.3, 0.3]),
                           TruncationConfig(level=0.3))
    generator_apply(ctx, dictionary, 0.0, x)
    assert [w[2] for w in windows] == [True] * 4 + [False] * 4
    assert frames == [True] * 3 + [False] * 3
