import math

import numpy as np
import pytest

from levylab.psi import (PsiError, PsiFunction, construct_psi, identity_psi,
                         weighted_big_psi_sum)


def assert_profile_constraints(psi, probes):
    d = psi.deriv(probes)
    s = psi.second(probes)
    assert psi.value(0.0) == 0.0
    assert np.all(d > 0.0)
    assert np.all(d <= 1.0)
    assert np.all(s <= 0.0)
    assert np.all(s >= -2.0)
    # growth along increasing anchors
    anchors = np.concatenate([psi.breaks, [psi.breaks[-1] + 10.0,
                                           psi.breaks[-1] + 1e6]])
    vals = psi.value(anchors)
    assert np.all(np.diff(vals) > 0.0)


def test_identity_for_compact_support():
    rng = np.random.default_rng(2)
    psi = construct_psi(rng.uniform(-3, 3, size=(400, 2)))
    assert psi.breaks.size == 1
    assert_profile_constraints(psi, np.linspace(0, 50, 501))


def test_point_mass_at_zero():
    psi = construct_psi(np.zeros((50, 1)))
    assert weighted_big_psi_sum(psi, np.zeros((50, 1))) == 0.0


def test_heavy_tail_flattening_engages_and_matches_oracle():
    js = np.arange(2, 7)
    r_targets = np.exp(js)
    xs = np.sqrt(np.expm1(r_targets))[:, None]
    ws = 1.0 / (js * np.log(js) ** 2)
    psi = construct_psi(xs, weights=ws, budget_factor=1.0)
    assert psi.breaks.size > 1
    # direct-summation oracle with compensated float accumulation
    terms = [float(w) * float(psi.value(float(math.log1p(float(x) ** 2))))
             for w, x in zip(ws, xs[:, 0])]
    oracle = math.fsum(terms) / math.fsum(float(w) for w in ws)
    got = weighted_big_psi_sum(psi, xs, ws)
    assert got == pytest.approx(oracle, abs=1e-9)
    med = float(r_targets[0])  # dominant atom
    assert got <= 1.0 * (1.0 + med) + 1e-9
    probes = np.concatenate([np.linspace(0.0, r_targets[-1] * 1.2, 1000),
                             psi.breaks, psi.breaks + 1e-9])
    assert_profile_constraints(psi, probes)


def test_degenerate_identical_samples_ok():
    psi = construct_psi(np.full((20, 1), 3.0))
    assert_profile_constraints(psi, np.linspace(0, 10, 101))


def test_empty_input_rejected():
    with pytest.raises(PsiError):
        construct_psi(np.empty((0, 1)))


def test_bad_weights_rejected():
    with pytest.raises(PsiError):
        construct_psi(np.ones((3, 1)), weights=np.array([1.0, -1.0, 1.0]))


def test_serialization_roundtrip():
    js = np.arange(2, 7)
    xs = np.sqrt(np.expm1(np.exp(js)))[:, None]
    ws = 1.0 / (js * np.log(js) ** 2)
    psi = construct_psi(xs, weights=ws, budget_factor=1.0)
    back = PsiFunction(**psi.to_dict())
    r = np.linspace(0, 500, 777)
    assert np.array_equal(back.value(r), psi.value(r))
    assert np.array_equal(back.deriv(r), psi.deriv(r))


def test_invalid_profiles_rejected():
    with pytest.raises(PsiError):
        PsiFunction(np.array([0.0, 1.0]), np.array([1.0, 1.5]))  # slope > 1
    with pytest.raises(PsiError):
        PsiFunction(np.array([0.0, 1.0]), np.array([0.5, 0.8]))  # increasing
    with pytest.raises(PsiError):
        PsiFunction(np.array([0.0, 1e-4]), np.array([1.0, 0.2]))  # curvature < -2


def test_identity_psi_is_plain_identity():
    psi = identity_psi()
    r = np.linspace(0, 100, 301)
    assert np.array_equal(psi.value(r), r)
    assert np.all(psi.deriv(r) == 1.0)
    assert np.all(psi.second(r) == 0.0)
