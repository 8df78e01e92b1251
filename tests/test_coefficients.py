import math
from dataclasses import replace

import numpy as np
import pytest

from levylab.coefficients import (CoefficientError, coefficients_from_config,
                                  default_probe_points, family_from_config,
                                  linear_growth_report, linear_growth_reports,
                                  require_linear_growth)


def test_zero_coefficients_constants():
    cs = coefficients_from_config({"name": "zero", "d": 2, "m": 2})
    rep = linear_growth_report(cs)
    assert rep["constant"] == 0.0
    x = np.random.default_rng(0).normal(size=(5, 2))
    assert np.all(cs.b(0.0, x) == 0.0)
    assert np.all(cs.f(0.0, x) == 0.0)


def test_linear_drift_constant_near_one():
    # |x| <= C (1 + |x|) holds with C = 1; the probe-grid fit approaches it
    cs = coefficients_from_config({"name": "linear", "d": 1, "m": 1,
                                   "params": {"A": [[1.0]], "sigma": 0.0}})
    rep = linear_growth_report(cs)
    assert 0.9 <= rep["constant"] <= 1.0
    assert rep["witness"] is None


def test_declared_bound_violation_witnessed():
    cs = coefficients_from_config({"name": "linear", "d": 1, "m": 1,
                                   "params": {"A": [[4.0]], "sigma": 0.0},
                                   "growth_bound": 1.0})
    with pytest.raises(CoefficientError) as exc:
        require_linear_growth(cs)
    assert "violated" in str(exc.value)


def test_ou_a_matrix():
    cs = coefficients_from_config({"name": "ou", "d": 1, "m": 1,
                                   "params": {"theta": 1.0, "sigma": math.sqrt(2)}})
    a = cs.a(0.0, np.array([[0.3]]))
    assert a[0, 0, 0] == pytest.approx(1.0)


def test_rotation_degenerate_sigma_rank():
    cs = coefficients_from_config({"name": "rotation_degenerate", "d": 2, "m": 1,
                                   "params": {"omega": 2.0, "s": 1.5}})
    s = cs.sigma(0.0, np.zeros((1, 2)))
    assert s.shape == (1, 2, 1)
    assert s[0, 1, 0] == 0.0
    b = cs.b(0.0, np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(b[0], [0.0, 2.0])


class TestFamily:
    cfg = {
        "base": {"name": "ou", "d": 1, "m": 1,
                 "params": {"theta": 1.0, "sigma": 1.0}, "gamma": 0.5},
        "drift_perturbation": {"name": "sine", "amp": 2.0},
        "gamma_perturbation": 1.0,
        "schedule": [1, 2, 4],
    }

    def test_members_share_g_and_gamma_sup(self):
        fam = family_from_config(self.cfg)
        assert set(fam.members) == {1, 2, 4}
        assert fam.gamma_sup == pytest.approx(1.5)  # gamma + 1/1
        for n, cs in fam.members.items():
            assert cs.g is fam.limit.g

    def test_perturbation_scales_inverse_n(self):
        fam = family_from_config(self.cfg)
        x = np.array([[0.7]])
        base = fam.limit.b(0.0, x)[0, 0]
        for n, cs in fam.members.items():
            assert cs.b(0.0, x)[0, 0] - base == pytest.approx(
                2.0 / n * math.sin(0.7), rel=1e-12)
            assert cs.gamma == pytest.approx(0.5 + 1.0 / n)

    def test_members_are_read_only(self):
        # a member is the limit plus its scalars: it cannot be swapped in place
        fam = family_from_config(self.cfg)
        with pytest.raises(TypeError):
            fam.members[2] = fam.members[1]
        with pytest.raises(TypeError):
            del fam.members[2]
        assert list(fam.members) == [1, 2, 4]

    def test_replace_rebuilds_consistent_members(self):
        fam = family_from_config(self.cfg)
        sub = replace(fam, schedule=(4, 1))
        assert list(sub.members) == [4, 1] and sub.limit is fam.limit
        x = np.array([[0.7], [-1.3]])
        for n in (4, 1):
            assert sub.members[n].b(0.0, x).tobytes() == fam.members[n].b(0.0, x).tobytes()
            assert sub.members[n].gamma == fam.members[n].gamma
        moved = replace(fam, limit=replace(fam.limit, gamma=0.25))
        assert [cs.gamma for cs in moved.all_sets()] == [1.25, 0.75, 0.5, 0.25]

    @pytest.mark.parametrize("base", [
        {"name": "ou", "d": 1, "m": 1, "params": {"theta": 1.0, "sigma": 1.0}},
        {"name": "linear", "d": 2, "m": 2,
         "params": {"A": [[-1.0, 0.3], [0.2, -0.7]], "sigma": 0.4}, "gamma": 0.3}])
    @pytest.mark.parametrize("drift", ["sine", "shift"])
    @pytest.mark.parametrize("sigma_amp", [0.0, 1.5])
    @pytest.mark.parametrize("bound", [None, "between", 1e9])
    def test_family_reports_are_the_per_set_reports(self, base, drift, sigma_amp, bound):
        # one stacked evaluation gives each set the constant and witness of
        # its own report, and the family fails at its first failing set with
        # that set's message
        cfg = {"base": base, "schedule": [4, 1, 2],
               "drift_perturbation": {"name": drift, "amp": 3.0},
               "sigma_perturbation": sigma_amp, "gamma_perturbation": 0.5}
        if bound == "between":
            sets = family_from_config(cfg).all_sets()
            consts = sorted(linear_growth_report(cs)["constant"] for cs in sets)
            bound = 0.5 * (consts[-2] + consts[-1])   # only member 1 exceeds it
        if bound is not None:
            cfg = dict(cfg, base=dict(base, growth_bound=bound))
        fam = family_from_config(cfg)
        probes = default_probe_points(fam.limit.d, 1.0)
        got = linear_growth_reports(fam, probes)
        want = [linear_growth_report(cs, probes) for cs in fam.all_sets()]
        for g, w in zip(got, want):
            assert (g["constant"], g["declared"]) == (w["constant"], w["declared"])
            assert (g["witness"] is None) == (w["witness"] is None)
            if w["witness"] is not None:
                assert g["witness"][0] == w["witness"][0]
                assert g["witness"][1].tobytes() == w["witness"][1].tobytes()
        failing = [cs for cs, w in zip(fam.all_sets(), want) if w["witness"] is not None]
        assert len(failing) == (1 if bound is not None and bound < 1e9 else 0)
        if failing:
            with pytest.raises(CoefficientError) as one:
                require_linear_growth(failing[0], probes)
            with pytest.raises(CoefficientError) as stacked:
                require_linear_growth(fam, probes)
            assert str(stacked.value) == str(one.value)
        else:
            require_linear_growth(fam, probes)
