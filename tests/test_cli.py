import csv
import filecmp
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levylab
import levylab as L
from levylab.coefficients import family_from_config
from levylab.cli import main
from levylab.experiments import replay, run
from levylab.filtering import FilterError, ObservationSetup, observation_model_from_config
from levylab.manifests import ManifestError, RunManifest


def child_env():
    """The environment for a child that imports levylab from where this
    process found it."""
    src = str(Path(levylab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def small_superposition_manifest(seed=42):
    return RunManifest(
        kind="superposition", seed=seed, T=0.5, h=0.025, n_particles=1500,
        spec={
            "coefficients": {"name": "ou", "d": 1, "m": 1,
                             "params": {"theta": 1.0, "sigma": math.sqrt(2.0)},
                             "gamma": 0.5, "growth_bound": 3.0},
            "driver": {"name": "atomic",
                       "params": {"atoms": [[0.9], [-0.9]], "masses": [0.3, 0.3]}},
            "truncation": {"level": 0.3},
            "mu0": {"name": "gaussian", "params": {"mean": [0.0], "std": [0.5]}},
            "block_size": 256,
        },
        assumptions={"forward_equation_uniqueness": "assumed, not verified"})


def small_limit_manifest(seed=7):
    return RunManifest(
        kind="limit", seed=seed, T=0.5, h=0.05, n_particles=800,
        spec={
            "family": {
                "base": {"name": "ou", "d": 1, "m": 1,
                         "params": {"theta": 1.0, "sigma": 1.0},
                         "gamma": 0.4, "growth_bound": 4.0},
                "drift_perturbation": {"name": "sine", "amp": 1.0},
                "gamma_perturbation": 0.3,
                "schedule": [1, 2, 4, 8],
            },
            "driver": {"name": "atomic",
                       "params": {"atoms": [[0.8], [-0.8]], "masses": [0.3, 0.3]}},
            "truncation": {"level": 0.5},
            "mu0": {"name": "gaussian", "params": {"mean": [0.0], "std": [0.5]}},
        })


class TestManifests:
    def test_roundtrip_lossless(self, tmp_path):
        man = small_superposition_manifest()
        p = tmp_path / "m.json"
        man.save(str(p))
        back = RunManifest.load(str(p))
        assert back.to_dict() == man.to_dict()

    def test_validation_enumerates_failures(self):
        man = small_superposition_manifest()
        man.h = -1.0
        man.spec = dict(man.spec)
        man.spec["truncation"] = {"level": -2.0}
        errors = man.validate()
        assert len(errors) >= 2
        assert any("positive" in e for e in errors)

    def test_unknown_kind(self):
        man = small_superposition_manifest()
        man.kind = "nope"
        assert man.validate()

    def test_missing_section(self):
        man = small_superposition_manifest()
        man.spec = {k: v for k, v in man.spec.items() if k != "driver"}
        assert any("driver" in e for e in man.validate())


class TestRunAndReplay:
    def test_trivial_superposition_passes(self, tmp_path):
        man = RunManifest(
            kind="superposition", seed=1, T=0.4, h=0.1, n_particles=200,
            spec={
                "coefficients": {"name": "zero", "d": 1, "m": 1},
                "driver": {"name": "zero", "params": {"dim": 1}},
                "truncation": {"level": 1.0},
                "mu0": {"name": "point", "params": {"x0": [0.2]}},
            })
        summary = run(man, str(tmp_path / "out"))
        assert summary["overall_pass"]
        rows = open(tmp_path / "out" / "fpe_residuals.csv").read().splitlines()
        assert rows[0] == "t,phi_id,residual,mc_se,budget,pass"
        assert all(line.split(",")[2] == "0.0" for line in rows[1:])

    def test_limit_kind_and_replay(self, tmp_path):
        man = small_limit_manifest()
        out = tmp_path / "bundle"
        summary = run(man, str(out))
        assert summary["verdicts"]["limit_pass"]
        result = replay(str(out))
        assert result["identical"], result["diffs"]

    def test_limit_distances_equal_a_per_member_recomputation(self, tmp_path, monkeypatch):
        # the runner evaluates the limit's dictionary once per checkpoint and
        # shares it among the members; the table must be the per-member
        # recomputation's, bit for bit
        import levylab.experiments as X
        from levylab.convergence import bl_distance_coupled, density_sup_estimate

        man = small_limit_manifest()
        calls = []
        build = X.default_bl_dictionary

        def counting(dim):
            cfg = build(dim)
            cfg.dictionary = [(name, lambda x, fn=fn, name=name: calls.append(name) or fn(x))
                              for name, fn in cfg.dictionary]
            return cfg

        monkeypatch.setattr(X, "default_bl_dictionary", counting)
        run(man, str(tmp_path / "out"))
        checkpoints = np.linspace(man.T / 10, man.T, 10)
        members = man.spec["family"]["schedule"]
        names = [name for name, _ in build(1).dictionary]
        # one call per checkpoint on each member's values and on the limit's
        assert sorted(calls) == sorted(names * 10 * (len(members) + 1))
        family, driver, trunc, mu0 = man.require_valid()
        cfg = build(1)
        ens, limit = L.simulate_coupled_family(family, driver, trunc, mu0, man.n_particles,
                                               man.h, man.T, man.seed,
                                               record_times=checkpoints)
        want = []
        for n in sorted(members):
            best, best_se, dens = 0.0, 0.0, 0.0
            for tc in checkpoints:
                i = limit.index_at(float(tc))
                x = ens[n].values[:, i, :]
                gap, se = bl_distance_coupled(x, limit.values[:, i, :], cfg)
                if gap >= best:
                    best, best_se = gap, se
                dens = max(dens, density_sup_estimate(x))
            want.append([str(n), repr(best), repr(best_se), repr(dens)])
        with open(tmp_path / "out" / "distances.csv") as fh:
            assert list(csv.reader(fh))[1:] == want

    def test_replay_detects_seed_change(self, tmp_path):
        man = small_limit_manifest()
        out = tmp_path / "bundle"
        run(man, str(out))
        # adulterate the stored manifest seed: replay must detect the diff
        mpath = out / "manifest.json"
        stored = json.loads(mpath.read_text())
        stored["seed"] += 1
        mpath.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        result = replay(str(out))
        assert not result["identical"]

    def test_worker_counts_bitwise_identical(self, tmp_path):
        # run_info.json records the processes started: at most one per CPU
        man = small_superposition_manifest()
        outs = {}
        for w in (1, 4):
            out = tmp_path / f"w{w}"
            run(man, str(out), workers=w)
            outs[w] = out
            assert (json.loads((out / "run_info.json").read_text())["workers"]
                    == min(w, os.cpu_count() or 1))
        for name in ("fpe_residuals.csv", "martingale_residuals.csv",
                     "summary.json"):
            assert filecmp.cmp(outs[1] / name, outs[4] / name, shallow=False)

    def test_limit_worker_counts_bitwise_identical(self, tmp_path):
        # the coupled family runs by particle block, every member inside
        # each block, in one pool
        man = small_limit_manifest()
        outs = {}
        for w in (1, 2):
            out = tmp_path / f"w{w}"
            run(man, str(out), workers=w)
            outs[w] = out
            assert (json.loads((out / "run_info.json").read_text())["workers"]
                    == min(w, os.cpu_count() or 1))
        for name in ("distances.csv", "summary.json", "manifest.json"):
            assert filecmp.cmp(outs[1] / name, outs[2] / name, shallow=False)

    def test_invalid_manifest_rejected_before_compute(self, tmp_path):
        man = small_superposition_manifest()
        man.spec = dict(man.spec)
        man.spec["truncation"] = {"level": 0.0}
        with pytest.raises(ManifestError, match="positive"):
            run(man, str(tmp_path / "x"))


class TestCliEntry:
    def test_validate_run_replay_flow(self, tmp_path, capsys):
        man = small_limit_manifest()
        mpath = tmp_path / "man.json"
        man.save(str(mpath))
        assert main(["validate", str(mpath)]) == 0
        out = tmp_path / "bundle"
        assert main(["run", str(mpath), "--out", str(out)]) == 0
        assert main(["replay", str(out)]) == 0
        capsys.readouterr()

    def test_validate_bad_manifest_exit_code(self, tmp_path, capsys):
        man = small_limit_manifest()
        man.h = -0.5
        mpath = tmp_path / "man.json"
        man.save(str(mpath))
        assert main(["validate", str(mpath)]) == 1
        err = capsys.readouterr().err
        assert "INVALID" in err

    def test_console_script_subprocess(self, tmp_path):
        man = small_limit_manifest()
        mpath = tmp_path / "man.json"
        man.save(str(mpath))
        proc = subprocess.run(
            [sys.executable, "-m", "levylab.cli", "validate", str(mpath)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert proc.stdout.strip() == "OK"


def diagnostics_manifest(**settings):
    return RunManifest(
        kind="diagnostics", seed=3, T=0.5, h=0.05, n_particles=400,
        spec={
            "coefficients": {"name": "ou", "d": 1, "m": 1,
                             "params": {"theta": 1.0, "sigma": 1.0},
                             "gamma": 0.4, "growth_bound": 4.0},
            "driver": {"name": "atomic",
                       "params": {"atoms": [[0.8]], "masses": [0.4]}},
            "truncation": {"level": 0.5},
            "mu0": {"name": "gaussian", "params": {"mean": [0.0], "std": [1.0]}},
            **settings,
        })


def test_diagnostics_kind(tmp_path):
    man = diagnostics_manifest()
    summary = run(man, str(tmp_path / "diag"), workers=4)
    assert summary["verdicts"]["hypotheses_ok"]
    # the diagnostics kind runs in one process whatever --workers says
    assert json.loads((tmp_path / "diag" / "run_info.json").read_text())["workers"] == 1
    assert math.isfinite(summary["verdicts"]["lyapunov_moment"])
    assert (tmp_path / "diag" / "tightness.csv").exists()


def filter_robustness_manifest(reps=2):
    return RunManifest(
        kind="filter_robustness", seed=5, T=0.5, h=0.05, n_particles=300,
        spec={
            "family": {
                "base": {"name": "ou", "d": 1, "m": 1,
                         "params": {"theta": 1.0, "sigma": 1.0},
                         "gamma": 0.4, "growth_bound": 4.0},
                "drift_perturbation": {"name": "sine", "amp": 1.0},
                "gamma_perturbation": 0.4,
                "schedule": [1, 2, 4, 8],
            },
            "observation": {
                "sensor": {"name": "identity"},
                "lambda": {"name": "state_logistic",
                           "params": {"base": 0.8, "decay": 0.5}},
                "nu2": {"name": "atomic",
                        "params": {"atoms": [[0.3], [-0.5], [1.8]],
                                   "masses": [0.8, 0.7, 0.4]}},
                "u0_region": [0.0, 1.0],
            },
            "driver": {"name": "atomic",
                       "params": {"atoms": [[0.8], [-0.8]],
                                  "masses": [0.25, 0.25]}},
            "truncation": {"level": 0.5},
            "mu0": {"name": "gaussian", "params": {"mean": [0.0], "std": [0.5]}},
            "reps": reps,
        })


def test_filter_robustness_kind(tmp_path):
    man = filter_robustness_manifest()
    summary = run(man, str(tmp_path / "rob"))
    assert summary["verdicts"]["robustness_pass"]
    lines = open(tmp_path / "rob" / "filter_limit.csv").read().splitlines()
    assert lines[0] == "t,phi_id,pi_t,rho_t_1,ess"


def test_sensor_width_must_match_the_observation_noise(tmp_path, capsys):
    # three continuous channels over a 1-d nu2 would share one Brownian noise:
    # validate probes the sensor once, so run refuses before any compute
    man = filter_robustness_manifest()
    man.spec["observation"]["sensor"] = {"name": "linear", "params": {"H": [[1], [2], [-1]]}}
    mpath, out = tmp_path / "man.json", tmp_path / "never"
    man.save(str(mpath))
    message = ("INVALID: observation: the sensor has 3 output channels but nu2.dim is 1: "
               "each continuous channel needs its own Brownian noise\n")
    assert main(["validate", str(mpath)]) == 1
    assert capsys.readouterr().err == message
    assert main(["run", str(mpath), "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()
    # a library caller that builds the setup without a manifest meets the same check
    setup = ObservationSetup(observation_model_from_config(man.spec["observation"]),
                             man.T, man.h, seed=man.seed)
    with pytest.raises(FilterError, match="3 output channels but nu2.dim is 1"):
        setup.record_for(np.zeros((setup.grid.size, 1)))


# manifests whose fields are each valid but do not fit together: each once
# passed validate, then died mid-run (a driver or band refusal at the first
# draw or integral, the level bound, a bare numpy error for a dimension, the
# generator's refusal after the whole simulation) or, for an h that does not
# divide T, judged its h/2 run by the wrong step, and for one path, took an
# s.e. of one sample
POWER_LAW = {"name": "power_law_tails_1d", "params": {"exponent": 2.5}}
DISCARD = {"level": 0.3, "small_jump_mode": "discard_below_eps", "eps": 0.05}
INFINITE = ("driver: driver has infinite activity above the sampling floor; use "
            "discard_below_eps with a positive eps")
NO_QUADRATURE = ("driver: jump quadrature needs a finite-activity driver; the small-jump "
                 "square integrability must be checked via validate_hypotheses instead")


def _steep_family(spec):
    spec["family"]["base"]["gamma"] = 5.0
    spec["family"]["gamma_perturbation"] = 0.5
    spec["truncation"]["level"] = 0.3


@pytest.mark.parametrize("factory, edit, messages", [
    (small_limit_manifest, lambda d: d["spec"].update(driver=POWER_LAW), [INFINITE]),
    (small_superposition_manifest, lambda d: d["spec"].update(driver=POWER_LAW),
     [INFINITE, NO_QUADRATURE]),
    (small_limit_manifest, lambda d: _steep_family(d["spec"]),
     ["family: truncation level 0.3 exceeds 1/(sqrt(2)*Gamma) = 0.128565 required "
      "by the limit experiment"]),
    (filter_robustness_manifest, lambda d: d["spec"]["observation"].update(nu2=POWER_LAW),
     ["observation: band quadrature needs finite nu2 mass on the band; set eps_obs > 0 "
      "for infinite-activity nu2"]),
    (small_limit_manifest,
     lambda d: d["spec"].update(mu0={"name": "point", "params": {"x0": [0.0, 0.0]}}),
     ["mu0: dimension 2 does not match the signal's d = 1"]),
    (small_limit_manifest,
     lambda d: d["spec"]["driver"].update(params={"atoms": [[0.8, 0.1]], "masses": [0.3]}),
     ["driver: dimension 2 does not match the signal's d = 1"]),
    (small_superposition_manifest,
     lambda d: d["spec"].update(driver=POWER_LAW, truncation=DISCARD), [NO_QUADRATURE]),
    (small_superposition_manifest, lambda d: d.update(T=1.0, h=0.7),
     ["grid step h must divide T = 1.0 into whole cells for kind 'superposition', "
      "got 0.7"]),
    (small_superposition_manifest, lambda d: d.update(n_particles=1),
     ["n_particles must be at least 2 for kind 'superposition' (its s.e. needs two "
      "paths), got 1"]),
    (diagnostics_manifest, lambda d: d.update(n_particles=1),
     ["n_particles must be at least 2 for kind 'diagnostics' (its s.e. needs two "
      "paths), got 1"])],
    ids=["limit-infinite-activity", "superposition-infinite-activity", "level-bound",
         "nu2-infinite-on-band", "mu0-dimension", "driver-dimension",
         "superposition-discard-mode", "superposition-h-not-dividing-T",
         "superposition-one-path", "diagnostics-one-path"])
def test_ill_fitting_fields_refused_before_any_draw(tmp_path, capsys, monkeypatch, factory,
                                                    edit, messages):
    import levylab.engine as E
    import levylab.filtering as F

    def never(*args, **kwargs):
        raise AssertionError("a refused manifest drew randomness")

    monkeypatch.setattr(E, "_prepare_block", never)
    monkeypatch.setattr(F, "_prepare_block", never)
    d = factory().to_dict()
    edit(d)
    mpath, out = tmp_path / "man.json", tmp_path / "never"
    mpath.write_text(json.dumps(d))
    want = "".join(f"INVALID: {m}\n" for m in messages)
    assert main(["validate", str(mpath)]) == 1
    assert capsys.readouterr().err == want
    assert main(["run", str(mpath), "--out", str(out)]) == 1
    assert capsys.readouterr().err == want
    assert not out.exists()


def test_growth_bound_refused_at_simulation_start_without_a_bundle(tmp_path, monkeypatch):
    # the declared growth bound is checked where the simulation starts, on
    # probe points: still before any draw, and the run leaves no directory
    import levylab.engine as E
    from levylab.coefficients import CoefficientError

    def never(*args, **kwargs):
        raise AssertionError("the growth check came after a draw")

    monkeypatch.setattr(E, "_prepare_block", never)
    d = next(m for m in _bench_manifests() if m["kind"] == "superposition")
    d["spec"]["coefficients"]["growth_bound"] = 0.5
    man = RunManifest.from_dict(d)
    assert man.validate() == []
    with pytest.raises(CoefficientError, match="linear growth bound 0.5 violated"):
        run(man, str(tmp_path / "bundle"))
    assert not (tmp_path / "bundle").exists()


def test_a_run_builds_each_object_once(tmp_path, monkeypatch):
    # validate builds the family and the observation model, and the run reads
    # them: no levylab module builds either a second time
    from levylab import coefficients as C
    from levylab import filtering as F

    calls = []
    for name, build in (("family_from_config", C.family_from_config),
                        ("observation_model_from_config", F.observation_model_from_config)):
        def counting(cfg, name=name, build=build):
            calls.append(name)
            return build(cfg)

        for module in [m for key, m in sys.modules.items()
                       if key.split(".")[0] == "levylab" and getattr(m, name, None) is build]:
            monkeypatch.setattr(module, name, counting)
    man = filter_robustness_manifest()
    man.n_particles = 50
    run(man, str(tmp_path / "rob"))
    assert sorted(calls) == ["family_from_config", "observation_model_from_config"]


@st.composite
def registry_manifests(draw):
    """Tiny manifests of every kind from registry configs with d in {1, 2},
    every driver in both small-jump modes, and dimensions that may not fit."""
    kind = draw(st.sampled_from(["superposition", "limit", "filter_robustness",
                                 "diagnostics"]))
    d = draw(st.sampled_from([1, 2]))
    k, k0 = (draw(st.sampled_from([d, d, 3 - d])) for _ in range(2))   # mostly fitting
    coeffs = {"name": draw(st.sampled_from(["zero", "constant_drift", "ou", "linear",
                                            "rotation_degenerate", "bounded_nonlinear"])),
              "d": d, "m": draw(st.sampled_from([1, d])),
              "gamma": draw(st.sampled_from([0.0, 0.5, 3.0])),
              "g": {"name": draw(st.sampled_from(["one", "cosine"]))},
              "growth_bound": draw(st.sampled_from([0.5, 20.0]))}
    drivers = [{"name": "atomic", "params": {"atoms": [[0.8] * k, [-0.5] * k],
                                             "masses": [0.5, 0.5]}},
               {"name": "exponential_tails_1d", "params": {"intensity_pos": 1.0,
                                                           "rate_pos": 2.0}},
               POWER_LAW, {"name": "zero", "params": {"dim": k}}]
    trunc = draw(st.sampled_from([{"level": 0.1}, {"level": 0.5}, DISCARD]))
    spec = {"driver": draw(st.sampled_from(drivers)), "truncation": trunc,
            "mu0": {"name": "point", "params": {"x0": [0.1] * k0}}}
    if kind in ("limit", "filter_robustness"):
        spec["family"] = {"base": coeffs, "schedule": [1, 2], "gamma_perturbation": 0.5,
                          "drift_perturbation": {"name": "sine", "amp": 1.0}}
    else:
        spec["coefficients"] = coeffs
    if kind == "filter_robustness":
        spec["observation"] = {
            "sensor": {"name": "identity"},
            "lambda": {"name": "state_logistic", "params": {"base": 0.8, "decay": 0.5}},
            "nu2": draw(st.sampled_from(drivers[:3])),
            **draw(st.sampled_from([{}, {"eps_obs": 0.1}]))}
        spec["reps"] = 2
    return RunManifest(kind=kind, seed=draw(st.integers(0, 9)),
                       T=draw(st.sampled_from([0.2, 0.3])),
                       h=draw(st.sampled_from([0.1, 0.15])),
                       n_particles=draw(st.integers(1, 4)), spec=spec)


@settings(max_examples=600)
@given(man=registry_manifests())
def test_accepted_manifests_run_or_raise_a_declared_error(man):
    # the one declared run-time refusal is the growth bound, checked where the
    # simulation starts; a numerical failure names its particle
    from levylab.coefficients import CoefficientError
    from levylab.engine import SimulationError

    if man.validate():
        return
    with tempfile.TemporaryDirectory() as tmp:
        try:
            run(man, os.path.join(tmp, "bundle"))
        except SimulationError as exc:
            assert "particle" in str(exc)
        except CoefficientError as exc:
            assert "linear growth bound" in str(exc)


def test_filter_robustness_draws_filter_particles_once_per_rep(tmp_path, monkeypatch):
    # filter_limit.csv is read from rep 0, so no filter runs outside the reps
    import levylab.filtering as F
    from levylab import rng as R

    drawn = []
    prepare = F._prepare_block

    def counting(*args, **kwargs):
        inputs = prepare(*args, **kwargs)
        drawn.append((inputs.seed, inputs.namespace, inputs.particles.size))
        return inputs

    monkeypatch.setattr(F, "_prepare_block", counting)
    man = filter_robustness_manifest(reps=3)
    run(man, str(tmp_path / "rob"))
    assert drawn == [(man.seed + 1000 * r, R.FILTER, man.n_particles) for r in range(3)]


@pytest.mark.parametrize("reps", [0, 1, 2.5])
def test_filter_robustness_bad_reps_rejected(reps):
    errors = filter_robustness_manifest(reps).validate()
    assert errors == [f"spec.reps must be an integer >= 2 (the distance s.e. "
                      f"needs two reps), got {reps!r}"]


def test_superposition_one_generator_call_per_slice(tmp_path, monkeypatch):
    import levylab.generator as gen
    from levylab.engine import make_base_grid

    calls = []
    real = gen.generator_apply

    def counting(ctx, phis, t, X, jets=None):
        calls.append((len(phis), t))
        return real(ctx, phis, t, X, jets=jets)

    monkeypatch.setattr(gen, "generator_apply", counting)
    man = small_superposition_manifest()
    run(man, str(tmp_path / "sup"))
    slices = [float(t) for h in (man.h, man.h / 2)
              for t in make_base_grid(man.T, h)[:-1]]
    assert calls == [(6, t) for t in slices]


@pytest.mark.parametrize("block", [0, -4, 2.5, True, "256"])
def test_superposition_bad_block_size_rejected(block):
    man = small_superposition_manifest()
    man.spec = dict(man.spec, block_size=block)
    assert man.validate() == [f"spec.block_size must be an integer >= 1, "
                              f"got {block!r}"]


@pytest.mark.parametrize("window", [[0.3, 0.2], [0.2, 0.2], [-0.1, 0.2],
                                    [0.1, 0.6], [0.1, math.nan], [0.1, math.inf],
                                    [0.1], [0.1, 0.2, 0.3], "0.1,0.2",
                                    [False, 0.2], [0.1, "0.2"]])
def test_superposition_bad_martingale_window_rejected(tmp_path, window):
    man = small_superposition_manifest()
    man.spec = dict(man.spec, martingale_window=window)
    message = (f"spec.martingale_window must be two finite numbers [s, t] with "
               f"0 <= s < t <= T = 0.5, got {window!r}")
    assert man.validate() == [message]
    with pytest.raises(ManifestError, match="martingale_window"):
        run(man, str(tmp_path / "never"))
    assert not (tmp_path / "never").exists()


def test_superposition_radial_driver_end_to_end(tmp_path):
    # a radial driver takes the quadrature-rule branch of the generator's
    # jump terms: phi at chunks of jump images from the value-only pass
    man = small_superposition_manifest(seed=11)
    man.T, man.h, man.n_particles = 0.2, 0.1, 150
    man.spec = dict(man.spec, driver={"name": "exponential_tails_1d",
                                      "params": {"intensity_pos": 1.0,
                                                 "rate_pos": 2.0}})
    first, second = tmp_path / "a", tmp_path / "b"
    run(man, str(first))
    run(man, str(second))
    with open(first / "fpe_residuals.csv") as fh:
        fpe = list(csv.DictReader(fh))
    assert len(fpe) == 6 * 3
    assert all(math.isfinite(float(r[k])) for r in fpe
               for k in ("residual", "mc_se", "budget"))
    with open(first / "martingale_residuals.csv") as fh:
        bins = list(csv.DictReader(fh))
    assert bins and all(math.isfinite(float(r["estimate"])) for r in bins)
    assert all(math.isfinite(float(r["se"])) for r in bins if r["scored"] == "True")
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    for name in names:
        if name != "run_info.json":
            assert filecmp.cmp(first / name, second / name, shallow=False), name


def test_superposition_window_and_block_boundaries_valid():
    man = small_superposition_manifest()
    man.spec = dict(man.spec, martingale_window=[0, 0.5], block_size=1)
    assert man.validate() == []


@pytest.mark.parametrize("n_checkpoints", [0, -3, 2.5, True, "10", None])
def test_limit_bad_n_checkpoints_rejected_before_compute(tmp_path, n_checkpoints):
    man = small_limit_manifest()
    man.spec = dict(man.spec, n_checkpoints=n_checkpoints)
    assert man.validate() == [f"spec.n_checkpoints must be an integer >= 1, "
                              f"got {n_checkpoints!r}"]
    with pytest.raises(ManifestError, match="n_checkpoints"):
        run(man, str(tmp_path / "never"))
    assert not (tmp_path / "never").exists()


_BAD_DIAGNOSTICS = [
    ("K_grid", [], "spec.K_grid must be a non-empty list of finite numbers > 0"),
    ("K_grid", [1, 0], "spec.K_grid must be a non-empty list of finite numbers > 0"),
    ("K_grid", [1, math.inf], "spec.K_grid must be a non-empty list of finite numbers > 0"),
    ("K_grid", [1, "2"], "spec.K_grid must be a non-empty list of finite numbers > 0"),
    ("K_grid", 4, "spec.K_grid must be a non-empty list of finite numbers > 0"),
    ("theta_grid", [], "spec.theta_grid must be a non-empty list of numbers in (0, T] "
                       "with T = 0.5"),
    ("theta_grid", [0.1, 0.0], "spec.theta_grid must be a non-empty list of numbers "
                               "in (0, T] with T = 0.5"),
    ("theta_grid", [0.1, 0.6], "spec.theta_grid must be a non-empty list of numbers "
                               "in (0, T] with T = 0.5"),
    ("theta_grid", [math.nan], "spec.theta_grid must be a non-empty list of numbers "
                               "in (0, T] with T = 0.5"),
    ("N_threshold", 0.0, "spec.N_threshold must be a finite number > 0"),
    ("N_threshold", -1, "spec.N_threshold must be a finite number > 0"),
    ("N_threshold", math.inf, "spec.N_threshold must be a finite number > 0"),
    ("N_threshold", math.nan, "spec.N_threshold must be a finite number > 0"),
    ("N_threshold", [1.0], "spec.N_threshold must be a finite number > 0"),
    ("N_threshold", False, "spec.N_threshold must be a finite number > 0"),
]


@pytest.mark.parametrize("key,value,message", _BAD_DIAGNOSTICS)
def test_diagnostics_bad_settings_rejected_before_compute(tmp_path, key, value, message):
    man = diagnostics_manifest(**{key: value})
    assert man.validate() == [f"{message}, got {value!r}"]
    with pytest.raises(ManifestError, match=key):
        run(man, str(tmp_path / "never"))
    assert not (tmp_path / "never").exists()


def test_limit_and_diagnostics_boundaries_valid():
    man = small_limit_manifest()
    man.spec = dict(man.spec, n_checkpoints=1)
    assert man.validate() == []
    assert diagnostics_manifest(K_grid=[0.5], theta_grid=[0.5, 1e-9],
                                N_threshold=1e-12).validate() == []


# ---------------------------------------------------------------------------
# unknown keys and out-of-range seeds are rejected before any compute
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _bench_manifests():
    """The benchmark's workload manifests at its default seed."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    seed = workloads["DEFAULT_SEED"]
    return [w.manifest(seed) for w in workloads["WORKLOADS"].values()]


def _readme_manifests():
    text = (ROOT / "README.md").read_text()
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.S)]


def test_bench_and_readme_manifests_valid():
    manifests = _bench_manifests() + _readme_manifests()
    assert len(manifests) == 5
    for d in manifests:
        assert RunManifest.from_dict(d).validate() == []


# a misspelt key inside a nested object would otherwise fall back to a default
@pytest.mark.parametrize("path, typo, field", [
    (("family", "base", "gamma"), "gama", "family"),
    (("driver", "params"), "parms", "driver"),
    (("mu0", "params"), "prams", "mu0"),
    (("family", "schedule"), "shedule", "family"),
    (("family", "drift_perturbation", "amp"), "ampl", "family")],
    ids=["family.base.gama", "driver.parms", "mu0.prams", "family.shedule",
         "drift_perturbation.ampl"])
def test_unknown_nested_keys_rejected(path, typo, field):
    d = next(m for m in _readme_manifests() if m["kind"] == "limit")
    obj = d["spec"]
    for key in path[:-1]:
        obj = obj[key]
    obj[typo] = obj.pop(path[-1])
    errors = RunManifest.from_dict(d).validate()
    assert len(errors) == 1 and errors[0].startswith(f"{field}: unknown key {typo!r} in ")


def _rename(obj, key, typo):
    obj[typo] = obj.pop(key)


# a misspelt registry name or parameter would otherwise raise a bare
# KeyError, or fall back to the builder's default
@pytest.mark.parametrize("edit, message", [
    (lambda spec: _rename(spec["family"]["base"]["params"], "theta", "thetta"),
     "family: unknown key 'thetta' in the params of coefficients 'ou'; "
     "allowed: theta, mean, sigma"),
    (lambda spec: spec["family"]["base"].update(g={"name": "cosine",
                                                   "params": {"a": 0.5, "kk": 2.0}}),
     "family: unknown key 'kk' in the params of jump shape 'cosine'; allowed: a, k"),
    (lambda spec: _rename(spec["mu0"]["params"], "std", "sdt"),
     "mu0: unknown key 'sdt' in the params of initial law 'gaussian'; "
     "allowed: mean, std"),
    (lambda spec: spec["mu0"].update(name="gauss"),
     "mu0: unknown initial law 'gauss'; known: ['atomic', 'gaussian', 'point', "
     "'uniform_ball']")],
    ids=["base.params.thetta", "g.params.kk", "mu0.params.sdt", "mu0.gauss"])
def test_unknown_registry_params_rejected(edit, message):
    d = next(m for m in _readme_manifests() if m["kind"] == "limit")
    edit(d["spec"])
    assert RunManifest.from_dict(d).validate() == [message]


# the same for the driver, the sensor and lambda; decay 0 was the silent default
@pytest.mark.parametrize("edit, message", [
    (lambda spec: _rename(spec["driver"]["params"], "masses", "mases"),
     "driver: unknown key 'mases' in the params of measure 'atomic'; "
     "allowed: atoms, masses"),
    (lambda spec: spec["observation"].update(sensor={"name": "tanh",
                                                     "params": {"scal": 2.0}}),
     "observation: unknown key 'scal' in the params of sensor 'tanh'; allowed: scale"),
    (lambda spec: _rename(spec["observation"]["lambda"]["params"], "decay", "decy"),
     "observation: unknown key 'decy' in the params of lambda 'state_logistic'; "
     "allowed: base, decay")],
    ids=["driver.params.mases", "sensor.params.scal", "lambda.params.decy"])
def test_unknown_observation_and_driver_params_rejected(edit, message):
    d = next(m for m in _bench_manifests() if m["kind"] == "filter_robustness")
    assert d["spec"]["observation"]["nu2"]["name"] == "atomic"     # filter-atomic
    edit(d["spec"])
    assert RunManifest.from_dict(d).validate() == [message]


# a lambda parameter must be a finite number: decay NaN once passed validate
# and failed mid-march, and float() took the strings
LAMBDA = "observation: lambda.params."


@pytest.mark.parametrize("lam, message", [
    ({"name": "state_logistic", "params": {"base": 0.8, "decay": math.nan}},
     "decay must be a finite number, got nan"),
    ({"name": "state_logistic", "params": {"base": 0.8, "decay": "0.5"}},
     "decay must be a finite number, got '0.5'"),
    ({"name": "state_logistic", "params": {"base": "0.8", "decay": 0.5}},
     "base must be a finite number, got '0.8'"),
    ({"name": "state_logistic", "params": {"base": 0.8, "decay": True}},
     "decay must be a finite number, got True"),
    ({"name": "state_logistic", "params": {"base": math.inf}},
     "base must be a finite number, got inf"),
    ({"name": "constant", "params": {"c": math.nan}}, "c must be a finite number, got nan"),
    ({"name": "constant", "params": {"c": "0.5"}}, "c must be a finite number, got '0.5'")],
    ids=["decay-nan", "decay-string", "base-string", "decay-bool", "base-inf", "c-nan",
         "c-string"])
def test_bad_lambda_params_rejected_before_compute(tmp_path, capsys, lam, message):
    d = next(m for m in _bench_manifests() if m["kind"] == "filter_robustness")
    d["spec"]["observation"]["lambda"] = lam
    mpath = tmp_path / "man.json"
    mpath.write_text(json.dumps(d))
    out = tmp_path / "never"
    assert main(["validate", str(mpath)]) == 1
    assert capsys.readouterr().err == f"INVALID: {LAMBDA}{message}\n"
    assert main(["run", str(mpath), "--out", str(out)]) == 1
    assert f"INVALID: {LAMBDA}{message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_negative_lambda_decay_stays_valid():
    d = next(m for m in _bench_manifests() if m["kind"] == "filter_robustness")
    d["spec"]["observation"]["lambda"]["params"]["decay"] = -1.0
    assert RunManifest.from_dict(d).validate() == []


def test_every_registry_entry_lists_its_params():
    from levylab import coefficients as C
    from levylab import engine as E
    from levylab import filtering as F
    from levylab import measures as M
    assert list(C._DRIFT_SIGMA_PARAMS) == list(C._DRIFT_SIGMA_REGISTRY)
    assert list(C.G_PARAMS) == list(C.G_REGISTRY)
    assert list(E.INITIAL_LAW_PARAMS) == list(E.INITIAL_LAW_REGISTRY)
    assert list(M.MEASURE_PARAMS) == list(M.MEASURE_REGISTRY)
    assert list(F.SENSOR_PARAMS) == list(F.SENSOR_REGISTRY)
    assert list(F.LAMBDA_PARAMS) == list(F.LAMBDA_REGISTRY)


# a nested value that is not a JSON object is named, not iterated or indexed
@pytest.mark.parametrize("kind, edit, message", [
    ("limit", lambda spec: spec["family"].update(drift_perturbation="sine"),
     "family: a drift perturbation must be a JSON object, got str"),
    ("limit", lambda spec: spec.update(mu0=[]),
     "mu0: an initial law must be a JSON object, got list"),
    ("filter_robustness", lambda spec: spec.update(observation=[]),
     "observation: an observation must be a JSON object, got list")],
    ids=["drift_perturbation-string", "mu0-list", "observation-list"])
def test_nested_non_objects_rejected(kind, edit, message):
    d = next(m for m in _bench_manifests() + _readme_manifests() if m["kind"] == kind)
    edit(d["spec"])
    assert RunManifest.from_dict(d).validate() == [message]


# a bad family is named before any compute; each of these once crashed
# (ZeroDivisionError, or IndexError after the whole run) or ran as
# something else ("12" as [1, 2], [1, 1, 2] as two rows, 1.5 as 1)
SCHEDULE = "schedule must be a non-empty list of distinct integers >= 1, got "


@pytest.mark.parametrize("edit, message", [
    ({"schedule": [0, 1]}, SCHEDULE + "[0, 1]"),
    ({"schedule": []}, SCHEDULE + "[]"),
    ({"schedule": "12"}, SCHEDULE + "'12'"),
    ({"schedule": [1, 1, 2]}, SCHEDULE + "[1, 1, 2]"),
    ({"schedule": 1.5}, SCHEDULE + "1.5"),
    ({"schedule": [4, -2, 1]}, SCHEDULE + "[4, -2, 1]"),
    ({"schedule": [1, 2.0]}, SCHEDULE + "[1, 2.0]"),
    ({"drift_perturbation": {"name": "sinx", "amp": 0.0}},
     "unknown drift perturbation 'sinx'; known: ['sine', 'shift']"),
    ({"drift_perturbation": {"name": "sine", "amp": math.inf}},
     "drift_perturbation.amp must be a finite number, got inf"),
    ({"gamma_perturbation": math.nan}, "gamma_perturbation must be a finite number, got nan"),
    ({"sigma_perturbation": "0.5"}, "sigma_perturbation must be a finite number, got '0.5'")],
    ids=["zero", "empty", "string", "repeated", "float", "negative", "whole-float",
         "drift-name-at-amp-0", "drift-amp-inf", "gamma-nan", "sigma-string"])
def test_bad_family_rejected_before_compute(tmp_path, capsys, edit, message):
    d = small_limit_manifest().to_dict()
    d["spec"]["family"] = {**d["spec"]["family"], **edit}
    mpath = tmp_path / "man.json"
    mpath.write_text(json.dumps(d))
    out = tmp_path / "never"
    assert main(["validate", str(mpath)]) == 1
    assert capsys.readouterr().err == f"INVALID: family: {message}\n"
    assert main(["run", str(mpath), "--out", str(out)]) == 1
    assert f"INVALID: family: {message}\n" in capsys.readouterr().err
    assert not out.exists()


NUMBERS = st.one_of(st.integers(-3, 10 ** 400), st.floats(), st.text(max_size=2),
                    st.booleans())


@settings(max_examples=80, deadline=None)
@given(schedule=st.one_of(st.lists(NUMBERS, max_size=5),
                          st.lists(st.integers(1, 2 ** 70), max_size=5, unique=True),
                          NUMBERS),
       name=st.sampled_from(["sine", "shift", "sinx"]), amps=st.tuples(*[NUMBERS] * 3))
def test_random_family_configs_validate_and_accepted_ones_build(schedule, name, amps):
    family = dict(small_limit_manifest().spec["family"], schedule=schedule,
                  drift_perturbation={"name": name, "amp": amps[0]},
                  gamma_perturbation=amps[1], sigma_perturbation=amps[2])
    man = small_limit_manifest()
    man.spec = dict(man.spec, family=family)
    errors = man.validate()
    assert all(e.startswith("family: ") for e in errors)
    if not errors:
        fam = family_from_config(family)
        assert list(fam.members) == schedule
        assert math.isfinite(fam.gamma_sup)


SUPERPOSITION_KEYS = ("coefficients, driver, truncation, mu0, block_size, "
                      "martingale_window")
TOP_KEYS = "kind, seed, T, h, n_particles, spec, assumptions"


@pytest.mark.parametrize("edit, args, message", [
    (lambda d: d.update(blok_size=64), [],
     f"unknown manifest key 'blok_size'; allowed: {TOP_KEYS}"),
    (lambda d: d["spec"].update(blok_size=64), [],
     f"unknown key spec.blok_size for kind 'superposition'; "
     f"allowed: {SUPERPOSITION_KEYS}"),
    (lambda d: d.update(seed=-1), [], "seed must be an integer in [0, 2**64), got -1"),
    (lambda d: d.update(seed=2 ** 64), [],
     f"seed must be an integer in [0, 2**64), got {2 ** 64}"),
    (lambda d: None, ["--seed=-1"], "seed must be an integer in [0, 2**64), got -1"),
    (lambda d: d.update(seed=2.5), [], "seed must be an integer in [0, 2**64), got 2.5"),
    (lambda d: d.update(seed=True), [], "seed must be an integer in [0, 2**64), got True"),
    (lambda d: d.update(n_particles=10.7), [],
     "n_particles must be an integer in [1, 2**63), got 10.7"),
    (lambda d: d.update(n_particles=True), [],
     "n_particles must be an integer in [1, 2**63), got True"),
    (lambda d: d.update(n_particles="1500"), [],
     "n_particles must be an integer in [1, 2**63), got '1500'"),
    (lambda d: None, ["--workers", "0"], "workers must be at least 1, got 0"),
    (lambda d: None, ["--workers=-3"], "workers must be at least 1, got -3"),
], ids=["top-level-key", "spec-key", "seed-negative", "seed-2**64", "seed-flag",
        "seed-fraction", "seed-bool", "n-fraction", "n-bool", "n-string", "workers-zero",
        "workers-negative"])
def test_unknown_keys_and_bad_seeds_rejected_before_compute(tmp_path, capsys, edit,
                                                            args, message):
    d = small_superposition_manifest().to_dict()
    d["spec"] = dict(d["spec"])
    edit(d)
    mpath = tmp_path / "man.json"
    mpath.write_text(json.dumps(d))
    out = tmp_path / "never"
    if not args:
        assert main(["validate", str(mpath)]) == 1
        assert f"INVALID: {message}" in capsys.readouterr().err
    assert main(["run", str(mpath), "--out", str(out), *args]) == 1
    assert f"INVALID: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, what", [("T", "T must be a finite number > 0"),
                                       ("h", "grid step h must be a finite number "
                                             "in (0, T]")])
# a number is stored as a float; anything else is kept for validate to name
@pytest.mark.parametrize("value, shown", [
    (True, "True"), ("abc", "'abc'"), (math.nan, "nan"), (math.inf, "inf"),
    (0, "0.0"), (-1, "-1.0")], ids=["bool", "string", "nan", "inf", "zero", "negative"])
def test_bad_horizon_and_step_reported_not_converted(tmp_path, capsys, key, what,
                                                     value, shown):
    d = small_superposition_manifest().to_dict()
    d[key] = value
    message = f"{what}, got {shown}"
    assert RunManifest.from_dict(d).validate() == [message]
    mpath = tmp_path / "man.json"
    mpath.write_text(json.dumps(d))
    assert main(["validate", str(mpath)]) == 1
    assert capsys.readouterr().err == f"INVALID: {message}\n"


HUGE = 10 ** 400     # an integer too large for a float


@pytest.mark.parametrize("key, message", [
    ("T", f"T must be a finite number > 0, got {HUGE}"),
    ("h", f"grid step h must be a finite number in (0, T], got {HUGE}"),
    ("seed", f"seed must be an integer in [0, 2**64), got {HUGE}"),
    ("n_particles", f"n_particles must be an integer in [1, 2**63), got {HUGE}")])
def test_integers_too_large_for_a_float_reported(tmp_path, capsys, key, message):
    d = dict(next(m for m in _readme_manifests() if m["kind"] == "limit"))
    d[key] = HUGE
    assert RunManifest.from_dict(d).validate() == [message]
    mpath = tmp_path / "man.json"
    mpath.write_text(json.dumps(d))
    assert main(["validate", str(mpath)]) == 1
    assert capsys.readouterr().err == f"INVALID: {message}\n"


@pytest.mark.parametrize("name, text, message", [
    ("missing.json", None, "No such file or directory"),
    ("truncated.json", '{"kind": "limit", "seed": ', "Expecting value"),
    # Python refuses to parse an integer of more than 4300 digits
    ("long-seed.json", '{"kind": "limit", "seed": ' + "9" * 5000 + "}", "digits")],
    ids=["missing", "truncated", "5000-digit-seed"])
def test_unloadable_manifest_reported(tmp_path, capsys, name, text, message):
    mpath = tmp_path / name
    if text is not None:
        mpath.write_text(text)
    out = tmp_path / "never"
    for args in (["validate", str(mpath)], ["run", str(mpath), "--out", str(out)]):
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"INVALID: cannot load manifest {mpath}: ")
        assert message in err
    assert not out.exists()


TOP_LEVEL = ("kind", "seed", "T", "h", "n_particles")


@pytest.mark.parametrize("manifest, messages", [
    ([], ["a manifest must be a JSON object, got list"]),
    (None, ["a manifest must be a JSON object, got NoneType"]),
    ({}, [f"manifest needs key {k!r}" for k in TOP_LEVEL]),
    ({"kind": "limit"}, [f"manifest needs key {k!r}" for k in TOP_LEVEL[1:]]),
    (dict(small_limit_manifest().to_dict(), spec=[]),
     ["spec must be a JSON object, got list"]),
    (dict(small_limit_manifest().to_dict(), spec="limit", assumptions=[["a", 1]]),
     ["spec must be a JSON object, got str", "assumptions must be a JSON object, got list"]),
    ({"kind": "limit", "sede": 1, "spec": 3},
     ["unknown manifest key 'sede'; allowed: kind, seed, T, h, n_particles, spec, "
      "assumptions", *[f"manifest needs key {k!r}" for k in TOP_LEVEL[1:]],
      "spec must be a JSON object, got int"]),
], ids=["list", "null", "empty", "kind-only", "spec-list", "spec-and-assumptions",
        "all-at-once"])
def test_malformed_manifest_object_reported(tmp_path, capsys, manifest, messages):
    want = "".join(f"INVALID: {m}\n" for m in messages)
    with pytest.raises(ManifestError) as exc:
        RunManifest.from_dict(manifest)
    assert exc.value.errors == messages
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    mpath = bundle / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "never"
    for args in (["validate", str(mpath)], ["run", str(mpath), "--out", str(out)],
                 ["replay", str(bundle)]):
        assert main(args) == 1
        assert capsys.readouterr().err == want
    assert not out.exists()


def test_unbounded_u0_region_reported(tmp_path, capsys):
    d = filter_robustness_manifest().to_dict()
    d["spec"]["observation"]["u0_region"] = [0, HUGE]
    mpath = tmp_path / "man.json"
    mpath.write_text(json.dumps(d))
    assert main(["validate", str(mpath)]) == 1
    assert capsys.readouterr().err.startswith(
        "INVALID: observation: u0_region must be two finite numbers [lo, hi], "
        "got [0, 1000")


def test_import_loads_no_scipy():
    # scipy is only a test-side oracle: importing it would add its import
    # time to the set-up of every run
    code = ("import sys, levylab, levylab.experiments, levylab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


RUN_MODULES = """
import sys
import levylab, levylab.experiments, levylab.cli
pool = lambda: "concurrent.futures" in sys.modules or "multiprocessing" in sys.modules
print("numpy.random" in sys.modules, "numpy.polynomial" in sys.modules, pool())
for path in sys.argv[1::2]:
    levylab.RunManifest.load(path).validate()
print("numpy.random" in sys.modules)
for path, out in zip(sys.argv[1::2], sys.argv[2::2]):
    levylab.experiments.run(levylab.RunManifest.load(path), out)
    print("numpy.ma" in sys.modules, pool())
# the second manifest is a limit run, which pools with two workers
levylab.experiments.run(levylab.RunManifest.load(sys.argv[3]), sys.argv[4] + "w2", workers=2)
print(pool())
"""


def test_runs_load_no_numpy_ma(tmp_path):
    # np.unique and np.quantile import numpy.ma (about 10 ms) on their first
    # call: no run of any kind may make one, and importing the package may
    # not import numpy.random or numpy.polynomial, which would move every
    # run's set-up; nor may validate(), which is part of that set-up.  Nor
    # may the package or a one-worker run import the process pool
    # (concurrent.futures, multiprocessing): only a run that pools, the
    # two-worker limit run last, pays for it
    expnu2 = filter_robustness_manifest()
    expnu2.spec = dict(expnu2.spec, observation=dict(
        expnu2.spec["observation"], nu2={"name": "exponential_tails_1d",
                                         "params": {"intensity_pos": 1.0, "rate_pos": 2.0}}))
    args = []
    for i, man in enumerate([small_superposition_manifest(), small_limit_manifest(),
                             filter_robustness_manifest(), expnu2, diagnostics_manifest()]):
        man.n_particles = 100
        man.save(str(tmp_path / f"{i}.json"))
        args += [str(tmp_path / f"{i}.json"), str(tmp_path / f"out{i}")]
    proc = subprocess.run([sys.executable, "-c", RUN_MODULES, *args], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 14 + ["True"]


def test_horizon_and_step_stored_as_floats(tmp_path):
    d = dict(small_limit_manifest().to_dict(), T=1, h=0.05)
    man = RunManifest.from_dict(d)
    assert type(man.T) is float and man.validate() == []
    man.save(str(tmp_path / "m.json"))
    assert json.loads((tmp_path / "m.json").read_text())["T"] == 1.0
    assert '"T": 1.0' in (tmp_path / "m.json").read_text()


def test_replay_of_a_bundle_without_a_valid_manifest_fails_cleanly(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    assert main(["replay", str(bundle)]) == 1
    assert "INVALID: bundle has no manifest.json" in capsys.readouterr().err
    d = small_superposition_manifest().to_dict()
    (bundle / "manifest.json").write_text(json.dumps(dict(d, blok_size=64)))
    assert main(["replay", str(bundle)]) == 1
    assert "INVALID: unknown manifest key 'blok_size'" in capsys.readouterr().err


def test_seed_bounds_and_seed_override_checked_by_run(tmp_path):
    man = small_superposition_manifest()
    for seed in (0, 2 ** 64 - 1):
        man.seed = seed
        assert man.validate() == []
    man.seed = 42
    for seed in (-1, 2 ** 64):
        with pytest.raises(ManifestError, match=re.escape("seed must be an integer "
                                                          "in [0, 2**64)")):
            run(man, str(tmp_path / "never"), seed=seed)
        assert not (tmp_path / "never").exists()


def test_whole_numbers_kept_and_fractions_rejected(tmp_path):
    # a whole-valued float is read as that integer; a fraction or a bool is
    # reported, never truncated
    d = small_superposition_manifest().to_dict()
    man = RunManifest.from_dict(dict(d, seed=7.0, n_particles=1500.0))
    assert (man.seed, man.n_particles) == (7, 1500)
    assert type(man.seed) is int and type(man.n_particles) is int
    assert man.validate() == []
    # run() computes from the manifest it validated, so 800.0 particles work
    whole = small_limit_manifest()
    whole.n_particles = 800.0
    run(whole, str(tmp_path / "whole"))
    assert json.loads((tmp_path / "whole" / "manifest.json").read_text())[
        "n_particles"] == 800
    for seed in (2.5, True):
        with pytest.raises(ManifestError, match=re.escape(
                f"seed must be an integer in [0, 2**64), got {seed!r}")):
            run(small_superposition_manifest(), str(tmp_path / "never"), seed=seed)
        assert not (tmp_path / "never").exists()
