import filecmp
import json
import math
import os
import subprocess
import sys

import pytest

from levylab.cli import main
from levylab.experiments import replay, run
from levylab.manifests import ManifestError, RunManifest


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
        man = small_superposition_manifest()
        outs = {}
        for w in (1, 4):
            out = tmp_path / f"w{w}"
            run(man, str(out), workers=w)
            outs[w] = out
            assert json.loads((out / "run_info.json").read_text())["workers"] == w
        for name in ("fpe_residuals.csv", "martingale_residuals.csv",
                     "summary.json"):
            assert filecmp.cmp(outs[1] / name, outs[4] / name, shallow=False)

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
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "OK"


def test_diagnostics_kind(tmp_path):
    man = RunManifest(
        kind="diagnostics", seed=3, T=0.5, h=0.05, n_particles=400,
        spec={
            "coefficients": {"name": "ou", "d": 1, "m": 1,
                             "params": {"theta": 1.0, "sigma": 1.0},
                             "gamma": 0.4, "growth_bound": 4.0},
            "driver": {"name": "atomic",
                       "params": {"atoms": [[0.8]], "masses": [0.4]}},
            "truncation": {"level": 0.5},
            "mu0": {"name": "gaussian", "params": {"mean": [0.0], "std": [1.0]}},
        })
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


@pytest.mark.parametrize("reps", [0, 1, 2.5])
def test_filter_robustness_bad_reps_rejected(reps):
    errors = filter_robustness_manifest(reps).validate()
    assert errors == [f"spec.reps must be an integer >= 2 (the distance s.e. "
                      f"needs two reps), got {reps!r}"]
