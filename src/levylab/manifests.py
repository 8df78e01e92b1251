"""Run manifests: validated, serializable descriptions of one experiment.

A manifest plus a master seed determines every random draw of a run; the
manifest round-trips through JSON losslessly (plain dict of JSON scalars,
lists and nested dicts only).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

KINDS = ("superposition", "limit", "filter_robustness", "diagnostics")

_REQUIRED = {
    "superposition": ("coefficients", "driver", "truncation", "mu0"),
    "limit": ("family", "driver", "truncation", "mu0"),
    "filter_robustness": ("family", "observation", "driver", "truncation", "mu0"),
    "diagnostics": ("coefficients", "driver", "truncation", "mu0"),
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _positive_reals(v) -> bool:
    """A non-empty list of finite numbers > 0."""
    return (isinstance(v, (list, tuple)) and len(v) > 0
            and all(_is_real(x) and math.isfinite(x) and x > 0 for x in v))


class ManifestError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class RunManifest:
    kind: str
    seed: int
    T: float
    h: float
    n_particles: int
    spec: dict = field(default_factory=dict)  # kind-specific configuration
    assumptions: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "T": self.T, "h": self.h,
                "n_particles": self.n_particles, "spec": self.spec,
                "assumptions": self.assumptions}

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        return cls(kind=d["kind"], seed=int(d["seed"]), T=float(d["T"]),
                   h=float(d["h"]), n_particles=int(d["n_particles"]),
                   spec=dict(d.get("spec", {})),
                   assumptions=dict(d.get("assumptions", {})))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "RunManifest":
        return cls.from_dict(json.loads(s))

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def save(self, path: str):
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    # -- validation -------------------------------------------------------

    def validate(self) -> list[str]:
        """All validation failures, enumerated before any compute."""
        errors = []
        if self.kind not in KINDS:
            errors.append(f"unknown kind {self.kind!r}; known: {KINDS}")
            return errors
        if self.T <= 0:
            errors.append("T must be positive")
        if self.h <= 0 or self.h > self.T:
            errors.append("grid step h must lie in (0, T]")
        if self.n_particles <= 0:
            errors.append("n_particles must be positive")
        if self.kind == "filter_robustness":
            reps = self.spec.get("reps", 3)
            if not _is_int(reps) or reps < 2:
                errors.append(f"spec.reps must be an integer >= 2 (the distance "
                              f"s.e. needs two reps), got {reps!r}")
        if self.kind == "superposition":
            block = self.spec.get("block_size", 4096)
            if not _is_int(block) or block < 1:
                errors.append(f"spec.block_size must be an integer >= 1, got {block!r}")
            window = self.spec.get("martingale_window", [0.25 * self.T, 0.5 * self.T])
            if not (isinstance(window, (list, tuple)) and len(window) == 2
                    and all(_is_real(v) and math.isfinite(v) for v in window)
                    and 0 <= window[0] < window[1] <= self.T):
                errors.append(f"spec.martingale_window must be two finite numbers "
                              f"[s, t] with 0 <= s < t <= T = {self.T!r}, "
                              f"got {window!r}")
        if self.kind == "limit":
            nc = self.spec.get("n_checkpoints", 10)
            if not _is_int(nc) or nc < 1:
                errors.append(f"spec.n_checkpoints must be an integer >= 1, got {nc!r}")
        if self.kind == "diagnostics":
            checks = {"K_grid": ("a non-empty list of finite numbers > 0", _positive_reals),
                      "theta_grid": (f"a non-empty list of numbers in (0, T] with T = "
                                     f"{self.T!r}", lambda v: _positive_reals(v)
                                     and max(v) <= self.T),
                      "N_threshold": ("a finite number > 0", lambda v: _positive_reals([v]))}
            for key, (what, ok) in checks.items():
                if key in self.spec and not ok(self.spec[key]):
                    errors.append(f"spec.{key} must be {what}, got {self.spec[key]!r}")
        missing = set()
        for key in _REQUIRED[self.kind]:
            if key not in self.spec:
                errors.append(f"{self.kind} manifest needs spec.{key}")
                missing.add(key)
        if missing:
            return errors
        # construct each configured object to surface field-level errors
        from .coefficients import (CoefficientError, coefficients_from_config,
                                   family_from_config)
        from .engine import initial_law_from_config
        from .filtering import FilterError, observation_model_from_config
        from .measures import LevyConfigError, TruncationConfig, measure_from_config

        def attempt(label, fn, *args):
            try:
                return fn(*args)
            except (LevyConfigError, CoefficientError, FilterError, KeyError,
                    TypeError, ValueError) as exc:
                errors.append(f"{label}: {exc}")
                return None

        attempt("driver", measure_from_config, self.spec["driver"])
        attempt("truncation", lambda c: TruncationConfig(**c), self.spec["truncation"])
        attempt("mu0", initial_law_from_config, self.spec["mu0"])
        if "coefficients" in _REQUIRED[self.kind]:
            attempt("coefficients", coefficients_from_config, self.spec["coefficients"])
        if "family" in _REQUIRED[self.kind]:
            attempt("family", family_from_config, self.spec["family"])
        if "observation" in _REQUIRED[self.kind]:
            attempt("observation", observation_model_from_config,
                    self.spec["observation"])
        return errors

    def require_valid(self):
        errors = self.validate()
        if errors:
            raise ManifestError(errors)
        return self
