"""Run manifests: validated, serializable descriptions of one experiment.

A manifest plus a master seed determines every random draw of a run; the
manifest round-trips through JSON losslessly (plain dict of JSON scalars,
lists and nested dicts only).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

KINDS = ("superposition", "limit", "filter_robustness", "diagnostics")

_REQUIRED = {
    "superposition": ("coefficients", "driver", "truncation", "mu0"),
    "limit": ("family", "driver", "truncation", "mu0"),
    "filter_robustness": ("family", "observation", "driver", "truncation", "mu0"),
    "diagnostics": ("coefficients", "driver", "truncation", "mu0"),
}
_OPTIONAL = {
    "superposition": ("block_size", "martingale_window"),
    "limit": ("n_checkpoints",),
    "filter_robustness": ("reps",),
    "diagnostics": ("K_grid", "theta_grid", "N_threshold"),
}
_FIELDS = ("kind", "seed", "T", "h", "n_particles", "spec", "assumptions")
_SEEDS = 1 << 64    # rng.stream_key keeps 64 bits of the seed
_PARTICLES = 1 << 63    # numpy indexes arrays with int64


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A number (not a bool) that is finite as a float: NaN, inf and an int
    too large for a float are not."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _check_keys(cfg: dict, allowed: tuple, error, what: str):
    """Raise error unless the config object cfg is a dict whose keys are all
    in allowed: a misspelt key would otherwise fall back to a default."""
    if not isinstance(cfg, dict):
        raise error(f"{what} must be a JSON object, got {type(cfg).__name__}")
    for key in cfg:
        if key not in allowed:
            raise error(f"unknown key {key!r} in {what}; allowed: {', '.join(allowed)}")


def _registry_entry(cfg: dict, registry: dict, params: dict, error, what: str):
    """The builder cfg's name picks from registry, and cfg's params, whose
    keys must be among those params lists for that name."""
    name = cfg["name"]
    if name not in registry:
        raise error(f"unknown {what} {name!r}; known: {sorted(registry)}")
    _check_keys(cfg.get("params", {}), params[name], error, f"the params of {what} {name!r}")
    return registry[name], cfg.get("params", {})


def _integral(v):
    """A finite whole-valued float as that int; anything else, an int of any
    size included, is returned unchanged, for validate() to report."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return v


def _real(v):
    """v as a float when it is a finite number (not a bool); anything else,
    NaN, inf and an int too large for a float included, is returned
    unchanged, for validate() to report."""
    return float(v) if _is_finite(v) else v


def _positive_reals(v) -> bool:
    """A non-empty list of finite numbers > 0."""
    return (isinstance(v, (list, tuple)) and len(v) > 0
            and all(_is_finite(x) and x > 0 for x in v))


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
        if not isinstance(d, dict):
            raise ManifestError([f"a manifest must be a JSON object, got "
                                 f"{type(d).__name__}"])
        required, objects = _FIELDS[:5], _FIELDS[5:]
        errors = [f"unknown manifest key {k!r}; allowed: {', '.join(_FIELDS)}"
                  for k in d if k not in _FIELDS]
        errors += [f"manifest needs key {k!r}" for k in required if k not in d]
        errors += [f"{k} must be a JSON object, got {type(d[k]).__name__}"
                   for k in objects if not isinstance(d.get(k, {}), dict)]
        if errors:
            raise ManifestError(errors)
        return cls(kind=d["kind"], seed=_integral(d["seed"]), T=_real(d["T"]),
                   h=_real(d["h"]), n_particles=_integral(d["n_particles"]),
                   spec=dict(d.get("spec", {})),
                   assumptions=dict(d.get("assumptions", {})))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        try:
            with open(path) as fh:
                d = json.load(fh)
        except (OSError, ValueError) as exc:    # unreadable, not JSON, a huge int
            raise ManifestError([f"cannot load manifest {path}: {exc}"]) from exc
        return cls.from_dict(d)

    def save(self, path: str):
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    # -- validation -------------------------------------------------------

    def validate(self) -> list[str]:
        """All validation failures, enumerated before any compute: each
        configured object is built once, every refusal runs on it, and
        require_valid hands the objects to the run."""
        if self.kind not in KINDS:
            return [f"unknown kind {self.kind!r}; known: {KINDS}"]
        errors = []
        if not (isinstance(self.seed, numbers.Integral) and not isinstance(self.seed, bool)
                and 0 <= self.seed < _SEEDS):
            errors.append(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        allowed = _REQUIRED[self.kind] + _OPTIONAL[self.kind]
        errors += [f"unknown key spec.{key} for kind {self.kind!r}; allowed: {', '.join(allowed)}"
                   for key in self.spec if key not in allowed]
        # the checks against T below are skipped when T itself is invalid
        T_ok = _positive_reals([self.T])
        if not T_ok:
            errors.append(f"T must be a finite number > 0, got {self.T!r}")
        h_ok = _positive_reals([self.h]) and (not T_ok or self.h <= self.T)
        if not h_ok:
            errors.append(f"grid step h must be a finite number in (0, T], got {self.h!r}")
        if not (_is_int(self.n_particles) and 1 <= self.n_particles < _PARTICLES):
            errors.append(f"n_particles must be an integer in [1, 2**63), "
                          f"got {self.n_particles!r}")
        elif self.n_particles < 2 and self.kind in ("superposition", "diagnostics"):
            errors.append(f"n_particles must be at least 2 for kind {self.kind!r} (its "
                          f"s.e. needs two paths), got {self.n_particles!r}")
        if self.kind == "filter_robustness":
            reps = self.spec.get("reps", 3)
            if not _is_int(reps) or reps < 2:
                errors.append(f"spec.reps must be an integer >= 2 (the distance "
                              f"s.e. needs two reps), got {reps!r}")
        if self.kind == "superposition":
            block = self.spec.get("block_size", 4096)
            if not _is_int(block) or block < 1:
                errors.append(f"spec.block_size must be an integer >= 1, got {block!r}")
            # the h and h/2 runs march whole cells, which fpe_verdict's h assumes
            cells = self.T / self.h if T_ok and h_ok else 1.0
            if not (math.isfinite(cells) and abs(cells - round(cells)) <= 1e-9 * cells):
                errors.append(f"grid step h must divide T = {self.T!r} into whole cells "
                              f"for kind 'superposition', got {self.h!r}")
            if T_ok:    # the window is checked against T
                window = self.spec.get("martingale_window",
                                       [0.25 * self.T, 0.5 * self.T])
                if not (isinstance(window, (list, tuple)) and len(window) == 2
                        and all(_is_finite(v) for v in window)
                        and 0 <= window[0] < window[1] <= self.T):
                    errors.append(f"spec.martingale_window must be two finite "
                                  f"numbers [s, t] with 0 <= s < t <= T = {self.T!r}, "
                                  f"got {window!r}")
        if self.kind == "limit":
            nc = self.spec.get("n_checkpoints", 10)
            if not _is_int(nc) or nc < 1:
                errors.append(f"spec.n_checkpoints must be an integer >= 1, got {nc!r}")
        if self.kind == "diagnostics":
            checks = {"K_grid": ("a non-empty list of finite numbers > 0", _positive_reals),
                      "theta_grid": (f"a non-empty list of numbers in (0, T] with T = "
                                     f"{self.T!r}", lambda v: _positive_reals(v)
                                     and (not T_ok or max(v) <= self.T)),
                      "N_threshold": ("a finite number > 0", lambda v: _positive_reals([v]))}
            for key, (what, ok) in checks.items():
                if key in self.spec and not ok(self.spec[key]):
                    errors.append(f"spec.{key} must be {what}, got {self.spec[key]!r}")
        missing = [key for key in _REQUIRED[self.kind] if key not in self.spec]
        errors += [f"{self.kind} manifest needs spec.{key}" for key in missing]
        if missing:
            return errors
        # build each configured object once and run every refusal on it; the
        # run reads what was built (require_valid)
        from .coefficients import CoefficientError, coefficients_from_config, family_from_config
        from .convergence import enforce_level_bound
        from .engine import _driver_region, initial_law_from_config
        from .filtering import FilterError, observation_model_from_config
        from .generator import GeneratorError, _require_finite_activity
        from .measures import LevyConfigError, TruncationConfig, measure_from_config

        def attempt(label, fn, *args):
            try:
                return fn(*args)
            except (LevyConfigError, CoefficientError, FilterError, GeneratorError,
                    KeyError, TypeError, ValueError, OverflowError) as exc:
                errors.append(f"{label}: {exc}")
                return None

        builders = {"driver": measure_from_config, "truncation": lambda c: TruncationConfig(**c),
                    "mu0": initial_law_from_config, "coefficients": coefficients_from_config,
                    "family": family_from_config, "observation": observation_model_from_config}
        built = {key: attempt(key, build, self.spec[key]) for key, build in builders.items()
                 if key in _REQUIRED[self.kind]}
        if None in built.values():      # the refusals below read every object
            return errors
        driver, trunc, family = built["driver"], built["truncation"], built.get("family")
        coeffs = family.limit if family is not None else built["coefficients"]
        for key in ("mu0", "driver"):
            if built[key].dim != coeffs.d:
                errors.append(f"{key}: dimension {built[key].dim} does not match the "
                              f"signal's d = {coeffs.d}")
        attempt("driver", _driver_region, driver, trunc)
        if self.kind == "superposition":
            attempt("driver", _require_finite_activity, driver)
        if family is not None:
            attempt("family", lambda: enforce_level_bound(trunc.level, family.gamma_sup))
        if "observation" in built:
            model = built["observation"]
            attempt("observation", model.check_measure_invariants)
            attempt("observation", model._quad_nodes)
            # the sensor's width, probed once at the signal's origin
            attempt("observation", model.sensor, [[0.0] * coeffs.d])
        self._built = tuple(built[key] for key in _REQUIRED[self.kind])
        return errors

    def require_valid(self) -> tuple:
        """The objects validate() built from the kind's required spec
        fields, in the order _REQUIRED lists them; raises ManifestError with
        every refusal instead."""
        errors = self.validate()
        if errors:
            raise ManifestError(errors)
        return self._built
