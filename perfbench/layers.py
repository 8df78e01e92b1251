"""Outside-in per-layer trace of one levylab run.

`install(recorder)` wraps the layer functions by patching the module and
class attributes that their callers look up at call time, so the program's
source is untouched.  Each wrapper records either a span (calls and self
time, i.e. duration minus the time covered by child spans) or only a call
count, for leaf functions called hundreds of thousands of times.

Only the process that calls `install` is traced.  Pool workers started with
`fork` inherit the wrappers, but their records stay in the worker, so for a
multi-worker run the parent reports pool wait and the workers' CPU and RSS.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

import numpy as np


class TraceError(RuntimeError):
    pass


class Recorder:
    """Aggregated spans and counters of one traced process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.stack = []                     # [name, start, child seconds]
        self.prepared = 0                   # particles prepared by the engine
        self.stream_keys = set()            # distinct (seed, namespace, particle)
        self.path_bytes = 0                 # path tensors handed to experiments

    def enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur


def _span(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit()
    return wrapper


def _counter(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _prepare_block(rec, fn):
    sig = inspect.signature(fn)
    spanned = _span(rec, "engine.prepare", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        particles = list(bound.arguments["particles"])
        seed, namespace = bound.arguments["seed"], bound.arguments["namespace"]
        rec.prepared += len(particles)
        rec.stream_keys.update((seed, namespace, p) for p in particles)
        return spanned(*args, **kwargs)
    return wrapper


def _path_sizer(rec, fn):
    """Adds the bytes of the returned path tensors (ensembles or families)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, tuple):                  # (members dict, limit)
            members, limit = out
            rec.path_bytes += sum(e.values.nbytes for e in members.values())
            rec.path_bytes += limit.values.nbytes
        else:
            rec.path_bytes += out.values.nbytes
        return out
    return wrapper


def _traced_pool(rec):
    class TracedPool(ProcessPoolExecutor):
        """Times the pool from start to shutdown; sizes array results."""

        def __enter__(self):
            rec.enter("engine.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                rec.exit()

        def map(self, *args, **kwargs):
            return map(self._sized, super().map(*args, **kwargs))

        @staticmethod
        def _sized(out):
            if isinstance(out, np.ndarray):
                rec.path_bytes += out.nbytes
            return out

    return TracedPool


def _lambda_factory(rec, fn):
    """Counts every call of the thinning intensity lambda the model gets."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        lam, floor, iota = fn(*args, **kwargs)
        return _counter(rec, "filtering.lambda", lam), floor, iota
    return wrapper


def _coefficient_builder(rec, fn):
    """Counts evaluations of the drift b and diffusion sigma a builder makes.

    Family members call their base set's b and sigma, so each member
    evaluation is counted once, at the base closure.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        b, sigma = fn(*args, **kwargs)
        return (_counter(rec, "coefficients.eval", b),
                _counter(rec, "coefficients.eval", sigma))
    return wrapper


def _dictionary(rec, fn):
    """Spans every phi, grad and hess call of the returned test functions."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        fns = fn(*args, **kwargs)
        for tf in fns:
            tf.phi = _span(rec, "testfunctions.eval", tf.phi)
            tf.grad = _span(rec, "testfunctions.eval", tf.grad)
            tf.hess = _span(rec, "testfunctions.eval", tf.hess)
        return fns
    return wrapper


def _registry(rec, registry):
    for name, build in list(registry.items()):
        registry[name] = _coefficient_builder(rec, build)
    return registry


# (dotted owner, attribute, how to wrap).  The owner is a module or a class
# inside one; every name here is the one a caller looks up at call time, so
# an alias imported into another module is listed under that module too.
def _targets(rec):
    span = lambda name: (lambda fn: _span(rec, name, fn))          # noqa: E731
    count = lambda name: (lambda fn: _counter(rec, name, fn))      # noqa: E731
    return [
        ("levylab.manifests.RunManifest", "validate", span("manifests.validate")),
        ("levylab.rng", "stream", count("rng.stream")),
        ("levylab.engine", "sample_jump_events", span("measures.sample_events")),
        ("levylab.filtering", "sample_jump_events", span("measures.sample_events")),
        ("levylab.engine", "_prepare_block", lambda fn: _prepare_block(rec, fn)),
        ("levylab.filtering", "_prepare_block", lambda fn: _prepare_block(rec, fn)),
        ("levylab.engine.BlockMarch", "advance_cell", span("engine.march")),
        ("levylab.experiments", "simulate_ensemble", lambda fn: _path_sizer(rec, fn)),
        ("levylab.experiments", "simulate_coupled_family",
         lambda fn: _path_sizer(rec, fn)),
        ("levylab.experiments", "ProcessPoolExecutor", lambda cls: _traced_pool(rec)),
        ("levylab.engine", "ProcessPoolExecutor", lambda cls: _traced_pool(rec)),
        ("levylab.coefficients", "_DRIFT_SIGMA_REGISTRY", lambda reg: _registry(rec, reg)),
        ("levylab.coefficients.CoefficientSet", "f", count("coefficients.eval")),
        ("levylab.experiments", "default_dictionary", lambda fn: _dictionary(rec, fn)),
        ("levylab.generator", "generator_apply", span("generator.apply")),
        ("levylab.experiments", "fpe_weak_residual", span("generator.fpe")),
        ("levylab.experiments", "martingale_residual", span("generator.martingale")),
        ("levylab.generator", "integrability_guards", span("generator.guards")),
        ("levylab.experiments", "validate_hypotheses", span("generator.hypotheses")),
        ("levylab.convergence", "bl_distance_coupled", span("convergence.distance")),
        ("levylab.experiments", "density_sup_estimate", span("convergence.density")),
        ("levylab.filtering", "filter_run", span("filtering.filter_run")),
        ("levylab.experiments", "filter_run", span("filtering.filter_run")),
        ("levylab.filtering.ObservationModel", "band_integral",
         span("filtering.band_integral")),
        ("levylab.filtering", "lambda_from_config", lambda fn: _lambda_factory(rec, fn)),
        ("levylab.filtering.ObservationSetup", "__init__", span("filtering.observation")),
        ("levylab.filtering.ObservationSetup", "record_for",
         span("filtering.observation")),
        ("levylab.experiments", "write_csv", span("experiments.write")),
        ("levylab.manifests.RunManifest", "save", span("experiments.write")),
    ]


def _owner(dotted: str):
    """The module `levylab.<module>` or the class `levylab.<module>.<Class>`."""
    package, module, *cls = dotted.split(".")
    try:
        obj = importlib.import_module(f"{package}.{module}")
    except ModuleNotFoundError:
        raise TraceError(f"traced module {package}.{module} no longer exists") from None
    for attr in cls:
        if not hasattr(obj, attr):
            raise TraceError(f"traced name {dotted} no longer exists")
        obj = getattr(obj, attr)
    return obj


def install(rec: Recorder):
    """Wrap every layer boundary; a missing name fails before any run."""
    for dotted, attr, wrap in _targets(rec):
        owner = _owner(dotted)
        if attr not in vars(owner):
            raise TraceError(f"traced name {dotted}.{attr} no longer exists")
        setattr(owner, attr, wrap(vars(owner)[attr]))


def metrics(rec: Recorder) -> dict:
    """Per-layer metrics of one traced run (self times in seconds)."""
    c, s = rec.calls, rec.self_s
    distinct = len(rec.stream_keys)
    return {
        "manifests.validate_s": s["manifests.validate"],
        "rng.streams": c["rng.stream"],
        "measures.sample_events_calls": c["measures.sample_events"],
        "measures.sample_events_s": s["measures.sample_events"],
        "engine.prepare_s": s["engine.prepare"],
        "engine.prepare_particles": rec.prepared,
        "engine.redraw_ratio": rec.prepared / distinct if distinct else 0.0,
        "engine.march_s": s["engine.march"],
        "engine.cells": c["engine.march"],
        "engine.path_mb": rec.path_bytes / 2 ** 20,
        "engine.pool_s": s["engine.pool"],
        "coefficients.evals": c["coefficients.eval"],
        "testfunctions.evals": c["testfunctions.eval"],
        "testfunctions.eval_s": s["testfunctions.eval"],
        "generator.apply_calls": c["generator.apply"],
        "generator.apply_s": s["generator.apply"],
        "generator.fpe_s": s["generator.fpe"],
        "generator.martingale_s": s["generator.martingale"],
        "generator.guards_s": s["generator.guards"],
        "generator.hypotheses_s": s["generator.hypotheses"],
        "convergence.distance_s": s["convergence.distance"],
        "convergence.density_s": s["convergence.density"],
        "filtering.filter_runs": c["filtering.filter_run"],
        "filtering.filter_run_s": s["filtering.filter_run"],
        "filtering.band_integral_calls": c["filtering.band_integral"],
        "filtering.band_integral_s": s["filtering.band_integral"],
        "filtering.lambda_calls": c["filtering.lambda"],
        "filtering.observation_s": s["filtering.observation"],
        "experiments.write_s": s["experiments.write"],
    }
