"""Timing spans around the public functions of the qps modules.

`install` wraps each function listed in LAYERS (and the PhaseAnalyzer
methods) and rebinds every name under which a qps module holds it, because
`from .x import y` copies the binding into the importing module.  Each call
records one span [name, start, end, parent, attrs]; spans stay in memory and
are written out when the command ends.  `layer_metrics` turns the spans of
the traced commands of a run into the per-layer metrics, listed in PER_LAYER.
"""

import contextlib
import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
from collections import defaultdict

import numpy as np

SUITES = ("uncertainty", "closure", "microstate", "fock", "gauge", "density")

LAYERS = {
    "phasespace": ("write_distribution", "husimi_distribution", "wigner_distribution"),
    "fock": ("grid_number_states", "orthonormality_check", "operator_matrix", "write_matrix"),
    "grids": ("moments", "read_wavefunction", "write_wavefunction"),
    "states": ("coordinate_wavefunction",),
    "density": ("evolve_lvn", "read_density", "write_density"),
    "psops": ("ccr_residual", "consistency_check"),
    "verify": tuple(f"suite_{s}" for s in SUITES),
}
ANALYZER_METHODS = {
    "__init__": "phasespace.analyzer_build",
    "transform": "phasespace.transform",
    "synthesize": "phasespace.synthesize",
}

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("phasespace.write_distribution.self_s", "s", "lower", "dist_2pair_s, run_s on phase-export; evolve_* on density-evolve; no change on verify-all"),
    ("phasespace.write_distribution.rows", "count", "lower", "dist_2pair_s on phase-export"),
    ("phasespace.write_distribution.mb", "MB", "lower", "dist_2pair_s on phase-export"),
    ("phasespace.write_distribution.mb_per_s", "MB/s", "higher", "dist_2pair_s, run_s on phase-export; evolve_* on density-evolve"),
    ("phasespace.transform.calls", "count", "lower", "verify_s on verify-all; evolve_2pair_s on density-evolve"),
    ("phasespace.transform.self_s", "s", "lower", "verify_s on verify-all; evolve_2pair_s on density-evolve"),
    ("phasespace.transform.nominal_gflop", "GFLOP", "lower", "verify_s on verify-all; evolve_2pair_s on density-evolve"),
    ("phasespace.transform.gflop_per_s", "GFLOP/s", "higher", "verify_s on verify-all; evolve_2pair_s on density-evolve"),
    ("phasespace.analyzer_build.calls", "count", "lower", "verify_s on verify-all; evolve_1pair_s on density-evolve"),
    ("phasespace.analyzer_build.self_s", "s", "lower", "verify_s on verify-all; evolve_1pair_s on density-evolve"),
    ("phasespace.analyzer_build.repeat_ratio", "ratio", "lower", "evolve_1pair_s on density-evolve"),
    ("phasespace.synthesize.calls", "count", "lower", "verify_s on verify-all"),
    ("phasespace.synthesize.self_s", "s", "lower", "verify_s on verify-all"),
    ("phasespace.husimi_distribution.calls", "count", "lower", "evolve_* on density-evolve"),
    ("phasespace.husimi_distribution.self_s", "s", "lower", "evolve_* on density-evolve"),
    ("phasespace.husimi_distribution.rss_delta_mb", "MiB", "lower", "peak_rss_mb on density-evolve"),
    ("phasespace.husimi_density.useful_ratio", "ratio", "higher", "evolve_*, peak_rss_mb on density-evolve"),
    ("phasespace.wigner_distribution.self_s", "s", "lower", "dist_1pair_s on phase-export"),
    ("fock.grid_number_states.calls", "count", "lower", "evolve_* on density-evolve; verify_s on verify-all"),
    ("fock.grid_number_states.self_s", "s", "lower", "evolve_* on density-evolve; verify_s on verify-all"),
    ("fock.grid_number_states.states_built", "count", "lower", "evolve_* on density-evolve; verify_s on verify-all"),
    ("fock.grid_number_states.repeat_ratio", "ratio", "lower", "evolve_* on density-evolve"),
    ("fock.orthonormality_check.self_s", "s", "lower", "verify_s on verify-all"),
    ("fock.operator_matrix.self_s", "s", "lower", "verify_s on verify-all"),
    ("fock.write_matrix.self_s", "s", "lower", "evolve_* on density-evolve"),
    ("grids.moments.calls", "count", "lower", "verify_s on verify-all"),
    ("grids.moments.self_s", "s", "lower", "verify_s on verify-all"),
    ("grids.read_wavefunction.self_s", "s", "lower", "dist_* on phase-export"),
    ("grids.read_wavefunction.mb", "MB", "lower", "dist_* on phase-export"),
    ("grids.write_wavefunction.self_s", "s", "lower", "synth_s on phase-export"),
    ("grids.write_wavefunction.mb", "MB", "lower", "synth_s on phase-export"),
    ("states.coordinate_wavefunction.calls", "count", "lower", "verify_s on verify-all; synth_s on phase-export"),
    ("states.coordinate_wavefunction.self_s", "s", "lower", "verify_s on verify-all; synth_s on phase-export"),
    ("metric.self_s", "s", "lower", "synth_s on phase-export"),
    ("density.evolve_lvn.calls", "count", "lower", "evolve_* on density-evolve"),
    ("density.evolve_lvn.self_s", "s", "lower", "evolve_* on density-evolve"),
    ("density.read_density.self_s", "s", "lower", "evolve_* on density-evolve"),
    ("density.write_density.self_s", "s", "lower", "evolve_* on density-evolve"),
    ("psops.ccr_residual.calls", "count", "lower", "verify_s on verify-all"),
    ("psops.ccr_residual.self_s", "s", "lower", "verify_s on verify-all"),
    ("psops.consistency_check.self_s", "s", "lower", "verify_s on verify-all"),
] + [
    (f"verify.suite_{s}.total_s", "s", "lower", "verify_s on verify-all") for s in SUITES
] + [
    ("cli.import_s", "s", "lower", "setup_s on every workload"),
    ("cli.main.self_s", "s", "lower", "the per-command times on every workload"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced run_s"),
]


class Recorder:
    """In-memory spans of one process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, attrs]
        self.stack = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        attrs = {} if attrs is None else attrs      # probes fill it in after the call
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def dump(self, path: str, import_s: float):
        with open(path, "w") as fh:
            json.dump({"import_s": import_s, "spans": self.spans}, fh)


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _nominal_gflop(analyzer) -> float:
    """Complex multiply-adds of the seed contraction order, 8 flops each,
    computed from the table shapes (n_p, N, n_x per pair)."""
    dims = [(E.shape[0], E.shape[1], W.shape[1])
            for E, W in zip(analyzer.kernels, analyzer.windows)]
    if len(dims) == 1:
        n_p, n, n_x = dims[0]
        return 8.0 * n_p * n * n_x / 1e9
    (p1, n1, x1), (p2, n2, x2) = dims
    return 8.0 * (p1 * x1 * n1 * n2 + p1 * x1 * n2 * p2 * x2) / 1e9


def _spec_key(spec) -> str:
    return json.dumps(spec.to_dict(), sort_keys=True)


def _husimi_before(a: dict) -> dict:
    attrs = {"rss0": _maxrss_mib()}
    source = a["source"]
    if hasattr(source, "basis") and hasattr(source, "matrix"):
        eigs = np.linalg.eigvalsh(source.matrix)
        attrs["rank"] = int(np.sum(eigs > 1e-12 * eigs.max()))
        attrs["dim"] = int(source.matrix.shape[0])
    return attrs


def _husimi_after(a: dict, result, attrs: dict):
    attrs["rss_delta_mb"] = _maxrss_mib() - attrs.pop("rss0")


def _set(**kw):
    return lambda a, result, attrs: attrs.update({k: f(a, result) for k, f in kw.items()})


# name -> (before(bound args) -> attrs, after(bound args, result, attrs))
PROBES = {
    "phasespace.write_distribution": (None, _set(rows=lambda a, r: int(a["dist"].values.size),
                                                 mb=lambda a, r: _file_mb(a["csv_path"]))),
    "grids.write_wavefunction": (None, _set(mb=lambda a, r: _file_mb(a["csv_path"]))),
    "grids.read_wavefunction": (lambda a: {"mb": _file_mb(a["csv_path"])}, None),
    "phasespace.transform": (lambda a: {"gflop": _nominal_gflop(a["self"])}, None),
    "phasespace.analyzer_build": (
        lambda a: {"key": _spec_key(a["family"]) + repr(a["pgrid"]) + repr(a["grid"])}, None),
    "fock.grid_number_states": (
        lambda a: {"key": repr(a["basis"].n_max) + _spec_key(a["basis"].reference)
                   + repr(a["grid"])},
        _set(states=lambda a, r: len(r))),
    "phasespace.husimi_distribution": (_husimi_before, _husimi_after),
}


def _wrap(recorder: Recorder, name: str, fn):
    probe = PROBES.get(name)
    if probe is None:
        @functools.wraps(fn)
        def plain(*args, **kwargs):
            idx = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(idx)
        return plain

    before, after = probe
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        attrs = before(bound) if before else {}
        idx = recorder.open(name, attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if after:
            after(bound, result, attrs)
        return result
    return probed


def install(recorder: Recorder):
    """Wrap the listed functions in every qps namespace that binds them."""
    wrapped = {}
    for mod_name, names in LAYERS.items():
        mod = importlib.import_module(f"qps.{mod_name}")
        for n in names:
            fn = getattr(mod, n)
            wrapped[id(fn)] = (fn, _wrap(recorder, f"{mod_name}.{n}", fn))
    metric = importlib.import_module("qps.metric")
    for n, fn in vars(metric).items():
        if inspect.isfunction(fn) and fn.__module__ == metric.__name__ and not n.startswith("_"):
            wrapped[id(fn)] = (fn, _wrap(recorder, f"metric.{n}", fn))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "qps" and not mod_name.startswith("qps."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    analyzer = importlib.import_module("qps.phasespace").PhaseAnalyzer
    for meth, name in ANALYZER_METHODS.items():
        setattr(analyzer, meth, _wrap(recorder, name, getattr(analyzer, meth)))


def layer_metrics(span_sets: list, rounds: int) -> dict:
    """Per-layer values per traced round (cli.import_s per command), from the
    span files of every traced command.  Ratios come from the run's totals."""
    tot = defaultdict(lambda: defaultdict(float))
    distinct = defaultdict(int)
    import_s = 0.0
    for s in span_sets:
        import_s += s["import_s"]
        spans = s["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        keys = defaultdict(set)
        for i, (name, t0, t1, _, attrs) in enumerate(spans):
            layer = "metric" if name.startswith("metric.") else name
            a = tot[layer]
            a["calls"] += 1
            a["self_s"] += (t1 - t0) - child[i]
            a["total_s"] += t1 - t0
            for k, v in attrs.items():
                if k == "key":
                    keys[layer].add(v)
                elif k == "rss_delta_mb":
                    a[k] = max(a[k], v)
                else:
                    a[k] += v
        for layer, ks in keys.items():
            distinct[layer] += len(ks)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, *_ in PER_LAYER:
        layer, stat = metric.rsplit(".", 1)
        a = tot[layer]
        if stat == "mb_per_s":
            value = ratio(a["mb"], a["self_s"])
        elif stat == "gflop_per_s":
            value = ratio(a["gflop"], a["self_s"])
        elif stat == "nominal_gflop":
            value = a["gflop"] / rounds
        elif stat == "states_built":
            value = a["states"] / rounds
        elif stat == "repeat_ratio":
            value = ratio(a["calls"], distinct[layer])
        elif stat == "useful_ratio":
            h = tot["phasespace.husimi_distribution"]
            value = ratio(h["rank"], h["dim"])
        elif stat == "rss_delta_mb":
            value = a[stat]
        elif metric == "cli.import_s":
            value = ratio(import_s, len(span_sets))
        elif metric == "trace.overhead_s":
            continue
        else:
            value = a[stat] / rounds
        out[metric] = value
    return out
