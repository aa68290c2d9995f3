"""Span recording around errorfloor's public functions.

The benchmark's traced run replaces each function below at the module
attribute its callers look up (`simharness.decode_batch`, not
`decoder.decode_batch`, because `simharness` imported the name), records
one span per call in flat in-memory arrays, and puts every original back
when the run ends.  A span's layer is the module that defines the
function, the first part of its name.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "simharness", "floorpred", "decoder", "dde", "statespace",
          "census", "spectral", "tanner")

# (module the caller reads the name from, attribute path, span name)
PATCHES = (
    ("cli", "main", "cli.main"),
    ("cli", "load_alist", "tanner.load_alist"),
    ("cli", "load_trapping_sets", "tanner.load_trapping_sets"),
    ("cli", "run_monte_carlo", "simharness.run_monte_carlo"),
    ("cli", "semi_analytic_floor", "simharness.semi_analytic_floor"),
    ("cli", "load_job", "floorpred.load_job"),
    ("cli", "predict_curve", "floorpred.predict_curve"),
    ("cli", "emit_table", "census.emit_table"),
    ("cli", "table_to_csv", "census.table_to_csv"),
    ("simharness", "decode_batch", "decoder.decode_batch"),
    ("simharness", "classify", "tanner.classify"),
    ("simharness", "induce", "tanner.induce"),
    ("simharness", "conditional_failure", "simharness.conditional_failure"),
    ("simharness", "integrate_floor", "simharness.integrate_floor"),
    ("floorpred", "load_alist", "tanner.load_alist"),
    ("floorpred", "load_trapping_sets", "tanner.load_trapping_sets"),
    ("floorpred", "dde_run", "dde.dde_run"),
    ("floorpred", "predict_set", "floorpred.predict_set"),
    ("floorpred", "induce", "tanner.induce"),
    ("floorpred", "build_model", "statespace.build_model"),
    ("floorpred", "gain_schedule", "statespace.gain_schedule"),
    ("floorpred", "beta_prime_moments", "statespace.beta_prime_moments"),
    ("floorpred", "failure_probability", "statespace.failure_probability"),
    ("floorpred", "union_bounds", "statespace.union_bounds"),
    ("dde", "Pmf.check_pair", "dde.check_pair"),
    ("dde", "Pmf.convolve", "dde.convolve"),
    ("statespace", "spectral_summary", "spectral.spectral_summary"),
    ("census", "canonical_cert", "census.canonical_cert"),
    ("census", "generate_classes", "census.generate_classes"),
    ("census", "spectral_summary", "spectral.spectral_summary"),
    ("census", "frobenius_bounds", "spectral.frobenius_bounds"),
    ("tanner", "random_regular_code", "tanner.random_regular_code"),
)


def _count_decode(counters, args, kwargs, res):
    H = args[0]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    iters = np.asarray(res.iterations, dtype=np.int64)
    at_max = iters == cfg.max_iters
    total = int(iters.sum())
    counters["decoder.frames"] += int(iters.size)
    counters["decoder.frame_iters"] += total
    counters["decoder.maxiter_frames"] += int(at_max.sum())
    counters["decoder.maxiter_iters"] += int(iters[at_max].sum())
    counters["decoder.edge_updates"] += total * int(H.n_edges)


def _count_mc(counters, args, kwargs, res):
    counters["simharness.failures"] += int(res.frame_errors)


def _count_conditional(counters, args, kwargs, res):
    counters["simharness.failures"] += int(res.failures)


def _count_classes(counters, args, kwargs, res):
    counters["census.classes"] += len(res)


# work counters taken from a call's arguments and result
COUNTERS = {
    "decoder.decode_batch": _count_decode,
    "simharness.run_monte_carlo": _count_mc,
    "simharness.conditional_failure": _count_conditional,
    "census.generate_classes": _count_classes,
}
COUNTER_NAMES = ("decoder.frames", "decoder.frame_iters", "decoder.maxiter_frames",
                 "decoder.maxiter_iters", "decoder.edge_updates", "simharness.failures",
                 "census.classes")


class Recorder:
    """Spans as parallel arrays: name id, start, end, parent index.  One
    process runs one operation, so its pid is the operation id."""

    def __init__(self):
        self.op_id = os.getpid()
        self.names: list[str] = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.full(len(self.start), self.op_id, dtype=np.int32),
        )


def _wrap(fn, rec: Recorder, name: str):
    nid = rec.name_id(name)
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if count is not None:
            count(rec.counters, args, kwargs, out)
        return out

    return traced


def _owner(module: str, path: str):
    obj = importlib.import_module(f"errorfloor.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        obj = getattr(obj, part)
    return obj, attr


@contextmanager
def traced(rec: Recorder):
    """Install span wrappers for the duration of the block, then restore
    every original attribute, also when the block raises."""
    saved = []
    try:
        for module, path, name in PATCHES:
            owner, attr = _owner(module, path)
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(fn, rec, name))
        yield rec
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def self_times(dur: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def within(parent: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Mask of spans that are the given roots or descend from one.
    Parents always precede their children in recording order."""
    inside = np.zeros(parent.size, dtype=bool)
    inside[roots] = True
    for i in range(parent.size):
        if not inside[i] and parent[i] >= 0 and inside[parent[i]]:
            inside[i] = True
    return inside


def summarize(spans: dict, counters: dict, op_wall_s: float) -> dict:
    """Per-layer metrics of one traced operation.

    Times are self times summed over the spans inside the operation's
    `cli.main` calls; set-up spans (the code generator) are reported on
    their own.  `trace.uncovered_s` is the operation's wall time that no
    `cli.main` span covers.
    """
    names = list(spans["names"])
    name = spans["name"]
    parent = spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    selft = self_times(dur, parent)
    span_name = np.array(names, dtype=object)[name]
    layer = np.array([n.split(".")[0] for n in span_name], dtype=object)

    root_ids = np.flatnonzero((parent < 0) & (span_name == "cli.main"))
    in_op = within(parent, root_ids)

    def calls(n):
        return int(np.count_nonzero(span_name == n))

    def self_of(n, mask=in_op):
        return float(selft[mask & (span_name == n)].sum())

    def first_of(n):
        hit = np.flatnonzero(span_name == n)
        return float(dur[hit[0]]) if hit.size else 0.0

    m: dict = {}
    for lay in LAYERS:
        m[f"{lay}.self_s"] = float(selft[in_op & (layer == lay)].sum())
    covered = float(dur[root_ids].sum())
    m["trace.wall_s"] = op_wall_s
    m["trace.layers_s"] = sum(m[f"{lay}.self_s"] for lay in LAYERS)
    m["trace.uncovered_s"] = op_wall_s - covered

    c = counters
    dec_s = self_of("decoder.decode_batch")
    m["decoder.decode_batch.calls"] = calls("decoder.decode_batch")
    m["decoder.decode_batch.self_s"] = dec_s
    m["decoder.frames"] = c["decoder.frames"]
    m["decoder.frame_iters"] = c["decoder.frame_iters"]
    m["decoder.edge_updates"] = c["decoder.edge_updates"]
    m["decoder.edge_updates_per_s"] = c["decoder.edge_updates"] / dec_s if dec_s > 0 else 0.0
    m["decoder.maxiter_frac"] = (c["decoder.maxiter_frames"] / c["decoder.frames"]
                                 if c["decoder.frames"] else 0.0)
    m["decoder.maxiter_iter_share"] = (c["decoder.maxiter_iters"] / c["decoder.frame_iters"]
                                       if c["decoder.frame_iters"] else 0.0)

    m["simharness.conditional_failure.calls"] = calls("simharness.conditional_failure")
    m["simharness.integrate_floor.self_s"] = self_of("simharness.integrate_floor")
    m["simharness.failures"] = c["simharness.failures"]

    m["tanner.classify.calls"] = calls("tanner.classify")
    m["tanner.classify.self_s"] = self_of("tanner.classify")
    m["tanner.load_alist.self_s"] = self_of("tanner.load_alist")
    everywhere = np.ones(parent.size, dtype=bool)
    m["tanner.random_regular_code.self_s"] = self_of("tanner.random_regular_code", everywhere)

    m["dde.check_pair.calls"] = calls("dde.check_pair")
    m["dde.check_pair.self_s"] = self_of("dde.check_pair")
    m["dde.check_pair.first_s"] = first_of("dde.check_pair")
    m["dde.convolve.calls"] = calls("dde.convolve")
    m["dde.convolve.self_s"] = self_of("dde.convolve")
    m["dde.dde_run.self_s"] = self_of("dde.dde_run")

    m["floorpred.predict_set.calls"] = calls("floorpred.predict_set")
    m["floorpred.predict_set.self_s"] = self_of("floorpred.predict_set")
    m["statespace.build_model.self_s"] = self_of("statespace.build_model")
    m["statespace.beta_prime_moments.self_s"] = self_of("statespace.beta_prime_moments")

    certs = calls("census.canonical_cert")
    m["census.canonical_cert.calls"] = certs
    m["census.canonical_cert.self_s"] = self_of("census.canonical_cert")
    m["census.generate_classes.self_s"] = self_of("census.generate_classes")
    m["census.classes"] = c["census.classes"]
    m["census.cert_yield"] = c["census.classes"] / certs if certs else 0.0
    m["spectral.spectral_summary.calls"] = calls("spectral.spectral_summary")
    m["spectral.spectral_summary.self_s"] = self_of("spectral.spectral_summary")
    return m
