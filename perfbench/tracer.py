"""Spans and counters around the public functions of each groupspec module.

Tracing lives entirely in the benchmark: an import hook patches each traced
function on its defining module as soon as that module has executed, so a
later `from .batch import mat_mul` in another module binds the traced
function too, and calls inside the defining module go through it as well.
Class methods are patched on the class.

A span records name, start, end and parent. Spans are kept in memory and
written when the run ends. A layer's self time is its span time minus the
time of its child spans. The hottest leaves (arith helpers, scalar field
operations, Spectrum validation) keep only counts and self time, no span
records, to bound memory and overhead.
"""

from __future__ import annotations

import functools
import importlib.abc
import json
import sys
import time
from collections import defaultdict

SPAN_CAP = 200_000
HOT = {"arith.factorize", "arith.lcm_list", "oracle.field.scalar", "spectra.Spectrum"}

BRUTE = "oracle.spectrum.brute_spectrum"
ENUM = "oracle.groups.enumerate_matrices"
ORDERS = "oracle.orders.orders_batch"


class Tracer:
    def __init__(self):
        self.stack: list = []          # frames: [name, start, child_s, span_id, parent_id]
        self.spans: list = []          # (span_id, parent_id, name, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.first_s: dict = {}
        self.active = defaultdict(int)
        self.next_id = 0

    def enter(self, name: str) -> list:
        parent = self.stack[-1][3] if self.stack else -1
        frame = [name, time.perf_counter(), 0.0, self.next_id, parent]
        self.next_id += 1
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def exit(self, frame: list):
        """Close the innermost span; returns the parent span's name or None."""
        end = time.perf_counter()
        self.stack.pop()
        name, start = frame[0], frame[1]
        self.active[name] -= 1
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - frame[2]
        self.first_s.setdefault(name, dur)
        if self.stack:
            self.stack[-1][2] += dur
        if name not in HOT and len(self.spans) < SPAN_CAP:
            self.spans.append((frame[3], frame[4], name, start, end))
        return self.stack[-1][0] if self.stack else None

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(parent_name, args, result) adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                parent = self.exit(frame)
            if after is not None:
                after(parent, args, out)
            return out
        return traced

    def raw(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "first_s": dict(self.first_s)}

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)


class _CountingRng:
    """Forwards to a numpy Generator and counts candidate draws: the batch
    size of each 3-D draw (whole matrices) and each 1-D draw (one vector)."""

    def __init__(self, rng):
        self._rng = rng
        self.matrices = 0
        self.vectors = 0

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        if getattr(out, "ndim", 0) == 3:
            self.matrices += out.shape[0]
        else:
            self.vectors += 1
        return out

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


# --- per-module patches ------------------------------------------------------


def _patch_arith(tr: Tracer, mod):
    mod.factorize = tr.span("arith.factorize", mod.factorize)
    mod.lcm_list = tr.span("arith.lcm_list", mod.lcm_list)


def _patch_spectra(tr: Tracer, mod):
    for fn in ("spectrum_linear_items", "spectrum_symplectic_items",
               "spectrum_orthogonal_semisimple_items"):
        setattr(mod, fn, tr.span("spectra.items", getattr(mod, fn)))
    for fn in ("spectrum_linear", "spectrum_symplectic", "spectrum_orthogonal_semisimple"):
        setattr(mod, fn, tr.span("spectra.spectrum", getattr(mod, fn)))
    mod.Spectrum.__post_init__ = tr.span("spectra.Spectrum", mod.Spectrum.__post_init__)
    normalize = mod.normalize

    @functools.wraps(normalize)
    def counted(values):
        vals = list(values)
        frame = tr.enter("spectra.normalize")
        try:
            out = normalize(vals)
        finally:
            parent = tr.exit(frame)
        tr.counts["spectra.normalize.values_in"] += len(vals)
        if parent == "spectra.spectrum":
            tr.counts["spectra.candidates"] += len(vals)
            tr.counts["spectra.kept"] += len(out.generators)
        return out
    mod.normalize = counted


def _patch_coset(tr: Tracer, mod):
    for fn in ("graph_coset", "tau_criterion", "extension_spectrum"):
        setattr(mod, fn, tr.span(f"coset.{fn}", getattr(mod, fn)))
    mod.CosetSpectrum.maximal_elements = tr.span(
        "coset.maximal_elements", mod.CosetSpectrum.maximal_elements)


def _patch_outer(tr: Tracer, mod):
    mod.admissible_generators = tr.span("outer.admissible_generators",
                                        mod.admissible_generators)

    def size(parent, args, out):
        tr.counts["outer.out_elements.size"] += len(out)
    mod.out_elements = tr.span("outer.out_elements", mod.out_elements, size)


def _patch_field(tr: Tracer, mod):
    cls = mod.FiniteField
    cls.__init__ = tr.span("oracle.field.FiniteField", cls.__init__)
    for op in ("add", "sub", "mul", "neg", "inv", "pow"):
        setattr(cls, op, tr.span("oracle.field.scalar", getattr(cls, op)))


def _patch_batch(tr: Tracer, mod):
    mat_mul = mod.mat_mul

    @functools.wraps(mat_mul)
    def traced_mat_mul(F, A, B):
        name = "oracle.batch.mat_mul." + ("prime" if F.m == 1 else "table")
        frame = tr.enter(name)
        try:
            out = mat_mul(F, A, B)
        finally:
            tr.exit(frame)
        n = out.shape[-1]
        rows = out.size // (n * n)
        tr.counts[name + ".matrices"] += rows
        tr.counts[name + ".ops"] += rows * n ** 3
        tr.counts[name + ".bytes"] += A.nbytes + B.nbytes + out.nbytes
        if rows == 1:
            tr.counts["oracle.batch.mat_mul.single.calls"] += 1
        if tr.active[ORDERS]:
            tr.counts["orders.mat_mul_rows"] += rows
        if tr.active[ENUM]:
            tr.counts["enum.examined"] += rows
        return out
    mod.mat_mul = traced_mat_mul

    def det_rows(parent, args, out):
        rows = args[1].shape[0]
        tr.counts["oracle.batch.det_inv_batch.matrices"] += rows
        if tr.active[ENUM]:
            tr.counts["enum.examined"] += rows
    mod.det_inv_batch = tr.span("oracle.batch.det_inv_batch", mod.det_inv_batch, det_rows)
    mod.mat_pow = tr.span("oracle.batch.mat_pow", mod.mat_pow)
    mod.rank_batch = tr.span("oracle.batch.rank_batch", mod.rank_batch)


def _patch_orders(tr: Tracer, mod):
    def measured(parent, args, out):
        if parent == BRUTE:
            tr.counts["spectrum.measured"] += len(out)

    def ordered(parent, args, out):
        tr.counts["oracle.orders.orders_batch.matrices"] += len(out)
        measured(parent, args, out)
    mod.orders_batch = tr.span(ORDERS, mod.orders_batch, ordered)
    mod.tau_coset_orders_batch = tr.span("oracle.orders.tau_coset_orders_batch",
                                         mod.tau_coset_orders_batch, measured)


def _patch_groups(tr: Tracer, mod):
    sample = mod.sample_matrices

    @functools.wraps(sample)
    def traced_sample(kind, n, q, count, rng, *args, **kwargs):
        counting = _CountingRng(rng)
        frame = tr.enter("oracle.groups.sample_matrices")
        try:
            out = sample(kind, n, q, count, counting, *args, **kwargs)
        finally:
            parent = tr.exit(frame)
        if counting.matrices:                     # GL/SL rejection sampling
            drawn = counting.matrices
        elif mod.sampler_name(kind, n, q) == "enumeration-draw" and kwargs.get(
                "allow_enum_draw", True):
            drawn = len(out)
        else:                                     # one candidate vector per row
            drawn = counting.vectors / n
        tr.counts["oracle.groups.sample_matrices.matrices"] += len(out)
        tr.counts["sample.drawn"] += drawn
        if parent == BRUTE:
            tr.counts["spectrum.drawn"] += len(out)
        return out
    mod.sample_matrices = traced_sample

    enumerate_matrices = mod.enumerate_matrices

    @functools.wraps(enumerate_matrices)
    def traced_enumerate(*args, **kwargs):
        before = tr.counts["enum.examined"]
        frame = tr.enter(ENUM)
        try:
            out = enumerate_matrices(*args, **kwargs)
        finally:
            parent = tr.exit(frame)
        if tr.counts["enum.examined"] != before:  # not served from the cache
            tr.counts[ENUM + ".matrices"] += len(out[1])
        if parent == BRUTE:
            tr.counts["spectrum.drawn"] += len(out[1])
        return out
    mod.enumerate_matrices = traced_enumerate


def _patch_spectrum(tr: Tracer, mod):
    def matrices(parent, args, out):
        tr.counts["oracle.spectrum.matrices"] += out["samples"]

    def verdict(parent, args, out):
        tr.counts["oracle.spectrum.verify.fail"] += out["verdict"] != "PASS"
    mod.brute_spectrum = tr.span(BRUTE, mod.brute_spectrum, matrices)
    for fn in ("verify_group", "verify_tau_coset"):
        setattr(mod, fn, tr.span("oracle.spectrum.verify", getattr(mod, fn), verdict))


def _patch_wall(tr: Tracer, mod):
    for fn in ("gamma_membership", "invariant_factors", "partition_at"):
        setattr(mod, fn, tr.span(f"oracle.wall.{fn}", getattr(mod, fn)))


def _patch_witness(tr: Tracer, mod):
    mod.witness_report = tr.span("oracle.witness.witness_report", mod.witness_report)


PATCHES = {
    "groupspec.arith": _patch_arith,
    "groupspec.spectra": _patch_spectra,
    "groupspec.coset": _patch_coset,
    "groupspec.outer": _patch_outer,
    "groupspec.oracle.field": _patch_field,
    "groupspec.oracle.batch": _patch_batch,
    "groupspec.oracle.orders": _patch_orders,
    "groupspec.oracle.groups": _patch_groups,
    "groupspec.oracle.spectrum": _patch_spectrum,
    "groupspec.oracle.wall": _patch_wall,
    "groupspec.oracle.witness": _patch_witness,
}


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, inner, patch):
        self.inner, self.patch = inner, patch

    def create_module(self, spec):
        return self.inner.create_module(spec)

    def exec_module(self, module):
        self.inner.exec_module(module)
        self.patch(module)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        patch = PATCHES.get(fullname)
        if patch is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                spec.loader = _PatchingLoader(spec.loader,
                                              functools.partial(patch, self.tracer))
                return spec
        return None


def install(tracer: Tracer):
    """Patch every groupspec module imported from now on."""
    if any(name in sys.modules for name in PATCHES):
        raise RuntimeError("install the tracer before importing groupspec")
    sys.meta_path.insert(0, _PatchingFinder(tracer))


# --- per-layer metrics ---------------------------------------------------------

COUNT, SEC, RATIO = "count", "s", "ratio"

# (metric, unit, better); the layers are the repo's modules
PER_LAYER = [
    ("arith.factorize.calls", COUNT, "lower"), ("arith.factorize.self_s", SEC, "lower"),
    ("arith.factorize.first_call_s", SEC, "lower"),
    ("arith.lcm_list.calls", COUNT, "lower"), ("arith.lcm_list.self_s", SEC, "lower"),
    ("spectra.items.calls", COUNT, "lower"), ("spectra.items.self_s", SEC, "lower"),
    ("spectra.normalize.calls", COUNT, "lower"), ("spectra.normalize.self_s", SEC, "lower"),
    ("spectra.normalize.values_in", COUNT, "lower"),
    ("spectra.Spectrum.self_s", SEC, "lower"),
    ("spectra.candidates", COUNT, "lower"), ("spectra.kept", COUNT, "lower"),
    ("spectra.kept_ratio", RATIO, "higher"),
]
for _fn in ("graph_coset", "tau_criterion", "extension_spectrum", "maximal_elements"):
    PER_LAYER += [(f"coset.{_fn}.calls", COUNT, "lower"), (f"coset.{_fn}.self_s", SEC, "lower")]
PER_LAYER += [
    ("outer.admissible_generators.calls", COUNT, "lower"),
    ("outer.admissible_generators.self_s", SEC, "lower"),
    ("outer.out_elements.size", COUNT, "lower"),
    ("oracle.field.FiniteField.calls", COUNT, "lower"),
    ("oracle.field.FiniteField.self_s", SEC, "lower"),
    ("oracle.field.scalar.calls", COUNT, "lower"), ("oracle.field.scalar.self_s", SEC, "lower"),
]
for _path in ("prime", "table"):
    _p = f"oracle.batch.mat_mul.{_path}"
    PER_LAYER += [(f"{_p}.calls", COUNT, "lower"), (f"{_p}.self_s", SEC, "lower"),
                  (f"{_p}.matrices", COUNT, "lower"), (f"{_p}.ops", "ops", "lower"),
                  (f"{_p}.bytes", "bytes", "lower")]
PER_LAYER += [
    ("oracle.batch.mat_mul.single.calls", COUNT, "lower"),
    ("oracle.batch.det_inv_batch.calls", COUNT, "lower"),
    ("oracle.batch.det_inv_batch.self_s", SEC, "lower"),
    ("oracle.batch.det_inv_batch.matrices", COUNT, "lower"),
    ("oracle.batch.mat_pow.calls", COUNT, "lower"), ("oracle.batch.mat_pow.self_s", SEC, "lower"),
    ("oracle.batch.rank_batch.calls", COUNT, "lower"),
    ("oracle.batch.rank_batch.self_s", SEC, "lower"),
    ("oracle.orders.orders_batch.calls", COUNT, "lower"),
    ("oracle.orders.orders_batch.self_s", SEC, "lower"),
    ("oracle.orders.orders_batch.matrices", COUNT, "lower"),
    ("oracle.orders.tau_coset_orders_batch.calls", COUNT, "lower"),
    ("oracle.orders.tau_coset_orders_batch.self_s", SEC, "lower"),
    ("oracle.orders.products_per_matrix", RATIO, "lower"),
    ("oracle.groups.sample_matrices.calls", COUNT, "lower"),
    ("oracle.groups.sample_matrices.self_s", SEC, "lower"),
    ("oracle.groups.sample_matrices.matrices", COUNT, "lower"),
    ("oracle.groups.sample_matrices.accept_ratio", RATIO, "higher"),
    ("oracle.groups.enumerate_matrices.calls", COUNT, "lower"),
    ("oracle.groups.enumerate_matrices.self_s", SEC, "lower"),
    ("oracle.groups.enumerate_matrices.matrices", COUNT, "lower"),
    ("oracle.groups.enumerate_matrices.keep_ratio", RATIO, "higher"),
    ("oracle.spectrum.brute_spectrum.calls", COUNT, "lower"),
    ("oracle.spectrum.brute_spectrum.self_s", SEC, "lower"),
    ("oracle.spectrum.matrices", COUNT, "lower"),
    ("oracle.spectrum.det_class_accept_ratio", RATIO, "higher"),
    ("oracle.spectrum.verify.calls", COUNT, "lower"),
    ("oracle.spectrum.verify.fail", COUNT, "lower"),
]
for _fn in ("gamma_membership", "invariant_factors", "partition_at"):
    PER_LAYER += [(f"oracle.wall.{_fn}.calls", COUNT, "lower"),
                  (f"oracle.wall.{_fn}.self_s", SEC, "lower")]
PER_LAYER += [
    ("oracle.witness.witness_report.calls", COUNT, "lower"),
    ("oracle.witness.witness_report.self_s", SEC, "lower"),
    ("cli.interp_s", SEC, "lower"), ("cli.import_s", SEC, "lower"),
    ("cli.numpy_import_s", SEC, "lower"), ("cli.main_s", SEC, "lower"),
    ("cli.calls", COUNT, "lower"),
    ("trace.overhead_s", SEC, "lower"),
]

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def merge_raw(raws: list) -> dict:
    """Sum the calls, self times and counts of several traced processes; the
    first-call time is the median over the processes that made the call."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "counts": defaultdict(float), "first_s": {}}
    firsts = defaultdict(list)
    for raw in raws:
        for key in ("calls", "self_s", "counts"):
            for name, val in raw[key].items():
                out[key][name] += val
        for name, val in raw["first_s"].items():
            firsts[name].append(val)
    for name, vals in firsts.items():
        vals.sort()
        out["first_s"][name] = vals[len(vals) // 2]
    return out


def layer_metrics(raw: dict) -> dict:
    """Every per-layer metric; the cli.* ones and trace.overhead_s read 0 here
    and are measured by the caller."""
    calls, self_s, counts = raw["calls"], raw["self_s"], raw["counts"]
    out = {}
    for name, _, _ in PER_LAYER:
        base, _, leaf = name.rpartition(".")
        if name in counts:
            out[name] = counts[name]
        elif leaf == "calls":
            out[name] = calls.get(base, 0)
        elif leaf == "self_s":
            out[name] = self_s.get(base, 0.0)
        else:
            out[name] = 0
    out["arith.factorize.first_call_s"] = raw["first_s"].get("arith.factorize", 0.0)
    out["spectra.kept_ratio"] = _ratio(counts.get("spectra.kept", 0),
                                       counts.get("spectra.candidates", 0))
    out["oracle.orders.products_per_matrix"] = _ratio(
        counts.get("orders.mat_mul_rows", 0), counts.get("oracle.orders.orders_batch.matrices", 0))
    out["oracle.groups.sample_matrices.accept_ratio"] = _ratio(
        counts.get("oracle.groups.sample_matrices.matrices", 0), counts.get("sample.drawn", 0))
    out["oracle.groups.enumerate_matrices.keep_ratio"] = _ratio(
        counts.get(ENUM + ".matrices", 0), counts.get("enum.examined", 0))
    out["oracle.spectrum.det_class_accept_ratio"] = _ratio(
        counts.get("spectrum.measured", 0), counts.get("spectrum.drawn", 0))
    return out
