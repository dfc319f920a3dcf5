"""Span tracer that times dunklkg from outside, without editing its source.

``Tracer.install()`` rebinds every name under which a traced function is
looked up: each ``dunklkg.*`` module attribute that refers to it (so
``coherent.eigenfunction_x`` and ``verify.eigenfunction_x`` are both
caught), plus the class attributes ``ProfileData.to_csv``,
``ProfileData.to_json_obj`` and ``GridFunction.__init__``.  ``uninstall()``
puts the originals back.

Spans (name, start, end, parent, op id) are appended to flat arrays in
memory and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children; spans nest strictly
because the program is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from array import array
from time import perf_counter

import numpy as np

# Layers reported per op.  Each function entry is (module, attribute,
# layer, counter); a counter maps (args, kwargs, result) to the amount of
# work the call did, summed into "<layer>.<counter name>".


def _size(args, kwargs, result):
    return int(np.size(result))


def _text_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _samples(args, kwargs, result):
    return len(result["samples"])


def _series_terms(args, kwargs, result):
    n_terms = args[2] if len(args) > 2 else kwargs.get("n_terms")
    if n_terms is None:
        from dunklkg import coherent

        n_terms = coherent.suggested_series_terms(args[1], float(np.max(args[0])))
    return int(n_terms)


SCALAR = ("gamma", "log_gamma", "principal_sqrt", "principal_log", "principal_pow")

FUNCTIONS = [
    ("complexfn", "laguerre_sequence", "complexfn.laguerre_sequence", ("point_orders", _size)),
    *[("complexfn", name, "complexfn.scalar", None) for name in SCALAR],
    ("eigenfunctions", "eigenfunction_x", "eigenfunctions.eigenfunction_x", None),
    ("eigenfunctions", "eigenfunction_r", "eigenfunctions.eigenfunction_r", None),
    ("eigenfunctions", "ode_residual", "eigenfunctions.ode_residual", None),
    ("eigenfunctions", "normalization", "eigenfunctions.normalization", None),
    ("gridops", "derivative_4th", "gridops.stencil", ("points", _size)),
    ("gridops", "second_derivative_4th", "gridops.stencil", ("points", _size)),
    ("gridops", "z3_apply", "gridops.operator", None),
    ("gridops", "ladder_apply", "gridops.operator", None),
    ("coherent", "coherent_series", "coherent.coherent_series", ("terms", _series_terms)),
    ("coherent", "coherent_closed_form", "coherent.closed_form", ("points", _size)),
    ("coherent", "coherent_evolved", "coherent.closed_form", ("points", _size)),
    ("coherent", "build_profile", "coherent.build_profile", None),
    ("spectrum", "energy_pair", "spectrum.energy_pair", None),
    ("spectrum", "table_to_csv", "spectrum.table_text", ("bytes", _text_bytes)),
    ("spectrum", "table_to_json", "spectrum.table_text", ("bytes", _text_bytes)),
    ("refdata", "compare_reference", "refdata.compare_reference", None),
]

METHODS = [
    ("coherent", "ProfileData", "to_csv", "coherent.to_csv", ("bytes", _text_bytes)),
    ("coherent", "ProfileData", "to_json_obj", "coherent.to_json_obj", ("samples", _samples)),
    ("gridops", "GridFunction", "__init__", "gridops.GridFunction", None),
]

# (layer, metric suffixes): "calls"/"constructions" count spans, "self_s"
# sums self time, anything else is a counter above.
LAYER_METRICS = [
    ("complexfn.laguerre_sequence", ("calls", "self_s", "point_orders")),
    ("complexfn.scalar", ("calls", "self_s")),
    ("eigenfunctions.eigenfunction_x", ("calls", "self_s")),
    ("eigenfunctions.eigenfunction_r", ("calls", "self_s")),
    ("eigenfunctions.ode_residual", ("calls", "self_s")),
    ("eigenfunctions.normalization", ("calls", "self_s")),
    ("gridops.stencil", ("calls", "self_s", "points")),
    ("gridops.operator", ("calls", "self_s")),
    ("gridops.GridFunction", ("constructions", "self_s")),
    ("coherent.coherent_series", ("calls", "self_s", "terms")),
    ("coherent.closed_form", ("points", "self_s")),
    ("coherent.build_profile", ("calls", "self_s")),
    ("coherent.to_csv", ("self_s", "bytes")),
    ("coherent.to_json_obj", ("self_s", "samples")),
    ("spectrum.energy_pair", ("calls", "self_s")),
    ("spectrum.table_text", ("self_s", "bytes")),
    ("refdata.compare_reference", ("calls", "self_s")),
]

# The verify suite's 18 checks (span named after the record's "name") and
# its 4 diagnostic builders (named as run_verification names them).
VERIFY_CHECKS = (
    "casimir_identity", "sigma_identity", "table1_reproduction", "table2_reproduction",
    "self_consistency", "ode_residual", "ode_convergence", "z3_eigenvalue",
    "z3_convergence", "coherent_series_agreement", "xi_zero_reduction",
    "tau_zero_reduction", "tau_periodicity", "laguerre_recurrence",
    "gamma_recurrence", "gamma_reflection", "sqrt_square_roundtrip", "pow_identities",
)
VERIFY_DIAGNOSTICS = {
    "diagnostics_commutators": "commutator",
    "diagnostics_ladder": "ladder_collinearity",
    "diagnostics_peak_trend": "density_peak",
    "diagnostics_strict_principal": "self_consistency_strict_principal",
}

CLI_SPAN = "cli"
COUNT_SUFFIXES = ("calls", "constructions", "point_orders", "points", "terms", "bytes", "samples")


def layer_metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{layer}.{suffix}" for layer, suffixes in LAYER_METRICS for suffix in suffixes]
    names += [f"verify.{check}.s" for check in (*VERIFY_CHECKS, *VERIFY_DIAGNOSTICS.values())]
    names.append("cli.self_s")
    return names


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.counts: dict = {}
        self.op_id = -1
        self._stack: list = []
        self._patches: list = []

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block, such as one whole CLI call."""
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, layer, counter=None, label=None):
        tracer = self
        layer_id = self.name_id(layer)
        count_key = f"{layer}.{counter[0]}" if counter else None
        count_fn = counter[1] if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count_fn is not None:
                tracer.counts[count_key] = tracer.counts.get(count_key, 0) + count_fn(
                    args, kwargs, result
                )
            if label is not None:
                tracer.name[idx] = tracer.name_id(label(result))
            return result

        return traced

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` under every dunklkg module name bound to it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dunklkg" and not mod_name.startswith("dunklkg."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import dunklkg.cli  # noqa: F401  (loaded first so its names are rebound too)

        modules = {name: sys.modules[f"dunklkg.{name}"] for name in
                   ("complexfn", "eigenfunctions", "gridops", "coherent", "spectrum",
                    "refdata", "verify")}
        for mod_name, attr, layer, counter in FUNCTIONS:
            original = getattr(modules[mod_name], attr)
            self._rebind(original, self._wrap(original, layer, counter))
        for mod_name, cls_name, attr, layer, counter in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, layer, counter))
        verify = modules["verify"]
        for attr, original in list(vars(verify).items()):
            if attr.startswith("check_") and callable(original):
                wrapper = self._wrap(original, "verify.check", label=_check_label)
            elif attr in VERIFY_DIAGNOSTICS:
                wrapper = self._wrap(original, f"verify.{VERIFY_DIAGNOSTICS[attr]}")
            else:
                continue
            self._rebind(original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "name": self.name.tolist(),
            "op": self.op.tolist(),
            "counts": dict(self.counts),
        }

    def merge(self, spans: dict) -> None:
        """Append spans recorded by another process (parents re-indexed)."""
        offset = len(self.start)
        remap = [self.name_id(n) for n in spans["names"]]
        self.start.extend(spans["start"])
        self.end.extend(spans["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in spans["parent"])
        self.name.extend(remap[i] for i in spans["name"])
        self.op.extend(spans["op"])
        for key, value in spans["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op layer metrics; layers the run never reached report 0."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        total_s = np.bincount(name, weights=dur, minlength=n_names)

        def per_name(table, layer):
            idx = self._name_ids.get(layer)
            return 0.0 if idx is None else float(table[idx])

        out = {}
        for metric in layer_metric_names():
            layer, suffix = metric.rsplit(".", 1)
            if layer.startswith("verify.") and suffix == "s":
                value = per_name(total_s, layer)
            elif suffix == "self_s":
                value = per_name(self_s, layer)
            elif suffix in ("calls", "constructions"):
                value = per_name(calls, layer)
            else:
                value = self.counts.get(metric, 0)
            out[metric] = value / n_ops
        return out


def _check_label(record) -> str:
    return f"verify.{record['name']}"
