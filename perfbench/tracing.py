"""Spans around weaklab's public functions, installed from outside the package.

``Tracer.install()`` replaces each function listed in ``LAYERS`` by a wrapper
in every weaklab module that holds it (so ``from .grid import average`` in
``sparse`` is wrapped too) and on classes for methods.  While the tracer is
active, each call records a span: name, start, end, the span that caused it
and the trial it belongs to.  Spans stay in memory until ``write``.

Self time is a span's duration minus the time covered by its child spans;
the run is single-threaded, so children nest and never overlap, and self
time is kept as a running sum when each span closes.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Public functions per layer: the ones the workloads reach and an optimisation
# is most likely to move.  "Class.method" names a method; the metric uses the
# last component ("grid.integral" is MeshFunction.integral).
LAYERS = {
    "grid": ("average", "MeshFunction.integral", "level_cube_integrals", "cube_indices_per_cell"),
    "sparse": ("build_sparse_family", "cz_decompose", "sparse_apply", "verify_sparseness", "covering_roots"),
    "weights": (
        "ap_characteristic",
        "apq_characteristic",
        "ainfty_characteristic",
        "SearchSpace.intervals_for",
        "PowerLogWeight.integral_batch",
        "a1_characteristic",
        "rh_characteristic",
        "sharp_rh_exponent",
    ),
    "operators": (
        "dyadic_maximal",
        "hl_maximal",
        "hilbert_to_mesh",
        "fractional_integral",
        "multiplier_apply",
        "distribution",
    ),
    "matrix": (
        "random_matrix_weight",
        "reducing_matrix",
        "dual_reducing_matrix",
        "matrix_ap_characteristic",
        "scalar_restriction_characteristic",
        "christ_goldberg_maximal",
        "ainfty_scalar_characteristic",
        "dominating_scalar_sparse",
    ),
    "weaktype": ("quotient_from_output",),
    "lowerbound": ("lower_bound_experiment", "level_set_endpoint"),
}

FAMILY = "sparse.build_sparse_family"
REDUCING = ("matrix.reducing_matrix", "matrix.dual_reducing_matrix")


def metric_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in report order."""
    out = []
    for module, funcs in LAYERS.items():
        for q in funcs:
            name = metric_name(module, q)
            out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        out.append((f"{module}.self_s", "s"))
    out += [
        ("sparse.family_cubes", "count"),
        ("sparse.visits_per_kept_cube", "ratio"),
        ("weights.intervals_searched", "count"),
        ("matrix.linalg_inv_calls", "count"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.active = False
        self.trial = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.trial_of = array("i")
        self.attrs: dict[int, dict] = {}
        self._stack: list[list] = []  # [span index, time covered by children]
        self.open = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)

    # -- spans ----------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, attrs=None, after=None):
        """Wrap fn so each call while active records a span called ``name``."""
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.trial_of.append(tracer.trial)
            tracer.end.append(0.0)
            if attrs is not None:
                tracer.attrs[idx] = attrs(args, kwargs)
            tracer.open[name] += 1
            stack.append([idx, 0.0])
            t0 = time.perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _, child = stack.pop()
                tracer.end[idx] = t1
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - child
                if stack:
                    stack[-1][1] += dur
                tracer.open[name] -= 1
            if after is not None:
                after(result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import weaklab  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items() if n == "weaklab" or n.startswith("weaklab.")]
        hooks = {
            "grid.average": {"after": self._count_visit},
            FAMILY: {"attrs": _grid_shift, "after": self._count_family},
            "weights.intervals_for": {"after": self._count_intervals},
        }
        for module, funcs in LAYERS.items():
            mod = sys.modules[f"weaklab.{module}"]
            for q in funcs:
                name = metric_name(module, q)
                if "." in q:
                    cls_name, meth = q.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self.span(name, orig, **hooks.get(name, {})))
                    continue
                orig = getattr(mod, q)
                wrapped = self.span(name, orig, **hooks.get(name, {}))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
        np.linalg.inv = self._counting_inv(np.linalg.inv)

    # -- counters -------------------------------------------------------------

    def _count_visit(self, _result) -> None:
        if self.open[FAMILY]:
            self.counters["family_visits"] += 1

    def _count_family(self, fam) -> None:
        self.counters["sparse.family_cubes"] += len(fam.cubes)

    def _count_intervals(self, result) -> None:
        self.counters["weights.intervals_searched"] += len(result[0])

    def _counting_inv(self, inv):
        tracer = self

        @functools.wraps(inv)
        def counted(a):
            if tracer.active and (tracer.open[REDUCING[0]] or tracer.open[REDUCING[1]]):
                tracer.counters["matrix.linalg_inv_calls"] += 1
            return inv(a)

        return counted

    # -- report ---------------------------------------------------------------

    def totals(self) -> dict:
        """Raw sums for ``layer_metrics``: calls, self time and counters by name."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counters": dict(self.counters)}

    def write(self, path: str, header: dict) -> None:
        """gzip JSON lines: a header, then one [id, parent, trial, name, start, end] per span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=3) as fh:
            head = dict(header, names=self.names, attrs={str(k): v for k, v in self.attrs.items()},
                        span_fields=["id", "parent", "trial", "name", "start_s", "end_s"])
            fh.write(json.dumps(head) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{i},{self.parent[i]},{self.trial_of[i]},{self.name[i]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}]\n")


def layer_metrics(parts: list[dict]) -> dict[str, dict]:
    """Every per-layer metric, summed over the ``totals()`` of a run's processes."""
    calls, self_s, counters = defaultdict(int), defaultdict(float), defaultdict(int)
    for part in parts:
        for key, acc in (("calls", calls), ("self_s", self_s), ("counters", counters)):
            for name, v in part[key].items():
                acc[name] += v
    values = {}
    for module, funcs in LAYERS.items():
        names = [metric_name(module, q) for q in funcs]
        for name in names:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name]
        values[f"{module}.self_s"] = sum(self_s[name] for name in names)
    cubes = counters["sparse.family_cubes"]
    values["sparse.family_cubes"] = cubes
    values["sparse.visits_per_kept_cube"] = counters["family_visits"] / cubes if cubes else 0.0
    values["weights.intervals_searched"] = counters["weights.intervals_searched"]
    values["matrix.linalg_inv_calls"] = counters["matrix.linalg_inv_calls"]
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def _grid_shift(args, kwargs) -> dict:
    grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
    return {"shift": 0 if grid is None else grid.shift_index}
