"""Spans around calls into kaczmarz_lab's modules, and the layer metrics.

The shims wrap public functions of each module from outside the package:
nothing under ``src/`` changes.  Because the modules import each other's
functions by name (``from .linalg import svd``), patching the defining
module alone would miss most calls, so :func:`install` replaces every
binding of a wrapped function in every loaded ``kaczmarz_lab`` module,
and :func:`unpatched` lists any binding left over.

Spans are kept in memory (name, start, end, parent, run id, attributes)
and written out by the caller when the traced pass ends.  A span's self
time is its duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "kaczmarz_lab"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording a span per call; ``attrs(result, *args, **kw)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.cpu_start = time.process_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_end = time.process_time()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(result, *args, **kwargs)
            return result

        traced.__perfbench_original__ = fn
        return traced


def _eig_attrs(result, M):
    return {"n3": int(np.shape(M)[0]) ** 3}


def _cols_attrs(result, sm, e, k):
    e = np.asarray(e)
    return {"cols": 1 if e.ndim == 1 else int(e.shape[1])}


def _scan_attrs(result, *args, **kwargs):
    return {"points": len(result.rows)}


def _run_attrs(result, p, b, cfg, reference=None):
    per_sweep = 2 if cfg.variant == "symmetric" else 1
    b = np.ascontiguousarray(b, dtype=float)
    return {
        "row_updates": int(np.shape(p.A)[0]) * cfg.max_sweeps * per_sweep,
        "solve_key": cfg.variant + ":" + hashlib.sha1(b.tobytes()).hexdigest(),
    }


#: (defining module, attribute, span name, attributes) of every shim.
#: A dotted attribute names a method, patched on its class.
SHIMS = [
    ("problems", "gravity", "problems.build", None),
    ("problems", "baart", "problems.build", None),
    ("problems", "paralleltomo", "problems.build", None),
    ("linalg", "svd", "linalg.svd", None),
    ("linalg", "eig_general", "linalg.eig", _eig_attrs),
    ("linalg", "solve_lower", "linalg.tri_solve", None),
    ("linalg", "solve_upper", "linalg.tri_solve", None),
    ("operator", "build_L", "operator.build_L", None),
    ("operator", "restrict_to_V", "operator.restrict", None),
    ("operator", "restrict_symmetric_to_V", "operator.restrict", None),
    ("operator", "sharp_maps", "operator.sharp_maps", None),
    ("operator", "apply_Ak_sharp", "operator.apply_Ak_sharp", _cols_attrs),
    ("spectral", "spectrum", "spectral.spectrum", None),
    ("spectral", "small_omega_scan", "spectral.scan", _scan_attrs),
    ("solvers", "run", "solvers.run", _run_attrs),
    ("solvers", "cgls", "solvers.cgls", None),
    ("noise_stats", "error_split", "noise_stats.error_split", None),
    ("noise_stats", "expected_norms", "noise_stats.expected_norms", None),
    ("noise_stats", "xi_profile", "noise_stats.xi_profile", None),
    ("experiments", "run_command", "experiments.run_command", None),
    ("experiments", "_prepare", "experiments.output", None),
    ("experiments", "_write_rows", "experiments.output", None),
    ("experiments", "_history_csv", "experiments.output", None),
    ("svgplot", "line_plot", "experiments.output", None),
    ("svgplot", "scatter_plot", "experiments.output", None),
    ("solvers", "IterationHistory.write_csv", "experiments.output", None),
    ("noise_stats", "ErrorSplit.write_csv", "experiments.output", None),
    ("noise_stats", "XiProfile.write_csv", "experiments.output", None),
    ("noise_stats", "ExpectationReport.write_csv", "experiments.output", None),
    ("noise_stats", "MonotonicityReport.write_csv", "experiments.output", None),
]


def _resolve(module: str, attr: str):
    """(owner object, attribute name) of one shim's definition."""
    owner = sys.modules[f"{PACKAGE}.{module}"]
    *cls, name = attr.split(".")
    for c in cls:
        owner = getattr(owner, c)
    return owner, name


def _owners() -> list:
    """Every loaded package module, plus the classes whose methods are shimmed."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    return modules + [_resolve(m, a)[0] for m, a, _, _ in SHIMS if "." in a]


def install(tracer: Tracer):
    """Patch every binding of every shimmed function; returns an undo callable."""
    wrappers = {}
    for module, attr, name, attrs in SHIMS:
        fn = getattr(*_resolve(module, attr))
        wrappers[id(fn)] = tracer.wrap(name, fn, attrs)
    undo = []
    for owner in _owners():
        for key, value in list(vars(owner).items()):
            if id(value) in wrappers:
                setattr(owner, key, wrappers[id(value)])
                undo.append((owner, key, value))

    def uninstall():
        for owner, key, value in undo:
            setattr(owner, key, value)

    return uninstall


def unpatched() -> list[str]:
    """Bindings in loaded package modules or classes that still hold an original."""
    originals = set()
    for module, attr, _, _ in SHIMS:
        fn = getattr(*_resolve(module, attr))
        originals.add(id(getattr(fn, "__perfbench_original__", fn)))
    return [f"{getattr(owner, '__name__', owner)}.{key}"
            for owner in _owners() for key, value in vars(owner).items()
            if id(value) in originals]


def self_time(spans: list[Span], children: dict, i: int) -> float:
    """Duration of span i minus the union of its children's intervals."""
    s = spans[i]
    covered, cursor = 0.0, s.start
    for c in sorted((spans[j] for j in children.get(i, ())), key=lambda c: c.start):
        lo, hi = max(c.start, cursor), min(c.end, s.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return s.wall - covered


def children_of(spans: list[Span]) -> dict:
    kids = {}
    for j, s in enumerate(spans):
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(j)
    return kids


def _has_ancestor(spans, i, name) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass (see spec.PER_LAYER)."""
    kids = children_of(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        # outermost spans only, so recursion or nesting is not counted twice
        return sum(spans[i].wall for i in by_name.get(name, ())
                   if not _has_ancestor(spans, i, name))

    def self_s(name):
        return sum(self_time(spans, kids, i) for i in by_name.get(name, ()))

    def attr_sum(name, key, under=None):
        return sum(spans[i].attrs[key] for i in by_name.get(name, ())
                   if under is None or _has_ancestor(spans, i, under))

    def cpu_per_wall(name):
        idx = by_name.get(name, ())
        wall = sum(spans[i].wall for i in idx)
        cpu = sum(spans[i].cpu_end - spans[i].cpu_start for i in idx)
        return cpu / wall if wall > 0 else 0.0

    run_s, updates = total("solvers.run"), attr_sum("solvers.run", "row_updates")
    keys = {spans[i].attrs["solve_key"] for i in by_name.get("solvers.run", ())}
    return {
        "problems.build_s": total("problems.build"),
        "linalg.svd_s": total("linalg.svd"),
        "linalg.svd_calls": calls("linalg.svd"),
        "linalg.eig_s": total("linalg.eig"),
        "linalg.eig_calls": calls("linalg.eig"),
        "linalg.eig_n3": attr_sum("linalg.eig", "n3"),
        "linalg.eig_cpu_per_wall": cpu_per_wall("linalg.eig"),
        "linalg.tri_solve_s": total("linalg.tri_solve"),
        "linalg.tri_solve_calls": calls("linalg.tri_solve"),
        "operator.build_L_s": total("operator.build_L"),
        "operator.build_L_calls": calls("operator.build_L"),
        "operator.restrict_s": total("operator.restrict"),
        "operator.restrict_calls": calls("operator.restrict"),
        "operator.sharp_maps_self_s": self_s("operator.sharp_maps"),
        "operator.apply_Ak_sharp_s": total("operator.apply_Ak_sharp"),
        "operator.apply_Ak_sharp_cols": attr_sum("operator.apply_Ak_sharp", "cols"),
        "spectral.spectrum_self_s": self_s("spectral.spectrum"),
        "spectral.scan_self_s": self_s("spectral.scan"),
        "spectral.scan_points": attr_sum("spectral.scan", "points"),
        "spectral.scan_cpu_per_wall": cpu_per_wall("spectral.scan"),
        "solvers.run_s": run_s,
        "solvers.run_calls": calls("solvers.run"),
        "solvers.row_updates": updates,
        "solvers.row_update_rate": updates / run_s if run_s > 0 else 0.0,
        "solvers.useful_solve_ratio": len(keys) / calls("solvers.run") if keys else 0.0,
        "solvers.cgls_s": total("solvers.cgls"),
        "noise_stats.error_split_self_s": self_s("noise_stats.error_split"),
        "noise_stats.expected_norms_self_s": self_s("noise_stats.expected_norms"),
        "noise_stats.xi_profile_s": total("noise_stats.xi_profile"),
        "noise_stats.mc_columns": attr_sum(
            "operator.apply_Ak_sharp", "cols", under="noise_stats.expected_norms"
        ),
        "experiments.output_s": total("experiments.output"),
    }
