"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the trusskit modules from outside the
package. A wrapper replaces the function in every trusskit module that bound
it, because several modules import names from others (`baer_kaplansky` holds
its own `heap_isos`, `cli` its own `verify_baer_kaplansky`); calls through a
function-local import see the replacement because it reads the module
attribute at call time.

Coarse calls each record a span (name, start, end, parent span, job id).
Hot per-element calls (`HeapMorphism.compose`, `compose_homs`) record no span
of their own: their count and time are added to the enclosing span. A call's
self time is its duration minus the time of the traced calls made inside it.
Spans stay in memory until `write_spans` is called at the end of the run.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

_MISSING = object()


def _n(t) -> int:
    return int(t.size)


def _count_homs(stat, bound, result):
    stat["homs"] += len(result)


def _count_carrier(stat, bound, result):
    stat["carrier"] += _n(result)


def _count_heap_isos(stat, bound, result):
    from trusskit.groups import hom_count

    g, h = bound["g"], bound["h"]
    stat["candidates"] += hom_count(g, h) * h.cardinality
    stat["found"] += len(result)


def _count_table_bytes(stat, bound, result):
    """Bytes of the (mult, ternary) tables this call built, 8*(n^2 + n^3) for
    a fresh build; a table handed out again from a cache is not counted."""
    built = stat.get("built")
    if built is None:
        built = stat["built"] = weakref.WeakValueDictionary()
    for table in result:
        if built.get(id(table)) is not table:
            built[id(table)] = table
            stat["bytes"] += table.nbytes


def _count_lookups(stat, bound, result):
    stat["lookups"] += sum(c.checked for c in result.checks)
    stat["sampled"] += sum(1 for c in result.checks if not c.exhaustive)


def _count_truss_morphisms(stat, bound, result):
    stat["candidates"] += _n(bound["t"]) ** _n(bound["s"])
    stat["found"] += len(result)


def _count_truss_isos(stat, bound, result):
    s, n = bound["s"], _n(bound["s"])
    if n == _n(bound["t"]):
        # the brute force filters the bijections sending left absorbers (the
        # constant maps of an endomorphism truss) onto left absorbers
        k = len(getattr(s, "constant_indices", ()))
        stat["candidates"] += math.factorial(k) * math.factorial(n - k)
    stat["found"] += len(result)


def _count_unchecked(stat, bound, result):
    stat["unchecked"] += bound.get("check", True) is False


def _count_module_homs(stat, bound, result):
    from trusskit.groups import hom_count

    stat["candidates"] += hom_count(bound["m"].group, bound["n"].group)
    stat["kept"] += len(result)


# (module, attribute, hot, counter). A counter gets the call's bound
# arguments and its result, after the clock has stopped.
TARGETS = [
    ("groups", "hom_enumerate", False, _count_homs),
    ("groups", "compose_homs", True, None),
    ("endo", "build_endo_truss", False, _count_carrier),
    ("endo", "heap_isos", False, _count_heap_isos),
    ("endo", "HeapMorphism.compose", True, None),
    ("trusses", "dense_tables", False, _count_table_bytes),
    ("heaps", "validate_heap", False, _count_lookups),
    ("trusses", "validate_truss", False, _count_lookups),
    ("trusses", "truss_morphism_preserves", False, None),
    ("trusses", "enumerate_truss_morphisms", False, _count_truss_morphisms),
    ("trusses", "enumerate_truss_isos", False, _count_truss_isos),
    ("baer_kaplansky", "truss_iso_from_heap_iso", False, None),
    ("baer_kaplansky", "heap_iso_from_truss_iso", False, _count_unchecked),
    ("baer_kaplansky", "check_inner_structure", False, None),
    ("rings", "validate_ring", False, None),
    ("modules", "module_homs", False, _count_module_homs),
    ("modules", "find_module_equivalence", False, None),
    ("modules", "truss_iso_from_equivalence", False, None),
    ("modules", "equivalence_from_truss_iso", False, None),
    ("modules", "validate_module", False, None),
    ("cli", "main", False, None),
]


# The per-layer metrics, in the order they are reported, with their units.
METRICS = {
    "groups.hom_enumerate.homs": "count",
    "groups.hom_enumerate.self_s": "s",
    "groups.compose_homs.calls": "count",
    "groups.compose_homs.self_s": "s",
    "endo.build_endo_truss.carrier": "count",
    "endo.build_endo_truss.self_s": "s",
    "endo.heap_isos.candidates": "count",
    "endo.heap_isos.found": "count",
    "endo.heap_isos.self_s": "s",
    "endo.HeapMorphism.compose.calls": "count",
    "endo.HeapMorphism.compose.self_s": "s",
    "trusses.dense_tables.calls": "count",
    "trusses.dense_tables.bytes": "bytes",
    "trusses.dense_tables.self_s": "s",
    "heaps.validate_heap.lookups": "count",
    "heaps.validate_heap.sampled": "count",
    "heaps.validate_heap.self_s": "s",
    "trusses.validate_truss.lookups": "count",
    "trusses.validate_truss.self_s": "s",
    "trusses.truss_morphism_preserves.calls": "count",
    "trusses.truss_morphism_preserves.self_s": "s",
    "trusses.enumerate_truss_morphisms.candidates": "count",
    "trusses.enumerate_truss_morphisms.found": "count",
    "trusses.enumerate_truss_morphisms.self_s": "s",
    "trusses.enumerate_truss_isos.candidates": "count",
    "trusses.enumerate_truss_isos.found": "count",
    "trusses.enumerate_truss_isos.self_s": "s",
    "baer_kaplansky.truss_iso_from_heap_iso.calls": "count",
    "baer_kaplansky.truss_iso_from_heap_iso.self_s": "s",
    "baer_kaplansky.heap_iso_from_truss_iso.calls": "count",
    "baer_kaplansky.heap_iso_from_truss_iso.unchecked": "count",
    "baer_kaplansky.heap_iso_from_truss_iso.self_s": "s",
    "baer_kaplansky.check_inner_structure.calls": "count",
    "baer_kaplansky.check_inner_structure.self_s": "s",
    "rings.validate_ring.calls": "count",
    "rings.validate_ring.self_s": "s",
    "modules.module_homs.candidates": "count",
    "modules.module_homs.kept": "count",
    "modules.module_homs.self_s": "s",
    "modules.find_module_equivalence.self_s": "s",
    "modules.truss_iso_from_equivalence.self_s": "s",
    "modules.equivalence_from_truss_iso.self_s": "s",
    "modules.validate_module.self_s": "s",
    "errors.bound_exceeded": "count",
    "cli.main.self_s": "s",
}


def _resolve(module: str, attr: str):
    """(owner, name, original) for 'module.attr' or 'module.Class.method'."""
    owner = sys.modules[f"trusskit.{module}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name] if path else getattr(owner, name)


def _bindings(original):
    """Every (module, name) in the trusskit package bound to `original`."""
    for modname, mod in list(sys.modules.items()):
        if modname == "trusskit" or modname.startswith("trusskit."):
            for name, value in list(vars(mod).items()):
                if value is original:
                    yield mod, name


class Patches:
    """Replacements installed in the package; `undo` restores the originals."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, obj, key: str, value) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def replace(self, module: str, attr: str, make) -> None:
        """Replace a function, or a method given as 'Class.method', by
        make(original) wherever the package bound it."""
        owner, name, original = _resolve(module, attr)
        wrapper = make(original)
        targets = [(owner, name)] if "." in attr else list(_bindings(original))
        for obj, key in targets:
            self.set(obj, key, wrapper)

    def undo(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)


def count_unchecked(stats: dict) -> Patches:
    """Count calls of heap_iso_from_truss_iso with check=False (the silent
    preservation skip) without timing anything, for untraced runs."""
    patches = Patches()

    def make(fn):
        sig = inspect.signature(fn)

        def counted(*args, **kwargs):
            if sig.bind(*args, **kwargs).arguments.get("check", True) is False:
                stats["unchecked"] += 1
            return fn(*args, **kwargs)

        return counted

    patches.replace("baer_kaplansky", "heap_iso_from_truss_iso", make)
    return patches


class Tracer:
    """Spans and per-function statistics for one traced pass at a time."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[list] = []  # [enclosing span, seconds in traced children]
        self._next_id = 0
        self._job = None
        self._patches = Patches()

    def _open(self, name: str) -> dict:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        return {
            "id": self._next_id,
            "name": name,
            "parent": None if parent is None else parent["id"],
            "job": self._job,
            "agg": {},
        }

    def _wrap(self, key: str, fn, hot: bool, counter):
        stack, clock, stats = self._stack, time.perf_counter, self.stats
        sig = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            span = (stack[-1][0] if stack else None) if hot else self._open(key)
            frame = [span, 0.0]
            stack.append(frame)
            result = _MISSING
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stat = stats[key]
                stat["calls"] += 1
                stat["self_s"] += elapsed - frame[1]
                if hot:
                    if span is not None:
                        agg = span["agg"].setdefault(key, [0, 0.0])
                        agg[0] += 1
                        agg[1] += elapsed
                else:
                    span["start"], span["end"] = start, end
                    self.spans.append(span)
                if counter is not None and result is not _MISSING:
                    counter(stat, sig.bind(*args, **kwargs).arguments, result)

        return traced

    def install(self) -> None:
        for module, attr, hot, counter in TARGETS:
            key = f"{module}.{attr}"
            self._patches.replace(module, attr, lambda fn: self._wrap(key, fn, hot, counter))
        errors = sys.modules["trusskit.errors"]
        bound_init = errors.BoundExceeded.__init__
        stats = self.stats

        def counted_init(exc, *args, **kwargs):
            stats["errors"]["bound_exceeded"] += 1
            bound_init(exc, *args, **kwargs)

        self._patches.set(errors.BoundExceeded, "__init__", counted_init)

    def uninstall(self) -> None:
        self._patches.undo()

    @contextmanager
    def job(self, job_id: str):
        """The root span of one job."""
        self._job = job_id
        span = self._open("job")
        frame = [span, 0.0]
        self._stack.append(frame)
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)
            self._job = None

    def take_stats(self) -> dict[str, float]:
        """The per-layer metrics of the calls since the last take, then reset."""
        out = {}
        for metric in METRICS:
            key, field = metric.rsplit(".", 1)
            out[metric] = self.stats.get(key, {}).get(field, 0.0)
        self.stats.clear()
        return out

    def merge(self, child: dict) -> None:
        """Add the statistics and spans a traced child process wrote."""
        for metric, value in child["stats"].items():
            key, field = metric.rsplit(".", 1)
            self.stats[key][field] += value
        self.spans.extend(child["spans"])

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
