"""Span tracer for one ``lahbell`` request, installed from outside the library.

The tracer wraps the public entry points of every ``lahbell`` module: class
methods are replaced on the class, and module functions are replaced on the
defining module and on every module that imported its own reference (names
such as ``gf_catalog`` in ``lahbell.cli``, and the builder dicts such as
``lahbell.cli._SEQ_KINDS``).  Nothing inside ``src/lahbell`` knows about it.

Each call through a wrapper is one span: layer name, start, end and the
enclosing span.  Spans live in flat arrays for the life of the request and
are summarised (calls and self time per layer) when it ends.  A span's self
time is its duration minus the durations of its direct children, so the
self times of one request add up to the duration of its root span.

Installation fails loudly when any wrapped name or import site is missing,
so a rename in the library cannot silently report zeros.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Any, Callable

ROOT = "cli.main"

# (layer, module, class, methods): wrapped on the class itself.
METHODS = (
    ("exact.mul", "lahbell.exact", "MultiPoly", ("__mul__", "__rmul__")),
    ("exact.add", "lahbell.exact", "MultiPoly", ("__add__", "__radd__")),
    ("exact.pow", "lahbell.exact", "MultiPoly", ("__pow__",)),
    ("exact.substitute", "lahbell.exact", "MultiPoly", ("substitute",)),
    ("series.mul", "lahbell.series", "TruncatedSeries", ("__mul__",)),
    ("series.exp", "lahbell.series", "TruncatedSeries", ("exp",)),
    ("series.log1p", "lahbell.series", "TruncatedSeries", ("log1p",)),
    ("series.pow", "lahbell.series", "TruncatedSeries", ("pow", "__pow__")),
    ("series.compose", "lahbell.series", "TruncatedSeries", ("compose",)),
    ("triangles.value", "lahbell.triangles", "Triangle", ("value",)),
    ("triangles.row", "lahbell.triangles", "Triangle", ("row",)),
    ("dobinski.render", "lahbell.dobinski", "CertifiedDecimal", ("decimal", "error_bound_decimal")),
)

# (layer, module, functions): wrapped on the defining module and every
# import site found in the lahbell modules.
FUNCTIONS = (
    ("exact.factorial", "lahbell.exact", ("falling_factorial", "rising_factorial", "generalized_falling")),
    ("series.gf_catalog", "lahbell.series", ("gf_catalog",)),
    ("triangles.rowsum", "lahbell.triangles", ("bell_number", "lah_bell_number")),
    (
        "families",
        "lahbell.families",
        (
            "bell_poly",
            "lah_bell_poly",
            "bivariate_bell_poly",
            "bivariate_lah_bell_poly",
            "degenerate_bell_poly",
            "degenerate_lah_bell_poly",
            "laguerre_poly",
            "lah_bell_recurrence_step",
            "lah_bell_derivative",
            "poly_family",
        ),
    ),
    (
        "enumeration.count",
        "lahbell.enumeration",
        ("count_set_partitions", "count_ordered_partitions", "count_permutations_by_cycles"),
    ),
    ("identities.run_suite", "lahbell.identities", ("run_suite",)),
    ("identities.oracle_records", "lahbell.identities", ("oracle_records",)),
    ("dobinski.eval", "lahbell.dobinski", ("lah_bell_dobinski", "bell_dobinski")),
    (ROOT, "lahbell.cli", ("main",)),
)

# Import sites that must exist and be rebound: module, attribute.  A dict
# attribute has its values rebound.
REQUIRED_SITES = (
    ("lahbell.cli", "gf_catalog"),
    ("lahbell.identities", "gf_catalog"),
    ("lahbell.cli", "lah_bell_dobinski"),
    ("lahbell.cli", "bell_dobinski"),
    ("lahbell.identities", "lah_bell_dobinski"),
    ("lahbell.cli", "run_suite"),
    ("lahbell.cli", "oracle_records"),
    ("lahbell.cli", "poly_family"),
    ("lahbell.cli", "_SEQ_KINDS"),
    ("lahbell.families", "_FAMILY_BUILDERS"),
    ("lahbell.identities", "count_ordered_partitions"),
    ("lahbell.identities", "lah_bell_poly"),
    ("lahbell.identities", "bell_number"),
    ("lahbell.identities", "falling_factorial"),
    ("lahbell.families", "generalized_falling"),
)

MODULES = (
    "lahbell.exact",
    "lahbell.triangles",
    "lahbell.series",
    "lahbell.families",
    "lahbell.enumeration",
    "lahbell.dobinski",
    "lahbell.identities",
    "lahbell.cli",
    "lahbell",
)

LAYERS = tuple(layer for layer, *_ in METHODS) + tuple(layer for layer, *_ in FUNCTIONS)

# Counters read off results at the boundary where the work happens.
COUNTERS = ("enumeration.structures", "dobinski.series_terms", "dobinski.exp_terms", "dobinski.value_bits")


class TracerError(RuntimeError):
    """A name the tracer must wrap is missing from the library."""


class Tracer:
    """Spans of one request, kept in flat arrays until :meth:`summary`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        self.names = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._installed: list[tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, layer: str, fn: Callable, after: Callable[[Any], None] | None = None) -> Callable:
        layer_id = self.layer_ids[layer]
        names, parents, starts, ends, stack, clock = (
            self.names, self.parents, self.starts, self.ends, self.stack, self.clock,
        )

        def traced(*args, **kwargs):
            index = len(names)
            names.append(layer_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def _after(self, layer: str) -> Callable[[Any], None] | None:
        counters = self.counters
        if layer == "enumeration.count":
            def after(counts):
                counters["enumeration.structures"] += sum(counts.values())
            return after
        if layer == "dobinski.eval":
            def after(result):
                counters["dobinski.series_terms"] += result.series_terms
                counters["dobinski.exp_terms"] += result.exp_terms
                value = result.value
                counters["dobinski.value_bits"] += (
                    abs(value.numerator).bit_length() + value.denominator.bit_length()
                )
            return after
        return None

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._installed.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every listed method and function; raise TracerError if one is missing."""
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        modules = {name: importlib.import_module(name) for name in MODULES}
        for layer, module, cls_name, methods in METHODS:
            cls = getattr(modules[module], cls_name, None)
            if cls is None:
                raise TracerError(f"{module}.{cls_name} is missing")
            for method in methods:
                original = cls.__dict__.get(method)
                if original is None:
                    raise TracerError(f"{module}.{cls_name}.{method} is missing")
                self._set(cls, method, self.wrap(layer, original))
        rebound: set[tuple[str, str]] = set()
        for layer, module, functions in FUNCTIONS:
            after = self._after(layer)
            for function in functions:
                original = getattr(modules[module], function, None)
                if not callable(original):
                    raise TracerError(f"{module}.{function} is missing")
                wrapper = self.wrap(layer, original, after)
                if hasattr(original, "cache_info"):
                    wrapper.cache_info = original.cache_info
                rebound |= self._rebind(modules, original, wrapper)
        missing = [site for site in REQUIRED_SITES if site not in rebound]
        if missing:
            raise TracerError(f"import sites not found: {missing}")

    def _rebind(self, modules: dict, original: Callable, wrapper: Callable) -> set[tuple[str, str]]:
        sites = set()
        for module_name, module in modules.items():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                    sites.add((module_name, attr))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    keys = [key for key, item in value.items() if item is original]
                    for key in keys:
                        self._installed.append((value, key, original))
                        value[key] = wrapper
                    if keys:
                        sites.add((module_name, attr))
        return sites

    def uninstall(self) -> None:
        """Restore every rebound name, newest first."""
        while self._installed:
            owner, name, original = self._installed.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Calls and self time per layer, plus the counters and root time."""
        count = len(self.names)
        duration = [self.ends[i] - self.starts[i] for i in range(count)]
        self_time = list(duration)
        for i in range(count):
            parent = self.parents[i]
            if parent >= 0:
                self_time[parent] -= duration[i]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for i in range(count):
            layer = LAYERS[self.names[i]]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += self_time[i]
        out[f"{ROOT}.s"] = sum(duration[i] for i in range(count) if self.parents[i] < 0)
        out.update(self.counters)
        return out
