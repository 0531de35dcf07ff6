"""Per-layer spans and counters, recorded from outside the package.

A :class:`Tracer` wraps every public function of the hardyball modules.
Because modules import each other's functions by name, one wrapper replaces
the function object in every ``hardyball.*`` namespace that holds it, and
:meth:`Tracer.restore` puts every original back.

Each wrapped call is a span.  Its self time is its duration minus the time of
the spans it opened.  A function that calls itself (``canonical_json``) stays
inside the span it already has open.  Selected functions also feed counters
computed from their own arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import types
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("series", "model", "extremality", "exactrank", "certificates", "documents", "cli")


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _arguments(fn, args, kwargs) -> dict:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _quadrature(c, fn, args, kwargs, result):
    start = _arguments(fn, args, kwargs)["tol"].quad_start_n
    n = result[1]
    c["series.converged_circle_mean.nodes"] += 2 * n - start
    c["series.converged_circle_mean.max_grid"] = max(c["series.converged_circle_mean.max_grid"], n)
    c["request.max_grid"] = max(c["request.max_grid"], n)  # read and reset per request


def _terms(name):
    def observe(c, fn, args, kwargs, result):
        c[name] += _arguments(fn, args, kwargs)["up_to"] + 1
    return observe


def _numeric_rank(c, fn, args, kwargs, result):
    """Closest approach, in decades, of a nonzero singular value to the cutoff."""
    a = _arguments(fn, args, kwargs)
    s = [float(x) for x in result.singular_values]
    c["extremality.numeric_rank.borderline"] += bool(result.borderline)
    cutoff = a["tol_rank"] * max(max(s, default=0.0), a["scale_floor"])
    margins = [abs(math.log10(x / cutoff)) for x in s if x > 0] if cutoff > 0 else []
    if margins:
        key = "extremality.numeric_rank.margin_decades"
        c[key] = min(c.get(key, math.inf), min(margins))


def _witness_path(c, fn, args, kwargs, result):
    name = "kernel" if result.provenance == "kernel_path" else "degree_overflow"
    c[f"certificates.path.{name}"] += 1


OBSERVERS = {
    "series.converged_circle_mean": _quadrature,
    "series.expand_rational": _terms("series.expand_rational.terms"),
    "exactrank.exact_expand": _terms("exactrank.exact_expand.terms"),
    "extremality.assemble_criterion_matrix":
        lambda c, fn, a, k, r: c.__setitem__(
            "extremality.assemble_criterion_matrix.entries",
            c["extremality.assemble_criterion_matrix.entries"] + r.assembled.size),
    "model.numerator_roots":
        lambda c, fn, a, k, r: c.__setitem__(
            "model.numerator_roots.degree_sum", c["model.numerator_roots.degree_sum"] + len(r)),
    "documents.canonical_json":
        lambda c, fn, a, k, r: c.__setitem__(
            "documents.canonical_json.bytes", c["documents.canonical_json.bytes"] + len(r)),
    "extremality.numeric_rank": _numeric_rank,
    "certificates.verify_witness":
        lambda c, fn, a, k, r: c.__setitem__(
            "certificates.verify_witness.failures",
            c["certificates.verify_witness.failures"] + (not r.verifies)),
    "certificates.make_witness": _witness_path,
    "cli.main":
        lambda c, fn, a, k, r: c.__setitem__(f"cli.exit.{r}", c[f"cli.exit.{r}"] + 1),
}


def _public_functions(module) -> dict:
    return {
        name: obj for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType) and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Aggregated spans and counters for the calls made while installed."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.durations_ns: dict[str, list[int]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, child_ns] per open span
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        keep = name.startswith("cli.cmd_")  # per-call durations only for the commands
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                self.calls[name] += 1
                self.self_ns[name] += elapsed - frame[1]
                if keep:
                    self.durations_ns[name].append(elapsed)
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(self.counters, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.span_name = name
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Replace every public layer function in every hardyball namespace."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"hardyball.{m}") for m in LAYERS}
        for layer, module in modules.items():
            for attr, fn in _public_functions(module).items():
                self._wrappers.setdefault(id(fn), self._wrap(f"{layer}.{attr}", fn))
        for module in hardyball_modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in self._wrappers:  # the wrappers keep their originals alive
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, self._wrappers[id(obj)])

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self._stack.clear()

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def layer_self_s(self) -> dict[str, float]:
        totals = defaultdict(float)
        for name, ns in self.self_ns.items():
            totals[name.split(".", 1)[0]] += ns / 1e9
        return {layer: totals[layer] for layer in LAYERS}

    def median_ms(self, name: str) -> float:
        values = self.durations_ns.get(name)
        return statistics.median(values) / 1e6 if values else 0.0


def hardyball_modules() -> list[types.ModuleType]:
    import sys

    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "hardyball" or n.startswith("hardyball."))]


def leftover_wrappers() -> list[str]:
    """Namespaces that still hold a span wrapper (empty once every tracer is restored)."""
    return [f"{m.__name__}.{attr}" for m in hardyball_modules()
            for attr, obj in vars(m).items() if hasattr(obj, "span_name")]
