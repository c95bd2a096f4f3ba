"""Spans around the calls into each module's public functions.

``Tracer.install`` replaces every public function of the six package
modules with a timing wrapper, at every name it is bound to: the defining
module, importers such as ``cli``, ``scenarios`` and ``pointer``, and the
``hardyweak`` package.  The program's source is not touched.  Methods,
properties and dataclass constructors (``StateVector.renormalized``,
``PointerSpec.default``) are not wrapped, so their time is charged to the
public function that called them.

``uninstall`` puts the functions back.  Wrappers record only while
``Tracer.request`` holds a request id; outside a request (output checks)
they call straight through.  A span is
``[function id, start ns, end ns, parent span id or -1, request id]``;
spans stay in memory and ``dump`` writes them once at the end.  A span's
self time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from pathlib import Path

LAYERS = ("states", "optics", "weakvalues", "pointer", "scenarios", "cli")
BYTES_PER_CELL = 16  # complex128


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.errors: Counter[str] = Counter()
        self.request: int | None = None
        self.grid_cells = 0
        self.grid_moments: list[tuple] = []
        self._stack: list[int] = []
        self._bindings = self._find_bindings()

    # ----------------------------------------------------------- install

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        """(namespace, name, function, wrapper) for every public binding."""
        modules = [getattr(self.package, layer) for layer in LAYERS]
        namespaces = [self.package, *modules]
        bindings = []
        for layer, module in zip(LAYERS, modules):
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{name}", layer)
                for namespace in namespaces:
                    for bound, value in list(vars(namespace).items()):
                        if value is fn:
                            bindings.append((namespace, bound, fn, wrapper))
        return bindings

    def install(self) -> None:
        for namespace, bound, _, wrapper in self._bindings:
            setattr(namespace, bound, wrapper)

    def uninstall(self) -> None:
        for namespace, bound, fn, _ in self._bindings:
            setattr(namespace, bound, fn)

    def _wrap(self, fn, qualified: str, layer: str):
        name_id = len(self.names)
        self.names.append(qualified)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe = OBSERVERS.get(qualified)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = tracer.request
            if request is None:
                return fn(*args, **kwargs)
            span = [name_id, 0, 0, stack[-1] if stack else -1, request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    # ---------------------------------------------------------- analysis

    def self_times(self) -> list[int]:
        """Self time in ns of every span, in span order."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def self_time_by_request(self) -> dict[int, int]:
        totals: Counter[int] = Counter()
        for span, own in zip(self.spans, self.self_times()):
            totals[span[4]] += own
        return dict(totals)

    def metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, times and counts per request, as (value, unit)."""
        own: Counter[str] = Counter()
        inclusive: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for span, self_ns in zip(self.spans, self.self_times()):
            name = self.names[span[0]]
            own[name] += self_ns
            inclusive[name] += span[2] - span[1]
            calls[name] += 1
        layer_own: Counter[str] = Counter()
        layer_calls: Counter[str] = Counter()
        for name, value in own.items():
            layer = name.split(".", 1)[0]
            layer_own[layer] += value
            layer_calls[layer] += calls[name]

        def ms(ns: float) -> tuple[float, str]:
            return ns / 1e6 / requests, "ms"

        grid_s = (inclusive["pointer.build_pointer_profile"]
                  + inclusive["pointer.pointer_moments"]) / 1e9
        out = {
            "pointer.profile_ms": ms(own["pointer.build_pointer_profile"]),
            "pointer.moments_ms": ms(own["pointer.pointer_moments"]),
            "pointer.terms_ms": ms(own["pointer.pointer_terms"]),
            "pointer.sweep_self_ms": ms(own["pointer.weak_limit_sweep"]),
            "pointer.grid_cells_per_s": (
                self.grid_cells / grid_s if grid_s > 0 else 0.0, "1/s"
            ),
            "pointer.profile_bytes_computed": (
                BYTES_PER_CELL * self.grid_cells / requests, "B"
            ),
            "pointer.mean_err_vs_analytic": (self._mean_error(), "1"),
            "cli.parse_ms": ms(own["cli.assemble_config"] + own["cli.parse_config"]),
            "cli.payload_self_ms": ms(own["cli.build_payload"]),
            "cli.render_ms": ms(own["cli.render"]),
        }
        for layer in ("scenarios", "weakvalues", "optics", "states"):
            out[f"{layer}.self_ms"] = ms(layer_own[layer])
            out[f"{layer}.calls"] = (layer_calls[layer] / requests, "count")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (float(self.errors[layer]), "count")
        return out

    def _mean_error(self) -> float:
        """Largest |grid mean - closed-form mean| over the traced moments."""
        analytic = self.package.pointer.analytic_moments
        worst = 0.0
        for terms, spec, mean in self.grid_moments:
            reference = analytic(terms, spec).mean
            worst = max([worst, *(abs(g - r) for g, r in zip(mean, reference))])
        return worst

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump({
                "fields": ["function", "start_ns", "end_ns", "parent", "request"],
                "functions": self.names,
                "spans": self.spans,
            }, handle, separators=(",", ":"))


def _count_cells(tracer: Tracer, args, profile) -> None:
    tracer.grid_cells += profile.spec.n_points ** len(profile.measured)


def _keep_moments(tracer: Tracer, args, moments) -> None:
    profile = args[0]
    tracer.grid_moments.append((profile.terms, profile.spec, moments.mean))


# Counts taken at the boundary of a traced function, from its arguments
# and result; they run after the span has ended.
OBSERVERS = {
    "pointer.build_pointer_profile": _count_cells,
    "pointer.pointer_moments": _keep_moments,
}
