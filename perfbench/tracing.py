"""Per-layer spans, recorded from outside the program.

``Tracer.install()`` wraps each function in ``FUNCTIONS`` at every delaylab
module that bound its name (``e0_max`` lives in ``exponents`` but is also
bound in ``ncl_scheme``, ``cli`` and the package), and each method in
``METHODS`` on its class.  The wrappers share one span stack, so a span's
self time excludes the time of the spans it encloses.  Spans are aggregated
in memory per layer (calls, total and self time, and for the golden-section
search the iterations it reports) and written out once, at the end of a run.
Time passed to ``Tracer.exclude`` (the benchmark's own host-speed probes,
which run inside whatever span is open) is left out of every span open
around it.

Only the benchmark imports this module; the program runs unmodified.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter

# Library entry points: every function the per-layer metrics name, plus every
# other library function the CLI calls that does more than arithmetic, so that
# the CLI's self time is the time it spends outside the library.
FUNCTIONS = {
    "dmc": ("capacity", "is_output_symmetric"),
    "optimize": ("maximize_concave_1d", "maximize_over_simplex", "minimize_over_channels"),
    "exponents": ("gallager_e0", "e0_max", "channel_capacity_fast", "haroutunian",
                  "focusing_bound", "timesharing_exponent", "sphere_packing",
                  "random_coding_list", "bound_at_rate", "burnashev_bound",
                  "capacity_slope_focusing", "timesharing_curve",
                  "focusing_parametric_curve"),
    "bec_lab": ("simulate_fifo", "simulate_causal_parity_nofeedback",
                "measure_delay_exponent"),
    "queue_model": ("simulate_point_queue", "tail_exponent_bound"),
    "ncl_scheme": ("select_params", "simulate_ncl_bound_driven", "simulate_ncl_exact_tiny",
                   "simulate_two_stream", "two_stream_split", "scheme_exponent_curve",
                   "queueing_exponent_bound"),
    "cli": ("main",),
}

# (module, class, method, layer name); Dmc.__post_init__ is the validation
# every channel construction runs, so its calls count constructions.
METHODS = (
    ("dmc", "Dmc", "__post_init__", "dmc.Dmc"),
    ("bec_lab", "SimTrace", "series", "bec_lab.SimTrace.series"),
    ("queue_model", "ServiceTimeModel", "check_envelope",
     "queue_model.ServiceTimeModel.check_envelope"),
    ("ncl_scheme", "NclTrace", "measure_exponent", "ncl_scheme.NclTrace.measure_exponent"),
)

# layers whose result carries a solver iteration count
ITERATION_LAYERS = {"optimize.maximize_concave_1d"}


@dataclass
class LayerStats:
    calls: int = 0
    iterations: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Installs the wrappers, owns the span stack and the aggregates."""

    def __init__(self, package: str = "delaylab"):
        self.package = package
        self.stats: dict[str, LayerStats] = {}
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[float] = []  # child time accumulated per open span
        self._excluded = [0.0]  # seconds passed to exclude() so far
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        stats = self.stats.setdefault(layer, LayerStats())
        stack, excluded = self._stack, self._excluded
        count_iterations = layer in ITERATION_LAYERS

        def traced(*args, **kwargs):
            stack.append(0.0)
            x0 = excluded[0]
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0 - (excluded[0] - x0)
                child = stack.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if count_iterations:
                stats.iterations += result.iterations
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.layer = layer
        return traced

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` just spent out of the spans now open."""
        self._excluded[0] += seconds

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def install(self) -> None:
        modules = self._modules()
        for mod_name, names in FUNCTIONS.items():
            home = importlib.import_module(f"{self.package}.{mod_name}")
            for name in names:
                original = getattr(home, name)
                layer = f"{mod_name}.{name}"
                wrapper = self._wrap(layer, original)
                bound = []
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
                            bound.append(f"{mod.__name__}.{attr}")
                self.bindings[layer] = bound
        for mod_name, cls_name, meth, layer in METHODS:
            cls = getattr(importlib.import_module(f"{self.package}.{mod_name}"), cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(layer, original))
            self.bindings[layer] = [f"{cls.__module__}.{cls_name}.{meth}"]

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        return {layer: {"calls": s.calls, "iterations": s.iterations,
                        "total_s": s.total_s, "self_s": s.self_s}
                for layer, s in sorted(self.stats.items())}
