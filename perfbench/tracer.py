"""Span tracing of the package's layers, installed from outside the package.

Every public function of the package is wrapped in the namespace of each
module that holds a reference to it, i.e. at the name its callers look up:
`ilwbo.evolution.projected_product` and `ilwbo.solitary.projected_product`
get separate wrappers, both counted under the `spectral` layer where the
function is defined.  Nothing under `src/` is edited; `uninstall` puts the
original objects back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "harness", "evolution", "solitary", "accel", "spectral", "io_utils")

# Spans this close to the root are kept as records (name, start, end, parent,
# request); deeper ones are only aggregated, which bounds the memory used.
_RECORD_DEPTH = 3
_MAX_RECORDS = 50_000

# io_utils.fmt runs once per CSV value; a span around it would cost more
# than the formatting it measures, so its time stays with the writer.
_UNTRACED = {"ilwbo.io_utils.fmt"}


def _traceable(obj) -> bool:
    module = getattr(obj, "__module__", None) or ""
    return (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)) and \
        module.startswith("ilwbo.") and f"{module}.{obj.__name__}" not in _UNTRACED


class Tracer:
    """Per-(layer, function) counts, total and self time, plus span records."""

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}  # [calls, total_s, self_s, raised]
        self.site_calls: dict[tuple[str, str], int] = {}  # (calling module, function) -> calls
        self.spans: list[tuple] = []
        self.request = 0
        self._stack: list[list] = []  # [span id, child time]
        self._saved: list[tuple] = []
        self._next_id = 0

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"ilwbo.{layer}")
            for name, obj in list(vars(module).items()):
                if not name.startswith("_") and _traceable(obj):
                    self._saved.append((module, name, obj))
                    setattr(module, name, self._wrap(obj, layer))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    def _wrap(self, fn, site: str):
        layer = fn.__module__.rsplit(".", 1)[-1]
        stats = self.stats.setdefault((layer, fn.__name__), [0, 0.0, 0.0, 0])
        label = f"{layer}.{fn.__name__}"
        site_key = (site, label)
        sites = self.site_calls
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                stats[3] += raised
                sites[site_key] = sites.get(site_key, 0) + 1
                if len(stack) < _RECORD_DEPTH and len(spans) < _MAX_RECORDS:
                    spans.append((label, start, end, parent, span_id, self.request))

        return traced

    def layer_totals(self) -> dict[str, dict]:
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (layer, _), (calls, _, self_s, _) in self.stats.items():
            out[layer]["calls"] += calls
            out[layer]["self_s"] += self_s
        return out

    def function(self, layer: str, name: str) -> dict:
        calls, total, self_s, raised = self.stats.get((layer, name), [0, 0.0, 0.0, 0])
        return {"calls": calls, "total_s": total, "self_s": self_s, "raised": raised}

    def table(self) -> list[dict]:
        rows = [{"function": f"{layer}.{name}", "calls": s[0], "total_s": s[1],
                 "self_s": s[2], "raised": s[3]}
                for (layer, name), s in self.stats.items() if s[0]]
        return sorted(rows, key=lambda r: -r["self_s"])
