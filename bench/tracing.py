"""Span tracing of the fqdirections layers, installed from outside the package.

Every traced function is replaced by one wrapper at every name its callers
look up: `from .x import f` binds a copy of f into the importing module, so
the wrapper is written into each loaded fqdirections module wherever the
original object appears; callers outside the package must look functions up
through a module (`harness.run_campaign`), not bind them by name.  Class
attributes of PointSet are patched on the class.

Spans live in memory as (id, parent_id, name, start, end, attrs) and are
written out only when the caller asks.  A layer's self time is its span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# (module, attribute) pairs; a dotted attribute names a method of a class.
TRACED = (
    ("generators", "gen_random"),
    ("rng", "sample_without_replacement"),
    ("pointset", "PointSet.from_indices"),
    ("pointset", "PointSet.spectrum"),
    ("pointset", "PointSet.spectrum_power"),
    ("spectral", "forward_transform"),
    ("directions", "direction_set"),
    ("directions", "coordinate_subspace_directions"),
    ("incidence", "theorem_main_threshold"),
    ("incidence", "nu_spectral"),
    ("incidence", "remainder_spectral"),
    ("incidence", "degenerate_pair_count"),
    ("incidence", "nu_brute"),
    ("incidence", "pair_differences"),
    ("salem", "difference_profile"),
    ("salem", "difference_bound_check"),
    ("salem", "salem_report"),
    ("harness", "run_campaign"),
    ("harness", "emit_report"),
    ("harness", "write_report"),
)

_LOOKUPS = ("pointset.spectrum", "pointset.spectrum_power")
_TRANSFORM = "spectral.forward_transform"
PASS_SPAN = "bench.pass"


def _pairs(args: tuple, result: Any) -> dict:
    n = len(args[0].indices())
    return {"pairs": n * (n - 1)}


def _transform_work(args: tuple, result: Any) -> dict:
    q, d = args[0].field.q, args[0].dim
    return {"cells": q**d, "macs": d * q ** (d + 1)}


def _subspace_key(args: tuple, result: Any) -> dict:
    return {"key": list(args[:3])}


def _rounding_margin(args: tuple, result: Any) -> dict:
    value = float(result.main_term - result.diagonal_term) + result.remainder
    return {"margin": abs(value - result.nu)}


def _parseval(args: tuple, result: Any) -> dict:
    return {"parseval": result.parseval_defect_rel}


# Exact per-call counters, computed from arguments and return values after
# the span has ended so they do not count towards its duration.
_PROBES: dict[str, Callable[[tuple, Any], dict]] = {
    "directions.direction_set": _pairs,
    "spectral.forward_transform": _transform_work,
    "directions.coordinate_subspace_directions": _subspace_key,
    "incidence.nu_spectral": _rounding_margin,
    "salem.difference_bound_check": _parseval,
}


class Tracer:
    """Records nested spans of the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([span_id, parent, name, time.perf_counter(), 0.0, None])
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id][4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func: Callable) -> Callable:
        probe = _PROBES.get(name)

        def traced(*args, **kwargs):
            span_id = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(span_id)
            if probe is not None:
                self.spans[span_id][5] = probe(args, result)
            return result

        return functools.wraps(func)(traced)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every traced function at every place it is bound."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, attr in TRACED:
            module = importlib.import_module(f"fqdirections.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                name = f"{module_name}.{meth}"
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched: Any = classmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, patched)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            namespaces = [m for key, m in sys.modules.items() if key.split(".")[0] == "fqdirections"]
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._restore.append((namespace, key, original))
                        setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Total self time per span name over spans[first:last]."""
        child_time = defaultdict(float)
        for span in self.spans[first:last]:
            if span[1] >= 0:
                child_time[span[1]] += span[4] - span[3]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans[first:last]:
            totals[span[2]] += span[4] - span[3] - child_time[span[0]]
        return dict(totals)

    def counters(self, first: int, last: int) -> dict[str, float]:
        """Exact work and health counters over spans[first:last]."""
        calls: dict[str, int] = defaultdict(int)
        pairs = cells = macs = 0
        subspace_keys: set[tuple] = set()
        margin = parseval = 0.0
        lookups = misses = 0
        outer_lookups: dict[int, bool] = {}
        for span_id, parent, name, _, _, attrs in self.spans[first:last]:
            calls[name] += 1
            if name in _LOOKUPS and (parent < 0 or self.spans[parent][2] not in _LOOKUPS):
                lookups += 1
                outer_lookups[span_id] = False
            if name == _TRANSFORM:
                ancestor = parent
                while ancestor >= 0 and ancestor not in outer_lookups:
                    ancestor = self.spans[ancestor][1]
                if ancestor >= 0 and not outer_lookups[ancestor]:
                    outer_lookups[ancestor] = True
                    misses += 1
            if attrs:
                pairs += attrs.get("pairs", 0)
                cells += attrs.get("cells", 0)
                macs += attrs.get("macs", 0)
                if "key" in attrs:
                    subspace_keys.add(tuple(attrs["key"]))
                margin = max(margin, attrs.get("margin", 0.0))
                parseval = max(parseval, attrs.get("parseval", 0.0))
        subspace_calls = calls["directions.coordinate_subspace_directions"]
        return {
            "calls": dict(calls),
            "directions.direction_set.pairs": pairs,
            "directions.coordinate_subspace_directions.useful_ratio": (
                len(subspace_keys) / subspace_calls if subspace_calls else 0.0
            ),
            "spectral.forward_transform.cells": cells,
            "spectral.forward_transform.macs_computed": macs,
            "pointset.spectrum_cache_hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
            "incidence.rounding_margin_max": margin,
            "salem.parseval_defect_rel_max": parseval,
        }

    def write(self, path: str, first: int, last: int, header: dict) -> None:
        """One JSON header line, then one JSON line per span in spans[first:last]."""
        with open(path, "w", encoding="ascii") as handle:
            handle.write(json.dumps(header) + "\n")
            for span_id, parent, name, start, end, attrs in self.spans[first:last]:
                record = {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record) + "\n")
