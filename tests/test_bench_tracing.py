"""The benchmark's span tracer must find every library function it wraps.

bench/tracing.py names the traced layers as (module, attribute) pairs; if
the package drops or renames one, `bench/run.py --trace 1` breaks.  The
tracer module is imported read-only, without writing bytecode next to it.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    missing = []
    for module_name, attr in tracing.TRACED:
        owner = importlib.import_module(f"fqdirections.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
