"""The benchmark's tracer wraps library functions by module and
qualified name; each target must exist, or the traced benchmark run
fails on install.  The span table is read from perfbench/tracing.py."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_span_target_resolves(monkeypatch):
    spans = _spans(monkeypatch)
    assert spans
    for span in spans:
        target = importlib.import_module(span.module)
        for part in span.qualname.split("."):
            target = getattr(target, part)
        assert callable(target), span.name
