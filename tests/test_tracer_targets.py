"""The benchmark's tracer wraps library functions by module and
qualified name; each target must exist, or the traced benchmark run
fails on install, and each counter must read the arguments it expects,
or it silently counts nothing.  The tracer is loaded from
perfbench/tracing.py."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from sspectrum import CalculusKind, kernels
from sspectrum.cli import RunConfig, run
from sspectrum.contour import Circle, Contour, auto_contour, save_contour
from sspectrum.identities import random_commuting_operator, random_resolvent_point
from sspectrum.operators import load_operator
from sspectrum.quat import E1, E2

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(monkeypatch):
    spans = _tracing(monkeypatch).SPANS
    assert spans
    for span in spans:
        target = importlib.import_module(span.module)
        for part in span.qualname.split("."):
            target = getattr(target, part)
        assert callable(target), span.name


def test_contour_counters_match_the_contour(monkeypatch, tmp_path):
    tracing = _tracing(monkeypatch)
    op, fn, ct = tmp_path / "op.json", tmp_path / "f.json", tmp_path / "c.json"
    op.write_text(json.dumps({"n": 2, "T0": [[0.0, 0.0], [0.0, 5.0]],
                              "T1": [[3.0, 0.0], [0.0, 0.0]]}))
    fn.write_text(json.dumps({"side": "left", "coeffs": [[1, 0, 0, 0], [0, 1, 0, 0]]}))
    file_contour = Contour(E2, (Circle(2.5, 5.0),), 48)
    save_contour(file_contour, ct)
    spheres = load_operator(op).spheres
    # a disk pair around (0, 3) and a circle around 5: three plane circles
    auto = auto_contour(spheres, range(len(spheres)), J=E1, N=64)
    assert len(auto.plane_circles()) == 3
    cases = [(RunConfig("apply", operator=str(op), function=str(fn), contour=str(ct)),
              file_contour),
             (RunConfig("projector", operator=str(op), nodes=64), auto)]
    for config, c in cases:
        with tracing.Tracer() as tracer:
            tracer.active = True
            status, _ = run(config)
        assert status == 0, config.command
        circles = len(c.plane_circles())
        assert tracer.calls["contour.integrate"] == 1
        assert tracer.counts["contour.circles"] == circles
        assert tracer.counts["contour.nodes"] == circles * c.nodes_per_circle


def test_node_counter_reads_the_points_of_kernel_at_nodes(monkeypatch):
    # the counter reads s_arr as the third argument: N for an (N, 4)
    # array, 1 for a single (4,) point
    tracing = _tracing(monkeypatch)
    rng = np.random.default_rng(3)
    T = random_commuting_operator(rng, 3)
    points = np.stack([random_resolvent_point(rng, T).as_array() for _ in range(5)])
    with tracing.Tracer() as tracer:
        tracer.active = True
        kernels.kernel_at_nodes(CalculusKind.S, T, points, "left")
        kernels.kernel_at_nodes(CalculusKind.P2, T, points[0], "right")
    assert tracer.calls["kernels.kernel_at_nodes"] == 2
    assert tracer.counts["kernels.nodes"] == len(points) + 1
