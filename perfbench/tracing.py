"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces each spanned function at every binding it
has in the loaded ``sspectrum`` modules (``sspectrum.kernels.solve_arr``
as well as ``sspectrum.qlinalg.solve_arr``, a method and its class
aliases alike) with a wrapper that times it, and ``uninstall`` puts
every original back.  Spans are only recorded while ``active`` is set,
so the benchmark's own checks, which call into the library, stay out of
the numbers.

A span's self time is its duration minus the durations of the spans it
encloses.  ``quat`` is not spanned: its calls take under a microsecond,
so a wrapper would cost more than the work; that time lands in the
self time of the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


def _size_bucket(n: int) -> str:
    return "n8" if n <= 8 else "n16" if n <= 16 else "n32"


def _solve_counts(args, result):
    return {"qlinalg.solve_arr.matrices": math.prod(args[0].shape[:-3])}


def _node_counts(args, result):
    s_arr = args[2]
    return {"kernels.nodes": 1 if s_arr.ndim == 1 else s_arr.shape[0]}


def _contour_counts(args, result):
    c = args[0]
    circles = len(c.plane_circles())
    return {"contour.circles": circles,
            "contour.nodes": circles * c.nodes_per_circle}


def _output_bytes(args, result):
    return {"cli.output_bytes": len(result[1].encode())}


@dataclass(frozen=True)
class Span:
    name: str                 # layer metric prefix, "<module>.<qualname>"
    module: str
    qualname: str
    count: object = None      # (args, result) -> {counter: increment}
    bucket: object = None     # args -> suffix for a split of the self time


SPANS = (
    Span("cli.run", "sspectrum.cli", "run", count=_output_bytes),
    Span("identities.verify_all", "sspectrum.identities", "verify_all"),
    Span("calculus.apply_calculus", "sspectrum.calculus", "apply_calculus"),
    Span("calculus.riesz_projector", "sspectrum.calculus", "riesz_projector"),
    Span("contour.auto_contour", "sspectrum.contour", "auto_contour"),
    Span("contour.integrate", "sspectrum.contour", "integrate", count=_contour_counts),
    Span("kernels.kernel", "sspectrum.kernels", "kernel"),
    Span("kernels.kernel_at_nodes", "sspectrum.kernels", "kernel_at_nodes",
         count=_node_counts),
    Span("operators.s_spectrum", "sspectrum.operators", "s_spectrum"),
    Span("operators.qcs_pencil_at", "sspectrum.operators", "qcs_pencil_at"),
    Span("qlinalg.solve_arr", "sspectrum.qlinalg", "solve_arr", count=_solve_counts,
         bucket=lambda args: _size_bucket(args[0].shape[-3])),
    Span("qlinalg.matmul", "sspectrum.qlinalg", "matmul"),
    Span("slicefn.SlicePoly.evaluate", "sspectrum.slicefn", "SlicePoly.evaluate"),
)


class Tracer:
    """Self time, call counts and counters per span, kept in memory."""

    def __init__(self):
        self.active = False
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.root_total_s = 0.0
        self._stack = []
        self._saved = []

    def _wrap(self, span, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                else:
                    tracer.root_total_s += dt
                own = dt - frame[0]
                tracer.self_s[span.name] += own
                tracer.calls[span.name] += 1
                if span.bucket is not None:
                    tracer.self_s[f"{span.name}.{span.bucket(args)}"] += own
            if span.count is not None:
                for key, inc in span.count(args, result).items():
                    tracer.counts[key] += inc
            return result

        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sspectrum" or name.startswith("sspectrum."))]
        for span in SPANS:
            owner = importlib.import_module(span.module)
            *outer, attr = span.qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            # every binding of the original: module globals, and class
            # attributes such as SlicePoly.__call__ = evaluate
            holders = modules if not outer else [owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        while self._saved:
            holder, key, original = self._saved.pop()
            setattr(holder, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
