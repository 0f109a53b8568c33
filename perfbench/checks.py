"""Output checks, run outside the timed region.

Each check takes an op, the exit status and the rendered text that
``sspectrum.cli.run`` returned, and gives ``None`` for a correct output
or a short reason for a wrong one.
"""

from __future__ import annotations

import json

import numpy as np

from sspectrum.calculus import CalculusKind, stem_moment
from sspectrum.operators import CommutingOperator

MOMENT_RTOL = 1e-8     # the README's relative tolerance for quadrature moments
PROJECTOR_TOL = 1e-8   # idempotency and commutation, relative to max(|P|, 1)
RANK_TOL = 1e-6        # trace of a projector is its rank, an integer

# Hamilton product table: e_a e_b = SIGN[a, b] e_PROD[a, b]
_PROD = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_SIGN = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]])


def _hamilton(A, B, product):
    parts = [0.0] * 4
    for a in range(4):
        for b in range(4):
            parts[_PROD[a, b]] = parts[_PROD[a, b]] + _SIGN[a, b] * product(A[..., a], B[..., b])
    return np.stack(parts, axis=-1)


def qmul(a, b):
    """Entrywise Hamilton product of broadcastable (..., 4) arrays."""
    return _hamilton(a, b, np.multiply)


def qmatmul(A, B):
    """Product of two (n, n, 4) quaternion matrices."""
    return _hamilton(A, B, np.matmul)


def _rel(got, want):
    scale = max(np.linalg.norm(got), np.linalg.norm(want), 1.0)
    return np.linalg.norm(got - want) / scale


def check_apply(op, status, text):
    """The calculus value against the quadrature-free sum of stem moments."""
    if status != 0:
        return f"exit {status}"
    got = np.array(json.loads(text), dtype=np.float64)
    e = op.expect
    T = CommutingOperator(*e["components"])
    kind = CalculusKind(e["kind"])
    want = np.zeros_like(got)
    for m, a in enumerate(e["coeffs"]):
        moment = stem_moment(kind, T, m).data
        want += qmul(moment, a) if e["side"] == "left" else qmul(a, moment)
    err = _rel(got, want)
    return None if err <= MOMENT_RTOL else f"moment error {err:.3e}"


def check_projector(op, status, text):
    """Idempotency as the CLI reports it, commutation with T, and a trace
    equal to the number of selected spheres."""
    if status != 0:
        return f"exit {status}"
    doc = json.loads(text)
    if doc["pass"] is not True:
        return "idempotency check failed"
    P = np.array(doc["projector"], dtype=np.float64)
    T = np.stack(op.expect["components"], axis=-1)
    scale = max(np.linalg.norm(P), 1.0)
    comm = np.linalg.norm(qmatmul(T, P) - qmatmul(P, T))
    if comm > PROJECTOR_TOL * scale:
        return f"commutator {comm:.3e}"
    rank = op.expect["rank"]
    trace = float(np.trace(P[..., 0]))
    if abs(trace - rank) > RANK_TOL * rank:
        return f"trace {trace:.6g} for {rank} selected spheres"
    return None


class SelftestCheck:
    """Exit 0, and the same bytes as the first rendering of each seed."""

    def __init__(self):
        self.first = {}

    def __call__(self, op, status, text):
        if status != 0:
            return f"exit {status}"
        first = self.first.setdefault(op.config["seed"], text)
        return None if text == first else "output differs from the first rendering"


def checker(workload: str):
    if workload == "selftest":
        return SelftestCheck()
    return {"apply": check_apply, "projector": check_projector}[workload]
