"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed sequence of ops.  An op is the keyword
arguments of one ``sspectrum.cli.RunConfig``, the JSON documents it
reads, and what the output check needs to know.  The same seed gives
the same sequence and byte-identical documents; the program under test
only ever sees the documents.

The generators use numpy alone, so the inputs do not depend on the
library they feed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

KINDS = ("s", "q", "p2", "f")
NODES = 256


@dataclass
class Op:
    """One call of the CLI entry point with its inputs and check data."""

    config: dict
    docs: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    tag: str = ""     # prefixes this op's failure reasons in the summary
    may_fail: bool = False    # a known library defect may make this op fail


# ---------------------------------------------------------------------------
# selftest: the registry's own draws

SELFTEST_SEEDS = 16


def selftest_ops(seed: int) -> list:
    """One selftest op per registry seed; the seeds are drawn from the
    benchmark seed, so each run cycles over its own fixed list."""
    rng = np.random.default_rng([seed, 1])
    seeds = rng.integers(0, 2**31 - 1, size=SELFTEST_SEEDS)
    return [Op({"command": "selftest", "seed": int(k)}) for k in seeds]


# ---------------------------------------------------------------------------
# apply: large n, one 256-node circle, explicit contour file

# Operator sizes of one cycle.  n = 8 is the majority, so the median op
# sits well inside the n = 8 mode and the tail inside the n = 32 mode.
APPLY_SIZES = (8, 16, 8, 8, 32, 8, 16, 8)
APPLY_MAX_DEGREE = 6


def _polynomial_components(rng, M):
    """Four real polynomials of degree 2 in M; they commute exactly."""
    n = M.shape[0]
    powers = (np.eye(n), M, M @ M)
    return [sum(rng.standard_normal() * P for P in powers) for _ in range(4)]


def _unit_imaginary(rng):
    J = rng.standard_normal(3)
    return [0.0] + (J / np.linalg.norm(J)).tolist()


def _apply_op(rng, n, kind, side, degree) -> Op:
    M = rng.standard_normal((n, n))
    M /= np.linalg.norm(M, 2)
    comps = _polynomial_components(rng, M)
    # |s| <= sum ||T_i||_2 on the S-spectrum, so a circle 1.5 times
    # that wide keeps every node at least a third of its radius clear.
    radius = 1.5 * sum(np.linalg.norm(C, 2) for C in comps)
    coeffs = rng.standard_normal((degree + 1, 4))
    return Op(
        {"command": "apply", "calculus": kind,
         "operator": "operator", "function": "function", "contour": "contour"},
        docs={
            "operator": {"n": n, **{f"T{k}": comps[k].tolist() for k in range(4)}},
            "function": {"side": side, "coeffs": coeffs.tolist()},
            "contour": {"J": _unit_imaginary(rng), "nodes": NODES,
                        "circles": [{"center": 0.0, "radius": radius,
                                     "orientation": 1}]},
        },
        expect={"kind": kind, "side": side, "components": comps, "coeffs": coeffs},
    )


def apply_ops(seed: int) -> list:
    """Four cycles of APPLY_SIZES, 32 ops: each kind meets each n = 32
    slot once, stems alternate sides by cycle and run through degrees 2..6."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for i in range(len(APPLY_SIZES) * len(KINDS)):
        cycle = i // len(APPLY_SIZES)
        ops.append(_apply_op(rng, APPLY_SIZES[i % len(APPLY_SIZES)],
                             KINDS[(i + cycle) % len(KINDS)],
                             ("left", "right")[cycle % 2],
                             2 + i % (APPLY_MAX_DEGREE - 1)))
    return ops


# ---------------------------------------------------------------------------
# projector: small n, thousands of nodes from the auto contour

# Slot patterns with coprime periods (9, 4, 7, 5), so sizes, kinds,
# cluster counts and real-axis draws all meet each other.  n = 8 fills
# five slots of nine, with one cheaper slot below, so the median op lies
# inside the n = 8 mode; n = 12 fills three, so the tail op of a run of
# two or more passes lies inside the n = 12 mode.
PROJECTOR_SIZES = (8, 12, 8, 5, 12, 8, 12, 8, 8)
# One operator in REAL_AXIS_PERIOD (20 %) has a sphere on the real axis.
# That draw exposes the repeated-root defect of s_spectrum; it is kept so
# the defect shows as failures.
REAL_AXIS_PERIOD = 5
PROJECTOR_OPS = 45


def _cluster_points(rng, centre, count, on_axis, taken):
    """count sphere points (u, v), v >= 0, near centre and at least 0.12
    from every point placed so far."""
    points = []
    if on_axis:
        points.append((centre[0], 0.0))
    while len(points) < count:
        u = centre[0] + rng.uniform(-0.4, 0.4)
        v = centre[1] + rng.uniform(-0.4, 0.4)
        if v < 0.1:
            continue
        if all(np.hypot(u - a, v - b) >= 0.12 for (a, b) in taken + points):
            points.append((u, v))
    return points


def _projector_op(rng, n, kind, clusters, on_axis) -> Op:
    """T0 = V A V^-1 and T1 = V B V^-1 for diagonal A, B and a random
    non-orthogonal V (condition number <= 3); T2 = T3 = 0."""
    # The selected cluster holds ceil(n / 2) spheres, so the node count
    # of the auto contour follows from n.
    selected = int(rng.integers(clusters))
    others = [c for c in range(clusters) if c != selected]
    sizes = [0] * clusters
    sizes[selected] = n - n // 2
    for k in range(n // 2):
        sizes[others[k % len(others)]] += 1
    points, labels = [], []
    for c in range(clusters):
        axis = on_axis and c == 0
        centre = (3.0 * c + rng.uniform(-0.5, 0.5),
                  0.3 if axis else rng.uniform(0.9, 2.0))
        pts = _cluster_points(rng, centre, sizes[c], axis, points)
        points += pts
        labels += [c] * len(pts)
    a = np.array([p[0] for p in points])
    b = np.array([p[1] for p in points]) * rng.choice((-1.0, 1.0), size=n)
    G = rng.standard_normal((n, n))
    V = np.eye(n) + 0.5 * G / np.linalg.norm(G, 2)
    Vinv = np.linalg.inv(V)
    T0 = V @ np.diag(a) @ Vinv
    T1 = V @ np.diag(b) @ Vinv
    # s_spectrum lists spheres sorted by (u, v)
    order = sorted(range(n), key=lambda k: points[k])
    selection = [pos for pos, k in enumerate(order) if labels[k] == selected]
    zero = np.zeros((n, n))
    return Op(
        {"command": "projector", "calculus": kind, "operator": "operator",
         "cluster": ",".join(map(str, selection))},
        docs={"operator": {"n": n, "T0": T0.tolist(), "T1": T1.tolist()}},
        expect={"components": [T0, T1, zero, zero], "rank": len(selection)},
        tag="real-axis " if on_axis else "",
        may_fail=on_axis,
    )


def projector_ops(seed: int) -> list:
    """PROJECTOR_OPS operators with two or three separated clusters of
    spheres, one cluster selected."""
    rng = np.random.default_rng([seed, 3])
    return [_projector_op(rng, PROJECTOR_SIZES[i % len(PROJECTOR_SIZES)],
                          KINDS[i % len(KINDS)], 2 + (i % 7 < 3),
                          i % REAL_AXIS_PERIOD == 2)
            for i in range(PROJECTOR_OPS)]


def warmup_ops(workload: str) -> list:
    """Small ops, the same for every seed, that run each code path of a
    workload once before timing starts."""
    rng = np.random.default_rng([0, 4])
    if workload == "selftest":
        # the whole registry, pointwise and integral identities, on
        # 32-node circles instead of 256
        return [Op({"command": "selftest", "seed": 0, "nodes": 32})]
    if workload == "apply":
        return [_apply_op(rng, 4, kind, side, 2)
                for kind in KINDS for side in ("left", "right")]
    return [_projector_op(rng, 4, kind, 2, False) for kind in KINDS]


GENERATORS = {"selftest": selftest_ops, "apply": apply_ops, "projector": projector_ops}


# ---------------------------------------------------------------------------
# documents on disk


def encode(doc) -> bytes:
    """The bytes written for one document; fixed for fixed input."""
    return json.dumps(doc, sort_keys=True).encode()


def materialize(ops, directory, prefix: str) -> list:
    """Write every op's documents under directory and return the
    RunConfig keyword arguments with document names replaced by paths."""
    configs = []
    for i, op in enumerate(ops):
        config = dict(op.config)
        for key, doc in op.docs.items():
            path = os.path.join(directory, f"{prefix}{i:03d}-{key}.json")
            with open(path, "wb") as fh:
                fh.write(encode(doc))
            config[key] = path
        configs.append(config)
    return configs
