"""Slice hyperholomorphic polynomial stems and the Fueter operators.

A stem is a polynomial with quaternion coefficients on one side,
f(q) = sum q^m a_m  (left)  or  f(q) = sum a_m q^m  (right).

The first-order operators D = d0 + e1 d1 + e2 d2 + e3 d3 and its
conjugate Dbar = d0 - e1 d1 - e2 d2 - e3 d3 act on stems through exact
power rules; their images are polynomials in the two commuting symbols
q and conj(q), represented by :class:`PAPoly`.  The closed power rules
on monomials are

    Dbar q^n  =  2 n q^(n-1) + 2 sum_{k=1..n} q^(n-k) conj(q)^(k-1)
    D    q^n  = -2 sum_{k=1..n} q^(n-k) conj(q)^(k-1)
    Delta q^n = -4 sum_{k=1..n-1} (n-k) q^(n-1-k) conj(q)^(k-1)

with Delta the four-variable Laplacian, Delta = D Dbar = Dbar D.
These rules are the library's one transcription of them: the calculi's
closed forms evaluate their images at operators with
``PAPoly.at_operator``.  The independent checks, central finite
differences, a PAPoly's value at a quaternion and the truncated kernel
series, are on the test side (tests/oracles.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, repeat
from operator import matmul

import numpy as np

from .errors import InputError, IntrinsicError, read_document, read_numbers
from .qlinalg import QuatMatrix, qmul_arr
from .quat import Quaternion

__all__ = [
    "FueterOp",
    "SlicePoly",
    "PAPoly",
    "fueter_apply",
    "stem_product",
    "stem_shift",
    "load_stem",
    "save_stem",
]

INTRINSIC_RTOL = 1e-12


class FueterOp(Enum):
    D = "D"
    DBAR = "Dbar"
    DELTA = "Delta"


@dataclass(frozen=True)
class SlicePoly:
    """Polynomial stem with coefficients on the stated side."""

    side: str
    coeffs: tuple

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise InputError("side must be 'left' or 'right'")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        for c in self.coeffs:
            if not isinstance(c, Quaternion):
                raise InputError("stem coefficients must be Quaternion")

    @staticmethod
    def monomial(m: int, coeff=1.0, side: str = "left") -> "SlicePoly":
        """The stem q^m coeff (left) or coeff q^m (right); InputError
        unless is_degree(m)."""
        if not is_degree(m):
            raise InputError(f"monomial degree must be a non-negative integer, got {m!r}")
        return SlicePoly(side, [Quaternion()] * m + [_as_quat(coeff)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_intrinsic(self) -> bool:
        """True when every coefficient is real, so the stem takes each
        plane through an imaginary unit into itself."""
        scale = max([c.norm() for c in self.coeffs] + [1.0])
        return all(c.vec_norm() <= INTRINSIC_RTOL * scale for c in self.coeffs)

    def evaluate(self, q: Quaternion) -> Quaternion:
        """The value at one point: at_nodes of that point, so a point
        gets the same bits alone as in a batch of nodes."""
        return Quaternion.from_array(self.at_nodes(q.as_array()))

    __call__ = evaluate

    def at_nodes(self, s_arr: np.ndarray) -> np.ndarray:
        """The values at every row of an (M, 4) node array (or at one
        (4,) point), by Horner's rule on the whole array."""
        s_arr = np.asarray(s_arr, dtype=np.float64)
        acc = np.zeros_like(s_arr)
        for c in reversed(self.coeffs):
            acc = qmul_arr(s_arr, acc) if self.side == "left" else qmul_arr(acc, s_arr)
            acc += c.as_array()
        return acc


def is_degree(m) -> bool:
    """Whether m is a polynomial degree: a non-negative int or numpy
    integer.  A bool is not one, and neither is 2.0."""
    return not isinstance(m, bool) and isinstance(m, (int, np.integer)) and m >= 0


def _as_quat(c) -> Quaternion:
    if isinstance(c, Quaternion):
        return c
    if isinstance(c, (int, float)):
        return Quaternion(float(c))
    return Quaternion.from_array(c)


class PAPoly:
    """Polynomial in the commuting pair (q, conj(q)).

    Terms map exponent pairs (a, b) to quaternion coefficients.  The
    side is that of the stem the polynomial is the image of, and places
    the coefficients as the stem does: a left image carries them on the
    right of q^a conj(q)^b, a right image on the left.
    """

    __slots__ = ("terms", "side")

    def __init__(self, terms, side: str = "left"):
        if side not in ("left", "right"):
            raise InputError("side must be 'left' or 'right'")
        clean = {}
        for (a, b), c in terms.items():
            c = _as_quat(c)
            if c.norm() != 0.0:
                clean[(int(a), int(b))] = c
        self.terms = clean
        self.side = side

    def at_operator(self, T) -> QuatMatrix:
        """The value at an operator T with commuting components: each term
        q^a conj(q)^b c becomes T^a conj(T)^b c, c on the same side."""
        one = QuatMatrix.identity(T.n)
        top = lambda k: max((key[k] for key in self.terms), default=0)
        tp = _powers(T.as_matrix, top(0), one, matmul)
        cp = _powers(T.conjugate.as_matrix, top(1), one, matmul)
        acc = QuatMatrix.zeros(T.n)
        for (a, b), c in self.terms.items():
            mono = tp[a] @ cp[b]
            acc = acc + (mono.rmul(c) if self.side == "left" else mono.lmul(c))
        return acc

    def __repr__(self):
        body = ", ".join(f"q^{a} qbar^{b}: {c}" for (a, b), c in sorted(self.terms.items()))
        return f"PAPoly({{{body}}}, side={self.side})"


def _powers(x, top: int, one, product):
    """[one, x, x^2, ..., x^top] under product."""
    return list(accumulate(repeat(x, top), product, initial=one))


# ---------------------------------------------------------------------------
# exact power rules


def _dbar_power(n: int) -> dict:
    if n == 0:
        return {}
    terms = {(n - 1, 0): 2.0 * n}
    for k in range(1, n + 1):
        key = (n - k, k - 1)
        terms[key] = terms.get(key, 0.0) + 2.0
    return terms

def _d_power(n: int) -> dict:
    return {(n - k, k - 1): -2.0 for k in range(1, n + 1)}

def _delta_power(n: int) -> dict:
    return {(n - 1 - k, k - 1): -4.0 * (n - k) for k in range(1, n)}


_POWER_RULES = {
    FueterOp.D: _d_power,
    FueterOp.DBAR: _dbar_power,
    FueterOp.DELTA: _delta_power,
}


def fueter_apply(f: SlicePoly, op: FueterOp) -> PAPoly:
    """Apply D, Dbar or Delta to a stem via the exact power rules.

    Linearity carries the stem coefficients through on their own side;
    this is valid because each power rule has real coefficients.
    """
    rule = _POWER_RULES[FueterOp(op)]
    terms = {}
    for m, a in enumerate(f.coeffs):
        if a.norm() == 0.0:
            continue
        for key, r in rule(m).items():
            term = Quaternion(r) * a if f.side == "left" else a * Quaternion(r)
            terms[key] = terms.get(key, Quaternion()) + term
    return PAPoly(terms, f.side)


# ---------------------------------------------------------------------------
# stem algebra


def stem_product(f: SlicePoly, g: SlicePoly) -> SlicePoly:
    """Pointwise product fg for intrinsic f.

    Real coefficients commute past powers of q, so the product of the
    stems is the coefficient convolution regardless of g's side.
    """
    if not f.is_intrinsic():
        raise IntrinsicError("left factor of a stem product must be intrinsic")
    out = [Quaternion() for _ in range(f.degree + g.degree + 1)]
    for i, a in enumerate(f.coeffs):
        if a.norm() == 0.0:
            continue
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return SlicePoly(g.side, out)


def stem_shift(f: SlicePoly) -> SlicePoly:
    """Multiply by the identity monomial: the stem of q f(q) for left
    stems and of f(q) q for right stems."""
    return SlicePoly(f.side, (Quaternion(),) + f.coeffs)


# ---------------------------------------------------------------------------
# file format: {"side": "left"|"right", "coeffs": [[w,x,y,z], ...]}


def stem_from_dict(doc) -> SlicePoly:
    coeffs = doc.get("coeffs") if isinstance(doc, dict) else None
    if not (isinstance(coeffs, list) and all(isinstance(c, list) for c in coeffs)):
        raise InputError("function document needs a list 'coeffs' of arrays")
    side = doc.get("side", "left")
    arrays = [read_numbers(c, "stem coefficient") for c in coeffs]
    if any(a.shape != (4,) for a in arrays):
        raise InputError("quaternion arrays must have exactly 4 entries")
    return SlicePoly(side, [Quaternion.from_array(a) for a in arrays])


def stem_to_dict(f: SlicePoly) -> dict:
    return {"side": f.side, "coeffs": [[c.w, c.x, c.y, c.z] for c in f.coeffs]}


def load_stem(path) -> SlicePoly:
    return stem_from_dict(read_document(path, "function"))


def save_stem(f: SlicePoly, path) -> None:
    with open(path, "w") as fh:
        json.dump(stem_to_dict(f), fh)
