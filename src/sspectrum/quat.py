"""Scalar quaternion algebra.

Quaternions q = w + x e1 + y e2 + z e3 with the usual multiplication
table e1 e2 = e3, e2 e3 = e1, e3 e1 = e2 and e_i^2 = -1.  Everything in
this module is immutable and pure; all heavier array-valued arithmetic
lives in :mod:`sspectrum.qlinalg`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError

__all__ = [
    "Quaternion",
    "SpectralSphere",
    "ZERO",
    "ONE",
    "E1",
    "E2",
    "E3",
    "qinv",
    "qs_poly",
    "imaginary_unit",
    "random_imaginary_unit",
    "random_quaternion",
]


@dataclass(frozen=True)
class Quaternion:
    """A quaternion with float64 components (w, x, y, z)."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        # the complex-pair product of qlinalg._hamilton, on Python complex
        a1, a2 = complex(self.w, self.x), complex(self.y, self.z)
        b1, b2 = complex(other.w, other.x), complex(other.y, other.z)
        c1 = a1 * b1 - a2 * b2.conjugate()
        c2 = a1 * b2 + a2 * b1.conjugate()
        return Quaternion(c1.real, c1.imag, c2.real, c2.imag)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are defined")
        out = ONE
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure -------------------------------------------------------

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        """Modulus |q| = sqrt(w^2 + x^2 + y^2 + z^2)."""
        return math.sqrt(self.w * self.w + self.x * self.x
                         + self.y * self.y + self.z * self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def vec(self) -> "Quaternion":
        """Vector (imaginary) part x e1 + y e2 + z e3."""
        return Quaternion(0.0, self.x, self.y, self.z)

    def vec_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def decompose(self):
        """Split q = u + J*v with J a unit imaginary direction.

        Returns (u, J, v).  For a real quaternion the direction is
        undefined and (w, None, 0.0) is returned instead of picking an
        arbitrary unit.
        """
        v = self.vec_norm()
        if v == 0.0:
            return self.w, None, 0.0
        return self.w, Quaternion(0.0, self.x / v, self.y / v, self.z / v), v

    @staticmethod
    def embed(u: float, J: "Quaternion", v: float) -> "Quaternion":
        """Inverse of :meth:`decompose` for non-real points: u + J*v."""
        return Quaternion(u, J.x * v, J.y * v, J.z * v)

    # -- conversion ------------------------------------------------------

    def as_array(self):
        import numpy as np

        return np.array([self.w, self.x, self.y, self.z])

    @staticmethod
    def from_array(a) -> "Quaternion":
        if len(a) != 4:
            raise InputError("quaternion arrays must have exactly 4 entries")
        return Quaternion(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


def _coerce(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as a quaternion")


ZERO = Quaternion()
ONE = Quaternion(1.0)
E1 = Quaternion(0.0, 1.0, 0.0, 0.0)
E2 = Quaternion(0.0, 0.0, 1.0, 0.0)
E3 = Quaternion(0.0, 0.0, 0.0, 1.0)


def qinv(a: Quaternion) -> Quaternion:
    """Multiplicative inverse conj(a)/|a|^2; zero input raises."""
    a = _coerce(a)
    n2 = a.norm_sq()
    if n2 == 0.0:
        raise ZeroDivisionError("zero quaternion has no inverse")
    return Quaternion(a.w / n2, -a.x / n2, -a.y / n2, -a.z / n2)


def qs_poly(s: Quaternion, p: Quaternion) -> Quaternion:
    """The quadratic p^2 - 2 Re(s) p + |s|^2.

    Vanishes exactly when p lies on the 2-sphere of s (same real part
    and the same vector modulus), which makes it the scalar singularity
    indicator used by the resolvent equations.
    """
    s = _coerce(s)
    p = _coerce(p)
    return p * p - (2.0 * s.w) * p + p.__class__(s.norm_sq())


def imaginary_unit(value) -> Quaternion:
    """Validate value as a unit purely imaginary quaternion.

    Accepts a Quaternion or a length-3/4 sequence.  The vector part is
    renormalised when it is within 1e-9 of unit length; anything further
    off, NaN included, is rejected rather than silently rescaled.
    """
    if isinstance(value, Quaternion):
        q = value
    else:
        seq = list(value)
        if len(seq) == 3:
            q = Quaternion(0.0, *map(float, seq))
        else:
            q = Quaternion.from_array(seq)
    if not abs(q.w) <= 1e-12:
        raise InputError("imaginary unit must have zero real part")
    n = q.vec_norm()
    if not abs(n - 1.0) <= 1e-9:
        raise InputError(f"imaginary unit must have modulus 1, got {n}")
    return Quaternion(0.0, q.x / n, q.y / n, q.z / n)


def random_imaginary_unit(rng) -> Quaternion:
    """Uniform random J on the sphere of unit imaginary quaternions."""
    while True:
        v = rng.standard_normal(3)
        n = math.sqrt(float(v @ v))
        if n > 1e-6:
            return Quaternion(0.0, v[0] / n, v[1] / n, v[2] / n)


def random_quaternion(rng, scale: float = 1.0) -> Quaternion:
    c = rng.standard_normal(4) * scale
    return Quaternion(float(c[0]), float(c[1]), float(c[2]), float(c[3]))


@dataclass(frozen=True)
class SpectralSphere:
    """One S-spectrum component [u + J v]: a 2-sphere for v > 0, a real
    point for v = 0."""

    u: float
    v: float
    multiplicity: int = 1

    def __post_init__(self):
        if self.v < 0.0:
            raise InputError("spectral spheres store v >= 0")
        if self.multiplicity < 1:
            raise InputError("multiplicity must be a positive integer")

    def trace_points(self, J: Quaternion):
        """Intersection with the plane through J: one point if real,
        the conjugate pair u +- J v otherwise."""
        if self.v == 0.0:
            return (Quaternion(self.u),)
        return (Quaternion.embed(self.u, J, self.v),
                Quaternion.embed(self.u, J, -self.v))

    def distance(self, other: "SpectralSphere") -> float:
        return math.hypot(self.u - other.u, self.v - other.v)

    def point_distance(self, u: float, v: float) -> float:
        """Half-plane distance from (u, v), v >= 0, to this sphere."""
        return math.hypot(self.u - u, self.v - abs(v))
