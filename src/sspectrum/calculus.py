"""The four functional calculi and their Riesz projectors.

Each calculus pairs a stem f with one kernel over a contour enclosing
the whole S-spectrum:

    kind   prefactor   kernel          semantics (left stems)
    S      1/(2 pi)    S_L^-1          f(T)
    Q      -1/pi       Q_{c,s}^-1      (D f)(T)
    P2     1/(2 pi)    P2_L            (Dbar f)(T)
    F      1/(2 pi)    F_L             (Delta f)(T)

Right stems use the right kernels and the right pairing.  On a
polynomial stem every calculus has a quadrature-free value, the second
step of the Fueter mapping theorem: ``stem_moment`` evaluates the exact
power rules of :mod:`sspectrum.slicefn` at T.

Riesz projectors integrate each kernel against a fixed monomial around
one spectral cluster:

    kind   prefactor    monomial
    S      1/(2 pi)     s^0
    Q      1/(2 pi)     s^1
    P2     1/(8 pi)     s^1
    F      -1/(8 pi)    s^2

For the Q, P2 and F kinds the projector theory requires T3 = 0 and
components with real spectrum; violations raise rather than silently
returning a non-projector.
"""

from __future__ import annotations

import math

from .contour import Contour, check_winding, integrate
from .errors import HypothesisError, PreconditionError
from .kernels import CalculusKind
from .operators import CommutingOperator
from .qlinalg import QuatMatrix
from .slicefn import FueterOp, PAPoly, SlicePoly, fueter_apply

__all__ = [
    "CalculusKind",
    "apply_calculus",
    "apply_stems",
    "stem_moment",
    "riesz_projector",
]


_PREFACTOR = {
    CalculusKind.S: 1.0 / (2.0 * math.pi),
    CalculusKind.Q: -1.0 / math.pi,
    CalculusKind.P2: 1.0 / (2.0 * math.pi),
    CalculusKind.F: 1.0 / (2.0 * math.pi),
}

_FUETER = {CalculusKind.Q: FueterOp.D, CalculusKind.P2: FueterOp.DBAR,
           CalculusKind.F: FueterOp.DELTA}

# (prefactor, monomial degree) of each projector, paired on the left
_PROJECTOR = {
    CalculusKind.S: (1.0 / (2.0 * math.pi), 0),
    CalculusKind.Q: (1.0 / (2.0 * math.pi), 1),
    CalculusKind.P2: (1.0 / (8.0 * math.pi), 1),
    CalculusKind.F: (-1.0 / (8.0 * math.pi), 2),
}


def _check_encloses(c: Contour, T: CommutingOperator, turns):
    """c winds about each spectral point p a number of times in turns,
    {1} for a calculus and {0, 1} for a projector, clearing p by
    1e-9 max(R, |p|), R the largest radius of c, so that the rule reads
    the same at every scale of T."""
    R = max((r for (_, _, r) in c.plane_circles()), default=0.0)
    check_winding(c, [(sp.u, sp.v, 1e-9 * max(R, math.hypot(sp.u, sp.v)))
                      for sp in T.spheres], turns, "spectrum point")


def apply_calculus(kind: CalculusKind, f: SlicePoly, T: CommutingOperator,
                   c: Contour) -> QuatMatrix:
    """Evaluate one calculus: prefactor times the pairing of the stem f
    with the kind's kernel over a contour enclosing all of sigma_S(T)."""
    return apply_stems(kind, [f], T, c)[0]


def apply_stems(kind: CalculusKind, stems, T: CommutingOperator,
                c: Contour):
    """Evaluate one calculus on several stems of a common side, from one
    pass of pencil inversions over the contour nodes; each stem's
    weights are contracted with their own product, so every value equals
    the single-stem apply_calculus bit for bit."""
    stems = list(stems)
    if not stems:
        return []
    kind = CalculusKind(kind)
    _check_encloses(c, T, {1})
    return [val * _PREFACTOR[kind] for val in integrate(c, kind, T, stems)]


def stem_moment(kind: CalculusKind, T: CommutingOperator, m: int) -> QuatMatrix:
    """Closed form of apply_calculus(kind, q^m, T, .): T^m for S, and the
    image of q^m under D, Dbar or Delta, evaluated at T, for Q, P2 and F.

    The images have real coefficients, so the same matrix serves left
    stems (coefficient on the right) and right stems (on the left).
    """
    kind = CalculusKind(kind)
    if m < 0:
        raise PreconditionError("moment index must be non-negative")
    if kind is CalculusKind.S:
        return PAPoly({(m, 0): 1.0}).at_operator(T)
    return fueter_apply(SlicePoly.monomial(m), _FUETER[kind]).at_operator(T)


def riesz_projector(kind: CalculusKind, T: CommutingOperator, c: Contour) -> QuatMatrix:
    """Spectral projector of the requested kind over the contour c.

    c must enclose a spectral subset at positive distance from the rest.
    The Q, P2 and F kinds additionally require T3 = 0 and components
    with real spectrum.
    """
    kind = CalculusKind(kind)
    if kind is not CalculusKind.S:
        if not T.has_zero_e3():
            raise HypothesisError(
                f"{kind.value} projector requires a vanishing e3 component")
        if not T.has_real_component_spectra():
            raise HypothesisError(
                f"{kind.value} projector requires components with real spectrum")
    if not c.components:
        return QuatMatrix.zeros(T.n)
    _check_encloses(c, T, {0, 1})
    prefactor, degree = _PROJECTOR[kind]
    return integrate(c, kind, T, [SlicePoly.monomial(degree)])[0] * prefactor
