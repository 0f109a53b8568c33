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

Both are one-request calls of ``contour.integrate``, which checks the
winding rule (CALCULUS_TURNS, PROJECTOR_TURNS) in its pass.  Several
calculus values on one contour and stem side come from one integrate
pass of (kind, stem) requests, each times its PREFACTOR, the same bit
for bit as apply_calculus.
"""

from __future__ import annotations

import math

from .contour import Contour, integrate
from .errors import HypothesisError, PreconditionError
from .kernels import CalculusKind
from .operators import CommutingOperator
from .qlinalg import QuatMatrix
from .slicefn import FueterOp, PAPoly, SlicePoly, fueter_apply, is_degree

__all__ = [
    "CalculusKind",
    "apply_calculus",
    "stem_moment",
    "riesz_projector",
]


# the winding numbers that a calculus's contour may have about each
# spectral point, and those of a projector's
CALCULUS_TURNS = frozenset({1})
PROJECTOR_TURNS = frozenset({0, 1})

PREFACTOR = {
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


def apply_calculus(kind: CalculusKind, f: SlicePoly, T: CommutingOperator,
                   c: Contour) -> QuatMatrix:
    """Evaluate one calculus: prefactor times the pairing of the stem f
    with the kind's kernel over a contour enclosing all of sigma_S(T),
    one request of integrate's."""
    kind = CalculusKind(kind)
    return integrate(c, T, [(kind, f)], CALCULUS_TURNS)[0] * PREFACTOR[kind]


def stem_moment(kind: CalculusKind, T: CommutingOperator, m: int) -> QuatMatrix:
    """Closed form of apply_calculus(kind, q^m, T, .): T^m for S, and the
    image of q^m under D, Dbar or Delta, evaluated at T, for Q, P2 and F.

    The images have real coefficients, so the same matrix serves left
    stems (coefficient on the right) and right stems (on the left).
    PreconditionError unless m is a degree (slicefn.is_degree).
    """
    kind = CalculusKind(kind)
    if not is_degree(m):
        raise PreconditionError(f"moment index must be a non-negative integer, got {m!r}")
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
    prefactor, degree = _PROJECTOR[kind]
    return integrate(c, T, [(kind, SlicePoly.monomial(degree))], PROJECTOR_TURNS)[0] * prefactor
