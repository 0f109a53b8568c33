"""Quaternionic functional calculi on the S-spectrum.

Numerical library and verification CLI for the S-, Q-, P2- and
F-functional calculi of finite-dimensional quaternionic operators with
commuting components: kernels, contour quadrature, closed-form moment
oracles, Riesz projectors and a registry of operator identities scored
as residual norms.
"""

from .calculus import CalculusKind, apply_calculus, riesz_projector, stem_moment
from .contour import (Circle, Contour, DiskPair, auto_contour,
                      enclosing_circle, integrate)
from .identities import (IdentityReport, verify_all, verify_integral,
                         verify_pointwise, verify_seeded)
from .kernels import kernel, kernel_forms
from .operators import CommutingOperator, s_spectrum
from .qlinalg import QuatMatrix
from .quat import (E1, E2, E3, ONE, Quaternion, SpectralSphere,
                   imaginary_unit, qinv, qs_poly)
from .slicefn import FueterOp, PAPoly, SlicePoly, fueter_apply, stem_product, stem_shift

__version__ = "0.1.0"
