"""The joint-eigenbasis contraction of contour.integrate on the non-normal
corpus: where kernel_sum falls back to one pencil inversion per node, the
value is that path's bit for bit; where it sums in the eigenbasis, the
value matches the per-node oracle and is as close to stem_moment."""

from collections import Counter
from functools import partial

import numpy as np
import pytest

import corpus
from conftest import pair_per_node
from sspectrum import SlicePoly, integrate, kernels
from sspectrum.calculus import stem_moment
from sspectrum.contour import auto_contour
from sspectrum.errors import SingularMatrixError
from sspectrum.kernels import CalculusKind, kernel
from sspectrum.operators import JOINT_SPECTRUM_BOUND, CommutingOperator

EPS = float(np.finfo(np.float64).eps)
# The eigenbasis value may be this many times further from stem_moment
# than the per-node value: on the corpus it was at most 1.5 times where
# the per-node error exceeds 64 eps, and 3.4 times below, where both are
# the rounding of stem_moment itself (at most 3.6e-15).
ERROR_FACTOR = 4.0
ERROR_FLOOR = 64 * EPS
# integrate carries no prefactor; these make it the calculus value
PREFACTOR = {CalculusKind.S: 0.5 / np.pi, CalculusKind.Q: -1.0 / np.pi,
             CalculusKind.P2: 0.5 / np.pi, CalculusKind.F: 0.5 / np.pi}

MEMBERS = [(name, t1) for name in corpus.BASES for t1 in (0.0, 0.3)]


def _per_node(T):
    """A copy of T whose cached eigenbasis is None, so that kernel_sum
    takes the per-node path, and s_spectrum and
    has_real_component_spectra the Schur route."""
    copy = CommutingOperator(*T.components)
    vars(copy)["eigenbasis"] = None
    return copy


def _integrate(c, kind, T, f):
    """integrate's value or its SingularMatrixError, and whether it ran
    the per-node path (called _pencil_term)."""
    calls = []
    original = kernels._pencil_term

    def counting(*args):
        calls.append(1)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_pencil_term", counting)
        try:
            return integrate(c, T, [(kind, f)])[0], bool(calls)
        except SingularMatrixError as exc:
            return exc, bool(calls)


@pytest.mark.parametrize("name, t1", MEMBERS)
@pytest.mark.parametrize("kind", list(CalculusKind))
@pytest.mark.parametrize("side", ["left", "right"])
def test_corpus_eigenbasis_or_exact_fallback(name, t1, kind, side):
    T = corpus.operator(corpus.BASES[name], t1)
    c = auto_contour(T.spheres, range(len(T.spheres)), N=256)
    f = SlicePoly.monomial(3, side=side)
    got, per_node = _integrate(c, kind, T, f)
    want, _ = _integrate(c, kind, _per_node(T), f)
    if per_node:
        if isinstance(want, SingularMatrixError):
            assert isinstance(got, SingularMatrixError)
            assert got.batch_index == want.batch_index
        else:
            assert np.array_equal(got.data, want.data)
        return
    assert T.eigenbasis is not None
    # the pairing does not depend on N; 32 nodes per circle keep the
    # per-node oracle, one kernel call per node, quick
    coarse = c.with_nodes(32)
    oracle, scale = pair_per_node(coarse, partial(kernel, kind, T, side=side), f, side)
    assert (integrate(coarse, T, [(kind, f)])[0] - oracle).norm() <= 1e-12 * scale
    exact = stem_moment(kind, T, 3)
    error = lambda v: (v * PREFACTOR[kind] - exact).norm() / max(exact.norm(), 1.0)
    assert error(got) <= ERROR_FACTOR * max(error(want), ERROR_FLOOR)


def test_corpus_takes_both_paths():
    """Grcar matrices are non-normal but have a well-conditioned
    eigenbasis; a Jordan block has none, and Kahan's and Frank's are too
    ill-conditioned for the contour's nodes."""
    basis = {name: corpus.operator(B, 0.0).eigenbasis for name, B in corpus.BASES.items()}
    assert basis["grcar8"] is not None and basis["grcar12"] is not None
    assert basis["jordbloc8"] is None and basis["jordbloc12"] is None
    for name in ("kahan10", "frank8"):
        T = corpus.operator(corpus.BASES[name], 0.0)
        c = auto_contour(T.spheres, range(len(T.spheres)), N=256)
        assert _integrate(c, CalculusKind.S, T, SlicePoly.monomial(3))[1]


def _true_spheres(name, t1):
    """The S-spectrum of a corpus member from the known eigenvalues mu of
    its base matrix B: T0 = B and T1 = t1 B^2 have the joint eigenvalues
    (mu, t1 mu^2), so each distinct mu of multiplicity k gives the
    sphere (mu, t1 mu^2) of multiplicity k, or for t1 = 0 the real point
    mu of multiplicity 2k.  A Jordan block has the one eigenvalue on its
    diagonal, and Kahan's triangular matrix its diagonal.  Frank's come
    in pairs mu and 1/mu, so its ill-conditioned small eigenvalues are
    the reciprocals of its well-conditioned large ones.  Grcar's have no
    closed form: None."""
    B = corpus.BASES[name]
    if name.startswith("grcar"):
        return None
    if name.startswith("frank"):
        large = np.sort(np.linalg.eigvals(B).real)[len(B) // 2:]
        mu = np.concatenate((1.0 / large, large))
    else:
        mu = np.diag(B)
    return sorted((u, t1 * u * u, k if t1 else 2 * k)
                  for u, k in Counter(mu.tolist()).items())


@pytest.mark.parametrize("name, t1", MEMBERS)
def test_corpus_spectrum_route(name, t1):
    """Every member's spheres, on its own route and on the Schur route,
    are the true ones within 1e-12 of their reach; Grcar's, which have no
    closed form, are those of the basis route.  Frank(8), whose basis
    fails the spectrum's bound, and the Jordan blocks, which have none,
    take the Schur route.  Realness is that of the true spectrum on both
    routes."""
    T = corpus.operator(corpus.BASES[name], t1)
    basis = T.eigenbasis
    on_basis = basis is not None and basis.kappa * max(basis.residual, EPS) <= JOINT_SPECTRUM_BOUND
    assert on_basis == (name not in ("frank8", "jordbloc8", "jordbloc12"))
    want = _true_spheres(name, t1)
    if want is None:
        want = [(sp.u, sp.v, sp.multiplicity) for sp in T.spheres]
    reach = max(abs(complex(u, v)) for u, v, _ in want)
    for copy in (T, _per_node(T)):
        got = [(sp.u, sp.v, sp.multiplicity) for sp in copy.spheres]
        assert [k for _, _, k in got] == [k for _, _, k in want]
        for (u, v, _), (wu, wv, _) in zip(got, want):
            assert abs(u - wu) <= 1e-12 * reach and abs(v - wv) <= 1e-12 * reach
            assert (v == 0.0) == (wv == 0.0)
        assert copy.has_real_component_spectra() == (not name.startswith("grcar"))
