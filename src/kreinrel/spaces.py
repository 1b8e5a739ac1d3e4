"""Krein spaces and their doubled-space symmetries.

A Krein space is C^n with a fundamental symmetry J (Hermitian
involution) inducing the indefinite metric [x, y] = <x, Jy>.  The
doubled space C^{2n} of graph pairs carries the symmetry

    hat(J) = [[0, -iJ], [iJ, 0]],

read as ``KreinSpace.hat``, built once per space and read-only.  A
boundary (Hilbert) space C^m is ``hilbert_space(m)``: one shared
instance per m, with a read-only J = I.  Since hat(J)^2 =
diag(J^2, J^2), the involution check of ``make_krein`` covers the
doubled symmetry too.  Krein adjoints of plain matrices are
X+ = J_from X* J_to.
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .subspaces import _as_matrix

__all__ = [
    "KreinSpace",
    "make_krein",
    "hilbert_space",
    "krein_adjoint_matrix",
]

_SNAP_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class KreinSpace:
    """Dimension, fundamental symmetry and negative index."""

    dim: int
    J: np.ndarray
    neg_index: int

    def __eq__(self, other):
        if not isinstance(other, KreinSpace):
            return NotImplemented
        return self.dim == other.dim and np.allclose(self.J, other.J)

    @cached_property
    def hat(self):
        """The 2n x 2n symmetry [[0, -iJ], [iJ, 0]] of the doubled space."""
        n = self.dim
        top = np.hstack([np.zeros((n, n)), -1j * self.J])
        bot = np.hstack([1j * self.J, np.zeros((n, n))])
        out = np.vstack([top, bot])
        out.setflags(write=False)
        return out


def make_krein(J) -> KreinSpace:
    """Validate a fundamental symmetry and compute the negative index.

    J must be Hermitian with J^2 = I; its eigenvalues are snapped to
    +-1 and the count of -1's is the negative index kappa_minus.
    """
    J = _as_matrix(J)
    n = J.shape[0]
    if J.shape != (n, n):
        raise ValidationError("fundamental symmetry must be square")
    if np.linalg.norm(J - J.conj().T) > _SNAP_TOL:
        raise ValidationError("fundamental symmetry is not Hermitian")
    if np.linalg.norm(J @ J - np.eye(n)) > _SNAP_TOL:
        raise ValidationError("fundamental symmetry is not involutive")
    eigs = np.linalg.eigvalsh(J) if n else np.zeros(0)
    if n and np.max(np.abs(np.abs(eigs) - 1.0)) > _SNAP_TOL:
        raise ValidationError("eigenvalues of J are not within tolerance of +-1")
    neg = int(np.sum(eigs < 0))
    return KreinSpace(dim=n, J=J, neg_index=neg)


@cache
def hilbert_space(n) -> KreinSpace:
    """The standard Hilbert space C^n (J = I, negative index 0).

    One shared instance per n, so its hat is built once; its J and
    hat are read-only, so no caller can change the shared space."""
    J = np.eye(n, dtype=complex)
    J.setflags(write=False)
    return KreinSpace(dim=int(n), J=J, neg_index=0)


def _pair_metric(K_from: KreinSpace, K_to: KreinSpace):
    """diag(hat J_from, -hat J_to): a relation between the two doubled
    spaces is isometric exactly when its graph is neutral here."""
    a, b = 2 * K_from.dim, 2 * K_to.dim
    out = np.zeros((a + b, a + b), dtype=complex)
    out[:a, :a] = K_from.hat
    out[a:, a:] = -K_to.hat
    return out


def _classify_graph(basis, metric, tol):
    """'unitary', 'isometric' or 'not_isometric' for the span of an
    orthonormal basis against a Hermitian metric of balanced signature.

    The span is neutral when every entry of basis* metric basis is
    within ``angle_tol``; a neutral span of half the ambient dimension
    is hypermaximal neutral, which is 'unitary'.
    """
    gram = basis.conj().T @ metric @ basis
    if np.any(np.abs(gram) > tol.angle_tol):
        return "not_isometric"
    return "unitary" if 2 * basis.shape[1] == metric.shape[0] else "isometric"


def krein_adjoint_matrix(X, K_from: KreinSpace, K_to: KreinSpace):
    """Krein adjoint of a matrix: X+ = J_from X* J_to.

    X maps K_from -> K_to and X+ maps K_to -> K_from; the pairing
    identity [Xf, h]_to = [f, X+ h]_from holds for all f, h.
    """
    X = _as_matrix(X)
    if X.shape != (K_to.dim, K_from.dim):
        raise DimensionMismatchError(
            f"matrix shape {X.shape} does not map C^{K_from.dim} -> C^{K_to.dim}"
        )
    return K_from.J @ X.conj().T @ K_to.J
