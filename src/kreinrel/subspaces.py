"""Dense complex subspace arithmetic.

Subspaces of C^n are represented by orthonormal bases (columns of a
complex matrix), and all operations reduce to singular value
decompositions.  The inner product is linear in the first argument and
conjugate-linear in the second: <x, y> = sum_i x[i] * conj(y[i]).

Numerical rank uses the standard cutoff ``rank_rel * sigma_max *
max(rows, cols)``; subspace equality means equal dimension plus maximal
principal angle below ``angle_tol``.

Bases are validated (finite entries, orthonormal columns) where data
enters: the public ``Subspace`` constructor, the generators and
``serialize.load``, and the inputs of ``column_space`` and
``null_space``.  Bases that are orthonormal by construction skip the
check through the private ``Subspace._of``: the singular vectors of
``column_space`` and ``null_space``, ``zero_subspace`` and
``full_space``, signed row permutations of an orthonormal basis,
products B N of an orthonormal basis B with an orthonormal null basis N,
and the row blocks F null(G) and G null(F) of a graph basis [F; G].
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Subspace",
    "column_space",
    "null_space",
    "intersect",
    "subspace_sum",
    "orth_complement",
    "contains",
    "principal_angles",
    "subspace_equal",
    "zero_subspace",
    "full_space",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds shared by every operation.

    rank_rel
        Relative singular-value cutoff for numerical rank.
    angle_tol
        Maximal principal angle (radians) below which two subspaces of
        equal dimension count as equal.
    """

    rank_rel: float = 1e-12
    angle_tol: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.rank_rel < 1.0) or not (0.0 < self.angle_tol < 1.0):
            raise ValidationError("tolerances must lie strictly between 0 and 1")


DEFAULT_TOL = Tolerance()


def _as_matrix(M):
    A = np.asarray(M, dtype=complex)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    if A.ndim != 2:
        raise ValidationError("expected a matrix (2d array)")
    if A.size and not np.isfinite(A).all():
        raise ValidationError("matrix has non-finite entries")
    return A


# Largest Frobenius distance of a public basis's Gram matrix from the
# identity: bases read from files or typed by hand carry rounding.
_ORTHONORMAL_ATOL = 1e-8


class Subspace:
    """A linear subspace of C^n held as an orthonormal basis.

    The zero subspace is a first-class value (a basis with zero
    columns).  Instances are immutable.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis):
        basis = _as_matrix(basis) if np.size(basis) else np.zeros(
            (ambient_dim, 0), dtype=complex
        )
        if basis.shape[0] != ambient_dim:
            raise DimensionMismatchError(
                f"basis has {basis.shape[0]} rows, ambient dimension is {ambient_dim}"
            )
        k = basis.shape[1]
        if k > ambient_dim:
            raise ValidationError("more basis vectors than ambient dimension")
        if k:
            gram = basis.conj().T @ basis
            if np.linalg.norm(gram - np.eye(k)) > _ORTHONORMAL_ATOL:
                raise ValidationError("basis columns are not orthonormal")
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "basis", basis)

    @classmethod
    def _of(cls, ambient_dim, basis):
        """A subspace from a complex basis with ``ambient_dim`` rows that
        is orthonormal by construction: no validation."""
        self = cls.__new__(cls)
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "basis", basis)
        return self

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self):
        return self.basis.shape[1]

    def project(self, x):
        """Orthogonal projection of a vector (or matrix of columns)."""
        x = np.asarray(x, dtype=complex)
        return self.basis @ (self.basis.conj().T @ x)

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"


def zero_subspace(n):
    return Subspace._of(n, np.zeros((n, 0), dtype=complex))


def full_space(n):
    return Subspace._of(n, np.eye(n, dtype=complex))


def _rank(s, shape, rtol):
    """The count of singular values ``s`` (descending) of a matrix of
    ``shape`` above rtol max(1, sigma_max) max(shape)."""
    # The reference scale is floored at 1: bases here are orthonormal,
    # so a block whose largest singular value is far below 1 is noise
    # (e.g. the domain slice of a purely multivalued graph), and a
    # relative cutoff would promote that noise to full rank.
    if len(s) == 0:
        return 0
    cutoff = rtol * max(s[0], 1.0) * max(shape)
    return int(np.count_nonzero(s > cutoff))


def column_space(M, tol=DEFAULT_TOL):
    """Orthonormal basis of the span of the columns of ``M``."""
    A = _as_matrix(M)
    n, k = A.shape
    if k == 0 or n == 0:
        return zero_subspace(n)
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    r = _rank(s, A.shape, tol.rank_rel)
    return Subspace._of(n, u[:, :r])


def null_space(M, tol=DEFAULT_TOL):
    """Orthonormal basis of ``{x : Mx = 0}``."""
    A = _as_matrix(M)
    n, k = A.shape
    if k == 0:
        return zero_subspace(0)
    if n == 0:
        return full_space(k)
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    r = _rank(s, A.shape, tol.rank_rel)
    return Subspace._of(k, vh[r:].conj().T)


def _check_ambient(U, V):
    if U.ambient_dim != V.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {U.ambient_dim} vs {V.ambient_dim}"
        )


def intersect(U, V, tol=DEFAULT_TOL):
    """The intersection of two subspaces of the same ambient space."""
    _check_ambient(U, V)
    if U.dim == 0 or V.dim == 0:
        return zero_subspace(U.ambient_dim)
    stacked = np.hstack([U.basis, -V.basis])
    coeff = null_space(stacked, tol)
    if coeff.dim == 0:
        return zero_subspace(U.ambient_dim)
    vectors = U.basis @ coeff.basis[: U.dim]
    return column_space(vectors, tol)


def subspace_sum(U, V, tol=DEFAULT_TOL):
    """The (componentwise) sum U + V."""
    _check_ambient(U, V)
    return column_space(np.hstack([U.basis, V.basis]), tol)


def orth_complement(U, tol=DEFAULT_TOL):
    """Euclidean orthogonal complement within the ambient space."""
    if U.dim == 0:
        return full_space(U.ambient_dim)
    return null_space(U.basis.conj().T, tol)


def contains(U, V, tol=DEFAULT_TOL):
    """True iff V is a subspace of U (within ``angle_tol``)."""
    _check_ambient(U, V)
    if V.dim == 0:
        return True
    if V.dim > U.dim:
        return False
    residual = V.basis - U.project(V.basis)
    return np.linalg.norm(residual) <= tol.angle_tol * np.sqrt(V.dim)


def principal_angles(U, V):
    """Principal angles between two subspaces, nondecreasing, radians.

    Returns ``min(dim U, dim V)`` angles.  Cosines are the singular
    values of ``U* V`` clipped to [0, 1]; angles smaller than pi/4 are
    recomputed from sines (singular values of ``(I - UU*)V``) to avoid
    the arccos precision loss near zero.
    """
    _check_ambient(U, V)
    if U.dim == 0 or V.dim == 0:
        return np.zeros(0)
    cosines = np.linalg.svd(U.basis.conj().T @ V.basis, compute_uv=False)
    cosines = np.clip(cosines, 0.0, 1.0)
    angles = np.arccos(cosines)  # ascending
    residual = V.basis - U.basis @ (U.basis.conj().T @ V.basis)
    sines = np.linalg.svd(residual, compute_uv=False)
    sines = np.clip(np.sort(sines)[: len(angles)], 0.0, 1.0)  # ascending
    small = cosines**2 > 0.5
    angles[small] = np.arcsin(sines[small])
    return angles


def subspace_equal(U, V, tol=DEFAULT_TOL):
    """Equality test: equal dimension and max principal angle <= angle_tol."""
    _check_ambient(U, V)
    if U.dim != V.dim:
        return False
    if U.dim == 0:
        return True
    return float(np.max(principal_angles(U, V))) <= tol.angle_tol
