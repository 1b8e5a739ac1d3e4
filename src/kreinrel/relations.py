"""Linear relations as graph subspaces.

A linear relation from C^n to C^m is a subspace of C^{n+m}; the first
n coordinates are the input, the last m the output.  Operators are
relations via their graphs.  A relation is held by an orthonormal
graph basis, whose input rows are F and output rows G.

Every operation is one null space of stacked row blocks of the input
graph bases, followed by at most one column space: the null space
holds the coefficients of the graph elements that meet the defining
constraints, and the result is spanned by row blocks of the bases
times those coefficients.  Compositions, operatorwise sums, domain
restrictions (and through them Shmul'yan transforms),
adjoints, kernels, multivalued parts and eigenspaces are all of this
form; the point spectrum rank-tests the candidates of the pencil
(G, F).  Symmetry and self-adjointness in a Krein space are one Gram
matrix of the graph basis against the doubled symmetry hat(J).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .spaces import KreinSpace, _classify_graph
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    _as_matrix,
    _rank,
    column_space,
    contains,
    full_space,
    null_space,
    orth_complement,
    principal_angles,
    subspace_equal,
    subspace_sum,
)

__all__ = [
    "LinearRelation",
    "SpectrumReport",
    "rel_from_operator",
    "identity_relation",
    "full_relation",
    "rel_equal",
    "rel_contains",
    "compose",
    "cw_sum",
    "op_sum",
    "hilbert_adjoint",
    "krein_adjoint",
    "shmulyan",
    "point_spectrum",
    "in_resolvent",
    "sigma_p_contains",
    "is_symmetric",
    "is_selfadjoint",
]


class LinearRelation:
    """A relation from C^{from_dim} to C^{to_dim} held by its graph."""

    __slots__ = ("from_dim", "to_dim", "graph")

    def __init__(self, from_dim, to_dim, graph: Subspace):
        if graph.ambient_dim != from_dim + to_dim:
            raise DimensionMismatchError(
                f"graph ambient {graph.ambient_dim} != {from_dim} + {to_dim}"
            )
        object.__setattr__(self, "from_dim", int(from_dim))
        object.__setattr__(self, "to_dim", int(to_dim))
        object.__setattr__(self, "graph", graph)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("LinearRelation is immutable")

    # -- raw blocks ----------------------------------------------------
    @property
    def F(self):
        """Input rows of the graph basis."""
        return self.graph.basis[: self.from_dim]

    @property
    def G(self):
        """Output rows of the graph basis."""
        return self.graph.basis[self.from_dim :]

    @property
    def dim(self):
        return self.graph.dim

    def __repr__(self):
        return (
            f"LinearRelation({self.from_dim}->{self.to_dim}, "
            f"graph dim {self.dim})"
        )

    # -- parts ---------------------------------------------------------
    def dom(self, tol):
        return column_space(self.F, tol)

    def ran(self, tol):
        return column_space(self.G, tol)

    def ker(self, tol):
        """ker T = F null(G): [F; G] null(G) is orthonormal and G null(G)
        lies below the rank cutoff, so F null(G) is orthonormal as it
        stands (one SVD)."""
        return Subspace._of(self.from_dim,
                            self.F @ null_space(self.G, tol).basis)

    def mul(self, tol):
        """mul T = G null(F), orthonormal as it stands (see ``ker``)."""
        return Subspace._of(self.to_dim,
                            self.G @ null_space(self.F, tol).basis)

    def is_operator(self, tol):
        """mul T = {0}, i.e. null(F) = {0}: the graph basis is
        orthonormal, so G null(F) has the dimension of null(F)."""
        return null_space(self.F, tol).dim == 0

    # -- elementary transforms -----------------------------------------
    def inverse(self):
        basis = np.vstack([self.G, self.F])
        return LinearRelation(self.to_dim, self.from_dim, Subspace._of(
            self.to_dim + self.from_dim, basis))

    def ran_shifted(self, z, tol):
        """ran(T - zI) as a subspace, without forming the relation."""
        _require_square(self)
        return column_space(self.G - z * self.F, tol)

    def eigenspace(self, z, tol) -> Subspace:
        """N_z(T) = ker(T - zI) = {f : (f, zf) in T}.  F null(G - zF)
        is orthonormal only after scaling by sqrt(1 + |z|^2), with an
        error that grows with |z|, so it is re-orthonormalised."""
        _require_square(self)
        coeff = null_space(self.G - z * self.F, tol)
        return column_space(self.F @ coeff.basis, tol)

    def graph_restriction(self, z, tol):
        """T ∩ zI = {(f, zf) : f in N_z(T)} as a relation: the graph
        basis times null(G - zF), which is orthonormal as it stands."""
        _require_square(self)
        coeff = null_space(self.G - z * self.F, tol)
        return LinearRelation(self.from_dim, self.to_dim, Subspace._of(
            self.graph.ambient_dim, self.graph.basis @ coeff.basis))

    def restrict_domain(self, S: Subspace, tol):
        """The restriction {(f, f') in T : f in S}: the graph basis
        times null(S_perp* F), which is orthonormal as it stands."""
        if S.ambient_dim != self.from_dim:
            raise DimensionMismatchError("restricting subspace has wrong ambient")
        coeff = null_space(orth_complement(S, tol).basis.conj().T @ self.F, tol)
        return LinearRelation(self.from_dim, self.to_dim, Subspace._of(
            self.graph.ambient_dim, self.graph.basis @ coeff.basis))

    # -- matrix views --------------------------------------------------
    def to_matrix(self, tol):
        """Matrix of an everywhere-defined operator relation."""
        n = self.from_dim
        if self.dim != n:
            raise PreconditionError("relation is not an everywhere-defined operator")
        if n and _rank_of(self.F, tol.rank_rel) < n:
            raise PreconditionError("domain is not all of the input space")
        return self.G @ np.linalg.inv(self.F) if n else np.zeros((self.to_dim, 0))


def _require_square(T):
    if T.from_dim != T.to_dim:
        raise PreconditionError("operation requires a square relation")


# ---------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------

def rel_from_operator(M) -> LinearRelation:
    """The graph of a matrix as a relation, spanned by the n left singular
    vectors of [I; M]: sigma_min >= 1, so the rank is n at any tolerance."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise DimensionMismatchError("expected a matrix")
    m, n = M.shape
    A = _as_matrix(np.vstack([np.eye(n), M]))
    return LinearRelation(n, m, Subspace._of(
        n + m, np.linalg.svd(A, full_matrices=False)[0]))


def identity_relation(n) -> LinearRelation:
    return rel_from_operator(np.eye(n, dtype=complex))


def full_relation(n, m=None) -> LinearRelation:
    """The everything relation C^n x C^m."""
    m = n if m is None else m
    return LinearRelation(n, m, full_space(n + m))


def rel_equal(T: LinearRelation, S: LinearRelation, tol):
    if (T.from_dim, T.to_dim) != (S.from_dim, S.to_dim):
        return False
    return subspace_equal(T.graph, S.graph, tol)


def _rel_residual(T: LinearRelation, S: LinearRelation):
    """Max principal angle between graphs; 1.0 on dimension mismatch."""
    if T.graph.dim != S.graph.dim:
        return 1.0
    return float(np.max(principal_angles(T.graph, S.graph), initial=0.0))


def rel_contains(T: LinearRelation, S: LinearRelation, tol):
    """True iff S is a subrelation of T (graph containment)."""
    if (T.from_dim, T.to_dim) != (S.from_dim, S.to_dim):
        return False
    return contains(T.graph, S.graph, tol)


# ---------------------------------------------------------------------
# sums and composition
# ---------------------------------------------------------------------

def cw_sum(V: LinearRelation, W: LinearRelation, tol):
    """Componentwise sum: the subspace sum of the graphs."""
    if (V.from_dim, V.to_dim) != (W.from_dim, W.to_dim):
        raise DimensionMismatchError("componentwise sum needs matching spaces")
    return LinearRelation(
        V.from_dim, V.to_dim, subspace_sum(V.graph, W.graph, tol))


def op_sum(T: LinearRelation, R: LinearRelation, tol):
    """Operatorwise sum {(f, a + b) : (f, a) in T, (f, b) in R}: with
    (a; b) spanning null([T_F, -R_F]), the span of
    [T_F a; T_G a + R_G b]."""
    if (T.from_dim, T.to_dim) != (R.from_dim, R.to_dim):
        raise DimensionMismatchError("operatorwise sum needs matching spaces")
    N = null_space(np.hstack([T.F, -R.F]), tol).basis
    a, b = N[: T.dim], N[T.dim :]
    return LinearRelation(T.from_dim, T.to_dim, column_space(
        np.vstack([T.F @ a, T.G @ a + R.G @ b]), tol))


def compose(R: LinearRelation, X: LinearRelation, tol=DEFAULT_TOL):
    """The composition R X = {(f, h) : exists g, (f,g) in X, (g,h) in R}:
    with (a; b) spanning null([X_G, -R_F]), the span of [X_F a; R_G b].
    ``tol`` keeps its default for perfbench's ``compose(T, T)``."""
    if X.to_dim != R.from_dim:
        raise DimensionMismatchError("inner dimensions of the composition differ")
    N = null_space(np.hstack([X.G, -R.F]), tol).basis
    a, b = N[: X.dim], N[X.dim :]
    return LinearRelation(X.from_dim, R.to_dim, column_space(
        np.vstack([X.F @ a, R.G @ b]), tol))


# ---------------------------------------------------------------------
# adjoints
# ---------------------------------------------------------------------

def hilbert_adjoint(T: LinearRelation, tol):
    """T* = {(k, h) : <f', k> = <f, h> for all (f, f') in T}."""
    constraint = np.hstack([T.G.conj().T, -T.F.conj().T])
    ns = null_space(constraint, tol)
    return LinearRelation(T.to_dim, T.from_dim, ns)


def krein_adjoint(T: LinearRelation, K_from: KreinSpace, K_to: KreinSpace,
                  tol):
    """T+ = {(k, h) : [f', k]_to = [f, h]_from for all (f, f') in T}.

    Solved as a single null-space problem from the graph basis; equal
    to J_from T* J_to as a relation composition (used as a test
    oracle, not here).
    """
    if K_from.dim != T.from_dim or K_to.dim != T.to_dim:
        raise DimensionMismatchError("Krein spaces do not match the relation")
    constraint = np.hstack([
        T.G.conj().T @ K_to.J, -T.F.conj().T @ K_from.J
    ])
    ns = null_space(constraint, tol)
    return LinearRelation(T.to_dim, T.from_dim, ns)


def _hat_class(T: LinearRelation, K: KreinSpace, tol):
    """The Gram classification of T's graph basis against hat(J):
    neutral is T ⊆ T+, hypermaximal neutral ('unitary') is T = T+."""
    _require_square(T)
    if K.dim != T.from_dim:
        raise DimensionMismatchError("Krein space does not match the relation")
    return _classify_graph(T.graph.basis, K.hat, tol)


def is_symmetric(T: LinearRelation, K: KreinSpace, tol):
    """T ⊆ T+ with respect to the Krein space K."""
    return _hat_class(T, K, tol) != "not_isometric"


def is_selfadjoint(T: LinearRelation, K: KreinSpace, tol):
    """T = T+ with respect to the Krein space K."""
    return _hat_class(T, K, tol) == "unitary"


# ---------------------------------------------------------------------
# Shmul'yan transform
# ---------------------------------------------------------------------

def shmulyan(V: LinearRelation, S: Subspace, tol) -> LinearRelation:
    """The Shmul'yan transform V(S) = ran(V|_S) as a relation, for a
    subspace S of the space V maps from.

    The codomain of V must be a doubled space C^{2m'}; the image
    subspace is read as a graph there.
    """
    if V.to_dim % 2:
        raise PreconditionError(
            "Shmul'yan transform needs an even (doubled) codomain")
    half = V.to_dim // 2
    return LinearRelation(half, half, V.restrict_domain(S, tol).ran(tol))


# ---------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: tuple  # ((z, eigenspace_dim), ...)
    all_flag: bool      # sigma_p = C (singular pencil)


# Fixed generic probe points for the singular-pencil test.  A nonzero
# pencil determinant cannot vanish at all three.
_PROBE_POINTS = (0.73462815 + 1.12904873j,
                 -1.31175062 + 0.41923571j,
                 0.20893117 - 0.87341209j)

_EIG_RTOL = 1e-7
# Merge radius _MERGE_RTOL (1 + |w|): a point this close to an eigenvalue
# w counts as w, both among pencil candidates and for the points that
# boundary.py keeps off sigma0_p(T) and its conjugates.
_MERGE_RTOL = 1e-8


def _near(z, w):
    """z lies within the merge radius _MERGE_RTOL (1 + |w|) of w."""
    return abs(z - w) <= _MERGE_RTOL * (1.0 + abs(w))


# Slack on rank_rel shared by the resolvent-type rank tests, whose
# verdicts must agree: in_resolvent, point_spectrum's singular-pencil
# probes and boundary's main-transform resolvent test all cut at
# rank_rel * _RESOLVENT_SLACK (times their size and scale factors).
_RESOLVENT_SLACK = 1e3
# Least reciprocal condition number 1 / (||A|| ||A^{-1}||), exact from
# the inverse in hand (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., ch. 15), of a matrix A that is solved with:
# boundary's pencil split (L, and the triangular factor of the
# eigenvector matrix V) and point_spectrum's screen (Fc).
_SPLIT_RCOND = 1e-6
# Loose pre-filter ahead of the _EIG_RTOL rank test: a pencil candidate
# whose eigenvector residual ||(G - zF)x|| / (max(1, ||G - zF||_F) ||x||)
# is above it is not rank tested.  Eigenvalues of T leave residuals at
# rounding level, Jordan blocks included (eig is backward stable);
# candidates that only the compression adds left 0.03 and more on the
# random n = 4..128 relations.  The same filter is point_spectrum's
# screen: where no eigenvalue of Fc^{-1} Gc passes it, T has none and
# the QZ is skipped.
_EIG_RESIDUAL = 1e-4


def _rank_of(A, rtol):
    """The numerical rank of a nonempty A by subspaces._rank, whose
    reference scale is floored at 1: A is a combination of graph-basis
    rows, so a G - zF that is rounding noise is rank zero, not full
    rank."""
    return _rank(np.linalg.svd(A, compute_uv=False), A.shape, rtol)


def _residual_ok(F, G, z, X):
    """The _EIG_RESIDUAL pre-filter for all candidates z at once, with
    pencil eigenvectors the columns of X.  ||G - zF||_F^2 is expanded as
    ||G||^2 + |z|^2 ||F||^2 - 2 Re(conj(z) tr(F* G)); where G - zF ~ 0
    that is cancellation noise, which the floor at 1 makes harmless."""
    R = G @ X - (F @ X) * z
    FF, GG, FG = np.vdot(F, F).real, np.vdot(G, G).real, np.vdot(F, G)
    norm2 = GG + np.abs(z) ** 2 * FF - 2.0 * (z.conj() * FG).real
    scale = np.maximum(1.0, np.sqrt(np.maximum(norm2, 0.0)))
    return (np.linalg.norm(R, axis=0)
            <= _EIG_RESIDUAL * scale * np.linalg.norm(X, axis=0))


def _rcond(A, A_inv, norm):
    """The exact reciprocal condition number 1 / (||A|| ||A^{-1}||) in
    the given matrix norm, from an inverse already formed; 0 where the
    inverse overflowed."""
    r = 1.0 / (np.linalg.norm(A, norm) * np.linalg.norm(A_inv, norm))
    return r if np.isfinite(r) else 0.0


def _screen_rejects(F, G, Fc, Gc):
    """True when one standard eigenproblem shows that T has no
    eigenvalue: Fc passes the _SPLIT_RCOND guard and no eigenvalue of
    Fc^{-1} Gc passes the residual pre-filter against the full G - zF."""
    try:
        Fc_inv = np.linalg.inv(Fc)
    except np.linalg.LinAlgError:  # an exactly singular Fc
        return False
    if _rcond(Fc, Fc_inv, 1) < _SPLIT_RCOND:
        return False
    candidates, vectors = np.linalg.eig(Fc_inv @ Gc)
    return not _residual_ok(F, G, candidates, vectors).any()


def sigma_p_contains(T: LinearRelation, z):
    """True iff z is an eigenvalue (N_z(T) nontrivial), with a relaxed
    rank test suitable for eigenvalues found by a pencil solver."""
    _require_square(T)
    if T.dim == 0:
        return False
    return _rank_of(T.G - z * T.F, _EIG_RTOL) < T.dim


def point_spectrum(T: LinearRelation, tol) -> SpectrumReport:
    """Finite point spectrum of a square relation.

    Eigenvalue candidates come from the pencil (G, F) built from the
    graph basis, after a unitary compression to (Gc, Fc) when the
    pencil is rectangular.  A screen runs first, in numpy alone: where
    Fc is invertible and its exact reciprocal condition number
    1 / (||Fc||_1 ||Fc^{-1}||_1) passes the _SPLIT_RCOND guard, the
    candidates are the eigenvalues of Fc^{-1} Gc (one standard
    eigenproblem), and if none leaves G - zF an eigenvector residual
    below ``_EIG_RESIDUAL``, T has no eigenvalue.  Otherwise - a
    candidate survives, or Fc fails the guard (mul T != {0}, for
    one) - the generalized eigenvalues of (Gc, Fc) (QZ, the one call
    that loads scipy) are the candidates, and each one that passes the
    same residual filter is verified by a rank test of G - zF, so every
    reported eigenvalue comes from the QZ.  Infinite generalized
    eigenvalues (pencil null vectors with Fc = 0) belong to mul T and
    are discarded.  If the pencil is singular - rank deficient at three
    generic probe points - every z is an eigenvalue and the all-of-C
    flag is set.
    """
    _require_square(T)
    n, k = T.from_dim, T.dim
    if k == 0:
        return SpectrumReport((), False)
    F, G = T.F, T.G
    singular = all(_rank_of(G - z * F, tol.rank_rel * _RESOLVENT_SLACK) < k
                   for z in _PROBE_POINTS)
    if k > n or singular:
        return SpectrumReport((), True)
    if k == n:
        Fc, Gc = F, G
    else:
        rng = np.random.Generator(np.random.Philox(key=0x9E3779B97F4A7C15))
        U = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        U, _ = np.linalg.qr(U)
        Fc, Gc = U.conj().T @ F, U.conj().T @ G
    if _screen_rejects(F, G, Fc, Gc):
        return SpectrumReport((), False)
    import scipy.linalg
    with np.errstate(all="ignore"):
        candidates, vectors = scipy.linalg.eig(Gc, Fc)
    finite = np.isfinite(candidates)
    candidates, vectors = candidates[finite], vectors[:, finite]
    found = []
    for z in candidates[_residual_ok(F, G, candidates, vectors)]:
        z = complex(z)
        if any(_near(z, w) for w, _ in found):
            continue
        d = k - _rank_of(G - z * F, _EIG_RTOL)
        if d > 0:
            found.append((z, d))
    found.sort(key=lambda p: (round(p[0].real, 10), round(p[0].imag, 10)))
    return SpectrumReport(tuple(found), False)


def in_resolvent(T: LinearRelation, z, tol):
    """Finite-dimensional resolvent test: dim graph = n and trivial N_z."""
    _require_square(T)
    if T.dim != T.from_dim:
        return False
    if T.from_dim == 0:
        return True
    return _rank_of(T.G - z * T.F, tol.rank_rel * _RESOLVENT_SLACK) == T.dim

