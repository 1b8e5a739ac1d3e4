"""Boundary pairs over a symmetric relation, Weyl families and the
main transform.

A boundary pair consists of a Krein state space H = C^n (symmetry J),
a boundary space C^m, and a relation Gamma from the doubled space
C^{2n} to the doubled space C^{2m}.  With Gamma+ the Krein adjoint
between the hat symmetries and Gamma_# = (Gamma+)^{-1}, the pair is
isometric when Gamma is contained in Gamma_# and unitary when they are
equal.  The symmetric relation underneath is T = ker Gamma_#, and
A_* = dom Gamma spans T+.

Everything is read from B, the graph basis of Gamma in the row blocks
(f, f', l, l'), with B_H the (f, f') rows.  Gamma_# is the orthogonal
companion of Gamma in the metric W = diag(hat J_H, -hat J_L), so Gamma
is isometric exactly when B* W B = 0 and unitary when moreover
dim Gamma = n + m.  T = null(B_H* hat J_H), T0 = ker Gamma_0 is spanned
by B_H null(B_l) and T1 = ker Gamma_1 by B_H null(B_l').  The columns
of B null(B_l) are the elements (f, f', 0, l') of Gamma, so their l'
rows are Gamma_1 on T0.  Gamma is an operator when null(B_H) = {0},
and an ordinary boundary triple when moreover it is unitary and onto
C^{2m}.  The Weyl family M(z) = Gamma(A_* ∩ zI) and the gamma-field
come from one null space: C = B null(B_f' - z B_f) spans
{(f, zf, l, l') in Gamma}; M(z) is spanned by the (l, l') rows of C,
the gamma-field by (l, f).

Many z per pair share one split of the pencil (B_f', B_f) (the
frequency-response reduction of Laub, IEEE TAC 1981).  Once per pair,
Q from a QR of B_f* gives B_f Q = [L 0] with L n x n, and B_f' Q =
[P1 P2].  At each z one LU of P1 - zL yields the null basis
N = Q [-(P1 - zL)^{-1} P2; I], orthonormalised by a thin QR, and the
defect elements C = B N.  The same LU decides ran(A_* - z) = C^n (it
holds when the LU is nonsingular), and N decides z in res(main
transform) by the m x m matrix (B_l' + z B_l) N.  Each fast decision
carries a margin test - the LU's condition estimate (LAPACK gecon) and
the singular values of that m x m matrix - and otherwise falls back to
the direct formulas: the SVD null space, ran_shifted and in_resolvent.
Pairs with n below ``_SPLIT_MIN_N``, or with B_f rank deficient
(mul T nontrivial), always use the direct formulas.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .relations import (
    LinearRelation,
    _MERGE_RTOL,
    in_resolvent,
    is_symmetric,
    point_spectrum,
    shmulyan,
)
from .spaces import (
    KreinSpace,
    _classify_graph,
    _pair_metric,
    hilbert_space,
    make_krein,
)
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    column_space,
    null_space,
)

__all__ = [
    "BoundaryPair",
    "WeylSample",
    "SpectralSets",
    "gamma_sharp",
    "identity_obt",
    "weyl",
    "in_delta",
    "m_plus_z",
    "delta_excluded_points",
    "main_transform",
    "inverse_main_transform",
    "main_transform_space",
    "theta_extension",
    "spectral_sets",
    "defect_numbers",
    "green_pairing_ok",
]


def gamma_sharp(gamma: LinearRelation, H: KreinSpace, L_dim, tol=DEFAULT_TOL):
    """Gamma_# = (Gamma+)^{-1} between the doubled symmetries: the
    companion null(B* W) of Gamma's graph basis B in the metric
    W = diag(hat J_H, -hat J_L)."""
    if gamma.from_dim != 2 * H.dim or gamma.to_dim != 2 * L_dim:
        raise DimensionMismatchError(
            "gamma must map the doubled state space to the doubled "
            "boundary space")
    metric = _pair_metric(H, hilbert_space(L_dim))
    return LinearRelation(gamma.from_dim, gamma.to_dim, null_space(
        gamma.graph.basis.conj().T @ metric, tol))


class BoundaryPair:
    """State space, boundary dimension and boundary relation Gamma.

    The constructor checks shapes and classifies Gamma by one Gram
    matrix; everything else is computed lazily, on first use:

    classification
        'unitary' (Gamma = Gamma_#), 'isometric' (strict containment)
        or 'not_isometric' - Gram neutrality of Gamma's graph basis in
        diag(hat J_H, -hat J_L) plus the count dim Gamma = n + m.
    gamma_sharp
        Gamma_# = (Gamma+)^{-1} = null(B* W) for Gamma's graph basis B
        and W = diag(hat J_H, -hat J_L), cached on first read.
    """

    def __init__(self, H: KreinSpace, L_dim, gamma: LinearRelation,
                 tol=DEFAULT_TOL):
        if gamma.from_dim != 2 * H.dim or gamma.to_dim != 2 * L_dim:
            raise DimensionMismatchError(
                "gamma must map the doubled state space to the doubled "
                "boundary space")
        self.H = H
        self.L_dim = int(L_dim)
        self.gamma = gamma
        self.tol = tol
        metric = _pair_metric(H, hilbert_space(L_dim))
        self.classification = _classify_graph(gamma.graph.basis, metric, tol)

    @cached_property
    def gamma_sharp(self) -> LinearRelation:
        return gamma_sharp(self.gamma, self.H, self.L_dim, self.tol)

    @cached_property
    def _split(self):
        """The pencil split of (B_f', B_f), or None where the direct
        formulas are used: n below _SPLIT_MIN_N, no defect (dim Gamma
        <= n), or B_f rank deficient."""
        if self.n < _SPLIT_MIN_N:
            return None
        return _pencil_split(self.gamma.graph.basis, self.n)

    # -- derived objects ----------------------------------------------
    @property
    def n(self):
        return self.H.dim

    @property
    def m(self):
        return self.L_dim

    def is_obt(self):
        """Ordinary boundary triple: Gamma unitary, an operator and onto
        C^{2m}."""
        return (self.classification == "unitary"
                and self.gamma.is_operator(self.tol)
                and self.gamma.ran(self.tol).dim == 2 * self.m)

    def underlying_T(self) -> LinearRelation:
        """T = ker Gamma_# = (dom Gamma)^[perp] = null(B_H* hat J_H),
        checked symmetric in H by its Gram matrix.

        A unitary pair always passes the check.  A strictly isometric
        pair need not: there ker Gamma_# can be larger than ker Gamma
        and fail to be neutral, and then the pair is not associated
        with a symmetric T (PreconditionError).
        """
        if self.classification == "not_isometric":
            raise PreconditionError("pair is not isometric; T is undefined")
        B_H = self.gamma.graph.basis[: 2 * self.n]
        T = LinearRelation(self.n, self.n,
                           null_space(B_H.conj().T @ self.H.hat, self.tol))
        if not is_symmetric(T, self.H, self.tol):
            raise PreconditionError(
                "ker Gamma_# = (dom Gamma)^[perp] is not symmetric: the "
                "isometric pair is not associated with a symmetric T")
        return T

    def a_star(self) -> LinearRelation:
        """A_* = dom Gamma as a relation in H (spans T+ here)."""
        return LinearRelation(self.n, self.n, self.gamma.dom(self.tol))

    def t_plus(self) -> LinearRelation:
        """T+ = T^[perp] = dom Gamma, since T = (dom Gamma)^[perp].

        Raises PreconditionError where ``underlying_T`` does: the pair
        is not isometric, or its T is not symmetric.
        """
        self.underlying_T()
        return self.a_star()

    def _where_zero(self, rows):
        """B null(B[rows]): columns spanning the elements of Gamma that
        vanish on ``rows``."""
        B = self.gamma.graph.basis
        return B @ null_space(B[rows], self.tol).basis

    def _t0_elements(self):
        """B null(B_l): the elements (f, f', 0, l') of Gamma, whose
        (f, f') rows span T0 and whose l' rows are Gamma_1 on them."""
        return self._where_zero(slice(2 * self.n, 2 * self.n + self.m))

    def _kernel(self, X):
        """The relation in H spanned by the (f, f') rows of X."""
        return LinearRelation(self.n, self.n,
                              column_space(X[: 2 * self.n], self.tol))

    def T0(self) -> LinearRelation:
        """T0 = ker Gamma_0, spanned by B_H null(B_l)."""
        return self._kernel(self._t0_elements())

    def T1(self) -> LinearRelation:
        """T1 = ker Gamma_1, spanned by B_H null(B_l')."""
        return self._kernel(self._where_zero(slice(2 * self.n + self.m, None)))


def identity_obt() -> BoundaryPair:
    """The canonical triple: n = m = 1, J = 1, Gamma the identity on C^2.

    Its underlying T is the trivial relation and M(z) = z.
    """
    from .relations import identity_relation
    return BoundaryPair(hilbert_space(1), 1, identity_relation(2))


# ---------------------------------------------------------------------
# Weyl family
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class WeylSample:
    """M(z), a relation in C^m, at the nonreal point z, and the
    gamma-field, a relation from C^m to C^n.

    The gamma-field is the column space of the stacked (l, f) rows of
    the defect elements; it is formed on first read and then cached.
    """
    z: complex
    M: LinearRelation
    _lf: np.ndarray = field(compare=False, repr=False)
    _tol: Tolerance = field(compare=False, repr=False)

    @cached_property
    def gamma_field(self) -> LinearRelation:
        m = self.M.from_dim
        return LinearRelation(m, self._lf.shape[0] - m,
                              column_space(self._lf, self._tol))


def _require_nonreal(z):
    if abs(complex(z).imag) == 0.0:
        raise PreconditionError("spectral parameter must be nonreal")


def _defect_elements(gamma: LinearRelation, n, z, tol):
    """C = B null(B_f' - z B_f): columns spanning {(f, zf, l, l') in Gamma}."""
    B = gamma.graph.basis
    N = null_space(B[n : 2 * n] - z * B[:n], tol)
    return B @ N.basis


# Smallest n that gets the pencil split.  One BLAS thread, per point:
# the LU route and the SVD null space both cost about 0.13 ms at n = 8;
# at n = 4 the LU route is 0.12 ms against 0.08 ms.
_SPLIT_MIN_N = 16
# Least reciprocal condition estimate of the LU (and of L) that the
# split accepts.
_SPLIT_RCOND = 1e-6
# Factor by which a fast rank decision must clear the cutoff of the
# direct formula it replaces.  On random unitary pairs at n = 16..128,
# with Im z down to 1e-8, sigma_min/sigma_max of the (n+m)-sized main
# transform test was at least 0.04 times that of its m x m reduction.
_MARGIN = 1e3


class _PencilSplit(NamedTuple):
    """(B_f', B_f) split once: B_f Q = [L 0], B_f' Q = [P1 P2], and BQ."""
    L: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    BQ: np.ndarray

    def defect_elements(self, z, tol):
        """C = BQ [-(P1 - zL)^{-1} P2; I], orthonormalised by a thin QR,
        or None when the LU of P1 - zL fails the guard."""
        from scipy.linalg import lapack
        n, k = self.P2.shape[0], self.BQ.shape[1]
        A = self.P1 - z * self.L
        lu, piv, info = lapack.zgetrf(A)
        if info:
            return None
        anorm = np.linalg.norm(A, 1)
        rcond, _ = lapack.zgecon(lu, anorm)
        # rcond * anorm / sqrt(n) estimates a lower bound of
        # sigma_min(P1 - zL) <= sigma_min(B_f' - z B_f)
        cutoff = tol.rank_rel * (1.0 + abs(z)) * max(n, k)
        if (rcond < _SPLIT_RCOND
                or rcond * anorm / np.sqrt(n) <= _MARGIN * cutoff):
            return None
        X, _ = lapack.zgetrs(lu, piv, self.P2)
        Y = np.vstack([-X, np.eye(k - n)])
        return self.BQ @ np.linalg.qr(Y)[0]


def _pencil_split(B, n):
    """The split of B's pencil, or None when dim Gamma <= n or B_f is
    rank deficient."""
    if B.shape[1] <= n:
        return None
    from scipy.linalg import lapack
    Q, R = np.linalg.qr(B[:n].conj().T, mode="complete")
    # sigma(L) = sigma(B_f): a rank deficient B_f is an ill-conditioned L
    rcond, _ = lapack.ztrcon(R[:n], norm="1", uplo="U")
    if rcond < _SPLIT_RCOND:
        return None
    P = B[n : 2 * n] @ Q
    return _PencilSplit(R[:n].conj().T, P[:, :n], P[:, n:], B @ Q)


class _WeylPoint(NamedTuple):
    """The Weyl sample at one z, with ran(A_* - z) = C^n and z in
    res(main transform), each None where the direct test must decide."""
    sample: WeylSample
    ran_full: bool | None
    in_mt_resolvent: bool | None


def _mt_resolvent(C, n, m, z, tol):
    """True where the split decides z in res(main transform) for an
    (n+m)-dimensional Gamma, else None.

    With orthonormal defect elements C = B N, z is in the resolvent set
    exactly when W = (B_l' + z B_l) N = C_l' + z C_l is invertible.
    in_resolvent compares sigma_min with rank_rel 1e3 (n+m) sigma_max
    on the (n+m)-sized matrix X = G - zF of the main transform, where
    sigma_max(X) <= 1 + |z|; sigma_min(W) must clear that bound by
    _MARGIN.  A nearly singular W is left to in_resolvent.
    """
    W = C[2 * n + m :] + z * C[2 * n : 2 * n + m]
    cutoff = tol.rank_rel * 1e3 * (n + m) * (1.0 + abs(z))
    if np.linalg.svd(W, compute_uv=False)[-1] > _MARGIN * cutoff:
        return True
    return None


def _weyl_point(bp: BoundaryPair, z) -> _WeylPoint:
    """The Weyl sample at z, from the pencil split where its guard
    holds, with the two per-point tests the split decides."""
    _require_nonreal(z)
    tol = bp.tol
    n, m = bp.n, bp.m
    split = bp._split
    C = None if split is None else split.defect_elements(z, tol)
    if C is None:
        ran_full = in_mt = None
        C = _defect_elements(bp.gamma, n, z, tol)
    else:
        ran_full = True
        in_mt = (_mt_resolvent(C, n, m, z, tol)
                 if bp.gamma.dim == n + m else False)
    M = LinearRelation(m, m, column_space(C[2 * n :], tol))
    lf = np.vstack([C[2 * n : 2 * n + m], C[:n]])
    return _WeylPoint(WeylSample(complex(z), M, lf, tol), ran_full, in_mt)


def weyl(bp: BoundaryPair, z) -> WeylSample:
    """Weyl family M(z) and gamma-field at a nonreal point: the spans of
    the (l, l') and the (l, f) rows of C = B null(B_f' - z B_f); the
    gamma-field is formed on first read.

    From n = _SPLIT_MIN_N on, C comes from the pair's pencil split (one
    n x n LU per z) wherever the LU passes its condition guard, and
    from the SVD null space otherwise (see the module docstring)."""
    return _weyl_point(bp, z).sample


# ---------------------------------------------------------------------
# main transform
# ---------------------------------------------------------------------

def main_transform(bp: BoundaryPair) -> LinearRelation:
    """The exit-space relation {((f,l), (f',-l')) : (f^, l^) in Gamma}.

    Its graph basis is B's rows (f, l, f', -l'): a signed row
    permutation of Gamma's orthonormal graph basis, so no SVD.
    Self-adjoint in (C^{n+m}, J ⊕ I) exactly when Gamma is unitary.
    """
    n, m = bp.n, bp.m
    B = bp.gamma.graph.basis
    basis = np.vstack([B[:n], B[2 * n : 2 * n + m], B[n : 2 * n],
                       -B[2 * n + m :]])
    return LinearRelation(n + m, n + m, Subspace._of(2 * (n + m), basis))


def main_transform_space(bp: BoundaryPair) -> KreinSpace:
    """The Krein space (C^{n+m}, J ⊕ I) the main transform lives in."""
    H, m = bp.H, bp.m
    J = np.block([
        [H.J, np.zeros((H.dim, m))],
        [np.zeros((m, H.dim)), np.eye(m)],
    ])
    return make_krein(J)


def inverse_main_transform(A: LinearRelation, H: KreinSpace, L_dim,
                           tol=DEFAULT_TOL) -> BoundaryPair:
    """Recover the boundary pair whose main transform is A."""
    n, m = H.dim, L_dim
    if A.from_dim != n + m or A.to_dim != n + m:
        raise PreconditionError("relation does not live in C^{n+m}")
    # A-graph rows are (f, l, f', -l'); undo the reshuffle and the sign
    A_basis = A.graph.basis
    basis = np.vstack([A_basis[:n], A_basis[n + m : 2 * n + m],
                       A_basis[n : n + m], -A_basis[2 * n + m :]])
    gamma = LinearRelation(2 * n, 2 * m, Subspace._of(2 * (n + m), basis))
    return BoundaryPair(H, m, gamma, tol)


# ---------------------------------------------------------------------
# extensions and spectral bookkeeping
# ---------------------------------------------------------------------

def theta_extension(bp: BoundaryPair, theta: LinearRelation) -> LinearRelation:
    """The extension T_Theta = Gamma^{-1}(Theta), a relation in H."""
    if theta.from_dim != bp.m or theta.to_dim != bp.m:
        raise PreconditionError("Theta must be a relation in the boundary space")
    if bp.classification == "not_isometric":
        raise PreconditionError("Theta-extensions need an isometric pair")
    return shmulyan(bp.gamma.inverse(), theta.graph, bp.tol)


@dataclass(frozen=True)
class SpectralSets:
    excluded_points: tuple       # sigma0_p(T) with conjugates
    delta_is_all_nonreal: bool
    sigma_p_all: bool            # T has sigma_p = C (degenerate)
    samples: tuple               # per-z membership dicts


def sigma0_points(bp: BoundaryPair):
    """sigma0_p(T) = the nonreal point spectrum of T, or None when
    sigma_p(T) covers the whole plane."""
    rep = point_spectrum(bp.underlying_T(), bp.tol)
    if rep.all_flag:
        return None
    return tuple(complex(z) for z, _ in rep.eigenvalues
                 if complex(z).imag != 0.0)


def _near(z, w):
    """z lies within the merge radius _MERGE_RTOL (1 + |w|) of w."""
    return abs(z - w) <= _MERGE_RTOL * (1 + abs(w))


def _symmetric_closure(pts):
    """pts with their conjugates, near-duplicates merged, sorted."""
    if pts is None:
        return None
    out = []
    for p in list(pts) + [p.conjugate() for p in pts]:
        if not any(_near(p, q) for q in out):
            out.append(p)
    return tuple(sorted(out, key=lambda w: (w.real, w.imag)))


def delta_excluded_points(bp: BoundaryPair):
    """The symmetric closure of sigma0_p(T); None when delta is empty."""
    return _symmetric_closure(sigma0_points(bp))


def in_delta(bp: BoundaryPair, z, excluded=None):
    """z in delta_Gamma: nonreal, away from sigma0_p(T) and conjugates."""
    if excluded is None:
        excluded = delta_excluded_points(bp)
    if excluded is None or complex(z).imag == 0.0:
        return False
    return not any(_near(z, w) for w in excluded)


def m_plus_z(M: LinearRelation, z, tol=DEFAULT_TOL):
    """The relation M(z) + zI from a Weyl sample value."""
    basis = np.vstack([M.F, M.G + z * M.F])
    return LinearRelation(M.from_dim, M.to_dim,
                          column_space(basis, tol))


def spectral_sets(bp: BoundaryPair, eps, samples) -> SpectralSets:
    """Membership bookkeeping for Omega, delta, O, Sigma and B^eps.

    In finite dimensions Omega_Gamma is all of C_* (every range is
    closed); delta_Gamma is C_* minus the symmetric closure of
    sigma0_p(T); O requires ran(A_* - z) = H; Sigma additionally
    0 in res(M(z) + z); B^eps is the |z| > eps part of delta.
    """
    return _spectral_sets(bp, eps, samples, lambda z: _weyl_point(bp, z))


def _spectral_sets(bp: BoundaryPair, eps, points, point_at) -> SpectralSets:
    """spectral_sets with the Weyl point at z read from ``point_at(z)``,
    which is called only at nonreal points off sigma0_p(T).  A_* is
    formed only where ``ran_full`` of that point is undecided."""
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    tol = bp.tol
    sigma0 = sigma0_points(bp)
    excluded = _symmetric_closure(sigma0)
    sigma_all = excluded is None
    a_star = None
    notes = []
    for z in points:
        z = complex(z)
        in_omega = z.imag != 0.0
        d = not sigma_all and in_delta(bp, z, excluded)
        in_O = (in_omega and not sigma_all
                and not any(_near(z, w) for w in sigma0))
        if in_O:
            point = point_at(z)
            in_O = point.ran_full
            if in_O is None:
                if a_star is None:
                    a_star = bp.a_star()
                in_O = a_star.ran_shifted(z, tol).dim == bp.n
        in_sigma = False
        if in_O:
            M = point.sample.M
            in_sigma = in_resolvent(m_plus_z(M, z, tol), 0.0, tol)
        notes.append({
            "z": z,
            "in_Omega": in_omega,
            "in_delta": d,
            "in_O": in_O,
            "in_Sigma": in_sigma,
            "in_B_eps": d and abs(z) > eps,
        })
    return SpectralSets(
        excluded_points=() if sigma_all else excluded,
        delta_is_all_nonreal=(not sigma_all and len(excluded) == 0),
        sigma_p_all=sigma_all,
        samples=tuple(notes),
    )


def defect_numbers(bp: BoundaryPair, z):
    """(n_z, n_zbar) = eigenspace dimensions of T+ at zbar and z."""
    _require_nonreal(z)
    tp = bp.t_plus()
    z = complex(z)
    return (tp.eigenspace(z.conjugate(), bp.tol).dim,
            tp.eigenspace(z, bp.tol).dim)


def green_pairing_ok(bp: BoundaryPair, atol=1e-8):
    """The abstract Green identity on the graph basis of Gamma:
    [f', g] - [f, g'] = <l', k> - <l, k'> for all basis pairs, whose
    defects are i times the entries of B* diag(hat J_H, -hat J_L) B."""
    B = bp.gamma.graph.basis
    metric = _pair_metric(bp.H, hilbert_space(bp.m))
    return bool(np.all(np.abs(B.conj().T @ metric @ B) <= atol))
