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
dim Gamma = n + m.  With B_# the graph basis of Gamma_# (B itself when
Gamma is unitary), T = ker Gamma_# is spanned by the (f, f') rows of
B_# null(B_#[2n:]), T0 = ker Gamma_0 by B_H null(B_l) and
T1 = ker Gamma_1 by B_H null(B_l').  The columns of B null(B_l) are
the elements (f, f', 0, l') of Gamma, so their l' rows are Gamma_1 on
T0.  Gamma is an operator when null(B_H) = {0}, and an ordinary
boundary triple when moreover it is unitary and onto C^{2m}.  The Weyl
family M(z) = Gamma(A_* ∩ zI) and the gamma-field come from one null
space: C = B null(B_f' - z B_f) spans {(f, zf, l, l') in Gamma}; M(z)
is spanned by the (l, l') rows of C, the gamma-field by (l, f).

Many z per pair share one split of the pencil (B_f', B_f), reduced
once to diagonal form (the frequency-response reduction of Laub, IEEE
TAC 1981).  Once per pair, Q from a QR of B_f* gives B_f Q = [L 0] with
L n x n lower triangular, and B_f' Q = [P1 P2]; one eigendecomposition
L^{-1} P1 = V diag(lam) V^{-1} and G = V^{-1} L^{-1} P2 follow.  At
each z, X = (P1 - zL)^{-1} P2 = V diag(1 / (lam - z)) G costs O(n^2 m),
and Q K with K = [-X; I] spans the null space, so BQ K spans C; K and
C's orthonormal basis C = (BQ) Y, Y the thin QR of K, are formed only
when read.  The points of a grid are taken in blocks: one product of
[V; BQ[2n:, :n] V] with the panel of every diag(1 / (lam - z)) G of a
block gives each X of the block and its boundary rows R~ = BQ[2n:] K.
The guard: the pair is refused when the reciprocal condition number
1 / (||A|| ||A^{-1}||) of L (B_f rank deficient, as when mul T is
nontrivial) or of V's triangular factor (a defective L^{-1} P1) is below
_SPLIT_RCOND; it is exact, read from the inverses that the two solves
form anyway, and the split uses numpy alone.  A point is refused when
min|lam - z| / (||V||_F ||V^{-1} L^{-1}||_F), a lower bound of
sigma_min(P1 - zL), does not clear the null space's rank cutoff by
_MARGIN (read for all points of a grid at once).  There, and for n
below ``_SPLIT_MIN_N`` or dim Gamma <= n, C = B N with N the SVD null
space.

A Weyl sample (``weyl`` at one point, ``_weyl_samples`` along a grid)
holds the p = dim C coefficients K of C's span S K (S = BQ and
K = [-X; I] as above, or S = B and K = N, so Y = N) and decides every
per-point test.  With k = dim Gamma and
W = C_l' + z C_l: p = k - rank(B_f' - z B_f), so ran(A_* - z) = C^n
exactly when p = k - n; ker(J(Gamma) - z) = C null(W), so z is in
res(main transform) exactly when k = n + m, p = m and W is invertible,
and then P_H (J(Gamma) - z)^{-1} (0, e) = -C_f W^{-1} e.  M(z) and W
read only the 2m boundary rows R = S[2n:] Y; Y, C, its f rows and the
gamma-field are formed on first read.  Only this module indexes C.

sigma0_p(T) and its symmetric closure (kept out of delta_Gamma) come
from one point_spectrum of T per pair.  M's basis [F; G] is R K' with
K' of full column rank, so the ranks of R, R_l, R_l' and W give
dim M(z) = rank R, dim mul M(z) = rank R - rank R_l, dim ker M(z) =
rank R - rank R_l' and Sigma_Gamma without forming M: z off
sigma0_p(T), ran(A_* - z) = C^n and 0 in res(M(z) + z), rank R = m =
rank(G + zF) = rank W.  On the split route three p x p Gram matrices of
the blocks of R~ = S[2n:] K per point (shifted by tau^2 K* K), positive
definite, prove R_l, R_l' and W, and with R_l also R, of full column
rank p, so that dim M(z) = p, mul M(z) = ker M(z) = {0}, and both tests
read p = m; no QR or SVD is made.  One Cholesky factorisation of the
(b, 3, p, p) stack proves a block of b points or none of them.  Where
a block's proof fails (a point of it rank deficient or nearly so,
p > m) and on the SVD route, four values-only SVDs, of R, R_l, R_l'
and W, decide at each point; they reach the same verdicts, as the
proof only holds where the singular values clear the SVD cutoffs by
_MARGIN.  A fresh 50-point sweep at n = 128, m = 16 makes np.linalg
svd/qr/cholesky/eig 2/3/13/2 times, plus 2 solve and 1 inv, all but
the 13 Choleskys (blocks of 4) once per pair.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .relations import (
    LinearRelation,
    _MERGE_RTOL,
    _RESOLVENT_SLACK,
    _SPLIT_RCOND,
    _rank_of,
    _rcond,
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
    _rank,
    column_space,
    null_space,
)

__all__ = [
    "BoundaryPair",
    "WeylSample",
    "gamma_sharp",
    "identity_obt",
    "weyl",
    "in_delta",
    "m_plus_z",
    "sigma0_points",
    "delta_excluded_points",
    "main_transform",
    "main_transform_space",
    "theta_extension",
]


def gamma_sharp(gamma: LinearRelation, H: KreinSpace, L_dim, tol):
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


def _read_only(rel: LinearRelation) -> LinearRelation:
    """rel with its graph basis made read-only: a cached relation is
    shared by every reader of its pair."""
    rel.graph.basis.setflags(write=False)
    return rel


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
        and W = diag(hat J_H, -hat J_L); Gamma itself, and the pair
        itself, when unitary.  Cached on first read, as is the pair.
    sigma0_p(T)
        and its symmetric closure, from one point_spectrum of T, cached
        on first read.
    T, T0, the elements of T0 and the OBT test
        cached on first read, as the pair is fixed, so that every check
        and transform reads what the first reader derived; the cached
        bases are read-only.  A PreconditionError is raised again on
        every read, never cached.
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
        return (self.gamma if self.classification == "unitary" else
                gamma_sharp(self.gamma, self.H, self.L_dim, self.tol))

    @cached_property
    def _sharp_pair(self):
        """The pair (H, C^m, Gamma_#), whose Weyl family gives M(z)*."""
        return (self if self.classification == "unitary" else
                BoundaryPair(self.H, self.L_dim, self.gamma_sharp, self.tol))

    @cached_property
    def _sigma0(self):
        """(sigma0_p(T), its symmetric closure), or (None, None) when
        sigma_p(T) = C; raises where ``underlying_T`` does."""
        rep = point_spectrum(self.underlying_T(), self.tol)
        if rep.all_flag:
            return None, None
        pts = tuple(complex(z) for z, _ in rep.eigenvalues
                    if complex(z).imag != 0.0)
        return pts, _symmetric_closure(pts)

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
        C^{2m}.

        Onto needs no test of its own: for a unitary Gamma,
        (ran Gamma)^[perp] = ker Gamma+ = ker Gamma^{-1} = mul Gamma, so
        Gamma is onto C^{2m} exactly when it is an operator.  Cached on
        first read."""
        return self._is_obt

    @cached_property
    def _is_obt(self):
        return (self.classification == "unitary"
                and self.gamma.is_operator(self.tol))

    def underlying_T(self) -> LinearRelation:
        """T = ker Gamma_#, the (f, f') rows of B_# null(B_#[2n:]) for
        the graph basis B_# of Gamma_# (B itself when the pair is
        unitary), checked symmetric in H by its Gram matrix.

        B_# null(B_#[2n:]) is orthonormal and its boundary rows lie
        below the rank cutoff, so its (f, f') rows are orthonormal as
        they stand (one SVD of 2m rows).  A unitary pair always passes
        the check.  A strictly isometric pair need not: there ker
        Gamma_# = (dom Gamma)^[perp] can be larger than ker Gamma and
        fail to be neutral, and then the pair is not associated with a
        symmetric T (PreconditionError, raised on every call).  Cached
        on first read, with a read-only basis.
        """
        return self._T

    @cached_property
    def _T(self):
        if self.classification == "not_isometric":
            raise PreconditionError("pair is not isometric; T is undefined")
        B, n2 = self.gamma_sharp.graph.basis, 2 * self.n
        T = LinearRelation(self.n, self.n, Subspace._of(
            n2, B[:n2] @ null_space(B[n2:], self.tol).basis))
        if not is_symmetric(T, self.H, self.tol):
            raise PreconditionError(
                "ker Gamma_# = (dom Gamma)^[perp] is not symmetric: the "
                "isometric pair is not associated with a symmetric T")
        return _read_only(T)

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

    @cached_property
    def _t0_elements(self):
        """B null(B_l): the elements (f, f', 0, l') of Gamma, whose
        (f, f') rows span T0 and whose l' rows are Gamma_1 on them.
        Cached on first read, read-only."""
        X = self._where_zero(slice(2 * self.n, 2 * self.n + self.m))
        X.setflags(write=False)
        return X

    def _kernel(self, X):
        """The relation in H spanned by the (f, f') rows of X."""
        return LinearRelation(self.n, self.n,
                              column_space(X[: 2 * self.n], self.tol))

    def T0(self) -> LinearRelation:
        """T0 = ker Gamma_0, spanned by B_H null(B_l).  Cached on first
        read, with a read-only basis."""
        return self._T0

    @cached_property
    def _T0(self):
        return _read_only(self._kernel(self._t0_elements))

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

def _require_nonreal(z):
    if abs(complex(z).imag) == 0.0:
        raise PreconditionError("spectral parameter must be nonreal")


# Smallest n that gets the pencil split.  One BLAS thread, per point (a
# weyl call and the six sweep columns, m = n/4): the split costs 0.07 ms
# at n = 8, 12 and 16, the SVD null space 0.11, 0.15 and 0.20 ms.  The
# split's eigendecomposition costs 0.6 ms at n = 8 and 12 and 0.8 ms at
# n = 16, so it pays for itself only after about 15, 8 and 7 points per
# pair, while a theorem check reads one to six points per pair.
_SPLIT_MIN_N = 16
# Factor by which the split's lower bound on sigma_min(P1 - zL) must
# clear the rank cutoff of the SVD null space it replaces.
_MARGIN = 1e3
# Bytes of the n x b p panel diag(1 / (lam - z_k)) G of a block of b
# split-route points (p = dim Gamma - n), which fix b: b = 4 at n = 128,
# p = 16, 16 at n = 64, p = 8.  One BLAS thread on a 2-core Xeon (2 MB
# L2), weyl_sweep on the two seed-1 n = 128, m = 16 benchmark pairs, 20
# alternating rounds, time per point against b = 4 (median, quartiles):
# b = 1 1.26 (1.14-1.39), b = 2 1.10, b = 8 0.89 (0.85-0.95), b = 16
# 0.95, the whole 50-point grid 0.91 (0.82-1.10).  A sweep's working set
# (tracemalloc peak) grows with b: 0.75 MB at b = 4, 1.5 MB at b = 8 and
# 2.7 MB at b = 16, against 0.15 MB one point at a time, and a process
# that keeps 3000 sweeps' output peaked 0.6, 1.5 and 2.7 MB higher.  So
# b stays small: most of the gain, little of the memory.
_PANEL_BYTES = 1 << 17


class _PencilSplit(NamedTuple):
    """(B_f', B_f) split and diagonalised once: B_f Q = [L 0], B_f' Q =
    [P1 P2], L^{-1} P1 = V diag(lam) V^{-1}, G = V^{-1} L^{-1} P2, BQ,
    the S of every split-route Weyl sample, and VE = [V; E] with
    E = BQ[2n:, :n] V, so that VE diag(1 / (lam - z)) G stacks X over
    F0 - R~, R~ = BQ[2n:] K and F0 = BQ[2n:, n:].  ``floor`` is
    1 / (||V||_F ||V^{-1} L^{-1}||_F)."""
    lam: np.ndarray
    G: np.ndarray
    floor: float
    BQ: np.ndarray
    VE: np.ndarray

    def guarded(self, points, tol):
        """Which points the split decides: those where the lower bound
        floor min|lam - z| of sigma_min(P1 - zL) clears _MARGIN times
        the SVD null space's rank cutoff."""
        n, k = len(self.lam), self.BQ.shape[1]
        z = np.asarray(points, dtype=complex)
        # (P1 - zL)^{-1} = V diag(1 / d) V^{-1} L^{-1} bounds
        # sigma_min(B_f' - z B_f) >= sigma_min(P1 - zL) >= floor min|d|
        dmin = np.abs(self.lam - z[:, None]).min(axis=1)
        cutoff = tol.rank_rel * (1.0 + np.abs(z)) * max(n, k)
        return self.floor * dmin > _MARGIN * cutoff


def _pencil_split(B, n):
    """The split of B's pencil, or None when dim Gamma <= n, B_f is rank
    deficient or the eigenvectors of L^{-1} P1 are ill-conditioned."""
    if B.shape[1] <= n:
        return None
    Q, R = np.linalg.qr(B[:n].conj().T, mode="complete")
    L = R[:n].conj().T
    BQ = B @ Q
    # one solve gives L^{-1} [P1 P2 I]; sigma(L) = sigma(B_f), so a rank
    # deficient B_f is a singular or ill-conditioned L (its infinity norm
    # is the 1-norm of R = L*)
    try:
        LP = np.linalg.solve(L, np.hstack([BQ[n : 2 * n], np.eye(n)]))
    except np.linalg.LinAlgError:  # an exactly singular L
        return None
    if _rcond(L, LP[:, -n:], np.inf) < _SPLIT_RCOND:
        return None
    lam, V = np.linalg.eig(LP[:, :n])
    # kappa(V) = kappa(Rv) for V = Qv Rv; a defective L^{-1} P1 has a near
    # singular V.  [G W Rv^{-1}] = Rv^{-1} [Qv* L^{-1} [P2 I]  I]
    Qv, Rv = np.linalg.qr(V)
    try:
        GW = np.linalg.solve(Rv, np.hstack([Qv.conj().T @ LP[:, n:],
                                            np.eye(n)]))
    except np.linalg.LinAlgError:  # an exactly singular Rv
        return None
    if _rcond(Rv, GW[:, -n:], 1) < _SPLIT_RCOND:
        return None
    # G is copied out of the wide GW, which a view would keep alive with
    # the pair (0.5 MB at n = 128)
    G, W = np.ascontiguousarray(GW[:, : -2 * n]), GW[:, -2 * n : -n]
    floor = 1.0 / (np.linalg.norm(V) * np.linalg.norm(W))
    return _PencilSplit(lam, G, floor, BQ, np.vstack([V, BQ[2 * n :, :n] @ V]))


def _certify_block(bp, split, points):
    """X_k = V diag(1 / (lam - z_k)) G for a block of split-route points,
    side by side in one n x b p array, and whether the certificate
    proves the whole block: sigma_min of R, R_l, R_l' and W each above
    its tau at every point, R's through R_l's."""
    n, m = bp.n, bp.m
    z = np.asarray(points, dtype=complex)
    b, p = len(z), split.G.shape[1]
    panel = split.G[:, None, :] * (1.0 / (split.lam[:, None] - z))[:, :, None]
    XE = split.VE @ panel.reshape(n, b * p)
    X = XE[:n]
    Xs = X.reshape(n, b, p).swapaxes(0, 1)
    # R~_l, R~_l' and W~ of each point, and conj(X) in the panel's memory:
    # the block's working set stays near the panel's size
    RW = np.empty((b, 3, m, p), dtype=complex)
    np.subtract(split.BQ[2 * n :, n:].reshape(2, m, p),
                XE[n:].reshape(2 * m, b, p).swapaxes(0, 1).reshape(b, 2, m, p),
                out=RW[:, :2])
    np.multiply(RW[:, 0], z[:, None, None], out=RW[:, 2])
    RW[:, 2] += RW[:, 1]
    KK = np.conjugate(Xs, out=panel.swapaxes(0, 1)).swapaxes(1, 2) @ Xs
    # With R~ = S[2n:] K (rows R_l and R_l' of RW) and Y = K Rk^{-1}, Rk* Rk =
    # K* K = I + X* X, R = R~ Rk^{-1}: A~* A~ - tau^2 K* K positive
    # definite, for a block A~ of R~ or W~ = R~_l' + z R~_l, says
    # ||A y|| > tau ||y|| for y = Rk x, that is sigma_min(A) > tau.  R =
    # [R_l; R_l'] needs no Gram matrix of its own: ||R x||^2 >= ||R_l x||^2
    # and R's tau is R_l's, so the proof for R_l proves R.  The first term
    # of each tau^2 clears the SVD cutoff that decides the block:
    # column_space's rank_rel max(2m, p) for R, R_l and R_l' (C is
    # orthonormal, so ||R|| <= 1), and in_resolvent's rank_rel
    # _RESOLVENT_SLACK (n + m)(1 + |z|) for W (||W|| <= 1 + |z|), which
    # also clears shift_invertible's rank_rel _RESOLVENT_SLACK m
    # max(sigma_m(R), ||W||).  The second clears the rounding of the Gram
    # matrices and of their Cholesky factorisation, about p eps ||A~||^2
    # (Higham, Accuracy and Stability, 2nd ed., 10.1; Rump, BIT 46,
    # 2006), with ||R~|| <= ||K||_F, ||W~|| <= (1 + |z|) ||K||_F and
    # ||K||_F^2 = p + ||X||_F^2, against tau^2 K* K >= tau^2
    # (sigma_min(K) >= 1).  _MARGIN keeps both well clear.
    stack = np.empty((b, 3, p, p), dtype=complex)
    np.matmul(RW.conj().swapaxes(2, 3), RW, out=stack)
    rank_rel, scale = bp.tol.rank_rel, 1.0 + np.abs(z)
    rounding = (p * np.finfo(float).eps
                * (p + np.trace(KK, axis1=1, axis2=2).real))
    KK += np.eye(p)
    tau_r = _MARGIN * np.maximum((rank_rel * max(2 * m, p)) ** 2, rounding)
    tau_w = _MARGIN * np.maximum(
        (rank_rel * _RESOLVENT_SLACK * (n + m) * scale) ** 2,
        rounding * scale ** 2)
    stack[:, :2] -= (tau_r[:, None, None] * KK)[:, None]
    stack[:, 2] -= tau_w[:, None, None] * KK
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:  # some point's proof fails: SVDs decide
        return X, False
    return X, True


@dataclass(frozen=True)
class WeylSample:
    """The defect elements of a pair at the nonreal z, spanned by S K,
    and what they decide (see the module docstring).  C = S Y for the
    orthonormal Y, with p columns, of K's span.  M(z), a relation in
    C^m, and the gamma-field, a relation from C^m to C^n, are the spans
    of C's (l, l') and stacked (l, f) rows; each, and each count, is
    formed on first read and then cached.  The route gives Y:
    ``_NullSample`` on the SVD null space, ``_SplitSample`` on the
    pencil split."""
    bp: BoundaryPair = field(compare=False, repr=False)
    z: complex
    S: np.ndarray = field(compare=False, repr=False)

    @property
    def p(self):
        return self.Y.shape[1]

    @cached_property
    def C(self):
        """S Y in full, formed on first read."""
        return self.S @ self.Y

    @cached_property
    def _boundary_rows(self):
        """R, C's (l, l') rows, S[2n:] Y."""
        return self.S[2 * self.bp.n :] @ self.Y

    def _f_rows(self):
        return self.S[: self.bp.n] @ self.Y

    @cached_property
    def M(self) -> LinearRelation:
        m = self.bp.m
        return LinearRelation(m, m, column_space(self._boundary_rows,
                                                 self.bp.tol))

    @cached_property
    def gamma_field(self) -> LinearRelation:
        m = self.bp.m
        lf = np.vstack([self._boundary_rows[:m], self._f_rows()])
        return LinearRelation(m, self.bp.n, column_space(lf, self.bp.tol))

    @cached_property
    def _r_singular_values(self):
        return np.linalg.svd(self._boundary_rows, compute_uv=False)

    @cached_property
    def dim_M(self) -> int:
        """dim M(z) = rank R, at column_space's cutoff."""
        return _rank(self._r_singular_values, self._boundary_rows.shape,
                     self.bp.tol.rank_rel)

    @cached_property
    def dim_mul(self) -> int:
        """dim mul M(z) = dim null(F) = rank R - rank R_l."""
        R_l = self._boundary_rows[: self.bp.m]
        return self.dim_M - _rank_of(R_l, self.bp.tol.rank_rel)

    @cached_property
    def dim_ker(self) -> int:
        """dim ker M(z) = dim null(G) = rank R - rank R_l'."""
        R_lp = self._boundary_rows[self.bp.m :]
        return self.dim_M - _rank_of(R_lp, self.bp.tol.rank_rel)

    @property
    def ran_full(self) -> bool:
        """ran(A_* - z) = C^n: C, and so K, has dim Gamma - n columns."""
        return self.p == self.bp.gamma.dim - self.bp.n

    @property
    def W(self):
        """C_l' + z C_l, with ker(J(Gamma) - z) = C null(W)."""
        m, lr = self.bp.m, self._boundary_rows
        return lr[m:] + self.z * lr[:m]

    @cached_property
    def _w_singular_values(self):
        return np.linalg.svd(self.W, compute_uv=False)

    @cached_property
    def in_mt_resolvent(self) -> bool:
        """dim Gamma = n + m, W square and its sigma_min (shared with
        shift_invertible) above in_resolvent's cutoff rank_rel
        _RESOLVENT_SLACK (n+m) (1 + |z|), 1 + |z| bounding sigma_max."""
        n, m = self.bp.n, self.bp.m
        if self.bp.gamma.dim != n + m or self.p != m:
            return False
        s = self._w_singular_values
        cutoff = (self.bp.tol.rank_rel * _RESOLVENT_SLACK * (n + m)
                  * (1.0 + abs(self.z)))
        return not s.size or s[-1] > cutoff

    @cached_property
    def shift_invertible(self) -> bool:
        """0 in res(M(z) + z): dim M(z) = m and G + zF of full rank at
        in_resolvent's cutoff rank_rel _RESOLVENT_SLACK.  W = (G + zF) K,
        sigma(K) = sigma(R): W's singular values are cut in units of
        sigma_m(R) (exact at m = 1), lest a near rank deficient R (z near
        sigma_p(T)) push them below the cutoff."""
        m, s = self.bp.m, self._r_singular_values
        return self.dim_M == m and (m == 0 or m == _rank(
            self._w_singular_values / s[m - 1], (m, m),
            self.bp.tol.rank_rel * _RESOLVENT_SLACK))

    @property
    def in_sigma(self) -> bool:
        """z in Sigma_Gamma: in O (sigma_p(T) is not all of C, z is off
        sigma0_p(T) and ran(A_* - z) = C^n) and 0 in res(M(z) + z)."""
        sigma0, _ = self.bp._sigma0
        return (sigma0 is not None
                and not any(_near(self.z, w) for w in sigma0)
                and self.ran_full and self.shift_invertible)

    def resolvent_vectors(self):
        """-C_f W^{-1}, the columns P_H (J(Gamma) - z)^{-1} (0, e_a);
        PreconditionError where z is not in res(main transform)."""
        if not self.in_mt_resolvent:
            raise PreconditionError(
                f"conj(z)={self.z} is not in the resolvent set of the main "
                "transform; rescale the pair (scale_eps with eps < |z|) first")
        return -np.linalg.solve(self.W.T, self._f_rows().T).T


@dataclass(frozen=True)
class _NullSample(WeylSample):
    """A Weyl sample on the SVD route: S = B and Y = K = N, the
    orthonormal SVD null space of B_f' - z B_f."""
    Y: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class _SplitSample(WeylSample):
    """A Weyl sample on the pencil split: S = BQ and K = [-X; I], with X
    a view of its block's X (``_certify_block``).  K is not orthonormal,
    and it and its thin QR factor Y are formed only when Y is read.
    Each count and test is read first from the block's stacked
    Cholesky, which proved R, R_l, R_l' and W of full column rank at
    every point of the block or did not (``_certified``), and where
    that proof failed, from WeylSample's SVDs on Y."""
    X: np.ndarray = field(compare=False, repr=False)
    _certified: bool = field(compare=False)

    @property
    def p(self):
        return self.X.shape[1]

    @cached_property
    def Y(self):
        """The thin QR factor of K = [-X; I]."""
        return np.linalg.qr(np.vstack([-self.X, np.eye(self.p)]))[0]

    @cached_property
    def dim_M(self) -> int:
        return self.p if self._certified else super().dim_M

    @cached_property
    def dim_mul(self) -> int:
        return 0 if self._certified else super().dim_mul

    @cached_property
    def dim_ker(self) -> int:
        return 0 if self._certified else super().dim_ker

    @cached_property
    def shift_invertible(self) -> bool:
        if self._certified:
            return self.p == self.bp.m
        return super().shift_invertible

    @cached_property
    def in_mt_resolvent(self) -> bool:
        # p = dim Gamma - n here, so p = m says dim Gamma = n + m
        if self._certified:
            return self.p == self.bp.m
        return super().in_mt_resolvent


def _weyl_samples(bp: BoundaryPair, points):
    """The Weyl samples at the nonreal points, in order, one at a time.

    From n = _SPLIT_MIN_N on, the split's guard is read for all points
    at once, and the guarded points are certified in blocks of b
    (_PANEL_BYTES over the n x p panel of one point): one product gives
    every X and R~ of a block, and one Cholesky of a (b, 3, p, p) stack
    proves them all or leaves them all to the SVDs (``_certify_block``).
    The other points, and every point below _SPLIT_MIN_N, take the SVD
    null space of B_f' - z B_f.
    A block is formed when its first point is reached, so a caller that
    keeps no sample holds one block, and two only while the next is
    formed."""
    pts = [complex(z) for z in points]
    for z in pts:
        _require_nonreal(z)
    n, split = bp.n, bp._split
    starts, block = {}, {}  # first point of each block -> the block
    if split is not None:
        guarded = np.flatnonzero(split.guarded(pts, bp.tol)).tolist()
        p = split.G.shape[1]
        size = max(1, _PANEL_BYTES // (16 * n * p))
        starts = {guarded[k]: guarded[k : k + size]
                  for k in range(0, len(guarded), size)}
    B = bp.gamma.graph.basis
    for i, z in enumerate(pts):
        if i in starts:
            idx = starts.pop(i)
            X, certified = _certify_block(bp, split, [pts[j] for j in idx])
            block = {j: (X[:, c * p : (c + 1) * p], certified)
                     for c, j in enumerate(idx)}
        if i in block:
            yield _SplitSample(bp, z, split.BQ, *block.pop(i))
        else:
            N = null_space(B[n : 2 * n] - z * B[:n], bp.tol)
            yield _NullSample(bp, z, B, N.basis)


def weyl(bp: BoundaryPair, z) -> WeylSample:
    """The Weyl sample at a nonreal point: C = B null(B_f' - z B_f),
    spanned by S K, from which M(z) and the gamma-field are read.

    The one-point call of ``_weyl_samples``: from n = _SPLIT_MIN_N on,
    S = BQ and K = [-X; I] come from the pair's pencil split
    (diagonalised once per pair, no factorisation per z) wherever its
    guard holds, certified as a block of one point; otherwise S = B and
    K is the SVD null space (see the module docstring)."""
    return next(_weyl_samples(bp, (z,)))


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


def sigma0_points(bp: BoundaryPair):
    """sigma0_p(T) = the nonreal point spectrum of T, or None when
    sigma_p(T) covers the whole plane."""
    return bp._sigma0[0]


def _near(z, w):
    """z lies within the merge radius _MERGE_RTOL (1 + |w|) of w."""
    return abs(z - w) <= _MERGE_RTOL * (1 + abs(w))


def _symmetric_closure(pts):
    """pts with their conjugates, near-duplicates merged, sorted."""
    out = []
    for p in list(pts) + [p.conjugate() for p in pts]:
        if not any(_near(p, q) for q in out):
            out.append(p)
    return tuple(sorted(out, key=lambda w: (w.real, w.imag)))


def delta_excluded_points(bp: BoundaryPair):
    """The symmetric closure of sigma0_p(T); None when delta is empty."""
    return bp._sigma0[1]


def in_delta(bp: BoundaryPair, z):
    """z in delta_Gamma: nonreal, away from sigma0_p(T) and conjugates."""
    excluded = delta_excluded_points(bp)
    return (excluded is not None and complex(z).imag != 0.0
            and not any(_near(z, w) for w in excluded))


def m_plus_z(M: LinearRelation, z, tol):
    """M(z) + zI as a relation: the slow path of ``shift_invertible``."""
    basis = np.vstack([M.F, M.G + z * M.F])
    return LinearRelation(M.from_dim, M.to_dim,
                          column_space(basis, tol))
