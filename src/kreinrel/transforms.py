"""Transformations of boundary pairs.

Two schemes are implemented:

* right scheme Gamma -> Gamma V^{-1} with a standard unitary block
  operator V = (A, B; C, D) between doubled Krein spaces, including
  linear fractional transformations phi_V and the Weyl-function
  correction term Delta;
* left scheme Gamma -> V Gamma with isometric/unitary relations V on
  the boundary side, including the eps-scaling V_eps, the kappa-scaled
  triple, and the quasi-boundary-triple map V = (G^{-1}, 0; EG^{-1}, G*).

A transform by an invertible block operator V is one row product of
Gamma's graph basis B, diag(V, I) B or diag(I, V) B, plus one thin QR;
``transform_left`` keeps the general route for relations V.
"""

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryPair, weyl
from .errors import DimensionMismatchError, PreconditionError, ValidationError
from .relations import (
    LinearRelation,
    compose,
    in_resolvent,
    is_selfadjoint,
    rel_equal,
    rel_from_operator,
    shmulyan,
)
from .spaces import (
    KreinSpace,
    _classify_graph,
    _pair_metric,
    hilbert_space,
    krein_adjoint_matrix,
)
from .subspaces import (
    Subspace,
    Tolerance,
    _as_matrix,
    column_space,
    null_space,
    orth_complement,
    contains as sub_contains,
)

__all__ = [
    "StdUnitaryOp",
    "QbtMap",
    "make_std_unitary",
    "make_commuting_unitary",
    "u_j",
    "rotation_op",
    "transform_right",
    "n_hat_v",
    "lft",
    "p_poly",
    "in_rho_v",
    "delta_correction",
    "boundary_v_classification",
    "transform_left",
    "scale_eps",
    "scaled_obt",
    "qbt_transform",
    "v_star",
]

_BLOCK_ATOL = 1e-10
# make_std_unitary's unitary-graph test validates outside blocks beside
# ``atol``, as _ORTHONORMAL_ATOL does bases: it follows no caller's tol
_GRAPH_TOL = Tolerance()
# in_rho_v's cutoff on p_V(z; T0): unit-scale blocks, rounding far below
_P_RTOL = 1e-8
# QbtMap's cutoff on sigma_min(G): a singular G is rejected, not inverted
_QBT_RTOL = 1e-10
# scaled_obt: kappa this near 0 is singular, this near +-1 changes nothing
_KAPPA_ATOL = 1e-12


@dataclass(frozen=True)
class StdUnitaryOp:
    """Validated standard unitary block operator (A, B; C, D).

    Maps the doubled space of K_from to the doubled space of K_to:
    (f, f') -> (Af + Bf', Cf + Df').
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    K_from: KreinSpace
    K_to: KreinSpace

    def block_matrix(self):
        return np.block([[self.A, self.B], [self.C, self.D]])

    def inverse_block_matrix(self):
        """V^{-1} = V^+ = (D+, -B+; -C+, A+)."""
        plus = lambda X: krein_adjoint_matrix(X, self.K_from, self.K_to)
        return np.block([[plus(self.D), -plus(self.B)],
                         [-plus(self.C), plus(self.A)]])


def _selfadj_defect(X, K):
    return np.linalg.norm(X - krein_adjoint_matrix(X, K, K))


def make_std_unitary(A, B, C, D, K_from: KreinSpace, K_to: KreinSpace,
                     atol=_BLOCK_ATOL) -> StdUnitaryOp:
    """Validate the six block conditions of a standard unitary operator.

    A+D - C+B = I and AD+ - BC+ = I, while A+C, AB+, B+D, CD+ are
    self-adjoint in the indicated Krein spaces.  The graph of the
    block matrix is additionally checked to be a unitary relation
    between the hat-symmetry spaces: hypermaximal neutral in
    diag(hat J_from, -hat J_to).
    """
    A, B, C, D = (np.asarray(X, dtype=complex) for X in (A, B, C, D))
    n, n2 = K_from.dim, K_to.dim
    for X in (A, B, C, D):
        if X.shape != (n2, n):
            raise DimensionMismatchError("all blocks must map K_from -> K_to")
    plus = lambda X: krein_adjoint_matrix(X, K_from, K_to)
    failures = []
    if np.linalg.norm(plus(A) @ D - plus(C) @ B - np.eye(n)) > atol:
        failures.append("A+D - C+B != I")
    if np.linalg.norm(A @ plus(D) - B @ plus(C) - np.eye(n2)) > atol:
        failures.append("AD+ - BC+ != I")
    if _selfadj_defect(plus(A) @ C, K_from) > atol:
        failures.append("A+C not self-adjoint in K_from")
    if _selfadj_defect(A @ plus(B), K_to) > atol:
        failures.append("AB+ not self-adjoint in K_to")
    if _selfadj_defect(plus(B) @ D, K_from) > atol:
        failures.append("B+D not self-adjoint in K_from")
    if _selfadj_defect(C @ plus(D), K_to) > atol:
        failures.append("CD+ not self-adjoint in K_to")
    if failures:
        raise ValidationError("standard-unitary conditions violated: "
                              + "; ".join(failures))
    V = StdUnitaryOp(A=A, B=B, C=C, D=D, K_from=K_from, K_to=K_to)
    metric = _pair_metric(K_from, K_to)
    if _classify_graph(rel_from_operator(V.block_matrix()).graph.basis,
                       metric, _GRAPH_TOL) != "unitary":
        raise ValidationError("block matrix is not a unitary relation "
                              "between the hat-symmetry spaces")
    return V


def make_commuting_unitary(A, B, K_from: KreinSpace,
                           K_to: KreinSpace) -> StdUnitaryOp:
    """The family V(A, B; J_from, J_to) = (A, B; -J_to B J_from,
    J_to A J_from), which commutes with the symmetries and is
    simultaneously Hilbert-unitary.  Requires
    A*A + J_from B*B J_from = I and AA* + BB* = I."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    Jf, Jt = K_from.J, K_to.J
    n, n2 = K_from.dim, K_to.dim
    if A.shape != (n2, n) or B.shape != (n2, n):
        raise DimensionMismatchError("blocks must map K_from -> K_to")
    if np.linalg.norm(A.conj().T @ A + Jf @ B.conj().T @ B @ Jf
                      - np.eye(n)) > _BLOCK_ATOL:
        raise ValidationError("A*A + J B*B J != I")
    if np.linalg.norm(A @ A.conj().T + B @ B.conj().T
                      - np.eye(n2)) > _BLOCK_ATOL:
        raise ValidationError("AA* + BB* != I")
    C = -Jt @ B @ Jf
    D = Jt @ A @ Jf
    return make_std_unitary(A, B, C, D, K_from, K_to)


def u_j(K: KreinSpace) -> StdUnitaryOp:
    """U_J: (f, f') -> (f, Jf'), from (C^n, J) to the Hilbert C^n."""
    n = K.dim
    return make_commuting_unitary(np.eye(n), np.zeros((n, n)),
                                  K, hilbert_space(n))


def rotation_op(theta, n=1) -> StdUnitaryOp:
    """The rotation family (cos t·I, sin t·I; ...) on Hilbert C^n."""
    H = hilbert_space(n)
    A = np.cos(theta) * np.eye(n)
    B = np.sin(theta) * np.eye(n)
    return make_commuting_unitary(A, B, H, H)


def _pair_from_rows(bp: BoundaryPair, H: KreinSpace, state_rows,
                    boundary_rows) -> BoundaryPair:
    """The pair over H whose Gamma is spanned by [state_rows;
    boundary_rows], an invertible block operator's image of bp's graph
    basis: one thin QR, with the rows by decreasing norm so that rows
    scaled far apart lose no direction (row sorting; Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., sec. 19.4).
    Non-finite entries raise ValidationError."""
    A = _as_matrix(np.vstack([state_rows, boundary_rows]))
    order = np.argsort(-np.linalg.norm(A, axis=1), kind="stable")
    Q = np.linalg.qr(A[order])[0][np.argsort(order)]
    gamma = LinearRelation(2 * H.dim, 2 * bp.m, Subspace._of(len(Q), Q))
    return BoundaryPair(H, bp.m, gamma, bp.tol)


# ---------------------------------------------------------------------
# right scheme: Gamma -> Gamma V^{-1}
# ---------------------------------------------------------------------

def transform_right(bp: BoundaryPair, V: StdUnitaryOp) -> BoundaryPair:
    """The pair with Gamma' = Gamma V^{-1} over V's codomain space.

    V must start at the state space (PreconditionError otherwise); then
    Gamma V^{-1} = {(V f^, l^) : (f^, l^) in Gamma}, spanned by V times
    the state rows of the graph basis.
    """
    if V.K_from != bp.H:
        raise PreconditionError("V does not start at the state space")
    return _pair_from_rows(bp, V.K_to, V.block_matrix() @ bp.gamma.F,
                           bp.gamma.G)


def n_hat_v(v_rel: LinearRelation, a_star: LinearRelation, z,
            tol) -> Subspace:
    """N^V_z(A_*) = dom(V ∩ (A_* × zI)) - the z-eigen-slice pulled
    through V, a subspace of the doubled domain space: the span of
    V_F null([P* V_F; V_G'' - z V_G']), with P an orthonormal basis of
    the orthogonal complement of A_* and V_G', V_G'' the two halves of
    V's output rows."""
    half = v_rel.to_dim // 2
    G1, G2 = v_rel.G[:half], v_rel.G[half:]
    perp = orth_complement(a_star.graph, tol).basis
    N = null_space(np.vstack([perp.conj().T @ v_rel.F, G2 - z * G1]), tol)
    return column_space(v_rel.F @ N.basis, tol)


# -- linear fractional transformations --------------------------------

def lft(V: StdUnitaryOp, T: LinearRelation, tol) -> LinearRelation:
    """phi_V(T), the Shmul'yan transform V(T) of T by V's graph.

    Where 0 is not an eigenvalue of W(A, B; T) = {(f, Af + Bf')}, it
    equals the composition W(C, D; T) W(A, B; T)^{-1}."""
    return shmulyan(rel_from_operator(V.block_matrix()), T.graph, tol)


def p_poly(V: StdUnitaryOp, z):
    """p_V(z) = z^2 B + z(A - D) - C."""
    return z * z * V.B + z * (V.A - V.D) - V.C


def _p_pencil(V: StdUnitaryOp, z, F0, G0):
    """p_V(z; T0) on coefficients: (zA - C) F0 + (zB - D) G0 for the
    f and f' rows F0, G0 of columns spanning T0."""
    return (z * V.A - V.C) @ F0 + (z * V.B - V.D) @ G0


def in_rho_v(bp: BoundaryPair, V: StdUnitaryOp, z):
    """z in rho_V = res T0 ∩ res T0', the latter via the criterion
    '0 in res p_V(z; T0)'."""
    T0 = bp.T0()
    if not in_resolvent(T0, z, bp.tol):
        return False
    P = _p_pencil(V, z, T0.F, T0.G)
    if P.shape[0] != P.shape[1]:
        return False
    s = np.linalg.svd(P, compute_uv=False)
    return bool(s.size == 0 or s[-1] > _P_RTOL * max(1.0, s[0]))


def delta_correction(bp: BoundaryPair, V: StdUnitaryOp, z):
    """The Weyl correction Delta(z) = -Gamma_1 p_V(z;T0)^{-1} p_V(z)
    gamma(z), an m x m matrix, so that the transformed triple
    Gamma' = Gamma V^{-1} has M'(z) = M(z) + Delta(z).

    The columns of X = B null(B_l) are the elements (f, f', 0, l') of
    Gamma: their (f, f') rows span T0 and their l' rows are Gamma_1
    there.  With P = (zA - C) X_f + (zB - D) X_f',
    Delta = -X_l' P^{-1} p_V(z) gamma(z).
    """
    tol = bp.tol
    if not bp.is_obt():
        raise PreconditionError("Delta correction requires an ordinary "
                                "boundary triple")
    if not bp.underlying_T().is_operator(tol):
        raise PreconditionError("underlying T must be an operator")
    if not in_rho_v(bp, V, z):
        raise PreconditionError(f"z={z} is not in rho_V")
    n = bp.n
    X = bp._t0_elements()
    gamma_mat = weyl(bp, z).gamma_field.to_matrix(tol)   # m -> n
    P = _p_pencil(V, z, X[:n], X[n : 2 * n])
    rhs = p_poly(V, z) @ gamma_mat                       # n' x m
    return -X[2 * n + bp.m :] @ np.linalg.solve(P, rhs)


# ---------------------------------------------------------------------
# left scheme: Gamma -> V Gamma
# ---------------------------------------------------------------------

def boundary_v_classification(v_rel: LinearRelation, tol):
    """Classification of a relation between doubled boundary spaces:
    the Gram test of its graph in diag(hat J_m, -hat J_m')."""
    if v_rel.from_dim % 2 or v_rel.to_dim % 2:
        raise DimensionMismatchError("V must act between doubled spaces")
    metric = _pair_metric(hilbert_space(v_rel.from_dim // 2),
                          hilbert_space(v_rel.to_dim // 2))
    return _classify_graph(v_rel.graph.basis, metric, tol)


def transform_left(bp: BoundaryPair, v_rel: LinearRelation):
    """The pair with Gamma' = V Gamma for a boundary-side relation V.

    One of two hypothesis bundles must hold: (i) dom V covers ran
    Gamma (then the underlying T is unchanged), or (ii) dom V is
    contained in ran Gamma (then T grows to Gamma^{-1}(mul V+)); if
    neither does, PreconditionError.  Returns ``(pair, info)`` where
    info records the V classification, which bundle held, and T' for
    bundle (ii).
    """
    tol = bp.tol
    if v_rel.from_dim != 2 * bp.m:
        raise DimensionMismatchError("V must act on the doubled boundary space")
    m2 = v_rel.to_dim // 2
    cls = boundary_v_classification(v_rel, tol)
    if cls == "not_isometric":
        raise PreconditionError("V is not an isometric boundary-side relation")
    ran_gamma = bp.gamma.ran(tol)
    dom_v = v_rel.dom(tol)
    info = {"v_classification": cls}
    if sub_contains(dom_v, ran_gamma, tol):
        bundle = "dom_v_covers_ran_gamma"
    elif sub_contains(ran_gamma, dom_v, tol):
        bundle = "dom_v_within_ran_gamma"
        # mul V+ = (dom V)^[perp] in the doubled boundary metric
        mul_v_plus = null_space(
            dom_v.basis.conj().T @ hilbert_space(bp.m).hat, tol)
        t_new = shmulyan(bp.gamma.inverse(), mul_v_plus, tol)
        info["T_prime"] = t_new
    else:
        raise PreconditionError(
            "neither hypothesis bundle holds: dom V and ran Gamma are "
            "incomparable")
    info["bundle"] = bundle
    gamma_new = compose(v_rel, bp.gamma, tol)
    return BoundaryPair(bp.H, m2, gamma_new, tol), info


def _scale_rows(bp: BoundaryPair, kappa) -> BoundaryPair:
    """V Gamma for V = (I/kappa, 0; 0, kappa I): B's l rows / kappa."""
    scale = np.repeat([1.0 / kappa, kappa], bp.m)[:, None]
    return _pair_from_rows(bp, bp.H, bp.gamma.F, scale * bp.gamma.G)


def scale_eps(bp: BoundaryPair, eps) -> BoundaryPair:
    """Gamma_eps = V_eps Gamma, V_eps = (eps^{-1/2} I, 0; 0, eps^{1/2} I).

    The operator part of the Weyl family scales by eps, its multivalued
    part by eps^{1/2}."""
    if not eps > 0:
        raise PreconditionError("eps must be positive")
    return _scale_rows(bp, eps ** 0.5)


def scaled_obt(bp: BoundaryPair, kappa) -> BoundaryPair:
    """The scaled triple Gamma'_0 = kappa^{-1} Gamma_0, Gamma'_1 =
    kappa Gamma_1, with Weyl function kappa^2 M(z)."""
    kappa = float(kappa)
    if min(abs(kappa - v) for v in (-1.0, 0.0, 1.0)) < _KAPPA_ATOL:
        raise PreconditionError("kappa in {-1, 0, 1} gives a trivial scaling")
    if not bp.is_obt():
        raise PreconditionError("scaling is defined for ordinary boundary "
                                "triples")
    return _scale_rows(bp, kappa)


@dataclass(frozen=True)
class QbtMap:
    """The quasi-boundary-triple map V = (G^{-1}, 0; EG^{-1}, G*)."""

    G: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.G, dtype=complex)
        E = np.asarray(self.E, dtype=complex)
        m = G.shape[0]
        if G.shape != (m, m) or E.shape != (m, m):
            raise DimensionMismatchError("G and E must be square of equal size")
        if not (np.isfinite(G).all() and np.isfinite(E).all()):
            raise ValidationError("G and E must have finite entries")
        s = np.linalg.svd(G, compute_uv=False)
        if s.size and s[-1] <= _QBT_RTOL * s[0] * m:
            raise ValidationError("G must be invertible")
        if np.linalg.norm(E - E.conj().T) > _BLOCK_ATOL:
            raise ValidationError("E must be Hermitian")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "E", E)

    @property
    def m(self):
        return self.G.shape[0]

    def block_matrix(self):
        Ginv = np.linalg.inv(self.G)
        return np.block([[Ginv, np.zeros_like(Ginv)],
                         [self.E @ Ginv, self.G.conj().T]])


def qbt_transform(bp: BoundaryPair, q: QbtMap) -> BoundaryPair:
    """Gamma' = V Gamma for the QBT map; M'(z) = E + G* M(z) G.

    Requires an ordinary boundary triple, or an isometric triple with
    ker Gamma = T and self-adjoint T0 (the construction hypotheses);
    hypothesis failures are reported individually.
    """
    tol = bp.tol
    if q.m != bp.m:
        raise DimensionMismatchError("QbtMap size does not match the pair")
    if not bp.is_obt():
        problems = []
        ker_gamma = LinearRelation(bp.n, bp.n, bp.gamma.ker(tol))
        if not rel_equal(ker_gamma, bp.underlying_T(), tol):
            problems.append("ker Gamma != T")
        if not is_selfadjoint(bp.T0(), bp.H, tol):
            problems.append("T0 is not self-adjoint")
        if problems:
            raise PreconditionError("QBT hypotheses fail: "
                                    + "; ".join(problems))
    return _pair_from_rows(bp, bp.H, bp.gamma.F,
                           q.block_matrix() @ bp.gamma.G)


def v_star(v_rel: LinearRelation, tol) -> LinearRelation:
    """V_* = dom(V ∩ (L^2 × ({0} × cH))), read as a relation in the
    boundary space; dom V_* = {0} together with Gamma_1(T0) ⊆ mul V_*
    forces T'_0 = T0.  The span of V_F null(V_G'), V_G' the first half
    of V's output rows."""
    half = v_rel.to_dim // 2
    N = null_space(v_rel.G[:half], tol)
    m = v_rel.from_dim // 2
    return LinearRelation(m, m, column_space(v_rel.F @ N.basis, tol))
