"""Theorem-keyed property checks and the Weyl-family sweep.

Every check id maps to exactly one property: one ordered registry
table holds each id with its check and its vacuous clauses, and the
canonical id list THEOREM_IDS is read off it.  Each trial draws
its randomness from a per-trial substream of the seeded generator, so
reports are byte-identical for identical (id, trials, dims, seed)
inputs.  Hypotheses that are automatically true in finite dimensions
(closedness, density, closability) are listed per check in the
``vacuous_clauses`` ledger of the report, never silently dropped.
"""

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .boundary import (
    BoundaryPair,
    _weyl_samples,
    delta_excluded_points,
    gamma_sharp,
    in_delta,
    main_transform,
    main_transform_space,
    sigma0_points,
    theta_extension,
    weyl,
)
from .errors import GenerationError, PreconditionError, ValidationError
from .generators import (
    InstanceSpec,
    gen_boundary_unitary_relation,
    gen_obt,
    gen_qbt_map,
    gen_std_unitary,
    gen_unitary_boundary_pair,
    gen_unitary_pair_with_T,
    random_krein,
    random_relation,
    random_subspace,
    random_unitary,
    rng_stream,
)
from .nevanlinna import KernelSampleGrid, _symmetry_residual, gen_nevanlinna_probe
from .relations import (
    LinearRelation,
    _rel_residual,
    compose,
    cw_sum,
    full_relation,
    hilbert_adjoint,
    in_resolvent,
    is_selfadjoint,
    is_symmetric,
    krein_adjoint,
    op_sum,
    point_spectrum,
    rel_contains,
    rel_equal,
    rel_from_operator,
    shmulyan,
    sigma_p_contains,
)
from .spaces import hilbert_space, make_krein
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    column_space,
    contains as sub_contains,
    intersect,
    null_space,
    subspace_equal,
)
from .transforms import (
    delta_correction,
    in_rho_v,
    lft,
    n_hat_v,
    p_poly,
    qbt_transform,
    scale_eps,
    scaled_obt,
    transform_left,
    transform_right,
    u_j,
    v_star,
)

__all__ = ["CheckReport", "THEOREM_IDS", "check_theorem", "weyl_sweep",
           "SWEEP_COLUMNS"]


@dataclass(frozen=True)
class CheckReport:
    theorem_id: str
    trials: int
    failures: int
    worst_residual: float
    vacuous_clauses: tuple
    seed: int

    @property
    def passed(self):
        return self.failures == 0

    def to_json(self):
        return json.dumps({
            "theorem_id": self.theorem_id,
            "trials": self.trials,
            "failures": self.failures,
            "worst_residual": float(self.worst_residual),
            "vacuous_clauses": list(self.vacuous_clauses),
            "seed": self.seed,
        }, sort_keys=True)


# ---------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------

def _dim(rng, dims):
    lo, hi = dims
    return int(rng.integers(lo, hi + 1))


def _nonreal_z(rng):
    re = float(rng.uniform(-2.0, 2.0))
    im = float(rng.uniform(0.3, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
    return complex(re, im)


def _rand_bp(rng, dims, tol):
    n = _dim(rng, dims)
    m = max(1, _dim(rng, (1, min(n, 3))))
    kappa = int(rng.integers(0, n + 1))
    spec = InstanceSpec(n, m, kappa)
    return gen_unitary_boundary_pair(spec, rng, tol)


def _rand_obt(rng, dims, tol):
    n = _dim(rng, dims)
    m = max(1, _dim(rng, (1, min(n, 3))))
    k = int(rng.integers(0, n + 1))
    return gen_obt(InstanceSpec(n, m, k), rng, tol)


def _sub_relation(rng, R, tol, k=None):
    """A random sub-relation of R (random subspace of its graph)."""
    d = R.graph.dim
    if k is None:
        k = int(rng.integers(0, d + 1))
    if k == 0:
        return LinearRelation(R.from_dim, R.to_dim,
                              Subspace(R.graph.ambient_dim, []))
    coeff = random_unitary(rng, d)[:, :k]
    return LinearRelation(R.from_dim, R.to_dim,
                          column_space(R.graph.basis @ coeff, tol))


# Largest _mat_residual between the two sides of a matrix identity of
# Weyl functions: each side comes from a few SVDs and solves of
# unit-scale bases, whose rounding lies orders of magnitude below it.
_MAT_RTOL = 1e-8
# Delta(z) counts as zero below _DELTA_ZERO_RTOL max(1, |z|): its blocks
# grow like |z|, and the unaligned fixture's nonzero Delta has norm of
# order one.
_DELTA_ZERO_RTOL = 1e-7
# An eigenvalue of a Hermitian boundary Gram matrix within
# _SIGN_RTOL max(1, max |eigenvalue|) of zero counts as neutral.
_SIGN_RTOL = 1e-10
# rrzz: conjugates pair within the closure's merge radius 1e-8 (1 + |w|)
_CONJ_PAIR_ATOL = 1e-7
# rrzz: an excluded point with |Im w| above this is nonreal, so not in delta
_REAL_ATOL = 1e-9
# rrzz: a z this far from every excluded point, far past the merge radius
_FAR_ATOL = 1e-4


def _mat_residual(A, B):
    A = np.asarray(A); B = np.asarray(B)
    return float(np.linalg.norm(A - B) / max(1.0, np.linalg.norm(A)))


# ---------------------------------------------------------------------
# relation-calculus lemmas
# ---------------------------------------------------------------------

def _check_pop_lemma(rng, dims, tol):
    n, m = _dim(rng, dims), _dim(rng, dims)
    R = random_relation(rng, n, m)
    if rng.uniform() < 0.3:
        L = R
    else:
        L = _sub_relation(rng, R, tol)
    eq = rel_equal(L, R, tol)
    dom_mul = (subspace_equal(L.dom(tol), R.dom(tol), tol)
               and subspace_equal(L.mul(tol), R.mul(tol), tol))
    ran_ker = (subspace_equal(L.ran(tol), R.ran(tol), tol)
               and subspace_equal(L.ker(tol), R.ker(tol), tol))
    ok = (dom_mul == eq) and (ran_ker == eq)
    return ok, 0.0


def _check_derk_lemma(rng, dims, tol):
    p, n, q = (_dim(rng, dims) for _ in range(3))
    K0 = random_krein(rng, p, int(rng.integers(0, p + 1)))
    K1 = random_krein(rng, n, int(rng.integers(0, n + 1)))
    K2 = random_krein(rng, q, int(rng.integers(0, q + 1)))
    R = random_relation(rng, n, q)
    # first bullet: ran X ⊆ dom R gives (RX)+ = X+ R+; X is a random
    # relation with its range restricted to dom R
    X = random_relation(rng, p, n).inverse().restrict_domain(
        R.dom(tol), tol).inverse()
    lhs = krein_adjoint(compose(R, X, tol), K0, K2, tol)
    rhs = compose(krein_adjoint(X, K0, K1, tol),
                  krein_adjoint(R, K1, K2, tol), tol)
    r1 = _rel_residual(lhs, rhs)
    # second bullet: dom Y ⊆ ran R gives (YR)+ = R+ Y+
    Y = random_relation(rng, q, p).restrict_domain(R.ran(tol), tol)
    lhs2 = krein_adjoint(compose(Y, R, tol), K1, K0, tol)
    rhs2 = compose(krein_adjoint(R, K1, K2, tol),
                   krein_adjoint(Y, K2, K0, tol), tol)
    r2 = _rel_residual(lhs2, rhs2)
    res = max(r1, r2)
    return res <= tol.angle_tol, res


def _check_cwsum_adjoint(rng, dims, tol):
    n, m = _dim(rng, dims), _dim(rng, dims)
    K1 = random_krein(rng, n, int(rng.integers(0, n + 1)))
    K2 = random_krein(rng, m, int(rng.integers(0, m + 1)))
    V = random_relation(rng, n, m)
    W = random_relation(rng, n, m)
    lhs = krein_adjoint(cw_sum(V, W, tol), K1, K2, tol)
    rhs_graph = intersect(krein_adjoint(V, K1, K2, tol).graph,
                          krein_adjoint(W, K1, K2, tol).graph, tol)
    rhs = LinearRelation(m, n, rhs_graph)
    res = _rel_residual(lhs, rhs)
    return res <= tol.angle_tol, res


def _check_torth(rng, dims, tol):
    n = _dim(rng, dims)
    m = max(1, _dim(rng, (1, min(n, 3))))
    H = random_krein(rng, n, int(rng.integers(0, n + 1)))
    T = random_relation(rng, n, n)
    V = random_relation(rng, 2 * n, 2 * m)
    lhs = hilbert_adjoint(shmulyan(V, T.graph, tol), tol)
    t_plus = krein_adjoint(T, H, H, tol)
    v_sharp = gamma_sharp(V, H, m, tol)
    rhs = shmulyan(v_sharp, t_plus.graph, tol)
    res = _rel_residual(lhs, rhs)
    return res <= tol.angle_tol, res


def _check_wie(rng, dims, tol):
    n, m = _dim(rng, dims), _dim(rng, dims)
    V = random_relation(rng, 2 * n, 2 * m)
    T = random_relation(rng, n, n)
    lhs = V.restrict_domain(T.graph, tol)
    cut = intersect(T.graph, V.dom(tol), tol)
    rhs = V.restrict_domain(cut, tol)
    res = _rel_residual(lhs, rhs)
    return res <= tol.angle_tol, res


def _z_slice(rng, n, z, k, tol):
    """A k-dim relation of pairs (f, zf)."""
    F = random_subspace(rng, n, k).basis
    return LinearRelation(n, n, column_space(np.vstack([F, z * F]), tol))


def _check_behrndt20(rng, dims, tol):
    n = max(2, _dim(rng, dims))
    z = _nonreal_z(rng)
    L = random_relation(rng, n, n, graph_dim=int(rng.integers(0, n)))
    if rng.uniform() < 0.5:
        # construct R = L + z-slice so that side (i) holds
        R = cw_sum(L, _z_slice(rng, n, z, int(rng.integers(1, n)), tol), tol)
    else:
        R = cw_sum(L, _sub_relation(rng, random_relation(rng, n, n), tol), tol)
    side_i = rel_equal(R, cw_sum(L, R.graph_restriction(z, tol), tol), tol)
    side_ii = subspace_equal(R.ran_shifted(z, tol), L.ran_shifted(z, tol), tol)
    return side_i == side_ii, 0.0


def _check_projp1(rng, dims, tol):
    n = max(2, _dim(rng, dims))
    z = _nonreal_z(rng)
    L = random_relation(rng, n, n, graph_dim=int(rng.integers(0, n)))
    extra = _z_slice(rng, n, z, int(rng.integers(1, n)), tol)
    R = cw_sum(L, extra, tol)
    if not rel_equal(R, cw_sum(L, R.graph_restriction(z, tol), tol), tol):
        return True, 0.0  # hypothesis (i) failed to materialize; vacuous
    # intermediate L1: L plus part of the z-slice
    k = int(rng.integers(0, extra.graph.dim + 1))
    L1 = cw_sum(L, _sub_relation(rng, extra, tol, k), tol)
    lhs = cw_sum(L, L1.graph_restriction(z, tol), tol)
    res = _rel_residual(L1, lhs)
    return res <= tol.angle_tol, res


# ---------------------------------------------------------------------
# boundary pairs and the main transform
# ---------------------------------------------------------------------

def _check_rrz(rng, dims, tol):
    bp = _rand_bp(rng, dims, tol)
    worst = _symmetry_residual(bp, [_nonreal_z(rng) for _ in range(3)])
    return worst <= tol.angle_tol, worst


def _check_rrzz(rng, dims, tol):
    bp = _rand_bp(rng, dims, tol)
    excluded = delta_excluded_points(bp)
    if excluded is None:
        # sigma_p(T) = C: delta is empty, nothing nonvacuous to test
        return not in_delta(bp, _nonreal_z(rng)), 0.0
    pts = list(excluded)
    for w in pts:
        # symmetric closure
        if not any(abs(np.conj(w) - v) < _CONJ_PAIR_ATOL for v in pts):
            return False, 1.0
        if abs(complex(w).imag) > _REAL_ATOL and in_delta(bp, w):
            return False, 1.0
    z = _nonreal_z(rng)
    clear = all(min(abs(z - w), abs(np.conj(z) - w)) > _FAR_ATOL for w in pts)
    if clear and not in_delta(bp, z):
        return False, 1.0
    return True, 0.0


def _check_equivfNTh(rng, dims, tol):
    bp = _rand_bp(rng, dims, tol)
    m = bp.m
    theta = random_relation(rng, m, m)
    t_theta = theta_extension(bp, theta)
    T, a_star = bp.underlying_T(), bp.a_star()
    if not (rel_contains(t_theta, T, tol) and rel_contains(a_star, t_theta,
                                                           tol)):
        return False, 1.0
    lhs = krein_adjoint(t_theta, bp.H, bp.H, tol)
    rhs = theta_extension(bp, hilbert_adjoint(theta, tol))
    r1 = _rel_residual(lhs, rhs)
    # endpoint: Theta containing ran Gamma recovers A_*
    r2 = _rel_residual(theta_extension(bp, full_relation(m)), a_star)
    res = max(r1, r2)
    return res <= tol.angle_tol, res


def _check_mrTG_selfadjoint(rng, dims, tol):
    bp = _rand_bp(rng, dims, tol)
    K = main_transform_space(bp)
    mt = main_transform(bp)
    if not is_selfadjoint(mt, K, tol):
        return False, 1.0
    # a strictly isometric pair must not give a self-adjoint transform
    sub = _sub_relation(rng, bp.gamma, tol, max(0, bp.gamma.graph.dim - 1))
    bp_iso = BoundaryPair(bp.H, bp.m, sub, tol)
    if bp_iso.classification != "unitary":
        if is_selfadjoint(main_transform(bp_iso), K, tol):
            return False, 1.0
    # T-corner identity: J(Gamma) ∩ (H x {0})^2 = embedded T
    n, m = bp.n, bp.m
    T = bp.underlying_T()
    emb = np.zeros((2 * (n + m), 2 * n), dtype=complex)
    emb[:n, :n] = np.eye(n)
    emb[n + m:2 * n + m, n:] = np.eye(n)
    corner = intersect(mt.graph, column_space(emb, tol), tol)
    res = 0.0 if subspace_equal(corner, column_space(emb @ T.graph.basis, tol),
                                tol) else 1.0
    if res:
        return False, res
    # sigma_p(T) ⊆ sigma_p(J(Gamma))
    spec = point_spectrum(T, tol)
    if spec.all_flag:
        return True, 0.0
    for lam, _dim in spec.eigenvalues:
        if not sigma_p_contains(mt, lam):
            return False, 1.0
    return True, 0.0


def _check_lemma_r(rng, dims, tol):
    bp = _rand_bp(rng, dims, tol)
    samples = [weyl(bp, _nonreal_z(rng)) for _ in range(5)]
    mt = main_transform(bp)
    for sample in samples:
        if sample.in_sigma and not in_resolvent(mt, sample.z, tol):
            return False, 1.0
    return True, 0.0


def _check_lemma_r2(rng, dims, tol):
    bp = _rand_bp(rng, dims, tol)
    z = _nonreal_z(rng)
    if not in_delta(bp, z):
        return True, 0.0  # z outside delta: hypothesis empty for this draw
    eps = abs(z) / 2.0
    # bijectivity of M_eps(z) + z: 0 is a regular point of the relation
    return weyl(scale_eps(bp, eps), z).shift_invertible, 0.0


def _check_resTG_pipeline(rng, dims, tol):
    bp = _rand_bp(rng, dims, tol)
    z = _nonreal_z(rng)
    if not in_delta(bp, z):
        return True, 0.0
    eps = abs(z) / 2.0
    bps = scale_eps(bp, eps)
    return in_resolvent(main_transform(bps), z, tol), 0.0


# ---------------------------------------------------------------------
# right scheme: Gamma -> Gamma V^{-1}
# ---------------------------------------------------------------------

def _check_IUBP(rng, dims, tol):
    bp = _rand_bp(rng, dims, tol)
    K_to = random_krein(rng, bp.n, int(rng.integers(0, bp.n + 1)))
    V = gen_std_unitary(rng, bp.H, K_to)
    bp2 = transform_right(bp, V)
    if bp2.classification != bp.classification:
        return False, 1.0
    z = _nonreal_z(rng)
    v_rel = rel_from_operator(V.block_matrix())
    slice_v = n_hat_v(v_rel, bp.a_star(), z, tol)
    lhs = shmulyan(bp.gamma, slice_v, tol)
    res = _rel_residual(weyl(bp2, z).M, lhs)
    return res <= tol.angle_tol, res


def _check_IUBP3(rng, dims, tol):
    bp = _rand_obt(rng, dims, tol)
    if rng.uniform() < 0.25:
        V = u_j(bp.H)  # the U_J family is part of the suite
    else:
        V = gen_std_unitary(rng, bp.H)
    z = next((z for z in (_nonreal_z(rng) for _ in range(16))
              if in_rho_v(bp, V, z)), None)
    if z is None:
        return True, 0.0
    delta = delta_correction(bp, V, z)
    bp2 = transform_right(bp, V)
    m_new = weyl(bp2, z).M.to_matrix(tol)
    m_old = weyl(bp, z).M.to_matrix(tol)
    res = _mat_residual(m_new, m_old + delta)
    return res <= _MAT_RTOL, res


def _delta0_fixture(rng, tol, aligned):
    """An OBT on (C^2, diag(1,-1)) for a 1-dim symmetric operator T and
    the evaluation point z, with N_z(T+) inside ker p_{U_J}(z) exactly
    when ``aligned``."""
    J = np.diag([1.0, -1.0])
    H = make_krein(J)
    z = _nonreal_z(rng)
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    if aligned:
        # (e1, z e1) in T+ demands f'_1 = conj(z) f_1 on T
        v1 = np.conj(z) * u[0]
    else:
        v1 = np.conj(z) * u[0] + 1.0 + float(rng.uniform(0.2, 1.0))
    s = float(rng.uniform(-2.0, 2.0))
    # symmetry of span{(u, v)} in (C^2, J): Im((Ju)^H v) = 0, which for
    # u = (1,1)/sqrt(2) and J = diag(1,-1) reads Im v2 = Im v1
    v2 = s + 1j * float(np.imag(v1))
    v = np.array([v1, v2], dtype=complex)
    T = LinearRelation(2, 2, column_space(np.concatenate([u, v]), tol))
    if not is_symmetric(T, H, tol):
        raise GenerationError("fixture relation is not symmetric")
    for _ in range(64):
        bp = gen_unitary_pair_with_T(T, H, 1, rng, tol)
        if bp.is_obt() and bp.underlying_T().is_operator(tol):
            return bp, z
    raise GenerationError("no OBT realization found for the fixture")


def _check_delta0(rng, dims, tol):
    V_of = u_j
    for aligned in (True, False):
        bp, z = _delta0_fixture(rng, tol, aligned)
        V = V_of(bp.H)
        if not in_rho_v(bp, V, z):
            return True, 0.0
        delta = delta_correction(bp, V, z)
        nz = bp.t_plus().eigenspace(z, tol)
        kerp = null_space(p_poly(V, z), tol)
        inside = sub_contains(kerp, nz, tol)
        zero = np.linalg.norm(delta) <= _DELTA_ZERO_RTOL * max(1.0, abs(z))
        if inside != zero:
            return False, 1.0
    return True, 0.0


def _check_delta0b(rng, dims, tol):
    for aligned in (True, False):
        bp, z = _delta0_fixture(rng, tol, aligned)
        V = u_j(bp.H)
        if not in_rho_v(bp, V, z):
            return True, 0.0
        delta = delta_correction(bp, V, z)
        zero = np.linalg.norm(delta) <= _DELTA_ZERO_RTOL * max(1.0, abs(z))
        nz = bp.t_plus().eigenspace(z, tol)
        Wz = V.A + z * V.B
        phi = lft(V, rel_from_operator(z * np.eye(bp.n)), tol)
        image = column_space(Wz @ nz.basis, tol)
        inside = sub_contains(phi.eigenspace(z, tol), image, tol)
        if inside != zero:
            return False, 1.0
    return True, 0.0


def _check_scaled_obt(rng, dims, tol):
    bp = _rand_obt(rng, dims, tol)
    worst = 0.0
    for kappa in (2.0, math.sqrt(3.0), -2.0):
        bp2 = scaled_obt(bp, kappa)
        z = _nonreal_z(rng)
        M = weyl(bp, z).M
        M2 = weyl(bp2, z).M
        if M.is_operator(tol) and M2.is_operator(tol):
            worst = max(worst, _mat_residual(kappa ** 2 * M.to_matrix(tol),
                                             M2.to_matrix(tol)))
        else:
            scale = rel_from_operator(kappa ** 2 * np.eye(bp.m))
            worst = max(worst, _rel_residual(M2, compose(scale, M, tol)))
    return worst <= _MAT_RTOL, worst


def _check_fTex(rng, dims, tol):
    bp = _rand_obt(rng, dims, tol)
    V = u_j(bp.H)
    J = bp.H.J
    T0 = bp.T0()
    if not T0.is_operator(tol) or T0.dom(tol).dim != bp.n:
        return True, 0.0  # T0 not an everywhere-defined operator this draw
    T0m = T0.to_matrix(tol)
    F0 = J @ T0m  # the fundamentally-rotated extension J T0
    z = None
    for _ in range(16):
        cand = _nonreal_z(rng)
        if (in_rho_v(bp, V, cand)
                and np.linalg.cond(F0 - cand * np.eye(bp.n)) < 1e8):
            z = cand
            break
    if z is None:
        return True, 0.0
    delta = delta_correction(bp, V, z)
    gamma_mat = weyl(bp, z).gamma_field.to_matrix(tol)
    X = np.linalg.solve(F0 - z * np.eye(bp.n),
                        (np.eye(bp.n) - J) @ gamma_mat)
    # Gamma_1 on the T0 elements (x, T0 x): the l' rows of the unique
    # element of the operator Gamma over each, by one lstsq
    coeff = np.linalg.lstsq(bp.gamma.F, np.vstack([X, T0m @ X]),
                            rcond=None)[0]
    alt = z * bp.gamma.G[bp.m :] @ coeff
    res = _mat_residual(delta, alt)
    return res <= _MAT_RTOL, res


# ---------------------------------------------------------------------
# left scheme: Gamma -> V Gamma
# ---------------------------------------------------------------------

def _check_IBP0(rng, dims, tol):
    bp = _rand_bp(rng, dims, tol)
    V = gen_boundary_unitary_relation(rng, bp.m)
    bp2, info = transform_left(bp, V)
    z = _nonreal_z(rng)
    lhs = weyl(bp2, z).M
    rhs = shmulyan(V, weyl(bp, z).M.graph, tol)
    res = _rel_residual(lhs, rhs)
    return res <= tol.angle_tol, res


def _check_IUBP2xxcor(rng, dims, tol):
    bp = _rand_bp(rng, dims, tol)
    V = gen_boundary_unitary_relation(rng, bp.m)
    if not sub_contains(bp.gamma.mul(tol), V.ker(tol), tol):
        return True, 0.0  # ker V not inside mul Gamma: no 1-1 claim
    bp2, _ = transform_left(bp, V)
    bp3, _ = transform_left(bp2, V.inverse())
    res = _rel_residual(bp3.gamma, bp.gamma)
    return res <= tol.angle_tol, res


def _check_GunTp(rng, dims, tol):
    bp = _rand_bp(rng, dims, tol)
    m = bp.m
    V0 = gen_boundary_unitary_relation(rng, m)
    ran_gamma = bp.gamma.ran(tol)
    Jb = hilbert_space(m).hat
    if ran_gamma.dim == 0:
        return True, 0.0
    # A proper window whose metric companion meets ran(Gamma) inside
    # itself: take the companion (within ran(Gamma)) of a neutral
    # direction of the restricted metric.  Companions reverse
    # inclusions, so the companion of the window lands back inside it.
    B = ran_gamma.basis
    A = B.conj().T @ Jb @ B
    w_eig, U_eig = np.linalg.eigh((A + A.conj().T) / 2)
    scale = max(1.0, float(np.max(np.abs(w_eig))))
    pos = [i for i in range(len(w_eig)) if w_eig[i] > _SIGN_RTOL * scale]
    neg = [i for i in range(len(w_eig)) if w_eig[i] < -_SIGN_RTOL * scale]
    nul = [i for i in range(len(w_eig)) if abs(w_eig[i]) <= _SIGN_RTOL * scale]
    if nul:
        u = B @ U_eig[:, nul[0]]
    elif pos and neg:
        u = B @ (U_eig[:, pos[0]] / np.sqrt(w_eig[pos[0]])
                 + U_eig[:, neg[0]] / np.sqrt(-w_eig[neg[0]]))
    else:
        return True, 0.0  # definite restricted metric: no proper window
    window = intersect(
        ran_gamma, null_space((Jb @ u.reshape(-1, 1)).conj().T, tol), tol)
    V = V0.restrict_domain(window, tol)
    # hypothesis: mul V+ = (dom V)^[perp] meets ran(Gamma) inside dom V
    dom_v = V.dom(tol)
    mul_vp = null_space(dom_v.basis.conj().T @ Jb, tol)
    if not sub_contains(dom_v, intersect(ran_gamma, mul_vp, tol), tol):
        return True, 0.0
    bp2, info = transform_left(bp, V)
    if info["bundle"] != "dom_v_within_ran_gamma":
        return True, 0.0
    T_new = info["T_prime"]
    if not is_symmetric(T_new, bp.H, tol):
        return False, 1.0
    if not rel_contains(T_new, bp.underlying_T(), tol):
        return False, 1.0
    return True, 0.0


def _check_VVV(rng, dims, tol):
    bp = _rand_obt(rng, dims, tol)
    q = gen_qbt_map(rng, bp.m)
    bp2 = qbt_transform(bp, q)
    res = _rel_residual(bp2.T0(), bp.T0())
    return res <= tol.angle_tol, res


def _check_Vstar(rng, dims, tol):
    bp = _rand_obt(rng, dims, tol)
    q = gen_qbt_map(rng, bp.m)
    vs = v_star(rel_from_operator(q.block_matrix()), tol)
    if vs.dom(tol).dim != 0 or vs.mul(tol).dim != bp.m:
        return False, 1.0
    # Gamma_1(T0) ⊆ mul V_* is what pins T'_0 = T0
    g1_t0 = column_space(bp._t0_elements()[2 * bp.n + bp.m :], tol)
    return sub_contains(vs.mul(tol), g1_t0, tol), 0.0


def _check_propVVV(rng, dims, tol):
    bp = _rand_obt(rng, dims, tol)
    q = gen_qbt_map(rng, bp.m)
    bp2 = qbt_transform(bp, q)
    if not rel_equal(bp2.underlying_T(), bp.underlying_T(), tol):
        return False, 1.0
    z = _nonreal_z(rng)
    M = weyl(bp, z).M.to_matrix(tol)
    M2 = weyl(bp2, z).M.to_matrix(tol)
    res = _mat_residual(M2, q.E + q.G.conj().T @ M @ q.G)
    return res <= _MAT_RTOL, res


def _check_QBTex(rng, dims, tol):
    bp = _rand_obt(rng, dims, tol)
    m = bp.m
    q = gen_qbt_map(rng, m)
    gamma_new = compose(rel_from_operator(q.block_matrix()), bp.gamma, tol)
    # ker Gamma'+ = mul Gamma'_#
    lhs = LinearRelation(m, m,
                         gamma_sharp(gamma_new, bp.H, m, tol).mul(tol))
    theta0 = LinearRelation(m, m, bp.gamma.ran(tol))
    chain = compose(rel_from_operator(q.G.conj().T),
                    compose(hilbert_adjoint(theta0, tol),
                            rel_from_operator(q.G), tol), tol)
    rhs = op_sum(rel_from_operator(q.E.conj().T), chain, tol)
    res = _rel_residual(lhs, rhs)
    return res <= tol.angle_tol, res


def _check_thmVVV(rng, dims, tol):
    bp = _rand_obt(rng, dims, tol)
    q = gen_qbt_map(rng, bp.m)
    bp2 = qbt_transform(bp, q)
    if bp2.classification == "not_isometric":
        return False, 1.0
    if column_space(bp2.gamma.G[: bp.m], tol).dim != bp.m:
        return False, 1.0
    ker_gamma2 = LinearRelation(bp.n, bp.n, bp2.gamma.ker(tol))
    if not rel_equal(ker_gamma2, bp.underlying_T(), tol):
        return False, 1.0
    z = _nonreal_z(rng)
    M = weyl(bp, z).M.to_matrix(tol)
    M2 = weyl(bp2, z).M.to_matrix(tol)
    res = _mat_residual(M2, q.E + q.G.conj().T @ M @ q.G)
    return res <= _MAT_RTOL, res


# ---------------------------------------------------------------------
# Nevanlinna probe
# ---------------------------------------------------------------------

_PROBE_GRID = KernelSampleGrid(points=(1j, -1j, 0.7 + 1.3j, 0.7 - 1.3j,
                                       -1.4 + 0.6j, -1.4 - 0.6j))


def _check_pstan2_probe(rng, dims, tol):
    bp = _rand_bp(rng, dims, tol)
    probe = gen_nevanlinna_probe(bp, 0.25, _PROBE_GRID)
    if probe["condition1"] is not True:
        return False, 1.0
    if probe["condition3"] is False:
        return False, 1.0  # kappa' > kappa_minus: build-failing event
    if bp.H.neg_index == 0 and probe["kappa_prime"] not in (0, None):
        return False, 1.0
    return True, 0.0


# ---------------------------------------------------------------------
# registry and driver
# ---------------------------------------------------------------------

# id -> (check, vacuous clauses); THEOREM_IDS is its key order
_REGISTRY = {
    "pop_lemma": (_check_pop_lemma,
                  ("L and R closed automatically (finite dimensions)",)),
    "derk_lemma": (_check_derk_lemma,
                   ("closures of compositions drop (finite dimensions)",)),
    "cwsum_adjoint": (_check_cwsum_adjoint,
                      ("closure of the componentwise sum drops "
                       "(finite dimensions)",)),
    "torth": (_check_torth,
              ("condition (V) on zI + dom V holds automatically "
               "(finite dimensions)",)),
    "wie": (_check_wie,
            ("V closed automatically; closure of T ∩ dom V drops "
             "(finite dimensions)",)),
    "behrndt20": (_check_behrndt20,
                  ("ran(R - z) closed automatically (finite dimensions)",)),
    "projp1": (_check_projp1,
               ("L1 closed automatically (finite dimensions)",)),
    "rrz": (_check_rrz,
            ("closure of Gamma equals Gamma (finite dimensions)",)),
    "rrzz": (_check_rrzz,
             ("Omega equals all nonreal z: ranges are closed "
              "(finite dimensions)",)),
    "equivfNTh": (_check_equivfNTh,
                  ("closure of Gamma equals Gamma; Theta* domain dense "
                   "(finite dimensions)",)),
    "mrTG_selfadjoint": (_check_mrTG_selfadjoint,
                         ("closedness of the transform graph "
                          "(finite dimensions)",)),
    "lemma_r": (_check_lemma_r,
                ("boundedness of the resolvent is automatic "
                 "(finite dimensions)",)),
    "lemma_r2": (_check_lemma_r2,
                 ("Neumann-series convergence condition |z| > eps is the "
                  "only surviving hypothesis (finite dimensions)",)),
    "resTG_pipeline": (_check_resTG_pipeline,
                       ("exit-space closedness clauses drop "
                        "(finite dimensions)",)),
    "IUBP": (_check_IUBP,
             ("closures of Gamma V^{-1} drop (finite dimensions)",)),
    "IUBP3": (_check_IUBP3,
              ("dense definedness of T read as: T is an operator "
               "(finite dimensions)",)),
    "delta0": (_check_delta0,
               ("closed-domain clauses drop (finite dimensions)",)),
    "delta0b": (_check_delta0b,
                ("disc-radius hypothesis replaced by direct rho_V "
                 "membership (finite dimensions)",)),
    "scaled_obt": (_check_scaled_obt,
                   ("boundedness of the scaled triple is automatic "
                    "(finite dimensions)",)),
    "fTex": (_check_fTex,
             ("dom Gamma = T+ identification is exact "
              "(finite dimensions)",)),
    "IBP0": (_check_IBP0,
             ("closure of V Gamma drops (finite dimensions)",)),
    "IUBP2xxcor": (_check_IUBP2xxcor,
                   ("closedness of the correspondence drops "
                    "(finite dimensions)",)),
    "GunTp": (_check_GunTp,
              ("closed symmetric extension clauses drop "
               "(finite dimensions)",)),
    "VVV": (_check_VVV,
            ("dense range of G and dense domain of G* read as: "
             "G invertible (finite dimensions)",)),
    "Vstar": (_check_Vstar,
              ("{0} x dom G* closed automatically (finite dimensions)",)),
    "propVVV": (_check_propVVV,
                ("mul of the closure of G is trivial: G is a matrix "
                 "(finite dimensions)",)),
    "QBTex": (_check_QBTex,
              ("closure of G equals G (finite dimensions)",)),
    "thmVVV": (_check_thmVVV,
               ("dense range of Gamma' read as: full range "
                "(finite dimensions)",)),
    "pstan2_probe": (_check_pstan2_probe,
                     ("negative squares estimated on finite grids, "
                      "never over all point sets",)),
}

THEOREM_IDS = tuple(_REGISTRY)


def check_theorem(theorem_id, trials=100, dims=(1, 4), seed=0,
                  tol=DEFAULT_TOL) -> CheckReport:
    """Run the property mapped to ``theorem_id`` on seeded random trials."""
    if theorem_id not in _REGISTRY:
        raise ValidationError(f"unknown theorem id: {theorem_id!r}")
    dims = (int(dims[0]), int(dims[1]))
    if not (1 <= dims[0] <= dims[1]):
        raise ValidationError(f"invalid dims range: {dims}")
    func, vacuous = _REGISTRY[theorem_id]
    failures = 0
    worst = 0.0
    for trial in range(int(trials)):
        rng = rng_stream(seed, trial)
        try:
            ok, residual = func(rng, dims, tol)
        except GenerationError:
            continue  # an unrealizable draw, not a property failure
        if not ok:
            failures += 1
        worst = max(worst, float(residual))
    return CheckReport(theorem_id=theorem_id, trials=int(trials),
                       failures=failures, worst_residual=worst,
                       vacuous_clauses=vacuous, seed=int(seed))


# ---------------------------------------------------------------------
# Weyl sweep
# ---------------------------------------------------------------------

SWEEP_COLUMNS = ("re_z", "im_z", "dim_M", "dim_mul", "dim_ker",
                 "is_operator", "in_sigma", "in_j_resolvent")


def weyl_sweep(bp: BoundaryPair, points, eps=0.5, out=None):
    """CSV rows describing M(z) over a nonreal grid.

    Each point is one Weyl sample, all drawn from one call of the
    sample entry along the grid, whose defect elements C give M(z) and
    decide the Sigma and main-transform-resolvent tests; sigma0_p(T),
    which Sigma keeps z off, is formed once per pair.  From n = 16 on, C
    comes from the pair's pencil split, diagonalised once per pair,
    where its guard holds, and from the SVD null space otherwise.  M's
    basis is never formed: dim M(z), dim mul M(z) and dim ker M(z) are
    the sample's ranks of C's 2m boundary rows R, R_l and R_l', and the
    two tests read the rank of W.  On the split route the points go in
    blocks of 4 at n = 128, m = 16: one product gives every block
    point's X and unnormalised boundary rows, and one stacked Cholesky
    proves R, R_l, R_l' and W of full column rank at all of them, with
    no QR or SVD; where it cannot, each point of the block is retried
    alone, and at the points it still cannot prove, and on the SVD
    route, four values-only SVDs per point decide.  A fresh 50-point
    sweep of an n = 128 pair whose points are all proved makes 13
    Choleskys in all.

    Columns: re_z, im_z, dim_M, dim_mul, dim_ker, is_operator (0/1),
    in_sigma (0/1 membership in the invertibility set of M(z)+z),
    in_j_resolvent (0/1, z in the resolvent set of the main transform).

    ``eps`` must be positive, but no column depends on it: the CSV is
    the same for every eps > 0 (identical from 1e-6 to 1e6).
    """
    pts = [complex(z) for z in points]
    if any(z.imag == 0.0 for z in pts):
        raise PreconditionError("sweep grid must avoid the real axis")
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    sigma0_points(bp)  # raises before the header where T is not symmetric
    buf = io.StringIO() if out is None else out
    buf.write(",".join(SWEEP_COLUMNS) + "\n")
    for sample in _weyl_samples(bp, pts):
        z = sample.z
        row = (f"{z.real:.12g}", f"{z.imag:.12g}", sample.dim_M,
               sample.dim_mul, sample.dim_ker, int(sample.dim_mul == 0),
               int(sample.in_sigma), int(sample.in_mt_resolvent))
        buf.write(",".join(map(str, row)) + "\n")
    if out is None:
        return buf.getvalue()
    return None
