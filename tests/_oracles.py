"""Constructions and reference computations that only the tests use.

Fixtures (the trivial relation, the symplectic flip, random symmetric
relations, random isometric pairs and a pair with sigma_p(T) = C) and
oracles (the indefinite metric, the defect numbers, the resolvent
matrix, the inverse of the main transform, the Gram contribution of
two grid points, the linear fractional transformation as an explicit
composition, the block-operator transforms of a pair as compositions
with the operator's graph, the three-clause ordinary-boundary-triple
test, T as (dom Gamma)^[perp], the defect elements C formed in full,
the sweep counts read from M's basis and the spectral sets per point),
each written from its definition rather than from the package's fast
paths.
"""

from dataclasses import dataclass

import numpy as np

from kreinrel.boundary import (
    BoundaryPair,
    _near,
    _require_nonreal,
    _symmetric_closure,
    m_plus_z,
    weyl,
)
from kreinrel.errors import DimensionMismatchError, PreconditionError
from kreinrel.generators import (
    InstanceSpec,
    gen_unitary_boundary_pair,
    gen_unitary_pair_with_T,
    hypermax_neutral,
    random_unitary,
    rng_stream,
)
from kreinrel.relations import (
    LinearRelation,
    _RESOLVENT_SLACK,
    _rank_of,
    _require_square,
    compose,
    rel_from_operator,
    in_resolvent,
    is_symmetric,
    point_spectrum,
)
from kreinrel.spaces import KreinSpace, hilbert_space, make_krein
from kreinrel.subspaces import (
    DEFAULT_TOL,
    Subspace,
    _rank,
    column_space,
    null_space,
    zero_subspace,
)
from kreinrel.transforms import QbtMap, StdUnitaryOp, make_std_unitary


def zero_relation(n, m=None) -> LinearRelation:
    """The trivial relation {(0, 0)}."""
    m = n if m is None else m
    return LinearRelation(n, m, zero_subspace(n + m))


def indef_inner(x, y, K: KreinSpace):
    """The indefinite metric [x, y] = <x, Jy>, linear in ``x``."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    y = np.asarray(y, dtype=complex).reshape(-1)
    if len(x) != K.dim or len(y) != K.dim:
        raise DimensionMismatchError("vector length does not match the space")
    return complex(np.vdot(K.J @ y, x))


def resolvent_matrix(T: LinearRelation, z, tol=DEFAULT_TOL):
    """The matrix of (T - z)^{-1} for z in the resolvent set."""
    _require_square(T)
    n = T.from_dim
    if T.dim != n:
        raise PreconditionError("graph dimension != n: resolvent set is empty")
    X = T.G - z * T.F
    s = np.linalg.svd(X, compute_uv=False) if n else np.zeros(0)
    if n and s[-1] <= tol.rank_rel * max(1.0, s[0]) * n:
        raise PreconditionError(f"z={z} is not in the resolvent set")
    return T.F @ np.linalg.inv(X) if n else np.zeros((0, 0))


def symplectic_flip(n) -> StdUnitaryOp:
    """(0, I; -I, 0) on the Hilbert space C^n."""
    H = hilbert_space(n)
    Z, I = np.zeros((n, n)), np.eye(n)
    return make_std_unitary(Z, I, -I, Z, H, H)


def random_symmetric_relation(rng, H: KreinSpace,
                              graph_dim=None) -> LinearRelation:
    """A random symmetric relation in the Krein space H.

    Symmetric relations are exactly the neutral subspaces of the hat
    symmetry; a random one of dimension d <= n is a random subspace of
    a random maximal neutral subspace.
    """
    n = H.dim
    if graph_dim is None:
        graph_dim = int(rng.integers(0, n + 1))
    if graph_dim > n:
        raise PreconditionError("a symmetric relation has graph dim <= n")
    maximal = hypermax_neutral(rng, H.hat)
    coeff = random_unitary(rng, n)[:, :graph_dim]
    return LinearRelation(n, n, Subspace(2 * n, maximal.basis @ coeff))


def gen_isometric_boundary_pair(spec: InstanceSpec, rng=None, graph_dim=None,
                                tol=DEFAULT_TOL) -> BoundaryPair:
    """A random isometric pair: a random subspace of a unitary Gamma's
    graph (strictly isometric when proper).

    A strictly isometric draw need not have a symmetric T: its
    ker Gamma_# = (dom Gamma)^[perp] is in general larger than
    ker Gamma and not neutral, and then ``underlying_T`` raises
    PreconditionError.
    """
    rng = rng_stream(spec.seed) if rng is None else rng
    full = gen_unitary_boundary_pair(spec, rng, tol)
    total = spec.n + spec.m
    if graph_dim is None:
        graph_dim = int(rng.integers(1, total))
    coeff = random_unitary(rng, total)[:, :graph_dim]
    gamma = LinearRelation(
        2 * spec.n, 2 * spec.m,
        Subspace(2 * (spec.n + spec.m), full.gamma.graph.basis @ coeff))
    return BoundaryPair(full.H, spec.m, gamma, tol)


def sigma_p_all_pair() -> BoundaryPair:
    """A unitary pair whose T = span{(e, 0), (0, e)}, e = (1, 1, 0)/sqrt 2
    neutral in (C^3, diag(1, -1, 1)): the pencil of T is singular, so
    sigma_p(T) = C and delta is empty."""
    H = make_krein(np.diag([1.0, -1.0, 1.0]))
    g = np.zeros((6, 2))
    g[:2, 0] = g[3:5, 1] = 1 / np.sqrt(2)
    T = LinearRelation(3, 3, Subspace(6, g))
    return gen_unitary_pair_with_T(T, H, 1, rng_stream(3))


def defect_numbers(bp: BoundaryPair, z):
    """(n_z, n_zbar) = eigenspace dimensions of T+ at zbar and z."""
    _require_nonreal(z)
    tp = bp.t_plus()
    z = complex(z)
    return (tp.eigenspace(z.conjugate(), bp.tol).dim,
            tp.eigenspace(z, bp.tol).dim)


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


def nev_kernel(bp: BoundaryPair, z, w):
    """The m x m Gram contribution G(z, w) of a pair of grid points.

    G(z, w)[a, b] = [P_H R(conj(w)) (0, e_b), P_H R(conj(z)) (0, e_a)]
    in the Krein metric of the state space, R the resolvent of the
    main transform.  Hermitian in the sense G(z, w)* = G(w, z), and
    congruent to the difference-quotient kernel of the Weyl family.
    """
    for p in (z, w):
        _require_nonreal(p)
    X = weyl(bp, np.conj(w)).resolvent_vectors()
    Y = weyl(bp, np.conj(z)).resolvent_vectors()
    return Y.conj().T @ bp.H.J @ X


def w_rel(A, B, T: LinearRelation, tol=DEFAULT_TOL) -> LinearRelation:
    """W(A, B; T) = {(f, Af + Bf') : (f, f') in T}."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape[1] != T.from_dim or B.shape[1] != T.to_dim:
        raise DimensionMismatchError("blocks do not match the relation")
    basis = np.vstack([T.F, A @ T.F + B @ T.G])
    return LinearRelation(T.from_dim, A.shape[0], column_space(basis, tol))


def lft_composition(V: StdUnitaryOp, T: LinearRelation, tol=DEFAULT_TOL):
    """phi_V(T) = W(C,D;T) W(A,B;T)^{-1}, or None when 0 is an
    eigenvalue of W(A, B; T)."""
    w_fwd = w_rel(V.A, V.B, T, tol)
    if w_fwd.ker(tol).dim:
        return None
    return compose(w_rel(V.C, V.D, T, tol), w_fwd.inverse(), tol)


def transform_right_chain(bp: BoundaryPair, V: StdUnitaryOp) -> LinearRelation:
    """Gamma V^{-1}: Gamma composed with the inverse of V's graph."""
    return compose(bp.gamma, rel_from_operator(V.block_matrix()).inverse())


def transform_left_chain(bp: BoundaryPair, v) -> LinearRelation:
    """V Gamma: the graph of the boundary-side matrix v composed with
    Gamma."""
    return compose(rel_from_operator(v), bp.gamma)


def scaling_matrix(kappa, m):
    """V = (kappa^{-1} I, 0; 0, kappa I) on C^{2m}."""
    zero = np.zeros((m, m))
    return np.block([[np.eye(m) / kappa, zero], [zero, kappa * np.eye(m)]])


def qbt_matrix(q: QbtMap):
    """V = (G^{-1}, 0; EG^{-1}, G*) on C^{2m}."""
    Ginv = np.linalg.inv(q.G)
    return np.block([[Ginv, np.zeros((q.m, q.m))],
                     [q.E @ Ginv, q.G.conj().T]])


def is_obt_three_clauses(bp: BoundaryPair):
    """Ordinary boundary triple by its definition: Gamma unitary, an
    operator and onto C^{2m}."""
    return (bp.classification == "unitary"
            and bp.gamma.is_operator(bp.tol)
            and bp.gamma.ran(bp.tol).dim == 2 * bp.m)


def underlying_t_perp(bp: BoundaryPair) -> LinearRelation:
    """T = (dom Gamma)^[perp] = null(B_H* hat J_H), checked symmetric in
    H; PreconditionError where the pair is not isometric or that
    relation is not symmetric."""
    if bp.classification == "not_isometric":
        raise PreconditionError("pair is not isometric; T is undefined")
    B_H = bp.gamma.graph.basis[: 2 * bp.n]
    T = LinearRelation(bp.n, bp.n,
                       null_space(B_H.conj().T @ bp.H.hat, bp.tol))
    if not is_symmetric(T, bp.H, bp.tol):
        raise PreconditionError("(dom Gamma)^[perp] is not symmetric")
    return T


def defect_elements(gamma: LinearRelation, n, z, tol=DEFAULT_TOL):
    """C = B null(B_f' - z B_f) in full: columns spanning
    {(f, zf, l, l') in Gamma}."""
    B = gamma.graph.basis
    return B @ null_space(B[n : 2 * n] - z * B[:n], tol).basis


def _null_dim(M, tol=DEFAULT_TOL):
    """dim null_space(M), counted from the singular values alone."""
    n, k = M.shape
    if n == 0 or k == 0:
        return k
    s = np.linalg.svd(M, compute_uv=False)
    return k - _rank(s, M.shape, tol.rank_rel)


def weyl_counts_from_m(sample):
    """(dim M(z), dim mul M(z), dim ker M(z), 0 in res(M(z) + z)) of a
    Weyl sample, read from M's orthonormal basis [F; G], the column
    space of the boundary rows S[2n:] Y: dim null(F), dim null(G) and
    the rank of G + zF at in_resolvent's cutoff.  The last is also
    decided on the relation m_plus_z(M, z), and the two must agree."""
    bp, z = sample.bp, sample.z
    m, tol = bp.m, bp.tol
    M = LinearRelation(m, m, column_space(sample.S[2 * bp.n :] @ sample.Y,
                                          tol))
    cutoff = tol.rank_rel * _RESOLVENT_SLACK
    shift = M.dim == m and (m == 0 or _rank_of(M.G + z * M.F, cutoff) == m)
    if shift != in_resolvent(m_plus_z(M, z, tol), 0.0, tol):
        raise AssertionError(f"the two m_plus_z readings differ at z={z}")
    return M.dim, _null_dim(M.F, tol), _null_dim(M.G, tol), shift


@dataclass(frozen=True)
class SpectralSets:
    excluded_points: tuple       # sigma0_p(T) with conjugates
    sigma_p_all: bool            # T has sigma_p = C (degenerate)
    samples: tuple               # per-z membership dicts


def spectral_sets(bp: BoundaryPair, eps, samples) -> SpectralSets:
    """Membership in Omega, delta, O, Sigma and B^eps at the Weyl samples
    ``samples`` of ``bp``, with sigma0_p(T) from its own point_spectrum
    of T and 0 in res(M(z) + z) decided on the relation m_plus_z.

    In finite dimensions Omega_Gamma is all of C_* (every range is
    closed), and every sample is nonreal; delta_Gamma is C_* minus the
    symmetric closure of sigma0_p(T); O requires ran(A_* - z) = H;
    Sigma additionally 0 in res(M(z) + z); B^eps is the |z| > eps part
    of delta.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    tol = bp.tol
    rep = point_spectrum(bp.underlying_T(), tol)
    sigma_all = rep.all_flag
    sigma0 = () if sigma_all else tuple(
        complex(z) for z, _ in rep.eigenvalues if complex(z).imag != 0.0)
    excluded = _symmetric_closure(sigma0)
    notes = []
    for sample in samples:
        z = sample.z
        d = not sigma_all and not any(_near(z, w) for w in excluded)
        in_O = (not sigma_all and not any(_near(z, w) for w in sigma0)
                and sample.ran_full)
        in_sigma = in_O and in_resolvent(m_plus_z(sample.M, z, tol), 0.0, tol)
        notes.append({
            "z": z,
            "in_Omega": True,
            "in_delta": d,
            "in_O": in_O,
            "in_Sigma": in_sigma,
            "in_B_eps": d and abs(z) > eps,
        })
    return SpectralSets(excluded_points=excluded, sigma_p_all=sigma_all,
                        samples=tuple(notes))
