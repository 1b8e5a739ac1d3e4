"""Constructions and reference computations that only the tests use.

Fixtures (the trivial relation, the symplectic flip, random symmetric
relations and random isometric pairs) and oracles (the indefinite
metric, the defect numbers, the resolvent matrix, the inverse of the
main transform, the Gram contribution of two grid points, the linear
fractional transformation as an explicit composition, the
three-clause ordinary-boundary-triple test, T as (dom Gamma)^[perp]
and the defect elements C formed in full), each written from its
definition rather than from the package's fast paths.
"""

import numpy as np

from kreinrel.boundary import BoundaryPair, _require_nonreal, weyl
from kreinrel.errors import DimensionMismatchError, PreconditionError
from kreinrel.generators import (
    InstanceSpec,
    gen_unitary_boundary_pair,
    hypermax_neutral,
    random_unitary,
    rng_stream,
)
from kreinrel.relations import (
    LinearRelation,
    _require_square,
    compose,
    is_symmetric,
)
from kreinrel.spaces import KreinSpace, hilbert_space
from kreinrel.subspaces import (
    DEFAULT_TOL,
    Subspace,
    column_space,
    null_space,
    zero_subspace,
)
from kreinrel.transforms import StdUnitaryOp, make_std_unitary


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
