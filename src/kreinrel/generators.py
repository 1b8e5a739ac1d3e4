"""Seeded random generators for relations, boundary pairs and block
operators.

Randomness comes from numpy's Philox counter-based 64-bit generator:
stream ``trial`` of a run with seed ``s`` is ``Philox(key=s).jumped(trial)``,
so trials are independent and reproducible in any order.

Unitary boundary relations between the hat-symmetry spaces are in 1-1
correspondence with hypermaximal neutral subspaces of C^{2n+2m} under
the metric diag(hat J_H, -hat J_L) of signature (n+m, n+m); such
subspaces are exactly the graphs of Euclidean-unitary maps from the +1
eigenspace of the metric onto the -1 eigenspace.  The same mechanism
with partial isometries yields isometric pairs and symmetric
relations, and with a prescribed neutral seed subspace it yields
unitary pairs whose underlying T is prescribed.
"""

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryPair
from .errors import GenerationError, PreconditionError, ValidationError
from .relations import LinearRelation, rel_equal
from .spaces import KreinSpace, _pair_metric, hilbert_space, make_krein
from .subspaces import DEFAULT_TOL, Subspace, null_space
from .transforms import QbtMap, StdUnitaryOp, make_std_unitary

__all__ = [
    "InstanceSpec",
    "rng_stream",
    "conditioned_matrix",
    "random_unitary",
    "random_hermitian",
    "random_krein",
    "random_relation",
    "gen_unitary_boundary_pair",
    "gen_obt",
    "gen_unitary_pair_with_T",
    "gen_boundary_unitary_relation",
    "gen_std_unitary",
    "gen_qbt_map",
    "random_subspace",
    "hypermax_neutral",
    "RETRY_CAP",
]

RETRY_CAP = 64
# T x {0} is neutral when a* a = I/2 to this (rounding lies far below)
_SEED_GRAM_ATOL = 1e-8
# least sigma(F) of a graph kept as an operator: G F^{-1} stays well scaled
_MIN_F_SIGMA = 1e-3
# block conditions of G F^{-1}, which scales rounding by up to 1/_MIN_F_SIGMA
_OP_ATOL = 1e-8


@dataclass(frozen=True)
class InstanceSpec:
    n: int
    m: int
    kappa_minus: int = 0

    def __post_init__(self):
        for name, size in (("n", self.n), ("m", self.m)):
            if size < 0:
                raise ValidationError(
                    f"{name} must be nonnegative, not {size}")
        if not 0 <= self.kappa_minus <= self.n:
            raise PreconditionError("kappa_minus must lie between 0 and n")


_WORD = (1 << 64) - 1


def rng_stream(seed, trial=0):
    """Philox substream ``trial`` of the run with the given seed: the
    state of Philox(key=seed).jumped(trial), built from its counter,
    whose upper two words hold the jump count modulo 2^128.  The counter
    is a uint64 array, which keeps trials from 2^63 on exact."""
    t = int(trial)
    counter = np.array([0, 0, t & _WORD, (t >> 64) & _WORD], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=int(seed),
                                                counter=counter))


def _cgauss(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def conditioned_matrix(rng, rows, cols):
    """Complex Gaussian matrix with singular values clipped to
    [0.1, 10] - keeps chained tolerances meaningful."""
    u, s, vh = np.linalg.svd(_cgauss(rng, rows, cols), full_matrices=False)
    return u @ np.diag(np.clip(s, 0.1, 10.0)) @ vh


def random_unitary(rng, n):
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    q, r = np.linalg.qr(_cgauss(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, n):
    X = conditioned_matrix(rng, n, n)
    return (X + X.conj().T) / 2


def random_krein(rng, n, kappa_minus) -> KreinSpace:
    """Random fundamental symmetry with the given negative index."""
    if kappa_minus == 0:
        return make_krein(np.eye(n, dtype=complex))
    u = random_unitary(rng, n)
    signs = np.array([1.0] * (n - kappa_minus) + [-1.0] * kappa_minus)
    return make_krein(u @ np.diag(signs) @ u.conj().T)


def random_subspace(rng, n, k) -> Subspace:
    if k == 0:
        return Subspace(n, np.zeros((n, 0)))
    return Subspace(n, random_unitary(rng, n)[:, :k])


def random_relation(rng, n, m, graph_dim=None) -> LinearRelation:
    """A uniformly random relation C^n -> C^m of the given graph dim."""
    total = n + m
    if graph_dim is None:
        graph_dim = int(rng.integers(0, total + 1))
    return LinearRelation(n, m, random_subspace(rng, total, graph_dim))


# ---------------------------------------------------------------------
# neutral-subspace machinery
# ---------------------------------------------------------------------

def _eigensplit(metric):
    """Orthonormal bases of the +1 and -1 eigenspaces of a Hermitian
    involution."""
    w, v = np.linalg.eigh(metric)
    minus = v[:, w < 0]
    plus = v[:, w > 0]
    return plus, minus


def hypermax_neutral(rng, metric) -> Subspace:
    """A random hypermaximal neutral subspace of a balanced-signature
    Hermitian involution: the graph of a random unitary from the +1
    eigenspace onto the -1 eigenspace."""
    plus, minus = _eigensplit(metric)
    p = plus.shape[1]
    if p != minus.shape[1]:
        raise PreconditionError("metric signature is not balanced")
    U = random_unitary(rng, p)
    basis = (plus + minus @ U) / np.sqrt(2.0)
    return Subspace(metric.shape[0], basis)


# ---------------------------------------------------------------------
# boundary pairs
# ---------------------------------------------------------------------

def gen_unitary_boundary_pair(spec: InstanceSpec, rng,
                              tol=DEFAULT_TOL) -> BoundaryPair:
    """A random unitary boundary pair with the requested signature, drawn
    from the generator rng (``rng_stream(seed, trial)``)."""
    H = random_krein(rng, spec.n, spec.kappa_minus)
    graph = hypermax_neutral(rng, _pair_metric(H, hilbert_space(spec.m)))
    gamma = LinearRelation(2 * spec.n, 2 * spec.m, graph)
    return BoundaryPair(H, spec.m, gamma, tol)


def gen_obt(spec: InstanceSpec, rng, tol=DEFAULT_TOL) -> BoundaryPair:
    """A random ordinary boundary triple: unitary pair drawn from the
    generator rng and resampled until Gamma is a surjective operator
    (retry cap 64)."""
    if spec.m > spec.n:
        raise GenerationError(
            "no surjective operator Gamma exists for m > n "
            "(dim Gamma = n + m < 2m)")
    for _ in range(RETRY_CAP):
        bp = gen_unitary_boundary_pair(spec, rng, tol)
        if bp.is_obt():
            return bp
    raise GenerationError("retry cap exhausted while sampling an OBT")


def gen_unitary_pair_with_T(T: LinearRelation, H: KreinSpace, m, rng,
                            tol=DEFAULT_TOL) -> BoundaryPair:
    """A random unitary pair whose underlying symmetric relation is the
    prescribed T.

    T x {0} is a neutral subspace of the pair metric; it is the graph
    of an isometry between parts of the +-1 eigenspaces, which is
    completed to a unitary by a random rotation of the complements.
    Resamples, up to RETRY_CAP times, until ker Gamma = T exactly (the
    completion can accidentally enlarge the kernel).  A unitary Gamma
    with ker Gamma = T has dim mul Gamma = m + dim T - n, so dim T + m
    < n raises PreconditionError before any draw.
    """
    n = H.dim
    if T.from_dim != n or T.to_dim != n:
        raise PreconditionError("T must be a relation in H")
    metric = _pair_metric(H, hilbert_space(m))
    plus, minus = _eigensplit(metric)
    p = plus.shape[1]
    d = T.dim
    if d > p:
        raise PreconditionError("dim T exceeds n + m")
    if d + m < n:
        raise PreconditionError("dim T + m < n: no unitary pair has "
                                "ker Gamma = T")
    seedbasis = np.vstack([T.graph.basis,
                           np.zeros((2 * m, d), dtype=complex)])
    a = plus.conj().T @ seedbasis
    b = minus.conj().T @ seedbasis
    if np.linalg.norm(a.conj().T @ a - np.eye(d) / 2) > _SEED_GRAM_ATOL:
        raise PreconditionError("prescribed T is not symmetric in H")
    qa, qb = np.sqrt(2.0) * a, np.sqrt(2.0) * b
    qa_perp = null_space(qa.conj().T, tol).basis
    qb_perp = null_space(qb.conj().T, tol).basis
    for _ in range(RETRY_CAP):
        R = random_unitary(rng, p - d)
        U = qb @ qa.conj().T + qb_perp @ R @ qa_perp.conj().T
        basis = (plus + minus @ U) / np.sqrt(2.0)
        gamma = LinearRelation(2 * n, 2 * m, Subspace(2 * (n + m), basis))
        bp = BoundaryPair(H, m, gamma, tol)
        if bp.classification == "unitary" and rel_equal(
                bp.underlying_T(), T, tol):
            return bp
    raise GenerationError("could not realize the prescribed T as ker Gamma")


# ---------------------------------------------------------------------
# block operators and boundary-side maps
# ---------------------------------------------------------------------

def gen_boundary_unitary_relation(rng, m, m2=None) -> LinearRelation:
    """A random unitary relation between doubled boundary spaces."""
    m2 = m if m2 is None else m2
    metric = _pair_metric(hilbert_space(m), hilbert_space(m2))
    graph = hypermax_neutral(rng, metric)
    return LinearRelation(2 * m, 2 * m2, graph)


def gen_std_unitary(rng, K_from: KreinSpace,
                    K_to: KreinSpace = None) -> StdUnitaryOp:
    """A random standard unitary block operator between doubled Krein
    spaces: a random unitary relation there, resampled up to RETRY_CAP
    times until it is the graph of an (automatically invertible)
    operator."""
    K_to = K_from if K_to is None else K_to
    n, n2 = K_from.dim, K_to.dim
    if n != n2:
        raise PreconditionError("an invertible block operator needs equal dims")
    metric = _pair_metric(K_from, K_to)
    for _ in range(RETRY_CAP):
        graph = hypermax_neutral(rng, metric)
        rel = LinearRelation(2 * n, 2 * n, graph)
        F = rel.F
        s = np.linalg.svd(F, compute_uv=False)
        if s[-1] <= _MIN_F_SIGMA:   # reject ill-conditioned operator parts
            continue
        blocks = rel.G @ np.linalg.inv(F)
        A, B = blocks[:n, :n], blocks[:n, n:]
        C, D = blocks[n:, :n], blocks[n:, n:]
        try:
            return make_std_unitary(A, B, C, D, K_from, K_to, atol=_OP_ATOL)
        except ValidationError:
            continue
    raise GenerationError("retry cap exhausted while sampling a standard "
                          "unitary operator")


def gen_qbt_map(rng, m) -> QbtMap:
    return QbtMap(G=conditioned_matrix(rng, m, m),
                  E=random_hermitian(rng, m))
