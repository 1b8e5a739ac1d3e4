"""Sampled analytic diagnostics for Weyl families.

Three conditions characterize a generalized Nevanlinna family on a
sampled grid: (1) the symmetry M(z)* = M(zbar), (2) invertibility of
M(z) + wI for a suitable w (instantiated as w = z after eps-scaling),
and (3) the negative-squares count of Gram matrices built from
resolvent vectors of the main transform,

    G[(alpha,a), (beta,b)] =
        [P_H (J(Gamma) - conj(z_beta))^{-1} (0, e_a),
         P_H (J(Gamma) - conj(z_alpha))^{-1} (0, e_b)]_J.

Negative squares are estimated by sampling and never claimed exact;
the report carries the grid metadata.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .boundary import (
    BoundaryPair,
    delta_excluded_points,
    in_delta,
    m_plus_z,
    main_transform,
    weyl,
)
from .errors import PreconditionError
from .relations import hilbert_adjoint, in_resolvent, rel_equal

__all__ = [
    "KernelSampleGrid",
    "NegSquaresReport",
    "weyl_symmetry_check",
    "nev_kernel",
    "block_gram",
    "neg_squares_estimate",
    "gen_nevanlinna_probe",
]


@dataclass(frozen=True)
class KernelSampleGrid:
    """Nonreal sample points closed under conjugation, with optional
    probe vectors in the boundary space (default: standard basis)."""

    points: tuple
    vectors: tuple = None

    def __post_init__(self):
        pts = tuple(complex(z) for z in self.points)
        if any(z.imag == 0.0 for z in pts):
            raise PreconditionError("grid points must be nonreal")
        for z in pts:
            if not any(abs(z.conjugate() - w) < 1e-12 for w in pts):
                raise PreconditionError("grid is not closed under conjugation")
        object.__setattr__(self, "points", pts)
        if self.vectors is not None:
            vecs = tuple(np.asarray(v, dtype=complex).reshape(-1)
                         for v in self.vectors)
            object.__setattr__(self, "vectors", vecs)

    def checksum(self):
        payload = {
            "points": [[z.real, z.imag] for z in self.points],
            "vectors": None if self.vectors is None else
                       [[c.real, c.imag] for v in self.vectors for c in v],
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class NegSquaresReport:
    kappa_prime: int
    kappa_bound: int
    grids_used: int


def weyl_symmetry_check(bp: BoundaryPair, z):
    """M(z)* = M_{Gamma_#}(zbar) as subspace equality; for unitary
    pairs this is the symmetry condition M(z)* = M(zbar)."""
    tol = bp.tol
    z = complex(z)
    if z.imag == 0.0:
        raise PreconditionError("z must be nonreal")
    lhs = hilbert_adjoint(weyl(bp, z).M, tol)
    sharp = BoundaryPair(bp.H, bp.m, bp.gamma_sharp, tol)
    rhs = weyl(sharp, z.conjugate()).M
    return rel_equal(lhs, rhs, tol)


def _resolvent_vectors(bp, mt, z):
    """Columns P_H (J(Gamma) - conj(z))^{-1} (0, e_a), a = 1..m."""
    n, m, tol = bp.n, bp.m, bp.tol
    w = complex(z).conjugate()
    if not in_resolvent(mt, w, tol):
        raise PreconditionError(
            f"conj(z)={w} is not in the resolvent set of the main "
            "transform; rescale the pair (scale_eps with eps < |z|) first")
    R = mt.resolvent_matrix(w, tol)
    E = np.vstack([np.zeros((n, m)), np.eye(m)])
    return (R @ E)[:n]


def nev_kernel(bp: BoundaryPair, z, w):
    """The m x m Gram contribution G(z, w) of a pair of grid points.

    G(z, w)[a, b] = [P_H R(conj(w)) (0, e_b), P_H R(conj(z)) (0, e_a)]
    in the Krein metric of the state space, R the resolvent of the
    main transform.  Hermitian in the sense G(z, w)* = G(w, z), and
    congruent to the difference-quotient kernel of the Weyl family.
    """
    for p in (z, w):
        if complex(p).imag == 0.0:
            raise PreconditionError("kernel points must be nonreal")
    mt = main_transform(bp)
    X = _resolvent_vectors(bp, mt, w)
    Y = _resolvent_vectors(bp, mt, z)
    return Y.conj().T @ bp.H.J @ X


def block_gram(bp: BoundaryPair, grid: KernelSampleGrid):
    """The full Gram matrix of a sample grid (points x probe vectors)."""
    m = bp.m
    vectors = grid.vectors
    if vectors is None:
        vectors = tuple(np.eye(m)[:, a] for a in range(m))
    V = np.column_stack(vectors)
    mt = main_transform(bp)
    # columns P_H R(conj(z_a)) (0, v_i), grouped by grid point
    C = np.hstack([_resolvent_vectors(bp, mt, za) @ V
                   for za in grid.points])
    return C.conj().T @ bp.H.J @ C


def count_negative(G):
    """Eigenvalues of a Hermitian matrix below -1e-8 * ||G||."""
    if G.shape[0] == 0:
        return 0
    Gh = (G + G.conj().T) / 2
    w = np.linalg.eigvalsh(Gh)
    cut = -1e-8 * max(1e-300, np.max(np.abs(w)))
    return int(np.sum(w < cut))


def neg_squares_estimate(bp: BoundaryPair, grids) -> NegSquaresReport:
    """Max count of negative Gram eigenvalues over the sample grids."""
    if bp.classification != "unitary":
        raise PreconditionError("negative squares are probed for unitary pairs")
    kappa = 0
    for grid in grids:
        G = block_gram(bp, grid)
        kappa = max(kappa, count_negative(G))
    return NegSquaresReport(kappa_prime=kappa,
                            kappa_bound=bp.H.neg_index,
                            grids_used=len(grids))


def gen_nevanlinna_probe(bp: BoundaryPair, eps, grid: KernelSampleGrid):
    """Outcomes of conditions (1)-(3) on the grid, reported not asserted.

    (1) the symmetry check at every grid point; (2) invertibility of
    M_eps(z) + z on the admissible part of the grid (|z| > eps, inside
    delta) after eps-scaling - the choice w = z; (3) the negative
    squares estimate on the scaled pair.
    """
    from .transforms import scale_eps
    tol = bp.tol
    cond1 = all(weyl_symmetry_check(bp, z) for z in grid.points)
    scaled = scale_eps(bp, eps)
    excluded = delta_excluded_points(bp)
    admissible = [] if excluded is None else [
        z for z in grid.points if abs(z) > eps and in_delta(bp, z, excluded)]
    if admissible:
        cond2 = all(
            in_resolvent(m_plus_z(weyl(scaled, z).M, z, tol), 0.0, tol)
            for z in admissible)
    else:
        cond2 = None  # no admissible z on this grid (delta may be empty)
    mt = main_transform(scaled)
    usable = [z for z in grid.points
              if in_resolvent(mt, complex(z).conjugate(), tol)]
    usable = [z for z in usable if z.conjugate() in usable]
    if usable:
        subgrid = KernelSampleGrid(points=tuple(usable), vectors=grid.vectors)
        report = neg_squares_estimate(scaled, [subgrid])
        cond3 = report.kappa_prime <= report.kappa_bound
        kappa_prime = report.kappa_prime
    else:
        cond3, kappa_prime = None, None
    return {
        "condition1": cond1,
        "condition2": cond2,
        "condition3": cond3,
        "kappa_prime": kappa_prime,
        "kappa_bound": bp.H.neg_index,
        "eps": float(eps),
        "w_choice": "w = z after eps-scaling",
        "admissible_points": len(admissible),
        "grid_checksum": grid.checksum(),
    }
