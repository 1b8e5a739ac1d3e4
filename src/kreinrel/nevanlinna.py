"""Sampled analytic diagnostics for Weyl families.

Three conditions characterize a generalized Nevanlinna family on a
sampled grid: (1) the symmetry M(z)* = M(zbar), (2) invertibility of
M(z) + wI for a suitable w (instantiated as w = z after eps-scaling),
and (3) the negative-squares count of Gram matrices built from
resolvent vectors of the main transform,

    G[(alpha,a), (beta,b)] =
        [P_H (J(Gamma) - conj(z_beta))^{-1} (0, e_a),
         P_H (J(Gamma) - conj(z_alpha))^{-1} (0, e_b)]_J.

The resolvent vectors are those of the Weyl sample at w = conj(z)
(``WeylSample.resolvent_vectors``), read from its defect elements
without forming the main transform.

Negative squares are estimated by sampling and never claimed exact;
the report carries the grid metadata.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryPair, _weyl_samples, in_delta, weyl
from .errors import DimensionMismatchError, PreconditionError
from .relations import hilbert_adjoint, rel_equal

__all__ = [
    "KernelSampleGrid",
    "NegSquaresReport",
    "weyl_symmetry_check",
    "block_gram",
    "neg_squares_estimate",
    "gen_nevanlinna_probe",
    "count_negative",
]


# grid points z and w pair as conjugates when |conj(z) - w| < _CONJ_ATOL
_CONJ_ATOL = 1e-12
_NEG_RTOL = 1e-8
# floor on count_negative's scale: the cutoff stays negative for G = 0
_NEG_SCALE_FLOOR = 1e-300


def _has_conjugate(z, points):
    return any(abs(z.conjugate() - w) < _CONJ_ATOL for w in points)


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
        if not all(_has_conjugate(z, pts) for z in pts):
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
    lhs = hilbert_adjoint(weyl(bp, z).M, tol)  # rejects a real z
    rhs = weyl(bp._sharp_pair, z.conjugate()).M
    return rel_equal(lhs, rhs, tol)


def _gram(bp, blocks, vectors):
    """The Gram matrix of the columns X v, X the resolvent vectors of each
    grid point in turn, v the probe vectors (default: C^m's basis)."""
    m = bp.m
    if vectors is not None and any(len(v) != m for v in vectors):
        raise DimensionMismatchError(
            f"probe vectors must lie in the boundary space C^{m}")
    V = np.eye(m) if vectors is None else np.column_stack(vectors)
    C = np.hstack([X @ V for X in blocks])
    return C.conj().T @ bp.H.J @ C


def block_gram(bp: BoundaryPair, grid: KernelSampleGrid):
    """The full Gram matrix of a sample grid (points x probe vectors)."""
    blocks = [s.resolvent_vectors() for s in _weyl_samples(
        bp, [z.conjugate() for z in grid.points])]
    return _gram(bp, blocks, grid.vectors)


def count_negative(G):
    """Eigenvalues of a Hermitian matrix below -_NEG_RTOL * ||G||."""
    if G.shape[0] == 0:
        return 0
    Gh = (G + G.conj().T) / 2
    w = np.linalg.eigvalsh(Gh)
    cut = -_NEG_RTOL * max(_NEG_SCALE_FLOOR, np.max(np.abs(w)))
    return int(np.sum(w < cut))


def _require_unitary(bp):
    if bp.classification != "unitary":
        raise PreconditionError("negative squares are probed for unitary pairs")


def neg_squares_estimate(bp: BoundaryPair, grids) -> NegSquaresReport:
    """Max count of negative Gram eigenvalues over the sample grids."""
    _require_unitary(bp)
    kappa = max((count_negative(block_gram(bp, g)) for g in grids), default=0)
    return NegSquaresReport(kappa, bp.H.neg_index, len(grids))


def gen_nevanlinna_probe(bp: BoundaryPair, eps, grid: KernelSampleGrid):
    """Outcomes of conditions (1)-(3) on the grid, reported not asserted.

    (1) the symmetry check at every grid point; (2) invertibility of
    M_eps(z) + z on the admissible part of the grid (|z| > eps, inside
    delta) after eps-scaling - the choice w = z; (3) the negative
    squares estimate on the scaled pair.
    """
    from .transforms import scale_eps
    cond1 = all(weyl_symmetry_check(bp, z) for z in grid.points)
    scaled = scale_eps(bp, eps)
    admissible = [z for z in grid.points if in_delta(bp, z) and abs(z) > eps]
    if admissible:
        cond2 = all(weyl(scaled, z).shift_invertible for z in admissible)
    else:
        cond2 = None  # no admissible z on this grid (delta may be empty)
    samples = {z: weyl(scaled, z.conjugate()) for z in grid.points}
    usable = [z for z in grid.points if samples[z].in_mt_resolvent]
    usable = [z for z in usable if _has_conjugate(z, usable)]
    if usable:
        _require_unitary(scaled)
        blocks = [samples[z].resolvent_vectors() for z in usable]
        kappa_prime = count_negative(_gram(scaled, blocks, grid.vectors))
        cond3 = kappa_prime <= scaled.H.neg_index
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
