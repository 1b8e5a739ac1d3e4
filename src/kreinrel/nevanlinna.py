"""Sampled analytic diagnostics for Weyl families.

Three conditions characterize a generalized Nevanlinna family on a
sampled grid: (1) the symmetry M(z)* = M_{Gamma_#}(zbar), (2)
invertibility of M(z) + wI for a suitable w (instantiated as w = z
after eps-scaling), and (3) the negative-squares count of Gram matrices
built from resolvent vectors of the main transform,

    G[(alpha,a), (beta,b)] =
        [P_H (J(Gamma) - conj(z_beta))^{-1} (0, e_a),
         P_H (J(Gamma) - conj(z_alpha))^{-1} (0, e_b)]_J.

The resolvent vectors are those of the Weyl sample at w = conj(z)
(``WeylSample.resolvent_vectors``), read from its defect elements
without forming the main transform.  Each pair reads the distinct
points it needs in one ``_weyl_samples`` pass: (1) the grid and its
conjugates on a unitary pair, its own Gamma_# pair (otherwise one pass
on the pair and one on its Gamma_# pair), and (2) and (3) the
admissible points and the conjugates on the scaled pair.  kappa' has
one route, ``count_negative`` of ``_gram``.

Negative squares are estimated by sampling and never claimed exact;
the report carries the grid metadata.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryPair, _weyl_samples, in_delta
from .errors import PreconditionError
from .relations import _rel_residual, hilbert_adjoint

__all__ = [
    "KernelSampleGrid",
    "NegSquaresReport",
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
    """Nonreal sample points closed under conjugation.  The probe
    vectors are the standard basis of the boundary space C^m."""

    points: tuple

    def __post_init__(self):
        pts = tuple(complex(z) for z in self.points)
        if any(z.imag == 0.0 for z in pts):
            raise PreconditionError("grid points must be nonreal")
        if not all(_has_conjugate(z, pts) for z in pts):
            raise PreconditionError("grid is not closed under conjugation")
        object.__setattr__(self, "points", pts)

    def checksum(self):
        # "vectors": None keeps the digests of stored probe reports, made
        # when a grid could carry probe vectors of its own
        payload = {"points": [[z.real, z.imag] for z in self.points],
                   "vectors": None}
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class NegSquaresReport:
    kappa_prime: int
    kappa_bound: int
    grids_used: int


def _samples_by_point(bp, points):
    """The Weyl sample at each distinct point, read in one pass."""
    distinct = list(dict.fromkeys(points))
    return dict(zip(distinct, _weyl_samples(bp, distinct)))


def _symmetry_residual(bp: BoundaryPair, points):
    """The largest principal angle between M(z)* and M_{Gamma_#}(zbar)
    over the nonreal points, 1.0 on a dimension mismatch.  A unitary
    pair is its own Gamma_# pair: the points and their conjugates are
    read in one pass, and the sample at zbar is the Gamma_# sample of
    z."""
    pts = [complex(z) for z in points]
    conj = [z.conjugate() for z in pts]
    if bp._sharp_pair is bp:
        read = _samples_by_point(bp, pts + conj)
        pairs = ((read[z], read[w]) for z, w in zip(pts, conj))
    else:
        pairs = zip(_weyl_samples(bp, pts),
                    _weyl_samples(bp._sharp_pair, conj))
    return max((_rel_residual(hilbert_adjoint(s.M, bp.tol), t.M)
                for s, t in pairs), default=0.0)


def _gram(bp, samples):
    """The Gram matrix of the resolvent vectors of each sample in turn,
    one column per standard basis vector e_a of C^m."""
    C = np.hstack([s.resolvent_vectors() for s in samples])
    return C.conj().T @ bp.H.J @ C


def block_gram(bp: BoundaryPair, grid: KernelSampleGrid):
    """The full Gram matrix of a sample grid (points x basis vectors of
    C^m)."""
    return _gram(bp, _weyl_samples(bp, np.conj(grid.points)))


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

    (1) M(z)* = M_{Gamma_#}(zbar) to angle_tol at every grid point;
    (2) invertibility of M_eps(z) + z on the admissible part of the grid
    (|z| > eps, inside delta) after eps-scaling - the choice w = z; (3)
    the negative squares estimate on the scaled pair.
    """
    from .transforms import scale_eps
    cond1 = _symmetry_residual(bp, grid.points) <= bp.tol.angle_tol
    scaled = scale_eps(bp, eps)
    pts = grid.points
    conj = [z.conjugate() for z in pts]
    admissible = [z for z in pts if in_delta(bp, z) and abs(z) > eps]
    read = _samples_by_point(scaled, admissible + conj)
    if admissible:
        cond2 = all(read[z].shift_invertible for z in admissible)
    else:
        cond2 = None  # no admissible z on this grid (delta may be empty)
    samples = {z: read[w] for z, w in zip(pts, conj)}
    usable = [z for z in pts if samples[z].in_mt_resolvent]
    usable = [z for z in usable if _has_conjugate(z, usable)]
    if usable:
        _require_unitary(scaled)
        kappa_prime = count_negative(
            _gram(scaled, [samples[z] for z in usable]))
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
