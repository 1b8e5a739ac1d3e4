"""Write the behaviour records that ``tests/test_golden.py`` holds the
program to.

``check_outcomes.json``: for each seed in SEEDS and each theorem id, the
``failures`` and ``trials`` of ``check_theorem(id, trials=TRIALS,
dims=DIMS, seed=seed)``.

``sweep_columns.json``: for each pair of ``sweep_pairs()``, the integer
columns (dim_M, dim_mul, dim_ker, is_operator, in_sigma,
in_j_resolvent) of ``weyl_sweep`` over ``sweep_grid(bp)``: generic
points, points at Im z = +-1e-3 and +-1e-8, points 1e-7 and 1e-9 from
nonreal eigenvalues of the main transform J(Gamma) and, on the pairs
that take the pencil split, points 1e-3 to 1e-6 from nonreal
eigenvalues of the split pencil.

Residuals and the z columns are left out: a change that moves a
residual at rounding level is not a change of behaviour.  Regenerate
only for a deliberate behaviour change, and name the change in
CHANGES.md:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

import json
from pathlib import Path

import numpy as np

from kreinrel.boundary import BoundaryPair, main_transform
from kreinrel.checks import THEOREM_IDS, check_theorem, weyl_sweep
from kreinrel.generators import (
    InstanceSpec,
    gen_unitary_boundary_pair,
    rng_stream,
)
from kreinrel.relations import LinearRelation, point_spectrum
from kreinrel.spaces import hilbert_space
from kreinrel.subspaces import Subspace

SEEDS = (7, 1, 123)
TRIALS = 20
DIMS = (1, 4)
OUTCOMES = Path(__file__).with_name("check_outcomes.json")
SWEEPS = Path(__file__).with_name("sweep_columns.json")
# (n, m, kappa) of the seeded unitary pairs; n >= 16 takes the split
SWEEP_SPECS = ((1, 1, 1), (2, 2, 1), (4, 3, 2), (16, 2, 4), (17, 3, 0),
               (64, 8, 16))
SWEEP_SEED = 61
SWEEP_GENERIC = 8
# near the real axis, each twice with either sign of Im z
SWEEP_NEAR_AXIS = (0.3 + 1e-3j, -0.7 - 1e-3j, 1.1 + 1e-8j, -0.2 - 1e-8j,
                   0.9 - 1e-3j, -1.4 + 1e-3j, 0.05 - 1e-8j, 1.6 + 1e-8j)
SWEEP_SPLIT_OFFSETS = (1e-3, 1e-4, 1e-5, 1e-6, -1e-6, 1e-6j, -1e-6j)
SWEEP_MT_OFFSETS = (1e-7j, 1e-9j)


def outcomes(seed):
    """{id: {"failures": f, "trials": t}} at one seed."""
    reports = (check_theorem(tid, trials=TRIALS, dims=DIMS, seed=seed)
               for tid in THEOREM_IDS)
    return {r.theorem_id: {"failures": r.failures, "trials": r.trials}
            for r in reports}


def mul_t_pair():
    """n = m = 1, Gamma = span{(0, 1, 0, 0), (0, 0, 1, 2)}: B_f = 0,
    T = {0} x C and M(z) = 2."""
    g = np.zeros((4, 2))
    g[1, 0] = 1.0
    g[2, 1], g[3, 1] = 1 / np.sqrt(5), 2 / np.sqrt(5)
    return BoundaryPair(hilbert_space(1), 1,
                        LinearRelation(2, 2, Subspace(4, g)))


def sweep_pairs():
    """{label: pair}: the seeded unitary pairs and the mul-T pair."""
    pairs = {f"n{n}_m{m}_k{k}": gen_unitary_boundary_pair(
        InstanceSpec(n, m, k), rng_stream(SWEEP_SEED, n))
        for n, m, k in SWEEP_SPECS}
    pairs["mul_t"] = mul_t_pair()
    return pairs


def _nearest_axis(eigenvalues):
    """The two nonreal eigenvalues nearest the real axis."""
    nonreal = (complex(w) for w in eigenvalues if abs(complex(w).imag) > 1e-2)
    return sorted(nonreal, key=lambda w: abs(w.imag))[:2]


def _split_eigenvalues(bp):
    """Eigenvalues of the split pencil (P1, L), B_f Q = [L 0] and B_f' Q =
    [P1 P2], from a QR and an eigenproblem of their own."""
    B, n = bp.gamma.graph.basis, bp.n
    Q = np.linalg.qr(B[:n].conj().T, mode="complete")[0][:, :n]
    return np.linalg.eigvals(np.linalg.solve(B[:n] @ Q, B[n : 2 * n] @ Q))


def sweep_grid(bp):
    """The sweep points of one pair: generic, near the real axis, near
    eigenvalues of J(Gamma) and, from n = 16 on, near split
    eigenvalues."""
    rng = np.random.default_rng([SWEEP_SEED, bp.n, bp.m])
    re = rng.uniform(-2.0, 2.0, SWEEP_GENERIC)
    im = rng.uniform(0.5, 2.0, SWEEP_GENERIC) * rng.choice(
        [-1.0, 1.0], SWEEP_GENERIC)
    pts = [complex(a, b) for a, b in zip(re, im)] + list(SWEEP_NEAR_AXIS)
    mt = point_spectrum(main_transform(bp), bp.tol).eigenvalues
    pts += [w + d for w in _nearest_axis(w for w, _ in mt)
            for d in SWEEP_MT_OFFSETS]
    if bp.n >= 16:
        pts += [w + d for w in _nearest_axis(_split_eigenvalues(bp))
                for d in SWEEP_SPLIT_OFFSETS]
    return pts


def sweep_columns(bp):
    """The integer columns of ``weyl_sweep`` over ``sweep_grid(bp)``."""
    rows = weyl_sweep(bp, sweep_grid(bp)).strip().split("\n")[1:]
    return [row.split(",", 2)[2] for row in rows]


def main():
    record = {"trials": TRIALS, "dims": list(DIMS),
              "seeds": {str(s): outcomes(s) for s in SEEDS}}
    OUTCOMES.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    sweeps = {label: sweep_columns(bp) for label, bp in sweep_pairs().items()}
    SWEEPS.write_text(json.dumps(sweeps, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
