"""Counting negative squares of a sampled Weyl family.

The indefiniteness of the state-space metric leaves a footprint on the
Weyl function: Gram matrices built from resolvent vectors of the main
transform can acquire negative eigenvalues, but never more than the
negative index of the metric.  This demo probes definite and
indefinite pairs, and shows the one-dimensional fixture whose main
transform has no resolvent points at all until the pair is rescaled.

Run:  python demos/negative_squares.py
"""

import numpy as np

from kreinrel import (
    DEFAULT_TOL,
    BoundaryPair,
    InstanceSpec,
    KernelSampleGrid,
    gen_nevanlinna_probe,
    gen_obt,
    identity_obt,
    in_resolvent,
    main_transform,
    make_krein,
    neg_squares_estimate,
    rel_from_operator,
    rng_stream,
    scale_eps,
    weyl,
)

TOL = DEFAULT_TOL
GRID = KernelSampleGrid(points=(2j, -2j, 1 + 1j, 1 - 1j))


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    section("1. A definite pair reports zero negative squares")
    rep = neg_squares_estimate(identity_obt(), [GRID])
    print(f"kappa' = {rep.kappa_prime}, bound = {rep.kappa_bound}")

    section("2. One negative square, after rescaling")
    bp = BoundaryPair(make_krein(np.array([[-1.0]])), 1,
                      rel_from_operator(np.diag([-1.0, 1.0])))
    print(f"M(i) = {weyl(bp, 1j).M.to_matrix(bp.tol)[0, 0]:+.4f}  (M(z) = -z)")
    mt = main_transform(bp)
    print("raw main transform has resolvent points on the grid:",
          any(in_resolvent(mt, z, TOL) for z in GRID.points))
    scaled = scale_eps(bp, 0.5)
    rep = neg_squares_estimate(scaled, [GRID])
    print(f"after scale_eps(0.5): kappa' = {rep.kappa_prime}, "
          f"bound = {rep.kappa_bound}")

    section("3. Random indefinite pairs stay within the bound")
    for trial in range(6):
        rng = rng_stream(300, trial)
        n = 2 + trial % 3
        kappa = trial % (n + 1)
        pair = scale_eps(
            gen_obt(InstanceSpec(n, 1 + trial % 2, kappa), rng, TOL), 0.5)
        mt = main_transform(pair)
        usable = tuple(z for z in GRID.points
                       if in_resolvent(mt, np.conj(z), TOL))
        usable = tuple(z for z in usable if np.conj(z) in usable)
        if not usable:
            print(f"  n={n} kappa={kappa}: no usable grid points, skipped")
            continue
        rep = neg_squares_estimate(
            pair, [KernelSampleGrid(points=usable)])
        print(f"  n={n} kappa={kappa}: kappa' = {rep.kappa_prime} "
              f"<= {rep.kappa_bound}")

    section("4. The full three-condition probe")
    out = gen_nevanlinna_probe(bp, 0.5, GRID)
    for key in ("condition1", "condition2", "condition3",
                "kappa_prime", "kappa_bound", "eps", "w_choice"):
        print(f"  {key}: {out[key]}")
    print(f"  grid checksum: {out['grid_checksum']}")


if __name__ == "__main__":
    main()
