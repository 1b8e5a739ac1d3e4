"""A guided tour: from a boundary pair to its Weyl function.

Builds the simplest boundary pair by hand, reads off its Weyl function,
then repeats the exercise with randomly generated pairs and sweeps a
grid of spectral parameters, printing what the Weyl family looks like
at each point.

Run:  python demos/weyl_function_tour.py
"""

import numpy as np

from kreinrel import (
    DEFAULT_TOL,
    InstanceSpec,
    gen_obt,
    gen_unitary_boundary_pair,
    identity_obt,
    main_transform,
    rng_stream,
    weyl,
    weyl_sweep,
)

TOL = DEFAULT_TOL


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    section("1. The identity pair: M(z) = z")
    bp = identity_obt()
    print(f"classification: {bp.classification}")
    print(f"state space dim n = {bp.n}, boundary dim m = {bp.m}, "
          f"negative index = {bp.H.neg_index}")
    for z in (1j, 2 + 1j, -0.5 - 2j):
        M = weyl(bp, z).M
        print(f"  M({z}) = {M.to_matrix(bp.tol)[0, 0]:+.6f}")

    section("2. A random unitary boundary pair on an indefinite space")
    rng = rng_stream(2024)
    bp = gen_unitary_boundary_pair(InstanceSpec(n=3, m=2, kappa_minus=1),
                                   rng, TOL)
    print(f"classification: {bp.classification}")
    print(f"metric J (state space):\n{np.round(bp.H.J, 3)}")
    z = 0.8 + 1.2j
    sample = weyl(bp, z)
    print(f"M({z}) is an operator: {sample.M.is_operator(TOL)}")
    print(f"value:\n{np.round(sample.M.to_matrix(TOL), 4)}")

    section("3. Pairs where the Weyl value degenerates")
    # with m > n the boundary map is necessarily multivalued and the
    # Weyl values can pick up kernels and multivalued parts
    bp = gen_unitary_boundary_pair(InstanceSpec(n=1, m=2, kappa_minus=0),
                                   rng_stream(7, 4), TOL)
    sample = weyl(bp, 2j)
    print(f"n = {bp.n}, m = {bp.m}")
    print(f"graph dim of M(2j): {sample.M.graph.dim}")
    print(f"dim ker = {sample.M.ker(TOL).dim}, "
          f"dim mul = {sample.M.mul(TOL).dim}")

    section("4. Sweeping a grid")
    bp = gen_obt(InstanceSpec(n=2, m=1, kappa_minus=1), rng_stream(5), TOL)
    pts = [complex(a, b) for b in (0.5, 1.0) for a in (-1.0, 0.0, 1.0)]
    print(weyl_sweep(bp, pts).rstrip())

    section("5. The main transform behind the sweep")
    mt = main_transform(bp)
    print(f"graph dim of the exit-space relation: {mt.graph.dim} "
          f"(ambient {mt.from_dim} -> {mt.to_dim})")


if __name__ == "__main__":
    main()
