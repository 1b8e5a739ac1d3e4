"""Two ways to transform a boundary pair, and what they do to M(z).

The left scheme replaces the boundary map Gamma by V Gamma for a
relation V acting on boundary data: the Weyl function moves by a
linear fractional transformation.  The right scheme composes with a
standard unitary acting on the state data: the Weyl function picks up
an additive correction Delta(z).

Run:  python demos/transform_schemes.py
"""

import numpy as np

from kreinrel import (
    DEFAULT_TOL,
    InstanceSpec,
    QbtMap,
    delta_correction,
    gen_obt,
    gen_qbt_map,
    identity_obt,
    in_rho_v,
    qbt_transform,
    rel_from_operator,
    rng_stream,
    rotation_op,
    scale_eps,
    scaled_obt,
    transform_left,
    transform_right,
    weyl,
)

TOL = DEFAULT_TOL
Z = 0.7 + 1.1j


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    section("1. Left scheme: a rotation acts fractionally")
    bp = identity_obt()  # M(z) = z
    th = 0.3
    V = rotation_op(th)
    bp2, info = transform_left(bp, rel_from_operator(V.block_matrix()))
    c, s = np.cos(th), np.sin(th)
    got = weyl(bp2, Z).M.to_matrix(bp2.tol)[0, 0]
    expect = (-s + c * Z) / (c + s * Z)
    print(f"bundle used: {info['bundle']}")
    print(f"M'({Z}) = {got:+.6f}")
    print(f"(-sin + cos z)/(cos + sin z) = {expect:+.6f}")

    section("2. Scalings are the simplest left transforms")
    for kappa in (2.0, np.sqrt(3.0)):
        got = weyl(scaled_obt(bp, kappa), Z).M.to_matrix(bp.tol)[0, 0]
        print(f"kappa = {kappa:.4f}:  M'(z) = {got:+.6f}"
              f"  (kappa^2 z = {kappa ** 2 * Z:+.6f})")
    got = weyl(scale_eps(bp, 0.25), Z).M.to_matrix(bp.tol)[0, 0]
    print(f"eps = 0.25:    M'(z) = {got:+.6f}  (eps z = {0.25 * Z:+.6f})")

    section("3. The quasi-boundary-triple map: M' = E + G* M G")
    rng = rng_stream(11)
    bp3 = gen_obt(InstanceSpec(n=3, m=2, kappa_minus=1), rng, TOL)
    q = gen_qbt_map(rng, bp3.m)
    bp4 = qbt_transform(bp3, q)
    M = weyl(bp3, Z).M.to_matrix(TOL)
    M2 = weyl(bp4, Z).M.to_matrix(TOL)
    expect = q.E + q.G.conj().T @ M @ q.G
    print(f"residual |M' - (E + G* M G)| = {np.linalg.norm(M2 - expect):.2e}")

    section("4. Right scheme: an additive correction")
    V = rotation_op(0.4, 1)
    print(f"z = {Z} lies in rho_V: {in_rho_v(bp, V, Z)}")
    bp5 = transform_right(bp, V)
    delta = delta_correction(bp, V, Z)
    got = weyl(bp5, Z).M.to_matrix(bp5.tol)[0, 0]
    expect = weyl(bp, Z).M.to_matrix(bp.tol)[0, 0] + delta[0, 0]
    print(f"M'({Z}) = {got:+.6f}")
    print(f"M(z) + Delta(z) = {expect:+.6f}")

    section("5. A QBT map by hand")
    q = QbtMap(G=np.array([[2.0 + 1.0j]]), E=np.array([[0.5]]))
    bp6 = qbt_transform(bp, q)
    got = weyl(bp6, Z).M.to_matrix(bp6.tol)[0, 0]
    print(f"M'({Z}) = {got:+.6f}  "
          f"(0.5 + |2+i|^2 z = {0.5 + 5 * Z:+.6f})")


if __name__ == "__main__":
    main()
