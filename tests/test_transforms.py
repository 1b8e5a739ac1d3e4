"""Both transformation schemes for boundary pairs, linear fractional
transforms, scalings and the quasi-boundary-triple map."""

import sys

import numpy as np
import pytest

from _oracles import (
    gen_isometric_boundary_pair,
    lft_composition,
    qbt_matrix,
    scaling_matrix,
    symplectic_flip,
    transform_left_chain,
    transform_right_chain,
    zero_relation,
)
from kreinrel.boundary import BoundaryPair, identity_obt, weyl
from kreinrel.errors import PreconditionError, ValidationError
from kreinrel.generators import (
    InstanceSpec,
    gen_boundary_unitary_relation,
    gen_obt,
    gen_qbt_map,
    gen_std_unitary,
    gen_unitary_boundary_pair,
    random_krein,
    random_relation,
    random_unitary,
    rng_stream,
)
from kreinrel.relations import (
    LinearRelation,
    full_relation,
    krein_adjoint,
    rel_equal,
    rel_from_operator,
    shmulyan,
)
from kreinrel.spaces import (
    _classify_graph,
    _pair_metric,
    hilbert_space,
    make_krein,
)
from kreinrel.subspaces import (
    DEFAULT_TOL,
    Subspace,
    column_space,
    intersect,
    principal_angles,
    subspace_equal,
)
from kreinrel.transforms import (
    QbtMap,
    StdUnitaryOp,
    delta_correction,
    in_rho_v,
    lft,
    make_commuting_unitary,
    make_std_unitary,
    n_hat_v,
    p_poly,
    qbt_transform,
    rotation_op,
    scale_eps,
    scaled_obt,
    transform_left,
    transform_right,
    u_j,
    v_star,
)

TOL = DEFAULT_TOL
Z = 0.7 + 1.1j


# -------------------------------------------------- standard unitaries

def test_make_std_unitary_rejects_bad_blocks():
    H = hilbert_space(1)
    with pytest.raises(ValidationError):
        make_std_unitary([[1.0]], [[1.0]], [[1.0]], [[1.0]], H, H)


def test_make_std_unitary_accepts_triangular_symplectic():
    # (1, 1; 0, 1) preserves the doubled symmetry (an SL(2, R) shear)
    H = hilbert_space(1)
    V = make_std_unitary([[1.0]], [[1.0]], [[0.0]], [[1.0]], H, H)
    assert np.allclose(V.block_matrix(), [[1.0, 1.0], [0.0, 1.0]])


def test_builtin_operators_validate():
    K = make_krein(np.diag([1.0, -1.0]))
    for V in (u_j(K), symplectic_flip(2), rotation_op(0.7, 2)):
        M = V.block_matrix()
        assert np.allclose(M @ V.inverse_block_matrix(), np.eye(M.shape[0]))


def test_u_j_block_structure():
    K = make_krein(np.diag([1.0, -1.0]))
    V = u_j(K)
    assert np.allclose(V.A, np.eye(2))
    assert np.allclose(V.D, K.J)
    assert np.allclose(V.B, 0) and np.allclose(V.C, 0)


def test_make_commuting_unitary_rejects_unbalanced_blocks():
    H = hilbert_space(1)
    with pytest.raises(ValidationError):
        make_commuting_unitary([[0.9]], [[0.9]], H, H)


# --------------------------------------------- linear fractional maps

def test_lft_rotation_on_scalar():
    th = 0.3
    V = rotation_op(th)
    c, s = np.cos(th), np.sin(th)
    T = rel_from_operator(np.array([[Z]]))
    r = lft(V, T, TOL)
    composition = lft_composition(V, T)
    assert composition is not None
    expect = (-s + c * Z) / (c + s * Z)
    assert np.allclose(r.to_matrix(TOL), [[expect]])
    assert rel_equal(r, composition, TOL)


def test_lft_noninvertible_branch_still_defined():
    # the symplectic flip sends the zero operator to the purely
    # multivalued relation {0} x C: the Shmul'yan form handles it
    V = symplectic_flip(1)
    T = rel_from_operator(np.zeros((1, 1)))
    r = lft(V, T, TOL)
    assert lft_composition(V, T) is None
    assert r.mul(TOL).dim == 1
    assert r.dom(TOL).dim == 0


def test_p_poly_values():
    V = symplectic_flip(1)
    # p(z) = z^2 B + z (A - D) - C = z^2 + 1 for the flip
    assert np.allclose(p_poly(V, 2.0), [[5.0]])
    assert np.allclose(p_poly(V, 1j), [[0.0]])


# ----------------------------------------------------- left scheme

def test_left_rotation_transforms_weyl_fractionally():
    bp = identity_obt()
    th = 0.3
    V = rotation_op(th)
    bp2, info = transform_left(bp, rel_from_operator(V.block_matrix()))
    assert info["bundle"] == "dom_v_covers_ran_gamma"
    c, s = np.cos(th), np.sin(th)
    expect = (-s + c * Z) / (c + s * Z)
    assert np.allclose(weyl(bp2, Z).M.to_matrix(bp2.tol), [[expect]])
    assert bp2.classification == "unitary"


def test_left_scheme_preserves_state_space():
    from kreinrel.generators import gen_boundary_unitary_relation
    rng = rng_stream(31)
    bp = gen_obt(InstanceSpec(2, 2, 1), rng, TOL)
    v_rel = gen_boundary_unitary_relation(rng, 2)
    bp2, _ = transform_left(bp, v_rel)
    assert bp2.H == bp.H
    assert rel_equal(bp2.underlying_T(), bp.underlying_T(), TOL)


# ------------------------------------------------------- scalings

def test_scaled_obt_law():
    bp = identity_obt()
    for kappa in (2.0, np.sqrt(3.0), -2.0):
        bp2 = scaled_obt(bp, kappa)
        assert np.allclose(weyl(bp2, Z).M.to_matrix(bp2.tol),
                           [[kappa ** 2 * Z]])


def test_scaled_obt_rejects_trivial_kappa():
    for kappa in (1.0, -1.0, 0.0):
        with pytest.raises(PreconditionError):
            scaled_obt(identity_obt(), kappa)


def test_scale_eps_law():
    bp = identity_obt()
    for eps in (0.25, 2.0):
        bp2 = scale_eps(bp, eps)
        assert np.allclose(weyl(bp2, Z).M.to_matrix(bp2.tol), [[eps * Z]])
    with pytest.raises(PreconditionError):
        scale_eps(bp, -1.0)


# ----------------------------------------------------------- QBT map

def test_qbt_map_validation():
    with pytest.raises(ValidationError):
        QbtMap(G=np.zeros((1, 1)), E=np.zeros((1, 1)))
    with pytest.raises(ValidationError):
        QbtMap(G=np.eye(2), E=np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("G, E", [([[np.nan]], [[0.0]]),
                                  ([[np.inf]], [[0.0]]),
                                  ([[1.0]], [[np.nan]]),
                                  ([[1.0]], [[-np.inf]])])
def test_qbt_map_rejects_non_finite_blocks(G, E):
    with pytest.raises(ValidationError, match="finite"):
        QbtMap(G=np.array(G), E=np.array(E))


def test_qbt_transform_law_scalar():
    bp = identity_obt()
    q = QbtMap(G=np.array([[2.0 + 1.0j]]), E=np.array([[0.5]]))
    bp2 = qbt_transform(bp, q)
    expect = 0.5 + abs(2.0 + 1.0j) ** 2 * Z
    assert np.allclose(weyl(bp2, Z).M.to_matrix(bp2.tol), [[expect]])
    assert rel_equal(bp2.T0(), bp.T0(), TOL)


def test_qbt_transform_random_instances():
    for trial in range(10):
        rng = rng_stream(32, trial)
        bp = gen_obt(InstanceSpec(2 + trial % 2, 1 + trial % 2, trial % 2),
                     rng, TOL)
        q = gen_qbt_map(rng, bp.m)
        bp2 = qbt_transform(bp, q)
        M = weyl(bp, Z).M.to_matrix(TOL)
        M2 = weyl(bp2, Z).M.to_matrix(TOL)
        expect = q.E + q.G.conj().T @ M @ q.G
        assert np.linalg.norm(M2 - expect) < 1e-8 * max(
            1.0, np.linalg.norm(expect))
        assert rel_equal(bp2.T0(), bp.T0(), TOL)
        assert rel_equal(bp2.underlying_T(), bp.underlying_T(), TOL)


def test_v_star_of_qbt_relation():
    rng = rng_stream(33)
    q = gen_qbt_map(rng, 2)
    vs = v_star(rel_from_operator(q.block_matrix()), TOL)
    assert vs.dom(TOL).dim == 0
    assert vs.mul(TOL).dim == 2


# -------------------------------------------------------- right scheme

def test_right_scheme_with_state_rotation_and_delta():
    bp = identity_obt()
    V = rotation_op(0.4, 1)
    assert in_rho_v(bp, V, Z)
    bp2 = transform_right(bp, V)
    assert bp2.classification == "unitary"
    delta = delta_correction(bp, V, Z)
    expect = weyl(bp, Z).M.to_matrix(bp.tol) + delta
    assert np.allclose(weyl(bp2, Z).M.to_matrix(bp2.tol), expect)


def test_right_scheme_with_u_j_preserves_classification():
    flip = rel_from_operator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    bp = BoundaryPair(make_krein(np.array([[-1.0]])), 1, flip)
    bp2 = transform_right(bp, u_j(bp.H))
    assert bp2.classification == "unitary"
    assert bp2.H == hilbert_space(1)


def test_right_scheme_rejects_wrong_space():
    bp = identity_obt()
    V = u_j(make_krein(np.array([[-1.0]])))
    with pytest.raises(PreconditionError):
        transform_right(bp, V)


def test_delta_correction_requires_rho_v():
    bp = identity_obt()
    V = symplectic_flip(1)
    # p_V(z) = z^2 + 1 vanishes at z = i: i is outside rho_V
    if not in_rho_v(bp, V, 1j):
        with pytest.raises(PreconditionError):
            delta_correction(bp, V, 1j)


def _delta_chain(bp, V, z):
    """Delta(z) by the former chain: T0's orthonormal basis, Gamma_1 as
    the column space of the (f, f', l') rows of B, and one lstsq per
    column for Gamma_1 of each T0 element."""
    tol = bp.tol
    n, m = bp.n, bp.m
    T0 = bp.T0()
    gamma_mat = weyl(bp, z).gamma_field.to_matrix(tol)
    P = (z * V.A - V.C) @ T0.F + (z * V.B - V.D) @ T0.G
    hats = T0.graph.basis @ np.linalg.solve(P, p_poly(V, z) @ gamma_mat)
    B = bp.gamma.graph.basis
    g1 = column_space(np.vstack([B[: 2 * n], B[2 * n + m :]]), tol).basis
    delta = np.zeros((m, m), dtype=complex)
    for j in range(m):
        c = np.linalg.lstsq(g1[: 2 * n], hats[:, j], rcond=None)[0]
        delta[:, j] = -g1[2 * n :] @ c
    return delta


def test_delta_correction_matches_old_chain():
    compared = {"u_j": 0, "random": 0}
    for n in (1, 2, 3, 4, 16):
        for trial in range(6):
            rng = rng_stream(81, 100 * n + trial)
            m = 1 + trial % min(n, 3)
            bp = gen_obt(InstanceSpec(n, m, trial % (n + 1)), rng)
            kind = "u_j" if trial % 2 else "random"
            V = u_j(bp.H) if kind == "u_j" else gen_std_unitary(rng, bp.H)
            if not bp.underlying_T().is_operator(bp.tol):
                continue
            for z in (0.7 + 1.1j, -0.3 - 0.8j):
                if not in_rho_v(bp, V, z):
                    continue
                new = delta_correction(bp, V, z)
                old = _delta_chain(bp, V, z)
                scale = max(1.0, np.linalg.norm(old))
                assert np.linalg.norm(new - old) <= 1e-10 * scale
                compared[kind] += 1
    assert min(compared.values()) >= 10


# ------------------------- single null-space forms against the old chains

def _n_hat_v_chain(v_rel, a_star, z, tol=TOL):
    """dom(V ∩ (A_* x zI)) through a window and an intersection."""
    two_n, two_n2 = v_rel.from_dim, v_rel.to_dim
    half = two_n2 // 2
    zgraph = column_space(np.vstack([np.eye(half), z * np.eye(half)]), tol)
    window = column_space(np.block([
        [a_star.graph.basis, np.zeros((two_n, zgraph.dim))],
        [np.zeros((two_n2, a_star.graph.dim)), zgraph.basis],
    ]), tol)
    inter = intersect(v_rel.graph, window, tol)
    return column_space(inter.basis[:two_n], tol)


def _v_star_chain(v_rel, tol=TOL):
    """dom(V ∩ (L^2 x ({0} x cH))) through a window and an intersection."""
    two_m, two_m2 = v_rel.from_dim, v_rel.to_dim
    m2 = two_m2 // 2
    window = column_space(np.block([
        [np.eye(two_m), np.zeros((two_m, m2))],
        [np.zeros((m2, two_m)), np.zeros((m2, m2))],
        [np.zeros((m2, two_m)), np.eye(m2)],
    ]), tol)
    inter = intersect(v_rel.graph, window, tol)
    dom = column_space(inter.basis[:two_m], tol)
    return LinearRelation(two_m // 2, two_m // 2, dom)


def _graph_unitary_chain(rel, K_from, K_to, tol=TOL):
    """The block graph equals its own Gamma_# between the hat spaces."""
    sharp = krein_adjoint(rel, make_krein(K_from.hat),
                          make_krein(K_to.hat), tol)
    return rel_equal(sharp.inverse(), rel, tol)


def _graph_unitary(rel, K_from, K_to, tol=TOL):
    metric = _pair_metric(K_from, K_to)
    return _classify_graph(rel.graph.basis, metric, tol) == "unitary"


def _doubled_relations(rng, n, n2):
    """Zero, full, purely multivalued, operator, non-operator and
    generic relations C^{2n} -> C^{2n2}."""
    a, b = 2 * n, 2 * n2
    mul = np.vstack([np.zeros((a, b)), random_unitary(rng, b)])
    return [
        zero_relation(a, b),
        full_relation(a, b),
        LinearRelation(a, b, Subspace(a + b, mul[:, : int(rng.integers(
            0, b + 1))])),
        rel_from_operator(rng.normal(size=(b, a))),
        random_relation(rng, a, b, graph_dim=min(a + 1, a + b)),
        random_relation(rng, a, b),
        gen_boundary_unitary_relation(rng, n, n2),
    ]


def test_n_hat_v_matches_window_chain():
    rng = rng_stream(71)
    seen = set()
    for n in range(0, 5):
        for n2 in range(0, 5):
            a_stars = [zero_relation(n), full_relation(n),
                       random_relation(rng, n, n),
                       random_relation(rng, n, n, graph_dim=min(2 * n, n + 1))]
            for i, V in enumerate(_doubled_relations(rng, n, n2)):
                z = complex(rng.normal(), 0.2 + rng.uniform())
                a_star = a_stars[i % len(a_stars)]
                new = n_hat_v(V, a_star, z, TOL)
                assert subspace_equal(new, _n_hat_v_chain(V, a_star, z), TOL)
                seen.add(new.dim > 0)
    for trial in range(6):
        bp = gen_obt(InstanceSpec(1 + trial % 3, 1, trial % 2),
                     rng_stream(72, trial), TOL)
        V = rel_from_operator(
            gen_std_unitary(rng_stream(73, trial), bp.H).block_matrix())
        new = n_hat_v(V, bp.a_star(), Z, TOL)
        assert subspace_equal(new, _n_hat_v_chain(V, bp.a_star(), Z), TOL)
    assert seen == {True, False}


def test_v_star_matches_window_chain():
    rng = rng_stream(74)
    for m in range(0, 5):
        for m2 in range(0, 5):
            for V in _doubled_relations(rng, m, m2):
                assert rel_equal(v_star(V, TOL), _v_star_chain(V), TOL)
    for m in (1, 2, 3):
        V = rel_from_operator(gen_qbt_map(rng_stream(75, m), m).block_matrix())
        assert rel_equal(v_star(V, TOL), _v_star_chain(V), TOL)


def test_block_graph_gram_test_matches_krein_adjoint_chain():
    seen = set()
    for trial in range(24):
        rng = rng_stream(76, trial)
        n = 1 + trial % 4
        K = random_krein(rng, n, int(rng.integers(0, n + 1)))
        M = gen_std_unitary(rng, K).block_matrix()
        for scale in (0.0, 1e-13, 1e-5, 1.0):
            E = rng.normal(size=M.shape) + 1j * rng.normal(size=M.shape)
            rel = rel_from_operator(M + scale * E)
            verdict = _graph_unitary(rel, K, K)
            assert verdict == _graph_unitary_chain(rel, K, K)
            seen.add(verdict)
        # unequal dims: an operator graph of dim 2n is never unitary
        K2 = random_krein(rng, n + 1, 0)
        rel = rel_from_operator(rng.normal(size=(2 * n + 2, 2 * n)))
        assert not _graph_unitary(rel, K, K2)
        assert not _graph_unitary_chain(rel, K, K2)
    assert seen == {True, False}


def test_make_std_unitary_graph_check_catches_what_a_loose_atol_passes():
    rng = rng_stream(77)
    K = random_krein(rng, 2, 1)
    V = gen_std_unitary(rng, K)
    bad = [X + 1e-4 * rng.normal(size=X.shape) for X in (V.A, V.B, V.C, V.D)]
    rel = rel_from_operator(np.block([bad[:2], bad[2:]]))
    assert not _graph_unitary_chain(rel, K, K)
    with pytest.raises(ValidationError, match="not a unitary relation"):
        make_std_unitary(*bad, K, K, atol=1.0)
    make_std_unitary(V.A, V.B, V.C, V.D, K, K, atol=1e-8)


def _bundle_ii_case(trial):
    """An ordinary boundary triple and the restriction of a unitary V
    to a proper subspace of its domain: dom V lies in ran Gamma = C^{2m}
    without covering it."""
    rng = rng_stream(78, trial)
    m = 1 + trial % 3
    bp = gen_obt(InstanceSpec(m + trial % 2, m, trial % 2), rng, TOL)
    V = gen_boundary_unitary_relation(rng, m, 1 + (trial // 3) % 3)
    S = Subspace(2 * m, random_unitary(rng, 2 * m)[:, : 2 * m - 1])
    return bp, V.restrict_domain(S, TOL)


def test_transform_left_bundle_ii_matches_krein_adjoint_chain():
    for trial in range(12):
        bp, V = _bundle_ii_case(trial)
        _, info = transform_left(bp, V)
        assert info["bundle"] == "dom_v_within_ran_gamma"
        v_plus = krein_adjoint(
            V, make_krein(hilbert_space(bp.m).hat),
            make_krein(hilbert_space(V.to_dim // 2).hat), TOL)
        expect = shmulyan(bp.gamma.inverse(), v_plus.mul(TOL), TOL)
        assert rel_equal(info["T_prime"], expect, TOL)


def test_no_krein_adjoint_in_make_std_unitary_or_transform_left(monkeypatch):
    import kreinrel
    calls = []
    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "kreinrel"
                and callable(getattr(mod, "krein_adjoint", None))):
            real = getattr(mod, "krein_adjoint")
            monkeypatch.setattr(
                mod, "krein_adjoint",
                lambda *a, _real=real, **k: calls.append(a) or _real(*a, **k))
    assert callable(kreinrel.relations.krein_adjoint)
    K = random_krein(rng_stream(79), 3, 1)
    V = gen_std_unitary(rng_stream(79), K)
    make_std_unitary(V.A, V.B, V.C, V.D, K, K)
    u_j(K)
    bp, v_rel = _bundle_ii_case(5)
    transform_left(bp, v_rel)
    transform_left(bp, gen_boundary_unitary_relation(rng_stream(80), bp.m))
    assert calls == []
    kreinrel.relations.krein_adjoint(
        v_rel, make_krein(hilbert_space(bp.m).hat),
        make_krein(hilbert_space(v_rel.to_dim // 2).hat), bp.tol)
    assert len(calls) == 1


# ------------------------------- block operators as one row product of B

_INF, _NAN = float("inf"), float("nan")


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_operator_transforms_reject_non_finite_input():
    bp = gen_obt(InstanceSpec(3, 2, 1), rng_stream(82), TOL)
    with pytest.raises(ValidationError, match="non-finite"):
        scale_eps(bp, _INF)
    for eps in (-_INF, _NAN):
        with pytest.raises(PreconditionError):
            scale_eps(bp, eps)
    for kappa in (_INF, -_INF, _NAN):
        with pytest.raises(ValidationError, match="non-finite"):
            scaled_obt(bp, kappa)
    V = u_j(bp.H)
    nan_op = StdUnitaryOp(A=V.A * _NAN, B=V.B, C=V.C, D=V.D,
                          K_from=V.K_from, K_to=V.K_to)
    with pytest.raises(ValidationError, match="non-finite"):
        transform_right(bp, nan_op)


@pytest.mark.parametrize("n", [4, 16])
def test_scale_eps_at_extreme_eps_keeps_the_weyl_law(n):
    for trial in range(3):
        bp = gen_obt(InstanceSpec(n, 1 + trial, trial),
                     rng_stream(84, 10 * n + trial), TOL)
        M = weyl(bp, Z).M.to_matrix(TOL)
        for eps in (1e-6, 1e6, 1e-12):
            bp2 = scale_eps(bp, eps)
            assert bp2.classification == "unitary"
            M2 = weyl(bp2, Z).M.to_matrix(TOL)
            assert np.linalg.norm(M2 - eps * M) <= 1e-8 * np.linalg.norm(
                eps * M)


def test_scale_eps_stays_unitary_at_eps_1e_minus_300():
    # V_eps is unitary for every eps > 0.  A column space of the graph of
    # V_eps drops a direction here and reads "isometric"; QR of the row
    # product with the rows sorted by norm keeps every direction.
    for n in (2, 4, 16):
        for trial in range(4):
            spec = InstanceSpec(n, 1 + trial % min(n, 3), trial % (n + 1))
            bp = gen_unitary_boundary_pair(spec,
                                           rng_stream(85, 10 * n + trial))
            for eps in (1e-300, 1e-20, 1e300):
                bp2 = scale_eps(bp, eps)
                assert bp2.gamma.dim == bp.gamma.dim
                assert bp2.classification == "unitary"


def _max_angle(rel, oracle):
    assert rel.dim == oracle.dim
    angles = principal_angles(rel.graph, oracle.graph)
    return float(angles.max()) if angles.size else 0.0


def _transform_cases(n, trial):
    """(pair, oracle relation, oracle's state space) for the four block
    transforms of a random OBT, and for transform_right and scale_eps of
    a strictly isometric pair."""
    rng = rng_stream(83, 100 * n + trial)
    spec = InstanceSpec(n, 1 + trial % min(n, 3), trial % (n + 1))
    bp = gen_obt(spec, rng, TOL)
    m = bp.m
    V = gen_std_unitary(rng, bp.H, random_krein(rng, n, int(
        rng.integers(0, n + 1))))
    eps = 10.0 ** rng.uniform(-3.0, 3.0)
    kappa = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0))
    q = gen_qbt_map(rng, m)
    iso = gen_isometric_boundary_pair(spec, rng)
    assert iso.classification == "isometric"
    V_iso = gen_std_unitary(rng, iso.H)
    return [
        (transform_right(bp, V), transform_right_chain(bp, V), V.K_to),
        (scale_eps(bp, eps),
         transform_left_chain(bp, scaling_matrix(eps ** 0.5, m)), bp.H),
        (scaled_obt(bp, kappa),
         transform_left_chain(bp, scaling_matrix(kappa, m)), bp.H),
        (qbt_transform(bp, q), transform_left_chain(bp, qbt_matrix(q)), bp.H),
        (transform_right(iso, V_iso), transform_right_chain(iso, V_iso),
         V_iso.K_to),
        (scale_eps(iso, eps),
         transform_left_chain(iso, scaling_matrix(eps ** 0.5, m)), iso.H),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 64])
def test_row_product_transforms_match_the_compose_chain(n):
    for trial in range(4):
        for pair, oracle, H in _transform_cases(n, trial):
            assert _max_angle(pair.gamma, oracle) <= TOL.angle_tol
            assert pair.classification == BoundaryPair(
                H, pair.m, oracle, TOL).classification


def test_operator_transforms_make_one_qr_and_no_relation_calculus(
        monkeypatch):
    import kreinrel.transforms as transforms
    rng = rng_stream(86)
    fresh = [gen_obt(InstanceSpec(3, 2, 1), rng, TOL) for _ in range(4)]
    V = gen_std_unitary(rng, fresh[1].H)
    q = gen_qbt_map(rng, 2)
    counts = {"qr": 0, "svd": 0, "calculus": 0}
    qr, svd = np.linalg.qr, np.linalg.svd

    def counting(key, real):
        def call(*a, **k):
            counts[key] += 1
            return real(*a, **k)
        return call

    monkeypatch.setattr(np.linalg, "qr", counting("qr", qr))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", svd))
    for name in ("compose", "transform_left", "rel_from_operator"):
        monkeypatch.setattr(transforms, name, counting(
            "calculus", getattr(transforms, name)))
    calls = [(lambda: scale_eps(fresh[0], 0.25), 0),
             (lambda: transform_right(fresh[1], V), 0),
             (lambda: scaled_obt(fresh[2], 2.0), 1),
             (lambda: qbt_transform(fresh[3], q), 1)]
    for call, svds in calls:
        counts.update(qr=0, svd=0)
        call()
        assert (counts["qr"], counts["svd"]) == (1, svds)
    assert counts["calculus"] == 0
