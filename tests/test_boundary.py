"""Boundary pairs, Weyl families, the main transform and spectral
bookkeeping."""

import numpy as np
import pytest

import kreinrel.boundary as boundary
from _oracles import (
    defect_elements,
    defect_numbers,
    gen_isometric_boundary_pair,
    indef_inner,
    inverse_main_transform,
    is_obt_three_clauses,
    sigma_p_all_pair,
    spectral_sets,
    underlying_t_perp,
    weyl_counts_from_m,
)
from kreinrel.boundary import (
    BoundaryPair,
    delta_excluded_points,
    gamma_sharp,
    identity_obt,
    in_delta,
    m_plus_z,
    main_transform,
    main_transform_space,
    theta_extension,
    weyl,
)
from kreinrel.checks import weyl_sweep
from kreinrel.errors import PreconditionError
from kreinrel.generators import (
    InstanceSpec,
    gen_boundary_unitary_relation,
    gen_obt,
    gen_unitary_boundary_pair,
    gen_unitary_pair_with_T,
    random_krein,
    random_relation,
    random_unitary,
    rng_stream,
)
from kreinrel.relations import (
    LinearRelation,
    identity_relation,
    in_resolvent,
    is_selfadjoint,
    is_symmetric,
    krein_adjoint,
    point_spectrum,
    rel_contains,
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
    Tolerance,
    column_space,
    null_space,
    subspace_equal,
)
from kreinrel.transforms import boundary_v_classification

TOL = DEFAULT_TOL


def _empty_resolvent_pair():
    """The pair whose main transform has graph (graph I) x (graph I)
    in C^4 over H = (C, J = -1): self-adjoint with empty resolvent."""
    g = np.zeros((4, 2))
    g[0, 0] = g[1, 0] = g[2, 1] = g[3, 1] = 1 / np.sqrt(2)
    A = LinearRelation(2, 2, Subspace(4, g))
    H = make_krein(np.array([[-1.0]]))
    return inverse_main_transform(A, H, 1), A


# ----------------------------------------------------- classification

def test_identity_obt_is_unitary_surjective_operator():
    bp = identity_obt()
    assert bp.classification == "unitary"
    assert bp.is_obt()
    assert all(_old_chains(bp)["flags"].values())
    assert _green_defect_loop(bp) <= TOL.angle_tol


def test_identity_gamma_on_negative_space_is_not_isometric():
    # with J = -1 the Green identity flips sign, so Gamma = I fails it
    bp = BoundaryPair(make_krein(np.array([[-1.0]])), 1,
                      identity_relation(2))
    assert bp.classification == "not_isometric"
    assert _green_defect_loop(bp) > TOL.angle_tol


def test_flip_gamma_on_negative_space_is_obt():
    flip = rel_from_operator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    bp = BoundaryPair(make_krein(np.array([[-1.0]])), 1, flip)
    assert bp.classification == "unitary"
    assert bp.is_obt()
    assert _green_defect_loop(bp) <= TOL.angle_tol


def test_is_obt_agrees_with_the_three_clause_definition():
    # for a unitary Gamma, onto C^{2m} follows from being an operator:
    # the fixtures (multivalued Gamma among them), 1,000 random desk
    # draws and their direct sums with the multivalued-Gamma fixture
    flip = BoundaryPair(make_krein(np.array([[-1.0]])), 1, rel_from_operator(
        np.array([[0.0, 1.0], [1.0, 0.0]])))
    pairs = [identity_obt(), flip, _multivalued_pair(), _mul_pair(),
             _empty_resolvent_pair()[0], _eigen_pair()[0],
             *_oracle_pairs(), *_gram_oracle_pairs()]
    for i in range(1000):
        rng = rng_stream(62, i)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, min(n, 3) + 1))
        pairs.append(gen_unitary_boundary_pair(
            InstanceSpec(n, m, int(rng.integers(0, n + 1))), rng))
    pairs += [_direct_sum(bp, _multivalued_pair()) for bp in pairs[-100:]]
    multivalued = [bp for bp in pairs if bp.classification == "unitary"
                   and not bp.gamma.is_operator(bp.tol)]
    assert len(multivalued) > 100
    assert any(bp.is_obt() for bp in pairs)
    for bp in pairs:
        assert bp.is_obt() == is_obt_three_clauses(bp)


def test_restricted_gamma_is_strictly_isometric():
    bp = identity_obt()
    half = LinearRelation(2, 2, Subspace(4, bp.gamma.graph.basis[:, :1]))
    sub = BoundaryPair(bp.H, 1, half)
    assert sub.classification == "isometric"


def _green_defect_loop(bp):
    """max |[f', g] - [f, g'] - <l', k> + <l, k'>| over basis pairs."""
    n, m = bp.n, bp.m
    B = bp.gamma.graph.basis
    L = hilbert_space(m)
    worst = 0.0
    for i in range(B.shape[1]):
        f, fp = B[:n, i], B[n : 2 * n, i]
        l, lp = B[2 * n : 2 * n + m, i], B[2 * n + m :, i]
        for j in range(B.shape[1]):
            g, gp = B[:n, j], B[n : 2 * n, j]
            k, kp = B[2 * n : 2 * n + m, j], B[2 * n + m :, j]
            lhs = indef_inner(fp, g, bp.H) - indef_inner(f, gp, bp.H)
            rhs = indef_inner(lp, k, L) - indef_inner(l, kp, L)
            worst = max(worst, abs(lhs - rhs))
    return worst


def test_green_pairing_matches_loop_oracle():
    for trial in range(12):
        rng = rng_stream(33, trial)
        n, m = 1 + trial % 4, 1 + trial % 3
        spec = InstanceSpec(n, m, trial % (n + 1))
        pairs = [gen_unitary_boundary_pair(spec, rng),
                 gen_isometric_boundary_pair(spec, rng),
                 BoundaryPair(random_krein(rng, n, trial % (n + 1)), m,
                              random_relation(rng, 2 * n, 2 * m))]
        for bp in pairs:
            worst = _green_defect_loop(bp)
            isometric = bp.classification != "not_isometric"
            assert isometric == (worst <= TOL.angle_tol)
            if worst > 1e-3:
                metric = _pair_metric(bp.H, hilbert_space(bp.m))
                for scale, want in ((1 + 1e-9, True), (1 - 1e-9, False)):
                    cls = _classify_graph(bp.gamma.graph.basis, metric,
                                          Tolerance(angle_tol=worst * scale))
                    assert (cls != "not_isometric") == want


def test_gamma_sharp_of_unitary_pair_equals_gamma():
    rng = rng_stream(21)
    bp = gen_unitary_boundary_pair(InstanceSpec(2, 1, 1), rng, TOL)
    sharp = gamma_sharp(bp.gamma, bp.H, bp.m, TOL)
    assert rel_equal(sharp, bp.gamma, TOL)


def test_underlying_t_is_symmetric_and_t0_t1_extend_it():
    rng = rng_stream(22)
    bp = gen_unitary_boundary_pair(InstanceSpec(3, 2, 1), rng, TOL)
    T = bp.underlying_T()
    assert is_symmetric(T, bp.H, TOL)
    for ext in (bp.T0(), bp.T1()):
        assert all(
            np.linalg.norm(ext.graph.project(c) - c) < 1e-8
            for c in T.graph.basis.T)
    assert rel_contains(bp.T0(), T, TOL)
    assert rel_contains(bp.T1(), T, TOL)


# -------------------------------------------------------- Weyl family

def test_identity_obt_weyl_function_is_z():
    bp = identity_obt()
    for z in (1j, 2 + 1j, -0.5 - 2j):
        s = weyl(bp, z)
        assert s.M.is_operator(bp.tol)
        assert np.allclose(s.M.to_matrix(bp.tol), [[z]])


def test_flip_pair_weyl_function_is_reciprocal():
    # the flip swaps Gamma_0 and Gamma_1, so M(z) = 1/z
    flip = rel_from_operator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    bp = BoundaryPair(make_krein(np.array([[-1.0]])), 1, flip)
    for z in (1j, 1 + 1j, 2 - 0.5j):
        assert np.allclose(weyl(bp, z).M.to_matrix(bp.tol), [[1 / z]])


def test_weyl_rejects_real_point():
    with pytest.raises(PreconditionError):
        weyl(identity_obt(), 0.5)


def test_weyl_symmetry_against_gamma_sharp():
    rng = rng_stream(23)
    from kreinrel.relations import hilbert_adjoint
    for trial in range(10):
        bp = gen_unitary_boundary_pair(
            InstanceSpec(3, 2, trial % 3), rng_stream(23, trial), TOL)
        z = 0.7 + 1.3j
        lhs = hilbert_adjoint(weyl(bp, z).M, TOL)
        # the null-space Gamma_#, not the pair's unitary shortcut
        g_sharp = gamma_sharp(bp.gamma, bp.H, bp.m, TOL)
        assert rel_equal(g_sharp, bp.gamma_sharp, TOL)
        sharp = BoundaryPair(bp.H, bp.m, g_sharp, TOL)
        rhs = weyl(sharp, z.conjugate()).M
        assert rel_equal(lhs, rhs, TOL)
        assert rel_equal(rhs, _weyl_of_gamma(g_sharp, bp.n, bp.m,
                                             z.conjugate(), TOL), TOL)


def _weyl_oracle(bp, z):
    """M(z) and gamma(z) through the relation calculus: N_hat_z is
    A_* ∩ zI, M(z) = Gamma(N_hat_z), and the gamma-field pairs (l, f)
    over Gamma_0 restricted to N_hat_z."""
    tol = bp.tol
    n, m = bp.n, bp.m
    n_hat = bp.a_star().graph_restriction(z, tol)
    M = shmulyan(bp.gamma, n_hat.graph, tol)
    g0, _ = _selection_projections(bp)
    restricted = g0.restrict_domain(n_hat.graph, tol)
    sel = np.zeros((m + n, 2 * n + m))
    sel[:m, 2 * n :] = np.eye(m)
    sel[m :, :n] = np.eye(n)
    return M, LinearRelation(m, n, column_space(
        sel @ restricted.graph.basis, tol))


def _weyl_of_gamma(gamma, n, m, z, tol):
    """M(z) of a raw boundary relation, as the deleted
    ``boundary.weyl_of_gamma`` formed it: the span of the (l, l') rows
    of C = B null(B_f' - z B_f)."""
    C = defect_elements(gamma, n, z, tol)
    return LinearRelation(m, m, column_space(C[2 * n :], tol))


def _weyl_of_gamma_oracle(gamma, n, z, tol):
    a_star = LinearRelation(n, n, gamma.dom(tol))
    return shmulyan(gamma, a_star.graph_restriction(z, tol).graph, tol)


def _multivalued_pair():
    """The identity triple on the first boundary coordinate plus the
    purely multivalued {(0, 0, 0, t)} on the second: n = 1, m = 2,
    M(z) = {((a, 0), (za, t))} with mul M(z) = span(0, 1)."""
    g = np.zeros((6, 3))
    g[0, 0] = g[2, 0] = g[1, 1] = g[4, 1] = 1 / np.sqrt(2)
    g[5, 2] = 1.0
    gamma = LinearRelation(2, 4, Subspace(6, g))
    return BoundaryPair(hilbert_space(1), 2, gamma)


_ORACLE_Z = (0.3 + 0.9j, -1.2 - 0.4j, 2.0 + 1e-3j, -0.5 - 1e-3j)


def _oracle_pairs():
    for n in range(1, 5):
        for m in (1, 2, 3):
            for kappa in sorted({0, n // 2, n}):
                spec = InstanceSpec(n, m, kappa)
                seed = 100 * n + 10 * m + kappa
                yield gen_unitary_boundary_pair(spec, rng_stream(29, seed))
                yield gen_isometric_boundary_pair(spec, rng_stream(30, seed))
    yield _multivalued_pair()


def _assert_weyl_matches_oracle(bp, points):
    """Equal dimensions and max principal angle <= angle_tol (rel_equal)
    for M(z), gamma(z), and M_{Gamma_#}(conj z) against both the
    relation calculus and the former weyl_of_gamma."""
    tol = bp.tol
    g_sharp = gamma_sharp(bp.gamma, bp.H, bp.m, tol)
    sharp = BoundaryPair(bp.H, bp.m, g_sharp, tol)
    for z in points:
        sample = weyl(bp, z)
        M, gamma_field = _weyl_oracle(bp, z)
        assert rel_equal(sample.M, M, tol)
        assert rel_equal(sample.gamma_field, gamma_field, tol)
        zc = z.conjugate()
        M_sharp = weyl(sharp, zc).M
        assert rel_equal(M_sharp, weyl(bp._sharp_pair, zc).M, tol)
        assert rel_equal(
            M_sharp, _weyl_of_gamma_oracle(g_sharp, bp.n, zc, tol), tol)
        assert rel_equal(
            M_sharp, _weyl_of_gamma(g_sharp, bp.n, bp.m, zc, tol), tol)


def test_weyl_matches_relation_calculus_oracle():
    pairs = list(_oracle_pairs())
    assert any(bp.classification == "isometric" for bp in pairs)
    assert any(not bp.gamma.is_operator(bp.tol) for bp in pairs)
    for bp in pairs:
        _assert_weyl_matches_oracle(bp, _ORACLE_Z)


def test_gamma_field_is_formed_on_first_read_and_cached(monkeypatch):
    pairs = [gen_unitary_boundary_pair(InstanceSpec(n, m, n // 2),
                                       rng_stream(36, n))
             for n, m in ((1, 1), (3, 2), (4, 4), (16, 2), (64, 8))]
    pairs += [gen_isometric_boundary_pair(InstanceSpec(3, 2, 1),
                                          rng_stream(37)),
              _multivalued_pair()]
    assert any(bp._split is not None for bp in pairs)
    calls = []
    svd = np.linalg.svd

    def counting(*a, **k):
        calls.append(a[0].shape)
        return svd(*a, **k)

    for bp in pairs:
        n, m, tol = bp.n, bp.m, bp.tol
        for z in _ORACLE_Z:
            C = defect_elements(bp.gamma, n, z, tol)
            eager_M = LinearRelation(m, m, column_space(C[2 * n :], tol))
            eager = LinearRelation(m, n, column_space(
                np.vstack([C[2 * n : 2 * n + m], C[:n]]), tol))
            monkeypatch.setattr(np.linalg, "svd", counting)
            del calls[:]
            sample = weyl(bp, z)
            made = len(calls)
            if bp._split is None:  # the null space only
                assert made == 1
            read = made
            for name in ("M", "gamma_field"):
                value = getattr(sample, name)
                read += C.shape[1] > 0
                assert len(calls) == read
                assert getattr(sample, name) is value
                assert len(calls) == read
            monkeypatch.undo()
            assert rel_equal(sample.M, eager_M, tol)
            assert rel_equal(sample.gamma_field, eager, tol)


def test_weyl_matches_oracle_at_n64():
    bp = gen_unitary_boundary_pair(InstanceSpec(64, 8, 16), rng_stream(32))
    _assert_weyl_matches_oracle(bp, (0.7 + 1.1j, -0.4 - 1e-3j))


# ------------------------------- pencil split against the direct formulas

_SPLIT_Z = _ORACLE_Z + (0.8 + 1e-8j, -1.1 - 1e-8j)


def _direct_point(bp, z):
    """C, ran(A_* - z) = C^n and z in res(main transform) by the SVD
    formulas: the null space, ran_shifted of A_* and in_resolvent."""
    tol = bp.tol
    return (defect_elements(bp.gamma, bp.n, z, tol),
            bp.a_star().ran_shifted(z, tol).dim == bp.n,
            in_resolvent(main_transform(bp), z, tol))


def _assert_split_matches_direct(bp, points):
    """At every z the Weyl sample agrees with the direct formulas: equal
    dims and subspace_equal for C, rel_equal for M(z), identical
    ran_full and in_mt_resolvent.  Returns at how many points C came
    from the pencil split's diagonalisation."""
    tol = bp.tol
    decided = 0
    for z in points:
        C, ran_full, in_mt = _direct_point(bp, z)
        sample = weyl(bp, z)
        assert sample.C.shape == C.shape
        assert subspace_equal(Subspace(len(C), sample.C), Subspace(len(C), C),
                              tol)
        assert sample.ran_full == ran_full
        assert sample.in_mt_resolvent == in_mt
        M = LinearRelation(bp.m, bp.m, column_space(C[2 * bp.n :], tol))
        _assert_same_relation(sample.M, M, tol)
        decided += (bp._split is not None
                    and bool(bp._split.guarded([z], tol)[0]))
    return decided


def _eigen_pair():
    """A unitary pair over (C^2, diag(1, -1)), m = 1, with T =
    span{(e, lam e)}, e = (1, 1)/sqrt 2 neutral: ran(A_* - z) is
    deficient at z = conj(lam)."""
    lam = 0.4 + 0.7j
    e = np.array([1.0, 1.0]) / np.sqrt(2)
    g = np.concatenate([e, lam * e]) / np.sqrt(1 + abs(lam) ** 2)
    T = LinearRelation(2, 2, Subspace(4, g.reshape(-1, 1)))
    bp = gen_unitary_pair_with_T(T, make_krein(np.diag([1.0, -1.0])), 1,
                                 rng_stream(53))
    return bp, (lam, lam.conjugate())


def _deficient_part(bp, z):
    """The strictly isometric part of ``bp`` spanned by one defect element
    at z, where C has two columns, and the element of Gamma orthogonal to
    them: dim Gamma = n + m - 1, yet its C at z has m columns."""
    B = bp.gamma.graph.basis
    C = defect_elements(bp.gamma, bp.n, z, bp.tol)
    d = B @ null_space(C.conj().T @ B, bp.tol).basis
    part = LinearRelation(2 * bp.n, 2 * bp.m, Subspace(
        len(B), np.column_stack([C[:, 0], d[:, 0]])))
    return BoundaryPair(bp.H, bp.m, part)


def _split_off(bp):
    """The same pair, built anew so that its split is formed again."""
    return BoundaryPair(bp.H, bp.m, bp.gamma, bp.tol)


def test_pencil_split_matches_direct_formulas_at_desk_scale(monkeypatch):
    empty = _empty_resolvent_pair()[0]  # W = 0 wherever the split decides
    eigen, lams = _eigen_pair()
    part = _deficient_part(eigen, lams[1])
    assert part.classification == "isometric"
    assert weyl(part, lams[1]).C.shape[1] == part.m
    points = _SPLIT_Z + lams
    monkeypatch.setattr(boundary, "_SPLIT_MIN_N", 1)
    decided, seen = {}, set()
    for bp in [*_oracle_pairs(), empty, _mul_pair(), eigen, part]:
        key = (bp.classification, bp.gamma.is_operator(bp.tol))
        decided[key] = decided.get(key, 0) + _assert_split_matches_direct(
            bp, points)
        _assert_weyl_matches_oracle(bp, _SPLIT_Z[:2])
        seen |= {(p.ran_full, p.in_mt_resolvent)
                 for p in (weyl(bp, z) for z in points)}
    # the split decided points of unitary, isometric and multivalued pairs
    assert decided[("unitary", True)] > 0
    assert decided[("unitary", False)] > 0
    assert decided[("isometric", True)] > 0
    assert {(True, True), (True, False), (False, False)} <= seen
    sample = weyl(empty, 0.3 + 0.9j)
    assert (sample.ran_full, sample.in_mt_resolvent) == (True, False)
    # the same points with the split off: the SVD null space everywhere
    monkeypatch.setattr(boundary, "_SPLIT_MIN_N", 10**9)
    for bp in [*_oracle_pairs(), empty, _mul_pair(), eigen, part]:
        bp = _split_off(bp)
        assert bp._split is None
        assert _assert_split_matches_direct(bp, points) == 0


def test_pencil_split_matches_direct_formulas_at_n64(monkeypatch):
    unitary = gen_unitary_boundary_pair(InstanceSpec(64, 8, 16),
                                        rng_stream(50))
    # a strict part of dimension n + m - 2 > n keeps the split
    part = unitary.gamma.graph.basis[:, :70]
    isometric = BoundaryPair(unitary.H, 8, LinearRelation(
        128, 16, Subspace(144, part)))
    assert isometric.classification == "isometric"
    small = gen_unitary_boundary_pair(InstanceSpec(16, 2, 4), rng_stream(54))
    pairs = (unitary, isometric, small)
    for bp in pairs:
        assert bp._split is not None
        assert _assert_split_matches_direct(bp, _SPLIT_Z) == len(_SPLIT_Z)
        _assert_weyl_matches_oracle(bp, _SPLIT_Z[-2:])
    monkeypatch.setattr(boundary, "_SPLIT_MIN_N", 10**9)
    for bp in map(_split_off, pairs):
        assert _assert_split_matches_direct(bp, _SPLIT_Z) == 0


def _split_pencil_eigenvalue(bp):
    """A nonreal eigenvalue of the pencil (P1, L), B_f Q = [L 0] and
    B_f' Q = [P1 P2], from its own QR and a QZ: nothing is read from the
    split under test."""
    import scipy.linalg
    B, n = bp.gamma.graph.basis, bp.n
    Q = np.linalg.qr(B[:n].conj().T, mode="complete")[0][:, :n]
    eigs = scipy.linalg.eigvals(B[n : 2 * n] @ Q, B[:n] @ Q)
    return complex(next(w for w in eigs if abs(w.imag) > 1e-2))


def test_pencil_split_falls_back_on_an_eigenvalue_of_the_split_pencil():
    bp = gen_unitary_boundary_pair(InstanceSpec(16, 4, 2), rng_stream(51))
    split = bp._split
    z = _split_pencil_eigenvalue(bp)
    assert split.guarded([z, z.conjugate()], bp.tol).tolist() == [False, True]
    assert _assert_split_matches_direct(bp, (z,)) == 0
    _assert_weyl_matches_oracle(bp, (z,))


def test_ill_conditioned_eigenvectors_refuse_the_split(monkeypatch):
    # V with two equal columns stands for a defective L^{-1} P1: the
    # split is refused once per pair, after the eigendecomposition, and
    # the SVD null space decides every point with the same CSV
    pairs = [gen_unitary_boundary_pair(InstanceSpec(n, m, kappa),
                                       rng_stream(34, n))
             for n, m, kappa in ((16, 2, 4), (64, 8, 16))]
    points = _SPLIT_Z + (0.8 - 1e-8j, -1.1 + 1e-8j)
    fast = [weyl_sweep(bp, points) for bp in pairs]
    assert all(weyl(bp, z).S is bp._split.BQ
               for bp in pairs for z in points)
    eig, calls = np.linalg.eig, []

    def defective(A):
        calls.append(A.shape)
        lam, V = eig(A)
        V[:, 1] = V[:, 0]
        return lam, V

    for bp in map(_split_off, pairs):
        bp._sigma0  # point_spectrum's own eigenproblem, unpatched
        monkeypatch.setattr(np.linalg, "eig", defective)
        del calls[:]
        assert bp._split is None
        assert calls == [(bp.n, bp.n)]
        monkeypatch.undo()
        assert all(weyl(bp, z).S is bp.gamma.graph.basis for z in points)
        assert weyl_sweep(bp, points) == fast.pop(0)


def _benchmark_sweep_pair():
    """The first n = 128 pair of ``kreinrel sweep``'s benchmark at seed 1
    (m = 16, kappa = 32) and its 50-point grid."""
    bp = gen_unitary_boundary_pair(InstanceSpec(128, 16, 32),
                                   rng_stream(1, 0), TOL)
    rng = np.random.default_rng([1, 1, 0])
    re = rng.uniform(-2.0, 2.0, 50)
    im = rng.uniform(0.5, 2.0, 50) * rng.choice([-1.0, 1.0], 50)
    return bp, [complex(a, b) for a, b in zip(re, im)]


def test_failed_certificate_takes_the_singular_values(monkeypatch):
    # a stacked Cholesky that never succeeds stands for a certificate
    # that fails everywhere: each split-route point is then decided by
    # the four values-only SVDs of its orthonormal boundary rows, with
    # the same CSV
    points = _SPLIT_Z + (0.8 - 1e-8j, -1.1 + 1e-8j)
    sweeps = [(gen_unitary_boundary_pair(InstanceSpec(n, m, kappa),
                                         rng_stream(34, n)), points)
              for n, m, kappa in ((16, 2, 4), (64, 8, 16))]
    sweeps.append(_benchmark_sweep_pair())
    certified = [weyl_sweep(bp, pts) for bp, pts in sweeps]
    assert all(weyl(bp, z)._certified for bp, pts in sweeps for z in pts)

    def failing(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    svd, uv = np.linalg.svd, []

    def counting(*args, **kwargs):
        uv.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    monkeypatch.setattr(np.linalg, "svd", counting)
    for (bp, pts), csv in zip(sweeps, certified):
        del uv[:]
        # the pair's own SVDs (T, sigma0) were made by the first sweep
        assert weyl_sweep(bp, pts) == csv
        assert uv == [False] * (4 * len(pts))


def _direct_sum(bp1, bp2):
    """Gamma1 ⊕ Gamma2 over H1 ⊕ H2 and C^{m1 + m2}."""
    (n1, m1), (n2, m2) = (bp1.n, bp1.m), (bp2.n, bp2.m)
    n, m = n1 + n2, m1 + m2
    B1, B2 = bp1.gamma.graph.basis, bp2.gamma.graph.basis
    first, second = [], []
    for start, size, size1 in ((0, n, n1), (n, n, n1), (2 * n, m, m1),
                               (2 * n + m, m, m1)):
        first += range(start, start + size1)
        second += range(start + size1, start + size)
    B = np.zeros((2 * (n + m), B1.shape[1] + B2.shape[1]), dtype=complex)
    B[np.ix_(first, range(B1.shape[1]))] = B1
    B[np.ix_(second, range(B1.shape[1], B.shape[1]))] = B2
    J = np.zeros((n, n), dtype=complex)
    J[:n1, :n1], J[n1:, n1:] = bp1.H.J, bp2.H.J
    return BoundaryPair(make_krein(J), m, LinearRelation(
        2 * n, 2 * m, Subspace(2 * (n + m), B)))


def _mul_pair():
    """n = m = 1, Gamma = span{(0, 1, 0, 0), (0, 0, 1, 2)}: B_f = 0,
    T = {0} x C and M(z) = 2."""
    g = np.zeros((4, 2))
    g[1, 0] = 1.0
    g[2, 1], g[3, 1] = 1 / np.sqrt(5), 2 / np.sqrt(5)
    return BoundaryPair(hilbert_space(1), 1,
                        LinearRelation(2, 2, Subspace(4, g)))


def test_rank_deficient_b_f_takes_the_direct_formulas():
    assert np.allclose(weyl(_mul_pair(), 1j).M.to_matrix(TOL), [[2.0]])
    bp = _direct_sum(
        gen_unitary_boundary_pair(InstanceSpec(16, 3, 4), rng_stream(52)),
        _mul_pair())
    assert bp.classification == "unitary"
    assert bp.n >= boundary._SPLIT_MIN_N
    assert bp.underlying_T().mul(TOL).dim == 1
    assert bp._split is None
    assert _assert_split_matches_direct(bp, _SPLIT_Z) == 0
    _assert_weyl_matches_oracle(bp, _SPLIT_Z[:2])


def _raises_recorded(monkeypatch, name):
    """Wrap np.linalg.<name> so that each LinAlgError it raises is
    recorded before it propagates."""
    original, raised = getattr(np.linalg, name), []

    def wrapper(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        except np.linalg.LinAlgError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(np.linalg, name, wrapper)
    return raised


def test_exactly_singular_factors_refuse_the_split(monkeypatch):
    # B_f with an exact zero row (mul T != {0}) makes L exactly singular,
    # and eigenvectors e_1, e_1, e_3, ... make V's triangular factor so:
    # the solve with either raises, and the split is refused, not the
    # caller
    generic = gen_unitary_boundary_pair(InstanceSpec(16, 3, 4),
                                        rng_stream(52))
    bp = _direct_sum(generic, _mul_pair())
    raised = _raises_recorded(monkeypatch, "solve")
    assert boundary._pencil_split(bp.gamma.graph.basis, bp.n) is None
    assert len(raised) == 1
    eig = np.linalg.eig

    def repeated_e1(A):
        lam, V = eig(A)
        V = np.eye(len(lam), dtype=complex)
        V[:, 1] = V[:, 0]
        return lam, V

    monkeypatch.setattr(np.linalg, "eig", repeated_e1)
    B = generic.gamma.graph.basis
    assert boundary._pencil_split(B, generic.n) is None
    assert len(raised) == 2


def _jordan_obt(lam):
    """An ordinary boundary triple over H = (C^2, J = [[0, 1], [1, 0]])
    with m = 2 and T = {0}: Gamma = {(f, f', f, S f + J f')} with S =
    [[0, lam], [lam, 1]] Hermitian, so M(z) = S + zJ.  Its split operator
    L^{-1} P1 (f -> f' on the part of Gamma orthogonal to the elements
    with f = 0) is -JS / 2, a 2 x 2 Jordan block at -lam / 2."""
    J = np.array([[0.0, 1.0], [1.0, 0.0]])
    S = np.array([[0.0, lam], [lam, 1.0]])
    eye, zero = np.eye(2), np.zeros((2, 2))
    g = np.vstack([np.hstack([eye, zero]), np.hstack([zero, eye]),
                   np.hstack([eye, zero]), np.hstack([S, J])])
    bp = BoundaryPair(make_krein(J), 2,
                      LinearRelation(4, 4, column_space(g, TOL)))
    return bp, lambda z: S + z * J


def test_planted_jordan_block_refuses_the_split(monkeypatch):
    # a Jordan block of L^{-1} P1 leaves its eigenvector matrix V near
    # singular: the split is refused after the one eigendecomposition,
    # and the SVD route's M(z) is the direct sum of the parts' M(z)
    generic = gen_unitary_boundary_pair(InstanceSpec(16, 3, 4),
                                        rng_stream(52))
    jordan, m_jordan = _jordan_obt(0.6)
    assert jordan.is_obt()
    bp = _direct_sum(generic, jordan)
    assert bp.classification == "unitary" and bp.n >= boundary._SPLIT_MIN_N
    assert generic._split is not None
    eig, calls = np.linalg.eig, []

    def counting(A):
        calls.append(A.shape)
        return eig(A)

    monkeypatch.setattr(np.linalg, "eig", counting)
    assert boundary._pencil_split(bp.gamma.graph.basis, bp.n) is None
    assert calls == [(bp.n, bp.n)]
    monkeypatch.undo()
    assert bp._split is None
    for z in _SPLIT_Z:
        blocks = np.zeros((bp.m, bp.m), dtype=complex)
        blocks[: generic.m, : generic.m] = weyl(generic, z).M.to_matrix(
            generic.tol)
        blocks[generic.m :, generic.m :] = m_jordan(z)
        assert weyl(bp, z).S is bp.gamma.graph.basis
        assert rel_equal(weyl(bp, z).M, rel_from_operator(blocks), bp.tol)
    _assert_weyl_matches_oracle(bp, _SPLIT_Z[:2])


def test_multivalued_pair_weyl_family():
    bp = _multivalued_pair()
    assert bp.classification == "unitary"
    for z in _ORACLE_Z:
        M = weyl(bp, z).M
        expect = column_space(np.array([[1, 0, z, 0], [0, 0, 0, 1]]).T,
                              bp.tol)
        assert rel_equal(M, LinearRelation(2, 2, expect), TOL)
        assert M.mul(TOL).dim == 1


# -------------------------- T and the Weyl sample against eager formulas

def _t_oracle_pairs():
    for n in range(1, 5):
        for kappa in sorted({0, n // 2, n}):
            spec, seed = InstanceSpec(n, min(n, 3), kappa), 10 * n + kappa
            yield gen_unitary_boundary_pair(spec, rng_stream(55, seed))
    for n, m in ((16, 3), (64, 8)):
        yield gen_unitary_boundary_pair(InstanceSpec(n, m, n // 4),
                                        rng_stream(55, n))
    yield _multivalued_pair()
    yield _direct_sum(  # n = 17 with mul T = C
        gen_unitary_boundary_pair(InstanceSpec(16, 3, 4), rng_stream(52)),
        _mul_pair())
    for s in range(24):
        n = 1 + s % 4
        yield gen_isometric_boundary_pair(
            InstanceSpec(n, 1 + s % 3, s % (n + 1)), rng_stream(56, s))
    yield gen_isometric_boundary_pair(InstanceSpec(16, 3, 4), rng_stream(57))


def test_underlying_t_matches_the_perp_of_dom_gamma():
    seen = set()
    for bp in _t_oracle_pairs():
        try:
            T = underlying_t_perp(bp)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                bp.underlying_T()
            seen.add((bp.classification, "raises"))
            continue
        new = bp.underlying_T()
        _assert_same_relation(new, T, bp.tol)
        seen.add((bp.classification,
                  "multivalued" if new.mul(bp.tol).dim else "operator"))
    assert {("unitary", "operator"), ("unitary", "multivalued"),
            ("isometric", "operator"), ("isometric", "raises")} <= seen


def _assert_sample_matches_eager(sample):
    """M, W, the gamma-field, the resolvent vectors, ran_full and
    in_mt_resolvent of a Weyl sample against the same readings of its
    defect elements C = S Y formed in full."""
    bp, z = sample.bp, sample.z
    n, m, tol = bp.n, bp.m, bp.tol
    C = sample.S @ sample.Y
    assert np.array_equal(sample.C, C)
    W = C[2 * n + m :] + z * C[2 * n : 2 * n + m]
    assert np.allclose(sample.W, W, rtol=0, atol=1e-13)
    _assert_same_relation(sample.M, LinearRelation(
        m, m, column_space(C[2 * n :], tol)), tol)
    lf = np.vstack([C[2 * n : 2 * n + m], C[:n]])
    _assert_same_relation(sample.gamma_field,
                          LinearRelation(m, n, column_space(lf, tol)), tol)
    assert sample.ran_full == (C.shape[1] == bp.gamma.dim - n)
    assert sample.in_mt_resolvent == in_resolvent(main_transform(bp), z, tol)
    if not sample.in_mt_resolvent:
        with pytest.raises(PreconditionError):
            sample.resolvent_vectors()
        return False
    eager = -C[:n] @ np.linalg.inv(W)
    assert np.allclose(sample.resolvent_vectors(), eager, rtol=1e-10,
                       atol=1e-10 * np.linalg.norm(eager))
    return True


def test_weyl_sample_matches_its_eager_defect_elements():
    split = [gen_unitary_boundary_pair(InstanceSpec(n, m, kappa),
                                       rng_stream(34, n))
             for n, m, kappa in ((16, 2, 4), (17, 3, 0), (64, 8, 16))]
    routes, resolvent = set(), set()
    for bp in [*split, *_oracle_pairs(), _mul_pair()]:
        for z in _SPLIT_Z:
            sample = weyl(bp, z)
            split_route = sample.S is not bp.gamma.graph.basis
            assert split_route == (bp._split is not None
                                   and bool(bp._split.guarded([z], bp.tol)[0]))
            routes.add((bp.n, split_route))
            resolvent.add(_assert_sample_matches_eager(sample))
    assert {(16, True), (17, True), (64, True)} <= routes
    assert all((n, False) in routes for n in range(1, 5))
    assert resolvent == {True, False}
    # z on an eigenvalue of the split pencil (P1, L): the SVD fallback
    bp = gen_unitary_boundary_pair(InstanceSpec(16, 4, 2), rng_stream(51))
    sample = weyl(bp, _split_pencil_eigenvalue(bp))
    assert sample.S is bp.gamma.graph.basis
    _assert_sample_matches_eager(sample)


def test_m_plus_z_shifts_operator_values():
    bp = identity_obt()
    M = weyl(bp, 1j).M
    shifted = m_plus_z(M, 1j, TOL)
    assert np.allclose(shifted.to_matrix(bp.tol), [[2j]])


# ----------------------------------------------------- main transform

def test_main_transform_selfadjoint_iff_unitary():
    rng = rng_stream(25)
    bp = gen_unitary_boundary_pair(InstanceSpec(2, 2, 1), rng, TOL)
    K = main_transform_space(bp)
    assert is_selfadjoint(main_transform(bp), K, TOL)
    # strictly isometric pair: symmetric but not self-adjoint
    half = LinearRelation(
        2 * bp.n, 2 * bp.m,
        Subspace(2 * bp.n + 2 * bp.m,
                 bp.gamma.graph.basis[:, :bp.gamma.graph.dim - 1]))
    sub = BoundaryPair(bp.H, bp.m, half, TOL)
    mt = main_transform(sub)
    assert is_symmetric(mt, K, TOL)
    assert not is_selfadjoint(mt, K, TOL)


def test_main_transform_round_trip():
    rng = rng_stream(26)
    bp = gen_unitary_boundary_pair(InstanceSpec(3, 1, 2), rng, TOL)
    back = inverse_main_transform(main_transform(bp), bp.H, bp.m, TOL)
    assert rel_equal(back.gamma, bp.gamma, TOL)


def test_empty_resolvent_fixture():
    bp, A = _empty_resolvent_pair()
    assert bp.classification == "unitary"
    mt = main_transform(bp)
    assert rel_equal(mt, A, TOL)
    assert is_selfadjoint(A, main_transform_space(bp), TOL)
    grid = [complex(a, b)
            for a in np.linspace(-3, 3, 10)
            for b in np.linspace(-3, 3, 10)]
    assert len(grid) == 100
    assert not any(in_resolvent(mt, z, TOL) for z in grid)


def test_identity_obt_main_transform_has_resolvent_points():
    mt = main_transform(identity_obt())
    assert in_resolvent(mt, 1j, TOL)


# ------------------------------------------------- spectral sets etc.

def test_spectral_sets_identity_obt():
    bp = identity_obt()
    pts = [1j, 2j, 0.5 + 0.5j]
    samples = [weyl(bp, z) for z in pts]
    sets = spectral_sets(bp, 0.75, samples)
    assert not sets.sigma_p_all
    assert sets.excluded_points == ()
    assert delta_excluded_points(bp) == ()
    for sample, rec in zip(samples, sets.samples):
        assert rec["in_Omega"] and rec["in_delta"] and rec["in_O"]
        # M(z) + z = 2z is invertible away from zero
        assert rec["in_Sigma"] and sample.in_sigma
    by_z = {rec["z"]: rec for rec in sets.samples}
    assert by_z[2j]["in_B_eps"]
    assert not by_z[0.5 + 0.5j]["in_B_eps"]  # |z| < eps


def _kernel_pair():
    """The identity triple on the first boundary coordinate plus the
    pair {(0, 0, t, 0)} on the second: n = 1, m = 2,
    M(z) = {((a, s), (za, 0))} with ker M(z) = span(0, 1)."""
    g = np.zeros((6, 3))
    g[0, 0] = g[2, 0] = g[1, 1] = g[4, 1] = 1 / np.sqrt(2)
    g[3, 2] = 1.0
    gamma = LinearRelation(2, 4, Subspace(6, g))
    return BoundaryPair(hilbert_space(1), 2, gamma)


def _assert_sets_match_oracle(bp, points, counts=None):
    """The sample's dim M(z), dim mul M(z), dim ker M(z) and
    shift_invertible against the same readings of M's basis
    (weyl_counts_from_m), and in_sigma and in_delta against the oracle
    spectral_sets, at every point.  Adds the counts seen to ``counts``;
    returns the (in_sigma, shift_invertible, dim M == m) seen, or None
    where T is not symmetric (the sample and in_delta then raise as the
    oracle does)."""
    tol = bp.tol
    samples = [weyl(bp, z) for z in points]
    for sample in samples:
        got = (sample.dim_M, sample.dim_mul, sample.dim_ker,
               sample.shift_invertible)
        assert got == weyl_counts_from_m(sample)
        if counts is not None:
            counts.add(got[:3])
    try:
        sets = spectral_sets(bp, 0.5, samples)
    except PreconditionError:
        for sample in samples:
            with pytest.raises(PreconditionError):
                sample.in_sigma
            with pytest.raises(PreconditionError):
                in_delta(bp, sample.z)
        return None
    seen = set()
    for sample, rec in zip(samples, sets.samples):
        assert sample.in_sigma == rec["in_Sigma"]
        assert in_delta(bp, sample.z) == rec["in_delta"]
        seen.add((sample.in_sigma, sample.shift_invertible,
                  sample.dim_M == bp.m))
    return seen


def _upper_eigenvalue(rel, tol):
    """The eigenvalue of ``rel`` in the upper half-plane nearest the real
    axis."""
    return min((complex(w) for w, _ in point_spectrum(rel, tol).eigenvalues
                if complex(w).imag > 1e-2), key=lambda w: w.imag)


def test_spectral_sets_match_the_m_plus_z_oracle(monkeypatch):
    degenerate = sigma_p_all_pair()
    assert delta_excluded_points(degenerate) is None  # sigma_p(T) = C
    pairs = [identity_obt(), *_oracle_pairs(), _mul_pair(), _kernel_pair(),
             degenerate, _empty_resolvent_pair()[0],
             _deficient_part(_eigen_pair()[0], 0.2 + 0.6j),
             gen_isometric_boundary_pair(InstanceSpec(16, 3, 4),
                                         rng_stream(57))]
    pairs += [gen_unitary_boundary_pair(InstanceSpec(n, m, n // 4),
                                        rng_stream(58, n))
              for n, m in ((16, 3), (17, 17), (64, 8))]
    assert all(bp._split is not None for bp in pairs[-4:])
    points = _SPLIT_Z + (0.8 - 1e-8j, -1.1 + 1e-8j)
    seen, counts, resolvent, raised = set(), set(), set(), 0
    for bp in pairs:
        got = _assert_sets_match_oracle(bp, points, counts)
        if got is None:
            raised += 1
        else:
            seen |= got
        mt = main_transform(bp)
        for z in points:
            in_mt = weyl(bp, z).in_mt_resolvent
            assert in_mt == in_resolvent(mt, z, bp.tol)
            resolvent.add(in_mt)
    assert raised > 0
    assert {(True, True, True), (False, True, True), (False, False, True),
            (False, False, False)} <= seen
    # on and 1e-6 off an eigenvalue of the split pencil: the SVD route
    bp = pairs[-3]
    lam = _split_pencil_eigenvalue(bp)
    near = [lam, lam + 1e-6, lam - 1e-6j, lam.conjugate() + 1e-6]
    seen |= _assert_sets_match_oracle(bp, near, counts)
    assert weyl(bp, lam).S is bp.gamma.graph.basis
    # mul M(z), ker M(z) and dim M(z) < m each occur, as do both
    # main-transform verdicts
    assert {(2, 1, 0), (2, 0, 1), (0, 0, 0)} <= counts
    assert resolvent == {True, False}
    # 1e-7 to 1e-9 from a nonreal eigenvalue of J(Gamma), where W is
    # near singular, and of T0, where R_l is near rank deficient: the
    # block's sigma_min lies below the split's certificate bound, above
    # or below its SVD cutoff, so the certificate declines, and the SVDs
    # decide as the oracle and the SVD route do
    other = gen_unitary_boundary_pair(InstanceSpec(16, 2, 4),
                                      rng_stream(34, 16))
    verdicts = []
    for bp, rels in ((pairs[-3], (main_transform, BoundaryPair.T0)),
                     (other, (main_transform,))):
        direct = BoundaryPair(bp.H, bp.m, bp.gamma, bp.tol)
        with monkeypatch.context() as patch:
            patch.setattr(boundary, "_SPLIT_MIN_N", 10**9)
            assert direct._split is None
        near = [w + d * 1j for rel in rels
                for w in [_upper_eigenvalue(rel(bp), bp.tol)]
                for d in (1e-7, 1e-8, 1e-9)]
        samples = [weyl(bp, z) for z in near]
        assert all(isinstance(s, boundary._SplitSample) and not s._certified
                   for s in samples)
        seen |= _assert_sets_match_oracle(bp, near, counts)
        got = [(s.in_mt_resolvent, s.shift_invertible, s.dim_mul)
               for s in samples]
        assert got == [(t.in_mt_resolvent, t.shift_invertible, t.dim_mul)
                       for t in (weyl(direct, z) for z in near)]
        verdicts += got
    # W full rank at 1e-7 and deficient below it, R_l full rank throughout
    assert verdicts == ([(True, True, 0), (False, True, 0), (False, False, 0)]
                        + [(True, True, 0)] * 3
                        + [(True, True, 0)] + [(False, True, 0)] * 2)
    # a planted nonreal eigenvalue lam of T: at and near lam and conj lam
    bp, (lam, lam_bar) = _eigen_pair()
    assert delta_excluded_points(bp) == pytest.approx(
        sorted((lam, lam_bar), key=lambda w: w.imag))
    near = [lam, lam_bar, lam * (1 + 1e-10), lam_bar + 1e-10j,
            lam + 1e-6, lam_bar - 1e-6j, 0.3 + 1e-8j, -0.3 - 1e-8j]
    got = _assert_sets_match_oracle(bp, near)
    assert [in_delta(bp, z) for z in near] == [False] * 4 + [True] * 4
    assert (False, True, True) in got


def test_one_uncertifiable_point_sends_its_block_to_the_svds(monkeypatch):
    # a block of four points holds one 1e-9 from a nonreal eigenvalue of
    # J(Gamma), where W is too near singular for the certificate: the
    # block's stacked Cholesky fails, and all four of its points are
    # read from the singular values, with no Cholesky per point
    bp = gen_unitary_boundary_pair(InstanceSpec(16, 2, 4), rng_stream(34, 16))
    near = _upper_eigenvalue(main_transform(bp), bp.tol) + 1e-9j
    rng = np.random.default_rng(59)
    generic = [complex(a, b * s) for a, b, s in zip(
        rng.uniform(-2.0, 2.0, 11), rng.uniform(0.5, 2.0, 11),
        rng.choice([1.0, -1.0], 11))]
    points = generic[:6] + [near] + generic[6:]
    p = bp.gamma.dim - bp.n
    monkeypatch.setattr(boundary, "_PANEL_BYTES", 4 * 16 * bp.n * p)
    cholesky, shapes = np.linalg.cholesky, []

    def counting(a):
        shapes.append(np.shape(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    samples = list(boundary._weyl_samples(bp, points))
    assert all(isinstance(s, boundary._SplitSample) for s in samples)
    assert [s._certified for s in samples] == [
        not 4 <= i < 8 for i in range(len(points))]
    assert shapes == [(4, 3, p, p)] * 3
    monkeypatch.undo()
    with monkeypatch.context() as patch:
        patch.setattr(boundary, "_SPLIT_MIN_N", 10**9)
        direct = BoundaryPair(bp.H, bp.m, bp.gamma, bp.tol)
        assert direct._split is None

    def verdicts(sample):
        return (sample.dim_M, sample.dim_mul, sample.dim_ker,
                sample.ran_full, sample.shift_invertible,
                sample.in_mt_resolvent, sample.in_sigma)

    assert ([verdicts(s) for s in samples]
            == [verdicts(weyl(direct, z)) for z in points])
    assert not samples[6].in_mt_resolvent
    assert weyl_sweep(bp, points) == weyl_sweep(direct, points)


def test_weyl_sweep_rejects_nonpositive_eps():
    bp = identity_obt()
    for eps in (0.0, -1.0):
        with pytest.raises(PreconditionError):
            weyl_sweep(bp, [1j], eps=eps)
    # no column depends on eps
    pts = [1j, 0.3 - 2j]
    assert weyl_sweep(bp, pts, eps=1e-6) == weyl_sweep(bp, pts, eps=1e6)


def test_delta_excluded_points_conjugate_closed():
    for trial in range(10):
        bp = gen_unitary_boundary_pair(
            InstanceSpec(3, 1, 1), rng_stream(27, trial), TOL)
        pts = delta_excluded_points(bp)
        if pts:
            for p in pts:
                assert any(abs(p.conjugate() - q) < 1e-8 for q in pts)
            assert not in_delta(bp, pts[0])


def test_defect_numbers_identity_obt():
    assert defect_numbers(identity_obt(), 1j) == (1, 1)


def test_theta_extension_endpoints():
    # theta = 0 (the zero operator) selects ker Gamma_1 = T1; the
    # purely multivalued theta = {0} x C selects ker Gamma_0 = T0
    bp = identity_obt()
    from kreinrel.relations import full_relation, rel_contains
    t_zero = theta_extension(
        bp, rel_from_operator(np.zeros((bp.m, bp.m))))
    assert rel_equal(t_zero, bp.T1(), TOL)
    mul_only = rel_from_operator(np.zeros((bp.m, bp.m))).inverse()
    assert rel_equal(theta_extension(bp, mul_only), bp.T0(), TOL)
    t_all = theta_extension(bp, full_relation(bp.m))
    assert rel_contains(t_all, t_zero, TOL)


def test_gen_obt_flags_always_hold():
    for trial in range(15):
        bp = gen_obt(InstanceSpec(2 + trial % 3, 1 + trial % 2, trial % 3),
                     rng_stream(28, trial), TOL)
        assert bp.is_obt()
        assert all(_old_chains(bp)["flags"].values())


# ------------------------ graph-basis derivations against the old chains

def _gamma_sharp_chain(gamma, H, m, tol):
    """Gamma_# as (Gamma+)^{-1}, the Krein adjoint between the doubled
    spaces (C^{2n}, hat J_H) and (C^{2m}, hat J_L)."""
    return krein_adjoint(gamma, make_krein(H.hat),
                         make_krein(hilbert_space(m).hat), tol).inverse()


def _classification_oracle(gamma, sharp, tol):
    """Gamma against Gamma_# through rel_equal / rel_contains."""
    if rel_equal(gamma, sharp, tol):
        return "unitary"
    if rel_contains(sharp, gamma, tol):
        return "isometric"
    return "not_isometric"


def _selection_projections(bp):
    """Gamma_0 and Gamma_1 as images of the graph under selection
    matrices (f, f', l, l') -> (f, f', l) and -> (f, f', l')."""
    n, m = bp.n, bp.m
    sel0 = np.zeros((2 * n + m, 2 * n + 2 * m))
    sel0[: 2 * n, : 2 * n] = np.eye(2 * n)
    sel0[2 * n :, 2 * n : 2 * n + m] = np.eye(m)
    sel1 = np.zeros((2 * n + m, 2 * n + 2 * m))
    sel1[: 2 * n, : 2 * n] = np.eye(2 * n)
    sel1[2 * n :, 2 * n + m :] = np.eye(m)
    B = bp.gamma.graph.basis
    return (LinearRelation(2 * n, m, column_space(sel0 @ B, bp.tol)),
            LinearRelation(2 * n, m, column_space(sel1 @ B, bp.tol)))


def _old_chains(bp):
    """Classification, T (with its symmetry), T0, T1 and the flags by
    the adjoint and selection-matrix chains."""
    tol = bp.tol
    n = bp.n
    sharp = _gamma_sharp_chain(bp.gamma, bp.H, bp.m, tol)
    g0, g1 = _selection_projections(bp)
    T = LinearRelation(n, n, sharp.ker(tol))
    T0 = LinearRelation(n, n, g0.ker(tol))
    T1 = LinearRelation(n, n, g1.ker(tol))
    flags = {
        "gamma_is_operator": bp.gamma.mul(tol).dim == 0,
        "gamma_surjective": bp.gamma.ran(tol).dim == 2 * bp.m,
        "T0_selfadjoint": rel_equal(T0, krein_adjoint(T0, bp.H, bp.H, tol),
                                    tol),
        "ran_gamma0_full": g0.ran(tol).dim == bp.m,
    }
    return {
        "classification": _classification_oracle(bp.gamma, sharp, tol),
        "T": T,
        "T_symmetric": rel_contains(krein_adjoint(T, bp.H, bp.H, tol), T,
                                    tol),
        "T0": T0,
        "T1": T1,
        "flags": flags,
    }


def _read_facts(bp):
    """The four predicates of the old chains' "flags", each computed as
    its reader in the library computes it."""
    tol = bp.tol
    return {
        "gamma_is_operator": bp.gamma.is_operator(tol),
        "gamma_surjective": bp.gamma.ran(tol).dim == 2 * bp.m,
        "T0_selfadjoint": is_selfadjoint(bp.T0(), bp.H, tol),
        "ran_gamma0_full": column_space(bp.gamma.G[: bp.m], tol).dim == bp.m,
    }


def _assert_same_relation(new, old, tol):
    assert new.dim == old.dim
    assert rel_equal(new, old, tol)


def _assert_matches_old_chains(bp):
    """The Gram classification, the null-space T, T0, T1, the OBT test
    and the sub-classification predicates agree with the old chains."""
    tol = bp.tol
    old = _old_chains(bp)
    assert bp.classification == old["classification"]
    _assert_same_relation(bp.T0(), old["T0"], tol)
    _assert_same_relation(bp.T1(), old["T1"], tol)
    assert _read_facts(bp) == old["flags"]
    assert bp.is_obt() == (old["classification"] == "unitary"
                           and old["flags"]["gamma_is_operator"]
                           and old["flags"]["gamma_surjective"])
    if bp.classification != "not_isometric" and old["T_symmetric"]:
        _assert_same_relation(bp.underlying_T(), old["T"], tol)
    else:
        with pytest.raises(PreconditionError):
            bp.underlying_T()
    return old


def _gram_oracle_pairs():
    for n in range(1, 5):
        for m in (1, 2, 3):
            for kappa in sorted({0, n // 2, n}):
                spec = InstanceSpec(n, m, kappa)
                seed = 100 * n + 10 * m + kappa
                yield gen_unitary_boundary_pair(spec, rng_stream(41, seed))
                yield gen_isometric_boundary_pair(spec, rng_stream(42, seed))
                rng = rng_stream(43, seed)
                H = random_krein(rng, n, kappa)
                yield BoundaryPair(H, m, random_relation(rng, 2 * n, 2 * m))
                yield BoundaryPair(H, m, random_relation(
                    rng, 2 * n, 2 * m, graph_dim=n + m))
    yield _multivalued_pair()
    yield identity_obt()
    yield _empty_resolvent_pair()[0]
    yield BoundaryPair(make_krein(np.array([[-1.0]])), 1,
                       identity_relation(2))


def test_gram_derivations_match_old_chains():
    seen = set()
    for bp in _gram_oracle_pairs():
        old = _assert_matches_old_chains(bp)
        seen.add((bp.classification, old["T_symmetric"],
                  old["flags"]["T0_selfadjoint"]))
    assert {c for c, _, _ in seen} == {"unitary", "isometric",
                                       "not_isometric"}
    assert {("isometric", True), ("isometric", False)} <= {
        (c, s) for c, s, _ in seen}
    assert {f for _, _, f in seen} == {True, False}


def test_pair_caches_are_shared_exact_and_read_only():
    # T, T0, the elements of T0 and the OBT test on the old chains' pairs
    # (unitary, strictly isometric, not isometric, multivalued Gamma): a
    # second read returns the first object, which equals a fresh pair's
    # derivation; underlying_T's PreconditionError is raised on every
    # read and never cached; the cached bases are read-only
    def assert_read_only(A):
        with pytest.raises(ValueError):
            A[...] = 0

    kinds = set()
    for bp in _gram_oracle_pairs():
        fresh = BoundaryPair(bp.H, bp.m, bp.gamma, bp.tol)
        assert bp.is_obt() == fresh.is_obt()
        X = bp._t0_elements
        assert bp._t0_elements is X
        assert np.array_equal(X, fresh._t0_elements)
        T0 = bp.T0()
        assert bp.T0() is T0
        assert np.array_equal(T0.graph.basis, fresh.T0().graph.basis)
        for A in (X, T0.graph.basis, T0.F, T0.G):
            assert_read_only(A)
        try:
            T = bp.underlying_T()
        except PreconditionError:
            for _ in range(2):
                with pytest.raises(PreconditionError):
                    bp.underlying_T()
            assert "_T" not in vars(bp)
            kinds.add((bp.classification, "no T"))
            continue
        assert bp.underlying_T() is T
        assert np.array_equal(T.graph.basis, BoundaryPair(
            bp.H, bp.m, bp.gamma, bp.tol).underlying_T().graph.basis)
        for A in (T.graph.basis, T.F, T.G):
            assert_read_only(A)
        multivalued = (bp.classification == "unitary"
                       and not bp.gamma.is_operator(bp.tol))
        kinds.add((bp.classification, "multivalued" if multivalued else "T"))
    assert kinds >= {("unitary", "T"), ("unitary", "multivalued"),
                     ("isometric", "T"), ("isometric", "no T"),
                     ("not_isometric", "no T")}


def test_gram_derivations_match_old_chains_at_n64():
    spec = InstanceSpec(64, 8, 16)
    _assert_matches_old_chains(gen_unitary_boundary_pair(spec, rng_stream(44)))
    _assert_matches_old_chains(
        gen_isometric_boundary_pair(spec, rng_stream(45)))


def test_gram_classification_between_tolerances():
    # Gram defects between 1e-11 and 1e-6: neutral at angle_tol 1e-6,
    # not at 1e-11, for the Gram test and the adjoint chain alike
    unitary = gen_unitary_boundary_pair(InstanceSpec(3, 3, 1), rng_stream(47))
    half = unitary.gamma.graph.basis[:, :4]
    strict = BoundaryPair(unitary.H, 3,
                          LinearRelation(6, 6, Subspace(12, half)))
    metric = np.zeros((12, 12), dtype=complex)
    metric[:6, :6] = unitary.H.hat
    metric[6:, 6:] = -hilbert_space(3).hat
    rng = rng_stream(46)
    for bp, neutral in ((unitary, "unitary"), (strict, "isometric")):
        B = bp.gamma.graph.basis
        E = rng.normal(size=B.shape) + 1j * rng.normal(size=B.shape)
        B, _ = np.linalg.qr(B + 3e-9 * E)
        gamma = LinearRelation(6, 6, Subspace(12, B))
        defect = np.max(np.abs(B.conj().T @ metric @ B))
        assert 1e-11 < defect < 1e-6
        for angle_tol, want in ((1e-6, neutral), (1e-11, "not_isometric")):
            tol = Tolerance(angle_tol=angle_tol)
            moved = BoundaryPair(bp.H, 3, gamma, tol)
            assert moved.classification == want
            _assert_matches_old_chains(moved)


def test_boundary_v_classification_matches_old_chain():
    seen = set()
    for trial in range(36):
        rng = rng_stream(48, trial)
        m, m2 = 1 + trial % 3, 1 + (trial // 3) % 3
        unitary = gen_boundary_unitary_relation(rng, m, m2)
        d = unitary.graph.dim
        coeff = random_unitary(rng, d)[:, : d - 1]
        sub = LinearRelation(2 * m, 2 * m2, Subspace(
            2 * (m + m2), unitary.graph.basis @ coeff))
        for v_rel in (unitary, sub, random_relation(rng, 2 * m, 2 * m2)):
            sharp = krein_adjoint(
                v_rel, make_krein(hilbert_space(m).hat),
                make_krein(hilbert_space(m2).hat), TOL).inverse()
            cls = boundary_v_classification(v_rel, TOL)
            assert cls == _classification_oracle(v_rel, sharp, DEFAULT_TOL)
            seen.add(cls)
    assert seen == {"unitary", "isometric", "not_isometric"}


def test_constructor_makes_no_svd(monkeypatch):
    pairs = list(_gram_oracle_pairs())[::7]
    pairs.append(gen_unitary_boundary_pair(InstanceSpec(16, 4, 2),
                                           rng_stream(49)))
    args = [(bp.H, bp.m, bp.gamma, bp.tol) for bp in pairs]
    calls = []
    svd = np.linalg.svd

    def counting(*a, **k):
        calls.append(a)
        return svd(*a, **k)

    monkeypatch.setattr(np.linalg, "svd", counting)
    built = [BoundaryPair(*a) for a in args]
    assert calls == []
    monkeypatch.undo()
    for bp in built:
        assert _read_facts(bp) == _old_chains(bp)["flags"]


def test_strictly_isometric_pair_has_no_symmetric_t():
    # ker Gamma_# = (dom Gamma)^[perp] of a strict part of a unitary
    # Gamma is in general not neutral: a well-formed isometric pair
    # without a symmetric T, reported as a failed precondition
    raised = 0
    for s in range(20):
        bp = gen_isometric_boundary_pair(InstanceSpec(3, 2, 1),
                                         rng_stream(40, s))
        assert bp.classification == "isometric"
        old = _old_chains(bp)
        if old["T_symmetric"]:
            _assert_same_relation(bp.underlying_T(), old["T"], bp.tol)
            continue
        with pytest.raises(PreconditionError,
                           match="not associated with a symmetric T"):
            bp.underlying_T()
        raised += 1
    assert raised > 0


# ------------- Gamma_#, T+ and the main transform against the old chains

def _main_transform_chain(bp):
    """J(Gamma) as the column space of P B, with P the coordinate map
    (f, f', l, l') -> ((f, l), (f', -l'))."""
    n, m = bp.n, bp.m
    P = np.zeros((2 * (n + m), 2 * (n + m)))
    P[:n, :n] = np.eye(n)
    P[n : n + m, 2 * n : 2 * n + m] = np.eye(m)
    P[n + m : 2 * n + m, n : 2 * n] = np.eye(n)
    P[2 * n + m :, 2 * n + m :] = -np.eye(m)
    return P, LinearRelation(n + m, n + m, column_space(
        P @ bp.gamma.graph.basis, bp.tol))


def _assert_direct_forms_match_chains(bp):
    """Gamma_#, T+, J(Gamma) and its inverse against the adjoint and
    coordinate-matrix chains; returns whether T+ was compared."""
    tol = bp.tol
    chain = _gamma_sharp_chain(bp.gamma, bp.H, bp.m, tol)
    _assert_same_relation(bp.gamma_sharp, chain, tol)
    _assert_same_relation(gamma_sharp(bp.gamma, bp.H, bp.m, tol), chain, tol)
    P, mt_chain = _main_transform_chain(bp)
    mt = main_transform(bp)
    assert np.array_equal(mt.graph.basis, P @ bp.gamma.graph.basis)
    _assert_same_relation(mt, mt_chain, tol)
    back = inverse_main_transform(mt, bp.H, bp.m, tol)
    assert np.array_equal(back.gamma.graph.basis, bp.gamma.graph.basis)
    assert back.classification == bp.classification
    back = inverse_main_transform(mt_chain, bp.H, bp.m, tol)
    _assert_same_relation(back.gamma, bp.gamma, tol)
    try:
        T = bp.underlying_T()
    except PreconditionError:
        with pytest.raises(PreconditionError):
            bp.t_plus()
        return False
    _assert_same_relation(bp.t_plus(), krein_adjoint(T, bp.H, bp.H, tol), tol)
    _assert_same_relation(bp.t_plus(), LinearRelation(bp.n, bp.n, null_space(
        T.graph.basis.conj().T @ bp.H.hat, tol)), tol)
    return True


def test_direct_forms_match_old_chains():
    seen = set()
    for bp in _gram_oracle_pairs():
        compared = _assert_direct_forms_match_chains(bp)
        seen.add((bp.classification, bp.gamma.is_operator(bp.tol), compared))
    assert {c for c, _, _ in seen} == {"unitary", "isometric",
                                       "not_isometric"}
    assert ("unitary", False, True) in seen  # multivalued Gamma
    assert ("isometric", True, True) in seen


def test_direct_forms_match_old_chains_at_n64():
    bp = gen_unitary_boundary_pair(InstanceSpec(64, 8, 16), rng_stream(53))
    assert _assert_direct_forms_match_chains(bp)


def test_no_krein_adjoint_in_gamma_sharp_t_plus_or_main_transform(
        monkeypatch):
    import sys
    import kreinrel
    bp = gen_unitary_boundary_pair(InstanceSpec(3, 2, 1), rng_stream(54))
    calls = []
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "kreinrel":
            continue
        for attr in ("krein_adjoint", "make_krein"):
            real = getattr(mod, attr, None)
            if callable(real):
                monkeypatch.setattr(
                    mod, attr,
                    lambda *a, _real=real, **k: calls.append(a) or _real(*a, **k))
    gamma_sharp(bp.gamma, bp.H, bp.m, bp.tol)
    bp.gamma_sharp
    bp.t_plus()
    inverse_main_transform(main_transform(bp), bp.H, bp.m)
    assert calls == []
    kreinrel.relations.krein_adjoint(bp.underlying_T(), bp.H, bp.H, bp.tol)
    kreinrel.spaces.make_krein(bp.H.J)
    assert len(calls) == 2
