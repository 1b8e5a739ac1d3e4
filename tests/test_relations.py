"""Linear relations: parts, calculus, adjoints and point spectrum."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import random_symmetric_relation, resolvent_matrix, zero_relation
from kreinrel.errors import DimensionMismatchError, PreconditionError
from kreinrel.generators import (
    InstanceSpec,
    gen_unitary_boundary_pair,
    hypermax_neutral,
    random_krein,
    random_relation,
    random_unitary,
    rng_stream,
)
from kreinrel.relations import (
    LinearRelation,
    SpectrumReport,
    compose,
    cw_sum,
    full_relation,
    hilbert_adjoint,
    identity_relation,
    in_resolvent,
    is_selfadjoint,
    is_symmetric,
    krein_adjoint,
    op_sum,
    point_spectrum,
    rel_contains,
    rel_equal,
    rel_from_operator,
    sigma_p_contains,
)
from kreinrel.spaces import hilbert_space, make_krein
from kreinrel.subspaces import (
    DEFAULT_TOL,
    Subspace,
    column_space,
    contains as sub_contains,
    intersect,
    null_space,
    subspace_equal,
)

TOL = DEFAULT_TOL


# ----------------------------------------------------------- structure

def test_parts_of_an_operator():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    T = rel_from_operator(A)
    assert T.is_operator(TOL)
    assert T.dom(TOL).dim == 2 and T.ran(TOL).dim == 2
    assert T.ker(TOL).dim == 0 and T.mul(TOL).dim == 0
    assert np.allclose(T.to_matrix(TOL), A)


def test_parts_of_a_pure_mul_relation():
    # graph {0} x C: dom and ker must come out exactly zero even
    # though the stored basis carries floating point noise
    g = Subspace(2, np.array([[0.0], [1.0]]))
    T = LinearRelation(1, 1, g)
    assert T.dom(TOL).dim == 0
    assert T.mul(TOL).dim == 1
    assert not T.is_operator(TOL)


def test_inverse_swaps_parts():
    rng = rng_stream(11)
    T = random_relation(rng, 3, 2)
    Ti = T.inverse()
    assert subspace_equal(T.dom(TOL), Ti.ran(TOL), TOL)
    assert subspace_equal(T.ker(TOL), Ti.mul(TOL), TOL)


def test_apply_and_resolvent_matrix():
    A = np.array([[2.0, 0.0], [0.0, 3.0]])
    T = rel_from_operator(A)
    R = resolvent_matrix(T, 1.0)
    assert np.allclose(R, np.diag([1.0, 0.5]))
    with pytest.raises(PreconditionError):
        resolvent_matrix(T, 2.0)  # eigenvalue: not in the resolvent set


def test_is_operator_matches_mul_oracle():
    seen = set()
    for n in range(1, 5):
        for m in range(1, 5):
            for d in range(n + m + 1):
                T = random_relation(rng_stream(12, 100 * n + 10 * m + d),
                                    n, m, graph_dim=d)
                want = T.mul(TOL).dim == 0
                assert T.is_operator(TOL) == want
                seen.add(want)
    # the identity triple on the first boundary coordinate plus the
    # purely multivalued {(0, 0, 0, t)}: mul Gamma = span(0, 1)
    g = np.zeros((6, 3))
    g[0, 0] = g[2, 0] = g[1, 1] = g[4, 1] = 1 / np.sqrt(2)
    g[5, 2] = 1.0
    gamma = LinearRelation(2, 4, Subspace(6, g))
    assert gamma.mul(TOL).dim == 1 and not gamma.is_operator(TOL)
    assert seen == {True, False}


def test_zero_and_full_relations():
    Z = zero_relation(2)   # the trivial relation {(0, 0)}
    F = full_relation(2)
    assert Z.graph.dim == 0 and Z.dom(TOL).dim == 0 and Z.ran(TOL).dim == 0
    assert F.graph.dim == 4
    assert rel_contains(F, Z, TOL)


# ------------------------------------------------------------ calculus

def test_compose_matches_matrix_product():
    rng = rng_stream(5)
    A = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    B = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    lhs = compose(rel_from_operator(A), rel_from_operator(B))
    assert rel_equal(lhs, rel_from_operator(A @ B), TOL)


def test_compose_dimension_check():
    with pytest.raises(DimensionMismatchError):
        compose(rel_from_operator(np.eye(2)), rel_from_operator(np.eye(3)))


def test_op_sum_matches_matrix_sum():
    rng = rng_stream(6)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3))
    S = op_sum(rel_from_operator(A), rel_from_operator(B), TOL)
    assert rel_equal(S, rel_from_operator(A + B), TOL)


def test_shmulyan_image_of_operator_graph():
    # for an operator V and a subspace S of dom V, V(S) restricted to
    # graph arguments reproduces the matrix image
    A = np.array([[1.0, 0.0], [1.0, 1.0]])
    V = rel_from_operator(A)
    S = Subspace(2, np.array([[1.0], [0.0]]))
    img = V.restrict_domain(S, TOL).ran(TOL)
    assert img.dim == 1
    assert sub_contains(
        img, Subspace(2, np.array([[1.0], [1.0]]) / np.sqrt(2)), TOL)


# ------------------------------------------------------------ adjoints

def test_hilbert_adjoint_matches_conjugate_transpose():
    rng = rng_stream(8)
    A = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert rel_equal(hilbert_adjoint(rel_from_operator(A), TOL),
                     rel_from_operator(A.conj().T), TOL)


def test_krein_adjoint_involution_random():
    rng = rng_stream(9)
    for _ in range(20):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        Kf = random_krein(rng, n, int(rng.integers(0, n + 1)))
        Kt = random_krein(rng, m, int(rng.integers(0, m + 1)))
        T = random_relation(rng, n, m)
        Tpp = krein_adjoint(krein_adjoint(T, Kf, Kt, TOL), Kt, Kf, TOL)
        assert rel_equal(T, Tpp, TOL)


def test_adjoint_of_componentwise_sum():
    # (V + W)+ = V+ cap W+ where + on the left is the componentwise sum
    rng = rng_stream(10)
    for _ in range(20):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        Kf = random_krein(rng, n, int(rng.integers(0, n + 1)))
        Kt = random_krein(rng, m, int(rng.integers(0, m + 1)))
        V = random_relation(rng, n, m)
        W = random_relation(rng, n, m)
        lhs = krein_adjoint(cw_sum(V, W, TOL), Kf, Kt, TOL)
        vp = krein_adjoint(V, Kf, Kt, TOL)
        wp = krein_adjoint(W, Kf, Kt, TOL)
        inter = LinearRelation(m, n, intersect(vp.graph, wp.graph, TOL))
        assert rel_equal(lhs, inter, TOL)


def test_adjoint_product_containment():
    # X+ R+ is contained in (RX)+ unconditionally; equality needs
    # ran X inside dom R (regression for a rank-cutoff bug that
    # produced spurious directions violating even the containment)
    rng = rng_stream(7, 3)
    p, n, q = 2, 4, 2
    K0 = random_krein(rng, p, 1)
    K1 = random_krein(rng, n, 2)
    K2 = random_krein(rng, q, 0)
    for _ in range(10):
        R = random_relation(rng, n, q)
        X = random_relation(rng, p, n)
        lhs = krein_adjoint(compose(R, X, TOL), K0, K2, TOL)
        rhs = compose(krein_adjoint(X, K0, K1, TOL),
                      krein_adjoint(R, K1, K2, TOL), TOL)
        assert rel_contains(lhs, rhs, TOL)


def test_symmetry_and_selfadjointness():
    K = make_krein(np.diag([1.0, -1.0]))
    # J-selfadjoint means A+ = J A* J = A
    A = np.array([[1.0, 2.0], [-2.0, 5.0]])
    T = rel_from_operator(A)
    assert is_symmetric(T, K, TOL)
    assert is_selfadjoint(T, K, TOL)
    B = np.array([[1.0, 2.0], [3.0, 5.0]])
    assert not is_symmetric(rel_from_operator(B), K, TOL)


# ------------------------------------------------------ point spectrum

def test_point_spectrum_of_a_matrix():
    A = np.diag([1.0, 2.0, 2.0])
    rep = point_spectrum(rel_from_operator(A), TOL)
    found = {}
    for z, d in rep.eigenvalues:
        for target in (1.0, 2.0):
            if abs(complex(z) - target) < 1e-8:
                found[target] = d
    assert found == {1.0: 1, 2.0: 2}
    assert not rep.all_flag


def test_point_spectrum_singular_pencil():
    # dom T = {0} with mul: the eigenvalue problem is degenerate and
    # every z is an eigenvalue of the relation T = C x C
    rep = point_spectrum(full_relation(1), TOL)
    assert rep.all_flag
    assert sigma_p_contains(full_relation(1), 0.123 + 4.5j)


def test_in_resolvent_and_classification():
    A = np.diag([1.0, 2.0])
    T = rel_from_operator(A)
    assert in_resolvent(T, 0.0, TOL)
    assert not in_resolvent(T, 1.0, TOL)


def test_pure_mul_relation_has_empty_point_spectrum():
    g = Subspace(2, np.array([[0.0], [1.0]]))
    T = LinearRelation(1, 1, g)
    rep = point_spectrum(T, TOL)
    assert rep.eigenvalues == ()
    assert not rep.all_flag
    assert in_resolvent(T, 0.5, TOL)


def _nullity(A, rtol):
    """dim null(A), counting singular values at or below
    rtol max(1, sigma_max) max(A.shape)."""
    if min(A.shape) == 0:
        return A.shape[1]
    s = np.linalg.svd(A, compute_uv=False)
    small = np.sum(s <= rtol * max(1.0, s[0]) * max(A.shape))
    return int(small + max(0, A.shape[1] - len(s)))


def _point_spectrum_oracle(T, tol=TOL):
    """point_spectrum without the eigenvector pre-filter: every finite
    candidate of the compressed pencil goes to the rank test."""
    import scipy.linalg
    from kreinrel.relations import _EIG_RTOL, _PROBE_POINTS
    n, k = T.from_dim, T.dim
    if k == 0:
        return SpectrumReport((), False)
    F, G = T.F, T.G
    singular = all(_nullity(G - z * F, tol.rank_rel * 1e3) > 0
                   for z in _PROBE_POINTS)
    if k > n or singular:
        return SpectrumReport((), True)
    if k == n:
        Fc, Gc = F, G
    else:
        rng = np.random.Generator(np.random.Philox(key=0x9E3779B97F4A7C15))
        U = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        U, _ = np.linalg.qr(U)
        Fc, Gc = U.conj().T @ F, U.conj().T @ G
    with np.errstate(all="ignore"):
        candidates = scipy.linalg.eigvals(Gc, Fc)
    found = []
    for z in (complex(z) for z in candidates if np.isfinite(z)):
        if any(abs(z - w) <= 1e-8 * (1.0 + abs(w)) for w, _ in found):
            continue
        d = _nullity(G - z * F, _EIG_RTOL)
        if d > 0:
            found.append((z, d))
    found.sort(key=lambda p: (round(p[0].real, 10), round(p[0].imag, 10)))
    return SpectrumReport(tuple(found), False)


def _jordan(size, lam):
    return lam * np.eye(size) + np.eye(size, k=1)


def _planted(rng, n, lam):
    """A relation with eigenvalue lam of geometric multiplicity 2: the
    graph of S diag(lam, lam, ...) S^-1 restricted to a subspace that
    holds both eigenvectors (so dim T < n and the pencil is compressed)."""
    S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    d = np.concatenate([[lam, lam], rng.normal(size=n - 2)
                        + 1j * rng.normal(size=n - 2)])
    A = S @ np.diag(d) @ np.linalg.inv(S)
    keep = np.hstack([S[:, :2], rng.normal(size=(n, 1))])
    return rel_from_operator(A).restrict_domain(column_space(keep, TOL), TOL)


def _spectrum_cases():
    lam = 0.4 + 0.9j
    for size in (2, 3, 4):
        yield rel_from_operator(_jordan(size, lam))
    yield rel_from_operator([[2.0, 1.0], [0.0, 2.0]])
    rng = rng_stream(60)
    for lam in (0.7, 0.3 + 1.1j):
        yield rel_from_operator(np.diag([lam, lam, -1.0, 2.0 + 1j]))
        yield _planted(rng, 6, lam)
    # singular pencil: G - zF = [[-z, 1], [0, 0]] for every z
    yield LinearRelation(2, 2, Subspace(4, np.eye(4)[:, [0, 2]]))
    for n in (1, 2, 3, 4, 64):
        for s in range(2 if n < 64 else 1):
            bp = gen_unitary_boundary_pair(
                InstanceSpec(n, max(1, n // 8), n // 2), rng_stream(61, s))
            yield bp.underlying_T()


def test_point_spectrum_prefilter_matches_unfiltered_oracle():
    seen = set()
    for T in _spectrum_cases():
        rep = point_spectrum(T, TOL)
        assert rep == _point_spectrum_oracle(T)
        seen.add((rep.all_flag, max((d for _, d in rep.eigenvalues),
                                    default=0)))
    assert {(True, 0), (False, 1), (False, 2)} <= seen


def test_rank_verdicts_match_the_nullity_oracle():
    # sigma_p_contains, in_resolvent and to_matrix count rank with
    # subspaces._rank; the singular-value count they replaced agrees
    # at eigenvalues (where G - zF can be rounding noise) and off them
    from kreinrel.relations import _EIG_RTOL
    for T in _spectrum_cases():
        eigs = [z for z, _ in point_spectrum(T, TOL).eigenvalues]
        for z in eigs + [0.0, 0.3 + 0.2j, -1.1 - 0.5j]:
            X = T.G - z * T.F
            assert sigma_p_contains(T, z) == (_nullity(X, _EIG_RTOL) > 0)
            assert in_resolvent(T, z, TOL) == (
                T.dim == T.from_dim and _nullity(X, TOL.rank_rel * 1e3) == 0)
        if T.dim == T.from_dim:
            onto = _nullity(T.F, TOL.rank_rel) == 0
            if onto:
                T.to_matrix(TOL)
            else:
                with pytest.raises(PreconditionError):
                    T.to_matrix(TOL)


def test_point_spectrum_keeps_the_known_jordan_splitting():
    # the 2x2 Jordan block still splits into two simple eigenvalues about
    # 1e-8 apart (a known defect the pre-filter must not change)
    rep = point_spectrum(rel_from_operator(_jordan(2, 0.4 + 0.9j)), TOL)
    assert len(rep.eigenvalues) == 2
    assert all(d == 1 for _, d in rep.eigenvalues)


def test_rank_tests_hold_where_g_minus_zf_is_rounding_noise():
    # at an exact eigenvalue of these relations G - zF is ~1e-16 in every
    # direction; a cutoff relative to its own sigma_max read it as full
    # rank, so the eigenvalue was missed
    lam = 0.4 + 0.7j
    T = rel_from_operator(lam * np.eye(2))
    assert not in_resolvent(T, lam, TOL)
    assert sigma_p_contains(T, lam)
    e = np.array([1.0, 1.0]) / np.sqrt(2)
    line = LinearRelation(2, 2,
                          column_space(np.concatenate([e, lam * e]), TOL))
    rep = point_spectrum(line, TOL)
    assert not rep.all_flag
    assert len(rep.eigenvalues) == 1
    z, d = rep.eigenvalues[0]
    assert d == 1 and abs(z - lam) < 1e-12


def _with_mul(rng, n, k):
    """The graph of a random A on a (k-1)-dimensional domain plus a
    one-dimensional multivalued part: Fc is singular, so the screen's
    guard fails and the QZ decides."""
    X = rng.normal(size=(n, k - 1)) + 1j * rng.normal(size=(n, k - 1))
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))
    return LinearRelation(n, n, column_space(np.vstack([
        np.hstack([X, np.zeros((n, 1))]), np.hstack([A @ X, g])]), TOL))


def _screen_cases():
    """Desk draws (T, T0 and T1 at n <= 4), the planted, Jordan and
    singular cases above, relations with mul T != {0}, and unitary
    pairs at n = 16 and 64."""
    for s in range(60):
        n = 1 + s % 4
        bp = gen_unitary_boundary_pair(
            InstanceSpec(n, 1 + s % n, s % (n + 1)), rng_stream(62, s))
        yield "desk", bp.underlying_T()
        yield "desk", bp.T0()
        yield "desk", bp.T1()
    for T in _spectrum_cases():
        yield "spectrum", T
    rng = rng_stream(63)
    for n, k in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 3), (4, 4)):
        yield "mul", _with_mul(rng, n, k)
    yield "mul", LinearRelation(1, 1, Subspace(2, np.array([[0.0], [1.0]])))
    for n in (16, 64):
        bp = gen_unitary_boundary_pair(InstanceSpec(n, n // 8, n // 4),
                                       rng_stream(64, n))
        for T in (bp.underlying_T(), bp.T0(), bp.T1()):
            yield "unitary", T


def test_point_spectrum_screen_matches_the_qz_route(monkeypatch):
    import kreinrel.relations as relations
    screen, eig = relations._screen_rejects, np.linalg.eig
    seen = []

    def recording_screen(*args):
        seen[-1]["rejected"] = screen(*args)
        return seen[-1]["rejected"]

    def recording_eig(*args):
        seen[-1]["eig"] = True
        return eig(*args)

    monkeypatch.setattr(np.linalg, "eig", recording_eig)
    for kind, T in _screen_cases():
        seen.append({"kind": kind, "rejected": None, "eig": False})
        monkeypatch.setattr(relations, "_screen_rejects", recording_screen)
        rep = point_spectrum(T, TOL)
        monkeypatch.setattr(relations, "_screen_rejects", lambda *a: False)
        assert rep == point_spectrum(T, TOL)
        seen[-1]["eigenvalues"] = len(rep.eigenvalues)
    # the screen decided some cases alone, passed others with surviving
    # candidates to the QZ, and never solved with a singular Fc
    assert any(r["rejected"] for r in seen)
    assert any(r["eig"] and not r["rejected"] and r["eigenvalues"]
               for r in seen)
    mul = [r for r in seen if r["kind"] == "mul"]
    assert mul and not any(r["eig"] for r in mul)
    assert all(r["rejected"] for r in seen
               if r["kind"] == "unitary" and r["eigenvalues"] == 0)


def test_exactly_singular_fc_fails_the_screen(monkeypatch):
    # mul T != {0} with an exact zero column in F: the inverse of Fc
    # raises, the screen answers False instead, and the QZ decides
    import kreinrel.relations as relations
    inv, raised = np.linalg.inv, []

    def recording_inv(*args):
        try:
            return inv(*args)
        except np.linalg.LinAlgError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    basis = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    basis /= np.linalg.norm(basis, axis=0)
    T = LinearRelation(2, 2, Subspace(4, basis))
    assert not relations._screen_rejects(T.F, T.G, T.F, T.G)
    assert len(raised) == 1
    # a subnormal pivot: the inverse is formed, but as NaNs, whose rcond
    # reads 0 and fails the guard before any eigenproblem
    Fc = np.diag([1.0, 1e-320]).astype(complex)
    with np.errstate(all="ignore"):
        assert not relations._screen_rejects(Fc, Fc, Fc, Fc)
    assert len(raised) == 1
    rep = point_spectrum(T, TOL)
    assert [(round(z.real, 12), d) for z, d in rep.eigenvalues] == [(1.0, 1)]
    assert not rep.all_flag


# ------------------------------------------------------ property tests

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_prop_graph_dim_bookkeeping(seed):
    rng = rng_stream(seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    T = random_relation(rng, n, m)
    assert T.dom(TOL).dim + T.mul(TOL).dim == T.graph.dim
    assert T.ran(TOL).dim + T.ker(TOL).dim == T.graph.dim


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_prop_adjoint_reverses_containment(seed):
    rng = rng_stream(seed)
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    Kf = random_krein(rng, n, int(rng.integers(0, n + 1)))
    Kt = random_krein(rng, m, int(rng.integers(0, m + 1)))
    T = random_relation(rng, n, m)
    k = int(rng.integers(0, T.graph.dim + 1))
    sub = LinearRelation(n, m, Subspace(n + m, T.graph.basis[:, :k]))
    Tp = krein_adjoint(T, Kf, Kt, TOL)
    Sp = krein_adjoint(sub, Kf, Kt, TOL)
    assert rel_contains(Sp, Tp, TOL)


# ------------------------- single null-space forms against the old chains

def _compose_chain(R, X, tol=TOL):
    """R X as the intersection of two stacked windows in C^{a+b+c}."""
    a, b, c = X.from_dim, X.to_dim, R.to_dim
    s1 = column_space(np.block([
        [X.F, np.zeros((a, c))],
        [X.G, np.zeros((b, c))],
        [np.zeros((c, X.dim)), np.eye(c)],
    ]), tol)
    s2 = column_space(np.block([
        [np.eye(a), np.zeros((a, R.dim))],
        [np.zeros((b, a)), R.F],
        [np.zeros((c, a)), R.G],
    ]), tol)
    inter = intersect(s1, s2, tol)
    keep = np.vstack([inter.basis[:a], inter.basis[a + b :]])
    return LinearRelation(a, c, column_space(keep, tol))


def _op_sum_chain(T, R, tol=TOL):
    """T + R from the triples (f, a, b), (f, a) in T and (f, b) in R."""
    n, m = T.from_dim, T.to_dim
    s1 = column_space(np.block([
        [T.F, np.zeros((n, m))],
        [T.G, np.zeros((m, m))],
        [np.zeros((m, T.dim)), np.eye(m)],
    ]), tol)
    s2 = column_space(np.block([
        [R.F, np.zeros((n, m))],
        [np.zeros((m, R.dim)), np.eye(m)],
        [R.G, np.zeros((m, m))],
    ]), tol)
    inter = intersect(s1, s2, tol)
    L = np.block([
        [np.eye(n), np.zeros((n, 2 * m))],
        [np.zeros((m, n)), np.eye(m), np.eye(m)],
    ])
    return LinearRelation(n, m, column_space(L @ inter.basis, tol))


def _restrict_domain_chain(T, S, tol=TOL):
    """T ∩ (S x C^m)."""
    m = T.to_dim
    window = column_space(np.block([
        [S.basis, np.zeros((S.ambient_dim, m))],
        [np.zeros((m, S.dim)), np.eye(m)],
    ]), tol)
    return LinearRelation(T.from_dim, m, intersect(T.graph, window, tol))


def _is_symmetric_chain(T, K, tol=TOL):
    return rel_contains(krein_adjoint(T, K, K, tol), T, tol)


def _is_selfadjoint_chain(T, K, tol=TOL):
    return rel_equal(krein_adjoint(T, K, K, tol), T, tol)


def _relation_kinds(rng, n, m):
    """Zero, full, purely multivalued, operator, non-operator and
    generic relations C^n -> C^m."""
    kinds = [zero_relation(n, m), full_relation(n, m)]
    mul_basis = np.vstack([np.zeros((n, m)), random_unitary(rng, m)])
    kinds.append(LinearRelation(n, m, Subspace(
        n + m, mul_basis[:, : int(rng.integers(0, m + 1))])))
    kinds.append(rel_from_operator(rng.normal(size=(m, n))))
    kinds.append(random_relation(rng, n, m, graph_dim=min(n + 1, n + m)))
    kinds.append(random_relation(rng, n, m))
    return kinds


_DIMS = range(0, 5)


def test_compose_matches_window_chain():
    rng = rng_stream(61)
    seen_mul = False
    for a in _DIMS:
        for b in _DIMS:
            for c in _DIMS:
                xs = _relation_kinds(rng, a, b)
                rs = _relation_kinds(rng, b, c)
                for i, X in enumerate(xs):
                    for R in (rs[i], rs[(i + 1) % len(rs)]):
                        new = compose(R, X, TOL)
                        assert rel_equal(new, _compose_chain(R, X), TOL)
                        seen_mul |= new.mul(TOL).dim > 0
    assert seen_mul


def test_op_sum_matches_window_chain():
    rng = rng_stream(62)
    for n in _DIMS:
        for m in _DIMS:
            ts = _relation_kinds(rng, n, m)
            rs = _relation_kinds(rng, n, m)
            for i, T in enumerate(ts):
                for R in (rs[i], rs[(i + 2) % len(rs)]):
                    assert rel_equal(op_sum(T, R, TOL), _op_sum_chain(T, R),
                                     TOL)


def test_restrict_domain_matches_window_chain():
    rng = rng_stream(63)
    for n in _DIMS:
        for m in _DIMS:
            subspaces = [Subspace(n, random_unitary(rng, n)[:, :k])
                         for k in range(n + 1)]
            for T in _relation_kinds(rng, n, m):
                for S in subspaces:
                    new = T.restrict_domain(S, TOL)
                    assert rel_equal(new, _restrict_domain_chain(T, S), TOL)
                    # the product of orthonormal bases needs no rebasing
                    assert sub_contains(S, new.dom(TOL), TOL)


def _ker_chain(T, tol=TOL):
    return column_space(T.F @ null_space(T.G, tol).basis, tol)


def _mul_chain(T, tol=TOL):
    return column_space(T.G @ null_space(T.F, tol).basis, tol)


def _graph_restriction_chain(T, z, tol=TOL):
    coeff = null_space(T.G - z * T.F, tol)
    return LinearRelation(T.from_dim, T.to_dim, column_space(
        T.graph.basis @ coeff.basis, tol))


def _assert_orthonormal(S):
    """A basis that skipped validation passes the public constructor."""
    Subspace(S.ambient_dim, S.basis)


def test_ker_and_mul_match_column_space_chains(monkeypatch):
    rng = rng_stream(66)
    calls = _count_svd(monkeypatch)
    seen = set()
    for n, m in [(n, m) for n in _DIMS for m in _DIMS] + [(64, 8), (64, 64)]:
        for T in _relation_kinds(rng, n, m):
            del calls[:]
            ker, mul = T.ker(TOL), T.mul(TOL)
            assert len(calls) <= 2  # one null space each
            for new, old in ((ker, _ker_chain(T)), (mul, _mul_chain(T))):
                assert subspace_equal(new, old, TOL)
                _assert_orthonormal(new)
            seen.add((ker.dim > 0, mul.dim > 0))
    assert seen == {(a, b) for a in (True, False) for b in (True, False)}


def test_graph_restriction_matches_column_space_chain():
    rng = rng_stream(67)
    seen = set()
    for n in [*_DIMS, 64]:
        lam = complex(rng.normal(), rng.normal())
        cases = _relation_kinds(rng, n, n)
        if n >= 3:
            cases.append(_planted(rng, n, lam))
        for T in cases:
            for z in (lam, lam.conjugate()):
                new = T.graph_restriction(z, TOL)
                assert rel_equal(new, _graph_restriction_chain(T, z), TOL)
                _assert_orthonormal(new.graph)
                seen.add(new.dim)
    assert {0, 1, 2} <= seen


def test_gram_symmetry_matches_krein_adjoint_chain():
    rng = rng_stream(64)
    seen = set()
    for n in _DIMS:
        for kappa in range(n + 1):
            K = random_krein(rng, n, kappa)
            selfadj = LinearRelation(
                n, n, hypermax_neutral(rng, K.hat))
            cases = _relation_kinds(rng, n, n) + [
                selfadj,
                random_symmetric_relation(rng, K),
                random_symmetric_relation(rng, K, graph_dim=max(0, n - 1)),
            ]
            for T in cases:
                sym, sa = is_symmetric(T, K, TOL), is_selfadjoint(T, K, TOL)
                assert sym == _is_symmetric_chain(T, K)
                assert sa == _is_selfadjoint_chain(T, K)
                seen.add((sym, sa))
    assert seen == {(True, True), (True, False), (False, False)}


def test_symmetry_rejects_a_mismatched_space():
    with pytest.raises(DimensionMismatchError):
        is_symmetric(identity_relation(2), hilbert_space(3), TOL)


def _count_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*a, **k):
        calls.append(a[0].shape)
        return svd(*a, **k)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_relation_operations_take_at_most_two_svds(monkeypatch):
    rng = rng_stream(65)
    X, R = random_relation(rng, 3, 4, 5), random_relation(rng, 4, 2, 4)
    T, T2 = random_relation(rng, 4, 3, 4), random_relation(rng, 4, 3, 5)
    S = Subspace(4, random_unitary(rng, 4)[:, :2])
    K = random_krein(rng, 3, 1)
    sym = random_symmetric_relation(rng, K, graph_dim=2)
    calls = _count_svd(monkeypatch)
    for op in (lambda: compose(R, X, TOL), lambda: op_sum(T, T2, TOL),
               lambda: T.restrict_domain(S, TOL)):
        del calls[:]
        op()
        assert len(calls) <= 2
    del calls[:]
    assert is_symmetric(sym, K, TOL) and not is_selfadjoint(sym, K, TOL)
    assert calls == []
