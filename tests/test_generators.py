"""Random instance generators: soundness, conditioning, determinism."""

import numpy as np
import pytest

from _oracles import (
    gen_isometric_boundary_pair,
    random_symmetric_relation,
    zero_relation,
)
from kreinrel.errors import GenerationError, PreconditionError, ValidationError
from kreinrel.generators import (
    InstanceSpec,
    conditioned_matrix,
    gen_boundary_unitary_relation,
    gen_obt,
    gen_qbt_map,
    gen_std_unitary,
    gen_unitary_boundary_pair,
    gen_unitary_pair_with_T,
    random_hermitian,
    random_krein,
    random_relation,
    random_unitary,
    rng_stream,
)
from kreinrel.relations import is_symmetric, krein_adjoint, rel_equal
from kreinrel.spaces import (
    hilbert_space,
    make_krein,
)
from kreinrel.subspaces import DEFAULT_TOL, column_space

TOL = DEFAULT_TOL


def test_rng_stream_substreams_are_independent_and_reproducible():
    a = rng_stream(42, 0).standard_normal(4)
    b = rng_stream(42, 0).standard_normal(4)
    c = rng_stream(42, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def test_rng_stream_equals_the_jumped_philox_stream():
    for seed in (0, 1, 7, 123, 2**40 + 5, 2**64 + 3, 2**127 + 11):
        for trial in (0, 1, 19, 99, 2**32, 2**63 + 1, 2**64 - 1, 2**64 + 7,
                      2**127 + 3, -1):
            got = rng_stream(seed, trial)
            jumped = np.random.Generator(
                np.random.Philox(key=seed).jumped(trial))
            assert _same_state(got.bit_generator.state,
                               jumped.bit_generator.state)
            assert np.array_equal(got.normal(size=20), jumped.normal(size=20))
            assert np.array_equal(got.integers(0, 2**62, 20),
                                  jumped.integers(0, 2**62, 20))


def test_conditioned_matrix_singular_values_clipped():
    rng = rng_stream(1)
    A = conditioned_matrix(rng, 4, 4)
    s = np.linalg.svd(A, compute_uv=False)
    assert s.min() >= 0.1 - 1e-12
    assert s.max() <= 10.0 + 1e-12


def test_random_unitary_is_unitary():
    rng = rng_stream(2)
    U = random_unitary(rng, 4)
    assert np.allclose(U.conj().T @ U, np.eye(4))


def test_random_hermitian_is_hermitian():
    rng = rng_stream(3)
    A = random_hermitian(rng, 3)
    assert np.allclose(A, A.conj().T)


def test_random_krein_has_requested_signature():
    rng = rng_stream(4)
    K = random_krein(rng, 4, 3)
    assert K.dim == 4 and K.neg_index == 3


def test_random_relation_graph_dim():
    rng = rng_stream(5)
    T = random_relation(rng, 3, 2, graph_dim=4)
    assert T.graph.dim == 4


def test_random_symmetric_relation_is_symmetric():
    for trial in range(10):
        rng = rng_stream(6, trial)
        K = random_krein(rng, 3, trial % 4)
        T = random_symmetric_relation(rng, K)
        assert is_symmetric(T, K, TOL)


def test_gen_unitary_pairs_classify_unitary():
    for trial in range(10):
        rng = rng_stream(7, trial)
        n, m = 1 + trial % 4, 1 + trial % 3
        bp = gen_unitary_boundary_pair(
            InstanceSpec(n, m, trial % (n + 1)), rng, TOL)
        assert bp.classification == "unitary"
        assert is_symmetric(bp.underlying_T(), bp.H, TOL)
        assert bp.H.neg_index == trial % (n + 1)


def test_gen_isometric_pair_is_at_least_isometric():
    for trial in range(10):
        rng = rng_stream(8, trial)
        bp = gen_isometric_boundary_pair(InstanceSpec(3, 2, 1), rng, tol=TOL)
        assert bp.classification in ("isometric", "unitary")


def test_gen_obt_all_flags():
    for trial in range(10):
        rng = rng_stream(9, trial)
        bp = gen_obt(InstanceSpec(2 + trial % 3, 1 + trial % 2, 0), rng, TOL)
        assert bp.is_obt()
        # Gamma a surjective operator, T0 self-adjoint, ran Gamma_0 full
        n, m = bp.n, bp.m
        T0 = bp.T0()
        assert bp.gamma.mul(TOL).dim == 0
        assert bp.gamma.ran(TOL).dim == 2 * m
        assert rel_equal(T0, krein_adjoint(T0, bp.H, bp.H, TOL), TOL)
        l_rows = bp.gamma.graph.basis[2 * n : 2 * n + m]
        assert column_space(l_rows, TOL).dim == m


def test_gen_obt_fully_negative_signature():
    # valid pairs still exist and are found when J = -I
    for trial in range(5):
        rng = rng_stream(10, trial)
        n = 2 + trial % 2
        bp = gen_obt(InstanceSpec(n, 1, n), rng, TOL)
        assert bp.is_obt()
        assert bp.H.neg_index == n


def test_gen_unitary_pair_with_prescribed_t():
    # ker Gamma has dimension at least n - m, so only relations of at
    # least that dimension are realizable
    n, m = 3, 2
    for trial in range(12):
        rng = rng_stream(11, trial)
        K = random_krein(rng, n, trial % (n + 1))
        T = random_symmetric_relation(rng, K)
        if T.graph.dim < n - m:
            continue
        try:
            bp = gen_unitary_pair_with_T(T, K, m, rng, TOL)
        except GenerationError:
            # infeasible draws below the kernel bound are reported
            assert T.graph.dim < n - m + 1
            continue
        assert bp.classification == "unitary"
        assert rel_equal(bp.underlying_T(), T, TOL)


def test_gen_unitary_pair_with_t_reports_infeasible_dims():
    # the trivial T cannot be ker Gamma when n > m
    rng = rng_stream(15)
    K = random_krein(rng, 3, 1)
    with pytest.raises(PreconditionError):
        gen_unitary_pair_with_T(zero_relation(3), K, 1, rng, TOL)


def test_gen_unitary_pair_with_t_realizes_exactly_the_feasible_dims(
        monkeypatch):
    # a unitary Gamma with ker Gamma = T has dim mul Gamma = m + dim T - n:
    # dim T + m < n raises before any draw, every other T is realized
    import kreinrel.generators
    draws = []
    unitary = kreinrel.generators.random_unitary

    def counting_unitary(*a):
        draws.append(a)
        return unitary(*a)

    monkeypatch.setattr(kreinrel.generators, "random_unitary",
                        counting_unitary)
    raised = realized = 0
    for trial in range(60):
        rng = rng_stream(16, trial)
        n, m = 2 + trial % 4, 1 + (trial // 4) % 3
        K = random_krein(rng, n, trial % (n + 1))
        T = random_symmetric_relation(rng, K)
        draws.clear()
        if T.graph.dim + m < n:
            with pytest.raises(PreconditionError):
                gen_unitary_pair_with_T(T, K, m, rng, TOL)
            assert draws == []
            raised += 1
        else:
            bp = gen_unitary_pair_with_T(T, K, m, rng, TOL)
            assert bp.classification == "unitary"
            assert rel_equal(bp.underlying_T(), T, TOL)
            realized += 1
    assert (raised, realized) == (19, 41)


def test_gen_boundary_unitary_relation_is_unitary():
    for trial in range(8):
        rng = rng_stream(12, trial)
        m, m2 = 1 + trial % 3, 1 + (trial + 1) % 3
        V = gen_boundary_unitary_relation(rng, m, m2)
        Vp = krein_adjoint(V, make_krein(hilbert_space(m).hat),
                           make_krein(hilbert_space(m2).hat), TOL)
        assert rel_equal(V, Vp.inverse(), TOL)


def test_gen_std_unitary_blocks_validate():
    rng = rng_stream(13)
    K = random_krein(rng, 2, 1)
    V = gen_std_unitary(rng, K, K)
    M = V.block_matrix()
    hat = K.hat
    assert np.linalg.norm(M.conj().T @ hat @ M - hat) < 1e-8


def test_gen_std_unitary_propagates_errors_other_than_validation(monkeypatch):
    # only a rejected draw (ValidationError) is resampled; any other
    # error from make_std_unitary must surface, not become a
    # GenerationError that check_theorem would skip
    import kreinrel.generators as generators

    def broken(*a, **k):
        raise RuntimeError("broken make_std_unitary")

    monkeypatch.setattr(generators, "make_std_unitary", broken)
    K = random_krein(rng_stream(15), 2, 1)
    with pytest.raises(RuntimeError, match="broken make_std_unitary"):
        gen_std_unitary(rng_stream(15), K, K)


def test_gen_std_unitary_resamples_rejected_draws(monkeypatch):
    import kreinrel.generators as generators
    real = generators.make_std_unitary
    calls = []

    def reject_first(*a, **k):
        calls.append(a)
        if len(calls) == 1:
            raise ValidationError("rejected draw")
        return real(*a, **k)

    monkeypatch.setattr(generators, "make_std_unitary", reject_first)
    K = random_krein(rng_stream(16), 2, 1)
    gen_std_unitary(rng_stream(16), K, K)
    assert len(calls) == 2


def test_gen_qbt_map_shapes():
    rng = rng_stream(14)
    q = gen_qbt_map(rng, 3)
    assert q.m == 3
    assert np.allclose(q.E, q.E.conj().T)


def test_instance_spec_validation():
    with pytest.raises(PreconditionError):
        InstanceSpec(2, 1, kappa_minus=3)
    with pytest.raises(ValidationError, match="^n "):
        InstanceSpec(-2, 1)
    with pytest.raises(ValidationError, match="^m "):
        InstanceSpec(2, -1)


def test_generation_is_deterministic():
    bp1 = gen_obt(InstanceSpec(3, 2, 1), rng_stream(99), TOL)
    bp2 = gen_obt(InstanceSpec(3, 2, 1), rng_stream(99), TOL)
    assert np.array_equal(bp1.gamma.graph.basis, bp2.gamma.graph.basis)
    assert np.array_equal(bp1.H.J, bp2.H.J)
