"""Krein spaces, fundamental symmetries and matrix adjoints."""

import numpy as np
import pytest

from _oracles import indef_inner
from kreinrel.boundary import BoundaryPair
from kreinrel.errors import DimensionMismatchError, ValidationError
from kreinrel.relations import identity_relation, is_symmetric, rel_from_operator
from kreinrel.spaces import (
    hilbert_space,
    krein_adjoint_matrix,
    make_krein,
)
from kreinrel.subspaces import DEFAULT_TOL


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def test_make_krein_counts_negative_index():
    K = make_krein(np.diag([1.0, -1.0, -1.0]))
    assert K.dim == 3
    assert K.neg_index == 2


def test_hilbert_space_is_definite():
    K = hilbert_space(4)
    assert K.neg_index == 0
    assert np.allclose(K.J, np.eye(4))


def test_hilbert_space_is_one_shared_read_only_instance():
    K = hilbert_space(3)
    assert hilbert_space(3) is K
    assert K.hat is hilbert_space(3).hat
    with pytest.raises(ValueError):
        K.J[0, 0] = 2.0
    with pytest.raises(ValueError):
        K.hat[0, 0] = 2.0
    assert np.array_equal(hilbert_space(3).J, np.eye(3))


def test_make_krein_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        make_krein(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_make_krein_rejects_non_involutive():
    with pytest.raises(ValidationError):
        make_krein(np.diag([1.0, 2.0]))


def test_make_krein_accepts_rotated_symmetry():
    rng = _rng(3)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(A)
    J = q @ np.diag([1.0, -1.0, 1.0]) @ q.conj().T
    K = make_krein(J)
    assert K.neg_index == 1


def test_indef_inner_conventions():
    K = make_krein(np.diag([1.0, -1.0]))
    x = np.array([1.0, 2.0])
    y = np.array([1.0, 1.0])
    # [x, y] = <x, Jy>: linear in x, antilinear in y
    assert indef_inner(x, y, K) == pytest.approx(1.0 - 2.0)
    assert indef_inner(2j * x, y, K) == pytest.approx(2j * (-1.0))
    assert indef_inner(x, 2j * y, K) == pytest.approx(-2j * (-1.0))
    with pytest.raises(DimensionMismatchError):
        indef_inner(np.ones(3), y, K)


def test_hat_symmetry_structure():
    K = make_krein(np.diag([1.0, -1.0]))
    hat = K.hat
    assert hat.shape == (4, 4)
    assert np.allclose(hat, hat.conj().T)
    assert np.allclose(hat @ hat, np.eye(4))
    # off-diagonal blocks are -iJ and iJ
    assert np.allclose(hat[:2, 2:], -1j * K.J)
    assert np.allclose(hat[2:, :2], 1j * K.J)


def test_symmetry_accepted_by_make_krein_serves_every_user():
    # ||J^2 - I|| = 9e-9 passes make_krein; hat(J)^2 - I = diag(J^2 - I,
    # J^2 - I) must not be checked again at a stricter bound
    K = make_krein(np.diag([1.0 + 4.5e-9, -1.0]))
    assert K.neg_index == 1
    assert is_symmetric(identity_relation(2), K, DEFAULT_TOL)
    # (f, f') -> (f, Jf') is a unitary boundary relation
    u_j = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), K.J]])
    assert BoundaryPair(K, 2, rel_from_operator(u_j)).classification == "unitary"


def test_doubled_spaces_have_balanced_signature():
    K = make_krein(np.diag([1.0, -1.0, 1.0]))
    assert make_krein(K.hat).neg_index == 3
    assert make_krein(hilbert_space(2).hat).neg_index == 2


def test_krein_adjoint_matrix_pairing():
    rng = _rng(7)
    Kf = make_krein(np.diag([1.0, -1.0, 1.0]))
    Kt = make_krein(np.diag([-1.0, 1.0]))
    X = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    Xp = krein_adjoint_matrix(X, Kf, Kt)
    assert Xp.shape == (3, 2)
    for _ in range(5):
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert indef_inner(X @ f, h, Kt) == pytest.approx(
            indef_inner(f, Xp @ h, Kf))


def test_krein_adjoint_matrix_shape_check():
    Kf, Kt = hilbert_space(3), hilbert_space(2)
    with pytest.raises(DimensionMismatchError):
        krein_adjoint_matrix(np.eye(3), Kf, Kt)


def test_krein_space_equality_semantics():
    K1 = make_krein(np.diag([1.0, -1.0]))
    K2 = make_krein(np.diag([1.0, -1.0]))
    K3 = make_krein(np.diag([-1.0, 1.0]))
    assert K1 == K2
    assert K1 != K3
