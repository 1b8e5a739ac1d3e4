"""Subspace arithmetic: construction, rank, lattice operations and
principal angles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinrel.errors import DimensionMismatchError, ValidationError
from kreinrel.subspaces import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    column_space,
    contains,
    full_space,
    intersect,
    null_space,
    orth_complement,
    principal_angles,
    subspace_equal,
    subspace_sum,
    zero_subspace,
)

TOL = DEFAULT_TOL


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def _random_subspace(rng, n, k):
    A = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    q, _ = np.linalg.qr(A)
    return Subspace(n, q[:, :k])


# ---------------------------------------------------------------- basics

def test_zero_subspace_is_first_class():
    z = zero_subspace(3)
    assert z.dim == 0
    assert z.ambient_dim == 3
    assert subspace_equal(z, intersect(z, full_space(3), TOL), TOL)


def test_constructor_rejects_non_orthonormal():
    with pytest.raises(ValidationError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_constructor_rejects_wrong_ambient():
    with pytest.raises(DimensionMismatchError):
        Subspace(3, np.eye(2))


def test_constructor_rejects_nonfinite():
    with pytest.raises(ValidationError):
        Subspace(2, np.array([[np.nan], [0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
@pytest.mark.parametrize("op", [column_space, null_space])
def test_kernel_entry_points_reject_nonfinite(op, bad):
    # their outputs skip validation, so their inputs must not
    A = np.eye(3, 2, dtype=complex)
    A[1, 0] = bad
    with pytest.raises(ValidationError):
        op(A, TOL)


def test_tolerance_validation():
    with pytest.raises(ValidationError):
        Tolerance(rank_rel=0.0)
    with pytest.raises(ValidationError):
        Tolerance(angle_tol=2.0)


def test_column_space_rank_deficient():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert column_space(A, TOL).dim == 1


def test_column_space_drops_pure_noise():
    # a matrix that is numerically zero must not produce a normalized
    # noise direction (regression: relative rank cutoffs amplify noise)
    A = 1e-15 * np.ones((3, 2))
    assert column_space(A, TOL).dim == 0


def test_null_space_of_noise_matrix_is_full():
    A = 1e-15 * np.ones((2, 3))
    assert null_space(A, TOL).dim == 3


def test_null_space_complements_column_space():
    rng = _rng(0)
    A = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    assert null_space(A, TOL).dim + column_space(A.conj().T, TOL).dim == 6


# ------------------------------------------------------------- lattice

def test_intersect_and_sum_known_planes():
    e = np.eye(3, dtype=complex)
    U = Subspace(3, e[:, :2])          # span(e1, e2)
    V = Subspace(3, e[:, 1:])          # span(e2, e3)
    W = intersect(U, V, TOL)
    assert W.dim == 1
    assert contains(W, Subspace(3, e[:, 1:2]), TOL)
    assert subspace_sum(U, V, TOL).dim == 3


def test_orth_complement_involution():
    rng = _rng(1)
    U = _random_subspace(rng, 5, 2)
    assert subspace_equal(orth_complement(orth_complement(U, TOL), TOL), U,
                          TOL)


def test_principal_angles_orthogonal_planes():
    e = np.eye(4, dtype=complex)
    U = Subspace(4, e[:, :2])
    V = Subspace(4, e[:, 2:])
    ang = principal_angles(U, V)
    assert np.allclose(ang, np.pi / 2)


def test_principal_angles_resolve_tiny_rotations():
    # arccos of an inner product saturates near 1; angles this small
    # must still be measured accurately (sine-based branch)
    theta = 3e-8
    U = Subspace(2, np.array([[1.0], [0.0]]))
    V = Subspace(2, np.array([[np.cos(theta)], [np.sin(theta)]]))
    ang = principal_angles(U, V)
    assert abs(float(ang[0]) - theta) < 1e-10
    assert not subspace_equal(U, V, TOL)  # above the 1e-8 equality gate
    theta_ok = 3e-9
    W = Subspace(2, np.array([[np.cos(theta_ok)], [np.sin(theta_ok)]]))
    assert subspace_equal(U, W, TOL)      # below the gate


def test_contains_vs_equality():
    e = np.eye(3, dtype=complex)
    U = Subspace(3, e[:, :2])
    V = Subspace(3, e[:, :1])
    assert contains(U, V, TOL)
    assert not contains(V, U, TOL)
    assert not subspace_equal(U, V, TOL)


# ------------------------------------------------------ property tests

dims = st.integers(min_value=1, max_value=5)
seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=60, deadline=None)
@given(n=dims, seed=seeds)
def test_prop_complement_dims(n, seed):
    rng = _rng(seed)
    k = int(rng.integers(0, n + 1))
    U = _random_subspace(rng, n, k)
    C = orth_complement(U, TOL)
    assert U.dim + C.dim == n
    assert intersect(U, C, TOL).dim == 0
    assert subspace_sum(U, C, TOL).dim == n


@settings(max_examples=60, deadline=None)
@given(n=dims, seed=seeds)
def test_prop_modular_dimension_formula(n, seed):
    rng = _rng(seed)
    U = _random_subspace(rng, n, int(rng.integers(0, n + 1)))
    V = _random_subspace(rng, n, int(rng.integers(0, n + 1)))
    assert (subspace_sum(U, V, TOL).dim + intersect(U, V, TOL).dim
            == U.dim + V.dim)


@settings(max_examples=60, deadline=None)
@given(n=dims, seed=seeds)
def test_prop_projection_idempotent(n, seed):
    rng = _rng(seed)
    U = _random_subspace(rng, n, int(rng.integers(0, n + 1)))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    p = U.project(x)
    assert np.linalg.norm(U.project(p) - p) < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=dims, seed=seeds)
def test_prop_intersection_contained_in_both(n, seed):
    rng = _rng(seed)
    U = _random_subspace(rng, n, int(rng.integers(0, n + 1)))
    V = _random_subspace(rng, n, int(rng.integers(0, n + 1)))
    W = intersect(U, V, TOL)
    assert contains(U, W, TOL) and contains(V, W, TOL)
    S = subspace_sum(U, V, TOL)
    assert contains(S, U, TOL) and contains(S, V, TOL)
