"""Acceptance gate: the full property battery at desk scale.

Dimensions n <= 4, m <= 3, subspace equality measured by maximum
principal angle below 1e-8.  Each suite is seeded and deterministic.
"""

import math

import numpy as np
import pytest

from _oracles import inverse_main_transform, weyl_symmetry_check
from kreinrel.boundary import (
    BoundaryPair,
    main_transform,
    main_transform_space,
    weyl,
)
from kreinrel.checks import check_theorem
from kreinrel.cli import main as cli_main
from kreinrel.generators import (
    InstanceSpec,
    gen_obt,
    gen_unitary_boundary_pair,
    random_krein,
    random_relation,
    rng_stream,
)
from kreinrel.nevanlinna import (
    KernelSampleGrid,
    gen_nevanlinna_probe,
    neg_squares_estimate,
)
from kreinrel.relations import (
    LinearRelation,
    cw_sum,
    in_resolvent,
    is_selfadjoint,
    krein_adjoint,
    rel_equal,
    rel_from_operator,
    sigma_p_contains,
    point_spectrum,
)
from kreinrel.spaces import make_krein
from kreinrel.subspaces import (
    DEFAULT_TOL,
    Subspace,
    column_space,
    intersect,
    subspace_equal,
    subspace_sum,
)
from kreinrel.transforms import scale_eps, scaled_obt

TOL = DEFAULT_TOL
assert TOL.angle_tol <= 1e-8


def _run_check(tid, trials, seed=7):
    rep = check_theorem(tid, trials=trials, dims=(1, 4), seed=seed, tol=TOL)
    assert rep.failures == 0, (tid, rep)
    assert rep.worst_residual <= 1e-8, (tid, rep)
    return rep


# 1. adjoint involution and the componentwise-sum adjoint identity

def test_adjoint_involution_and_cwsum_adjoint_500_trials():
    for trial in range(500):
        rng = rng_stream(100, trial)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        kf = (0, 1, n)[trial % 3]
        kt = (0, 1, m)[(trial + 1) % 3]
        Kf = random_krein(rng, n, min(kf, n))
        Kt = random_krein(rng, m, min(kt, m))
        V = random_relation(rng, n, m)
        W = random_relation(rng, n, m)
        # involution: V++ = V
        Vpp = krein_adjoint(krein_adjoint(V, Kf, Kt, TOL), Kt, Kf, TOL)
        assert rel_equal(V, Vpp, TOL)
        # (V + W)+ = V+ cap W+ (componentwise sum on the left)
        lhs = krein_adjoint(cw_sum(V, W, TOL), Kf, Kt, TOL)
        vp = krein_adjoint(V, Kf, Kt, TOL)
        wp = krein_adjoint(W, Kf, Kt, TOL)
        rhs = LinearRelation(m, n, intersect(vp.graph, wp.graph, TOL))
        assert rel_equal(lhs, rhs, TOL)


# 2. composition/adjoint lemmas on constructed instances

@pytest.mark.parametrize("tid", ["derk_lemma", "pop_lemma",
                                 "behrndt20", "projp1"])
def test_composition_lemmas_300_trials(tid):
    _run_check(tid, trials=300)


# 3. Shmul'yan round trip and the adjoint-transform identity

def test_shmulyan_round_trip_200_trials():
    # with ker V inside T inside dom V the inverse image recovers T
    done = 0
    trial = 0
    while done < 200:
        rng = rng_stream(101, trial)
        trial += 1
        p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        V = random_relation(rng, p, q)
        dom = V.dom(TOL)
        ker = V.ker(TOL)
        if dom.dim == 0:
            continue
        k = int(rng.integers(0, dom.dim + 1))
        C = rng.standard_normal((dom.dim, k)) + 1j * rng.standard_normal(
            (dom.dim, k))
        T = subspace_sum(ker, column_space(dom.basis @ C, TOL), TOL)
        image = V.restrict_domain(T, TOL).ran(TOL)
        back = V.inverse().restrict_domain(image, TOL).ran(TOL)
        assert subspace_equal(back, T, TOL)
        done += 1
    assert trial <= 400  # the construction rarely degenerates


def test_adjoint_of_shmulyan_transform_200_trials():
    _run_check("torth", trials=200)


# 4. Weyl symmetry across pairs and grid points

def test_weyl_symmetry_200_pairs():
    zs = (2j, -2j, 1 + 1j, 1 - 1j, 0.5 + 1.5j)
    for trial in range(200):
        rng = rng_stream(102, trial)
        n = 1 + trial % 4
        m = 1 + trial % 3
        bp = gen_unitary_boundary_pair(
            InstanceSpec(n, m, trial % (n + 1)), rng, TOL)
        for z in zs:
            assert weyl_symmetry_check(bp, z)


# 6. main transform: self-adjointness, corner identity, spectra and
# the empty-resolvent fixture

def test_main_transform_suite_100_trials():
    _run_check("mrTG_selfadjoint", trials=100)


def test_point_spectrum_containment_100_trials():
    for trial in range(100):
        rng = rng_stream(103, trial)
        n = 1 + trial % 4
        bp = gen_unitary_boundary_pair(
            InstanceSpec(n, 1 + trial % 3, trial % (n + 1)), rng, TOL)
        T = bp.underlying_T()
        mt = main_transform(bp)
        spec = point_spectrum(T, TOL)
        if spec.all_flag:
            continue
        for lam, _d in spec.eigenvalues:
            assert sigma_p_contains(mt, lam)


def test_empty_resolvent_fixture_on_100_point_grid():
    g = np.zeros((4, 2))
    g[0, 0] = g[1, 0] = g[2, 1] = g[3, 1] = 1 / np.sqrt(2)
    A = LinearRelation(2, 2, Subspace(4, g))
    H = make_krein(np.array([[-1.0]]))
    bp = inverse_main_transform(A, H, 1)
    assert bp.classification == "unitary"
    mt = main_transform(bp)
    assert is_selfadjoint(mt, main_transform_space(bp), TOL)
    grid = [complex(a, b)
            for a in np.linspace(-3.0, 3.0, 10)
            for b in np.linspace(-3.0, 3.0, 10)]
    assert len(grid) == 100
    assert not any(in_resolvent(mt, z, TOL) for z in grid)


# 7. resolvent membership pipeline with eps = |z| / 2

@pytest.mark.parametrize("tid", ["lemma_r", "lemma_r2", "resTG_pipeline"])
def test_resolvent_pipeline_100_trials(tid):
    _run_check(tid, trials=100)


# 8. right scheme: M'(z) = M(z) + Delta(z), including the U_J family

def test_right_scheme_delta_law_100_trials():
    _run_check("IUBP3", trials=100)


def test_u_j_family_law_100_trials():
    _run_check("fTex", trials=100)


# 9. vanishing-correction criterion and the scaling law

def test_delta_vanishing_criterion_20_fixtures_per_direction():
    from kreinrel.checks import _check_delta0, _check_delta0b
    for func in (_check_delta0, _check_delta0b):
        # each trial engineers one aligned and one misaligned fixture
        for trial in range(25):
            ok, res = func(rng_stream(104, trial), (1, 4), TOL)
            assert ok and res <= 1e-8


def test_scaled_pair_law_on_50_pairs():
    zs = (2j, 1 + 1j)
    for trial in range(50):
        rng = rng_stream(105, trial)
        n = 2 + trial % 3
        bp = gen_obt(InstanceSpec(n, 1 + trial % 2, trial % 2), rng, TOL)
        for kappa in (2.0, math.sqrt(3.0), -2.0):
            bp2 = scaled_obt(bp, kappa)
            for z in zs:
                M = weyl(bp, z).M.to_matrix(TOL)
                M2 = weyl(bp2, z).M.to_matrix(TOL)
                assert np.linalg.norm(M2 - kappa ** 2 * M) <= 1e-8 * max(
                    1.0, np.linalg.norm(M))


# 10. left scheme: fractional law, round trip, symmetry of the new T,
# and the quasi-boundary-triple map

@pytest.mark.parametrize("tid", ["IBP0", "IUBP2xxcor", "GunTp",
                                 "VVV", "propVVV", "thmVVV", "QBTex"])
def test_left_scheme_suite_100_trials(tid):
    _run_check(tid, trials=100)


# 11. negative squares never exceed the state-space negative index

GRID = KernelSampleGrid(points=(2j, -2j, 1 + 1j, 1 - 1j))


def test_definite_pairs_report_zero_negative_squares():
    for trial in range(20):
        rng = rng_stream(106, trial)
        bp = gen_obt(InstanceSpec(2 + trial % 3, 1 + trial % 2, 0), rng, TOL)
        out = gen_nevanlinna_probe(bp, 0.5, GRID)
        assert out["condition1"] is True
        assert out["kappa_bound"] == 0
        if out["kappa_prime"] is not None:
            assert out["kappa_prime"] == 0


def test_one_negative_square_fixtures_stay_bounded():
    fixtures = [BoundaryPair(make_krein(np.array([[-1.0]])), 1,
                             rel_from_operator(np.diag([-1.0, 1.0])))]
    for trial in range(10):
        rng = rng_stream(107, trial)
        fixtures.append(
            gen_obt(InstanceSpec(2 + trial % 3, 1 + trial % 2, 1), rng, TOL))
    for bp in fixtures:
        out = gen_nevanlinna_probe(bp, 0.5, GRID)
        assert out["condition1"] is True
        assert out["kappa_bound"] == 1
        if out["kappa_prime"] is not None:
            # any excess over the negative index fails the build
            assert out["kappa_prime"] <= 1


def test_negative_squares_bound_across_signatures():
    _run_check("pstan2_probe", trials=100)
    for trial in range(30):
        rng = rng_stream(108, trial)
        n = 2 + trial % 3
        bp = scale_eps(
            gen_obt(InstanceSpec(n, 1 + trial % 2, trial % (n + 1)),
                    rng, TOL), 0.5)
        mt = main_transform(bp)
        usable = tuple(z for z in GRID.points
                       if in_resolvent(mt, np.conj(z), TOL))
        usable = tuple(z for z in usable if np.conj(z) in usable)
        if not usable:
            continue
        rep = neg_squares_estimate(
            bp, [KernelSampleGrid(points=usable)])
        assert rep.kappa_prime <= rep.kappa_bound


# 12. determinism of the check front end

def test_check_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["check", "all", "--seed", "7", "--trials", "3", "--dims", "1:4"]
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
