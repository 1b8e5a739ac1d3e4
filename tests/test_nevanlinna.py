"""Sampled Nevanlinna diagnostics: kernel congruence, negative-squares
estimates and the three-condition probe."""

import numpy as np
import pytest

from _oracles import (
    inverse_main_transform,
    nev_kernel,
    resolvent_matrix,
    sigma_p_all_pair,
)
from kreinrel.boundary import BoundaryPair, main_transform, weyl
from kreinrel.errors import PreconditionError
from kreinrel.generators import (
    InstanceSpec,
    gen_obt,
    rng_stream,
)
from kreinrel.nevanlinna import (
    KernelSampleGrid,
    block_gram,
    count_negative,
    gen_nevanlinna_probe,
    neg_squares_estimate,
    weyl_symmetry_check,
)
from kreinrel.relations import LinearRelation, in_resolvent, rel_from_operator
from kreinrel.spaces import make_krein
from kreinrel.subspaces import DEFAULT_TOL, Subspace

TOL = DEFAULT_TOL
GRID = KernelSampleGrid(points=(2j, -2j, 1 + 1j, 1 - 1j))


def _neg_index_one_pair():
    """Gamma = diag(-1, 1) over H = (C, J = -1): unitary with
    M(z) = -z, one negative square."""
    return BoundaryPair(make_krein(np.array([[-1.0]])), 1,
                        rel_from_operator(np.diag([-1.0, 1.0])))


# ---------------------------------------------------------------- grids

def test_grid_rejects_real_points():
    with pytest.raises(PreconditionError):
        KernelSampleGrid(points=(1.0, 1j, -1j))


def test_grid_rejects_non_conjugate_closed():
    with pytest.raises(PreconditionError):
        KernelSampleGrid(points=(1j, 2j, -1j))


def test_grid_checksum_is_stable_and_discriminating():
    g1 = KernelSampleGrid(points=(1j, -1j))
    g2 = KernelSampleGrid(points=(1j, -1j))
    g3 = KernelSampleGrid(points=(2j, -2j))
    assert g1.checksum() == g2.checksum()
    assert g1.checksum() != g3.checksum()
    gv = KernelSampleGrid(points=(1j, -1j), vectors=([1.0],))
    assert gv.checksum() != g1.checksum()


# ----------------------------------------------------- kernel and Gram

def test_nev_kernel_rejects_real_points():
    bp = _scaled_identity()
    with pytest.raises(PreconditionError):
        nev_kernel(bp, 0.5, 1j)


def _scaled_identity():
    from kreinrel.boundary import identity_obt
    return identity_obt()


def test_nev_kernel_hermitian_pairing():
    # G(z, w)* = G(w, z)
    rng = rng_stream(41)
    bp = gen_obt(InstanceSpec(3, 2, 1), rng, TOL)
    z, w = 2j, 1 + 1j
    G1 = nev_kernel(bp, z, w)
    G2 = nev_kernel(bp, w, z)
    assert np.linalg.norm(G1.conj().T - G2) < 1e-10


def test_block_gram_is_hermitian():
    rng = rng_stream(42)
    bp = gen_obt(InstanceSpec(3, 2, 1), rng, TOL)
    G = block_gram(bp, GRID)
    assert G.shape == (4 * bp.m, 4 * bp.m)
    assert np.linalg.norm(G - G.conj().T) < 1e-10


def test_kernel_congruent_to_weyl_difference_quotient():
    # (M(z) - M(w)*) / (z - conj(w))
    #     = (M(z) + z) G(z, w) (M(conj(w)) + conj(w))
    from kreinrel.transforms import scale_eps
    worst = 0.0
    for trial in range(20):
        rng = rng_stream(43, trial)
        n, m = 2 + trial % 3, 1 + trial % 2
        bp0 = gen_obt(InstanceSpec(n, m, trial % (n + 1)), rng, TOL)
        z, w = 2j, 1.0 + 1.5j
        bp = scale_eps(bp0, min(abs(z), abs(w)) / 2)
        mt = main_transform(bp)
        if not (in_resolvent(mt, np.conj(z), TOL)
                and in_resolvent(mt, np.conj(w), TOL)):
            continue
        Mz = weyl(bp, z).M.to_matrix(TOL)
        Mw = weyl(bp, w).M.to_matrix(TOL)
        Mwc = weyl(bp, np.conj(w)).M.to_matrix(TOL)
        lhs = (Mz - Mw.conj().T) / (z - np.conj(w))
        G = nev_kernel(bp, z, w)
        rhs = (Mz + z * np.eye(m)) @ G @ (Mwc + np.conj(w) * np.eye(m))
        err = np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs))
        worst = max(worst, err)
    assert worst < 1e-8


def test_count_negative_on_known_matrices():
    assert count_negative(np.diag([1.0, -1.0, -2.0])) == 2
    assert count_negative(np.zeros((2, 2))) == 0
    assert count_negative(np.zeros((0, 0))) == 0


# ------------------------------------------------- negative squares

def test_identity_pair_has_zero_negative_squares():
    from kreinrel.boundary import identity_obt
    rep = neg_squares_estimate(identity_obt(), [GRID])
    assert rep.kappa_prime == 0
    assert rep.kappa_bound == 0
    assert rep.grids_used == 1


def test_one_negative_square_fixture_needs_scaling():
    # the raw pair's main transform is a singular pencil (every z is an
    # eigenvalue), so the probe demands rescaling first
    bp = _neg_index_one_pair()
    with pytest.raises(PreconditionError):
        neg_squares_estimate(bp, [GRID])
    from kreinrel.transforms import scale_eps
    rep = neg_squares_estimate(scale_eps(bp, 0.5), [GRID])
    assert rep.kappa_prime == 1
    assert rep.kappa_bound == 1


def test_neg_squares_rejects_non_unitary_pair():
    from kreinrel.boundary import identity_obt
    from kreinrel.relations import LinearRelation
    bp = identity_obt()
    half = LinearRelation(2, 2, Subspace(4, bp.gamma.graph.basis[:, :1]))
    iso = BoundaryPair(bp.H, 1, half)
    with pytest.raises(PreconditionError):
        neg_squares_estimate(iso, [GRID])


def test_kappa_prime_bounded_by_neg_index_on_random_pairs():
    from kreinrel.transforms import scale_eps
    checked = 0
    for trial in range(20):
        rng = rng_stream(44, trial)
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
        checked += 1
    assert checked >= 10


# ------------------------------------------------------ symmetry check

def test_weyl_symmetry_on_random_pairs():
    for trial in range(10):
        rng = rng_stream(45, trial)
        bp = gen_obt(InstanceSpec(3, 2, trial % 4), rng, TOL)
        assert weyl_symmetry_check(bp, 0.7 + 1.3j)
    with pytest.raises(PreconditionError):
        weyl_symmetry_check(bp, 0.5)


def test_weyl_symmetry_check_builds_the_sharp_pair_once(monkeypatch):
    bp = gen_obt(InstanceSpec(3, 2, 1), rng_stream(45, 1), TOL)
    built, init = [], BoundaryPair.__init__

    def counting(self, *a, **k):
        built.append(a)
        init(self, *a, **k)

    monkeypatch.setattr(BoundaryPair, "__init__", counting)
    for z in GRID.points:
        assert weyl_symmetry_check(bp, z)
    assert len(built) == 1
    assert bp._sharp_pair.gamma is bp.gamma_sharp


# -------------------------------------------------------- full probe

def test_probe_reports_all_three_conditions():
    from kreinrel.boundary import identity_obt
    out = gen_nevanlinna_probe(identity_obt(), 0.5, GRID)
    assert out["condition1"] is True
    assert out["condition2"] is True
    assert out["condition3"] is True
    assert out["kappa_prime"] == 0
    assert out["kappa_bound"] == 0
    assert out["grid_checksum"] == GRID.checksum()
    assert out["eps"] == 0.5


def test_probe_on_one_negative_square_fixture():
    out = gen_nevanlinna_probe(_neg_index_one_pair(), 0.5, GRID)
    assert out["condition1"] is True
    assert out["condition3"] is True
    assert out["kappa_prime"] == 1
    assert out["kappa_bound"] == 1


def test_probe_computes_the_point_spectrum_once(monkeypatch):
    import kreinrel.boundary as boundary
    import kreinrel.nevanlinna as nevanlinna
    import kreinrel.transforms as transforms
    assert not hasattr(nevanlinna, "main_transform")
    counts = {"point_spectrum": 0, "weyl": 0}
    scaled = []

    def counting_spectrum(*a, _real=boundary.point_spectrum, **k):
        counts["point_spectrum"] += 1
        return _real(*a, **k)

    def counting_weyl(bp, z, _real=nevanlinna.weyl):
        # weyl_symmetry_check calls weyl on the pair and on its Gamma_#
        # pair; count the calls on the scaled pair only
        if scaled and bp is scaled[-1]:
            counts["weyl"] += 1
        return _real(bp, z)

    def recording_scale_eps(*a, _real=transforms.scale_eps, **k):
        scaled.append(_real(*a, **k))
        return scaled[-1]

    monkeypatch.setattr(boundary, "point_spectrum", counting_spectrum)
    monkeypatch.setattr(nevanlinna, "weyl", counting_weyl)
    monkeypatch.setattr(transforms, "scale_eps", recording_scale_eps)
    grid = KernelSampleGrid(points=(2j, -2j, 1 + 1j, 1 - 1j, 3 + 0.5j,
                                    3 - 0.5j, -1 + 2j, -1 - 2j))
    degenerate = sigma_p_all_pair()
    pairs = [gen_obt(InstanceSpec(3, 2, 1), rng_stream(46), TOL), degenerate]
    for bp in pairs:
        for key in counts:
            counts[key] = 0
        out = gen_nevanlinna_probe(bp, 0.5, grid)
        # one Weyl sample of the scaled pair per grid point, for the
        # usable filter and the Gram matrix alike, and one per
        # admissible point for condition 2
        assert counts == {"point_spectrum": 1,
                          "weyl": len(grid.points) + out["admissible_points"]}
    assert out["condition2"] is None and out["admissible_points"] == 0


# ----------------------------------------- against the main transform

def _oracle_vectors(bp, z):
    """P_H (J(Gamma) - conj(z))^{-1} (0, e_a) from the resolvent matrix
    of the (n+m)-dimensional main transform."""
    n, m = bp.n, bp.m
    R = resolvent_matrix(main_transform(bp), np.conj(z), bp.tol)
    return (R @ np.vstack([np.zeros((n, m)), np.eye(m)]))[:n]


def _oracle_gram(bp, points):
    C = np.hstack([_oracle_vectors(bp, z) for z in points])
    return C.conj().T @ bp.H.J @ C


def _empty_resolvent_pair():
    """The main transform (graph I) x (graph I) in C^4 over (C, J = -1):
    self-adjoint with empty resolvent set, W = 0 at every z."""
    g = np.zeros((4, 2))
    g[0, 0] = g[1, 0] = g[2, 1] = g[3, 1] = 1 / np.sqrt(2)
    return inverse_main_transform(LinearRelation(2, 2, Subspace(4, g)),
                                  make_krein(np.array([[-1.0]])), 1)


def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(1e-300, np.linalg.norm(b))


def test_gram_and_kernel_match_the_main_transform_resolvent():
    from kreinrel.transforms import scale_eps
    grid = KernelSampleGrid(points=(2j, -2j, 1 + 1j, 1 - 1j, 0.8 + 1e-3j,
                                    0.8 - 1e-3j, -1.1 + 1e-8j,
                                    -1.1 - 1e-8j))
    pairs = [scale_eps(gen_obt(InstanceSpec(n, m, kappa), rng_stream(47, n),
                               TOL), 0.5)
             for n, m, kappa in ((1, 1, 1), (2, 2, 1), (4, 3, 2), (16, 2, 4),
                                 (64, 8, 16))]
    pairs.append(_neg_index_one_pair())
    compared = 0
    for bp in pairs:
        usable = [z for z in grid.points if in_resolvent(
            main_transform(bp), np.conj(z), TOL)]
        usable = tuple(z for z in usable if np.conj(z) in usable)
        if not usable:
            continue
        for z in usable:
            assert _rel_err(weyl(bp, np.conj(z)).resolvent_vectors(),
                            _oracle_vectors(bp, z)) < 1e-10
        sub = KernelSampleGrid(points=usable)
        assert _rel_err(block_gram(bp, sub), _oracle_gram(bp, usable)) < 1e-10
        z, w = usable[0], usable[-1]
        expect = _oracle_vectors(bp, z).conj().T @ bp.H.J @ _oracle_vectors(
            bp, w)
        assert _rel_err(nev_kernel(bp, z, w), expect) < 1e-10
        compared += 1
    assert compared >= 5
    empty = _empty_resolvent_pair()
    for call in (lambda: block_gram(empty, GRID),
                 lambda: nev_kernel(empty, 2j, 1 + 1j),
                 lambda: _oracle_vectors(empty, 2j)):
        with pytest.raises(PreconditionError):
            call()


def test_block_gram_at_n64_makes_no_n_sized_svd(monkeypatch):
    from kreinrel.transforms import scale_eps
    n = 64
    bp = scale_eps(gen_obt(InstanceSpec(n, 8, 16), rng_stream(48), TOL), 0.5)
    shapes, certificates = [], []
    svd, cholesky = np.linalg.svd, np.linalg.cholesky

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def counting_cholesky(a):
        certificates.append(np.shape(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    G = block_gram(bp, GRID)
    assert G.shape == (4 * bp.m, 4 * bp.m)
    # the Cholesky patch is live: the grid's main-transform tests are one
    # Cholesky of a (b, 4, m, m) stack, b the grid's points, which leaves
    # no SVD to make
    assert certificates == [(len(GRID.points), 4, bp.m, bp.m)]
    assert [s for s in shapes if min(s) >= n // 2] == []


# --------------------------------------------------- grids and probes

def test_probe_pairs_near_conjugate_points(monkeypatch):
    import kreinrel.nevanlinna as nevanlinna
    near = 1 - 1.0000000000001j
    assert near != np.conj(1 + 1j)
    sizes = []
    real = nevanlinna.count_negative

    def recording(G):
        sizes.append(G.shape[0])
        return real(G)

    monkeypatch.setattr(nevanlinna, "count_negative", recording)
    bp = gen_obt(InstanceSpec(3, 2, 1), rng_stream(49), TOL)
    out = gen_nevanlinna_probe(bp, 0.5, KernelSampleGrid(
        points=(2j, -2j, 1 + 1j, near)))
    assert sizes == [4 * bp.m]
    exact = gen_nevanlinna_probe(bp, 0.5, GRID)
    assert out["condition3"] == exact["condition3"]
    assert out["kappa_prime"] == exact["kappa_prime"]
    out = gen_nevanlinna_probe(bp, 0.5, KernelSampleGrid(
        points=(1 + 1j, near)))
    assert out["condition3"] is not None
    assert sizes[-1] == 2 * bp.m


def test_probe_vectors_of_the_wrong_length_are_rejected():
    from kreinrel.boundary import identity_obt
    from kreinrel.errors import DimensionMismatchError
    bp = identity_obt()
    grid = KernelSampleGrid(points=(1j, -1j), vectors=([1.0, 0.0],))
    with pytest.raises(DimensionMismatchError):
        block_gram(bp, grid)
    with pytest.raises(DimensionMismatchError):
        gen_nevanlinna_probe(bp, 0.5, grid)
    ok = KernelSampleGrid(points=(1j, -1j), vectors=([2.0],))
    assert block_gram(bp, ok).shape == (2, 2)
