"""Sampled Nevanlinna diagnostics: kernel congruence, negative-squares
estimates and the three-condition probe."""

import itertools

import numpy as np
import pytest

from _oracles import (
    gen_isometric_boundary_pair,
    inverse_main_transform,
    nev_kernel,
    resolvent_matrix,
    sigma_p_all_pair,
    weyl_symmetry_check,
)
from kreinrel.boundary import BoundaryPair, main_transform, weyl
from kreinrel.errors import PreconditionError
from kreinrel.generators import (
    InstanceSpec,
    gen_obt,
    gen_unitary_boundary_pair,
    rng_stream,
)
from kreinrel.nevanlinna import (
    KernelSampleGrid,
    _symmetry_residual,
    block_gram,
    count_negative,
    gen_nevanlinna_probe,
    neg_squares_estimate,
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
    import kreinrel.boundary as boundary
    unitary = gen_obt(InstanceSpec(3, 2, 1), rng_stream(45, 1), TOL)
    isometric = gen_isometric_boundary_pair(InstanceSpec(3, 2, 1),
                                            rng_stream(11, 0))
    assert isometric.classification == "isometric"
    built, sharps, init = [], [], BoundaryPair.__init__

    def counting(self, *a, **k):
        built.append(a)
        init(self, *a, **k)

    def counting_sharp(*a, _real=boundary.gamma_sharp, **k):
        sharps.append(a)
        return _real(*a, **k)

    monkeypatch.setattr(BoundaryPair, "__init__", counting)
    monkeypatch.setattr(boundary, "gamma_sharp", counting_sharp)
    # Gamma_# = Gamma for a unitary pair: no second pair, no null space
    for bp, second in ((unitary, 0), (isometric, 1)):
        built.clear()
        sharps.clear()
        for z in GRID.points:
            assert weyl_symmetry_check(bp, z)
        assert _symmetry_residual(bp, GRID.points) <= TOL.angle_tol
        assert len(built) == len(sharps) == second
        assert (bp._sharp_pair is bp) == (second == 0)
        assert bp._sharp_pair.gamma is bp.gamma_sharp


def test_symmetry_residual_agrees_with_the_pointwise_oracle():
    points = GRID.points + (0.3 + 1e-3j, -1.2 - 0.4j)
    unitary = [gen_obt(InstanceSpec(n, m, k), rng_stream(45, n), TOL)
               for n, m, k in ((1, 1, 0), (2, 1, 1), (3, 2, 1), (4, 3, 2))]
    unitary += [gen_unitary_boundary_pair(InstanceSpec(n, n // 8, n // 4),
                                          rng_stream(38, n))
                for n in (16, 64)]  # the split route
    isometric = [gen_isometric_boundary_pair(InstanceSpec(3, 2, 1),
                                             rng_stream(11, trial))
                 for trial in range(40)]
    worst = 0.0
    for bp in unitary + isometric:
        assert bp.classification in ("unitary", "isometric")
        assert (bp._sharp_pair is not bp) == (bp.classification
                                              == "isometric")
        for z in points:
            assert ((_symmetry_residual(bp, [z]) <= TOL.angle_tol)
                    == weyl_symmetry_check(bp, z))
        worst = max(worst, _symmetry_residual(bp, points))
    assert sum(bp.classification == "isometric" for bp in isometric) == 40
    assert worst <= TOL.angle_tol
    # a wrong Gamma_# pair (another pair's) fails both, at every point
    for bp in unitary[1:4]:
        bp.__dict__["_sharp_pair"] = gen_obt(InstanceSpec(bp.n, bp.m, 0),
                                             rng_stream(12, bp.n), TOL)
        for z in points:
            assert _symmetry_residual(bp, [z]) > TOL.angle_tol
            assert not weyl_symmetry_check(bp, z)


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
    assert not hasattr(nevanlinna, "main_transform")
    assert not hasattr(nevanlinna, "weyl")
    spectra, passes = [], []

    def counting_spectrum(*a, _real=boundary.point_spectrum, **k):
        spectra.append(a)
        return _real(*a, **k)

    def counting_samples(bp, points, _real=nevanlinna._weyl_samples):
        points = list(points)
        record = [bp, len(points), 0]
        passes.append(record)
        for sample in _real(bp, points):
            record[2] += 1
            yield sample

    monkeypatch.setattr(boundary, "point_spectrum", counting_spectrum)
    monkeypatch.setattr(nevanlinna, "_weyl_samples", counting_samples)
    grid = KernelSampleGrid(points=(2j, -2j, 1 + 1j, 1 - 1j, 3 + 0.5j,
                                    3 - 0.5j, -1 + 2j, -1 - 2j))
    size = len(grid.points)
    degenerate = sigma_p_all_pair()
    pairs = [gen_obt(InstanceSpec(3, 2, 1), rng_stream(46), TOL), degenerate]
    for bp in pairs:
        spectra.clear()
        passes.clear()
        out = gen_nevanlinna_probe(bp, 0.5, grid)
        admissible = out["admissible_points"]
        # each pair reads each distinct point once: condition 1 on the
        # pair, which is unitary and so its own Gamma_# pair, and
        # conditions 2 and 3 on the scaled pair; the grid is closed under
        # conjugation, so both read the grid's points
        assert [p[1:] for p in passes] == [[size, size]] * 2
        assert passes[0][0] is bp and passes[1][0] is not bp
        assert 0 < admissible <= size or bp is degenerate
        assert len(spectra) == 1
    assert out["condition2"] is None and out["admissible_points"] == 0


def _two_pass_probe(bp, eps, grid):
    """Conditions (1)-(3), kappa' and the symmetry residual read with two
    passes per pair: the pair and its Gamma_# pair for (1), the scaled
    pair's admissible points for (2) and its conjugate grid for (3)."""
    from kreinrel.boundary import _weyl_samples, in_delta
    from kreinrel.nevanlinna import _gram, _has_conjugate
    from kreinrel.relations import _rel_residual, hilbert_adjoint
    from kreinrel.transforms import scale_eps
    pts = grid.points
    pairs = zip(_weyl_samples(bp, pts),
                _weyl_samples(bp._sharp_pair, np.conj(pts)))
    residual = max(_rel_residual(hilbert_adjoint(s.M, bp.tol), t.M)
                   for s, t in pairs)
    scaled = scale_eps(bp, eps)
    admissible = [z for z in pts if in_delta(bp, z) and abs(z) > eps]
    cond2 = (all(s.shift_invertible for s in _weyl_samples(scaled, admissible))
             if admissible else None)
    samples = dict(zip(pts, _weyl_samples(scaled, np.conj(pts))))
    usable = [z for z in pts if samples[z].in_mt_resolvent]
    usable = [z for z in usable if _has_conjugate(z, usable)]
    kappa = (count_negative(_gram(scaled, [samples[z] for z in usable]))
             if usable else None)
    return {"condition1": residual <= bp.tol.angle_tol, "condition2": cond2,
            "condition3": None if kappa is None
            else kappa <= scaled.H.neg_index,
            "kappa_prime": kappa}, residual


def _probe_outcomes(out):
    return {k: out[k] for k in ("condition1", "condition2", "condition3",
                                "kappa_prime")}


def test_probe_falls_back_to_two_passes(monkeypatch):
    # a strictly isometric pair (Gamma_# != Gamma, T symmetric) reads
    # condition 1 on the pair and on its Gamma_# pair, as before, and
    # gives the two-pass outcomes
    import kreinrel.nevanlinna as nevanlinna
    passes = []

    def counting_samples(bp, points, _real=nevanlinna._weyl_samples):
        points = list(points)
        passes.append((bp, len(points)))
        yield from _real(bp, points)

    bp = gen_isometric_boundary_pair(InstanceSpec(1, 3, 0),
                                     rng_stream(42, 130))
    assert bp.classification == "isometric"
    bp.underlying_T()  # T is symmetric: the probe can run
    grid = KernelSampleGrid(points=(2j, -2j, 1 + 1j, 1 - 1j, 3 + 0.5j,
                                    3 - 0.5j))
    want, residual = _two_pass_probe(bp, 0.5, grid)
    monkeypatch.setattr(nevanlinna, "_weyl_samples", counting_samples)
    out = gen_nevanlinna_probe(bp, 0.5, grid)
    monkeypatch.undo()
    assert _probe_outcomes(out) == want
    assert _symmetry_residual(bp, grid.points) == residual
    size = len(grid.points)
    assert bp._sharp_pair is not bp
    assert passes == [(bp, size), (bp._sharp_pair, size),
                      (passes[2][0], size)]


def test_one_pass_probe_matches_the_two_pass_reading():
    # on a grid exactly closed under conjugation, and on one closed only
    # within _CONJ_ATOL, where the one pass reads more points than the grid
    rng = np.random.default_rng(17)
    up = [complex(a, b) for a, b in zip(rng.uniform(-2, 2, 6),
                                        rng.uniform(0.3, 2, 6))]
    grids = (KernelSampleGrid(points=tuple(up + [z.conjugate() for z in up])),
             KernelSampleGrid(points=(2j, -2j, 1 + 1j, 1 - 1.0000000000001j)))
    pairs = [gen_obt(InstanceSpec(n, m, k), rng_stream(50, n), TOL)
             for n, m, k in ((1, 1, 0), (2, 1, 1), (3, 2, 1), (4, 3, 2))]
    pairs += [gen_unitary_boundary_pair(InstanceSpec(n, 1 + n % 3, n // 2),
                                        rng_stream(51, n))
              for n in range(1, 5)]
    pairs += [gen_unitary_boundary_pair(InstanceSpec(n, n // 8, n // 4),
                                        rng_stream(38, n))
              for n in (16, 64)]  # the split route
    pairs += [_neg_index_one_pair(), sigma_p_all_pair()]
    seen = set()
    for bp, grid in itertools.product(pairs, grids):
        for eps in (0.25, 1.0):
            out = _probe_outcomes(gen_nevanlinna_probe(bp, eps, grid))
            want, residual = _two_pass_probe(bp, eps, grid)
            assert out == want
            assert _symmetry_residual(bp, grid.points) == residual
            seen.add((out["condition2"], out["kappa_prime"]))
    assert {c2 for c2, _ in seen} >= {True, None}
    assert {k for _, k in seen} >= {0, 1}


def test_probe_output_does_not_depend_on_the_route(monkeypatch):
    import kreinrel.boundary as boundary
    rng = np.random.default_rng(16)
    up = [complex(a, b) for a, b in zip(rng.uniform(-2, 2, 8),
                                        rng.uniform(0.3, 2, 8))]
    grid = KernelSampleGrid(points=tuple(up + [z.conjugate() for z in up]))

    def probes():
        pairs = [gen_unitary_boundary_pair(InstanceSpec(n, n // 8, n // 4),
                                           rng_stream(38, n))
                 for n in (16, 64)]
        return pairs, [gen_nevanlinna_probe(bp, 0.25, grid) for bp in pairs]

    pairs, split = probes()
    assert all(bp._split is not None for bp in pairs)
    assert all(out["condition1"] and out["kappa_prime"] is not None
               for out in split)
    monkeypatch.setattr(boundary, "_SPLIT_MIN_N", 10 ** 9)
    pairs, svd = probes()
    assert all(bp._split is None for bp in pairs)
    assert svd == split


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
    # Cholesky of a (b, 3, m, m) stack, b the grid's points, which leaves
    # no SVD to make
    assert certificates == [(len(GRID.points), 3, bp.m, bp.m)]
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
