"""Verification harness: registry, reports, determinism and sweeps."""

import io
import sys

import numpy as np
import pytest

import kreinrel.boundary
import kreinrel.checks
import kreinrel.relations
from _oracles import (
    gen_isometric_boundary_pair,
    inverse_main_transform,
    sigma_p_all_pair,
    spectral_sets,
)
from kreinrel.boundary import BoundaryPair, identity_obt, main_transform, weyl
from kreinrel.checks import (
    SWEEP_COLUMNS,
    THEOREM_IDS,
    CheckReport,
    check_theorem,
    weyl_sweep,
)
from kreinrel.checks import _REGISTRY
from kreinrel.errors import PreconditionError, ValidationError
from kreinrel.generators import InstanceSpec, gen_unitary_boundary_pair, rng_stream
from kreinrel.relations import LinearRelation, in_resolvent
from kreinrel.spaces import make_krein
from kreinrel.subspaces import Subspace, Tolerance


def test_registry_is_complete_and_consistent():
    assert THEOREM_IDS == (
        "pop_lemma", "derk_lemma", "cwsum_adjoint", "torth", "wie",
        "behrndt20", "projp1", "rrz", "rrzz", "equivfNTh",
        "mrTG_selfadjoint", "lemma_r", "lemma_r2", "resTG_pipeline",
        "IUBP", "IUBP3", "delta0", "delta0b", "scaled_obt", "fTex",
        "IBP0", "IUBP2xxcor", "GunTp", "VVV", "Vstar", "propVVV",
        "QBTex", "thmVVV", "pstan2_probe",
    )
    assert tuple(_REGISTRY) == THEOREM_IDS
    for check, clauses in _REGISTRY.values():
        assert callable(check)
        assert isinstance(clauses, tuple) and clauses
        assert all(isinstance(c, str) and c for c in clauses)


def test_unknown_id_is_rejected():
    with pytest.raises(ValidationError):
        check_theorem("no_such_property", trials=1)


def test_invalid_dims_rejected():
    with pytest.raises(ValidationError):
        check_theorem(THEOREM_IDS[0], trials=1, dims=(3, 2))
    with pytest.raises(ValidationError):
        check_theorem(THEOREM_IDS[0], trials=1, dims=(0, 2))


def test_every_check_passes_a_smoke_run():
    for tid in THEOREM_IDS:
        rep = check_theorem(tid, trials=3, dims=(1, 4), seed=7)
        assert rep.passed, (tid, rep)
        assert rep.trials == 3
        assert rep.vacuous_clauses  # every finite-dim reading is ledgered


@pytest.mark.parametrize("angle_tol", [1e-6, 1e-11])
@pytest.mark.parametrize("rank_rel", [1e-10, 1e-14])
def test_every_check_passes_across_the_tolerance_grid(angle_tol, rank_rel):
    # every null space, column space and Gram classification below
    # check_theorem reads tol (test_tolerance.py traces it), except
    # make_std_unitary's unitary-graph test; the module-level cutoffs
    # (_EIG_RTOL, _P_RTOL, the rcond guards of the split and the
    # spectrum screen, ...) do not.  The checks hold over the grid, not
    # only at DEFAULT_TOL
    tol = Tolerance(rank_rel=rank_rel, angle_tol=angle_tol)
    failing = [tid for tid in THEOREM_IDS
               if check_theorem(tid, trials=5, dims=(1, 4), seed=7,
                                tol=tol).failures]
    assert failing == []


def test_report_json_is_deterministic():
    r1 = check_theorem("pop_lemma", trials=5, seed=3).to_json()
    r2 = check_theorem("pop_lemma", trials=5, seed=3).to_json()
    assert r1 == r2
    assert r1.encode() == r2.encode()


def test_report_depends_on_seed_stream_not_call_order():
    a = check_theorem("derk_lemma", trials=4, seed=11)
    check_theorem("torth", trials=4, seed=5)
    b = check_theorem("derk_lemma", trials=4, seed=11)
    assert a == b


def test_report_passed_property():
    rep = CheckReport(theorem_id="x", trials=2, failures=1,
                      worst_residual=0.5, vacuous_clauses=(), seed=0)
    assert not rep.passed
    assert '"failures": 1' in rep.to_json()


# ------------------------------------------------------------- sweeps

def test_weyl_sweep_rejects_real_grid_points():
    with pytest.raises(PreconditionError):
        weyl_sweep(identity_obt(), [1j, 0.5])


def test_weyl_sweep_identity_pair_rows():
    pts = [complex(a, b)
           for a in np.linspace(-2, 2, 5)
           for b in (1.0, -1.0, 2.0, -2.0, 0.5)]
    csv = weyl_sweep(identity_obt(), pts, eps=0.25)
    lines = csv.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + len(pts)
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(SWEEP_COLUMNS)
        # M(z) = z: a 1x1 operator everywhere off the real axis
        assert cells[2] == "1"   # dim_M
        assert cells[3] == "0"   # dim_mul
        assert cells[5] == "1"   # is_operator
        assert cells[6] == "1"   # M(z) + z = 2z invertible
        assert cells[7] == "1"   # z nonreal is in the resolvent


def test_weyl_sweep_writes_to_stream():
    buf = io.StringIO()
    assert weyl_sweep(identity_obt(), [1j, -1j], out=buf) is None
    assert buf.getvalue().startswith(",".join(SWEEP_COLUMNS))


def _counting(monkeypatch, attr, modules):
    """Replace ``attr`` in every given module by one counting wrapper."""
    original = getattr(modules[0], attr)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, attr, wrapper)
    return calls


def test_weyl_sweep_evaluates_weyl_once_per_point(monkeypatch):
    bp = gen_unitary_boundary_pair(InstanceSpec(4, 2, 1), rng_stream(31))
    pts = [complex(a, b) for a in (-1.5, 0.0, 1.2) for b in (0.7, -1.1)]
    eps = 0.5
    # one call of the block entry per sweep, which yields one sample per
    # point in order; the sweep makes no call of the one-point weyl
    entry, entries, samples = kreinrel.checks._weyl_samples, [], []

    def counting_entry(bp, points):
        entries.append(points)
        for sample in entry(bp, points):
            samples.append(sample.z)
            yield sample

    monkeypatch.setattr(kreinrel.checks, "_weyl_samples", counting_entry)
    weyl_calls = _counting(monkeypatch, "weyl",
                           [kreinrel.boundary, kreinrel.checks])
    spectrum_calls = _counting(monkeypatch, "point_spectrum",
                               [kreinrel.relations, kreinrel.boundary])
    csv = weyl_sweep(bp, pts, eps=eps)
    assert (len(entries), samples, weyl_calls) == (1, pts, [])
    # sigma0_p(T) is formed once per pair: a second sweep reuses it
    assert weyl_sweep(bp, pts, eps=2.0) == csv
    assert len(spectrum_calls) == 1
    monkeypatch.undo()

    tol = bp.tol
    sets = spectral_sets(bp, eps, [weyl(bp, z) for z in pts])
    mt = main_transform(bp)
    rows = [",".join(SWEEP_COLUMNS)]
    for z, rec in zip(pts, sets.samples):
        M = weyl(bp, z).M
        cells = (f"{z.real:.12g}", f"{z.imag:.12g}", M.graph.dim,
                 M.mul(tol).dim, M.ker(tol).dim, int(M.is_operator(tol)),
                 int(rec["in_Sigma"]), int(in_resolvent(mt, z, tol)))
        rows.append(",".join(str(c) for c in cells))
    assert csv == "\n".join(rows) + "\n"


def test_weyl_sweep_without_symmetric_t_writes_nothing():
    # a strictly isometric pair whose ker Gamma_# is not symmetric
    bp = gen_isometric_boundary_pair(InstanceSpec(3, 2, 1), rng_stream(40, 0))
    buf = io.StringIO()
    with pytest.raises(PreconditionError, match="not associated with a "
                       "symmetric T"):
        weyl_sweep(bp, [1j, 0.5 - 1j], out=buf)
    assert buf.getvalue() == ""


@pytest.mark.parametrize("split_min_n", [1, 10**9])
def test_weyl_sweep_of_a_pair_with_empty_resolvent(monkeypatch, split_min_n):
    # the main transform (graph I) x (graph I) in C^4 over H = (C, -1) is
    # self-adjoint with empty resolvent set; with the split forced on,
    # its m x m test is W = 0, which the sweep reads as not invertible
    monkeypatch.setattr(kreinrel.boundary, "_SPLIT_MIN_N", split_min_n)
    g = np.zeros((4, 2))
    g[0, 0] = g[1, 0] = g[2, 1] = g[3, 1] = 1 / np.sqrt(2)
    bp = inverse_main_transform(LinearRelation(2, 2, Subspace(4, g)),
                                make_krein(np.array([[-1.0]])), 1)
    assert (bp._split is None) == (split_min_n > 1)
    rows = weyl_sweep(bp, [0.3 + 0.9j, -1.2 - 1e-3j]).strip().split("\n")
    assert [r.split(",")[-1] for r in rows[1:]] == ["0", "0"]


def test_rrzz_computes_the_point_spectrum_once_per_trial(monkeypatch):
    calls = _counting(monkeypatch, "point_spectrum",
                      [kreinrel.relations, kreinrel.boundary])
    report = check_theorem("rrzz", trials=20, seed=7)
    assert report.failures == 0
    assert len(calls) == 20


def _sweep_grid(seed, count):
    rng = np.random.default_rng(seed)
    im = rng.uniform(0.5, 2.0, count) * rng.choice([-1.0, 1.0], count)
    pts = [complex(a, b) for a, b in zip(rng.uniform(-2.0, 2.0, count), im)]
    return pts + [0.3 + 1e-3j, -0.7 - 1e-3j, 1.1 + 1e-8j, -0.2 - 1e-8j]


# One 50-point sweep over a seeded n = 64 pair, where T has no
# eigenvalue: point_spectrum's screen (one standard eigenproblem and the
# one LU of Fc) decides that alone, so no QZ runs; the pencil split's
# diagonalisation is the second standard eigenproblem, and every point
# takes the split without an LU.  The SVD count is measured: two per
# pair (T's null space and point_spectrum's probe), and none per point,
# since one stacked Cholesky certifies every point of this grid.
_SWEEP64_SVDS = 2


def test_generic_sweep_screens_the_point_spectrum_without_qz(monkeypatch):
    import scipy.linalg
    bp = gen_unitary_boundary_pair(InstanceSpec(64, 8, 16), rng_stream(35))
    qz = _counting(monkeypatch, "eig", [scipy.linalg])
    eig = _counting(monkeypatch, "eig", [np.linalg])
    svd = _counting(monkeypatch, "svd", [np.linalg])
    # the screen's one inverse of Fc and the split's two solves (with L,
    # then with V's triangular factor) are numpy's, by the module that
    # makes them
    callers = {"inv": [], "solve": []}
    for name, seen in callers.items():
        def wrapper(*args, _original=getattr(np.linalg, name), _seen=seen,
                    **kwargs):
            _seen.append(sys._getframe(1).f_globals["__name__"])
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    grid = _sweep_grid(35, 46)
    weyl_sweep(bp, grid)
    assert (len(qz), len(eig), len(svd)) == (0, 2, _SWEEP64_SVDS)
    assert callers == {"inv": ["kreinrel.relations"],
                       "solve": ["kreinrel.boundary"] * 2}
    assert all(weyl(bp, z).S is bp._split.BQ for z in grid)


def test_weyl_sweep_with_the_pencil_split_equals_the_direct_formulas(
        monkeypatch):
    pairs = [gen_unitary_boundary_pair(InstanceSpec(n, m, kappa),
                                       rng_stream(34, n))
             for n, m, kappa in ((16, 2, 4), (17, 3, 0), (64, 8, 16))]
    assert all(bp._split is not None for bp in pairs)
    pts = _sweep_grid(34, 20)
    fast = [weyl_sweep(bp, pts) for bp in pairs]
    monkeypatch.setattr(kreinrel.boundary, "_SPLIT_MIN_N", 10**9)
    direct = [BoundaryPair(bp.H, bp.m, bp.gamma, bp.tol) for bp in pairs]
    assert all(bp._split is None for bp in direct)
    assert fast == [weyl_sweep(bp, pts) for bp in direct]


def test_weyl_sweep_at_n64_makes_few_n_sized_svds(monkeypatch):
    # the one n-sized SVD is point_spectrum's values-only probe; T comes
    # from the 2m boundary rows of B, and each block of points' columns
    # from one stacked Cholesky of their unnormalised boundary rows: no
    # SVD, no QR and no Cholesky per point
    n, m = 64, 8
    bp = gen_unitary_boundary_pair(InstanceSpec(n, m, 16), rng_stream(35))
    calls = []

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a), kwargs.get("compute_uv", True)))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    for name in ("svd", "qr", "cholesky"):
        counting(name)
    grid = _sweep_grid(35, 46)
    weyl_sweep(bp, grid)
    svds = [(shape, uv) for name, shape, uv in calls if name == "svd"]
    assert len(svds) > 0
    large = [uv for shape, uv in svds if min(shape) >= n // 2]
    assert len(large) <= 1
    assert not any(large)
    # one Cholesky of a (b, 4, m, m) stack per block of b points, the
    # last block shorter, and nothing else per point: a second sweep,
    # with the pair's split and sigma0 cached, makes only those.  At the
    # module's panel budget the 50 points are four blocks (b = 16), at a
    # quarter of it 13, and at four times it one
    def blocks(b):
        return [("cholesky", (min(b, len(grid) - k), 4, m, m), True)
                for k in range(0, len(grid), b)]

    b = kreinrel.boundary._PANEL_BYTES // (16 * n * m)
    assert b == 16
    assert [c for c in calls if c[0] == "cholesky"] == blocks(b)
    for budget, count in ((b, 4), (b // 4, 13), (b * 4, 1)):
        monkeypatch.setattr(kreinrel.boundary, "_PANEL_BYTES",
                            budget * 16 * n * m)
        del calls[:]
        weyl_sweep(bp, grid)
        assert calls == blocks(budget)
        assert len(calls) == count


def test_weyl_sweep_never_forms_the_weyl_relation(monkeypatch):
    formed = []
    monkeypatch.setattr(kreinrel.boundary.WeylSample, "M", property(
        lambda sample: formed.append(sample.z)))
    pairs = [gen_unitary_boundary_pair(InstanceSpec(n, m, kappa),
                                       rng_stream(34, n))
             for n, m, kappa in ((3, 2, 1), (16, 2, 4), (64, 8, 16))]
    for bp in [*pairs, sigma_p_all_pair()]:
        weyl_sweep(bp, _sweep_grid(34, 20))
    assert formed == []


def test_weyl_sweep_never_forms_the_full_defect_elements(monkeypatch):
    formed = []
    monkeypatch.setattr(kreinrel.boundary.WeylSample, "C", property(
        lambda sample: formed.append(sample.z)))
    pairs = [gen_unitary_boundary_pair(InstanceSpec(n, m, kappa),
                                       rng_stream(34, n))
             for n, m, kappa in ((3, 2, 1), (16, 2, 4), (64, 8, 16))]
    assert [bp._split is None for bp in pairs] == [True, False, False]
    for bp in pairs:
        weyl_sweep(bp, _sweep_grid(34, 20))
    assert formed == []
