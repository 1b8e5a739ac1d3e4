"""Bases that skip validation (``Subspace._of``): the trusted path
against the validating constructor, and machine-independent counts of
validated constructions and SVDs in one desk pass."""

import numpy as np

from kreinrel.checks import (
    THEOREM_IDS,
    _DRAWS,
    _delta0_space,
    check_theorem,
    weyl_sweep,
)
from kreinrel.errors import ValidationError
from kreinrel.generators import (
    InstanceSpec,
    gen_unitary_boundary_pair,
    rng_stream,
)
from kreinrel.subspaces import Subspace

# Measured for one 29-id x 2-trial pass at seed 7: an upper bound on the
# validated Subspace constructions, and the exact counts of the SVDs it
# makes and of those that compute singular vectors (the Weyl samples'
# counts and Sigma tests read singular values only; every desk-scale
# sample takes the SVD route, so no count moves with the split route's
# Cholesky certificate).  The pass is counted warm: the delta0 fixtures'
# shared space and its U_J (one SVD) are built once per process, before
# it.  Each id is counted on its own draws (the instance-draw memo
# emptied before it); the shared counts are the same pass with the ids
# of one (seed, trial) sharing their pair and delta0 draws.
_PASS_VALIDATED = 89
_PASS_SVDS = 894
_PASS_UV_SVDS = 646
_SHARED_PASS_SVDS = 816
_SHARED_PASS_UV_SVDS = 576
# The same pass per id: (SVDs, SVDs with singular vectors)
_ID_SVDS = {
    "pop_lemma": (27, 15),
    "derk_lemma": (36, 30),
    "cwsum_adjoint": (7, 7),
    "torth": (12, 12),
    "wie": (14, 10),
    "behrndt20": (14, 10),
    "projp1": (23, 15),
    "rrz": (42, 30),
    "rrzz": (2, 2),
    "equivfNTh": (27, 19),
    "mrTG_selfadjoint": (8, 8),
    "lemma_r": (42, 12),
    "lemma_r2": (8, 4),
    "resTG_pipeline": (4, 2),
    "IUBP": (28, 22),
    "IUBP3": (34, 22),
    "delta0": (72, 52),
    "delta0b": (100, 80),
    "scaled_obt": (50, 38),
    "fTex": (30, 20),
    "IBP0": (26, 22),
    "IUBP2xxcor": (24, 20),
    "GunTp": (38, 38),
    "VVV": (20, 14),
    "Vstar": (24, 22),
    "propVVV": (24, 18),
    "QBTex": (34, 32),
    "thmVVV": (26, 20),
    "pstan2_probe": (98, 50),
}


def _desk_pass(trials):
    return [check_theorem(tid, trials=trials, dims=(1, 4), seed=7).to_json()
            for tid in THEOREM_IDS]


def _sweeps():
    """weyl_sweep on unitary pairs at n = 16 and 64, near the real axis
    (Im z = +-1e-8 and +-1e-3) and away from it."""
    pts = [0.3 + 1e-8j, -0.2 - 1e-8j, 0.7 + 1e-3j, -1.1 - 1e-3j,
           0.4 + 1.2j, -1.5 - 0.6j]
    pairs = [gen_unitary_boundary_pair(InstanceSpec(n, n // 8, n // 4),
                                       rng_stream(38, n))
             for n in (16, 64)]
    return [weyl_sweep(bp, pts) for bp in pairs]


def test_trusted_bases_pass_the_validating_constructor(monkeypatch):
    rejected = []

    def validating(cls, ambient_dim, basis):
        try:
            return cls(ambient_dim, basis)
        except ValidationError as err:  # generators retry on it: record
            rejected.append(err)
            raise

    monkeypatch.setattr(Subspace, "_of", classmethod(validating))
    validated = (_desk_pass(5), _sweeps())
    assert rejected == []
    monkeypatch.undo()
    assert (_desk_pass(5), _sweeps()) == validated


def _count_desk_pass(monkeypatch, memo_per_id):
    """Validated constructions and per-id (SVDs, SVDs with vectors) of
    the 2-trial seed-7 pass, with the instance-draw memo emptied before
    each id when ``memo_per_id``, or shared by the whole pass."""
    _delta0_space()
    validated, svds = [0], {}
    init, svd = Subspace.__init__, np.linalg.svd

    def counting_init(self, *a, **k):
        validated[0] += 1
        return init(self, *a, **k)

    def counting_svd(*a, **k):
        svds[tid][0] += 1
        svds[tid][1] += k.get("compute_uv", True)
        return svd(*a, **k)

    monkeypatch.setattr(Subspace, "__init__", counting_init)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for tid in THEOREM_IDS:
        if memo_per_id:
            _DRAWS.clear()
        svds[tid] = [0, 0]
        check_theorem(tid, trials=2, dims=(1, 4), seed=7)
    monkeypatch.undo()
    return validated[0], svds


def test_desk_pass_counts(monkeypatch):
    validated, svds = _count_desk_pass(monkeypatch, memo_per_id=True)
    assert validated <= _PASS_VALIDATED
    assert {tid: tuple(c) for tid, c in svds.items()} == _ID_SVDS
    assert sum(c[0] for c in svds.values()) == _PASS_SVDS
    assert sum(c[1] for c in svds.values()) == _PASS_UV_SVDS


def test_desk_pass_counts_with_shared_draws(monkeypatch):
    # the ids of one (seed, trial) share the pair and delta0 draws
    _, svds = _count_desk_pass(monkeypatch, memo_per_id=False)
    assert sum(c[0] for c in svds.values()) == _SHARED_PASS_SVDS
    assert sum(c[1] for c in svds.values()) == _SHARED_PASS_UV_SVDS
