"""Bases that skip validation (``Subspace._of``): the trusted path
against the validating constructor, and machine-independent counts of
validated constructions and SVDs in one desk pass."""

import numpy as np

from kreinrel.checks import THEOREM_IDS, check_theorem, weyl_sweep
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
# Cholesky certificate).
_PASS_VALIDATED = 89
_PASS_SVDS = 1080
_PASS_UV_SVDS = 796


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


def test_desk_pass_counts(monkeypatch):
    counts = {"validated": 0, "svd": 0, "uv": 0}
    init, svd = Subspace.__init__, np.linalg.svd

    def counting_init(self, *a, **k):
        counts["validated"] += 1
        return init(self, *a, **k)

    def counting_svd(*a, **k):
        counts["svd"] += 1
        counts["uv"] += k.get("compute_uv", True)
        return svd(*a, **k)

    monkeypatch.setattr(Subspace, "__init__", counting_init)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    _desk_pass(2)
    assert counts["validated"] <= _PASS_VALIDATED
    assert counts["svd"] == _PASS_SVDS
    assert counts["uv"] == _PASS_UV_SVDS
