"""Type-tagged JSON round trips for every serializable core object."""

import io
import json

import numpy as np
import pytest

from kreinrel.errors import ValidationError
from kreinrel.generators import (
    InstanceSpec,
    gen_obt,
    gen_qbt_map,
    gen_std_unitary,
    random_krein,
    random_relation,
    rng_stream,
)
from kreinrel.relations import rel_equal
from kreinrel.serialize import dump, load
from kreinrel.subspaces import DEFAULT_TOL, Subspace, subspace_equal

TOL = DEFAULT_TOL


def test_subspace_round_trip():
    rng = rng_stream(51)
    A = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q, _ = np.linalg.qr(A)
    S = Subspace(4, q[:, :2])
    S2 = load(dump(S))
    assert isinstance(S2, Subspace)
    assert subspace_equal(S, S2, TOL)


def test_relation_round_trip():
    rng = rng_stream(52)
    T = random_relation(rng, 3, 2)
    T2 = load(dump(T))
    assert T2.from_dim == 3 and T2.to_dim == 2
    assert rel_equal(T, T2, TOL)


def test_krein_round_trip():
    rng = rng_stream(53)
    K = random_krein(rng, 3, 2)
    K2 = load(dump(K))
    assert np.allclose(K.J, K2.J)
    assert K2.neg_index == 2


def test_boundary_pair_round_trip():
    rng = rng_stream(54)
    bp = gen_obt(InstanceSpec(3, 2, 1), rng, TOL)
    bp2 = load(dump(bp))
    assert bp2.n == bp.n and bp2.m == bp.m
    assert rel_equal(bp2.gamma, bp.gamma, TOL)
    assert np.allclose(bp2.H.J, bp.H.J)
    assert bp2.classification == "unitary"


def test_dump_is_deterministic_and_sorted():
    rng = rng_stream(57)
    T = random_relation(rng, 2, 2)
    s1, s2 = dump(T), dump(T)
    assert s1 == s2
    d = json.loads(s1)
    assert list(d) == sorted(d)
    assert d["type"] == "relation"


def test_dump_to_file_and_load_back():
    rng = rng_stream(58)
    K = random_krein(rng, 2, 0)
    buf = io.StringIO()
    assert dump(K, buf) is None
    buf.seek(0)
    K2 = load(buf)
    assert np.allclose(K.J, K2.J)


def test_unknown_tag_rejected():
    with pytest.raises(ValidationError):
        load(json.dumps({"type": "mystery"}))
    with pytest.raises(ValidationError):
        load(json.dumps({"no_tag": 1}))


def test_unserializable_object_rejected():
    with pytest.raises(ValidationError):
        dump(object())
    # standard unitaries and QBT maps have no tag: no command stores them
    rng = rng_stream(55)
    K = random_krein(rng, 2, 1)
    for obj in (gen_std_unitary(rng, K, K), gen_qbt_map(rng, 3)):
        with pytest.raises(ValidationError):
            dump(obj)


def test_malformed_record_rejected():
    rng = rng_stream(59)
    d = json.loads(dump(random_relation(rng, 2, 2)))
    d["graph"]["basis"]["re"] = [[1.0, 1.0], [1.0, 1.0],
                                 [0.0, 0.0], [0.0, 0.0]]
    d["graph"]["basis"]["im"] = [[0.0] * 2] * 4
    with pytest.raises(ValidationError):
        load(json.dumps(d))  # basis is not orthonormal
