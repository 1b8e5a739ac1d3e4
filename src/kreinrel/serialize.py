"""JSON (de)serialization for the core types.

Complex matrices are stored row-major as separate real and imaginary
lists.  Derived data is never trusted from a file: the negative index
of a Krein space and the classification of a boundary pair are always
recomputed on load.
"""

import json

import numpy as np

from .boundary import BoundaryPair
from .errors import DimensionMismatchError, ValidationError
from .relations import LinearRelation
from .spaces import KreinSpace, make_krein
from .subspaces import DEFAULT_TOL, Subspace

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "subspace_to_json",
    "subspace_from_json",
    "relation_to_json",
    "relation_from_json",
    "krein_to_json",
    "krein_from_json",
    "boundary_pair_to_json",
    "boundary_pair_from_json",
    "dump",
    "load",
]


def matrix_to_json(A):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ValidationError("expected a 2d array")
    return {
        "rows": A.shape[0],
        "cols": A.shape[1],
        "re": A.real.reshape(-1).tolist(),
        "im": A.imag.reshape(-1).tolist(),
    }


def matrix_from_json(d):
    try:
        rows, cols = int(d["rows"]), int(d["cols"])
        re = np.asarray(d["re"], dtype=float)
        im = np.asarray(d["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix record: {exc}")
    if re.size != rows * cols or im.size != rows * cols:
        raise ValidationError("matrix entry count does not match rows*cols")
    return (re + 1j * im).reshape(rows, cols)


def subspace_to_json(S: Subspace):
    return {"ambient_dim": S.ambient_dim, "basis": matrix_to_json(S.basis)}


def subspace_from_json(d):
    return Subspace(int(d["ambient_dim"]), matrix_from_json(d["basis"]))


def relation_to_json(T: LinearRelation):
    return {
        "from_dim": T.from_dim,
        "to_dim": T.to_dim,
        "graph": subspace_to_json(T.graph),
    }


def relation_from_json(d):
    return LinearRelation(int(d["from_dim"]), int(d["to_dim"]),
                          subspace_from_json(d["graph"]))


def krein_to_json(K: KreinSpace):
    return {"dim": K.dim, "J": matrix_to_json(K.J)}


def krein_from_json(d):
    J = matrix_from_json(d["J"])
    if J.shape != (int(d["dim"]),) * 2:
        raise ValidationError("fundamental symmetry shape mismatch")
    return make_krein(J)  # negative index recomputed, never trusted


def boundary_pair_to_json(bp: BoundaryPair):
    return {
        "H": krein_to_json(bp.H),
        "L_dim": bp.m,
        "gamma": relation_to_json(bp.gamma),
    }


def boundary_pair_from_json(d, tol=DEFAULT_TOL):
    # classification is recomputed by the constructor
    return BoundaryPair(krein_from_json(d["H"]), int(d["L_dim"]),
                        relation_from_json(d["gamma"]), tol)


_TAGGED = {
    "subspace": (Subspace, subspace_to_json, subspace_from_json),
    "relation": (LinearRelation, relation_to_json, relation_from_json),
    "krein": (KreinSpace, krein_to_json, krein_from_json),
    "boundary_pair": (BoundaryPair, boundary_pair_to_json,
                      boundary_pair_from_json),
}


def dump(obj, fp=None):
    """Serialize a core object to a type-tagged JSON string (or file)."""
    for tag, (cls, enc, _) in _TAGGED.items():
        if isinstance(obj, cls):
            payload = {"type": tag, **enc(obj)}
            break
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")
    if fp is None:
        return json.dumps(payload, sort_keys=True)
    json.dump(payload, fp, sort_keys=True)
    return None


def load(source):
    """Inverse of :func:`dump`; accepts a JSON string or an open file.

    Undecodable JSON, missing or mistyped fields and shapes that
    disagree raise ValidationError.
    """
    try:
        d = json.loads(source) if isinstance(source, str) else json.load(source)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"malformed JSON: {exc}")
    tag = d.get("type") if isinstance(d, dict) else None
    if tag not in _TAGGED:
        raise ValidationError(f"unknown or missing type tag: {tag!r}")
    try:
        return _TAGGED[tag][2](d)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"malformed {tag} record: missing or mistyped field {exc}")
    except DimensionMismatchError as exc:
        raise ValidationError(f"malformed {tag} record: {exc}")
