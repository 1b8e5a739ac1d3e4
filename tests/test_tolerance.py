"""One source for the tolerance: a caller's Tolerance reaches every rank
decision below the entry points, and only the entry points choose a
default."""

import ast
import inspect
import pathlib
import sys

import kreinrel
from kreinrel import spaces, subspaces, transforms
from kreinrel.checks import THEOREM_IDS, check_theorem, weyl_sweep
from kreinrel.generators import (
    InstanceSpec,
    gen_unitary_boundary_pair,
    rng_stream,
)
from kreinrel.subspaces import DEFAULT_TOL, Tolerance

# The rank and neutrality decisions whose tolerance is traced.
_TRACED = {"null_space": subspaces.null_space,
           "column_space": subspaces.column_space,
           "_classify_graph": spaces._classify_graph}


def test_a_sentinel_tolerance_reaches_every_rank_decision(monkeypatch):
    # a Tolerance equal to the default but not the default object: any
    # call that drops the caller's tolerance for a default of its own
    # receives something else.  make_std_unitary's unitary-graph test
    # validates input at a fixed threshold and is the one exception.
    sentinel = Tolerance(DEFAULT_TOL.rank_rel, DEFAULT_TOL.angle_tol)
    assert sentinel == DEFAULT_TOL and sentinel is not DEFAULT_TOL
    calls = dict.fromkeys(_TRACED, 0)
    strays = []

    def traced(name, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tol = bound.arguments["tol"]
            caller = sys._getframe(1).f_code
            if caller is transforms.make_std_unitary.__code__:
                return fn(*args, **kwargs)
            calls[name] += 1
            if tol is not sentinel:
                strays.append((name, caller.co_name, caller.co_filename))
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items()
               if key == "kreinrel" or key.startswith("kreinrel.")]
    for name, fn in _TRACED.items():
        wrapper = traced(name, fn)
        for mod in modules:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)

    for tid in THEOREM_IDS:
        check_theorem(tid, trials=3, dims=(1, 4), seed=7, tol=sentinel)
    for tid in ("rrz", "pstan2_probe", "IUBP", "lemma_r"):
        check_theorem(tid, trials=3, dims=(16, 20), seed=7, tol=sentinel)
    bp = gen_unitary_boundary_pair(InstanceSpec(16, 2, 4), rng_stream(7),
                                   sentinel)
    weyl_sweep(bp, [0.3 + 0.7j, -1.2 - 0.4j, 0.5 + 1e-3j])
    assert all(calls.values()), calls
    assert strays == []


# The entry points: the only functions whose tol has a default.
_ENTRY_POINTS = {"BoundaryPair.__init__", "check_theorem",
                 "gen_unitary_boundary_pair", "gen_obt",
                 "gen_unitary_pair_with_T"}
# compose keeps its default as well: perfbench's layer-wrapper test
# calls compose(T, T).
_TOL_DEFAULTS = _ENTRY_POINTS | {"compose"}
# Entry points themselves, which build a pair at BoundaryPair's default.
_DEFAULTING_CALLERS = {"identity_obt", "boundary_pair_from_json"}
# The AST count of defaulted parameters in src/.
_DEFAULTED = 20
# The module-level names in src/ bound to a float literal: the named
# tolerances, cut-offs and slacks.
_FLOAT_CONSTANTS = {
    "boundary._MARGIN",
    "checks._MAT_RTOL", "checks._DELTA_ZERO_RTOL", "checks._SIGN_RTOL",
    "generators._SEED_GRAM_ATOL", "generators._MIN_F_SIGMA",
    "generators._OP_ATOL",
    "nevanlinna._CONJ_ATOL", "nevanlinna._NEG_RTOL",
    "nevanlinna._NEG_SCALE_FLOOR",
    "relations._EIG_RTOL", "relations._MERGE_RTOL",
    "relations._RESOLVENT_SLACK", "relations._SPLIT_RCOND",
    "relations._EIG_RESIDUAL",
    "spaces._SNAP_TOL",
    "subspaces._ORTHONORMAL_ATOL",
    "transforms._BLOCK_ATOL", "transforms._P_RTOL", "transforms._QBT_RTOL",
    "transforms._KAPPA_ATOL",
}
# The dataclass fields in src/ that carry a default value.
_DATACLASS_DEFAULTS = {"InstanceSpec.kappa_minus", "Tolerance.rank_rel",
                       "Tolerance.angle_tol"}


def _modules():
    """(module name, parsed source) of every module in the package."""
    package = pathlib.Path(kreinrel.__file__).parent
    for path in sorted(package.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def _trees():
    """The parsed source of every module in the package."""
    for _, tree in _modules():
        yield tree


def _functions():
    """(qualified name, FunctionDef) of every function in the package."""
    for tree in _trees():
        owner = {f: c.name for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) for f in c.body}
        for f in ast.walk(tree):
            if isinstance(f, ast.FunctionDef):
                yield (f"{owner[f]}.{f.name}" if f in owner else f.name), f


def _defaulted(f):
    """The names of f's parameters that carry a default."""
    a = f.args
    positional = a.posonlyargs + a.args
    names = [p.arg for p in positional[len(positional) - len(a.defaults):]]
    return names + [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None]


def _is_dataclass(decorator):
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(node, "id", None) == "dataclass"


def _gives_default(value):
    """Whether a field's assigned value is a default: anything but a
    ``field(...)`` call without ``default`` or ``default_factory``."""
    return not (isinstance(value, ast.Call)
                and getattr(value.func, "id", None) == "field"
                and not {k.arg for k in value.keywords}
                & {"default", "default_factory"})


def test_dataclass_fields_with_a_default_are_pinned():
    # a new setting on a config dataclass shows up here as a pin change
    found = {f"{c.name}.{f.target.id}" for tree in _trees()
             for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             and any(map(_is_dataclass, c.decorator_list))
             for f in c.body if isinstance(f, ast.AnnAssign)
             and f.value is not None and _gives_default(f.value)}
    assert found == _DATACLASS_DEFAULTS


def test_float_constants_are_pinned():
    # a new tolerance literal shows up here as a pin change
    found = {f"{module}.{target.id}" for module, tree in _modules()
             for node in tree.body if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Constant)
             and isinstance(node.value.value, float)
             for target in node.targets}
    assert found == _FLOAT_CONSTANTS


def test_tol_has_a_default_only_at_the_entry_points():
    functions = list(_functions())
    assert sum(len(_defaulted(f)) for _, f in functions) == _DEFAULTED
    assert {name for name, f in functions
            if "tol" in _defaulted(f)} == _TOL_DEFAULTS

    # where each defaulting function takes tol as a positional argument
    position = {}
    for name, f in functions:
        if name in _TOL_DEFAULTS:
            params = [p.arg for p in f.args.args]
            short = name.split(".")[0] if name.endswith("__init__") else name
            position[short] = params.index("tol") - (params[0] == "self")
    omitted = []
    for name, f in functions:
        if name.split(".")[-1] in _DEFAULTING_CALLERS:
            continue
        for call in ast.walk(f):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            if (callee in position and len(call.args) <= position[callee]
                    and "tol" not in {k.arg for k in call.keywords}):
                omitted.append((name, ast.unparse(call)))
    assert omitted == []
