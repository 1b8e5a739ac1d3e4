"""Command line front end: subcommands, exit codes and determinism."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import kreinrel
from _oracles import gen_isometric_boundary_pair
from kreinrel.checks import SWEEP_COLUMNS, THEOREM_IDS
from kreinrel.cli import main
from kreinrel.boundary import identity_obt
from kreinrel.generators import InstanceSpec, rng_stream
from kreinrel.serialize import dump, load


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["check", "pop_lemma", "--seed", "1", "--bogus"])
    assert exc.value.code == 2


def test_check_requires_seed():
    with pytest.raises(SystemExit) as exc:
        main(["check", "pop_lemma"])
    assert exc.value.code == 2


def test_unknown_theorem_id_exits_2(capsys):
    assert main(["check", "not_a_theorem", "--seed", "1"]) == 2
    assert "unknown theorem id" in capsys.readouterr().err


def test_gen_writes_loadable_pair(tmp_path, capsys):
    out = tmp_path / "pair.json"
    rc = main(["gen", "--flavor", "obt", "--n", "3", "--m", "2",
               "--kappa", "1", "--seed", "5", "--out", str(out)])
    assert rc == 0
    bp = load(out.read_text())
    assert bp.n == 3 and bp.m == 2
    assert bp.H.neg_index == 1
    assert bp.classification == "unitary"


def test_gen_to_stdout(capsys):
    assert main(["gen", "--seed", "2"]) == 0
    bp = load(capsys.readouterr().out)
    assert bp.n == 2 and bp.m == 1


def test_check_single_id_json(capsys):
    rc = main(["check", "pop_lemma", "--seed", "7", "--trials", "5"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["theorem_id"] == "pop_lemma"
    assert rep["trials"] == 5
    assert rep["failures"] == 0
    assert rep["vacuous_clauses"]


def test_check_multiple_ids_csv(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["check", "torth", "derk_lemma", "--seed", "7",
               "--trials", "3", "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("theorem_id,trials,failures")
    # ids are run in sorted order for reproducible output
    assert lines[1].startswith("derk_lemma,") and lines[2].startswith("torth,")


def test_check_all_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["check", "all", "--seed", "7", "--trials", "2", "--dims", "1:4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(json.loads(a.read_text())) == len(THEOREM_IDS)


def test_gen_then_sweep_pipeline(tmp_path):
    pair = tmp_path / "pair.json"
    sweep = tmp_path / "sweep.csv"
    assert main(["gen", "--flavor", "obt", "--n", "2", "--m", "1",
                 "--seed", "9", "--out", str(pair)]) == 0
    rc = main(["sweep", str(pair), "--re=-1:1:3", "--im=0.5:1.5:2",
               "--out", str(sweep)])
    assert rc == 0
    lines = sweep.read_text().strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + 3 * 2


def test_sweep_has_no_eps_option(tmp_path):
    # no CSV column depends on eps, so the sweep command takes none
    pair = tmp_path / "pair.json"
    pair.write_text(dump(identity_obt()))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(pair), "--eps", "0.5"])
    assert exc.value.code == 2


def test_gen_has_no_tol_option():
    # every draw is unitary to rounding, so a tolerance changes no
    # generated pair; --tol belongs to check alone
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "2", "--tol", "1e-9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["check", "all", "--dims", "16-32", "--seed", "1"],
    ["sweep", "{pair}", "--re", "1:2"],
    ["sweep", "{pair}", "--re", "1:2:x"],
    ["check", "rrz", "--trials", "-3", "--seed", "1"],
    ["check", "rrz", "--trials", "0", "--seed", "1"],
    ["gen", "--m", "-1"],
    ["gen", "--n", "-2"],
    ["sweep", "{graph}"],
], ids=["dims_with_a_dash", "grid_without_num", "grid_with_text_num",
        "negative_trials", "zero_trials", "negative_m", "negative_n",
        "sweep_of_a_subspace"])
def test_malformed_arguments_are_a_usage_error(args, tmp_path, capsys):
    pair = tmp_path / "pair.json"
    pair.write_text(dump(identity_obt()))
    graph = tmp_path / "graph.json"
    graph.write_text(dump(identity_obt().gamma.graph))
    assert main([a.format(pair=pair, graph=graph) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_sweep_missing_file_exits_1(capsys):
    assert main(["sweep", "/nonexistent/pair.json"]) == 1


def test_sweep_of_pair_without_symmetric_t_exits_1(tmp_path, capsys):
    # a well-formed strictly isometric pair whose ker Gamma_# is not
    # symmetric: a failed precondition, not a usage error
    bp = gen_isometric_boundary_pair(InstanceSpec(3, 2, 1), rng_stream(40, 0))
    path = tmp_path / "isometric.json"
    path.write_text(dump(bp))
    assert main(["sweep", str(path)]) == 1
    assert "not associated with a symmetric T" in capsys.readouterr().err


def test_report_aggregates_and_flags_failures(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    assert main(["check", "pop_lemma", "--seed", "7", "--trials", "4",
                 "--out", str(r1)]) == 0
    r2 = tmp_path / "r2.json"
    r2.write_text(json.dumps({
        "theorem_id": "synthetic", "trials": 10, "failures": 3,
        "worst_residual": 0.25, "vacuous_clauses": [], "seed": 0}))
    rc = main(["report", str(r1), str(r2)])
    assert rc == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["suites"] == 2
    assert summary["total_trials"] == 14
    assert summary["total_failures"] == 3
    assert summary["failing_ids"] == ["synthetic"]
    assert not summary["all_passed"]


def test_report_all_passing_exits_0(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    assert main(["check", "torth", "--seed", "3", "--trials", "3",
                 "--out", str(r1)]) == 0
    assert main(["report", str(r1), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("theorem_id,")


def test_report_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"theorem_id": "x"}))
    assert main(["report", str(bad)]) == 2
    rec = {"theorem_id": 5, "trials": 1, "failures": 0,
           "worst_residual": 0.0, "seed": 0}
    bad.write_text(json.dumps([dict(rec, theorem_id="x"), rec]))
    assert main(["report", str(bad)]) == 2


def test_report_of_non_json_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["report", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_of_non_json_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["sweep", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_of_pair_with_missing_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "boundary_pair", "H": {"dim": 2}}))
    assert main(["sweep", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_of_pair_with_disagreeing_shapes_exits_2(tmp_path, capsys):
    # gamma of from_dim 1 over H = C^1, and a graph of ambient_dim 3 != 2 + 2
    graph = {"ambient_dim": 3, "basis": {"rows": 3, "cols": 1,
                                         "re": [1.0, 0.0, 0.0],
                                         "im": [0.0, 0.0, 0.0]}}
    bad = tmp_path / "bad.json"
    for from_dim in (1, 2):
        gamma = {"from_dim": from_dim, "to_dim": 2, "graph": graph}
        bad.write_text(json.dumps(dict(json.loads(dump(identity_obt())),
                                       gamma=gamma)))
        assert main(["sweep", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def _scipy_modules_after(code):
    """The scipy modules that a fresh interpreter has loaded once it has
    run ``code`` with the package on its path."""
    src = os.path.dirname(os.path.dirname(kreinrel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code += "\nprint(sorted(m for m in sys.modules " \
            "if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=120).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_import_leaves_scipy_unloaded():
    # scipy is imported by the functions that call it, not by the package
    assert _scipy_modules_after("import kreinrel") == []


def test_generic_sweep_and_desk_checks_leave_scipy_unloaded():
    # the pencil split (n = 64) and the point-spectrum screen are numpy
    # alone; a generic pair never reaches the QZ
    sweep = ("from kreinrel import InstanceSpec, "
             "gen_unitary_boundary_pair, rng_stream, weyl_sweep\n"
             "bp = gen_unitary_boundary_pair(InstanceSpec(64, 8, 16), "
             "rng_stream(35))\n"
             "assert bp._split is not None\n"
             "weyl_sweep(bp, [0.3 + 0.7j, -1.2 - 0.4j, 2.0 + 1e-3j])")
    checks = ("import os\n"
              "from kreinrel.cli import main\n"
              "assert main(['check', 'all', '--trials', '20', '--dims', "
              "'1:4', '--seed', '7', '--out', os.devnull]) == 0")
    assert _scipy_modules_after(sweep) == []
    assert _scipy_modules_after(checks) == []


def test_planted_eigenvalue_still_reaches_the_qz():
    # a candidate that survives the screen sends point_spectrum to
    # scipy's QZ, which finds the eigenvalue
    code = ("from kreinrel.relations import point_spectrum, "
            "rel_from_operator\n"
            "from kreinrel.subspaces import DEFAULT_TOL\n"
            "rep = point_spectrum(rel_from_operator("
            "[[0.4 + 0.9j, 0.0], [0.0, -1.0]]), DEFAULT_TOL)\n"
            "assert [d for _, d in rep.eigenvalues] == [1, 1], rep")
    assert "scipy.linalg" in _scipy_modules_after(code)


def test_no_unused_module_level_imports():
    # every name a module of the package or of the tests imports at
    # module level is read somewhere in that module; the package's
    # __init__.py re-exports and is exempt
    package = pathlib.Path(kreinrel.__file__).parent
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += pathlib.Path(__file__).resolve().parent.glob("*.py")
    unused = {}
    for path in sorted(paths):
        tree = ast.parse(path.read_text())
        bound = {alias.asname or alias.name.split(".")[0]
                 for node in tree.body
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        if bound - read:
            unused[path.name] = sorted(bound - read)
    assert unused == {}


def test_every_public_object_has_a_caller():
    # each public non-module object of kreinrel is read (as a name or an
    # attribute) by the package itself, a demo or the benchmark; names
    # only tests need live in tests/_oracles.py
    repo = pathlib.Path(__file__).resolve().parent.parent
    package = pathlib.Path(kreinrel.__file__).parent
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += [*(repo / "demos").rglob("*.py"), *(repo / "perfbench").rglob("*.py")]
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    public = [name for name in dir(kreinrel) if not name.startswith("_")
              and not isinstance(getattr(kreinrel, name), types.ModuleType)]
    assert sorted(set(public) - read) == []


def test_module_all_names_exist_and_cover_public_defs():
    # every name in a module's __all__ exists in the module, and every
    # public function or class the module defines is listed there
    package = pathlib.Path(kreinrel.__file__).parent
    problems = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"kreinrel.{path.stem}")
        listed = set(module.__all__)
        defs = {node.name for node in ast.parse(path.read_text()).body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")}
        absent = sorted(n for n in listed if not hasattr(module, n))
        unlisted = sorted(defs - listed)
        if absent or unlisted:
            problems[path.name] = (absent, unlisted)
    assert problems == {}
