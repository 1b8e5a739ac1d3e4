"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

The subprocess tests run real traced workloads and take about two
minutes on a 2-core machine.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import kreinrel as kr  # noqa: E402

import run  # noqa: E402
from tracing import (  # noqa: E402
    Tracer, count_lapack, svd_flops, traced, wrap_layers)

COUNT_UNITS = ("count", "1/unit", "1/job", "flop")


def test_lapack_counter_gives_exact_counts():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    h = a.conj().T @ a
    originals = {r: getattr(np.linalg, r) for r in ("svd", "cond")}
    tracer = Tracer()
    with count_lapack(tracer):
        np.linalg.svd(a)
        np.linalg.svd(a, full_matrices=False)
        np.linalg.svd(a, compute_uv=False)
        np.linalg.eigh(h)
        np.linalg.eigvalsh(h)
        np.linalg.qr(a)
        np.linalg.solve(h, np.ones(4))
        np.linalg.inv(h)
        np.linalg.lstsq(a, np.ones(6), rcond=None)
        np.linalg.cond(h)   # its internal SVD is not an np.linalg.svd call
        scipy.linalg.eigvals(h)
    want = {"svd": 3, "eigh": 1, "eigvalsh": 1, "qr": 1, "solve": 1,
            "inv": 1, "lstsq": 1, "cond": 1, "eigvals": 1}
    got = {r: tracer.total_calls(f"lapack.{r}") for r in want}
    assert got == want
    flops = (svd_flops((6, 4), True, True) + svd_flops((6, 4), True, False)
             + svd_flops((6, 4), False, True))
    assert tracer.svd_flops["jobs"] == flops
    assert svd_flops((6, 4), False, True, complex_=False) == \
        pytest.approx(4 * 6 * 16 - 4 * 64 / 3)
    assert all(getattr(np.linalg, r) is f for r, f in originals.items())


def test_layer_wrappers_rebind_copied_names_and_restore_them():
    original = kr.subspaces.column_space
    assert kr.relations.column_space is original
    tracer = Tracer()
    with wrap_layers(tracer):
        # relations holds its own copy of the name, made by a from-import
        assert kr.relations.column_space is not original
        T = kr.random_relation(kr.rng_stream(3), 3, 3)
        kr.compose(T, T)
    assert kr.relations.column_space is original
    assert kr.subspaces.column_space is original
    assert tracer.total_calls("relations.compose") == 1
    assert tracer.total_calls("subspaces.column_space") > 0
    assert tracer.total_calls("relations.LinearRelation") > 0


def test_traced_outputs_equal_untraced():
    spec = kr.InstanceSpec(n=4, m=2, kappa_minus=1)

    def outputs():
        bp = kr.gen_unitary_boundary_pair(spec, kr.rng_stream(5))
        grid = kr.KernelSampleGrid(points=(1j, -1j, 0.5 + 2j, 0.5 - 2j))
        return (kr.weyl_sweep(bp, [0.3 + 1j, -1 - 0.7j]),
                kr.check_theorem("pstan2_probe", trials=3, seed=2).to_json(),
                kr.neg_squares_estimate(kr.scale_eps(bp, 0.25), [grid]))

    plain = outputs()
    tracer = Tracer()
    with traced(tracer, "jobs"):
        seen = outputs()
    assert seen == plain
    assert tracer.total_calls("boundary.weyl") > 0


def test_tail_has_ten_jobs_beyond_it():
    values = list(range(1, 101))
    assert run.tail(values) == (90, 90.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def _traced_run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    return {k: v["value"] for k, v in out["metrics"].items()}, \
        {k: v["unit"] for k, v in out["metrics"].items()}


# per-layer metric -> workloads on which it must be nonzero, from the
# metric table in README.md
NONZERO = {
    "import.kreinrel_s": ("check_desk", "sweep_n128", "gram_n128"),
    "import.scipy_linalg_s": ("check_desk", "sweep_n128", "gram_n128"),
    "subspaces.self_s": ("check_desk", "sweep_n128"),
    "subspaces.Subspace.calls": ("check_desk", "sweep_n128"),
    "subspaces.Subspace.s": ("check_desk", "sweep_n128"),
    "subspaces.column_space.calls": ("check_desk", "sweep_n128"),
    "subspaces.null_space.calls": ("check_desk", "sweep_n128"),
    "subspaces.principal_angles.calls": ("check_desk",),
    "boundary.BoundaryPair.calls": ("check_desk", "sweep_n128", "gram_n128"),
    "boundary.BoundaryPair.s": ("check_desk", "sweep_n128", "gram_n128"),
    "boundary.BoundaryPair.projections.calls": ("check_desk",),
    "boundary.weyl.calls_per_unit": ("sweep_n128",),
    "boundary.weyl.s": ("sweep_n128",),
    "boundary.self_s": ("sweep_n128",),
    "relations.point_spectrum.calls_per_job": ("sweep_n128", "check_desk"),
    "relations.compose.calls": ("gram_n128", "check_desk"),
    "relations.krein_adjoint.calls": ("sweep_n128", "gram_n128", "check_desk"),
    "relations.in_resolvent.calls": ("sweep_n128", "gram_n128", "check_desk"),
    "relations.LinearRelation.resolvent_matrix.calls":
        ("gram_n128", "check_desk"),
    "relations.self_s": ("sweep_n128", "gram_n128", "check_desk"),
    "transforms.self_s": ("check_desk", "gram_n128"),
    "transforms.scale_eps.calls": ("check_desk", "gram_n128"),
    "transforms.scale_eps.s": ("check_desk", "gram_n128"),
    "transforms.transform_left.calls": ("check_desk", "gram_n128"),
    "transforms.transform_left.s": ("check_desk", "gram_n128"),
    "transforms.make_std_unitary.calls": ("check_desk",),
    "transforms.make_std_unitary.s": ("check_desk",),
    "generators.s": ("check_desk",),
    "generators.accept_ratio": ("check_desk",),
    "nevanlinna.block_gram.calls": ("gram_n128", "check_desk"),
    "nevanlinna.block_gram.s": ("gram_n128", "check_desk"),
    "nevanlinna.weyl_symmetry_check.s": ("check_desk",),
    "serialize.load.s": ("sweep_n128", "gram_n128"),
    "lapack.svd.calls": ("check_desk", "sweep_n128", "gram_n128"),
    "lapack.svd.s": ("check_desk", "sweep_n128", "gram_n128"),
    "lapack.svd.flops_computed": ("check_desk", "sweep_n128", "gram_n128"),
    "lapack.share": ("check_desk", "sweep_n128", "gram_n128"),
    **{f"checks.id.{tid}.s": ("check_desk",) for tid in kr.THEOREM_IDS},
}


@pytest.fixture(scope="module")
def traced_runs():
    return {w: _traced_run(w) for w in run.WORKLOADS}


def test_every_listed_metric_is_reported(traced_runs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        listed = {m["name"]: m["unit"] for m in json.load(fp)["per_layer"]}
    for values, units in traced_runs.values():
        assert units == listed


def test_table_metrics_are_nonzero_where_the_table_says(traced_runs):
    for metric, names in NONZERO.items():
        for name in names:
            assert traced_runs[name][0][metric] > 0, (metric, name)


def test_weyl_and_point_spectrum_calls_today(traced_runs):
    sweep, gram = traced_runs["sweep_n128"][0], traced_runs["gram_n128"][0]
    assert sweep["boundary.weyl.calls_per_unit"] == 2.0
    assert sweep["relations.point_spectrum.calls_per_job"] == 2.0
    assert gram["boundary.weyl.calls_per_unit"] == 0.0


@pytest.mark.parametrize("workload", ["check_desk", "gram_n128"])
def test_two_traced_runs_give_identical_counts(traced_runs, workload):
    first, units = traced_runs[workload]
    second, _ = _traced_run(workload)
    counts = [k for k, u in units.items() if u in COUNT_UNITS]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_bare_directory_exits_nonzero_without_a_result():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "check_desk",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
