"""One fresh benchmark process: prepare inputs, set up, or run a workload.

    python3 perfbench/child.py ROLE WORKLOAD SEED SECONDS TRACE T0 INPUTS

ROLE is ``prep`` (write the workload's input files, untimed), ``setup``
(import kreinrel and load the instances, then report the set-up time)
or ``run`` (set up, run the timed closed loop, check the outputs).  T0
is the parent's CLOCK_MONOTONIC reading just before it started this
process, so the set-up time includes interpreter start-up.  The result
is one JSON object on the last line of standard output.
"""

import json
import os
import resource
import sys
import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import kreinrel  # noqa: E402  (the import is part of the set-up time)
import numpy as np  # noqa: E402

import workloads  # noqa: E402


def environment():
    """Versions and machine facts recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "kreinrel": os.path.dirname(kreinrel.__file__),
    }


def layer_metrics(tracer, wl, jobs, times, untraced_s):
    """The per-layer metrics of one traced pass (see README.md)."""
    from tracing import LAPACK_ROUTINES

    traced_s = sum(times)
    units = sum(wl.units(j) for j in jobs)
    c, s = tracer.total_calls, tracer.total_s
    jobs_calls = tracer.calls
    out = {
        "subspaces.self_s": tracer.layer_self_s("subspaces"),
        "subspaces.Subspace.calls": c("subspaces.Subspace"),
        "subspaces.Subspace.s": s("subspaces.Subspace"),
        "subspaces.column_space.calls": c("subspaces.column_space"),
        "subspaces.null_space.calls": c("subspaces.null_space"),
        "subspaces.principal_angles.calls": c("subspaces.principal_angles"),
        "boundary.BoundaryPair.calls": c("boundary.BoundaryPair"),
        "boundary.BoundaryPair.s": s("boundary.BoundaryPair"),
        "boundary.BoundaryPair.projections.calls":
            c("boundary.BoundaryPair.projections"),
        "boundary.weyl.calls_per_unit":
            jobs_calls[("jobs", "boundary.weyl")] / units,
        "boundary.weyl.s": s("boundary.weyl"),
        "boundary.self_s": tracer.layer_self_s("boundary"),
        "relations.point_spectrum.calls_per_job":
            jobs_calls[("jobs", "relations.point_spectrum")] / len(jobs),
        "relations.compose.calls": c("relations.compose"),
        "relations.krein_adjoint.calls": c("relations.krein_adjoint"),
        "relations.in_resolvent.calls": c("relations.in_resolvent"),
        "relations.LinearRelation.resolvent_matrix.calls":
            c("relations.LinearRelation.resolvent_matrix"),
        "relations.self_s": tracer.layer_self_s("relations"),
        "transforms.self_s": tracer.layer_self_s("transforms"),
    }
    for fn in ("scale_eps", "transform_left", "make_std_unitary"):
        out[f"transforms.{fn}.calls"] = c(f"transforms.{fn}")
        out[f"transforms.{fn}.s"] = s(f"transforms.{fn}")
    built = sum(tracer.gen_built.values())
    out["generators.s"] = tracer.layer_total_s("generators")
    out["generators.accept_ratio"] = (
        sum(tracer.gen_returned.values()) / built if built else 0.0)
    out["generators.generation_errors"] = sum(tracer.gen_errors.values())
    out["nevanlinna.block_gram.calls"] = c("nevanlinna.block_gram")
    out["nevanlinna.block_gram.s"] = s("nevanlinna.block_gram")
    out["nevanlinna.weyl_symmetry_check.s"] = s(
        "nevanlinna.weyl_symmetry_check")
    by_id = {}
    if wl.name == "check_desk":
        for (tid, _), dt in zip(jobs, times):
            by_id[tid] = by_id.get(tid, 0.0) + dt
    for tid in kreinrel.THEOREM_IDS:
        out[f"checks.id.{tid}.s"] = by_id.get(tid, 0.0)
    out["serialize.load.s"] = s("serialize.load")
    for r in LAPACK_ROUTINES:
        out[f"lapack.{r}.calls"] = c(f"lapack.{r}")
        out[f"lapack.{r}.s"] = s(f"lapack.{r}")
    out["lapack.svd.flops_computed"] = sum(tracer.svd_flops.values())
    out["lapack.share"] = tracer.layer_self_s("lapack", "jobs") / traced_s
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out


def run_job(wl, job):
    t = time.perf_counter()
    try:
        out, err = wl.run(job), None
    except Exception as exc:  # a failed job is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t, out, err


def main(argv):
    role, name, seed, seconds, trace, t0, inputs_dir = argv
    seed, seconds, trace, t0 = int(seed), float(seconds), int(trace), float(t0)
    wl = workloads.WORKLOADS[name]()
    result = {"python_start_s": T_START - t0}
    if role == "prep":
        wl.prepare(inputs_dir, seed)
        print(json.dumps(result))
        return 0

    tracer = None
    if trace and role == "run":
        from tracing import Tracer, traced
        tracer = Tracer()
        with traced(tracer, "setup"):
            wl.setup(inputs_dir, seed)
    else:
        wl.setup(inputs_dir, seed)
    result["setup_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    if role == "setup":
        print(json.dumps(result))
        return 0

    # untimed warm-up: first calls into numpy, scipy and kreinrel
    wl.warmup()

    # timed closed loop: stop at the boundary nearest to `seconds` (a
    # boundary ends a whole pass where the workload asks for a fixed job
    # mix, else a job), judging the next boundary by the last step
    jobs, times, outs, errors = [], [], [], []
    start = time.perf_counter()
    k, stop, mark = 0, False, start
    while not stop:
        batch = wl.pass_jobs(k)
        for i, job in enumerate(batch):
            dt, out, err = run_job(wl, job)
            jobs.append(job)
            times.append(dt)
            outs.append(out)
            errors.append(err)
            if wl.whole_passes and i < len(batch) - 1:
                continue
            now = time.perf_counter()
            step, mark = now - mark, now
            if now - start + step / 2 >= seconds:
                stop = True
                break
        k += 1
    elapsed = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    messages = []
    if tracer is not None:
        # the first pass again, untraced and then traced, back to back so
        # that the machine's drift barely enters the overhead figure
        first = wl.pass_jobs(0)
        plain = [run_job(wl, job) for job in first]
        with traced(tracer, "jobs"):
            spanned = [run_job(wl, job) for job in first]
        for job, (_, a, _), (_, b, _) in zip(first, plain, spanned):
            if a is None or b is None or \
                    wl.fingerprint(a) != wl.fingerprint(b):
                messages.append(f"traced output differs for job {job!r}")
        result["layers"] = layer_metrics(
            tracer, wl, first, [dt for dt, _, _ in spanned],
            sum(dt for dt, _, _ in plain))
        result["spans"] = tracer.summary()

    # output checks, untimed
    failed = [err is not None for err in errors]
    messages += [e for e in errors if e is not None]
    for i, (job, out) in enumerate(zip(jobs, outs)):
        if out is not None:
            msg = wl.check(job, out)
            if msg is not None:
                failed[i] = True
                messages.append(msg)
    bad_keys = wl.final_checks()
    messages += list(bad_keys.values())
    for i, job in enumerate(jobs):
        if wl.key(job) in bad_keys:
            failed[i] = True

    result.update({
        "elapsed_s": elapsed,
        "passes": k,
        "units": sum(wl.units(j) for j, e in zip(jobs, errors) if e is None),
        "unit": wl.unit,
        "job_s": times,
        "attempted": len(jobs),
        "failed": sum(failed),
        "correct": not messages,
        "messages": messages[:20],
        "env": environment(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
