"""kreinrel benchmark: end-to-end metrics per workload, or per-layer
metrics from a separate traced run.

    python3 perfbench/run.py --workload sweep_n128 --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seconds 45

Each workload run starts fresh Python processes (perfbench/child.py), so
``import kreinrel`` is paid and measured every time: one untimed process
prepares the inputs, four more only set up (two before and two after
the timed one), and one sets up, runs the timed closed loop and checks
the outputs.  ``setup_s`` is the median set-up time of those five.
The program comes from ``src/`` of the checkout this file sits in.

Human-readable lines go to standard output first; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every output check passed, 1 when
one failed, and 2 when the benchmark could not run at all.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("check_desk", "sweep_n128", "gram_n128")
DEFAULT_SEED = 1         # the seed whose outputs reference.json stores
SETUP_PROBES = 4        # set-up-only processes; the timed one is a 5th
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def git_commit():
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs")) as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest():
    """A digest of kreinrel's sources: cached inputs are reused only by
    the code that generated them."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "kreinrel")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fp:
                h.update(fp.read())
    return h.hexdigest()[:12]


def import_times(stderr):
    """Cumulative ``-X importtime`` seconds of kreinrel and scipy.linalg."""
    out = {"kreinrel": 0.0, "scipy.linalg": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        pkg = parts[-1].strip()
        if pkg in out:
            try:
                out[pkg] = int(parts[1]) / 1e6
            except ValueError:
                pass
    return out


def spawn(role, name, seed, seconds, trace, threads, importtime=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    # fixed str hashes: sets iterate in the same order in every process
    env["PYTHONHASHSEED"] = "0"
    inputs = os.path.join(CACHE, "inputs", f"seed{seed}-{source_digest()}")
    flags = ["-X", "importtime"] if importtime else []
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, *flags, os.path.join(HERE, "child.py"), role, name,
           str(seed), str(seconds), str(trace), repr(t0), inputs]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: {role} process timed out")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise BenchError(f"{name}: {role} process failed\n{tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if importtime:
        result["import_times"] = import_times(proc.stderr)
    return result


def tail(values):
    """The highest percentile with at least 10 jobs beyond it, and that
    percentile; the maximum (percentile 100) when there are 10 or fewer."""
    s = sorted(values)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def run_workload(name, seed, seconds, trace, threads):
    spawn("prep", name, seed, seconds, trace, threads)
    setups, imports = [], []

    def setup_probes(count):
        for _ in range(count):
            r = spawn("setup", name, seed, seconds, trace, threads,
                      importtime=bool(trace))
            setups.append(r["setup_s"])
            imports.append(r.get("import_times"))

    # probes before and after the timed run, so that the median spans
    # the machine's drift over the whole run
    setup_probes(SETUP_PROBES // 2)
    run = spawn("run", name, seed, seconds, trace, threads)
    setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
    if os.path.dirname(run["env"]["kreinrel"]) != SRC:
        raise BenchError(f"kreinrel was imported from "
                         f"{run['env']['kreinrel']}, not from {SRC}")
    setups.append(run["setup_s"])

    job_ms = [t * 1e3 for t in run["job_s"]]
    tail_ms, tail_pct = tail(job_ms)
    if trace:
        metrics = {
            "import.kreinrel_s": (statistics.median(
                i["kreinrel"] for i in imports), "s"),
            "import.scipy_linalg_s": (statistics.median(
                i["scipy.linalg"] for i in imports), "s"),
        }
        for key, value in run["layers"].items():
            metrics[key] = (value, layer_unit(key))
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "units_per_s": (run["units"] / run["elapsed_s"], "1/s"),
            "job_ms_p50": (statistics.median(job_ms), "ms"),
            "job_ms_tail": (tail_ms, "ms"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "env": run["env"],
        "jobs": run["attempted"], "failed": run["failed"],
        "failed_frac": run["failed"] / run["attempted"],
        "units": run["units"], "unit": run["unit"],
        "elapsed_s": run["elapsed_s"], "passes": run["passes"],
        "tail_percentile": tail_pct, "setup_samples_s": setups,
        "job_ms": job_ms, "messages": run["messages"],
        "correct": run["correct"] and run["failed"] == 0,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    if trace:
        record["spans"] = run["spans"]
    return record


def layer_unit(key):
    if key.endswith((".calls", "_errors")):
        return "count"
    if key.endswith("calls_per_unit"):
        return "1/unit"
    if key.endswith("calls_per_job"):
        return "1/job"
    if key.endswith("flops_computed"):
        return "flop"
    if key.endswith(("_ratio", "share", "_frac")):
        return "ratio"
    return "s"


def describe(rec):
    """Human-readable lines for one workload record."""
    m = {k: v["value"] for k, v in rec["metrics"].items()}
    head = (f"{rec['workload']}: seed {rec['seed']}, {rec['jobs']} jobs, "
            f"{rec['units']} {rec['unit']} in {rec['elapsed_s']:.2f} s, "
            f"failed_frac {rec['failed_frac']:.4g} "
            f"({rec['failed']}/{rec['jobs']}), "
            f"BLAS threads {rec['env']['blas_threads']} of nproc "
            f"{rec['env']['nproc']}, commit {rec['commit'][:12]}")
    lines = [head]
    if rec["trace"]:
        for k, v in rec["metrics"].items():
            lines.append(f"  {k:48s} {v['value']:.6g} {v['unit']}")
    else:
        lines += [
            f"  setup_s      {m['setup_s']:.4f} s "
            f"(median of {len(rec['setup_samples_s'])} fresh processes)",
            f"  units_per_s  {m['units_per_s']:.3f} {rec['unit']}/s",
            f"  job_ms_p50   {m['job_ms_p50']:.2f} ms ({rec['jobs']} jobs)",
            f"  job_ms_tail  {m['job_ms_tail']:.2f} ms "
            f"(p{rec['tail_percentile']:.1f}, {rec['jobs']} jobs)",
            f"  failed_frac  {rec['failed_frac']:.4g} "
            f"({rec['failed']} of {rec['jobs']} jobs)",
            f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB",
        ]
    lines += [f"  check failed: {msg}" for msg in rec["messages"]]
    return lines


def write_record(rec, threads):
    out = os.path.join(CACHE, "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{rec['workload']}-seed{rec['seed']}-trace"
                             f"{rec['trace']}-threads{threads}.json")
    with open(path, "w") as fp:
        json.dump(rec, fp, indent=1, sort_keys=True)
    return path


def parse_args(argv):
    nproc = len(os.sched_getaffinity(0))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help=f"BLAS threads per process, 1..nproc ({nproc}); "
                        "1 gives the single-threaded baseline")
    args = p.parse_args(argv)
    if not 1 <= args.blas_threads <= nproc:
        p.error(f"--blas-threads must lie between 1 and nproc ({nproc})")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kreinrel", "__init__.py")):
        print(f"error: no kreinrel sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, args.seconds, args.trace,
                                args.blas_threads) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        print("\n".join(describe(rec)))
        print(f"  record: {write_record(rec, args.blas_threads)}")
    print("env: " + json.dumps({**records[0]["env"],
                                "commit": records[0]["commit"]}))
    prefix = len(records) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k): v
               for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["jobs"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
