"""Compare the check reports of two source trees, field by field.

Runs, with each tree's package on PYTHONPATH,

    kreinrel check all --seed S --trials 100          for S in 7, 1, 123
    kreinrel check all --seed 7 --trials 20 --dims 16:32

and prints one line for every field of every report that differs between
the two trees, then a summary line.  Exits 0 when every report is
identical, 1 otherwise.  Not part of the test suite: the four runs take
a few minutes per tree.  Usage, with PARENT_SRC and CHANGE_SRC the
directories that hold each tree's ``kreinrel`` package:

    python tests/golden/compare_reports.py PARENT_SRC CHANGE_SRC
"""

import json
import os
import subprocess
import sys

RUNS = (
    ("seed 7", ["--seed", "7", "--trials", "100"]),
    ("seed 1", ["--seed", "1", "--trials", "100"]),
    ("seed 123", ["--seed", "123", "--trials", "100"]),
    ("seed 7, dims 16:32", ["--seed", "7", "--trials", "20",
                            "--dims", "16:32"]),
)


def reports(src, args):
    """{theorem_id: report dict} of one ``check all`` run against the
    package in ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-m", "kreinrel.cli", "check", "all", *args],
        env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1: some check failed
        raise SystemExit(f"{src}: check all {' '.join(args)} exited "
                         f"{done.returncode}\n{done.stderr}")
    return {r["theorem_id"]: r for r in json.loads(done.stdout)}


def differences(old, new):
    """(theorem_id, field, old value, new value) for every field that
    differs, a missing report or field reading None."""
    for tid in sorted(set(old) | set(new)):
        a, b = old.get(tid, {}), new.get(tid, {})
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                yield tid, key, a.get(key), b.get(key)


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    parent, change = argv
    count = 0
    for label, args in RUNS:
        for tid, key, old, new in differences(reports(parent, args),
                                              reports(change, args)):
            print(f"{label}: {tid}.{key}: {old!r} -> {new!r}")
            count += 1
    print(f"{count} differing field(s) over {len(RUNS)} runs")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
