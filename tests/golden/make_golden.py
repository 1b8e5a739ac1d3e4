"""Write ``check_outcomes.json``: the pass/fail record that
``tests/test_golden.py`` holds the 29 theorem checks to.

For each seed in SEEDS and each theorem id, it stores the ``failures``
and ``trials`` of ``check_theorem(id, trials=TRIALS, dims=DIMS,
seed=seed)``.  Residuals are left out: a change that moves one at
rounding level is not a change of behaviour.  Regenerate only for a
deliberate behaviour change, and name the change in CHANGES.md:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

import json
from pathlib import Path

from kreinrel.checks import THEOREM_IDS, check_theorem

SEEDS = (7, 1, 123)
TRIALS = 20
DIMS = (1, 4)
OUTCOMES = Path(__file__).with_name("check_outcomes.json")


def outcomes(seed):
    """{id: {"failures": f, "trials": t}} at one seed."""
    reports = (check_theorem(tid, trials=TRIALS, dims=DIMS, seed=seed)
               for tid in THEOREM_IDS)
    return {r.theorem_id: {"failures": r.failures, "trials": r.trials}
            for r in reports}


def main():
    record = {"trials": TRIALS, "dims": list(DIMS),
              "seeds": {str(s): outcomes(s) for s in SEEDS}}
    OUTCOMES.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
