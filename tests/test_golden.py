"""Behaviour lock: every theorem check keeps the recorded pass/fail
outcome and trial count at the recorded seeds, and ``weyl_sweep`` the
recorded integer columns on the recorded pairs and grids, and every
demo its recorded standard output.  The records are written by
``tests/golden/make_golden.py``; residuals are not part of them, and
rounding-level text in the demos' output is masked."""

import json

import pytest

from golden import make_golden
from kreinrel.checks import THEOREM_IDS

_RECORD = json.loads(make_golden.OUTCOMES.read_text())


def test_record_covers_every_id_at_the_generator_settings():
    assert _RECORD["trials"] == make_golden.TRIALS
    assert tuple(_RECORD["dims"]) == make_golden.DIMS
    assert sorted(_RECORD["seeds"]) == sorted(map(str, make_golden.SEEDS))
    for per_id in _RECORD["seeds"].values():
        assert sorted(per_id) == sorted(THEOREM_IDS)


@pytest.mark.parametrize("seed", make_golden.SEEDS)
def test_check_outcomes_match_the_record(seed):
    assert make_golden.outcomes(seed) == _RECORD["seeds"][str(seed)]


_SWEEPS = json.loads(make_golden.SWEEPS.read_text())


@pytest.fixture(scope="module")
def sweep_pairs():
    return make_golden.sweep_pairs()


def test_sweep_record_covers_every_pair(sweep_pairs):
    assert sorted(_SWEEPS) == sorted(sweep_pairs)


@pytest.mark.parametrize("label", sorted(_SWEEPS))
def test_sweep_columns_match_the_record(sweep_pairs, label):
    assert make_golden.sweep_columns(sweep_pairs[label]) == _SWEEPS[label]


_DEMO_STDOUT = json.loads(make_golden.DEMO_STDOUT.read_text())


def test_demo_record_covers_every_demo():
    assert sorted(_DEMO_STDOUT) == [demo.name for demo in make_golden.DEMOS]


@pytest.mark.parametrize("demo", make_golden.DEMOS, ids=lambda p: p.name)
def test_demo_stdout_matches_the_record(demo):
    assert make_golden.demo_stdout(demo) == _DEMO_STDOUT[demo.name]
