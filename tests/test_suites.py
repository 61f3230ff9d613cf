"""Verification suite envelopes and canonical report serialization."""

import json
import math
from fractions import Fraction

import pytest

from cclab.suites import SUITES, canonical_report_json, run_suite
from test_cli import _run_optimized

# params that shrink each suite enough for a quick smoke pass; the full
# sizes run in test_acceptance.py
SMALL_PARAMS = {
    "gap-algebra": {"pairs": 25},
    "compiler": {"instances": 10},
    "amplifier-bounds": {"max_k": 2, "max_m": 2},
    "majority-amplify": {"sets": 4},
    "round-trip": {"instances": 25},
    "measures": {"sandwich_matrices": 4, "max_side": 4, "bound_grids": 2},
    "bp-operator": {"brute_steps": 20, "monotone_3x3": 2},
    "minimax": {"instances": 5},
    "pipeline": {},
}


# one bug per suite, planted at a binding of the suites module
PLANTED_BUGS = {
    "gap-algebra": (
        "make = suites.random_guess\n"
        "def random_guess(*args):\n"
        "    g = make(*args)\n"
        "    g.complement = lambda: g\n"
        "    return g\n"
        "suites.random_guess = random_guess\n"
    ),
    "compiler": (
        "suites.compile_polynomial = lambda protos, poly: protos[0].complement()\n"
    ),
    "amplifier-bounds": (
        "bounds = suites.verify_amplifier_bounds\n"
        "suites.verify_amplifier_bounds = lambda k, m, **kw:"
        " {**bounds(k, m, **kw), 'ok': False}\n"
    ),
    "majority-amplify": "suites.compile_majority = lambda protos: protos[0]\n",
    "round-trip": "suites.threshold_to_pp = lambda g, t: g.complement()\n",
    "measures": "suites.disc_mu = lambda A, mu: 0\n",
    "bp-operator": (
        "import dataclasses\n"
        "class BpGame(suites.BpGame):\n"
        "    def solve(self, f, eps):\n"
        "        return dataclasses.replace(super().solve(f, eps), value=-1)\n"
        "suites.BpGame = BpGame\n"
    ),
    "minimax": (
        "game = suites.minimax_error_check\n"
        "suites.minimax_error_check = lambda f, family:"
        " {**game(f, family), 'difference': 1}\n"
    ),
    "pipeline": (
        "suites.check_cost_discrepancy_bound = lambda f, g:"
        " {'lower_bound_holds': False}\n"
    ),
}


def test_registry_matches_param_table():
    assert sorted(SUITES) == sorted(SMALL_PARAMS) == sorted(PLANTED_BUGS)


@pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
def test_small_suite_passes(name):
    report = run_suite(name, seed=3, **SMALL_PARAMS[name])
    assert report["suite"] == name
    assert report["seed"] == 3
    assert report["status"] == "pass"
    assert report["failed"] == 0
    assert report["passed"] == report["case_count"] == len(report["cases"])
    assert report["case_count"] > 0
    ids = [case["id"] for case in report["cases"]]
    assert ids == sorted(ids)
    for case in report["cases"]:
        assert case["status"] == "pass"


@pytest.mark.parametrize("name", sorted(PLANTED_BUGS))
def test_planted_bug_fails_suite_under_python_O(name):
    proc = _run_optimized(
        "from cclab import suites\n"
        + PLANTED_BUGS[name]
        + f"report = suites.run_suite({name!r}, **{SMALL_PARAMS[name]!r})\n"
        "print(report['status'], report['failed'])\n"
    )
    assert proc.returncode == 0, proc.stderr
    status, failed = proc.stdout.split()
    assert status == "fail" and int(failed) > 0


def test_bp_values_one_too_high_fail_every_brute_case_under_python_O():
    # a value raised by 1 stays above the brute adversary's, so only the
    # check of the eps + grid resolution value against it can fail
    proc = _run_optimized(
        "import dataclasses\n"
        "from cclab import suites\n"
        "class BpGame(suites.BpGame):\n"
        "    def solve(self, f, eps):\n"
        "        result = super().solve(f, eps)\n"
        "        return dataclasses.replace(result, value=result.value + 1)\n"
        "suites.BpGame = BpGame\n"
        f"report = suites.run_suite('bp-operator', **{SMALL_PARAMS['bp-operator']!r})\n"
        "print(*(case['id'] for case in report['cases'] if case['status'] == 'fail'))\n"
    )
    assert proc.returncode == 0, proc.stderr
    brute = [case for case in proc.stdout.split() if case.startswith("brute-2x2-")]
    assert brute == [f"brute-2x2-{i:02d}" for i in range(16)]


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_params_are_recorded():
    report = run_suite("minimax", seed=9, instances=3)
    assert report["params"]["instances"] == 3


def test_canonical_json_rendering():
    report = {
        "b": Fraction(1, 3),
        "a": [Fraction(2), math.inf, -math.inf],
        "nested": {"z": 1, "frac": Fraction(-5, 7)},
    }
    text = canonical_report_json(report)
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["b"] == "1/3"
    assert data["a"] == ["2", "inf", "-inf"]
    assert data["nested"]["frac"] == "-5/7"
    # keys come out sorted
    assert list(data) == ["a", "b", "nested"]


def test_reports_are_byte_stable():
    first = canonical_report_json(run_suite("minimax", seed=11, instances=4))
    second = canonical_report_json(run_suite("minimax", seed=11, instances=4))
    assert first == second
    shifted = canonical_report_json(run_suite("minimax", seed=12, instances=4))
    assert shifted != first
