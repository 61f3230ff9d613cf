"""Acceptance gate: the nine verification suites at full size plus report
determinism, each against its runtime budget.

Every test runs one suite exactly as `cclab verify --seed 0` would, checks
its params block and headline values that were computed independently,
and asserts the wall-clock budget.
"""

import math
import time
from fractions import Fraction

from cclab.suites import SUITES, canonical_report_json, run_suite


# each suite's params block at seed 0 and full size; the sizes a suite
# fixes inside itself are pinned here, so none of them drifts silently
PARAMS_AT_SEED_0 = {
    "gap-algebra": {"pairs": 1000, "rows": 4, "cols": 4},
    "compiler": {"instances": 200, "rows": 3, "cols": 3, "semantic_checked": 40},
    "amplifier-bounds": {
        "max_k": 4,
        "max_m": 4,
        "full_grid_limit": 200_000,
        "sampled_budget": 20_000,
    },
    "majority-amplify": {"sets": 50},
    "round-trip": {"instances": 500},
    "measures": {
        "sandwich_matrices": 100,
        "max_side": 5,
        "bound_grids": 8,
        "grid_steps": 12,
    },
    "bp-operator": {"brute_steps": 100, "monotone_3x3": 20},
    "minimax": {"instances": 50, "pool_size": 34},
    "pipeline": {},
}


def _run(name, budget):
    start = time.perf_counter()
    report = run_suite(name, seed=0)
    elapsed = time.perf_counter() - start
    print(f"{name}: {report['passed']}/{report['case_count']} in {elapsed:.2f}s")
    assert report["params"] == PARAMS_AT_SEED_0[name]
    assert report["status"] == "pass", [
        c for c in report["cases"] if c["status"] != "pass"
    ][:3]
    assert report["failed"] == 0
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"
    return report


def _case(report, case_id):
    return next(c for c in report["cases"] if c["id"] == case_id)


def test_every_suite_pins_its_params():
    assert sorted(PARAMS_AT_SEED_0) == sorted(SUITES)


def test_criterion_01_gap_algebra():
    report = _run("gap-algebra", budget=10)
    assert report["case_count"] == 1000


def test_criterion_02_compiler():
    report = _run("compiler", budget=60)
    assert report["case_count"] == 200


def test_criterion_03_amplifier_bounds():
    report = _run("amplifier-bounds", budget=120)
    # one case per (k, m) pair up to 4
    assert report["case_count"] == 16


def test_criterion_04_majority_amplify():
    report = _run("majority-amplify", budget=120)
    assert _case(report, "amplify-base")["error"] == Fraction(1, 3)
    t3 = _case(report, "amplify-t3")
    assert t3["measured_error"] == Fraction(7, 27)
    assert t3["error_bound"] == 0.41902624070313926
    assert t3["measured_error"] <= t3["error_bound"]
    t5 = _case(report, "amplify-t5")
    assert t5["measured_error"] == Fraction(17, 81)
    assert t5["measured_error"] <= t5["error_bound"] == 0.3724677695139016


def test_criterion_05_round_trip():
    report = _run("round-trip", budget=10)
    assert report["case_count"] == 500


def test_criterion_06_measures():
    report = _run("measures", budget=300)
    parity = _case(report, "disc-parity")
    assert parity["value"] == Fraction(1, 4)
    assert parity["grid_minimum"] == Fraction(1, 4)
    hadamard = _case(report, "mc-hadamard")
    assert abs(hadamard["value"] - math.sqrt(2)) / math.sqrt(2) < 0.05
    assert sum(1 for c in report["cases"] if c["id"].startswith("sandwich-")) == 100
    assert sum(1 for c in report["cases"] if c["id"].startswith("cost-bound-")) == 8


def test_criterion_07_bp_operator():
    report = _run("bp-operator", budget=300)
    assert _case(report, "worked-example")["value"] == 2
    assert sum(1 for c in report["cases"] if c["id"].startswith("brute-")) >= 16


def test_criterion_08_minimax():
    report = _run("minimax", budget=60)
    assert report["case_count"] == 50
    for case in report["cases"]:
        assert isinstance(case["value"], Fraction)


def test_criterion_09_pipeline():
    report = _run("pipeline", budget=30)
    assert _case(report, "fixture-or")["max_error"] == 0
    assert _case(report, "fixture-and")["max_error"] == 0
    assert _case(report, "fixture-boundary")["max_error"] == Fraction(1, 3)


def test_criterion_10_deterministic_reports():
    for name, params in (("minimax", {"instances": 10}), ("pipeline", {})):
        first = canonical_report_json(run_suite(name, seed=17, **params))
        second = canonical_report_json(run_suite(name, seed=17, **params))
        assert first == second
        assert first.endswith("\n")
    print("deterministic reports: byte-identical on rerun")
