"""Self-test of the output checkers: each accepts cclab's real answers
and rejects a planted wrong one.

    python3 perfbench/test_checks.py        # or: python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from cclab import measures, pipeline, randomized, suites  # noqa: E402
from cclab.matrices import BooleanMatrix, InputDistribution  # noqa: E402


def rejects(check, *args, **kwargs) -> None:
    try:
        check(*args, **kwargs)
    except checks.CheckFailed:
        return
    raise AssertionError(f"{check.__name__} accepted a planted wrong answer")


def moved(dist: InputDistribution, step: Fraction, source, target) -> InputDistribution:
    grid = [list(row) for row in dist.weights]
    grid[source[0]][source[1]] -= step
    grid[target[0]][target[1]] += step
    return InputDistribution.from_weights(grid)


def test_disc_checker() -> None:
    H2 = workloads.sylvester(2)
    result = measures.disc(H2)
    checks.check_disc(H2.entries, result, Fraction(1, 3))
    weights = result.distribution.weights
    heavy = max(
        ((x, y) for x in range(2) for y in range(2)), key=lambda c: weights[c[0]][c[1]]
    )
    light = min(
        ((x, y) for x in range(2) for y in range(2)), key=lambda c: weights[c[0]][c[1]]
    )
    step = Fraction(1, 24)
    rejects(
        checks.check_disc,
        H2.entries,
        replace(result, distribution=moved(result.distribution, step, heavy, light)),
    )
    rejects(checks.check_disc, H2.entries, replace(result, value=result.value + step))
    rejects(checks.check_disc, H2.entries, result, Fraction(1, 4))
    # A genuine certificate of a value that is not the minimum: the uniform
    # distribution and its own best rectangle.  Only the LP catches it.
    uniform = InputDistribution.uniform(2, 2)
    value, witness = measures.best_rectangle(H2, uniform)
    rejects(
        checks.check_disc,
        H2.entries,
        SimpleNamespace(value=value, distribution=uniform, witness=witness),
    )
    negative = SimpleNamespace(
        value=result.value,
        distribution=SimpleNamespace(weights=((Fraction(-1, 3), Fraction(2, 3)), (Fraction(1, 3), Fraction(1, 3)))),
        witness=result.witness,
    )
    rejects(checks.check_disc, H2.entries, negative)


def _values(rows: int, cols: int) -> list[int]:
    return checks.candidate_values(rows, cols, lambda g: sum(map(sum, g)))


def test_bp_checker_agrees_with_grid_adversary() -> None:
    count = measures.entry_count_measure()
    values = _values(2, 2)
    for mask in range(16):
        f = BooleanMatrix.from_rows([[mask >> (2 * x + y) & 1 for y in range(2)] for x in range(2)])
        previous = None
        for eps in workloads.EPS_LADDER:
            result = measures.bp_measure(count, f, eps)
            checks.check_bp(f.entries, eps, result, values, previous, grid_check=True)
            previous = result


def test_bp_checker_rejects() -> None:
    count = measures.entry_count_measure()
    ones = BooleanMatrix.from_rows([(1, 1), (1, 1)])
    values = _values(2, 2)
    eps = Fraction(1, 4)
    result = measures.bp_measure(count, ones, eps)
    checks.check_bp(ones.entries, eps, result, values)
    rejects(checks.check_bp, ones.entries, eps, replace(result, value=result.value + 1), values)
    # Value 2 with a self-consistent certificate: mu on the top row pushes
    # every candidate with fewer than two ones away and keeps [[1,1],[0,0]]
    # within eps.  The uniform adversary beats it, which the LP finds.
    half = Fraction(1, 2)
    planted = SimpleNamespace(
        value=2,
        distribution=SimpleNamespace(weights=((half, half), (0, 0))),
        matrix=BooleanMatrix.from_rows([(1, 1), (0, 0)]),
    )
    rejects(checks.check_bp, ones.entries, eps, planted, values)
    if checks.grid_adversary(ones.entries, eps, values) != 3:
        raise AssertionError("the grid adversary missed the uniform distribution")
    at_zero = measures.bp_measure(count, ones, Fraction(0))
    rejects(checks.check_bp, ones.entries, Fraction(0), replace(at_zero, value=3, matrix=result.matrix), values)
    rejects(checks.check_bp, ones.entries, eps, result, values, previous=SimpleNamespace(value=2))


def test_mc_checker() -> None:
    H2 = workloads.sylvester(2)
    real = measures.mc(H2)
    checks.check_mc(H2.entries, real, Fraction(1, 3), hadamard_n=2)
    rejects(checks.check_mc, H2.entries, replace(real, value=real.value * 1.01))
    shrunk = tuple(tuple(0.9 * v for v in row) for row in real.row_vectors)
    rejects(checks.check_mc, H2.entries, replace(real, row_vectors=shrunk, value=real.value * 0.9))
    grown = tuple(tuple(2 * v for v in row) for row in real.row_vectors)
    rejects(checks.check_mc, H2.entries, replace(real, row_vectors=grown, value=real.value * 2), hadamard_n=2)
    rejects(checks.check_mc, H2.entries, real, Fraction(1, 100))


def test_amplify_checker() -> None:
    rp, target = suites.error_third_protocol()
    for t, tail in ((3, Fraction(7, 27)), (5, Fraction(17, 81)), (7, Fraction(379, 2187))):
        if checks.binomial_tail(t, Fraction(1, 3)) != tail:
            raise AssertionError(f"binomial tail at t={t}")
    t = 3
    error = randomized.amplify(rp, t).error(target)
    bound = randomized.majority_success_bound(Fraction(1, 6), t)
    checks.check_amplified_error(error, t, bound)
    rejects(checks.check_amplified_error, error + Fraction(1, 3**t), t, bound)
    rejects(checks.check_amplified_error, error, t, 1 - error + Fraction(1, 3**t))


def test_majority_checker() -> None:
    members = workloads._member_sets(seed=1)[0]
    op = workloads._majority_op(members)
    decided = op.run()
    op.check(decided, {})
    flipped = [list(row) for row in decided.entries]
    flipped[0][0] ^= 1
    grids = [
        checks.member_acceptance([m.root for m in g.member_tuple], 3, 3) for g in members
    ]
    rejects(checks.check_majority, flipped, grids)


def test_pipeline_checker() -> None:
    rphi, target = pipeline.boundary_fixture()
    errors = pipeline.run_pipeline(rphi, target).report["per_input_error"]
    checks.check_pipeline_errors(errors, rphi.support, target.entries)
    planted = [list(row) for row in errors]
    planted[3][3] += Fraction(1, 3)
    rejects(checks.check_pipeline_errors, planted, rphi.support, target.entries)


def test_relabelled_members_keep_their_costs() -> None:
    from cclab.protocols import pp_cost

    for a, b in zip(workloads._member_sets(1), workloads._member_sets(2)):
        if sorted(map(pp_cost, a)) != sorted(map(pp_cost, b)):
            raise AssertionError("relabelling changed a member cost")


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} checker self-tests passed")
