"""Seeded verification suites with canonical, reproducible reports.

Each suite draws its instances from a single seeded generator, checks the
properties its name promises, and returns a report listing every case in
order.  Every case runs in one runner, `with _case(cases, case_id,
**extra) as case:`, which appends the case record; the block states the
case's properties with `invariants.check`, so they hold under `python -O`
too.  Failures never abort a suite: a failed check inside the block marks
the case failed with the check's message as its witness and the
envelope's status flips, so a report is produced either way.  Serializing
a report with `canonical_report_json` is byte-stable for a fixed (suite,
seed, parameters) triple.

A suite's keyword parameters set how many instances it draws (`pairs`,
`instances`, `sets`, `sandwich_matrices`, `bound_grids`, `monotone_3x3`),
how large they get (`max_k` and `max_m` of `amplifier-bounds`, `max_side`
of `measures`) and how fine `bp-operator`'s brute-force grid is
(`brute_steps`).  Domain shapes, grid budgets and the parity grid's
resolution are fixed inside each suite; a report's `params` records both.
"""

from __future__ import annotations

import json
import math
import random
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Iterator, Optional

import numpy as np

from ._version import __version__
from .compilers import (
    compile_majority,
    compile_polynomial,
    majority_cost_bound,
    majority_guess_bound,
    polynomial_cost_bound,
    polynomial_guess_bound,
)
from .invariants import check
from .majority import majority_form, verify_amplifier_bounds
from .matrices import (
    BooleanMatrix,
    InputDistribution,
    SignMatrix,
    all_boolean_matrices,
)
from .measures import (
    BpGame,
    check_cost_discrepancy_bound,
    check_margin_discrepancy_sandwich,
    disc,
    disc_mu,
    entry_count_measure,
    mc,
)
from .pipeline import (
    and_fixture,
    boundary_fixture,
    cell_polynomial,
    counting_protocol,
    or_fixture,
    row_flipped_identities,
    run_pipeline,
)
from .polynomials import IntPolynomial, format_polynomial
from .protocols import (
    ALICE,
    BOB,
    DeterministicProtocol,
    GuessProtocol,
    Leaf,
    MemberProtocols,
    Node,
    OutputLeaf,
    Tree,
    dumps_protocol,
    enumerate_protocols,
    grid_protocol,
    loads_protocol,
    normalize_nonzero,
    pp_cost,
    pp_eval,
    pp_matrix,
    pp_to_threshold,
    threshold_to_pp,
    wrap_deterministic,
)
from .randomized import (
    RandomizedPPProtocol,
    amplify,
    majority_success_bound,
    minimax_error_check,
    uniform_support,
)

SuiteFn = Callable[..., dict]


# ---------------------------------------------------------------------------
# seeded generators


def random_tree(
    rng: random.Random,
    rows: int,
    cols: int,
    depth: int,
    allow_output: bool = True,
) -> Tree:
    """A random protocol tree of depth at most `depth`."""
    if depth <= 0 or rng.random() < 0.3:
        if allow_output and rng.random() < 0.5:
            speaker = ALICE if rng.random() < 0.5 else BOB
            size = rows if speaker == ALICE else cols
            return OutputLeaf(speaker, tuple(rng.randrange(2) for _ in range(size)))
        return Leaf(rng.randrange(2))
    speaker = ALICE if rng.random() < 0.5 else BOB
    size = rows if speaker == ALICE else cols
    table = tuple(rng.randrange(2) for _ in range(size))
    return Node(
        speaker,
        table,
        random_tree(rng, rows, cols, depth - 1, allow_output),
        random_tree(rng, rows, cols, depth - 1, allow_output),
    )


def random_members(
    rng: random.Random,
    rows: int,
    cols: int,
    max_members: int = 3,
    max_depth: int = 2,
    allow_output: bool = True,
) -> MemberProtocols:
    count = rng.randrange(1, max_members + 1)
    return MemberProtocols(
        tuple(
            DeterministicProtocol(
                rows,
                cols,
                random_tree(rng, rows, cols, rng.randrange(max_depth + 1), allow_output),
            )
            for _ in range(count)
        )
    )


def random_guess(rng: random.Random, rows: int, cols: int) -> GuessProtocol:
    """A random guess protocol, one algebra node deep with chance 0.3."""
    base = random_members(rng, rows, cols)
    if rng.random() >= 0.3:
        return base
    op = rng.randrange(4)
    if op == 0:
        return base.complement()
    if op == 1:
        return base + random_members(rng, rows, cols)
    if op == 2:
        return base * random_members(rng, rows, cols)
    return base.repeat(rng.randrange(2, 4))


def random_boolean_matrix(rng: random.Random, rows: int, cols: int) -> BooleanMatrix:
    return BooleanMatrix(
        rows,
        cols,
        tuple(tuple(rng.randrange(2) for _ in range(cols)) for _ in range(rows)),
    )


def random_sign_matrix(rng: random.Random, rows: int, cols: int) -> SignMatrix:
    return SignMatrix(
        rows,
        cols,
        tuple(
            tuple(1 if rng.randrange(2) else -1 for _ in range(cols))
            for _ in range(rows)
        ),
    )


def random_polynomial(rng: random.Random, nvars: int) -> IntPolynomial:
    """Random nonzero polynomial of 1 to 4 distinct monomials, each of
    degree at most 3 with a coefficient of magnitude 1 to 5; the monomials
    are distinct, so the magnitudes stay within 5 after canonicalization."""
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randrange(1, 5)):
        exps = [0] * nvars
        for _ in range(rng.randrange(0, 4)):
            exps[rng.randrange(nvars)] += 1
        key = tuple(exps)
        if key not in terms:
            terms[key] = rng.choice([c for c in range(-5, 6) if c])
    return IntPolynomial(nvars, terms)


def error_third_protocol() -> tuple[RandomizedPPProtocol, BooleanMatrix]:
    """Three uniform grid protocols of the `row_flipped_identities`.

    Inputs in rows 0 to 2 are misdecided by exactly one member, so their
    error is exactly 1/3; row 3 is error free.  The worst-case error sits
    exactly at the amplification threshold.
    """
    target, grids = row_flipped_identities()
    members = [wrap_deterministic(grid_protocol(4, 4, g.entries)) for g in grids]
    return uniform_support(members), target


# ---------------------------------------------------------------------------
# report plumbing


def _jsonable(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int) or isinstance(value, str):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def canonical_report_json(report: dict) -> str:
    """Byte-stable serialization: sorted keys, Fractions as p/q strings."""
    return json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


@contextmanager
def _case(cases: list, case_id: str, **extra) -> Iterator[dict]:
    """Append a passing case record and yield it; a failed check in the
    block marks the case failed, with the check's message as witness."""
    case = {"id": case_id, "status": "pass", **extra}
    cases.append(case)
    try:
        yield case
    except AssertionError as why:
        case["status"] = "fail"
        case["witness"] = str(why)


# ---------------------------------------------------------------------------
# suites


def suite_gap_algebra(seed: int = 0, pairs: int = 1000) -> dict:
    """Complement, sum, and product gap identities on 4x4 protocols, both
    at the algebra level and against a recount over the materialized
    member trees."""
    rng = random.Random(seed)
    rows = cols = 4
    cases = []
    for i in range(pairs):
        g1 = random_guess(rng, rows, cols)
        g2 = random_guess(rng, rows, cols)
        with _case(cases, f"pair-{i:04d}"):
            negated = tuple(tuple(-v for v in row) for row in g1.gap)
            added = tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(g1.gap, g2.gap)
            )
            multiplied = tuple(
                tuple(a * b for a, b in zip(r1, r2))
                for r1, r2 in zip(g1.gap, g2.gap)
            )
            comp, total, prod = g1.complement(), g1 + g2, g1 * g2
            check(comp.gap == negated, "gap(complement) = -gap")
            check(total.gap == added, "gap(sum) = gap + gap")
            check(prod.gap == multiplied, "gap(product) = gap * gap")
            for label, g in (("complement", comp), ("sum", total), ("product", prod)):
                check(
                    g.flatten().gap == g.gap,
                    f"{label}: member recount disagrees with the algebra",
                )
    return {"params": {"pairs": pairs, "rows": rows, "cols": cols}, "cases": cases}


def suite_compiler(seed: int = 0, instances: int = 200) -> dict:
    """Polynomial compilation on 3x3 protocols: exact gap agreement plus
    guess and cost bounds; the first 40 instances of at most 800 guesses
    are also flattened and recounted member by member."""
    rng = random.Random(seed)
    rows = cols = 3
    cases = []
    semantic_done = 0
    for i in range(instances):
        k = rng.randrange(1, 4)
        protos = [
            random_members(rng, rows, cols, max_members=4, allow_output=False)
            for _ in range(k)
        ]
        poly = random_polynomial(rng, k)
        with _case(
            cases,
            f"instance-{i:03d}",
            arity=k,
            polynomial=format_polynomial(poly),
        ) as case:
            compiled = compile_polynomial(protos, poly)
            for x in range(rows):
                for y in range(cols):
                    gaps = tuple(p.gap[x][y] for p in protos)
                    expected = poly.evaluate(gaps)
                    check(
                        compiled.gap[x][y] == expected,
                        f"gap {compiled.gap[x][y]} != p(gaps) {expected} at ({x},{y})",
                    )
            l_max = max(p.guess_count for p in protos)
            c_max = max(p.max_depth for p in protos)
            guesses = compiled.guess_count
            bound = polynomial_guess_bound(poly, l_max)
            check(guesses <= bound, f"guess count {guesses} > bound {bound}")
            cost = pp_cost(compiled)
            cost_bound = polynomial_cost_bound(poly, l_max, c_max)
            check(cost <= cost_bound, f"cost {cost} > bound {cost_bound}")
            case["guesses"] = guesses
            case["pp_cost"] = cost
            if semantic_done < 40 and guesses <= 800:
                check(compiled.flatten().gap == compiled.gap, "member recount")
                semantic_done += 1
                case["semantic"] = True
    return {
        "params": {
            "instances": instances,
            "rows": rows,
            "cols": cols,
            "semantic_checked": semantic_done,
        },
        "cases": cases,
    }


def suite_amplifier_bounds(seed: int = 0, max_k: int = 4, max_m: int = 4) -> dict:
    """Degree, coefficient, window, and sign checks for the full
    amplifier family grid; a sign grid of more than 200,000 points falls
    back to 20,000 seeded samples."""
    cases = []
    full_grid_limit, sampled_budget = 200_000, 20_000
    for k in range(1, max_k + 1):
        for m in range(1, max_m + 1):
            points = (2 * 2**m) ** k
            budget = full_grid_limit if points <= full_grid_limit else sampled_budget
            report = verify_amplifier_bounds(k, m, grid_budget=budget, seed=seed)
            with _case(
                cases,
                f"k{k}-m{m}",
                sign_points=report["majority"]["sign_points_checked"],
                sign_sampled=report["majority"]["sign_sampled"],
                expanded_within_bound=report["majority"]["expanded_within_bound"],
            ):
                check(report["ok"], json.dumps(_jsonable(report["violations"][:3])))
    return {
        "params": {
            "max_k": max_k,
            "max_m": max_m,
            "full_grid_limit": full_grid_limit,
            "sampled_budget": sampled_budget,
        },
        "cases": cases,
    }


def suite_majority_amplify(seed: int = 0, sets: int = 50) -> dict:
    """Majority compilation against pointwise majority and the compiler's
    guess and cost bounds, then error decay of the boundary fixture under
    3- and 5-fold amplification."""
    rng = random.Random(seed)
    cases = []
    for i in range(sets):
        k = 3 if rng.random() < 0.5 else 5
        protos = [random_members(rng, 2, 2, max_members=2, max_depth=1) for _ in range(k)]
        with _case(cases, f"majority-{i:02d}", arity=k) as case:
            maj = compile_majority(protos)
            grids = [pp_matrix(g).entries for g in protos]
            for x in range(2):
                for y in range(2):
                    want = 1 if 2 * sum(grid[x][y] for grid in grids) > k else 0
                    got = pp_eval(maj, x, y)
                    check(got == want, f"majority at ({x},{y}): {got} != {want}")
            # the bounds take guess counts and depths of the normalized members
            normalized = [normalize_nonzero(g) for g in protos]
            guesses = max(g.guess_count for g in normalized)
            depth = max(g.max_depth for g in normalized)
            form = majority_form(k, max(pp_cost(g) for g in normalized))
            check(maj.guess_count <= majority_guess_bound(form, guesses), "guess bound")
            check(pp_cost(maj) <= majority_cost_bound(form, guesses, depth), "cost bound")
            case["pp_cost"] = pp_cost(maj)
            case["guess_digits"] = len(str(maj.guess_count))

    rp, target = error_third_protocol()
    base_error = rp.error(target)
    with _case(cases, "amplify-base", error=base_error):
        check(base_error == Fraction(1, 3), f"fixture error {base_error} != 1/3")
    for t in (3, 5):
        with _case(cases, f"amplify-t{t}") as case:
            amped = amplify(rp, t)
            measured = amped.error(target)
            bound = 1 - majority_success_bound(Fraction(1, 6), t)
            check(measured <= bound, f"error {measured} above bound {float(bound)}")
            case["measured_error"] = measured
            case["error_bound"] = float(bound)
            case["support_size"] = len(amped.support)
    return {"params": {"sets": sets}, "cases": cases}


def suite_round_trip(seed: int = 0, instances: int = 500) -> dict:
    """Threshold reading composed with threshold thresholding preserves
    the counting-accepted set, input by input."""
    rng = random.Random(seed)
    cases = []
    for i in range(instances):
        rows = rng.randrange(2, 5)
        cols = rng.randrange(2, 5)
        g = random_members(rng, rows, cols, max_members=4)
        with _case(cases, f"instance-{i:03d}"):
            acc, threshold = pp_to_threshold(g)
            rebuilt = threshold_to_pp(g, threshold)
            before = pp_matrix(g)
            after = pp_matrix(rebuilt)
            check(after.entries == before.entries, "accepted set changed")
            implied = tuple(
                tuple(1 if acc[x][y] > threshold else 0 for y in range(cols))
                for x in range(rows)
            )
            check(implied == before.entries, "threshold reading disagrees")
            check(
                loads_protocol(dumps_protocol(g)).member_tuple
                == g.flatten().member_tuple,
                "serialization round trip changed the protocol",
            )
    return {"params": {"instances": instances}, "cases": cases}


def _simplex_grid(cells: int, steps: int) -> np.ndarray:
    """All nonnegative integer vectors of the given length summing to
    steps, one per row in lexicographic order: the brute-force grid, in
    units of 1/steps."""
    axes = [np.arange(steps + 1)] * (cells - 1)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, cells - 1)
    keep = mesh.sum(axis=1) <= steps
    partial = mesh[keep]
    last = steps - partial.sum(axis=1, keepdims=True)
    return np.hstack([partial, last])


def suite_measures(
    seed: int = 0,
    sandwich_matrices: int = 100,
    max_side: int = 5,
    bound_grids: int = 8,
) -> dict:
    """Exact discrepancy worked examples (parity's also against a search
    of the 1/12 grid), the margin optimizer against its known optimum,
    the factor-eight sandwich in bulk, and the cost lower bound on
    protocols built from cell decompositions."""
    rng = random.Random(seed)
    grid_steps = 12
    cases = []

    parity = SignMatrix.from_rows([[1, -1], [-1, 1]])
    with _case(cases, "disc-parity") as case:
        result = disc(parity)
        check(result.value == Fraction(1, 4), f"disc {result.value} != 1/4")
        uniform = InputDistribution.uniform(2, 2)
        check(disc_mu(parity, uniform) == Fraction(1, 4), "uniform disc_mu")
        grid_best: Optional[Fraction] = None
        for comp in _simplex_grid(4, grid_steps).tolist():
            weights = tuple(Fraction(c, grid_steps) for c in comp)
            mu = InputDistribution(2, 2, (weights[:2], weights[2:]))
            value = disc_mu(parity, mu)
            if grid_best is None or value < grid_best:
                grid_best = value
        check(grid_best == Fraction(1, 4), f"grid search found {grid_best}")
        case["value"] = result.value
        case["grid_minimum"] = grid_best

    hadamard = SignMatrix.from_rows([[1, 1], [1, -1]])
    with _case(cases, "mc-hadamard") as case:
        realization = mc(hadamard)
        target = math.sqrt(2.0)
        check(
            abs(realization.value - target) / target < 0.05,
            f"mc {realization.value} off sqrt(2) by more than 5%",
        )
        check(realization.check(hadamard), "realization infeasible")
        case["value"] = realization.value

    for i in range(sandwich_matrices):
        rows = rng.randrange(1, max_side + 1)
        cols = rng.randrange(1, max_side + 1)
        A = random_sign_matrix(rng, rows, cols)
        with _case(cases, f"sandwich-{i:03d}", shape=f"{rows}x{cols}") as case:
            report = check_margin_discrepancy_sandwich(A)
            case["disc"] = report["disc"]
            case["mc_upper_bound"] = report["mc_upper_bound"]
            case["product"] = report["product"]

    for i in range(bound_grids):
        rows = rng.randrange(2, 5)
        cols = rng.randrange(2, 5)
        f = random_boolean_matrix(rng, rows, cols)
        with _case(cases, f"cost-bound-{i:02d}", shape=f"{rows}x{cols}") as case:
            g = threshold_to_pp(*counting_protocol(cell_polynomial(f)))
            report = check_cost_discrepancy_bound(f, g)
            case["disc_prime"] = report["disc_prime"]
            case["pp_cost_closed"] = report["pp_cost_closed"]

    return {
        "params": {
            "sandwich_matrices": sandwich_matrices,
            "max_side": max_side,
            "bound_grids": bound_grids,
            "grid_steps": grid_steps,
        },
        "cases": cases,
    }


def suite_bp_operator(
    seed: int = 0,
    brute_steps: int = 100,
    monotone_3x3: int = 20,
) -> dict:
    """The perturbation operator: eps = 0 identity, monotonicity in eps,
    agreement with a brute-force grid adversary, and the worked example."""
    rng = random.Random(seed)
    lam = entry_count_measure()
    eps_values = tuple(map(Fraction, ("0", "1/8", "1/4", "1/2", "1")))
    cases = []
    games = {shape: BpGame(lam, *shape) for shape in ((2, 2), (3, 3))}

    for rows, cols in ((2, 2), (3, 3)):
        with _case(cases, f"eps0-{rows}x{cols}") as case:
            checked = 0
            for f in all_boolean_matrices(rows, cols):
                value = games[rows, cols].solve(f, Fraction(0)).value
                check(
                    value == f.count_ones(),
                    f"eps=0 value {value} != {f.count_ones()} on {f.entries}",
                )
                checked += 1
            case["matrices"] = checked

    grid = _simplex_grid(4, brute_steps) / brute_steps
    two_by_two = list(all_boolean_matrices(2, 2))
    candidates = sorted(two_by_two, key=BooleanMatrix.count_ones)
    candidate_bits = np.array(
        [[v for row in cand.entries for v in row] for cand in candidates]
    )
    lam_values = [float(cand.count_ones()) for cand in candidates]
    for index, f in enumerate(two_by_two):
        with _case(cases, f"brute-2x2-{index:02d}") as case:
            f_bits = np.array([v for row in f.entries for v in row])
            diff = (candidate_bits != f_bits).astype(float)
            # reach[j]: the largest, over grid distributions, of the least
            # mass on which one of the j + 1 cheapest candidates differs from f
            reach = np.minimum.accumulate(grid @ diff.T, axis=1).max(axis=0)
            values = []
            for eps in eps_values:
                exact = games[2, 2].solve(f, eps).value
                # every grid distribution finds one of the first j + 1
                # candidates within eps exactly when reach[j] is within eps
                within = np.flatnonzero(reach <= float(eps) + 1e-12)
                brute = lam_values[within[0]] if within.size else math.inf
                slack = games[2, 2].solve(
                    f, min(Fraction(1), eps + Fraction(11, 1000))
                ).value
                check(brute <= exact + 1e-9, f"brute {brute} above exact {exact}")
                check(
                    slack <= brute + 1e-9,
                    f"brute {brute} below the eps+resolution value {slack}",
                )
                values.append(exact)
            for earlier, later in zip(values, values[1:]):
                check(later <= earlier, f"not monotone: {values}")
            case["values"] = values

    for i in range(monotone_3x3):
        f = random_boolean_matrix(rng, 3, 3)
        with _case(cases, f"monotone-3x3-{i:02d}") as case:
            values = [games[3, 3].solve(f, eps).value for eps in eps_values]
            for earlier, later in zip(values, values[1:]):
                check(later <= earlier, f"not monotone: {values}")
            case["values"] = values

    with _case(cases, "worked-example") as case:
        identity = BooleanMatrix.from_rows([(1, 0), (0, 1)])
        result = games[2, 2].solve(identity, Fraction(1, 4))
        check(result.value == 2, f"worked example value {result.value} != 2")
        half = Fraction(1, 2)
        expected = ((half, Fraction(0)), (Fraction(0), half))
        check(
            result.distribution.weights == expected,
            f"witness distribution {result.distribution.weights}",
        )
        case["value"] = result.value

    return {
        "params": {"brute_steps": brute_steps, "monotone_3x3": monotone_3x3},
        "cases": cases,
    }


def suite_minimax(seed: int = 0, instances: int = 50) -> dict:
    """Primal and dual values of the error game agree exactly on seeded
    families drawn from the depth-1 protocol enumeration."""
    rng = random.Random(seed)
    pool = [wrap_deterministic(p) for p in enumerate_protocols(2, 2, 1)]
    cases = []
    for i in range(instances):
        f = random_boolean_matrix(rng, 2, 2)
        family = rng.sample(pool, rng.randrange(3, 9))
        with _case(cases, f"instance-{i:02d}", family_size=len(family)) as case:
            report = minimax_error_check(f, family)
            check(report["difference"] == 0, "primal and dual differ")
            case["value"] = report["value"]
    return {"params": {"instances": instances, "pool_size": len(pool)}, "cases": cases}


def suite_pipeline(seed: int = 0) -> dict:
    """The fixture pipelines end to end: exact error levels, acceptance
    grids, and the cost lower bound for every member protocol."""
    cases = []
    fixtures = (
        ("and", and_fixture, Fraction(0)),
        ("or", or_fixture, Fraction(0)),
        ("boundary", boundary_fixture, Fraction(1, 3)),
    )
    for name, build, expected_error in fixtures:
        with _case(cases, f"fixture-{name}") as case:
            rphi, target = build()
            result = run_pipeline(rphi, target)
            measured = result.report["max_error"]
            check(
                measured == expected_error, f"max error {measured} != {expected_error}"
            )
            if expected_error == 0:
                decided = pp_matrix(result.protocol.support[0][0])
                check(decided.entries == target.entries, "acceptance grid differs")
            for member, _ in result.protocol.support:
                bound_report = check_cost_discrepancy_bound(pp_matrix(member), member)
                check(bound_report["lower_bound_holds"], "cost lower bound holds")
            case["max_error"] = measured
            case["members"] = len(result.protocol.support)
            case["cost"] = result.report["cost"]
    return {"params": {}, "cases": cases}


# ---------------------------------------------------------------------------
# registry


SUITES: dict[str, SuiteFn] = {
    "gap-algebra": suite_gap_algebra,
    "compiler": suite_compiler,
    "amplifier-bounds": suite_amplifier_bounds,
    "majority-amplify": suite_majority_amplify,
    "round-trip": suite_round_trip,
    "measures": suite_measures,
    "bp-operator": suite_bp_operator,
    "minimax": suite_minimax,
    "pipeline": suite_pipeline,
}


def run_suite(name: str, seed: int = 0, **params) -> dict:
    """Run one suite and wrap its cases in the report envelope."""
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise KeyError(f"unknown suite {name!r}; known suites: {known}")
    body = SUITES[name](seed=seed, **params)
    cases = sorted(body["cases"], key=lambda c: c["id"])
    failed = sum(1 for c in cases if c["status"] != "pass")
    return {
        "suite": name,
        "version": __version__,
        "seed": seed,
        "params": body.get("params", {}),
        "case_count": len(cases),
        "passed": len(cases) - failed,
        "failed": failed,
        "status": "pass" if failed == 0 else "fail",
        "cases": cases,
    }
