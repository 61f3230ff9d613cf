"""The four workloads: fixed, seeded lists of calls into cclab.

Each workload is a list of `Op`s.  `run` makes the timed call and returns
what the checker needs; `check(output, outputs)` runs afterwards, untimed,
and may look at other ops' outputs by label.  Calls go through the module
attributes (`measures.disc`, not a name imported once), so a tracer that
replaces them sees every call.

The inputs that set most of a workload's cost come from a fixed workload
seed, because the time of one call varies many-fold between inputs of one
shape (see README.md).  `--seed` draws the remaining, cheap inputs: small
matrices, and the labelling of the majority member sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
from cclab import compilers, measures, pipeline, protocols, randomized, suites
from cclab.matrices import BooleanMatrix, SignMatrix

EPS_LADDER = (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))

LADDER_SEED = 1
LADDER_SHAPES = ((5, 5), (5, 5), (5, 5), (6, 6), (6, 6), (6, 6), (7, 7))
BP_SEED = 2
BP_SHAPES = ((3, 3), (3, 3), (3, 4), (3, 4))
MARGIN_SEED = 3
MARGIN_SHAPES = ((3, 6), (4, 4), (4, 5), (5, 5))
MAJORITY_SEED = 4
MAJORITY_ARITIES = (3, 5, 7, 9)
MAJORITY_SIDE = 3
AMPLIFY_TIMES = (3, 5, 7, 9)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, dict], None]


def sylvester(n: int) -> SignMatrix:
    rows = [[1]]
    while len(rows) < n:
        rows = [r + r for r in rows] + [r + [-v for v in r] for r in rows]
    return SignMatrix.from_rows(rows)


KNOWN_DISC = (
    ("parity2", SignMatrix.from_rows([(1, -1), (-1, 1)]), Fraction(1, 4)),
    ("H2", sylvester(2), Fraction(1, 3)),
    ("H4", sylvester(4), Fraction(1, 6)),
    ("ones3", SignMatrix.from_rows([(1, 1, 1)] * 3), Fraction(1)),
)


# ---------------------------------------------------------------------------
# disc-ladder


def _disc_op(label: str, A: SignMatrix, known=None) -> Op:
    return Op(
        label,
        lambda: measures.disc(A),
        lambda out, _: checks.check_disc(A.entries, out, known),
    )


def disc_ladder(seed: int) -> list[Op]:
    base = random.Random(LADDER_SEED)
    rng = random.Random(seed)
    ops = [_disc_op(f"known-{name}", A, value) for name, A, value in KNOWN_DISC]
    ops += [
        _disc_op(f"small-{i}-3x3", suites.random_sign_matrix(rng, 3, 3)) for i in range(2)
    ]
    ops += [
        _disc_op(f"ladder-{i}-{r}x{c}", suites.random_sign_matrix(base, r, c))
        for i, (r, c) in enumerate(LADDER_SHAPES)
    ]
    return ops


# ---------------------------------------------------------------------------
# bp-eps


def _bp_ops(
    label: str, f: BooleanMatrix, measure: measures.MeasureFn, grid_check: bool = False
) -> list[Op]:
    values: list = []  # lam by candidate mask, filled by the first check

    def check(eps: Fraction, previous: str):
        def run_check(out, outputs) -> None:
            if not values:
                values.extend(
                    checks.candidate_values(
                        f.rows, f.cols, lambda g: measure.apply(BooleanMatrix(f.rows, f.cols, g))
                    )
                )
            checks.check_bp(
                f.entries, eps, out, values, outputs.get(previous), grid_check
            )

        return run_check

    ops = []
    for i, eps in enumerate(EPS_LADDER):
        previous = f"{label}-eps{EPS_LADDER[i - 1]}" if i else ""
        ops.append(
            Op(
                f"{label}-eps{eps}",
                lambda eps=eps: measures.bp_measure(measure, f, eps),
                check(eps, previous),
            )
        )
    return ops


def half_full(rng: random.Random, rows: int, cols: int) -> BooleanMatrix:
    """A Boolean matrix with ones in half its cells (rounded down), placed
    by rng.  bp_measure's time grows steeply with lam(f) = the number of
    ones (README.md), so the fixed bp inputs hold it at half."""
    ones = set(rng.sample(range(rows * cols), rows * cols // 2))
    return BooleanMatrix.from_rows(
        [[int(x * cols + y in ones) for y in range(cols)] for x in range(rows)]
    )


def bp_eps(seed: int) -> list[Op]:
    base = random.Random(BP_SEED)
    rng = random.Random(seed)
    count = measures.entry_count_measure()
    fixed = [half_full(base, r, c) for r, c in BP_SHAPES]
    # The 2x3 f is fixed too: its prefix games vary with f, and a seeded f
    # moves the ranks of the ops around op_p50_s.
    scored = suites.random_boolean_matrix(base, 2, 3)
    ops = []
    for i in range(2):
        f = suites.random_boolean_matrix(rng, 2, 2)
        ops += _bp_ops(f"small-{i}-2x2", f, count, grid_check=True)
    ops += _bp_ops("disc-2x3", scored, measures.inverse_disc_log_measure())
    for i, f in enumerate(fixed):
        ops += _bp_ops(f"fixed-{i}-{f.rows}x{f.cols}", f, count)
    return ops


# ---------------------------------------------------------------------------
# margin


def _mc_op(label: str, A: SignMatrix, hadamard_n=None, bracket: bool = True) -> Op:
    def run():
        # As `cclab measure --which mc` does: the realization, then disc.
        realization = measures.mc(A)
        return realization, measures.disc(A) if bracket else None

    def check(out, _) -> None:
        realization, d = out
        if d is not None:
            checks.check_disc(A.entries, d)
        checks.check_mc(A.entries, realization, d.value if d else None, hadamard_n)

    return Op(label, run, check)


def margin(seed: int) -> list[Op]:
    base = random.Random(MARGIN_SEED)
    rng = random.Random(seed)
    ops = [_mc_op(f"H{n}", sylvester(n), hadamard_n=n) for n in (2, 4)]
    # disc(H_8) alone takes half a minute, so H_8 is checked against
    # sqrt(8) only.
    ops.append(_mc_op("H8", sylvester(8), hadamard_n=8, bracket=False))
    ops += [_mc_op(f"small-{i}-3x3", suites.random_sign_matrix(rng, 3, 3)) for i in range(2)]
    ops += [
        _mc_op(f"fixed-{i}-{r}x{c}", suites.random_sign_matrix(base, r, c))
        for i, (r, c) in enumerate(MARGIN_SHAPES)
    ]
    return ops


# ---------------------------------------------------------------------------
# amplify


def relabel_tree(tree, rows: list[int], cols: list[int]):
    """The tree that answers at (x, y) what `tree` answers at (rows[x], cols[y])."""
    if isinstance(tree, protocols.Leaf):
        return tree
    order = rows if tree.speaker == protocols.ALICE else cols
    table = tuple(tree.table[i] for i in order)
    if isinstance(tree, protocols.OutputLeaf):
        return protocols.OutputLeaf(tree.speaker, table)
    return protocols.Node(
        tree.speaker,
        table,
        relabel_tree(tree.zero, rows, cols),
        relabel_tree(tree.one, rows, cols),
    )


def _member_sets(seed: int) -> list[list[protocols.MemberProtocols]]:
    """Fixed member sets, relabelled by the seed: rows and columns
    permuted and the members shuffled, which keeps every cost."""
    base = random.Random(MAJORITY_SEED)
    rng = random.Random(seed)
    sets = []
    side = MAJORITY_SIDE
    for k in MAJORITY_ARITIES:
        members = [
            suites.random_members(base, side, side, max_members=2, max_depth=1)
            for _ in range(k)
        ]
        rows = rng.sample(range(side), side)
        cols = rng.sample(range(side), side)
        rng.shuffle(members)
        sets.append(
            [
                protocols.MemberProtocols(
                    tuple(
                        protocols.DeterministicProtocol(side, side, relabel_tree(m.root, rows, cols))
                        for m in g.member_tuple
                    )
                )
                for g in members
            ]
        )
    return sets


def _majority_op(members: list) -> Op:
    def run():
        return protocols.pp_matrix(compilers.compile_majority(members))

    def check(decided, _) -> None:
        grids = [
            checks.member_acceptance(
                [m.root for m in g.member_tuple], MAJORITY_SIDE, MAJORITY_SIDE
            )
            for g in members
        ]
        checks.check_majority(decided.entries, grids)

    return Op(f"majority-k{len(members)}", run, check)


def _amplify_op(label: str, protocol: Callable, target: BooleanMatrix, t: int) -> Op:
    def run():
        return randomized.amplify(protocol(), t).error(target)

    def check(error, _) -> None:
        bound = randomized.majority_success_bound(Fraction(1, 6), t)
        checks.check_amplified_error(error, t, bound)

    return Op(f"{label}-t{t}", run, check)


def amplify(seed: int) -> list[Op]:
    ops = [_majority_op(members) for members in _member_sets(seed)]
    third, third_target = suites.error_third_protocol()
    ops += [_amplify_op("third", lambda: third, third_target, t) for t in AMPLIFY_TIMES]
    rphi, target = pipeline.boundary_fixture()
    built: dict = {}

    def run_pipeline():
        built["result"] = pipeline.run_pipeline(rphi, target)
        return built["result"]

    ops.append(
        Op(
            "pipeline-boundary",
            run_pipeline,
            lambda out, _: checks.check_pipeline_errors(
                out.report["per_input_error"], rphi.support, target.entries
            ),
        )
    )
    ops += [
        _amplify_op("boundary", lambda: built["result"].protocol, target, t)
        for t in AMPLIFY_TIMES
    ]
    return ops


WORKLOADS = {
    "disc-ladder": disc_ladder,
    "bp-eps": bp_eps,
    "margin": margin,
    "amplify": amplify,
}
