"""Deterministic protocol trees and the guess-protocol gap algebra.

A deterministic protocol is a binary tree.  Internal nodes belong to one of
the two players; the owner looks up their input in the node's table and sends
the resulting bit, which selects the subtree.  Cost is the number of bits
sent on the worst path.  A terminal position is either a fixed output bit or
an output computed privately by one player from their own input; neither kind
of terminal is charged, since the output bit is never communicated.

A guess protocol is a finite sequence of deterministic protocols run
notionally in parallel.  Writing acc and rej for the numbers of accepting and
rejecting members at an input, the gap is acc - rej, and the protocol accepts
in the counting (PP) sense when acc > rej, i.e. when the gap is positive.

The algebra below (complement, concatenation, pairwise product, repetition)
tracks guess counts, member costs, and gap grids through the combinators
without expanding the member list.  Compiled protocols can have guess counts
far beyond anything materializable, yet their gap grids stay exact because
each combinator transforms the gap in a simple arithmetic way.  Every node
does that arithmetic once, when it is built, from its children's stored
values, so no read recurses and DAGs thousands of levels deep evaluate like
shallow ones.  `flatten` produces the explicit member list, also without
recursion, whenever it fits in MATERIALIZE_LIMIT tree nodes, and the test
suites check the algebraic grids against brute-force member counting on
everything small enough to expand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product
from operator import mul
from typing import Iterator, Sequence, Union

from .matrices import (
    BooleanMatrix,
    SizeGuardError,
    check_same_domain,
    check_sides,
)

ALICE = "alice"
BOB = "bob"

MATERIALIZE_LIMIT = 1 << 20

ENUM_MAX_SIDE = 4
ENUM_MAX_DEPTH = 3


def ceil_log2(n: int) -> int:
    """Smallest t with 2^t >= n, for n >= 1."""
    if n < 1:
        raise ValueError(f"ceil_log2 needs a positive integer, got {n}")
    return (n - 1).bit_length()


# ---------------------------------------------------------------------------
# protocol trees


@dataclass(frozen=True)
class Leaf:
    bit: int


@dataclass(frozen=True)
class OutputLeaf:
    """Terminal whose output bit is computed privately by one player.

    The owner evaluates their table at their own input.  Nothing is sent, so
    an OutputLeaf adds no cost.
    """

    speaker: str
    table: tuple[int, ...]


@dataclass(frozen=True)
class Node:
    speaker: str
    table: tuple[int, ...]
    zero: "Tree"
    one: "Tree"


Tree = Union[Leaf, OutputLeaf, Node]


def _validate_tree(tree: Tree, rows: int, cols: int) -> None:
    if isinstance(tree, Leaf):
        if tree.bit not in (0, 1):
            raise ValueError(f"leaf bit must be 0 or 1, got {tree.bit!r}")
        return
    if isinstance(tree, (OutputLeaf, Node)):
        if tree.speaker not in (ALICE, BOB):
            raise ValueError(f"unknown speaker {tree.speaker!r}")
        expected = rows if tree.speaker == ALICE else cols
        if len(tree.table) != expected:
            raise ValueError(
                f"{tree.speaker} table has {len(tree.table)} entries, expected {expected}"
            )
        if any(b not in (0, 1) for b in tree.table):
            raise ValueError("table entries must be bits")
        if isinstance(tree, Node):
            _validate_tree(tree.zero, rows, cols)
            _validate_tree(tree.one, rows, cols)
        return
    raise TypeError(f"not a protocol tree: {tree!r}")


def _tree_eval(tree: Tree, x: int, y: int) -> int:
    while isinstance(tree, Node):
        inp = x if tree.speaker == ALICE else y
        tree = tree.one if tree.table[inp] else tree.zero
    if isinstance(tree, Leaf):
        return tree.bit
    return tree.table[x if tree.speaker == ALICE else y]


def _tree_complement(tree: Tree) -> Tree:
    if isinstance(tree, Leaf):
        return Leaf(1 - tree.bit)
    if isinstance(tree, OutputLeaf):
        return OutputLeaf(tree.speaker, tuple(1 - b for b in tree.table))
    return Node(tree.speaker, tree.table, _tree_complement(tree.zero), _tree_complement(tree.one))


def _tree_costs(tree: Tree) -> tuple[int, int]:
    """(cost, closed cost): bits sent on the worst path, and the same with
    a private output charged as one more bit."""
    if isinstance(tree, Leaf):
        return (0, 0)
    if isinstance(tree, OutputLeaf):
        return (0, 1)
    c0, k0 = _tree_costs(tree.zero)
    c1, k1 = _tree_costs(tree.one)
    return (1 + max(c0, c1), 1 + max(k0, k1))


@dataclass(frozen=True)
class DeterministicProtocol:
    """A single protocol tree over a fixed rows x cols input domain."""

    rows: int
    cols: int
    root: Tree

    def __post_init__(self):
        check_sides(self.rows, self.cols)
        _validate_tree(self.root, self.rows, self.cols)

    @cached_property
    def costs(self) -> tuple[int, int]:
        """(worst-case bits sent, the same with private outputs charged).

        Terminal outputs are free; the closed cost is what the tree costs as
        the first factor of a product, where the continuation has to branch
        on the output.
        """
        return _tree_costs(self.root)

    def complemented(self) -> "DeterministicProtocol":
        return DeterministicProtocol(self.rows, self.cols, _tree_complement(self.root))

    def output_grid(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(_tree_eval(self.root, x, y) for y in range(self.cols))
            for x in range(self.rows)
        )


def product_trees(first: Tree, second: Tree) -> Tree:
    """Compose: run `first`; on acceptance continue with `second`, otherwise
    with its complement.  The result computes the parity-of-agreement, so its
    accept indicator is 1 exactly when the two component outputs agree."""
    second_c = _tree_complement(second)

    def splice(tree: Tree) -> Tree:
        if isinstance(tree, Leaf):
            return second if tree.bit else second_c
        if isinstance(tree, OutputLeaf):
            # The private output becomes a real message so the continuation
            # can branch on it; this is the one place it gets charged.
            return Node(tree.speaker, tree.table, second_c, second)
        return Node(tree.speaker, tree.table, splice(tree.zero), splice(tree.one))

    return splice(first)


# ---------------------------------------------------------------------------
# guess protocols


@dataclass(frozen=True)
class GapProfile:
    """Accept/reject counts and their difference, per input."""

    guess_count: int
    acc: tuple[tuple[int, ...], ...]
    rej: tuple[tuple[int, ...], ...]
    gap: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for arow, rrow, grow in zip(self.acc, self.rej, self.gap):
            for a, r, g in zip(arow, rrow, grow):
                if a + r != self.guess_count or a - r != g:
                    raise ValueError("inconsistent gap profile")


class GuessProtocol:
    """Base class of the guess-protocol algebra.

    Subclasses are immutable nodes of an expression DAG.  Each constructor
    computes the node's guess count, gap grid and costs (largest member cost,
    largest closed member cost) from its children's, which are already
    stored, and keeps them as plain attributes.  Reading them never walks the
    DAG, so they stay exact at any nesting depth.  `members()` builds the
    explicit member protocols and `flatten` materializes them when they are
    small enough.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        guess_count: int,
        gap: tuple[tuple[int, ...], ...],
        costs: tuple[int, int],
    ):
        self.rows = rows
        self.cols = cols
        self.guess_count = guess_count
        self.gap = gap
        self.costs = costs

    # -- structure ---------------------------------------------------------

    children: tuple["GuessProtocol", ...] = ()

    def _join(self, lists: list) -> Sequence[DeterministicProtocol]:
        """This node's members, given the members of each of its children."""
        raise NotImplementedError

    def members(self) -> Iterator[DeterministicProtocol]:
        """The member protocols, in order.

        The DAG is walked with explicit stacks, children before parents, so
        no nesting depth recurses.  Each node's members are built once from
        its children's and dropped when its last parent has used them.
        """
        parents: dict[int, int] = {}
        stack = [self]
        while stack:
            for child in stack.pop().children:
                parents[id(child)] = parents.get(id(child), 0) + 1
                if parents[id(child)] == 1:
                    stack.append(child)
        built: dict[int, Sequence[DeterministicProtocol]] = {}
        walk = [(self, False)]
        while walk:
            node, ready = walk.pop()
            if ready:
                built[id(node)] = node._join([built[id(c)] for c in node.children])
                for child in node.children:
                    parents[id(child)] -= 1
                    if not parents[id(child)]:
                        del built[id(child)]
            elif id(node) not in built:
                walk.append((node, True))
                walk.extend((child, False) for child in node.children)
        return iter(built[id(self)])

    # -- derived quantities ------------------------------------------------

    @property
    def max_depth(self) -> int:
        """Largest member cost."""
        return self.costs[0]

    @property
    def closed_depth(self) -> int:
        return self.costs[1]

    def flatten(self) -> "MemberProtocols":
        """The explicit member list, if it fits in MATERIALIZE_LIMIT tree
        nodes; a member of closed cost c has at most 2^(c+1) - 1 of them."""
        if self.guess_count * ((2 << self.closed_depth) - 1) > MATERIALIZE_LIMIT:
            raise SizeGuardError(
                f"cannot materialize {self.guess_count} guesses of closed cost "
                f"{self.closed_depth} (limit {MATERIALIZE_LIMIT} tree nodes)"
            )
        return MemberProtocols(tuple(self.members()))

    # -- algebra -----------------------------------------------------------

    def complement(self) -> "GuessProtocol":
        return ComplementProtocol(self)

    def __add__(self, other: "GuessProtocol") -> "GuessProtocol":
        if not isinstance(other, GuessProtocol):
            return NotImplemented
        return SumProtocol((self, other))

    def __mul__(self, other: "GuessProtocol") -> "GuessProtocol":
        if not isinstance(other, GuessProtocol):
            return NotImplemented
        return ProductProtocol(self, other)

    def repeat(self, count: int) -> "GuessProtocol":
        if count == 1:
            return self
        return RepeatProtocol(self, count)


class MemberProtocols(GuessProtocol):
    """A guess protocol given by an explicit member tuple."""

    def __init__(self, members: Sequence[DeterministicProtocol]):
        members = tuple(members)
        if not members:
            raise ValueError("a guess protocol needs at least one member")
        check_same_domain(members[0], members[1:])
        rows, cols = members[0].rows, members[0].cols
        # Ground truth: count accepting members at every input.
        grids = [m.output_grid() for m in members]
        gap = tuple(
            tuple(sum(2 * grid[x][y] - 1 for grid in grids) for y in range(cols))
            for x in range(rows)
        )
        costs = tuple(map(max, zip(*(m.costs for m in members))))
        super().__init__(rows, cols, len(members), gap, costs)
        self.member_tuple = members

    def _join(self, lists):
        return self.member_tuple


class ComplementProtocol(GuessProtocol):
    def __init__(self, base: GuessProtocol):
        gap = tuple(tuple(-g for g in row) for row in base.gap)
        super().__init__(base.rows, base.cols, base.guess_count, gap, base.costs)
        self.base = base

    @property
    def children(self):
        return (self.base,)

    def _join(self, lists):
        return [m.complemented() for m in lists[0]]

    def complement(self) -> GuessProtocol:
        return self.base


class SumProtocol(GuessProtocol):
    """Concatenation of member lists; gaps add."""

    def __init__(self, parts: Sequence[GuessProtocol]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("sum needs at least one part")
        check_same_domain(parts[0], parts[1:])
        rows, cols = parts[0].rows, parts[0].cols
        gap = tuple(
            tuple(map(sum, zip(*part_rows)))
            for part_rows in zip(*(p.gap for p in parts))
        )
        costs = tuple(map(max, zip(*(p.costs for p in parts))))
        super().__init__(rows, cols, sum(p.guess_count for p in parts), gap, costs)
        self.parts = parts

    @property
    def children(self):
        # Nested sums are spliced in, so a sum chain thousands of levels
        # deep is one node of the member walk and is joined once.
        flat = []
        stack = [iter(self.parts)]
        while stack:
            part = next(stack[-1], None)
            if part is None:
                stack.pop()
            elif isinstance(part, SumProtocol):
                stack.append(iter(part.parts))
            else:
                flat.append(part)
        return tuple(flat)

    def _join(self, lists):
        return [m for members in lists for m in members]


class ProductProtocol(GuessProtocol):
    """All pairwise compositions, left member outermost; gaps multiply."""

    def __init__(self, left: GuessProtocol, right: GuessProtocol):
        check_same_domain(left, (right,))
        gap = tuple(tuple(map(mul, a, b)) for a, b in zip(left.gap, right.gap))
        closed = left.closed_depth
        cost, closed_cost = right.costs
        costs = (closed + cost, closed + closed_cost)
        count = left.guess_count * right.guess_count
        super().__init__(left.rows, left.cols, count, gap, costs)
        self.left = left
        self.right = right

    @property
    def children(self):
        return (self.left, self.right)

    def _join(self, lists):
        lefts, rights = lists
        return [
            DeterministicProtocol(self.rows, self.cols, product_trees(a.root, b.root))
            for a in lefts
            for b in rights
        ]


class RepeatProtocol(GuessProtocol):
    """`count` back-to-back copies of the base member list."""

    def __init__(self, base: GuessProtocol, count: int):
        if count < 1:
            raise ValueError("repeat count must be at least 1")
        gap = tuple(tuple(count * g for g in row) for row in base.gap)
        super().__init__(
            base.rows, base.cols, base.guess_count * count, gap, base.costs
        )
        self.base = base
        self.count = count

    @property
    def children(self):
        return (self.base,)

    def _join(self, lists):
        return list(lists[0]) * self.count


# ---------------------------------------------------------------------------
# constructors and counting-mode operations


def leaf_protocol(rows: int, cols: int, bit: int) -> MemberProtocols:
    return MemberProtocols((DeterministicProtocol(rows, cols, Leaf(bit)),))


def always_accept(rows: int, cols: int) -> MemberProtocols:
    """The single-guess protocol that accepts every input; gap is +1."""
    return leaf_protocol(rows, cols, 1)


def always_reject(rows: int, cols: int) -> MemberProtocols:
    return leaf_protocol(rows, cols, 0)


def wrap_deterministic(protocol: DeterministicProtocol) -> MemberProtocols:
    return MemberProtocols((protocol,))


def grid_protocol(
    rows: int, cols: int, grid: Sequence[Sequence[int]]
) -> DeterministicProtocol:
    """A protocol computing an arbitrary Boolean grid.

    One player spells out their input index bit by bit; the other then reads
    off the entry privately.  Costs ceil(log2(rows)) bits, which is as good
    as generic protocols get for unstructured grids.
    """
    if len(grid) != rows or any(len(row) != cols for row in grid):
        raise ValueError(f"grid shape does not match {rows}x{cols}")
    bits = ceil_log2(rows) if rows > 1 else 0

    def build(level: int, prefix: int) -> Tree:
        if level == bits:
            if prefix >= rows:
                return Leaf(0)  # unreachable padding branch
            return OutputLeaf(BOB, tuple(grid[prefix]))
        shift = bits - 1 - level
        table = tuple((x >> shift) & 1 for x in range(rows))
        return Node(
            ALICE,
            table,
            build(level + 1, prefix << 1),
            build(level + 1, (prefix << 1) | 1),
        )

    return DeterministicProtocol(rows, cols, build(0, 0))


def gap_profile(g: GuessProtocol) -> GapProfile:
    """Accept/reject counts per input.  acc = (l + gap) / 2 by definition."""
    l = g.guess_count
    gap = g.gap
    acc = tuple(tuple((l + v) // 2 for v in row) for row in gap)
    rej = tuple(tuple((l - v) // 2 for v in row) for row in gap)
    return GapProfile(l, acc, rej, gap)


def pp_eval(g: GuessProtocol, x: int, y: int) -> int:
    """Counting-mode acceptance: 1 iff strictly more members accept than reject."""
    return 1 if g.gap[x][y] > 0 else 0


def pp_matrix(g: GuessProtocol) -> BooleanMatrix:
    grid = tuple(tuple(1 if v > 0 else 0 for v in row) for row in g.gap)
    return BooleanMatrix(g.rows, g.cols, grid)


def pp_cost(g: GuessProtocol) -> int:
    """ceil(log2 of the guess count) plus the worst member cost."""
    return ceil_log2(g.guess_count) + g.max_depth


def pp_cost_closed(g: GuessProtocol) -> int:
    """pp_cost with terminal private outputs charged as one bit each.

    Members ending in an output leaf induce rectangles on which the answer
    still varies with one player's input; closing them restores the usual
    cost model where a transcript determines the outcome, which is what
    rectangle-based lower bounds count.  For protocols whose members end
    in fixed leaves the two costs coincide.
    """
    return ceil_log2(g.guess_count) + g.closed_depth


def normalize_nonzero(g: GuessProtocol) -> GuessProtocol:
    """Double every guess and append one rejecting guess.

    The new gap is 2 * gap - 1: always odd, never zero, and positive exactly
    when the old gap was, so counting-mode acceptance is preserved while ties
    (gap 0) resolve to rejection.
    """
    return g.repeat(2) + always_reject(g.rows, g.cols)


def pp_to_threshold(g: GuessProtocol) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Read a counting-mode protocol as a threshold protocol.

    Returns the acc grid together with the threshold floor(l / 2); acc
    exceeds that threshold exactly on the counting-accepted inputs.
    """
    return gap_profile(g).acc, g.guess_count // 2


def threshold_to_pp(g: GuessProtocol, threshold: int) -> GuessProtocol:
    """Turn 'acc > threshold' acceptance into counting-mode acceptance.

    Pads with rejecting guesses until the count reaches 2 * threshold, then
    appends one accepting guess per count above 2 * threshold.  The result
    counting-accepts exactly where the original acc exceeded the threshold.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    l = g.guess_count
    pad_rejects = max(0, 2 * threshold - l)
    extra_accepts = (l + pad_rejects) - 2 * threshold
    result = g
    if pad_rejects:
        result = result + always_reject(g.rows, g.cols).repeat(pad_rejects)
    if extra_accepts:
        result = result + always_accept(g.rows, g.cols).repeat(extra_accepts)
    return result


# ---------------------------------------------------------------------------
# exhaustive enumeration


def enumerate_protocols(
    rows: int, cols: int, max_depth: int
) -> Iterator[DeterministicProtocol]:
    """All protocol trees of depth at most max_depth, each exactly once.

    Trees use fixed-bit leaves only.  Every tree is either a leaf or a node
    whose children have strictly smaller depth bound, so the recursion yields
    each structure once.  The output is a generator; the full set grows
    doubly exponentially with depth, and callers are expected to take what
    they need.
    """
    if rows > ENUM_MAX_SIDE or cols > ENUM_MAX_SIDE:
        raise SizeGuardError(
            f"enumeration domain capped at {ENUM_MAX_SIDE} per side, got {rows}x{cols}"
        )
    if max_depth > ENUM_MAX_DEPTH:
        raise SizeGuardError(
            f"enumeration depth capped at {ENUM_MAX_DEPTH}, got {max_depth}"
        )
    check_sides(rows, cols)
    if max_depth < 0:
        raise ValueError("bad enumeration parameters")

    def trees(depth: int) -> Iterator[Tree]:
        yield Leaf(0)
        yield Leaf(1)
        if depth >= 1:
            children = list(trees(depth - 1))
            for speaker in (ALICE, BOB):
                n = rows if speaker == ALICE else cols
                for table in iter_product((0, 1), repeat=n):
                    for zero in children:
                        for one in children:
                            yield Node(speaker, table, zero, one)

    for t in trees(max_depth):
        yield DeterministicProtocol(rows, cols, t)


# ---------------------------------------------------------------------------
# serialization


def tree_to_obj(tree: Tree) -> dict:
    if isinstance(tree, Leaf):
        return {"leaf": tree.bit}
    if isinstance(tree, OutputLeaf):
        return {"output": {"speaker": tree.speaker, "table": list(tree.table)}}
    return {
        "speaker": tree.speaker,
        "table": list(tree.table),
        "children": [tree_to_obj(tree.zero), tree_to_obj(tree.one)],
    }


def json_int(value, field: str) -> int:
    """A JSON integer read for `field`; bools, floats and strings are errors."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def tree_from_obj(obj: dict) -> Tree:
    if not isinstance(obj, dict):
        raise ValueError(f"bad tree object: {obj!r}")
    if "leaf" in obj:
        return Leaf(json_int(obj["leaf"], "leaf"))
    if "output" in obj:
        payload = obj["output"]
        table = tuple(json_int(b, "table entry") for b in payload["table"])
        return OutputLeaf(payload["speaker"], table)
    if "speaker" in obj:
        zero, one = obj["children"]
        return Node(
            obj["speaker"],
            tuple(json_int(b, "table entry") for b in obj["table"]),
            tree_from_obj(zero),
            tree_from_obj(one),
        )
    raise ValueError(f"bad tree object: {obj!r}")


def dumps_protocol(g: GuessProtocol) -> str:
    """The explicit member list of `g` as one JSON line."""
    guesses = [tree_to_obj(m.root) for m in g.flatten().member_tuple]
    obj = {"rows": g.rows, "cols": g.cols, "guesses": guesses}
    return json.dumps(obj, sort_keys=True) + "\n"


def loads_protocol(text: str) -> MemberProtocols:
    obj = json.loads(text)
    rows, cols = json_int(obj["rows"], "rows"), json_int(obj["cols"], "cols")
    return MemberProtocols(
        DeterministicProtocol(rows, cols, tree_from_obj(t)) for t in obj["guesses"]
    )
