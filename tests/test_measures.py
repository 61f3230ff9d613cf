"""Discrepancy, margin complexity, the cost lower bound, and the
perturbation operator."""

import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab.matrices import (
    BooleanMatrix,
    InputDistribution,
    Rectangle,
    SignMatrix,
    SizeGuardError,
    all_boolean_matrices,
    parse_matrix,
)
from cclab import measures
from cclab.measures import (
    BpGame,
    HighsGame,
    MeasureFn,
    _numerators,
    best_rectangle,
    bp_measure,
    check_cost_discrepancy_bound,
    check_margin_discrepancy_sandwich,
    disc,
    disc_mu,
    disc_prime,
    entry_count_measure,
    family_cost_measure,
    inverse_disc_log_measure,
    margin_bracket,
    margin_measure,
    mc,
    mc_prime,
)
from cclab.invariants import InvariantError
from cclab.lp import maximize_min
from cclab.pipeline import cell_polynomial, counting_protocol
from cclab.protocols import (
    MemberProtocols,
    enumerate_protocols,
    grid_protocol,
    threshold_to_pp,
    wrap_deterministic,
)
from cclab.suites import random_boolean_matrix, random_sign_matrix

FIXTURES = Path(__file__).parent / "fixtures"


def _parity2():
    return SignMatrix.from_rows([(1, -1), (-1, 1)])


def _hadamard2():
    return SignMatrix.from_rows([(1, 1), (1, -1)])


def _sylvester(n):
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def test_disc_parity_quarter():
    result = disc(_parity2())
    assert result.value == Fraction(1, 4)
    # the optimal distribution is uniform and a single cell achieves 1/4
    assert disc_mu(_parity2(), InputDistribution.uniform(2, 2)) == Fraction(1, 4)
    value, rect = best_rectangle(_parity2(), result.distribution)
    assert value == Fraction(1, 4)
    assert len(rect.row_set) * len(rect.col_set) >= 1


def test_disc_hadamard_third():
    # mu = (0, 1/3, 1/3, 1/3) beats uniform on [[+,+],[+,-]]
    assert disc(_hadamard2()).value == Fraction(1, 3)


def test_disc_all_ones_is_one():
    ones = SignMatrix.from_rows([(1, 1), (1, 1)])
    assert disc(ones).value == 1


def test_disc_sylvester4():
    h4 = SignMatrix.from_rows(
        [
            (1, 1, 1, 1),
            (1, -1, 1, -1),
            (1, 1, -1, -1),
            (1, -1, -1, 1),
        ]
    )
    assert disc(h4).value == Fraction(1, 6)


def _witness_weight(A, result):
    return sum(
        result.distribution.weights[x][y] * A.entries[x][y]
        for x, y in itertools.product(result.witness.row_set, result.witness.col_set)
    )


def test_disc_sylvester8():
    # took 55 s when the exact simplex re-solved every working set
    h2 = [[1, 1], [1, -1]]
    h8 = SignMatrix.from_rows(
        [[a * b * c for a in r1 for b in r2 for c in r3] for r1 in h2 for r2 in h2 for r3 in h2]
    )
    result = disc(h8)
    assert result.value == Fraction(5, 56)
    assert abs(_witness_weight(h8, result)) == result.value


def test_disc_4x10():
    # took about 9 minutes: 38 exact re-solves after the first had the value
    A = SignMatrix.from_rows(
        [
            [1 if c == "+" else -1 for c in row]
            for row in ("+-+--+++++", "-++++-+--+", "-+--++++--", "---+-++---")
        ]
    )
    result = disc(A)
    assert result.value == Fraction(1, 8)
    assert abs(_witness_weight(A, result)) == result.value


def _counting(monkeypatch, name):
    # every call of measures.<name>, which the module looks up when it calls
    calls = []
    solve = getattr(measures, name)
    monkeypatch.setattr(measures, name, lambda *args: calls.append(args) or solve(*args))
    return calls


def _sign_matrices(max_side: int):
    side = st.integers(1, max_side)
    return st.tuples(side, side).flatmap(
        lambda s: st.lists(
            st.lists(st.sampled_from([1, -1]), min_size=s[1], max_size=s[1]),
            min_size=s[0],
            max_size=s[0],
        )
    )


@settings(max_examples=40, deadline=None)
@given(_sign_matrices(5))
def test_disc_certificate_matches_the_simplex(entries):
    # the basis certificate settles disc alone, at the simplex's value
    A = SignMatrix.from_rows(entries)
    with pytest.MonkeyPatch.context() as patch:
        solved = _counting(patch, "minimize_max")
        certified = disc.__wrapped__(A)
        assert solved == []
        patch.setattr(HighsGame, "tight_basis", lambda game: None)
        simplex = disc.__wrapped__(A)
        assert solved
    assert certified.value == simplex.value
    assert best_rectangle(A, certified.distribution)[0] == certified.value
    assert abs(_witness_weight(A, certified)) == certified.value


@pytest.mark.parametrize(
    "basis",
    [None, ([0], []), ([0, 0], [0, 0]), ([0], [0])],
    ids=["no-basis", "not-square", "singular", "repeated-cut"],
)
def test_disc_falls_back_to_the_simplex(monkeypatch, basis):
    # ([0], [0]) certifies only L = 0 < U = 1, and U's cut is cell (0, 0),
    # already a row of the game
    h4 = SignMatrix.from_rows(
        [(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)]
    )
    monkeypatch.setattr(HighsGame, "tight_basis", lambda game: basis)
    solved = _counting(monkeypatch, "minimize_max")
    result = disc.__wrapped__(h4)
    assert result.value == Fraction(1, 6)
    # one certificate tried, then the simplex rounds
    assert len(solved) == result.iterations - 1 > 0
    assert abs(_witness_weight(h4, result)) == result.value


def test_disc_fallback_settles_a_random_7x7_in_few_rounds(monkeypatch):
    # with no basis to certify, each round is one exact simplex solve on the
    # rows tight at the float optimum; the game simplex settles this game in
    # 10 rounds with ranked exact cuts, where one exact cut per round took 28
    a = random_sign_matrix(random.Random(107), 7, 7)
    monkeypatch.setattr(HighsGame, "tight_basis", lambda game: None)
    result = disc.__wrapped__(a)
    assert result.value == Fraction(1, 8)
    assert result.iterations <= 15
    assert abs(_witness_weight(a, result)) == result.value


@pytest.mark.parametrize("stop", [1, 3], ids=["first-solve", "later-solve"])
def test_disc_survives_highs_stopping_short(monkeypatch, stop):
    # HiGHS stops short on one solve: the exact simplex takes over from all
    # rows on the first solve, and from the rows tight at the last float
    # optimum on a later one
    A = random_sign_matrix(random.Random(100), 5, 5)
    expected = disc.__wrapped__(A).value
    solve, runs = measures.linprog, []

    def stopping(game):
        runs.append(game)
        return None if len(runs) == stop else solve(game)

    monkeypatch.setattr(measures, "linprog", stopping)
    solved = _counting(monkeypatch, "minimize_max")
    result = disc.__wrapped__(A)
    assert len(runs) == stop and solved
    if stop == 1:
        assert np.array_equal(solved[0][0], np.eye(25, dtype=int))
    assert result.value == expected
    assert best_rectangle(A, result.distribution)[0] == result.value
    assert abs(_witness_weight(A, result)) == result.value


_masks = st.integers(0, 6).flatmap(
    lambda cells: st.tuples(
        st.just(cells),
        st.one_of(
            st.lists(
                st.integers(0, 2**cells - 1), min_size=1, max_size=40, unique=True
            ),
            # every mask at least twice, in shuffled order
            st.lists(st.integers(0, 2**cells - 1), min_size=1, max_size=20)
            .map(lambda m: m + m[::-1])
            .flatmap(st.permutations),
        ),
    )
)


@settings(max_examples=100, deadline=None)
@given(_masks)
def test_first_proper_subsets_match_brute_force(case):
    cells, masks = case
    below = measures._first_proper_subsets(np.array(masks, dtype=np.int64), cells)
    assert below.tolist() == [
        next((i for i, a in enumerate(masks) if (a & b) == a and a != b), len(masks))
        for b in masks
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 2)]).flatmap(
        lambda shape: st.tuples(
            st.just(shape),
            st.permutations(range(2 ** (shape[0] * shape[1]))),
            st.integers(0, 2 ** (shape[0] * shape[1]) - 1),
            st.integers(1, 2 ** (shape[0] * shape[1])),
        )
    )
)
def test_minimal_rows_keep_the_prefix_game(case):
    # with the candidates in a random measure order, a prefix game on the
    # rows `BpGame` keeps has the value of the exact simplex on the whole
    # prefix, and its weights form a distribution that attains that value
    # on the whole prefix
    shape, ranks, f_index, prefix = case
    matrices = list(all_boolean_matrices(*shape))
    rank = {g.entries: r for g, r in zip(matrices, ranks)}
    game = BpGame(MeasureFn("ranked", lambda g: rank[g.entries]), *shape)
    f = matrices[f_index]
    bits, below = game._differences(f)
    value, weights = game._game(bits, below, prefix)
    assert value == maximize_min(bits[:prefix].T.tolist())[0]
    assert sum(weights) == 1 and min(weights) >= 0
    assert min(bits[:prefix] @ np.array(weights, dtype=object)) == value


def test_a_prefix_containing_f_keeps_only_its_zero_row(monkeypatch):
    # every other difference row properly contains f's empty one, so such a
    # prefix game is one all-zero row of value 0, solved once for every f
    games = _counting(monkeypatch, "_prefix_game")
    game = BpGame(entry_count_measure(), 2, 3)
    for f in all_boolean_matrices(2, 3):
        bits, below = game._differences(f)
        at = next(j for j, row in enumerate(bits) if not row.any())
        for prefix in range(at + 1, len(bits) + 1):
            value, weights = game._game(bits, below, prefix)
            assert value == 0
            assert sum(weights) == 1 and min(weights) >= 0
    assert [bits.tolist() for (bits,) in games] == [[[0] * 6]]


def test_half_full_3x4_prefix_games_stay_small(monkeypatch):
    # the 3x4 game holds 4,096 candidates; only minimal difference rows
    # reach a prefix game
    games = _counting(monkeypatch, "_prefix_game")
    f = BooleanMatrix.from_rows([(0, 0, 1, 1), (1, 1, 0, 1), (0, 0, 1, 0)])
    game = BpGame(entry_count_measure(), 3, 4)
    for eps in (0, Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
        game.solve(f, eps)
    assert games
    assert max(len(bits) for (bits,) in games) <= 32


def test_disc_certificate_is_self_consistent():
    rng = random.Random(61)
    for _ in range(10):
        A = random_sign_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        result = disc(A)
        # the returned distribution achieves the value: separation equals it
        achieved, _ = best_rectangle(A, result.distribution)
        assert achieved == result.value
        assert disc_mu(A, result.distribution) == result.value


def test_disc_prime_is_disc_of_sign_version():
    rng = random.Random(67)
    for _ in range(6):
        B = BooleanMatrix.from_rows(
            [[rng.randrange(2) for _ in range(3)] for _ in range(3)]
        )
        assert disc_prime(B).value == disc(B.to_sign()).value


def _rectangle_weight(A, mu, rows, cols):
    cells = (mu.weights[x][y] * A.entries[x][y] for x in rows for y in cols)
    return sum(cells, Fraction(0))


def _random_distribution(rng, rows, cols, den):
    raw = [rng.choice((0, 0, 1, 2, 3)) for _ in range(rows * cols)]
    raw[rng.randrange(rows * cols)] += 1
    flat = [Fraction(k * den // sum(raw), den) for k in raw]
    flat[-1] += 1 - sum(flat)
    return InputDistribution(
        rows, cols, tuple(tuple(flat[x * cols : (x + 1) * cols]) for x in range(rows))
    )


def _check_against_brute_force(A, mu):
    value, rect = best_rectangle(A, mu)
    rows, cols = (
        [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]
        for n in (A.rows, A.cols)
    )
    brute = max(abs(_rectangle_weight(A, mu, r, c)) for r in rows for c in cols)
    assert value == brute
    assert abs(_rectangle_weight(A, mu, rect.row_set, rect.col_set)) == value


def test_best_rectangle_matches_brute_force():
    rng = random.Random(71)
    for rows, cols in [(5, 2)] + [
        (rng.randrange(1, 6), rng.randrange(1, 6)) for _ in range(40)
    ]:
        A = random_sign_matrix(rng, rows, cols)
        _check_against_brute_force(A, InputDistribution.uniform(rows, cols))
        _check_against_brute_force(A, _random_distribution(rng, rows, cols, 1000))


def test_best_rectangle_denominator_beyond_int64():
    den = 2**89 - 1  # prime, so the numerators need Python ints
    rng = random.Random(73)
    mu = _random_distribution(rng, 4, 3, den)
    nums, common = _numerators([w for row in mu.weights for w in row])
    assert common == den and nums.dtype == object
    _check_against_brute_force(random_sign_matrix(rng, 4, 3), mu)


def test_best_rectangle_refuses_a_distribution_of_another_shape():
    with pytest.raises(ValueError, match="domain mismatch: 2x2 vs 2x3"):
        best_rectangle(_parity2(), InputDistribution.uniform(2, 3))


def _loop_separate(A, w):
    """The scan `_RectangleScan` vectorises: subsets of the smaller side in
    order, sums taken line by line in ascending order, first strict best."""
    transpose = A.rows > A.cols
    m, n = sorted((A.rows, A.cols))
    best = (0, Rectangle((), ()), 1)
    for mask in range(1 << m):
        fixed = tuple(i for i in range(m) if mask >> i & 1)
        totals = [0] * n
        for j in range(n):
            for i in fixed:
                x, y = (j, i) if transpose else (i, j)
                totals[j] += w[x * A.cols + y] * A.entries[x][y]
        for sign in (1, -1):
            lines = tuple(j for j in range(n) if sign * totals[j] > 0)
            value = 0
            for j in lines:
                value += sign * totals[j]
            if value > best[0]:
                sides = (lines, fixed) if transpose else (fixed, lines)
                best = (value, Rectangle(*sides), sign)
    return best


def _signed_rectangle(A, row):
    """The rectangle of a game row's support and its sign, read from the
    row: a nonzero entry over A's entry there, 1 for the empty row."""
    support = np.flatnonzero(row)
    if not len(support):
        return Rectangle((), ()), 1
    x, y = divmod(int(support[0]), A.cols)
    return measures._rectangle(row, A.cols), int(row[support[0]]) * A.entries[x][y]


def _scan_best(A, w):
    """The best value of a `_RectangleScan`, its rectangle and sign."""
    scan = measures._RectangleScan(A, w)
    k = scan.best()
    return (scan.values[k], *_signed_rectangle(A, scan.rows([k])[0]))


def test_separate_matches_the_loop_scan():
    # same sums in the same order: equal floats and the same tie-breaks
    rng = random.Random(83)
    for _ in range(40):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        A = random_sign_matrix(rng, rows, cols)
        w = [rng.choice((0.0, 1.0, rng.random())) for _ in range(rows * cols)]
        w = [x / (sum(w) or 1.0) for x in w]
        assert _scan_best(A, np.array(w)) == _loop_separate(A, w)
        # float sums of k/64 are exact, so both kernels give the same answer
        mu = _random_distribution(rng, rows, cols, 64)
        flat = [x for row in mu.weights for x in row]
        nums, den = _numerators(flat)
        value, rect, sign = _scan_best(A, nums)
        floating = _scan_best(A, np.array([float(x) for x in flat]))
        assert (Fraction(int(value), den), rect, sign) == _loop_separate(A, flat)
        assert (float(floating[0]), *floating[1:]) == (value / den, rect, sign)
        assert best_rectangle(A, mu) == (Fraction(int(value), den), rect)


@settings(max_examples=60, deadline=None)
@given(
    _sign_matrices(6).flatmap(
        lambda entries: st.tuples(
            st.just(entries),
            st.lists(
                st.integers(0, 5),
                min_size=len(entries) * len(entries[0]),
                max_size=len(entries) * len(entries[0]),
            ),
            st.booleans(),
            st.integers(0, 8),
        )
    )
)
def test_ranked_rectangles_read_the_separation_scan(case):
    # ranked cuts: the loop scan's best first, then distinct rows strictly
    # above the threshold in non-increasing value, each a signed rectangle
    # of A weighing its value
    entries, raw, floating, threshold = case
    A = SignMatrix.from_rows(entries)
    w = np.array(raw, dtype=np.int64)
    if floating:
        w = w / max(1, sum(raw))
        threshold = threshold / 16
    scan = measures._RectangleScan(A, w)
    ks = scan.ranked(threshold)
    rows = scan.rows(ks)
    values = scan.values[ks].tolist()
    assert 1 <= len(ks) <= measures.CUTS_PER_ROUND
    assert rows.dtype == np.int8 and rows.shape == (len(ks), A.rows * A.cols)
    cuts = []
    for value, row in zip(values, rows):
        witness, sign = _signed_rectangle(A, row)
        signed = np.zeros(A.rows * A.cols, dtype=np.int8)
        for x, y in itertools.product(witness.row_set, witness.col_set):
            signed[x * A.cols + y] = sign * A.entries[x][y]
        assert np.array_equal(row, signed)
        cuts.append((value, witness, sign))
    assert cuts[0] == _loop_separate(A, w.tolist())
    keys = [row.tobytes() for row in rows]
    assert len(set(keys)) == len(keys)
    assert values == sorted(values, reverse=True)
    assert all(value > threshold for value in values[1:])
    # and they are the largest values of the scan above the threshold
    above = sorted((v for v in scan.values if v > threshold), reverse=True)
    if above:
        assert values == above[: measures.CUTS_PER_ROUND]
    for value, witness, sign in cuts:
        payoff = sum(
            sign * A.entries[x][y] * w[x * A.cols + y]
            for x, y in itertools.product(witness.row_set, witness.col_set)
        )
        if floating:
            assert payoff == pytest.approx(value, abs=1e-12)
        else:
            assert payoff == value


def test_disc_on_ladder7_takes_few_highs_runs(monkeypatch):
    # up to CUTS_PER_ROUND rectangles join the float model per round: 14
    # HiGHS runs where one cut per round took 80
    solves = _counting(monkeypatch, "linprog")
    A = parse_matrix((FIXTURES / "ladder7.sign").read_text())
    disc.__wrapped__(A)
    assert len(solves) <= 20


def _fraction_solve(matrix, rhs):
    # plain Fraction Gauss-Jordan elimination with row swaps, as a reference
    n = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    return [row[-1] for row in rows]


def test_disc_certificate_dual_weights_solve_the_dual_system(monkeypatch):
    # _certificate reads p from the last row of the primal matrix's inverse;
    # on ladder7's final basis that p is the solution of the dual system
    # (pA)_c = v (c basic), sum(p) = 1, solved directly
    certificates, inverses = [], []
    certify, invert = measures._certificate, measures.inverse_edges

    def spy_certificate(game, rows, A):
        certificates.append((game, rows, certify(game, rows, A)))
        return certificates[-1][-1]

    def spy_inverse(matrix):
        inverses.append(invert(matrix))
        return inverses[-1]

    monkeypatch.setattr(measures, "_certificate", spy_certificate)
    monkeypatch.setattr(measures, "inverse_edges", spy_inverse)
    A = parse_matrix((FIXTURES / "ladder7.sign").read_text())
    result = disc.__wrapped__(A)
    game, rows, (dual, _, value, _) = certificates[-1]
    assert dual == value == result.value
    columns, tight = game.tight_basis()
    tight, k = rows[tight].tolist(), len(columns)
    dual_matrix = [[row[c] for row in tight] + [-1] for c in columns] + [[1] * k + [0]]
    p = _fraction_solve(dual_matrix, [0] * k + [1])
    _, last_row = inverses[-1]
    assert [-v for v in last_row[:k]] + [last_row[k]] == p
    assert min(p[:k]) >= 0 and p[k] == dual
    # p's payoff on the basic cells is the dual bound, and on no cell lower
    payoffs = [sum(w * row[c] for w, row in zip(p, tight)) for c in range(A.rows * A.cols)]
    assert min(payoffs) == dual and all(payoffs[c] == dual for c in columns)


def test_disc_certificate_refuses_a_negative_weight(monkeypatch):
    # with the first primal weight of every factorization made negative,
    # no basis certifies, and disc settles the game in the exact simplex
    A = parse_matrix((FIXTURES / "ladder7.sign").read_text())
    expected = disc.__wrapped__(A).value
    certificates = []
    certify, invert = measures._certificate, measures.inverse_edges

    def negated_first_weight(matrix):
        edges = invert(matrix)
        if edges is None:
            return None
        w, y = edges
        return [-abs(w[0]) - 1, *w[1:]], y

    def spy_certificate(game, rows, A):
        certificates.append(certify(game, rows, A))
        return certificates[-1]

    monkeypatch.setattr(measures, "inverse_edges", negated_first_weight)
    monkeypatch.setattr(measures, "_certificate", spy_certificate)
    solved = _counting(monkeypatch, "minimize_max")
    assert disc.__wrapped__(A).value == expected
    assert certificates and all(c is None for c in certificates)
    assert solved


def test_mc_hadamard_sqrt2():
    realization = mc(_hadamard2())
    assert abs(realization.value - math.sqrt(2)) / math.sqrt(2) < 0.05
    assert realization.check(_hadamard2())


def test_mc_parity_is_one():
    realization = mc(_parity2())
    assert abs(realization.value - 1.0) < 0.01
    assert realization.check(_parity2())


def test_mc_realization_check_rejects_wrong_matrix():
    realization = mc(_hadamard2())
    assert not realization.check(_parity2())


@settings(max_examples=40, deadline=None)
@given(_sign_matrices(8), st.integers(0, 2**32 - 1))
def test_mc_is_certified_below_the_axis_value_and_seeded(entries, seed):
    A = SignMatrix.from_rows(entries)
    realization = mc(A, seed=seed)
    assert realization.check(A)
    assert realization.value <= math.sqrt(min(A.rows, A.cols)) * (1 + 1e-12)
    assert realization.restarts_used == 1
    assert mc(A, seed=seed) == realization


def test_mc_sylvester_hadamard_is_root_n():
    for n in (2, 4, 8):
        assert abs(mc(SignMatrix.from_rows(_sylvester(n))).value - math.sqrt(n)) <= 1e-9


def test_mc_rank_one_is_exactly_one():
    rng = random.Random(101)
    for _ in range(20):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        left = [rng.choice((1, -1)) for _ in range(rows)]
        right = [rng.choice((1, -1)) for _ in range(cols)]
        A = SignMatrix.from_rows([[a * b for b in right] for a in left])
        realization = mc(A)
        assert (realization.value, realization.margin) == (1.0, 1.0)
        assert realization.check(A)


def test_mc_wide_matrix_uses_its_smaller_side():
    # the 2 rows give sqrt(2); realizing the 7 columns gave sqrt(7)
    A = random_sign_matrix(random.Random(2), 2, 7)
    assert mc(A).value <= math.sqrt(2) * (1 + 1e-12)


def test_realization_check_is_exact():
    # a margin of 1 - 2^-52 is refused, although it is within 1e-9 of 1
    below = measures.MarginRealization(((1.0 - 2.0**-52,),), ((1.0,),), 1.0, 1.0, 1)
    assert not below.check(SignMatrix.from_rows([[1]]))
    exact = measures.MarginRealization(((0.5, 0.5),), ((1.0, 1.0),), 1.0, 1.0, 1)
    assert exact.check(SignMatrix.from_rows([[1]]))
    assert not exact.check(SignMatrix.from_rows([[-1]]))


def test_realization_check_refuses_vectors_of_different_lengths():
    # zipping a 2-vector with a 1-vector would drop the 5.0 and accept
    A = SignMatrix.from_rows([[1, -1]])
    mixed = measures.MarginRealization(((1.0, 5.0),), ((1.0,), (-1.0,)), 1.0, 1.0, 1)
    assert not mixed.check(A)
    padded = measures.MarginRealization(((1.0, 5.0),), ((1.0, 0.0), (-1.0, 0.0)), 1.0, 1.0, 1)
    assert padded.check(A)
    ragged_rows = measures.MarginRealization(((1.0, 0.0), (1.0,)), ((1.0, 0.0),), 1.0, 1.0, 1)
    assert not ragged_rows.check(SignMatrix.from_rows([[1], [1]]))


def _least_root(m):
    """The least double whose square is at least the integer m."""
    value = math.sqrt(m)
    while Fraction(value) ** 2 < m:
        value = math.nextafter(value, math.inf)
    while Fraction(math.nextafter(value, 0.0)) ** 2 >= m:
        value = math.nextafter(value, 0.0)
    return value


def _assert_axis_realization(A):
    realization = mc(A)
    short = min(A.rows, A.cols)
    assert (realization.value, realization.margin) == (_least_root(short), 1.0)
    unit = tuple(tuple(float(i == j) for j in range(short)) for i in range(short))
    lines = tuple(tuple(map(float, line)) for line in A.entries)
    if A.rows <= A.cols:
        assert realization.row_vectors == unit
        assert realization.col_vectors == tuple(zip(*lines))
    else:
        assert (realization.row_vectors, realization.col_vectors) == (lines, unit)
    assert realization.check(A)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 8]).flatmap(
    lambda n: st.tuples(
        st.sets(st.integers(0, n - 1), min_size=2, max_size=n).map(sorted),
        st.permutations(range(n)),
        st.lists(st.sampled_from([1, -1]), min_size=2 * n, max_size=2 * n),
        st.booleans(),
        st.just(n),
    )
))
def test_mc_returns_the_axis_realization_on_orthogonal_lines(case):
    # any two or more rows of a Sylvester H_n, their columns permuted and
    # lines negated, have orthogonal short-side lines and rank above one, so
    # Forster's bound makes the axis realization optimal and mc returns it
    picked, order, signs, transpose, n = case
    h = _sylvester(n)
    entries = [
        [signs[i] * signs[n + j] * h[r][order[j]] for j in range(n)]
        for i, r in enumerate(picked)
    ]
    if transpose:
        entries = [list(column) for column in zip(*entries)]
    _assert_axis_realization(SignMatrix.from_rows(entries))


def test_mc_returns_the_axis_realization_on_non_square_orthogonal_lines():
    wide = SignMatrix.from_rows([[1, 1, 1, 1], [1, -1, 1, -1]])
    _assert_axis_realization(wide)
    _assert_axis_realization(SignMatrix.from_rows([list(c) for c in zip(*wide.entries)]))


def test_the_ascent_never_beats_the_axis_value_on_hadamard_matrices():
    # so skipping the ascent there cannot change what mc returns
    for n in (2, 4, 8):
        S = np.array(_sylvester(n), dtype=float)
        for seed in range(3):
            ascent = measures._ascent(S, (np.eye(n), S.T), seed)
            assert ascent is None or ascent.value >= _least_root(n)


@settings(max_examples=60, deadline=None)
@given(
    _sign_matrices(6),
    st.booleans(),
    st.integers(0, 5),
    st.sampled_from([1, -1]),
    st.integers(0, 2**32 - 1),
)
def test_mc_value_is_unchanged_by_a_copied_line(entries, column, line, sign, seed):
    # A with a copy or a negated copy of one of its lines appended reduces to
    # what A reduces to, so mc reads the same value off the same ascent
    A = SignMatrix.from_rows(entries)
    lines = [list(c) for c in zip(*entries)] if column else [list(r) for r in entries]
    lines.append([sign * v for v in lines[line % len(lines)]])
    grown = SignMatrix.from_rows([list(c) for c in zip(*lines)] if column else lines)
    realization = mc(grown, seed=seed)
    assert realization.value == mc(A, seed=seed).value
    assert realization.check(grown)


def _counting_ascents(monkeypatch):
    shapes = []
    ascent = measures._ascent

    def counted(S, axis, seed):
        shapes.append(S.shape)
        return ascent(S, axis, seed)

    monkeypatch.setattr(measures, "_ascent", counted)
    return shapes


def test_mc_settles_copies_of_h2_without_an_ascent(monkeypatch):
    # the margin workload's fixed-1 4x4 and a 3x6 of H_2's lines, copied and
    # negated, both reduce to H_2, whose orthogonal rows give sqrt(2)
    rng = random.Random(3)
    random_sign_matrix(rng, 3, 6)
    fixed = random_sign_matrix(rng, 4, 4)
    wide = SignMatrix.from_rows(
        [[1, 1, -1, 1, -1, -1], [1, -1, -1, -1, 1, 1], [-1, -1, 1, -1, 1, 1]]
    )
    shapes = _counting_ascents(monkeypatch)
    for A in (fixed, wide):
        realization = mc(A)
        assert (realization.value, realization.margin) == (_least_root(2), 1.0)
        assert realization.check(A)
    assert shapes == []


def test_mc_runs_the_ascent_on_the_reduced_matrix(monkeypatch):
    A = parse_matrix((FIXTURES / "ladder7.sign").read_text())
    shapes = _counting_ascents(monkeypatch)
    assert mc(A).check(A)
    assert shapes == [(6, 5)]


@settings(max_examples=60, deadline=None)
@given(_sign_matrices(8))
def test_mc_respects_forsters_bound(entries):
    # every realization of margin >= 1 has value >= sqrt(rows cols) / ||A||
    A = SignMatrix.from_rows(entries)
    norm = np.linalg.norm(np.array(entries, dtype=float), 2)
    assert mc(A).value >= math.sqrt(A.rows * A.cols) / norm * (1 - 1e-9)


@settings(max_examples=60, deadline=None)
@given(_sign_matrices(6).filter(lambda rows: min(len(rows), len(rows[0])) >= 2))
def test_mc_value_bounds_the_exact_norm_product(entries):
    # `value` is a float, but never below the exact product of the largest
    # norms of the vectors reported, and at most a few ulps above it
    realization = mc(SignMatrix.from_rows(entries))
    rows, cols = (
        max(sum(Fraction(v) ** 2 for v in x) for x in side)
        for side in (realization.row_vectors, realization.col_vectors)
    )
    norms = rows * cols
    assert Fraction(realization.value) ** 2 >= norms
    assert realization.value <= math.sqrt(norms) * (1 + 2**-50)


def test_margin_discrepancy_sandwich():
    for A in (_hadamard2(), _parity2()):
        report = check_margin_discrepancy_sandwich(A)
        assert Fraction(1, 8) - Fraction(1, 10**9) <= report["product"] <= 8.001
    rng = random.Random(71)
    for _ in range(5):
        A = random_sign_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        report = check_margin_discrepancy_sandwich(A)
        assert not report["mc_exceeds_bracket"]


def test_margin_bracket_edges():
    third = Fraction(1, 3)
    assert margin_bracket(1.0, third) == (Fraction(3, 8), Fraction(24), True)
    assert margin_bracket(24.0 + 5e-7, third)[2]
    assert not margin_bracket(24.0 + 2e-6, third)[2]
    assert margin_bracket(0.375 - 5e-10, third)[2]
    assert not margin_bracket(0.375 - 2e-9, third)[2]


def test_margin_sandwich_failure_carries_its_report(monkeypatch):
    # a realization value above 8/disc fails the check, report attached
    real = measures.mc
    monkeypatch.setattr(
        measures,
        "mc",
        lambda A, **kw: dataclasses.replace(real(A, **kw), value=100.0),
    )
    with pytest.raises(InvariantError) as failure:
        check_margin_discrepancy_sandwich(_hadamard2())
    assert failure.value.report["mc_exceeds_bracket"]
    assert failure.value.report["mc_upper_bound"] == 100.0


def test_cost_discrepancy_bound_on_pipeline_protocols():
    rng = random.Random(73)
    for _ in range(4):
        f = BooleanMatrix.from_rows(
            [[rng.randrange(2) for _ in range(3)] for _ in range(3)]
        )
        g = threshold_to_pp(*counting_protocol(cell_polynomial(f)))
        report = check_cost_discrepancy_bound(f, g)
        assert report["lower_bound_holds"]
        assert report["pp_cost"] <= report["pp_cost_closed"]


def test_cost_discrepancy_bound_worked_example():
    # [[0,1],[1,0]] has disc' = 1/4, so any protocol needs 2 closed bits
    f = BooleanMatrix.from_rows([(0, 1), (1, 0)])
    g = threshold_to_pp(*counting_protocol(cell_polynomial(f)))
    report = check_cost_discrepancy_bound(f, g)
    assert report["disc_prime"] == Fraction(1, 4)
    assert report["log2_inverse_disc"] == 2.0
    assert report["pp_cost_closed"] >= 2


def test_cost_discrepancy_bound_precondition():
    f = BooleanMatrix.from_rows([(0, 1), (1, 0)])
    wrong = wrap_deterministic(grid_protocol(2, 2, ((1, 1), (1, 1))))
    with pytest.raises(ValueError):
        check_cost_discrepancy_bound(f, wrong)


def test_bp_worked_example():
    lam = entry_count_measure()
    identity = BooleanMatrix.from_rows([(1, 0), (0, 1)])
    result = bp_measure(lam, identity, Fraction(1, 4))
    assert result.value == 2
    half = Fraction(1, 2)
    assert result.distribution.weights == ((half, Fraction(0)), (Fraction(0), half))
    assert result.matrix == identity


def test_bp_eps_zero_recovers_measure():
    lam = entry_count_measure()
    for f in all_boolean_matrices(2, 2):
        assert bp_measure(lam, f, Fraction(0)).value == f.count_ones()


def test_bp_eps_one_hits_minimum():
    lam = entry_count_measure()
    f = BooleanMatrix.from_rows([(1, 1), (1, 1)])
    # radius 1 admits every candidate, so the adversary gets the global min
    assert bp_measure(lam, f, Fraction(1)).value == 0


def test_bp_monotone_in_eps():
    lam = entry_count_measure()
    f = BooleanMatrix.from_rows([(1, 0, 1), (0, 1, 0), (1, 1, 0)])
    values = [
        bp_measure(lam, f, eps).value
        for eps in (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1))
    ]
    assert values == sorted(values, reverse=True)
    assert values[0] == 5


def test_bp_validation():
    lam = entry_count_measure()
    f = BooleanMatrix.from_rows([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        bp_measure(lam, f, Fraction(3, 2))
    # a game already kept for this measure and shape refuses it too
    assert bp_measure(lam, f, Fraction(0)).value == 2
    with pytest.raises(ValueError):
        bp_measure(lam, f, Fraction(3, 2))
    kept = measures._shared_game.cache_info().currsize
    with pytest.raises(SizeGuardError):
        bp_measure(lam, BooleanMatrix(5, 4, ((0,) * 4,) * 5), Fraction(0))
    assert measures._shared_game.cache_info().currsize == kept


def test_bp_game_refuses_a_measure_infinite_everywhere():
    never = MeasureFn("never", lambda f: math.inf)
    with pytest.raises(ValueError, match="infinite everywhere"):
        BpGame(never, 2, 2)


def test_bp_measure_refuses_eps_before_building_a_game():
    # a 4x4 game scores 65,536 candidates, so eps is checked first
    lam = entry_count_measure()
    identity = BooleanMatrix.from_rows([[int(x == y) for y in range(4)] for x in range(4)])
    misses = measures._shared_game.cache_info().misses
    for eps in (Fraction(3, 2), Fraction(-1, 4)):
        with pytest.raises(ValueError):
            bp_measure(lam, identity, eps)
    assert measures._shared_game.cache_info().misses == misses


def test_bp_measure_shares_one_game_per_measure_and_shape(monkeypatch):
    applied = []
    lam = MeasureFn("counted", lambda f: applied.append(f) or f.count_ones())
    f = BooleanMatrix.from_rows([(1, 0, 1), (0, 1, 1)])
    ladder = [Fraction(k, 12) for k in (0, 1, 3, 4, 6)]
    games = _counting(monkeypatch, "_prefix_game")
    first = [bp_measure(lam, f, eps) for eps in ladder]
    assert len(applied) == 2**6
    solved = len(games)
    assert solved > 0
    assert [bp_measure(lam, f, eps) for eps in ladder] == first
    assert (len(applied), len(games)) == (2**6, solved)
    fresh = [BpGame(lam, 2, 3).solve(f, eps) for eps in ladder]
    assert fresh == first
    # measures built apart never share a game, even under one name
    ones = MeasureFn("same-name", lambda g: g.count_ones())
    zeros = MeasureFn("same-name", lambda g: 6 - g.count_ones())
    assert bp_measure(ones, f, Fraction(0)).value == 4
    assert bp_measure(zeros, f, Fraction(0)).value == 2


def test_bp_family_cost_measure():
    identity = BooleanMatrix.from_rows([(1, 0), (0, 1)])
    family = [wrap_deterministic(grid_protocol(2, 2, identity.entries))]
    lam = family_cost_measure(family)
    result = bp_measure(lam, identity, Fraction(0))
    assert result.value == lam.apply(identity)
    # a matrix no family member decides scores infinite under every prefix
    other = BooleanMatrix.from_rows([(1, 1), (0, 0)])
    blown = bp_measure(lam, other, Fraction(0))
    assert blown.value == math.inf


def test_bp_game_answers_interleaved_queries_like_fresh_calls():
    # one long-lived game per (measure, shape) answers f and eps in any
    # order exactly as a freshly built game does, inf results included
    rng = random.Random(7)
    pool = [wrap_deterministic(p) for p in enumerate_protocols(2, 2, 1)]
    family = family_cost_measure(rng.sample(pool, 4))
    mod3 = MeasureFn("ones-mod-3", lambda f: f.count_ones() % 3)
    values = []
    for lam, rows, cols in ((entry_count_measure(), 2, 3), (family, 2, 2), (mod3, 3, 2)):
        game = BpGame(lam, rows, cols)
        matrices = rng.sample(list(all_boolean_matrices(rows, cols)), 6)
        queries = [(f, Fraction(k, 12)) for f in matrices for k in (0, 2, 3, 5, 12)]
        rng.shuffle(queries)
        for f, eps in queries + queries[:5]:
            result = game.solve(f, eps)
            assert result == BpGame(lam, rows, cols).solve(f, eps)
            values.append(result.value)
        with pytest.raises(ValueError):
            game.solve(BooleanMatrix(rows + 1, cols, ((0,) * cols,) * (rows + 1)), 0)
    assert math.inf in values


def test_bp_game_scores_once_and_solves_each_prefix_once(monkeypatch):
    applied = []
    lam = MeasureFn("counted", lambda f: applied.append(f) or f.count_ones())
    game = BpGame(lam, 2, 3)
    assert len(applied) == len(set(applied)) == 2**6
    games = _counting(monkeypatch, "_prefix_game")
    queries = [
        (f, eps)
        for f in itertools.islice(all_boolean_matrices(2, 3), 0, 64, 7)
        for eps in (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1))
    ]
    first = [game.solve(f, eps) for f, eps in queries]
    solved = len(games)
    assert solved > 0
    assert [game.solve(f, eps) for f, eps in queries] == first
    assert len(games) == solved
    assert len(applied) == 2**6


def test_bp_game_scans_each_f_once_over_an_eps_ladder(monkeypatch):
    # the game keeps the last f's difference rows: a ladder on one f scans
    # them once, and each change of f scans again
    lam = entry_count_measure()
    f = BooleanMatrix.from_rows([(1, 0, 1), (0, 1, 1)])
    g = BooleanMatrix.from_rows([(0, 0, 1), (1, 1, 0)])
    ladder = [Fraction(k, 12) for k in range(13)]
    fresh_f = [BpGame(lam, 2, 3).solve(f, eps) for eps in ladder]
    fresh_g = [BpGame(lam, 2, 3).solve(g, eps) for eps in ladder]
    scans = _counting(monkeypatch, "_first_proper_subsets")
    game = BpGame(lam, 2, 3)
    assert [game.solve(f, eps) for eps in ladder] == fresh_f
    assert len(scans) == 1
    assert [game.solve(g, eps) for eps in ladder] == fresh_g
    assert len(scans) == 2
    assert game.solve(f, ladder[4]) == fresh_f[4]
    assert len(scans) == 3


def test_measure_wrappers():
    lam = inverse_disc_log_measure()
    parity_bool = BooleanMatrix.from_rows([(0, 1), (1, 0)])
    assert lam.apply(parity_bool) == 2.0  # log2(1 / (1/4))
    margin = margin_measure(seed=0)
    value = margin.apply(parity_bool)
    assert 0.9 < value < 1.6
    prime = mc_prime(parity_bool)
    assert abs(prime.value - value) < 1e-6


def test_disc_cache_holds_every_3x3_orbit_representative():
    # bp_measure under inverse_disc_log_measure scores one representative
    # of each of the 13 orbits of 3x3 matrices through disc; a fresh game
    # scores the same representatives and must find every one cached
    # (bp_measure itself would reuse its shared game's scores)
    lam = inverse_disc_log_measure()
    f = BooleanMatrix.from_rows([(1, 0, 1), (0, 1, 1), (1, 1, 0)])
    first = bp_measure(lam, f, Fraction(0))
    misses = disc.cache_info().misses
    second = BpGame(lam, 3, 3).solve(f, Fraction(0))
    assert disc.cache_info().misses == misses
    assert second == first


def _orbits_by_brute_force(rows, cols):
    # every orbit of rows x cols 0/1 grids under all line permutations, the
    # transpose when square, and the complement, as sets of mask indices
    # in `all_boolean_matrices` order
    def index(grid):
        return int("".join(str(v) for line in grid for v in line), 2)

    orbits, seen = [], set()
    for g in all_boolean_matrices(rows, cols):
        if index(g.entries) in seen:
            continue
        orbit = set()
        for grid in (g.entries, tuple(tuple(1 - v for v in line) for line in g.entries)):
            for order in itertools.permutations(range(rows)):
                for line_order in itertools.permutations(range(cols)):
                    image = tuple(tuple(grid[x][y] for y in line_order) for x in order)
                    orbit.add(index(image))
                    if rows == cols:
                        orbit.add(index(tuple(zip(*image))))
        orbits.append(orbit)
        seen |= orbit
    return orbits


@pytest.mark.parametrize("shape, count", [((2, 2), 4), ((2, 3), 8), ((3, 3), 13), ((3, 4), 47)])
def test_orbit_labels_match_brute_force(shape, count):
    labels = measures._orbit_labels(*shape)
    orbits = _orbits_by_brute_force(*shape)
    assert len(orbits) == len(set(labels.tolist())) == count
    for orbit in orbits:
        assert set(labels[sorted(orbit)].tolist()) == {min(orbit)}


def test_4x4_masks_fall_into_104_orbits():
    labels = measures._orbit_labels(4, 4)
    assert len(set(labels.tolist())) == 104
    assert labels[(1 << 16) - 1] == 0 and labels[1 << 15] == labels[1] == 1


def test_relabel_invariant_disc_game_matches_a_full_scan():
    # the flagged measure scores one matrix per orbit; the same apply
    # without the flag scores every candidate, and every result agrees
    lam = inverse_disc_log_measure()
    full = MeasureFn(lam.name, lam.apply)
    assert lam.relabel_invariant and not full.relabel_invariant
    rng = random.Random(22)
    cases = [(2, 3, list(all_boolean_matrices(2, 3)))]
    for rows, cols, count in ((1, 4, 3), (2, 2, 3), (2, 4, 3), (3, 3, 3), (3, 4, 2)):
        cases.append((rows, cols, [random_boolean_matrix(rng, rows, cols) for _ in range(count)]))
    for rows, cols, matrices in cases:
        flagged, scanned = BpGame(lam, rows, cols), BpGame(full, rows, cols)
        assert flagged.values == scanned.values
        assert np.array_equal(flagged.bits, scanned.bits)
        for f in matrices:
            for k in range(13):
                eps = Fraction(k, 12)
                assert flagged.solve(f, eps) == scanned.solve(f, eps)


def _grid_family(rng, rows, cols):
    # four one-grid protocols and one that guesses among two of the grids,
    # so the family's costs differ
    grids = [random_boolean_matrix(rng, rows, cols).entries for _ in range(4)]
    family = [wrap_deterministic(grid_protocol(rows, cols, g)) for g in grids]
    family.append(MemberProtocols(tuple(grid_protocol(rows, cols, g) for g in grids[:2])))
    return family


def test_bp_game_candidates_follow_all_boolean_matrices():
    # mask i is the i-th matrix `all_boolean_matrices` lists: an unflagged
    # measure sees every matrix in that order, and values and bits are a
    # stable sort of its scores.  Entry count and family cost score the
    # cell-bit block directly, and give the game that their own `apply`,
    # scored matrix by matrix through the adapter, gives.
    rng = random.Random(29)
    shapes = [(r, c) for r in range(1, 13) for c in range(1, 13) if r * c <= 12]
    for rows, cols in [*shapes, (4, 4), (2, 8)]:
        seen = []
        lam = MeasureFn("ones", lambda g: seen.append(g.entries) or g.count_ones())
        game = BpGame(lam, rows, cols)
        matrices = list(all_boolean_matrices(rows, cols))
        assert seen == [g.entries for g in matrices]
        ranked = sorted(matrices, key=lambda g: g.count_ones())
        assert game.values == [g.count_ones() for g in ranked]
        cells = np.array([sum(g.entries, ()) for g in ranked], dtype=np.uint8)
        assert np.array_equal(game.bits, cells)
        for block in (entry_count_measure(), family_cost_measure(_grid_family(rng, rows, cols))):
            adapted = MeasureFn(block.name, block.apply)
            assert block.score is not None and adapted.score is None
            scored, applied = BpGame(block, rows, cols), BpGame(adapted, rows, cols)
            assert scored.values == applied.values
            assert np.array_equal(scored.bits, applied.bits)
            if rows * cols in (4, 6, 9):
                for f in rng.sample(matrices, 4):
                    for eps in (Fraction(k, 12) for k in (0, 1, 3, 6, 12)):
                        assert scored.solve(f, eps) == applied.solve(f, eps)


def test_family_cost_measure_scores_one_domain():
    square = wrap_deterministic(grid_protocol(2, 2, ((1, 0), (0, 1))))
    wide = wrap_deterministic(grid_protocol(2, 3, ((1, 0, 1), (0, 1, 1))))
    with pytest.raises(ValueError, match="domain mismatch: 2x2 vs 2x3"):
        family_cost_measure([square, wide, square])
    with pytest.raises(ValueError, match="no protocol"):
        family_cost_measure([])
    with pytest.raises(SizeGuardError):
        family_cost_measure([wrap_deterministic(grid_protocol(5, 5, [[0] * 5] * 5))])
    # a family of another shape than the game is refused, not dropped
    lam = family_cost_measure([square])
    other = BooleanMatrix.from_rows([(1, 0, 1), (0, 1, 1)])
    asks = (lambda: lam.apply(other), lambda: BpGame(lam, 2, 3), lambda: bp_measure(lam, other, 0))
    for ask in asks:
        with pytest.raises(ValueError, match="scores 2x2 matrices, got 2x3"):
            ask()


def test_flagged_2x3_game_scores_each_orbit_once():
    disc.cache_clear()
    BpGame(inverse_disc_log_measure(), 2, 3)
    assert disc.cache_info().misses == 8


def test_eps_ladder_solves_each_distinct_prefix_game_once(monkeypatch):
    # on this dense 3x4 f the ladder reaches 170 prefix games, of which 54
    # have distinct kept rows, one of them the single all-zero row that every
    # prefix containing f keeps; memoized by those rows, each is solved once
    f = BooleanMatrix.from_rows([(0, 1, 0, 1), (1, 1, 1, 1), (1, 0, 1, 1)])
    ladder = [Fraction(k, 12) for k in range(13)]
    fresh = [BpGame(entry_count_measure(), 3, 4).solve(f, eps) for eps in ladder]
    games = _counting(monkeypatch, "_prefix_game")
    game = BpGame(entry_count_measure(), 3, 4)
    assert [game.solve(f, eps) for eps in ladder] == fresh
    keys = {bits.tobytes() for (bits,) in games}
    assert len(games) == len(keys) == 54
    assert bytes(12) in keys


def test_bp_witness_is_the_first_qualifying_critical_candidate():
    # the witness is the first candidate, in the game's order, whose value
    # is the critical one and whose mass of differences is <= eps
    mod3 = MeasureFn("ones-mod-3", lambda g: g.count_ones() % 3)
    rng = random.Random(23)
    for lam, shape in ((mod3, (2, 3)), (entry_count_measure(), (3, 3))):
        game = BpGame(lam, *shape)
        # each bits row is a candidate's row-major cells, its value beside it,
        # sorted by value and then in row-major lexicographic order
        grids = [tuple(map(tuple, b.reshape(shape).tolist())) for b in game.bits]
        assert game.values == [lam.apply(BooleanMatrix(*shape, g)) for g in grids]
        assert list(zip(game.values, grids)) == sorted(zip(game.values, grids))
        for f in rng.sample(list(all_boolean_matrices(*shape)), 5):
            for k in range(13):
                eps = Fraction(k, 12)
                result = game.solve(f, eps)
                if result.value == math.inf:
                    continue
                w = [x for line in result.distribution.weights for x in line]
                first = next(
                    g
                    for v, g in zip(game.values, grids)
                    if v == result.value
                    and sum(
                        x
                        for x, a, b in zip(w, sum(g, ()), sum(f.entries, ()))
                        if a != b
                    )
                    <= eps
                )
                assert result.matrix.entries == first


def test_4x4_entry_count_game_builds_no_candidate_matrix(monkeypatch):
    # entry count scores the cell-bit block by row sums; the only matrix
    # the game builds is the witness it returns
    made = []
    build = measures._matrices

    def counted(rows, cols, masks):
        for g in build(rows, cols, masks):
            made.append(g)
            yield g

    monkeypatch.setattr(measures, "_matrices", counted)
    game = BpGame(entry_count_measure(), 4, 4)
    assert made == []
    identity = BooleanMatrix.from_rows([[int(x == y) for y in range(4)] for x in range(4)])
    assert game.solve(identity, Fraction(1, 4)).value == 3
    assert len(made) == 1


def test_4x4_bp_game_keeps_its_candidates_as_arrays():
    # the 65,536 candidates of a 4x4 game are kept as one byte per cell
    # beside their values, not as Python matrices (about 40 MB)
    tracemalloc.start()
    try:
        game = BpGame(entry_count_measure(), 4, 4)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 8 * 2**20
    # the cell bits are shifted out of uint16 masks, not int64 ones
    assert peak < 10 * 2**20
    assert game.bits.shape == (1 << 16, 16) and len(game.values) == 1 << 16
