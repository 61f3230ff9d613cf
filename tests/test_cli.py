"""Command-line interface: exit codes, report shapes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cclab import cli, compilers, randomized
from cclab.cli import main
from cclab.invariants import InvariantError
from cclab.matrices import InputDistribution, parse_matrix
from cclab.measures import best_rectangle
from cclab.protocols import dumps_protocol, grid_protocol, loads_protocol, wrap_deterministic
from cclab.randomized import SparsifyRetryError

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parent.parent


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measure_disc(capsys):
    code, out, err = _run(
        capsys, ["measure", "--matrix", str(FIXTURES / "had2.sign"), "--which", "disc"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "measure"
    assert doc["value"] == "1/4"
    assert doc["value_float"] == 0.25
    assert doc["version"]
    assert "guards" in doc


def test_measure_disc_prime(capsys):
    argv = ["measure", "--matrix", str(FIXTURES / "identity4.bool")]
    code, out, err = _run(capsys, [*argv, "--which", "disc-prime"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["which"], doc["value"]) == ("disc-prime", "1/6")
    assert (doc["witness_rows"], doc["witness_cols"]) == ([0], [2])
    # the witness weighs the value exactly under the reported distribution
    signs = parse_matrix((FIXTURES / "identity4.bool").read_text()).to_sign()
    weight = sum(
        Fraction(doc["distribution"][x][y]) * signs.entries[x][y]
        for x in doc["witness_rows"]
        for y in doc["witness_cols"]
    )
    assert abs(weight) == Fraction(doc["value"])


def test_measure_missing_file(capsys):
    code, out, err = _run(
        capsys, ["measure", "--matrix", "no/such/file.sign", "--which", "disc"]
    )
    assert code == 2
    assert "no/such/file.sign" in err


def test_measure_malformed_matrix(capsys, tmp_path):
    bad = tmp_path / "bad.sign"
    bad.write_text("sign 2 2\n+-\n+?\n")
    code, out, err = _run(capsys, ["measure", "--matrix", str(bad), "--which", "disc"])
    assert code == 2
    assert err


@pytest.mark.parametrize(
    "command",
    [
        ["measure", "--which", "disc-prime"],
        ["pipeline", "--input", str(FIXTURES / "and_pipeline.json")],
        ["amplify", "--input", str(FIXTURES / "and_pipeline.json")],
    ],
)
def test_matrix_file_not_utf8_exits_2(capsys, tmp_path, command):
    bad = tmp_path / "latin.bool"
    bad.write_bytes(b"bool 2 2\n1\xff\n01\n")
    code, out, err = _run(capsys, [*command, "--matrix", str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_measure_bp_requires_eps(capsys):
    code, out, err = _run(
        capsys,
        ["measure", "--matrix", str(FIXTURES / "identity4.bool"), "--which", "bp"],
    )
    assert code == 2


def test_measure_bp(capsys):
    code, out, err = _run(
        capsys,
        [
            "measure",
            "--matrix",
            str(FIXTURES / "identity4.bool"),
            "--which",
            "bp",
            "--eps",
            "1/4",
            "--lambda",
            "entry-count",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 3


@pytest.mark.parametrize("matching", [False, True])
def test_bp_family_of_another_domain_exits_2(capsys, tmp_path, matching):
    # member_a.protocol is 3x3: alone against a 4x4 matrix it decides no
    # candidate, and beside matching members a 4x4 member would drop out
    wide = tmp_path / "wide.protocol"
    wide.write_text(dumps_protocol(wrap_deterministic(grid_protocol(4, 4, [[0] * 4] * 4))))
    members = [FIXTURES / "member_a.protocol", FIXTURES / "member_b.protocol"]
    if matching:
        matrix = tmp_path / "m.bool"
        matrix.write_text("bool 3 3\n010\n101\n011\n")
        family, odd = [*members, wide], wide
    else:
        matrix, family, odd = FIXTURES / "identity4.bool", members[:1], members[0]
    argv = ["measure", "--matrix", str(matrix), "--which", "bp", "--eps", "1/4"]
    argv += ["--lambda", "family-cost", *(f"--family={path}" for path in family)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {odd} is a ") and "Traceback" not in err



@pytest.mark.parametrize("command", ["compile", "measure"])
def test_protocol_beyond_the_side_guard_exits_2(capsys, tmp_path, command):
    # a protocol domain is admitted like a matrix: a 2000x2000 leaf is
    # refused when the file is read, before any gap grid is built
    big = tmp_path / "big.protocol"
    big.write_text('{"rows": 2000, "cols": 2000, "guesses": [{"leaf": 0}]}')
    if command == "compile":
        argv = ["compile", "--poly", "z1", "--members", str(big)]
    else:
        argv = ["measure", "--matrix", str(FIXTURES / "identity4.bool"), "--which", "bp"]
        argv += ["--eps", "1/4", "--lambda", "family-cost", "--family", str(big)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {big}: bad protocol file: "
        "matrix sides 2000x2000 exceed the guard of 12 per side\n"
    )

def test_measure_csv_format(capsys):
    code, out, err = _run(
        capsys,
        [
            "measure",
            "--matrix",
            str(FIXTURES / "had2.sign"),
            "--which",
            "disc",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    values = dict(line.split(",", 1) for line in lines[1:])
    assert values["value"] == "1/4"


def test_compile(capsys):
    code, out, err = _run(
        capsys,
        [
            "compile",
            "--poly",
            "2*z1^2 - z2",
            "--members",
            str(FIXTURES / "member_a.protocol"),
            str(FIXTURES / "member_b.protocol"),
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["gap"][0][1] == 9
    assert doc["guess_count"] <= doc["guess_bound"]
    assert doc["pp_cost"] <= doc["cost_bound"]


def test_compile_bad_polynomial(capsys):
    code, out, err = _run(
        capsys,
        [
            "compile",
            "--poly",
            "z3",
            "--members",
            str(FIXTURES / "member_a.protocol"),
        ],
    )
    assert code == 2
    assert "z3" in err


@pytest.mark.parametrize("poly", ["0", "z1 - z1"])
def test_compile_zero_polynomial_exits_2(capsys, poly):
    # the report's guess bound needs a nonzero polynomial
    argv = ["compile", "--poly", poly, "--members", str(FIXTURES / "member_a.protocol")]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: bad polynomial: {poly!r} is identically zero\n"


def test_compile_guess_guard(capsys, tmp_path):
    # z1^21 over a 2-guess member compiles symbolically to 2^21 guesses;
    # only writing it out meets flatten's limit, before the file is created
    compile_argv = [
        "compile",
        "--poly",
        "z1^21",
        "--members",
        str(FIXTURES / "member_a.protocol"),
    ]
    code, out, err = _run(capsys, compile_argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["guess_count"] == 2097152
    assert doc["guards"] == {"compile_max_degree": 2048, "materialize_limit": 1048576}
    emitted = tmp_path / "F"
    code, out, err = _run(capsys, [*compile_argv, "--emit-protocol", str(emitted)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "limit 1048576" in err
    assert "Traceback" not in err
    assert not emitted.exists()


def _builds_nothing(*args):
    pytest.fail("the guard let a product or a sample be built")


@pytest.mark.parametrize("poly", ["z1^2049", "z1^1025 + z2^1024"])
def test_compile_beyond_the_degree_cap_exits_2(capsys, monkeypatch, poly):
    # refused before the first power is built: unguarded, z1^200000 ran
    # out of memory, since the power chain keeps every power's gap grid
    monkeypatch.setattr(compilers._PowerCache, "get", _builds_nothing)
    member = str(FIXTURES / "member_a.protocol")
    code, out, err = _run(capsys, ["compile", "--poly", poly, "--members", member, member])
    assert (code, out) == (2, "")
    assert err == (
        "error: the highest exponents of the polynomial's variables sum to 2049, "
        "above the cap 2048\n"
    )


def test_compile_too_deep_exits_2(capsys, tmp_path):
    # a 1-guess member keeps the count at 1 along a 400-deep power chain:
    # the symbolic compile runs, but its one member would have 2^401 - 1
    # tree nodes, so writing it out exits 2
    compile_argv = [
        "compile",
        "--poly",
        "z1^400",
        "--members",
        str(FIXTURES / "member_b.protocol"),
    ]
    code, out, err = _run(capsys, compile_argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["guess_count"], doc["pp_cost"]) == (1, 400)
    emitted = tmp_path / "F"
    code, out, err = _run(capsys, [*compile_argv, "--emit-protocol", str(emitted)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "limit 1048576" in err
    assert not emitted.exists()


@pytest.mark.parametrize("depth", [600, 5000])
def test_deeply_nested_protocol_file_exits_2(capsys, tmp_path, depth):
    # the JSON reader gives up on nesting this deep; built as text, since
    # json.dumps would hit the same limit
    node = '{"speaker": "alice", "table": [0, 1], "children": [{"leaf": 0}, '
    tree = node * depth + '{"leaf": 1}' + "]}" * depth
    path = tmp_path / "deep.protocol"
    path.write_text('{"rows": 2, "cols": 2, "guesses": [' + tree + "]}")
    code, out, err = _run(capsys, ["compile", "--poly", "z1", "--members", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: input nested too deeply to process\n"


def test_compile_emit_protocol(capsys, tmp_path):
    emitted = tmp_path / "product.protocol"
    code, out, err = _run(
        capsys,
        [
            "compile",
            "--poly",
            "z1*z2",
            "--members",
            str(FIXTURES / "member_a.protocol"),
            str(FIXTURES / "member_b.protocol"),
            "--emit-protocol",
            str(emitted),
        ],
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["emitted_protocol"] == str(emitted)
    written = loads_protocol(emitted.read_text())
    assert written.guess_count == doc["guess_count"]
    assert [list(row) for row in written.gap] == doc["gap"]


def test_compile_unwritable_emit_protocol_exits_2(capsys, tmp_path):
    emitted = tmp_path / "missing" / "product.protocol"
    members = [str(FIXTURES / "member_a.protocol"), str(FIXTURES / "member_b.protocol")]
    argv = ["compile", "--poly", "z1*z2", "--members", *members]
    code, out, err = _run(capsys, [*argv, "--emit-protocol", str(emitted)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {emitted}: ") and "Traceback" not in err



def test_compile_emit_protocol_naming_a_directory_exits_2_before_the_compile(
    capsys, monkeypatch, tmp_path
):
    def refuse(*args, **kwargs):
        raise AssertionError("compiled before --emit-protocol was checked")

    monkeypatch.setattr(cli, "compile_polynomial", refuse)
    argv = ["compile", "--poly", "z1", "--members", str(FIXTURES / "member_a.protocol")]
    code, out, err = _run(capsys, [*argv, "--emit-protocol", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {tmp_path}: it is a directory\n"

def test_compile_emit_protocol_matches_golden(capsys, tmp_path):
    # terms are concatenated in sorted order, so the member list is fixed;
    # the golden file pins it byte for byte
    emitted = tmp_path / "poly.protocol"
    code, out, err = _run(
        capsys,
        [
            "compile",
            "--poly",
            "3*z1*z2 - 2*z1^2 + z2 + 1",
            "--members",
            str(FIXTURES / "member_a.protocol"),
            str(FIXTURES / "member_b.protocol"),
            "--emit-protocol",
            str(emitted),
        ],
    )
    assert (code, err) == (0, "")
    assert emitted.read_text() == (FIXTURES / "golden" / "compile_ab.protocol").read_text()


def test_compile_emit_long_sum(capsys, tmp_path):
    # 1,500 one-leaf members summed: one flat sum of 1,500 terms, written
    # out member by member; the report's guess bound 1501^1501 is exact
    member = tmp_path / "leaf.protocol"
    member.write_text('{"cols": 2, "guesses": [{"leaf": 1}], "rows": 2}\n')
    emitted = tmp_path / "sum.protocol"
    poly = " + ".join(f"z{i}" for i in range(1, 1501))
    code, out, err = _run(
        capsys,
        ["compile", "--poly", poly, "--members", *[str(member)] * 1500,
         "--emit-protocol", str(emitted)],
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["guess_count"], doc["guess_bound"]) == (1500, 1501**1501)
    written = loads_protocol(emitted.read_text())
    assert written.guess_count == 1500
    assert written.gap == ((1500, 1500), (1500, 1500))


def test_compile_emit_deep_power(capsys, tmp_path):
    # z1^1500 of a one-leaf member is a 1,500-level product chain of one guess
    member = tmp_path / "leaf.protocol"
    member.write_text('{"cols": 2, "guesses": [{"leaf": 1}], "rows": 2}\n')
    emitted = tmp_path / "power.protocol"
    code, out, err = _run(
        capsys,
        ["compile", "--poly", "z1^1500", "--members", str(member),
         "--emit-protocol", str(emitted)],
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["guess_count"] == 1
    assert loads_protocol(emitted.read_text()).gap == ((1, 1), (1, 1))


def test_pipeline(capsys):
    code, out, err = _run(
        capsys,
        [
            "pipeline",
            "--input",
            str(FIXTURES / "or_pipeline.json"),
            "--matrix",
            str(FIXTURES / "or_target.bool"),
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["max_error"] == "0"
    assert doc["members"][0]["verified"]


@pytest.mark.parametrize("command", [["pipeline"], ["amplify", "--times", "3"]])
def test_pipeline_matrix_of_another_shape_exits_2(capsys, tmp_path, command):
    # and_pipeline.json has a 4x4 domain
    target = tmp_path / "target.bool"
    target.write_text("bool 3 3\n010\n101\n011\n")
    pipeline = ["--input", str(FIXTURES / "and_pipeline.json")]
    code, out, err = _run(capsys, [*command, *pipeline, "--matrix", str(target)])
    assert (code, out) == (2, "")
    assert err == f"error: {target} is 3x3; {pipeline[1]} has a 4x4 domain\n"


def test_amplify_large_coefficients(capsys, tmp_path):
    # coefficients of 10^6 give a member of cost 23, which the majority cost
    # cap admits; its majority parts are power chains 245 levels deep
    doc = json.loads((FIXTURES / "or_pipeline.json").read_text())
    for entry in doc["support"]:
        for term in entry["terms"]:
            term["coefficient"] *= 10**6
    scaled = tmp_path / "or_pipeline.json"
    scaled.write_text(json.dumps(doc))
    argv = ["amplify", "--input", str(scaled), "--times", "3"]
    code, out, err = _run(
        capsys, [*argv, "--matrix", str(FIXTURES / "or_target.bool")]
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["base_cost"], report["amplified_error"]) == (23, "0")


def test_amplify(capsys):
    code, out, err = _run(
        capsys,
        [
            "amplify",
            "--input",
            str(FIXTURES / "boundary_pipeline.json"),
            "--matrix",
            str(FIXTURES / "boundary_target.bool"),
            "--times",
            "3",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["base_error"] == "1/3"
    assert doc["amplified_error"] == "7/27"


def test_amplify_eps_failure_still_reports(capsys):
    code, out, err = _run(
        capsys,
        [
            "amplify",
            "--input",
            str(FIXTURES / "boundary_pipeline.json"),
            "--matrix",
            str(FIXTURES / "boundary_target.bool"),
            "--times",
            "3",
            "--eps",
            "1/5",
        ],
    )
    assert code == 1
    assert "invariant failed: amplified error at most eps" in err
    assert "7/27" in err
    doc = json.loads(out)
    assert doc["meets_eps"] is False


@pytest.mark.parametrize("extra", [["--delta=-1"], ["--delta=1", "--trials=0"]])
def test_amplify_bad_sparsify_arguments(capsys, extra):
    pipeline = ["--input", str(FIXTURES / "boundary_pipeline.json"), "--times", "3"]
    target = ["--matrix", str(FIXTURES / "boundary_target.bool")]
    code, out, err = _run(capsys, ["amplify", *pipeline, *target, *extra])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "fixture, times, message",
    [
        ("and", "27", "majority size capped at 25, got 27"),
        ("boundary", "11", "product support would have 3^11 tuples (limit 100000)"),
    ],
    ids=["MAJORITY_MAX_K", "AMPLIFY_TUPLE_LIMIT"],
)
def test_amplify_beyond_a_size_guard_exits_2(capsys, fixture, times, message):
    pipeline = ["--input", str(FIXTURES / f"{fixture}_pipeline.json")]
    target = ["--matrix", str(FIXTURES / f"{fixture}_target.bool")]
    code, out, err = _run(capsys, ["amplify", *pipeline, *target, "--times", times])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_amplify_trials_beyond_the_tuple_limit_exits_2(capsys, monkeypatch):
    # refused before any draw: time and memory grow linearly in --trials
    monkeypatch.setattr(randomized, "uniform_support", _builds_nothing)
    pipeline = ["--input", str(FIXTURES / "boundary_pipeline.json"), "--times", "3"]
    target = ["--matrix", str(FIXTURES / "boundary_target.bool")]
    sparsify = ["--delta", "1/6", "--trials", "100001"]
    code, out, err = _run(capsys, ["amplify", *pipeline, *target, *sparsify])
    assert (code, out) == (2, "")
    assert err == "error: sparsify sample of 100001 draws (limit 100000)\n"


def test_amplify_sparsify_retry_failure_still_reports(capsys, monkeypatch):
    def give_up(rp, f, delta, sample_size, seed=0):
        measured = [Fraction(1), Fraction(2, 3)]
        raise SparsifyRetryError("no sample met error budget", measured)

    monkeypatch.setattr(cli, "sparsify_support", give_up)
    pipeline = ["--input", str(FIXTURES / "boundary_pipeline.json"), "--times", "3"]
    target = ["--matrix", str(FIXTURES / "boundary_target.bool")]
    code, out, err = _run(capsys, ["amplify", *pipeline, *target, "--delta", "1/6"])
    assert code == 1
    assert err.startswith("invariant failed: ") and "Traceback" not in err
    doc = json.loads(out)
    assert doc["sparsify_measured_errors"] == ["1", "2/3"]
    assert doc["sparsify_budget"] == "23/54"  # 7/27 + 1/6
    assert "sparsified_support" not in doc


@pytest.mark.parametrize("command", [["pipeline"], ["amplify", "--times", "3"]])
def test_pipeline_error_above_third_still_reports(capsys, tmp_path, command):
    # against the complemented target each boundary member is right on its
    # own row only, so the error is 2/3 on rows 0-2 and 1 on row 3
    complemented = tmp_path / "complemented.bool"
    complemented.write_text("bool 4 4\n0111\n1011\n1101\n1110\n")
    pipeline = ["--input", str(FIXTURES / "boundary_pipeline.json")]
    code, out, err = _run(capsys, [*command, *pipeline, "--matrix", str(complemented)])
    assert code == 1
    assert err.startswith("invariant failed: error 1 at input (3, 0) exceeds 1/3")
    doc = json.loads(out)
    assert doc["command"] == command[0]
    assert Fraction(doc["max_error"]) > Fraction(1, 3)
    assert doc["per_input_error"][0] == ["2/3"] * 4


@pytest.mark.parametrize("fixture", ["and", "or", "boundary"])
@pytest.mark.parametrize("command", [["pipeline"], ["amplify", "--times", "3"]])
def test_reports_match_golden(capsys, monkeypatch, command, fixture):
    # golden reports change only when a report is meant to change
    monkeypatch.chdir(ROOT)
    pipeline = [
        "--input",
        f"tests/fixtures/{fixture}_pipeline.json",
        "--matrix",
        f"tests/fixtures/{fixture}_target.bool",
    ]
    code, out, err = _run(capsys, [*command, *pipeline])
    assert (code, err) == (0, "")
    assert out == (FIXTURES / "golden" / f"{command[0]}_{fixture}.json").read_text()


@pytest.mark.parametrize("fixture", ["ladder7", "random6"])
def test_disc_reports_match_golden(capsys, monkeypatch, fixture):
    # pins the distribution and witness, which a different float vertex in
    # the presolve could move without changing the value
    monkeypatch.chdir(ROOT)
    argv = ["measure", "--matrix", f"tests/fixtures/{fixture}.sign", "--which", "disc"]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (FIXTURES / "golden" / f"measure_disc_{fixture}.json").read_text()


@pytest.mark.parametrize("fixture", ["ladder7", "random6"])
def test_disc_golden_reports_certify_themselves(fixture):
    # the golden distribution's best rectangle weighs exactly the value, and
    # so does the golden witness
    doc = json.loads((FIXTURES / "golden" / f"measure_disc_{fixture}.json").read_text())
    A = parse_matrix((FIXTURES / f"{fixture}.sign").read_text())
    weights = tuple(tuple(Fraction(w) for w in row) for row in doc["distribution"])
    mu = InputDistribution(A.rows, A.cols, weights)
    value = Fraction(doc["value"])
    assert best_rectangle(A, mu)[0] == value
    weight = sum(
        weights[x][y] * A.entries[x][y]
        for x in doc["witness_rows"]
        for y in doc["witness_cols"]
    )
    assert abs(weight) == value


@pytest.mark.parametrize("fixture", ["had4", "ladder7", "random6"])
def test_mc_reports_match_golden(capsys, monkeypatch, fixture):
    # had4 takes the orthogonal-lines exit; the other two pin the float
    # bits of the ascent's value
    monkeypatch.chdir(ROOT)
    argv = ["measure", "--matrix", f"tests/fixtures/{fixture}.sign", "--which", "mc"]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (FIXTURES / "golden" / f"measure_mc_{fixture}.json").read_text()


def test_bp_report_matches_golden(capsys, monkeypatch):
    # pins the witness distribution, prefix index and witness matrix
    monkeypatch.chdir(ROOT)
    argv = [
        "measure", "--matrix", "tests/fixtures/identity4.bool", "--which", "bp",
        "--eps", "1/4", "--lambda", "entry-count",
    ]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (FIXTURES / "golden" / "measure_bp_identity4.json").read_text()


def _pipeline_input(coefficient=1, rows=2, probability="1"):
    term = {"coefficient": coefficient, "f": "10", "g": "01"}
    support = [{"probability": probability, "terms": [term]}]
    return json.dumps({"rows": rows, "cols": 2, "support": support})


@pytest.mark.parametrize(
    "text, message",
    [
        (_pipeline_input(coefficient=1.5), "coefficient must be an integer, got 1.5"),
        (_pipeline_input(coefficient=-0.9), "coefficient must be an integer, got -0.9"),
        (_pipeline_input(coefficient=True), "coefficient must be an integer, got True"),
        (_pipeline_input(rows=2.9), "rows must be an integer, got 2.9"),
        (_pipeline_input(probability="1/0"), "probability '1/0' has a zero denominator"),
    ],
    ids=["float", "negative-float", "bool", "rows-float", "zero-denominator"],
)
def test_pipeline_malformed_numbers_exit_2(capsys, tmp_path, text, message):
    source = tmp_path / "input.json"
    source.write_text(text)
    target = tmp_path / "target.bool"
    target.write_text("bool 2 2\n01\n00\n")
    argv = ["pipeline", "--input", str(source), "--matrix", str(target)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert "bad pipeline input" in err and message in err


@pytest.mark.parametrize(
    "guess, message",
    [
        ({"leaf": 1.7}, "leaf must be an integer, got 1.7"),
        (
            {
                "speaker": "alice",
                "table": [0.9, True],
                "children": [{"leaf": 0}, {"leaf": 1}],
            },
            "table entry must be an integer, got 0.9",
        ),
        (
            {"output": {"speaker": "bob", "table": [1, True]}},
            "table entry must be an integer, got True",
        ),
    ],
    ids=["leaf", "node-table", "output-table"],
)
def test_protocol_malformed_numbers_exit_2(capsys, tmp_path, guess, message):
    member = tmp_path / "member.protocol"
    member.write_text(json.dumps({"rows": 2, "cols": 2, "guesses": [guess]}))
    code, out, err = _run(capsys, ["compile", "--poly", "z1", "--members", str(member)])
    assert (code, out) == (2, "")
    assert "bad protocol file" in err and message in err


def test_unexpected_library_check_still_reports(capsys, monkeypatch):
    def broken(matrix):
        raise InvariantError("planted")

    monkeypatch.setattr(cli, "disc", broken)
    argv = ["measure", "--matrix", str(FIXTURES / "had2.sign"), "--which", "disc"]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (1, "invariant failed: planted\n")
    assert json.loads(out)["command"] == "measure"


def _run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run script under `python -O`, which strips bare asserts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    prelude = "import sys\nif __debug__:\n    sys.exit('not optimized')\n"
    return subprocess.run(
        [sys.executable, "-O", "-c", prelude + script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_game_certificate_survives_python_O():
    # a simplex that never pivots leaves strategies that reach no value
    proc = _run_optimized(
        "from cclab import lp\n"
        "from cclab.invariants import InvariantError\n"
        "lp._Tableau.run_simplex = lambda tab, ncols: None\n"
        "try:\n"
        "    lp.minimize_max([[1, 0], [0, 1]])\n"
        "except InvariantError as exc:\n"
        "    sys.exit(f'refused: {exc}')\n"
    )
    assert proc.returncode == 1, proc.stderr
    assert "refused: game strategies do not certify the value" in proc.stderr


def test_amplify_bound_check_survives_python_O():
    # a success bound of 1 makes the error bound 0, which 7/27 exceeds
    proc = _run_optimized(
        "from cclab import cli\n"
        "cli.majority_success_bound = lambda eps, t: 1\n"
        "sys.exit(cli.main(['amplify', '--times', '3',"
        f" '--input', {str(FIXTURES / 'boundary_pipeline.json')!r},"
        f" '--matrix', {str(FIXTURES / 'boundary_target.bool')!r}]))\n"
    )
    assert proc.returncode == 1, proc.stderr
    assert "invariant failed: amplified error within the majority" in proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["command"], doc["amplified_error"]) == ("amplify", "7/27")


def test_compile_gap_check_survives_python_O():
    # a compiler that returns the first member's complement gets the gap wrong
    proc = _run_optimized(
        "from cclab import cli\n"
        "cli.compile_polynomial = lambda members, poly:"
        " members[0].complement()\n"
        "sys.exit(cli.main(['compile', '--poly', 'z1 + z2', '--members',"
        f" {str(FIXTURES / 'member_a.protocol')!r},"
        f" {str(FIXTURES / 'member_b.protocol')!r}]))\n"
    )
    assert proc.returncode == 1, proc.stderr
    assert "invariant failed: compiled gap equals the polynomial" in proc.stderr
    assert json.loads(proc.stdout)["command"] == "compile"


def test_majority_amplify_suite_fails_under_python_O():
    proc = _run_optimized(
        "from cclab import suites\n"
        "suites.majority_success_bound = lambda eps, t: 1\n"
        "report = suites.run_suite('majority-amplify', sets=1)\n"
        "failed = sorted(c['id'] for c in report['cases'] if c['status'] != 'pass')\n"
        "print(' '.join(failed))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["amplify-t3", "amplify-t5"]


def test_verify_failure_survives_python_O():
    # every minimax case fails once the primal and dual are made to differ
    proc = _run_optimized(
        "from cclab import cli, suites\n"
        "game = suites.minimax_error_check\n"
        "suites.minimax_error_check = lambda f, family:"
        " {**game(f, family), 'difference': 1}\n"
        "sys.exit(cli.main(['verify', '--suite', 'minimax']))\n"
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("invariant failed: suite minimax: 50 failing")
    doc = json.loads(proc.stdout)
    assert (doc["status"], doc["failed"]) == ("fail", 50)


def test_verify(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "round-trip", "--seed", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["case_count"] == 500


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "no-such-suite"])
    assert excinfo.value.code == 2


def test_same_seed_same_bytes(capsys):
    argv = ["verify", "--suite", "minimax", "--seed", "21"]
    code_a, out_a, _ = _run(capsys, argv)
    code_b, out_b, _ = _run(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_out_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, err = _run(
        capsys,
        [
            "measure",
            "--matrix",
            str(FIXTURES / "had2.sign"),
            "--which",
            "disc",
            "--out",
            str(path),
        ],
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["value"] == "1/4"


def test_unwritable_out_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "report.json"
    argv = ["measure", "--matrix", str(FIXTURES / "had2.sign"), "--which", "disc"]
    code, out, err = _run(capsys, [*argv, "--out", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ") and "Traceback" not in err


def test_out_in_a_missing_directory_exits_2_before_the_run(capsys, monkeypatch, tmp_path):
    # the suite would take seconds; an --out that cannot be written is
    # refused first, and nothing is created
    def refuse(*args, **kwargs):
        raise AssertionError("the suite ran before --out was checked")

    monkeypatch.setattr(cli, "run_suite", refuse)
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--suite", "bp-operator", "--out", "missing/report.json"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write missing/report.json: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_out_naming_a_directory_exits_2_before_the_run(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the suite ran before --out was checked")

    monkeypatch.setattr(cli, "run_suite", refuse)
    argv = ["verify", "--suite", "bp-operator", "--out", str(tmp_path)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {tmp_path}: it is a directory\n"


def test_readme_guard_table_names_each_guard_constant():
    # every row of README's size-guard table names an existing constant
    # with the value the row gives
    from cclab import compilers, majority, matrices, protocols, randomized

    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| guard | value | bounds | largest admitted input |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, value = (cell.strip() for cell in line.split("|")[1:3])
        rows[name.strip("`")] = int(value.replace(",", ""))
    assert set(rows) == {
        "MAX_SIDE",
        "BP_MAX_CELLS",
        "ENUM_MAX_SIDE",
        "MAJORITY_MAX_COST",
        "MAJORITY_MAX_K",
        "AMPLIFY_TUPLE_LIMIT",
        "MATERIALIZE_LIMIT",
        "COMPILE_MAX_DEGREE",
        "FAMILY_MAX_K",
        "FAMILY_MAX_M",
    }
    modules = (matrices, protocols, compilers, randomized, majority)
    for name, value in rows.items():
        owners = [m for m in modules if hasattr(m, name)]
        assert owners, f"no module defines {name}"
        assert getattr(owners[0], name) == value, name
