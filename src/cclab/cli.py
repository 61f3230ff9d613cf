"""Command line front end with machine-readable reports.

Every subcommand writes one canonical JSON (or, for measure, CSV) report
and exits 0 on success, 1 when a verified invariant fails (the report is
still written), and 2 on usage problems such as missing or malformed
files.  Reports embed the tool
version, the seed, and the size guards the subcommand applies; identical
invocations with the same seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from ._version import __version__
from .compilers import (
    COMPILE_MAX_DEGREE,
    MAJORITY_MAX_COST,
    MAJORITY_MAX_K,
    compile_polynomial,
    polynomial_cost_bound,
    polynomial_guess_bound,
)
from .matrices import (
    BP_MAX_CELLS,
    BooleanMatrix,
    DomainMismatchError,
    MatrixFormatError,
    SignMatrix,
    SizeGuardError,
    parse_matrix,
)
from .measures import (
    bp_measure,
    disc,
    disc_prime,
    entry_count_measure,
    family_cost_measure,
    inverse_disc_log_measure,
    margin_bracket,
    margin_measure,
    mc,
)
from .invariants import InvariantError
from .pipeline import PipelineResult, parse_randomized_polynomial, run_pipeline
from .polynomials import format_polynomial, parse_polynomial
from .protocols import (
    MATERIALIZE_LIMIT,
    dumps_protocol,
    loads_protocol,
    pp_cost,
)
from .randomized import (
    AMPLIFY_TUPLE_LIMIT,
    SparsifyRetryError,
    amplify,
    majority_success_bound,
    sparsify_support,
)
from .suites import SUITES, _jsonable, canonical_report_json, run_suite


class UsageError(Exception):
    """A problem with the invocation or its input files; exit status 2."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _check_writable(path: str) -> None:
    """Refuse `path` before any work when it names a directory, or when its
    directory is missing or not writable.  The file itself is neither
    created nor truncated here."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: it is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"cannot write {path}: no directory {parent}")
    if not os.access(parent, os.W_OK):
        raise UsageError(f"cannot write {path}: directory {parent} is not writable")


def _load_matrix(path: str, kind: str):
    """The matrix in `path`, which must be of `kind`, "sign" or "boolean"."""
    try:
        matrix = parse_matrix(_read_text(path))
    except MatrixFormatError as exc:
        raise UsageError(f"{path}: {exc}") from None
    held = "sign" if isinstance(matrix, SignMatrix) else "boolean"
    if held != kind:
        raise UsageError(
            f"{path} holds a {held} matrix; this measure expects a {kind} matrix"
        )
    return matrix


def _load(path: str, parse, what: str):
    """`parse` applied to the text of `path`; a malformed file is a
    usage error that names it as a bad `what`."""
    try:
        return parse(_read_text(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"{path}: bad {what}: {exc}") from None


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _envelope(command: str, seed: int, guards: dict, body: dict) -> dict:
    report = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "guards": guards,
    }
    report.update(body)
    return report


# ---------------------------------------------------------------------------
# subcommands; each returns (report, failures), failures being the
# messages of the invariants that failed


def _run_measure(args) -> tuple[dict, list[str]]:
    guards = {"bp_max_cells": BP_MAX_CELLS}
    failures = []

    if args.which in ("disc", "disc-prime"):
        if args.which == "disc":
            result = disc(_load_matrix(args.matrix, "sign"))
        else:
            result = disc_prime(_load_matrix(args.matrix, "boolean"))
        body = {
            "which": args.which,
            "matrix": args.matrix,
            "value": result.value,
            "value_float": float(result.value),
            "iterations": result.iterations,
            "distribution": result.distribution.weights,
            "witness_rows": result.witness.row_set,
            "witness_cols": result.witness.col_set,
        }
    elif args.which == "mc":
        matrix = _load_matrix(args.matrix, "sign")
        realization = mc(matrix, seed=args.seed)
        bracket = disc(matrix).value
        lower, upper, within = margin_bracket(realization.value, bracket)
        if not within:
            failures.append(
                "margin-discrepancy sandwich: "
                f"mc {realization.value} outside [{float(lower)}, {float(upper)}]"
            )
        body = {
            "which": "mc",
            "matrix": args.matrix,
            "value": realization.value,
            "margin": realization.margin,
            "restarts_used": realization.restarts_used,
            "disc": bracket,
            "bracket_lower": lower,
            "bracket_lower_float": float(lower),
            "bracket_upper": upper,
            "bracket_upper_float": float(upper),
            "within_bracket": within,
        }
    else:
        matrix = _load_matrix(args.matrix, "boolean")
        if args.eps is None:
            raise UsageError("the bp measure requires --eps")
        if not 0 <= args.eps <= 1:
            raise UsageError(f"--eps must lie in [0, 1], got {args.eps}")
        if args.lam == "entry-count":
            measure = entry_count_measure()
        elif args.lam == "log-inverse-disc":
            measure = inverse_disc_log_measure()
        elif args.lam == "margin-complexity":
            measure = margin_measure(seed=args.seed)
        else:
            if not args.family:
                raise UsageError("--lambda family-cost requires --family FILE")
            family = [_load(p, loads_protocol, "protocol file") for p in args.family]
            for path, g in zip(args.family, family):
                if (g.rows, g.cols) != (matrix.rows, matrix.cols):
                    raise UsageError(
                        f"{path} is a {g.rows}x{g.cols} protocol; "
                        f"{args.matrix} is {matrix.rows}x{matrix.cols}"
                    )
            measure = family_cost_measure(family)
        result = bp_measure(measure, matrix, args.eps)
        body = {
            "which": "bp",
            "matrix": args.matrix,
            "lambda": measure.name,
            "eps": args.eps,
            "value": result.value,
            "prefix_index": result.prefix_index,
            "candidate_count": result.candidate_count,
            "distribution": result.distribution.weights,
            "witness_matrix": result.matrix.entries,
        }
    return _envelope("measure", args.seed, guards, body), failures


def _run_compile(args) -> tuple[dict, list[str]]:
    guards = {
        "compile_max_degree": COMPILE_MAX_DEGREE,
        "materialize_limit": MATERIALIZE_LIMIT,
    }
    if args.emit_protocol is not None:
        _check_writable(args.emit_protocol)
    members = [_load(p, loads_protocol, "protocol file") for p in args.members]
    try:
        poly = parse_polynomial(args.poly, nvars=len(members))
    except ValueError as exc:
        raise UsageError(f"bad polynomial: {exc}") from None
    if poly.is_zero():
        # the report's guess and cost bounds hold for nonzero polynomials only
        raise UsageError(f"bad polynomial: {args.poly!r} is identically zero")
    try:
        compiled = compile_polynomial(members, poly)
    except DomainMismatchError as exc:
        raise UsageError(str(exc)) from None

    rows, cols = compiled.rows, compiled.cols
    failures = []
    for x, y in product(range(rows), range(cols)):
        expected = poly.evaluate(tuple(m.gap[x][y] for m in members))
        if compiled.gap[x][y] != expected:
            failures.append(
                "compiled gap equals the polynomial of member gaps: "
                f"got {compiled.gap[x][y]}, expected {expected} at input ({x},{y})"
            )
            break
    l_max = max(m.guess_count for m in members)
    c_max = max(m.max_depth for m in members)
    body = {
        "polynomial": format_polynomial(poly),
        "arity": len(members),
        "rows": rows,
        "cols": cols,
        "member_guesses": [m.guess_count for m in members],
        "member_costs": [pp_cost(m) for m in members],
        "guess_count": compiled.guess_count,
        "pp_cost": pp_cost(compiled),
        "guess_bound": polynomial_guess_bound(poly, l_max),
        "cost_bound": polynomial_cost_bound(poly, l_max, c_max),
        "gap": compiled.gap,
    }
    if args.emit_protocol is not None:
        # flatten's limit is checked before the file is created
        _write_text(args.emit_protocol, dumps_protocol(compiled))
        body["emitted_protocol"] = args.emit_protocol
    return _envelope("compile", args.seed, guards, body), failures


def _run_amplify(args) -> tuple[dict, list[str]]:
    guards = {
        "amplify_tuple_limit": AMPLIFY_TUPLE_LIMIT,
        "majority_max_cost": MAJORITY_MAX_COST,
        "majority_max_k": MAJORITY_MAX_K,
    }
    body, target, result, failures = _pipeline(args)
    body["times"] = args.times
    if result is None:
        return _envelope("amplify", args.seed, guards, body), failures
    rp = result.protocol
    base_error = result.report["max_error"]

    try:
        amped = amplify(rp, args.times)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    measured = amped.error(target)
    advantage = Fraction(1, 2) - base_error
    bound = 1 - majority_success_bound(advantage, args.times)
    if measured > bound:
        failures.append(
            "amplified error within the majority success bound: "
            f"measured {measured} exceeds {bound}"
        )
    body.update(
        base_error=base_error,
        base_support=len(rp.support),
        base_cost=rp.cost(),
        amplified_error=measured,
        amplified_support=len(amped.support),
        amplified_cost=amped.cost(),
        error_bound=bound,
        error_bound_float=float(bound),
    )
    if args.eps is not None:
        body["eps"] = args.eps
        body["meets_eps"] = measured <= args.eps
        if not body["meets_eps"]:
            failures.append(
                "amplified error at most eps: "
                f"measured {measured} exceeds {args.eps}"
            )
    if args.delta is not None:
        body["delta"] = args.delta
        body["trials"] = args.trials
        try:
            sparse, search = sparsify_support(
                amped, target, args.delta, args.trials, seed=args.seed
            )
        except SparsifyRetryError as exc:
            failures.append(f"sparsified error within delta: {exc}")
            body["sparsify_budget"] = measured + args.delta
            body["sparsify_measured_errors"] = exc.measured_errors
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        else:
            body["sparsified_support"] = len(sparse.support)
            body["sparsified_error"] = sparse.error(target)
            body["sparsify_search"] = search
    return _envelope("amplify", args.seed, guards, body), failures


def _pipeline(
    args,
) -> tuple[dict, BooleanMatrix, Optional[PipelineResult], list[str]]:
    """Run the pipeline on --input against --matrix.  A failed pipeline
    check becomes a failure whose report joins the body, with no result."""
    rphi = _load(args.input, parse_randomized_polynomial, "pipeline input")
    target = _load_matrix(args.matrix, "boolean")
    if (rphi.rows, rphi.cols) != (target.rows, target.cols):
        raise UsageError(
            f"{args.matrix} is {target.rows}x{target.cols}; "
            f"{args.input} has a {rphi.rows}x{rphi.cols} domain"
        )
    body = {"input": args.input, "matrix": args.matrix}
    try:
        return body, target, run_pipeline(rphi, target), []
    except InvariantError as exc:
        body.update(exc.report or {})
        return body, target, None, [str(exc)]


def _run_pipeline_command(args) -> tuple[dict, list[str]]:
    body, _, result, failures = _pipeline(args)
    if result is not None:
        body.update(result.report)
    return _envelope("pipeline", args.seed, {}, body), failures


def _run_verify(args) -> tuple[dict, list[str]]:
    report = run_suite(args.suite, seed=args.seed)
    failing = [c["id"] for c in report["cases"] if c["status"] != "pass"]
    if not failing:
        return report, []
    shown = ", ".join(failing[:5])
    return report, [f"suite {args.suite}: {report['failed']} failing case(s): {shown}"]


# ---------------------------------------------------------------------------
# rendering and entry point


def _render_csv(report: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key in sorted(report):
        value = _jsonable(report[key])
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        writer.writerow([key, value])
    return buffer.getvalue()


def _emit(report: dict, fmt: str, out: Optional[str]) -> None:
    text = _render_csv(report) if fmt == "csv" else canonical_report_json(report)
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cclab",
        description="Desk-scale laboratory for guess protocols and matrix measures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand takes --seed and --out; amplify and pipeline both
    # read a pipeline input against a target matrix
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=0)
    common.add_argument("--out", help="write the report here instead of stdout")
    piped = argparse.ArgumentParser(add_help=False)
    piped.add_argument("--input", required=True, help="pipeline input file")
    piped.add_argument("--matrix", required=True, help="target boolean matrix file")

    measure = sub.add_parser(
        "measure", parents=[common], help="matrix measures and the perturbation game"
    )
    measure.add_argument("--matrix", required=True, help="matrix file (bool or sign)")
    measure.add_argument(
        "--which",
        required=True,
        choices=["disc", "disc-prime", "mc", "bp"],
        help="which measure to compute",
    )
    measure.add_argument("--eps", type=_fraction, help="perturbation radius for bp")
    measure.add_argument(
        "--lambda",
        dest="lam",
        default="entry-count",
        choices=["entry-count", "log-inverse-disc", "margin-complexity", "family-cost"],
        help="underlying measure for bp",
    )
    measure.add_argument(
        "--family",
        action="append",
        metavar="FILE",
        help="protocol file for --lambda family-cost (repeatable)",
    )
    measure.add_argument("--format", choices=["json", "csv"], default="json")
    measure.set_defaults(run=_run_measure)

    compile_cmd = sub.add_parser(
        "compile", parents=[common], help="compile a polynomial of protocols"
    )
    compile_cmd.add_argument(
        "--poly", required=True, help="polynomial in z1..zk, e.g. '2*z1^2 - z2'"
    )
    compile_cmd.add_argument(
        "--members", required=True, nargs="+", metavar="FILE", help="protocol files"
    )
    compile_cmd.add_argument(
        "--emit-protocol", metavar="FILE", help="also write the compiled protocol"
    )
    compile_cmd.set_defaults(run=_run_compile)

    amplify_cmd = sub.add_parser(
        "amplify", parents=[piped, common], help="majority-amplify a pipeline protocol"
    )
    amplify_cmd.add_argument("--times", type=int, default=3, help="odd repetition count")
    amplify_cmd.add_argument("--eps", type=_fraction, help="required amplified error")
    amplify_cmd.add_argument("--delta", type=_fraction, help="sparsify within delta")
    amplify_cmd.add_argument(
        "--trials", type=int, default=64, help="sparsified support size"
    )
    amplify_cmd.set_defaults(run=_run_amplify)

    pipeline_cmd = sub.add_parser(
        "pipeline",
        parents=[piped, common],
        help="compile and verify a randomized rectangle polynomial",
    )
    pipeline_cmd.set_defaults(run=_run_pipeline_command)

    verify = sub.add_parser(
        "verify", parents=[common], help="run a property-verification suite"
    )
    verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    verify.set_defaults(run=_run_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Reports hold exact integers of any length, such as the guess bound
    # (1 + k)^(k + 1) of a k-variable linear compile, 4,768 digits at k = 1500
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            _check_writable(args.out)
        report, failures = args.run(args)
    except (UsageError, MatrixFormatError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # JSON input nested deeper than the reader can recurse, such as a
        # protocol file whose member tree is hundreds of levels deep
        print("error: input nested too deeply to process", file=sys.stderr)
        return 2
    except InvariantError as exc:
        # a library check no subcommand expects to fail: the bare envelope
        report, failures = _envelope(args.command, args.seed, {}, {}), [str(exc)]
    for message in failures:
        print(f"invariant failed: {message}", file=sys.stderr)
    try:
        _emit(report, getattr(args, "format", "json"), args.out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
