"""From a rectangle polynomial to a verified randomized protocol.

The union of two overlapping 2x2 rectangles has an exact
inclusion-exclusion polynomial with one negative term.  The pipeline
builds one unit-cost member per term, repeated by the coefficient's
magnitude and complemented for the negative one, thresholds at the
shift, and verifies the assembled protocol cell by cell against the
target grid.  The same run is then repeated through the serialized
input format, as the command line tool would consume it.
"""

from cclab import (
    counting_protocol,
    decision_matrix,
    or_fixture,
    parse_randomized_polynomial,
    run_pipeline,
    serialize_randomized_polynomial,
)
from cclab.invariants import check


def main():
    rphi, target = or_fixture()
    (phi, prob) = rphi.support[0]

    print("target grid (union of two rectangles):")
    for row in target.entries:
        print("    ", row)
    print("\npolynomial terms (coefficient, f, g):")
    for t in phi.terms:
        print(f"    {t.coefficient:+d}  f={t.f_table}  g={t.g_table}")

    counting, shift = counting_protocol(phi)
    # each complemented unit term adds one to the shift
    print(f"\nshift {shift} turns it into {counting.guess_count} unit terms "
          f"({shift} complemented)")
    check(decision_matrix(phi) == target, "the polynomial misses the target")

    result = run_pipeline(rphi, target)
    report = result.report
    (member,) = report["members"]
    print(f"member protocol: {member['pp_guesses']} guesses, "
          f"pp cost {member['pp_cost']} <= bound {member['cost_bound']}")
    print(f"assembled error: {report['max_error']} at cost {report['cost']}")

    text = serialize_randomized_polynomial(rphi)
    again = parse_randomized_polynomial(text)
    rerun = run_pipeline(again, target)
    same = rerun.report["max_error"] == report["max_error"]
    check(same, "round trip changed the error")
    print(f"\nserialized form is {len(text)} bytes and round trips "
          f"to the same protocol")


if __name__ == "__main__":
    main()
