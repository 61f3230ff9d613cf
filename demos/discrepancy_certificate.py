"""Exact discrepancy with a checkable certificate.

disc(A) is the value of a zero sum game between a distribution over
inputs and a rectangle.  The solver returns the optimal distribution
together with a worst rectangle; both sides are rational, so the
certificate can be re-verified by direct enumeration.  The script does
exactly that for the 2x2 parity matrix and two Hadamard matrices.
"""

from fractions import Fraction

from cclab import (
    SignMatrix,
    best_rectangle,
    disc,
    disc_mu,
)
from cclab.invariants import check

PARITY = SignMatrix.from_rows([(1, -1), (-1, 1)])
H2 = SignMatrix.from_rows([(1, 1), (1, -1)])
H4 = SignMatrix.from_rows(
    [(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)]
)


def certify(label, A):
    result = disc(A)
    print(f"{label}: disc = {result.value} ({float(result.value):.4f}) "
          f"in {result.iterations} refinement round(s)")
    print("  optimal distribution:")
    for row in result.distribution.weights:
        print("    ", " ".join(str(w) for w in row))

    # re-derive the value from the certificate, trusting nothing
    achieved = disc_mu(A, result.distribution)
    worst, rect = best_rectangle(A, result.distribution)
    check(achieved == worst == result.value, f"recount {achieved}, {worst} differs")
    print(f"  worst rectangle rows={sorted(rect.row_set)} "
          f"cols={sorted(rect.col_set)} bias={worst}")
    print()


def main():
    certify("parity", PARITY)
    certify("H2", H2)
    certify("H4 (Sylvester)", H4)

    from cclab import InputDistribution

    print("uniform is not always optimal: on H2 the uniform distribution")
    u = InputDistribution.uniform(2, 2)
    print(f"  gives {disc_mu(H2, u)}, while the optimum is {disc(H2).value}")
    check(disc_mu(H2, u) == Fraction(1, 2), "uniform bias on H2 is not 1/2")


if __name__ == "__main__":
    main()
