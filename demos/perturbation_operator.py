"""How much can a measure drop under distributional perturbation?

The perturbation operator relaxes a matrix measure Lambda: instead of
charging Lambda(f), an adversary may charge any matrix g that is hard
to tell apart from f, in the sense that some input distribution puts
weight at most eps on the cells where f and g disagree.  The operator
value is the cheapest such g under the best distribution.

With the entry-count measure and the 2x2 identity the worked example
gives value 2: splitting weight over the diagonal leaves both diagonal
cells too heavy to flip, but everything else is free.
"""

from fractions import Fraction

from cclab import BooleanMatrix, BpGame, bp_measure, entry_count_measure
from cclab.invariants import check


def sweep(lam, f, label):
    print(f"{label}: entries")
    for row in f.entries:
        print("    ", row)
    print("  eps      value   witness matrix")
    game = BpGame(lam, f.rows, f.cols)  # scores every candidate once
    for eps in (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        result = game.solve(f, eps)
        witness = "".join(str(v) for row in result.matrix.entries for v in row)
        print(f"  {str(eps):<6} {result.value:>7}   {witness}")
    print()


def main():
    lam = entry_count_measure()
    identity = BooleanMatrix.from_rows([(1, 0), (0, 1)])
    sweep(lam, identity, "identity 2x2")

    result = bp_measure(lam, identity, Fraction(1, 4))
    print("worked example, eps = 1/4:")
    print(f"  value {result.value} with witness {result.matrix.entries}")
    print("  adversarial distribution:")
    for row in result.distribution.weights:
        print("    ", " ".join(str(w) for w in row))
    check(result.value == 2, f"worked example value {result.value} != 2")

    dense = BooleanMatrix.from_rows([(1, 0, 1), (0, 1, 0), (1, 1, 0)])
    sweep(lam, dense, "a 3x3 with five ones")


if __name__ == "__main__":
    main()
