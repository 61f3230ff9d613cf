"""Driving error off the 1/3 boundary by voting.

The boundary fixture is a randomized protocol whose worst input errs
with probability exactly 1/3, the largest error the pipeline accepts.
Taking the majority of t independent runs pushes the error down
geometrically; the exact per-input error of the voted protocol is
computed by expanding the product distribution, and compared against
the Chernoff-style guarantee.
"""

from fractions import Fraction

from cclab import (
    amplify,
    boundary_fixture,
    majority_success_bound,
    run_pipeline,
    sparsify_support,
)
from cclab.invariants import check


def main():
    rphi, target = boundary_fixture()
    result = run_pipeline(rphi, target)
    base = result.protocol
    base_error = max(v for row in base.per_input_error(target) for v in row)
    print(f"base protocol: support {len(base.support)}, cost {base.cost()}, "
          f"worst error {base_error}")

    eps = Fraction(1, 2) - base_error
    for t in (3, 5, 7):
        voted = amplify(base, t)
        measured = max(v for row in voted.per_input_error(target) for v in row)
        bound = 1 - majority_success_bound(eps, t)
        print(f"  t={t}: support {len(voted.support):>3}, "
              f"error {str(measured):>8} = {float(measured):.4f} "
              f"<= bound {float(bound):.4f}")
        check(measured <= bound, f"t={t}: error {measured} above the bound {bound}")

    voted = amplify(base, 3)
    slim, search = sparsify_support(
        voted, target, delta=Fraction(1, 6), sample_size=8, seed=11
    )
    slim_error = max(v for row in slim.per_input_error(target) for v in row)
    print(f"\nsparsified t=3 protocol: support {len(voted.support)} -> "
          f"{len(slim.support)}, error {slim_error}")
    print(f"  search report: {search}")


if __name__ == "__main__":
    main()
