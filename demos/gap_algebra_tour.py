"""A walking tour of the gap algebra.

Builds two tiny guess protocols, combines them with every operator, and
shows that the combined gaps obey the closed forms: complement negates,
sum adds, product multiplies, repeat scales.  Each composite is also
flattened into an explicit member list and its gap recounted from
scratch, so the algebra is checked against ground truth, not against
itself.
"""

from cclab import (
    enumerate_protocols,
    gap_profile,
    grid_protocol,
    pp_cost,
    pp_matrix,
    wrap_deterministic,
)
from cclab.invariants import check


def show(label, g):
    flat = g.flatten()
    check(flat.gap == g.gap, "flatten must recount to the same gap")
    print(f"{label:<22} guesses={g.guess_count:<4} pp_cost={pp_cost(g)}")
    for row in g.gap:
        print("    ", " ".join(f"{v:+d}" for v in row))


def main():
    a = wrap_deterministic(grid_protocol(2, 2, ((1, 0), (0, 1))))
    b = wrap_deterministic(grid_protocol(2, 2, ((1, 1), (0, 1))))

    show("a (parity grid)", a)
    show("b (upper grid)", b)
    show("complement(a)", a.complement())
    show("a + b", a + b)
    show("a * b", a * b)
    show("3 . a", a.repeat(3))
    show("(a + b) * a", (a + b) * a)

    combo = (a + b) * a
    profile = gap_profile(combo)
    print("\nacc/rej recount for (a + b) * a:")
    for x in range(2):
        for y in range(2):
            acc, rej = profile.acc[x][y], profile.rej[x][y]
            check(acc - rej == combo.gap[x][y], f"acc - rej != gap at ({x},{y})")
            print(f"  ({x},{y}): acc={acc} rej={rej} gap={acc - rej:+d}")

    print("\ndecision matrix of the composite (gap > 0):")
    for row in pp_matrix(combo).entries:
        print("    ", row)

    pool = list(enumerate_protocols(2, 2, 1))
    print(f"\nall depth-1 deterministic trees on 2x2: {len(pool)} distinct")


if __name__ == "__main__":
    main()
