"""Sign amplifier windows and the majority quotient, exactly.

The single-variable amplifier S^k_m maps every integer gap z with
1 <= |z| <= 2^m into the window [1, 1 + 1/k) while keeping its sign.
Stacking one amplified copy per coordinate and antisymmetrizing gives
the k-variable majority form, whose sign is the strict majority of the
input signs.  Everything below is evaluated in exact rational
arithmetic; the window membership is checked, not eyeballed.
"""

from fractions import Fraction
from itertools import product

from cclab import amplifier_exponent, majority_form, sign_amplifier
from cclab.invariants import check


def window_table(k, m):
    amp = sign_amplifier(k, m)
    print(f"S^{k}_{m}: numerator degree {amp.numerator.degree}, "
          f"denominator degree {amp.denominator.degree}")
    for z in range(1, 2**m + 1):
        value = amp.evaluate((z,))
        check(1 <= value < 1 + Fraction(1, k), f"S({z}) = {value} outside the window")
        negative = amp.evaluate((-z,))
        check(-1 - Fraction(1, k) < negative <= -1, f"S({-z}) = {negative} outside")
        print(f"  z={z:>2}  S(z) = {str(value):>24}  = {float(value):.6f}")
    print()


def main():
    for k, m in ((1, 1), (2, 2), (3, 2)):
        window_table(k, m)

    print("window width scales as 1/k at the worst input:")
    for k in (1, 2, 3, 4):
        amp = sign_amplifier(k, 2)
        worst = max(abs(amp.evaluate((z,))) - 1 for z in range(1, 5))
        print(f"  k={k}: max |S(z)| - 1 = {float(worst):.6f} < 1/{k} = {1 / k:.6f}")

    k, m = 3, 1
    form = majority_form(k, m)
    h = amplifier_exponent(2 * k)
    print(f"\nmajority of {k} gaps in [-2^{m}, 2^{m}]: exponent h = {h}, "
          f"per-variable degree {form.per_variable_degree}")
    print("sign agrees with strict majority on every sign pattern:")
    for signs in product((1, -1), repeat=k):
        point = tuple(s * 2 for s in signs)
        majority = 1 if sum(signs) > 0 else -1
        check(form.sign(point) == majority, f"sign at {point} is not the majority")
        print(f"  gaps {point} -> sign {form.sign(point):+d} (majority {majority:+d})")


if __name__ == "__main__":
    main()
