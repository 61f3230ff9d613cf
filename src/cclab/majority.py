"""Sign-amplifying polynomial families and the majority-taking rational form.

The ingredients, all exact:

* ``root_poly(m)`` is the univariate polynomial (z - 1) * prod_i (z - 2^i)^2
  over i = 1..m.  On integers z in [1, 2^m] it is dwarfed in magnitude by its
  mirror value at -z, which is what the amplifier exploits.
* ``sign_amplifier(k, m)`` is the quotient
  (P(-z)^h - P(z)^h) / (P(-z)^h + P(z)^h) with h = amplifier_exponent(k),
  the least odd integer whose power of two reaches 2k + 1.  For integer z
  with 1 <= |z| <= 2^m its value lands in [1, 1 + 1/k) when z > 0 and in
  (-1 - 1/k, -1] when z < 0: an approximate sign with one-sided error less
  than 1/k.
* ``MajorityForm(k, m)`` combines k amplifiers (at strength 2k) into
  2*S(z_1) + ... + 2*S(z_k) + 1 over the common denominator.  The sign of
  the combined quotient is the majority sign of the inputs.  The class keeps
  the expression in structured per-variable form: it is evaluated, and the
  degrees and coefficient magnitudes of its expansion are computed exactly,
  without ever expanding a k-variate polynomial that may have millions of
  terms.  Its univariate parts N and D come from one expansion of P^h, h
  convolutions of coefficient lists, and its values at a point from P's
  values raised to the h-th power.

``verify_amplifier_bounds`` replays the degree, coefficient, window, and
sign claims for a given (k, m) in exact arithmetic and reports witnesses for
anything that fails.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product
from typing import Sequence

from .matrices import SizeGuardError
from .polynomials import IntPolynomial, RationalFunction

FAMILY_MAX_K = 5
FAMILY_MAX_M = 6


def amplifier_exponent(k: int) -> int:
    """Least odd h with 2^h >= 2k + 1."""
    if k < 1:
        raise ValueError("k must be positive")
    h = (2 * k).bit_length()  # ceil(log2(2k + 1)) for k >= 1
    return h if h % 2 else h + 1


@lru_cache(maxsize=None)
def root_poly(m: int) -> IntPolynomial:
    """(z - 1) * prod_{i=1..m} (z - 2^i)^2, univariate, expanded."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    z = IntPolynomial.variable(1, 0)
    p = z - 1
    for i in range(1, m + 1):
        p = p * (z - 2**i) ** 2
    return p


def _check_family_guard(k: int, m: int) -> None:
    if k < 1 or m < 0:
        raise ValueError(f"bad family parameters k={k}, m={m}")
    if k > FAMILY_MAX_K or m > FAMILY_MAX_M:
        raise SizeGuardError(
            f"family parameters k={k}, m={m} exceed the guard "
            f"(k <= {FAMILY_MAX_K}, m <= {FAMILY_MAX_M})"
        )


def _amplifier_parts(h: int, m: int) -> tuple[IntPolynomial, IntPolynomial]:
    """(N, D) = (P(-z)^h - P(z)^h, P(-z)^h + P(z)^h) for P = root_poly(m).

    P^h is expanded once, as a coefficient list convolved h times with P's.
    P(-z)^h is P^h at -z, so N keeps -2 times the odd coefficients of P^h
    and D twice the even ones."""
    root = [0] * (2 * m + 2)
    for (e,), c in root_poly(m).terms.items():
        root[e] = c
    power = [1]
    for _ in range(h):
        out = [0] * (len(power) + len(root) - 1)
        for j, c in enumerate(root):
            if c:
                for i, a in enumerate(power, j):
                    out[i] += a * c
        power = out
    odd = {(e,): -2 * c for e, c in enumerate(power) if e % 2}
    even = {(e,): 2 * c for e, c in enumerate(power) if not e % 2}
    return IntPolynomial(1, odd), IntPolynomial(1, even)


def sign_amplifier(k: int, m: int) -> RationalFunction:
    """The univariate amplifier quotient N / D at strength k and scale m."""
    _check_family_guard(k, m)
    return RationalFunction(*_amplifier_parts(amplifier_exponent(k), m))


class MajorityForm:
    """Structured form of the k-variable majority quotient at scale m.

    With N(z) = P(-z)^h - P(z)^h and D(z) = P(-z)^h + P(z)^h for
    h = amplifier_exponent(2k), the quotient is

        ( sum_i 2 * N(z_i) * prod_{j != i} D(z_j) + prod_j D(z_j) )
        / prod_j D(z_j).

    N is an odd polynomial and D an even one, so in the expanded numerator
    the i-th summand occupies the exponent block that is odd exactly in
    coordinate i, and the lone product occupies the all-even block.  The
    blocks never collide, which makes exact total degrees and maximum
    coefficient magnitudes computable coordinatewise.
    """

    def __init__(self, k: int, m: int):
        if k < 1 or m < 0:
            raise ValueError(f"bad majority parameters k={k}, m={m}")
        self.k = k
        self.m = m
        self.exponent = amplifier_exponent(2 * k)
        # N is odd, D is even
        self.odd_part, self.even_part = _amplifier_parts(self.exponent, m)
        self._part_cache: dict[int, tuple[int, int]] = {}

    @cached_property
    def doubled_odd_part(self) -> IntPolynomial:
        """2N, the univariate piece of the numerator's odd blocks."""
        return self.odd_part * 2

    # -- evaluation --------------------------------------------------------

    def _part_at(self, value: int) -> tuple[int, int]:
        """(N(value), D(value)) from P(-value)^h and P(value)^h, so from
        P's 2m + 2 coefficients rather than the expanded parts; memoized,
        since grid scans repeat coordinates."""
        cached = self._part_cache.get(value)
        if cached is None:
            root = root_poly(self.m)
            pos = root.evaluate((value,)) ** self.exponent
            neg = root.evaluate((-value,)) ** self.exponent
            cached = (neg - pos, neg + pos)
            self._part_cache[value] = cached
        return cached

    def _quotient(self, values: Sequence[int]) -> tuple[int, int]:
        """(numerator, denominator) at `values`: D = prod_j D(z_j) and
        D + sum_i 2 N(z_i) (D // D(z_i)); raises where D is 0."""
        if len(values) != self.k:
            raise ValueError(f"expected {self.k} values, got {len(values)}")
        parts = [self._part_at(v) for v in values]
        den = math.prod(d for _, d in parts)
        if den == 0:
            raise ZeroDivisionError(f"majority form undefined at {tuple(values)}")
        return den + sum(2 * n * (den // d) for n, d in parts), den

    def evaluate(self, values: Sequence[int]) -> Fraction:
        return Fraction(*self._quotient(values))

    def sign(self, values: Sequence[int]) -> int:
        num, den = self._quotient(values)
        prod = num * den
        return 0 if prod == 0 else (1 if prod > 0 else -1)

    # -- exact degree and coefficient data ---------------------------------

    @property
    def per_variable_degree(self) -> int:
        """Largest degree of any single variable, numerator or denominator."""
        return max(self.odd_part.degree, self.even_part.degree)

    @property
    def numerator_total_degree(self) -> int:
        d_deg = self.even_part.degree
        n_deg = self.odd_part.degree
        return max(n_deg + (self.k - 1) * d_deg, self.k * d_deg)

    @property
    def denominator_total_degree(self) -> int:
        return self.k * self.even_part.degree

    @property
    def total_degree(self) -> int:
        return max(self.numerator_total_degree, self.denominator_total_degree)

    @property
    def numerator_max_abs_coeff(self) -> int:
        """Exact maximum coefficient magnitude of the expanded numerator.

        Valid because the parity blocks are disjoint: within one block the
        coefficient at a multi-index is a product of independent univariate
        coefficients, so the block maximum is the product of the factor
        maxima.
        """
        mc_n = self.odd_part.max_abs_coeff
        mc_d = self.even_part.max_abs_coeff
        return max(mc_d**self.k, 2 * mc_n * mc_d ** (self.k - 1))

    @property
    def denominator_max_abs_coeff(self) -> int:
        return self.even_part.max_abs_coeff**self.k

    @property
    def max_abs_coeff(self) -> int:
        return max(self.numerator_max_abs_coeff, self.denominator_max_abs_coeff)

    @property
    def component_max_abs_coeff(self) -> int:
        """Largest coefficient in the per-variable pieces 2N and D."""
        return max(2 * self.odd_part.max_abs_coeff, self.even_part.max_abs_coeff)


@lru_cache(maxsize=None)
def majority_form(k: int, m: int) -> MajorityForm:
    return MajorityForm(k, m)


# ---------------------------------------------------------------------------
# bound verification


def _power_coeff_bound(h: int, m: int) -> int:
    """2^(2h log h + 3hm log(2m+1)) rewritten exactly: h^(2h) * (2m+1)^(3hm)."""
    return h ** (2 * h) * (2 * m + 1) ** (3 * h * m)


def _majority_coeff_bound(h: int, m: int) -> int:
    """2^(3h(log h + m log(2m+1) + 1)) = h^(3h) * (2m+1)^(3hm) * 8^h."""
    return h ** (3 * h) * (2 * m + 1) ** (3 * h * m) * 8**h


def verify_amplifier_bounds(
    k: int,
    m: int,
    grid_budget: int = 10**6,
    seed: int = 0,
) -> dict:
    """Exact-arithmetic check of the family's degree, size, window, and sign
    claims at strength k and scale m.

    Asserted pieces (reflected in the top-level "ok"):

    * P^h has degree exactly h(2m+1) and coefficients bounded by
      h^(2h) (2m+1)^(3hm), with h = amplifier_exponent(k);
    * the amplifier quotient has degree at most h(2m+1), coefficients at
      most twice the power bound, and values inside [1, 1 + 1/k) on
      z = 1..2^m and inside (-1 - 1/k, -1] on the mirrored range;
    * the majority form (strength 2k) has per-variable degree at most
      h'(2m+1) and per-variable component coefficients within the stated
      bound at h' = amplifier_exponent(2k), and its sign at every integer
      point with 1 <= |z_i| <= 2^m equals the majority sign, meaning
      positive when at least half the coordinates are positive.

    The expanded multivariate coefficient maximum is reported against both
    the h' bound and the smaller variant with h in place of h', without being
    asserted: both can genuinely be exceeded by the expansion over the
    common denominator once several variables multiply together, and the
    report keeps the exact numbers visible instead.
    """
    _check_family_guard(k, m)
    violations: list[dict] = []
    h = amplifier_exponent(k)
    p = root_poly(m)
    power = p**h

    power_bound = _power_coeff_bound(h, m)
    power_report = {
        "degree": power.degree,
        "degree_expected": h * (2 * m + 1),
        "max_abs_coeff": power.max_abs_coeff,
        "coeff_bound": power_bound,
    }
    if power.degree != h * (2 * m + 1):
        violations.append({"check": "power-degree", "got": power.degree})
    if power.max_abs_coeff > power_bound:
        violations.append(
            {"check": "power-coeff", "got": power.max_abs_coeff, "bound": power_bound}
        )

    amp = sign_amplifier(k, m)
    amp_bound = 2 * power_bound
    amp_report = {
        "degree": amp.degree,
        "degree_bound": h * (2 * m + 1),
        "max_abs_coeff": amp.max_abs_coeff,
        "coeff_bound": amp_bound,
        "window_points": 2 * 2**m,
    }
    if amp.degree > h * (2 * m + 1):
        violations.append({"check": "amplifier-degree", "got": amp.degree})
    if amp.max_abs_coeff > amp_bound:
        violations.append(
            {"check": "amplifier-coeff", "got": amp.max_abs_coeff, "bound": amp_bound}
        )
    upper = 1 + Fraction(1, k)
    for z in range(1, 2**m + 1):
        val = amp.evaluate((z,))
        if not (1 <= val < upper):
            violations.append({"check": "amplifier-window", "z": z, "value": str(val)})
        val_neg = amp.evaluate((-z,))
        if not (-upper < val_neg <= -1):
            violations.append(
                {"check": "amplifier-window", "z": -z, "value": str(val_neg)}
            )

    form = majority_form(k, m)
    h2 = form.exponent
    per_var_bound = h2 * (2 * m + 1)
    component_bound = _majority_coeff_bound(h2, m)
    component_bound_small = _majority_coeff_bound(h, m)
    majority_report = {
        "exponent": h2,
        "per_variable_degree": form.per_variable_degree,
        "per_variable_degree_bound": per_var_bound,
        "component_max_abs_coeff": form.component_max_abs_coeff,
        "component_coeff_bound": component_bound,
        "numerator_total_degree": form.numerator_total_degree,
        "denominator_total_degree": form.denominator_total_degree,
        "expanded_max_abs_coeff": form.max_abs_coeff,
        "expanded_within_bound": form.max_abs_coeff <= component_bound,
        "expanded_within_small_bound": form.max_abs_coeff <= component_bound_small,
    }
    if form.per_variable_degree > per_var_bound:
        violations.append(
            {"check": "majority-degree", "got": form.per_variable_degree}
        )
    if form.component_max_abs_coeff > component_bound:
        violations.append(
            {
                "check": "majority-coeff",
                "got": form.component_max_abs_coeff,
                "bound": component_bound,
            }
        )

    grid_size = (2 * 2**m) ** k
    sampled = grid_size > grid_budget
    values = [v for v in range(-(2**m), 2**m + 1) if v != 0]
    if sampled:
        rng = random.Random(seed)
        points = (
            tuple(rng.choice(values) for _ in range(k)) for _ in range(grid_budget)
        )
        checked = grid_budget
    else:
        points = iter_product(values, repeat=k)
        checked = grid_size
    sign_failures = 0
    for point in points:
        positives = sum(1 for v in point if v > 0)
        expected = 1 if 2 * positives >= k else -1
        got = form.sign(point)
        if got != expected:
            sign_failures += 1
            if len(violations) < 20:
                violations.append(
                    {"check": "majority-sign", "point": list(point), "got": got}
                )
    majority_report["sign_points_checked"] = checked
    majority_report["sign_sampled"] = sampled
    majority_report["sign_failures"] = sign_failures

    return {
        "k": k,
        "m": m,
        "h": h,
        "power": power_report,
        "amplifier": amp_report,
        "majority": majority_report,
        "violations": violations,
        "ok": not violations,
    }
