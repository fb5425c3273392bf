"""Closed-form enumeration results: product formulas, refined polynomials,
the x-enumeration change of variables and the 4-enumeration identity.

All arithmetic is exact; whenever a closed form is a ratio of factorials
that is asserted to be an integer, the integrality is checked at runtime
rather than assumed.  A closed form lists no matrix and runs no plan: the
module imports only `laurent`.  `central_split`, Theorem 2's central-entry
split in t and x, is fed the closed forms at x = 1 (`refined_ht_odd`) and
the plan census in `refined-split`.  `HT2_READING` pins the reading of the
refined cofactor formula, which `refined-1` resolves against the census.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .laurent import LaurentPoly, sigma_of

FAMILIES = ("asm", "ht-even", "ht-odd", "ht-odd-plus", "ht-odd-minus", "robbins")


class UnsupportedSize(ValueError):
    """The requested closed form does not apply at this size."""


# The most decimal digits a closed form is built to.  A(n) has about
# 0.11362 n^2 digits (log10 of 3 sqrt(3)/4 per n^2), a half-turn count of
# order n about half as many, and a refined polynomial up to its order
# times its count's.
MAX_DIGITS = 100_000


def _check_digits(digits: float, what: str):
    """Refuse, before any list or sieve is built, a value of about `digits`
    digits past MAX_DIGITS."""
    if digits > MAX_DIGITS:
        raise UnsupportedSize(f"{what} would have about {digits:.3g} digits, "
                              f"past the limit of {MAX_DIGITS}")


def _as_int(f: Fraction, what: str) -> int:
    if f.denominator != 1:
        raise ArithmeticError(f"{what} = {f} is not an integer")
    return f.numerator


def _factorial_ratio(num: list[int], den: list[int], what: str) -> int:
    """prod(k! for k in num) / prod(k! for k in den), by prime exponents: j
    divides k! once for each k >= j, each j splits into primes by its
    smallest prime factor, and each p^e is multiplied in once.  A negative
    exponent means the ratio is not an integer."""
    net = Counter(num)
    net.subtract(den)
    top = max(net, default=0)
    spf = [0] * (top + 1)
    for p in range(top, 1, -1):  # the smallest divisor > 1 is set last
        spf[p::p] = [p] * (top // p)
    exps, run = [0] * (top + 1), 0
    for j in range(top, 1, -1):
        run += net[j]
        q = j
        while q > 1:
            exps[spf[q]] += run
            q //= spf[q]
    if min(exps) < 0:
        raise ArithmeticError(f"{what} is not an integer")
    return prod(p ** e for p, e in enumerate(exps) if e)


@lru_cache(maxsize=None)
def count_asm(n: int) -> int:
    """1, 2, 7, 42, 429, 7436, ..."""
    if n < 1:
        raise UnsupportedSize("order must be >= 1")
    _check_digits(0.11362 * n * n, f"A({n})")
    return _factorial_ratio([3 * i + 1 for i in range(n)], [n + i for i in range(n)],
                            f"count_asm({n})")


def _ht_count(m: int, odd: bool, what: str) -> int:
    """prod_(i<m) (3i)! (3i+2)! / (m+i)!^2, times m! (3m)! / (2m)!^2 if odd."""
    _check_digits(0.05681 * (2 * m + odd) ** 2, what)
    return _factorial_ratio([k for i in range(m) for k in (3 * i, 3 * i + 2)] + [m, 3 * m] * odd,
                            [m + i for i in range(m)] * 2 + [2 * m] * 2 * odd, what)


@lru_cache(maxsize=None)
def count_ht_even(order: int) -> int:
    """2, 10, 140, ... at orders 2, 4, 6; 1 at order 0."""
    if order < 0 or order % 2:
        raise UnsupportedSize("order must be even and >= 0")
    return _ht_count(order // 2, False, f"count_ht_even({order})")


@lru_cache(maxsize=None)
def count_ht_odd(order: int) -> int:
    """1, 3, 25, 588, ... at orders 1, 3, 5, 7."""
    if order < 1 or order % 2 == 0:
        raise UnsupportedSize("order must be odd and >= 1")
    return _ht_count((order - 1) // 2, True, f"count_ht_odd({order})")


def count_closed(family: str, order: int) -> int:
    """Total count of the family at the given matrix order."""
    if family == "asm":
        return count_asm(order)
    if family == "ht-even":
        return count_ht_even(order)
    if family in ("ht-odd", "robbins"):
        # The orbit-weighted total at x = 1 is the plain count.
        return count_ht_odd(order)
    if family in ("ht-odd-plus", "ht-odd-minus"):
        if order % 2 == 0:
            raise UnsupportedSize("central-entry families need odd order")
        m = (order - 1) // 2
        num = m + 1 if family == "ht-odd-plus" else m
        return _as_int(Fraction(num, 2 * m + 1) * count_ht_odd(order),
                       f"count_closed({family}, {order})")
    raise UnsupportedSize(f"unknown family {family!r}")


# ----------------------------------------------------------------------
# refined 1-enumerations
# ----------------------------------------------------------------------


def _t_poly(coeffs: list[Fraction]) -> LaurentPoly:
    terms = {}
    for r, c in enumerate(coeffs):
        ci = _as_int(c, f"refined coefficient of t^{r}")
        if ci:
            terms[(r,)] = ci
    return LaurentPoly(("t",), terms)


def refined_asm_closed(n: int) -> LaurentPoly:
    """Refined counts A(n, r) as a polynomial in t (degree n - 1)."""
    if n < 1:
        raise UnsupportedSize("order must be >= 1")
    _check_digits(0.11362 * n ** 3, f"the refined A({n}; t)")
    num = [3 * i + 1 for i in range(n)] + [2 * n - 1]  # A(n) (2n-1)!
    den = [n + i for i in range(n)] + [n - 1, 3 * n - 2]
    return _t_poly([_factorial_ratio(num + [n + r - 2, 2 * n - r - 1], den + [r - 1, n - r],
                                     f"A({n}, {r})") for r in range(1, n + 1)])


# The cofactor's refined formula carries (2m - r - 1)!, "factorial", where
# the printed (2m - r - 1) is "plain".
HT2_READING = "factorial"


def _refined_ht2_formula(m: int, reading: str) -> LaurentPoly:
    total = Fraction(count_ht_even(2 * m), count_asm(m))
    pre = Fraction((3 * m - 2) * factorial(2 * m - 1),
                   factorial(m - 1) * factorial(3 * m - 1))
    coeffs = []
    for r in range(1, m + 2):
        w = factorial(2 * m - r - 1) if reading == "factorial" else (2 * m - r - 1)
        coeffs.append(total * pre *
                      Fraction((m * m - m * r + (r - 1) ** 2) * factorial(m + r - 3) * w,
                               factorial(r - 1) * factorial(m - r + 1)))
    return _t_poly(coeffs)


def refined_ht2_closed(m: int) -> LaurentPoly:
    """Refined cofactor polynomial A_HT(2m, .)/A(m, .) summed against t.

    The formula's r = 1 term is ill-defined at m = 1, where the documented
    base case 1 + t (exact by brute force) is returned.
    """
    if m < 1:
        raise UnsupportedSize("m must be >= 1")
    if m == 1:
        return LaurentPoly(("t",), {(0,): 1, (1,): 1})
    _check_digits(0.05681 * (2 * m) ** 2 * (m + 1), f"the refined cofactor of order {2 * m}")
    return _refined_ht2_formula(m, HT2_READING)


# ----------------------------------------------------------------------
# central-entry split of the odd refined enumerations
# ----------------------------------------------------------------------


def central_split(a_m: LaurentPoly, h_2m: LaurentPoly, a_m1: LaurentPoly,
                  h_2m2: LaurentPoly, x: LaurentPoly,
                  ) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """Theorem 2's split of odd order 2m + 1, refined in t: (plus, minus,
    robbins) from A(m), the cofactor A_HT(2m)/A(m), A(m + 1) and the
    cofactor of order 2m + 2, at x (a constant or the variable).  The whole
    is plus + sqrt(x)*minus, and robbins = plus + x*minus."""
    den = 4 - x
    plus = (-x * a_m1 * h_2m + 2 * a_m * h_2m2).exact_div(den)
    minus = (2 * a_m1 * h_2m - a_m * h_2m2).exact_div(den)
    return plus, minus, plus + x * minus


def refined_ht_odd(m: int) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """`central_split` of odd order 2m + 1 at x = 1, from the closed forms."""
    if m < 1:
        raise UnsupportedSize("m must be >= 1")
    return central_split(refined_asm_closed(m), refined_ht2_closed(m),
                         refined_asm_closed(m + 1), refined_ht2_closed(m + 1),
                         LaurentPoly.const(1))


# ----------------------------------------------------------------------
# x-enumeration change of variables and the 4-enumeration identity
# ----------------------------------------------------------------------


def xenum_map() -> tuple[LaurentPoly, tuple[LaurentPoly, LaurentPoly]]:
    """The (x, t) pair attached to parameters (a, v): x = a^2 + 2 + a^-2
    and t = sigma(a/v)/sigma(a*v), as (x, (t_num, t_den))."""
    x = LaurentPoly(("a",), {(2,): 1, (0,): 2, (-2,): 1})
    a = LaurentPoly.var("a")
    v = LaurentPoly.var("v")
    return x, (sigma_of(a * v.monomial_inverse()), sigma_of(a * v))


def four_enum_identity(m: int, a_m4: LaurentPoly) -> LaurentPoly:
    """The 4-enumeration of even half-turn order 2m as
    2^(m-1) * (1 + t) * A(m; t, 4)^2, from the refined 4-enumeration
    a_m4 = A(m; t, 4)."""
    if m < 1:
        raise UnsupportedSize("m must be >= 1")
    one_plus_t = LaurentPoly(("t",), {(0,): 1, (1,): 1})
    return 2 ** (m - 1) * one_plus_t * a_m4 * a_m4
