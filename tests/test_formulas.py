"""Closed-form counts, refined polynomials and the x-enumeration maps."""

import inspect
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest

from halfturn_ice import formulas
from halfturn_ice.enum_asm import census
from halfturn_ice.exactnum import ZETA
from halfturn_ice.formulas import (
    UnsupportedSize, central_split, count_asm, count_closed,
    count_ht_even, count_ht_odd, four_enum_identity,
    refined_asm_closed, refined_ht2_closed, refined_ht_odd,
    xenum_map)
from halfturn_ice.laurent import LaurentPoly

T = LaurentPoly.var("t")


def _at(p, **values):
    """The constant p takes with every variable given a value."""
    return p.substitute(values).constant_value()


def test_count_examples():
    assert count_asm(4) == 42
    assert count_ht_even(6) == 140
    assert count_ht_odd(7) == 588
    assert count_closed("ht-odd-plus", 7) == 336
    assert count_closed("ht-odd-minus", 7) == 252
    assert count_closed("robbins", 5) == 25


def _fraction_count(num, den):
    """prod(k! for k in num) / prod(k! for k in den) as one Fraction."""
    return prod((Fraction(factorial(k)) for k in num), start=Fraction(1)) / prod(
        factorial(k) for k in den)


def test_counts_match_the_fraction_products():
    for n in range(1, 41):
        assert count_asm(n) == _fraction_count(
            [3 * i + 1 for i in range(n)], [n + i for i in range(n)]), n
    for m in range(0, 21):
        even = _fraction_count([3 * i for i in range(m)] + [3 * i + 2 for i in range(m)],
                               [m + i for i in range(m)] * 2)
        assert count_ht_even(2 * m) == even, m
        if 2 * m + 1 <= 40:
            odd = even * Fraction(factorial(m) * factorial(3 * m), factorial(2 * m) ** 2)
            assert count_ht_odd(2 * m + 1) == odd, m
    for n in range(1, 21):  # the refined counts A(n, r)
        pre = count_asm(n) * Fraction(factorial(2 * n - 1), factorial(n - 1) * factorial(3 * n - 2))
        want = [pre * _fraction_count([n + r - 2, 2 * n - r - 1], [r - 1, n - r])
                for r in range(1, n + 1)]
        assert [refined_asm_closed(n).coeff_of({"t": r - 1}).constant_value()
                for r in range(1, n + 1)] == want, n


def test_factorial_ratio_refuses_a_fraction():
    assert formulas._factorial_ratio([4], [2], "4!/2!") == 12
    assert formulas._factorial_ratio([], [], "empty") == 1
    with pytest.raises(ArithmeticError, match=r"^1!/2! is not an integer$"):
        formulas._factorial_ratio([1], [2], "1!/2!")


def test_split_consistency_up_to_m20():
    for m in range(1, 21):
        order = 2 * m + 1
        plus = count_closed("ht-odd-plus", order)
        minus = count_closed("ht-odd-minus", order)
        assert plus + minus == count_ht_odd(order)
        assert Fraction(plus, minus) == Fraction(m + 1, m)


def test_counts_up_to_the_digit_limit():
    # A(800) has 72,718 digits and is built; A(939) would pass MAX_DIGITS.
    assert 10 ** 72717 < count_asm(800) < 10 ** 72718
    assert count_asm(938) < 10 ** formulas.MAX_DIGITS
    for family, order in (("asm", 939), ("ht-even", 1328), ("ht-odd", 1327)):
        with pytest.raises(UnsupportedSize, match="past the limit"):
            count_closed(family, order)


def test_count_errors():
    with pytest.raises(UnsupportedSize):
        count_closed("asm", 0)
    with pytest.raises(UnsupportedSize):
        count_closed("ht-even", 3)
    with pytest.raises(UnsupportedSize):
        count_closed("ht-odd", 4)
    with pytest.raises(UnsupportedSize):
        count_closed("mystery", 3)


def test_refined_asm_small():
    assert refined_asm_closed(3) == 2 + 3 * T + 2 * T ** 2
    assert refined_asm_closed(4) == 7 + 14 * T + 14 * T ** 2 + 7 * T ** 3


@pytest.mark.parametrize("n", range(1, 11))
def test_refined_asm_sums_and_symmetry(n):
    p = refined_asm_closed(n)
    assert _at(p, t=1) == count_asm(n)
    coeffs = [p.coeff_of({"t": r}).constant_value() for r in range(n)]
    assert coeffs == coeffs[::-1]


def test_refined_ht2():
    # The pinned reading is the one of the two that the census bears out.
    target = census(4, "ht").genfunc().substitute({"x": 1}).exact_div(
        census(2, "all").genfunc().substitute({"x": 1}))
    assert formulas.HT2_READING == "factorial"
    assert formulas._refined_ht2_formula(2, "factorial") == target
    assert formulas._refined_ht2_formula(2, "plain") != target
    assert refined_ht2_closed(2) == 2 + T + 2 * T ** 2
    assert refined_ht2_closed(1) == 1 + T  # the base case outside the formula
    with pytest.raises(UnsupportedSize):
        refined_ht2_closed(0)


def test_refined_ht2_lists_no_matrix():
    # Cold, the closed form builds no census and compiles no transfer plan.
    probe = ("from halfturn_ice import enum_asm, formulas; formulas.refined_ht2_closed(4); "
             "print(enum_asm.census.cache_info().currsize, "
             "enum_asm._transfer_plan.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0", "0"]


def test_refined_ht2_reassembles_even_census():
    from halfturn_ice.enum_asm import census
    for m in (2, 3):
        product = refined_ht2_closed(m) * refined_asm_closed(m)
        brute = census(2 * m, "ht").genfunc().substitute({"x": 1})
        assert product == brute
        assert _at(product, t=1) == count_ht_even(2 * m)


def test_refined_ht_odd_small():
    plus, minus, robbins = refined_ht_odd(1)
    assert plus == 1 + T ** 2
    assert minus == T
    assert robbins == 1 + T + T ** 2
    assert (_at(plus, t=1), _at(minus, t=1)) == (2, 1)
    p2, m2, _ = refined_ht_odd(2)
    assert (_at(p2, t=1), _at(m2, t=1)) == (15, 10)


def _listing_split(m):
    """`central_split` in (t, x), fed by the listing census."""
    def pair(k):
        amx = census(k, "all").genfunc()
        return amx, census(2 * k, "ht").genfunc().exact_div(amx)
    return central_split(*pair(m), *pair(m + 1), LaurentPoly.var("x"))


def test_refined_ht_odd_symbolic():
    plus, minus, robbins = _listing_split(1)
    x = LaurentPoly.var("x")
    assert plus == 1 + T ** 2
    assert minus == T
    assert robbins == 1 + x * T + T ** 2


@pytest.mark.parametrize("m", [1, 2, 3])
def test_refined_ht_odd_at_x_is_the_census_split(m):
    # The (t, x) split is the census split as polynomials in x, so it
    # agrees with the census at every x at once, and at x = 1 with the
    # closed forms.
    plus, minus, robbins = _listing_split(m)
    assert (plus, minus) == census(2 * m + 1, "ht").split_by_center()
    assert robbins == plus + LaurentPoly.var("x") * minus
    at_1 = tuple(p.substitute({"x": 1}) for p in (plus, minus, robbins))
    assert at_1 == refined_ht_odd(m)


def test_formulas_loads_no_census_route():
    # A closed form lists no matrix and runs no plan, so the module imports
    # neither census route; the central split takes no route switch.
    probe = ("import sys, halfturn_ice.formulas; "
             "print(sorted(m for m in sys.modules if m.startswith('halfturn_ice')))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert "halfturn_ice.enum_asm" not in out and "halfturn_ice.icemodel" not in out, out
    assert list(inspect.signature(refined_ht_odd).parameters) == ["m"]


def test_xenum_map():
    xs, (t_num, t_den) = xenum_map()
    assert xs == LaurentPoly(("a",), {(2,): 1, (0,): 2, (-2,): 1})
    assert _at(xs, a=ZETA) == 1
    assert _at(t_num, a=ZETA, v=1) == _at(t_den, a=ZETA, v=1)
    assert _at(t_num, a=ZETA, v=ZETA) == 0  # t = 0 at v = a
    assert _at(t_den, a=ZETA, v=ZETA.inverse()) == 0  # the pole at v = 1/a


def test_four_enum():
    assert four_enum_identity(1, LaurentPoly.const(1)) == 1 + T
    assert four_enum_identity(2, 1 + T) == 2 + 6 * T + 6 * T ** 2 + 2 * T ** 3
    with pytest.raises(UnsupportedSize):
        four_enum_identity(0, LaurentPoly.const(1))
    for m in (1, 2, 3):  # A(m; t, 4) and the order-2m census at x = 4 by listing
        a_m4 = census(m, "all").genfunc().substitute({"x": 4})
        assert four_enum_identity(m, a_m4) == census(2 * m, "ht").genfunc().substitute({"x": 4})
