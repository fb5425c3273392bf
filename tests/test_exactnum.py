"""Field arithmetic in Q(zeta)."""

import copy
import pickle
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from halfturn_ice.exactnum import Cyclo, ZETA, pair_quotient, sigma

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
cyclos = st.builds(Cyclo, rationals, rationals)
nonzero_cyclos = cyclos.filter(bool)


def test_defining_relation():
    assert ZETA * ZETA == ZETA - 1


def test_inverse_of_zeta():
    # 1/zeta = 1 - zeta since zeta*(1 - zeta) = zeta - zeta^2 = 1
    assert 1 / ZETA == 1 - ZETA
    assert ZETA * (1 - ZETA) == Cyclo(1)


def test_sigma_square_is_minus_three():
    s = 2 * ZETA - 1
    assert s * s == -3
    assert sigma(ZETA) == s
    assert sigma(ZETA ** 2) == s


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Cyclo(1) / Cyclo(0)
    with pytest.raises(ZeroDivisionError):
        Cyclo(0).inverse()


def test_powers():
    assert ZETA ** 3 == -1
    assert ZETA ** 6 == 1
    assert ZETA ** -2 == -ZETA


@pytest.mark.parametrize("x", [ZETA, Cyclo(Fraction(-3, 4), Fraction(5, 7)), Cyclo(2)])
def test_powers_match_repeated_products(x):
    product = Cyclo(1)
    for e in range(10):
        assert x ** e == product, e
        assert x ** -e == product.inverse(), e
        product = product * x


def test_mixed_arithmetic_with_ints_and_fractions():
    x = Cyclo(Fraction(1, 2), 3)
    assert x + 1 == Cyclo(Fraction(3, 2), 3)
    assert 2 * x == Cyclo(1, 6)
    assert x - Fraction(1, 2) == Cyclo(0, 3)


@pytest.mark.parametrize("value", [0.1, 2.0, Decimal("0.1"), "1/2", None, ZETA],
                         ids=["float", "whole-float", "decimal", "string", "none", "cyclo-part"])
def test_only_ints_and_fractions_make_a_cyclo(value):
    # Constructing, like the operators, refuses anything but an int or a
    # Fraction (and Cyclo.of a Cyclo): a float is not read at its binary
    # value, nor a Decimal or a string through Fraction.
    with pytest.raises(TypeError):
        Cyclo(value)
    with pytest.raises(TypeError):
        Cyclo(1, value)
    if value is not ZETA:
        with pytest.raises(TypeError):
            Cyclo.of(value)
        with pytest.raises(TypeError):
            Cyclo(1) + value
    assert Cyclo(True, Fraction(1, 2)) == Cyclo(1, Fraction(1, 2))


@settings(max_examples=1000, deadline=None)
@given(cyclos, cyclos, cyclos)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@settings(max_examples=1000, deadline=None)
@given(nonzero_cyclos)
def test_inverse_round_trip(x):
    assert x.inverse() * x == Cyclo(1)


# ----------------------------------------------------------------------
# differential check against the textbook representation: a pair of
# Fractions (p, q) for p + q*zeta, with every operation written out
# ----------------------------------------------------------------------


class RefCyclo:
    def __init__(self, p, q=0):
        self.p, self.q = Fraction(p), Fraction(q)

    @staticmethod
    def of(x):
        if isinstance(x, RefCyclo):
            return x
        if isinstance(x, Cyclo):
            return RefCyclo(x.p, x.q)
        return RefCyclo(x)

    def __add__(self, other):
        o = RefCyclo.of(other)
        return RefCyclo(self.p + o.p, self.q + o.q)

    def __neg__(self):
        return RefCyclo(-self.p, -self.q)

    def __sub__(self, other):
        return self + (-RefCyclo.of(other))

    def __mul__(self, other):
        o = RefCyclo.of(other)
        sq = self.q * o.q
        return RefCyclo(self.p * o.p - sq, self.p * o.q + self.q * o.p + sq)

    def conj(self):
        return RefCyclo(self.p + self.q, -self.q)

    def norm(self):
        return self.p * self.p + self.p * self.q + self.q * self.q

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError
        c = self.conj()
        return RefCyclo(c.p / n, c.q / n)

    def __truediv__(self, other):
        return self * RefCyclo.of(other).inverse()

    def __pow__(self, e):
        base = self.inverse() if e < 0 else self
        out = RefCyclo(1)
        for _ in range(abs(e)):
            out = out * base
        return out

    def __eq__(self, other):
        if isinstance(other, RefCyclo):
            return (self.p, self.q) == (other.p, other.q)
        return self.q == 0 and self.p == other

    def __hash__(self):
        return hash(self.p) if self.q == 0 else hash((self.p, self.q))

    def __str__(self):
        if self.q == 0:
            return str(self.p)
        if self.p == 0:
            return f"{self.q}*zeta"
        sign = "+" if self.q > 0 else "-"
        return f"{self.p} {sign} {abs(self.q)}*zeta"

    def __repr__(self):
        return f"Cyclo({self.p!r}, {self.q!r})"


def same(x, ref):
    """x is the Cyclo that ref stands for, down to its printed forms."""
    assert isinstance(x, Cyclo)
    assert (x.p, x.q) == (ref.p, ref.q)
    assert type(x.p) is Fraction and type(x.q) is Fraction
    assert x == Cyclo(ref.p, ref.q)
    assert hash(x) == hash(ref)
    assert str(x) == str(ref)
    assert repr(x) == repr(ref)
    assert bool(x) == (ref.p != 0 or ref.q != 0)


scalars = st.one_of(st.integers(-30, 30), rationals)


@settings(max_examples=400, deadline=None)
@given(cyclos, cyclos, scalars)
def test_matches_fraction_pair_reference(x, y, c):
    rx, ry = RefCyclo.of(x), RefCyclo.of(y)
    same(x, rx)
    same(x + y, rx + ry)
    same(x - y, rx - ry)
    same(x * y, rx * ry)
    same(-x, -rx)
    for left, right in ((x + c, rx + c), (c + x, rx + c), (x - c, rx - c),
                        (c - x, RefCyclo(c) - rx), (x * c, rx * c), (c * x, rx * c)):
        same(left, right)
    if y:
        same(x / y, rx / ry)
        same(y.inverse(), ry.inverse())
        same(c / y, RefCyclo(c) / ry)
    if c:
        same(x / c, rx / c)
    for e in range(-3, 5):
        if e >= 0 or x:
            same(x ** e, rx ** e)


@settings(max_examples=300, deadline=None)
@given(scalars, scalars)
def test_equality_with_int_and_fraction(p, r):
    x = Cyclo(p)
    assert x == p and p == x
    assert (x == r) == (Fraction(p) == r)
    assert hash(x) == hash(p) == hash(Fraction(p))
    assert Cyclo(p, 1) != p and p != Cyclo(p, 1)
    assert ({x: 1}[p] == 1) and ({p: 1}[x] == 1)


def test_canonical_form():
    x = Cyclo(Fraction(2, 4), 1)
    y = Cyclo(Fraction(1, 2), Fraction(2, 2))
    assert x == y and hash(x) == hash(y)
    assert (x.p, x.q) == (Fraction(1, 2), Fraction(1))
    assert Cyclo(Fraction(3, 6), Fraction(-5, 10)) == Cyclo(1, -1) / 2
    assert Cyclo(Fraction(4, 6), Fraction(1, 4)) - Cyclo(Fraction(1, 6), Fraction(-3, 4)) \
        == Cyclo(Fraction(1, 2), 1)
    assert ZETA - ZETA == Cyclo(0) and hash(ZETA - ZETA) == hash(0)


def test_negative_denominator_is_normalised():
    x = Cyclo(Fraction(1, -2), Fraction(3, -4))
    assert (x.p, x.q) == (Fraction(-1, 2), Fraction(-3, 4))
    assert x.p.denominator > 0 and x.q.denominator > 0
    assert x == -Cyclo(Fraction(1, 2), Fraction(3, 4))
    assert repr(x) == "Cyclo(Fraction(-1, 2), Fraction(-3, 4))"
    assert str(Cyclo(Fraction(1, -3))) == "-1/3"


def test_immutable():
    x = Cyclo(1, 2)
    for name in ("p", "q", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 5)
    with pytest.raises(AttributeError):
        del x.p
    assert x == Cyclo(1, 2)


def test_pickle_and_copy_round_trip():
    x = Cyclo(Fraction(-3, 4), Fraction(5, 6))
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert y == x and repr(y) == repr(x)


@settings(max_examples=300, deadline=None)
@given(cyclos, st.integers(-12, 12).filter(bool))
def test_integer_parts_round_trip(x, k):
    a, b, d = x.integer_parts()
    assert d > 0 and gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (x.p, x.q)
    same(Cyclo.from_integer_parts(a, b, d), RefCyclo.of(x))
    # Any common factor or sign of the denominator is taken out.
    same(Cyclo.from_integer_parts(a * k, b * k, d * k), RefCyclo.of(x))


def test_from_integer_parts_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        Cyclo.from_integer_parts(1, 2, 0)


@pytest.mark.parametrize("f", [Fraction(-7, 3), Fraction(0), Fraction(5), Fraction(-4),
                               Fraction(1, 9), Fraction(-1)])
def test_of_fraction_is_canonical(f):
    x = Cyclo.of(f)
    assert x.integer_parts() == Cyclo(f).integer_parts() == (f.numerator, 0, f.denominator)
    assert x == f and f == x
    assert hash(x) == hash(f)


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50))
def test_pair_quotient(a, b, c, d):
    if (c, d) == (0, 0):
        with pytest.raises(ZeroDivisionError):
            pair_quotient((a, b), (c, d))
        return
    assert pair_quotient((a, b), (c, d)) == Cyclo(a, b) / Cyclo(c, d)
