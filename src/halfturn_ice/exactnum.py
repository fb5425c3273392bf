"""Exact arithmetic in the quadratic field Q(zeta), zeta a primitive sixth
root of unity.

Every element is p + q*zeta with rational p, q, reduced by the minimal
polynomial zeta^2 = zeta - 1.  It is stored over one common denominator as
three ints (a, b, d), standing for (a + b*zeta) / d, under the invariant

    d > 0  and  gcd(a, b, d) = 1,

so each element has exactly one representation and equality is structural
(zero is (0, 0, 1); a rational element has b = 0 and a/d in lowest terms).
Sums, products and inverses are a few integer products followed by one
three-way gcd.  `integer_parts` and `from_integer_parts` read and build
this form, and `pair_mul` and `pair_quotient` work on integer pairs (a, b)
standing for a + b*zeta, for the evaluated state sums (`icemodel`), which
compute on the integers directly.
The rational parts p = a/d and q = b/d are exposed as `fractions.Fraction`s.
Inversion multiplies by the conjugate (zeta -> 1 - zeta) and divides by
the norm p^2 + p*q + q^2, which is rational and positive for x != 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

Rational = Union[int, Fraction]
CycloLike = Union[int, Fraction, "Cyclo"]


class Cyclo:
    """Field element p + q*zeta with zeta^2 = zeta - 1 (zeta = exp(i*pi/3))."""

    __slots__ = ("_abd",)

    def __new__(cls, p: Rational = 0, q: Rational = 0):
        if type(p) is int and type(q) is int:
            return _make(p, q, 1)
        if not (isinstance(p, (int, Fraction)) and isinstance(q, (int, Fraction))):
            raise TypeError(f"Cyclo parts must be int or Fraction, not "
                            f"{type(p).__name__} and {type(q).__name__}")
        p, q = Fraction(p), Fraction(q)
        pd, qd = p.denominator, q.denominator
        # Over the lcm of two lowest-terms denominators, gcd(a, b, d) = 1.
        d = pd // gcd(pd, qd) * qd
        return _make(p.numerator * (d // pd), q.numerator * (d // qd), d)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Cyclo, (self.p, self.q)

    @staticmethod
    def of(value: CycloLike) -> Cyclo:
        """Coerce an int, Fraction or Cyclo into the field."""
        if isinstance(value, Cyclo):
            return value
        if type(value) is Fraction:  # already in lowest terms, d > 0
            return _make(value.numerator, 0, value.denominator)
        return Cyclo(value)

    @property
    def p(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def q(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    def integer_parts(self) -> tuple[int, int, int]:
        """The ints (a, b, d) with self = (a + b*zeta)/d, d > 0 and
        gcd(a, b, d) = 1."""
        return self._abd

    @staticmethod
    def from_integer_parts(a: int, b: int, d: int) -> Cyclo:
        """(a + b*zeta)/d for ints a, b and d != 0, in canonical form."""
        if d < 0:
            a, b, d = -a, -b, -d
        elif d == 0:
            raise ZeroDivisionError("zero denominator in Q(zeta)")
        return _reduced(a, b, d)

    def __bool__(self) -> bool:
        a, b, _ = self._abd
        return a != 0 or b != 0

    def __add__(self, other: CycloLike) -> Cyclo:
        a1, b1, d1 = self._abd
        if type(other) is Cyclo:
            a2, b2, d2 = other._abd
        elif isinstance(other, (int, Fraction)):
            a2, b2, d2 = _parts(other)
        else:
            return NotImplemented
        if d1 == d2:
            return _reduced(a1 + a2, b1 + b2, d1)
        return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> Cyclo:
        a, b, d = self._abd
        return _make(-a, -b, d)

    def __sub__(self, other: CycloLike) -> Cyclo:
        a1, b1, d1 = self._abd
        if type(other) is Cyclo:
            a2, b2, d2 = other._abd
        elif isinstance(other, (int, Fraction)):
            a2, b2, d2 = _parts(other)
        else:
            return NotImplemented
        if d1 == d2:
            return _reduced(a1 - a2, b1 - b2, d1)
        return _reduced(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def __rsub__(self, other: CycloLike) -> Cyclo:
        if not isinstance(other, (int, Fraction, Cyclo)):
            return NotImplemented
        return Cyclo.of(other) - self

    def __mul__(self, other: CycloLike) -> Cyclo:
        a1, b1, d1 = self._abd
        if type(other) is Cyclo:
            a2, b2, d2 = other._abd
        elif isinstance(other, (int, Fraction)):
            a2, b2, d2 = _parts(other)
        else:
            return NotImplemented
        # (a1 + b1 z)(a2 + b2 z) with z^2 -> z - 1, in three products.
        aa = a1 * a2
        bb = b1 * b2
        return _reduced(aa - bb, (a1 + b1) * (a2 + b2) - aa, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> Cyclo:
        # 1/x = conj(x) / norm(x) = d (a + b - b z) / (a^2 + a b + b^2)
        a, b, d = self._abd
        n = a * a + a * b + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        return _reduced(d * (a + b), -d * b, n)

    def __truediv__(self, other: CycloLike) -> Cyclo:
        if not isinstance(other, (int, Fraction, Cyclo)):
            return NotImplemented
        return self * Cyclo.of(other).inverse()

    def __rtruediv__(self, other: CycloLike) -> Cyclo:
        if not isinstance(other, (int, Fraction, Cyclo)):
            return NotImplemented
        return Cyclo.of(other) * self.inverse()

    def __pow__(self, exponent: int) -> Cyclo:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if exponent == 0:
            return ONE
        result = None
        base = self
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Cyclo):
            return self._abd == other._abd
        if isinstance(other, (int, Fraction)):
            a, b, d = self._abd
            return b == 0 and a == other.numerator and d == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        if self._abd[1] == 0:
            return hash(self.p)
        return hash((self.p, self.q))

    def __str__(self) -> str:
        p, q = self.p, self.q
        if q == 0:
            return str(p)
        if p == 0:
            return f"{q}*zeta"
        sign = "+" if q > 0 else "-"
        return f"{p} {sign} {abs(q)}*zeta"

    def __repr__(self) -> str:
        return f"Cyclo({self.p!r}, {self.q!r})"


_new = object.__new__
_set_abd = Cyclo._abd.__set__


def _make(a: int, b: int, d: int) -> Cyclo:
    """(a + b*zeta)/d, already canonical: no checks, no reduction."""
    x = _new(Cyclo)
    _set_abd(x, (a, b, d))
    return x


def _reduced(a: int, b: int, d: int) -> Cyclo:
    """(a + b*zeta)/d for d > 0, divided through by gcd(a, b, d)."""
    g = gcd(d, a, b)  # d first: the gcd stops early once it reaches 1
    if g != 1:
        a //= g
        b //= g
        d //= g
    x = _new(Cyclo)
    _set_abd(x, (a, b, d))
    return x


def _parts(value: CycloLike) -> tuple[int, int, int]:
    """The canonical (a, b, d) of an int, Fraction or Cyclo."""
    return (value, 0, 1) if type(value) is int else Cyclo.of(value)._abd


def pair_mul(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """(ua + ub*zeta)(va + vb*zeta) with zeta^2 = zeta - 1, on integer pairs."""
    ua, ub = u
    va, vb = v
    return ua * va - ub * vb, ua * vb + ub * va + ub * vb


def pair_quotient(x: tuple[int, int], y: tuple[int, int]) -> Cyclo:
    """x / y for integer pairs x and y = (c, d) != (0, 0): one integer
    division when d = 0, otherwise x times conj(y) over the integer
    norm(y), conj(y) = c + d - d*zeta; one reduction either way."""
    c, d = y
    if d:
        x = pair_mul(x, (c + d, -d))
        c = c * c + c * d + d * d
    return Cyclo.from_integer_parts(*x, c)


ZETA = Cyclo(0, 1)
ONE = Cyclo(1)


def sigma(x: Cyclo) -> Cyclo:
    """sigma(x) = x - 1/x, the ubiquitous weight combination."""
    return x - x.inverse()
