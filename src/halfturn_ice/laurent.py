"""Sparse multivariate Laurent polynomials over the integers.

Representation
--------------
Every variable name has a slot: a module registry hands out 0, 1, 2, ...
the first time a name is seen.  The exponents of a monomial are packed into
one int key as balanced base-2^W digits (W = 16), the exponent of slot s
being the digit at 2^(W*s):

    x^e * y^f  ->  e * 2^(W*s_x) + f * 2^(W*s_y),   every digit in (-2^(W-1), 2^(W-1))

The packing is linear and, while every digit stays in range, one-to-one.
So the key of a product of monomials is the sum of their keys, and two
polynomials are equal exactly when their dicts `terms` (key -> nonzero
coefficient) are.  Each polynomial also carries `bound`, an upper bound on
|exponent| over its terms; `*`, `**`, `substitute` and `exact_div` derive
the bound of their result from their operands' and raise OverflowError
when it leaves the digit range, instead of letting a digit carry into its
neighbour.

Keys are unpacked only at the edges: `vars` (the variables some term uses,
derived on first use), `tuple_terms` and everything built on it (`str`,
`sorted_terms` and the JSON form), and the leading-term order of
`exact_div`.  The rest works on the keys in place.  `substitute` replaces
variables by monomials or constants, all at once: it negates the masked
digits of the inverted variables, flips a term's sign on the parity of the
negated ones, and moves every other digit d by d times the difference of
two keys.  `coeff_of` compares the masked digits of each key with the
wanted ones, `total_degrees` reads digit sums as residues modulo 2^W - 1,
and `degree_in` reads the one digit it needs.

Every coefficient is an int, and so is every constant and scalar operand:
each passes `_coeff`, through `const` or the constructor, and a float, a
fraction or a field element raises TypeError, so arithmetic stays exact and
stays in Z.  Values at rational or cyclotomic points are computed elsewhere.
`LaurentPoly(vars, {exponent tuple: coeff})` packs terms given over a list
of distinct variable names.

Variable order: a, x1..xk, y1..yk, z, t, v, u1..uk, then anything else
alphabetically.  `vars` and every exponent tuple follow it, and
serialization lists terms in descending graded lexicographic order, which
makes the JSON form a canonical fingerprint: equal polynomials serialize
to the same bytes.
"""

from __future__ import annotations

import heapq
import re
import threading
from typing import Iterable, Mapping, Sequence

_VAR_GROUP = {"a": 0, "x": 1, "y": 2, "z": 3, "t": 4, "v": 5, "u": 6}
_VAR_RE = re.compile(r"^([A-Za-z]+)(\d*)$")

_W = 16                      # bits per exponent digit
_MASK = (1 << _W) - 1
_HALF = 1 << (_W - 1)
_LIMIT = _HALF - 1           # largest |exponent| a digit holds

# The slot registry: grows by one entry per new variable name and never
# changes an entry, so a key means the same monomial for the whole process.
# Registration takes a lock; lookups read _SLOT without one.
_SLOT: dict[str, int] = {}
_NAME: list[str] = []
_UNIT: list[int] = []        # key of the variable itself, 2^(W*s)
_BIAS: list[int] = []        # _HALF at digits 0..s; added to a key, makes those digits >= 0
_REGISTERING = threading.Lock()


class NotAMonomial(ValueError):
    """Raised when an operation requires a single-term polynomial."""


class NonInvertibleValue(ArithmeticError):
    """Raised when a negative exponent meets a value without an inverse."""


class NotDivisible(ArithmeticError):
    """Raised when exact division has a nonzero remainder."""


def _var_key(name: str):
    m = _VAR_RE.match(name)
    if m:
        stem, digits = m.group(1), m.group(2)
        group = _VAR_GROUP.get(stem)
        if group is not None and (digits or stem in ("a", "z", "t", "v")):
            return (group, int(digits) if digits else 0, name)
    return (7, 0, name)


def _grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


def _slot(name: str) -> int:
    s = _SLOT.get(name)
    if s is None:
        with _REGISTERING:
            s = _SLOT.get(name)
            if s is None:
                s = len(_NAME)
                _NAME.append(name)
                _UNIT.append(1 << (_W * s))
                _BIAS.append((_BIAS[-1] if _BIAS else 0) + (_HALF << (_W * s)))
                _SLOT[name] = s  # last: a name found here has its constants
    return s


def _digit(key: int, s: int) -> int:
    """Exponent of slot s in a key."""
    return ((key + _BIAS[s]) >> (_W * s) & _MASK) - _HALF


def _check(bound: int) -> int:
    if bound > _LIMIT:
        raise OverflowError(f"exponent bound {bound} exceeds the digit range +-{_LIMIT}")
    return bound


def _coeff(c) -> int:
    if type(c) is not int:
        raise TypeError(f"coefficients are ints, not {type(c).__name__}: {c!r}")
    return c


def _make(terms: dict, bound: int) -> LaurentPoly:
    """A polynomial from packed terms (nonzero coefficients) and a bound."""
    p = object.__new__(LaurentPoly)
    p.terms = terms
    p.bound = bound if terms else 0
    p._vars = None
    return p


class LaurentPoly:
    """Immutable-by-convention Laurent polynomial with int coefficients."""

    __slots__ = ("terms", "bound", "_vars")

    def __init__(self, vars: Sequence[str] = (), terms: Mapping[tuple, int] | None = None):
        units = [_UNIT[_slot(v)] for v in vars]
        if len(set(units)) != len(units):
            raise ValueError(f"repeated variable name in {tuple(vars)}")
        packed = {}
        bound = 0
        for e, c in (terms or {}).items():
            if len(e) != len(units):
                raise ValueError(f"exponent tuple {e} does not match {tuple(vars)}")
            if _coeff(c):
                packed[sum(k * u for k, u in zip(e, units))] = c
                bound = max(bound, max(map(abs, e), default=0))
        self.terms = packed
        self.bound = _check(bound)
        self._vars = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @staticmethod
    def zero() -> LaurentPoly:
        return _make({}, 0)

    @staticmethod
    def const(c: int) -> LaurentPoly:
        return _make({0: c} if _coeff(c) else {}, 0)

    @staticmethod
    def var(name: str) -> LaurentPoly:
        return _make({_UNIT[_slot(name)]: 1}, 1)

    @staticmethod
    def monomial(coeff: int, exps: Mapping[str, int]) -> LaurentPoly:
        names = tuple(exps.keys())
        return LaurentPoly(names, {tuple(exps[n] for n in names): coeff})

    # ------------------------------------------------------------------
    # structure helpers
    # ------------------------------------------------------------------

    @property
    def vars(self) -> tuple[str, ...]:
        """Names of the variables with a nonzero exponent in some term, in
        the canonical variable order."""
        if self._vars is None:
            bias = _BIAS[-1] if _BIAS else 0
            used = 0
            for k in self.terms:
                used |= (k + bias) ^ bias  # nonzero exactly at the nonzero digits
            names = [_NAME[s] for s in range(len(_NAME)) if used >> (_W * s) & _MASK]
            self._vars = tuple(sorted(names, key=_var_key))
        return self._vars

    def tuple_terms(self) -> dict[tuple, int]:
        """The terms as {exponent tuple in `vars` order: coefficient}."""
        shifts = [_W * _SLOT[v] for v in self.vars]
        bias = _BIAS[-1] if shifts else 0
        return {tuple(((k + bias) >> sh & _MASK) - _HALF for sh in shifts): c
                for k, c in self.terms.items()}

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def constant_value(self) -> int:
        """The value of a constant polynomial (zero or a single exponent-free term)."""
        if not self.terms:
            return 0
        if len(self.terms) != 1 or 0 not in self.terms:
            raise NotAMonomial(f"not a constant: {self}")
        return self.terms[0]

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __add__(self, other: LaurentPoly | int) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            s = out.get(k, 0) + c
            if s == 0:
                del out[k]
            else:
                out[k] = s
        return _make(out, max(self.bound, other.bound))

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return _make({k: -c for k, c in self.terms.items()}, self.bound)

    def __sub__(self, other: LaurentPoly | int) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other: int) -> LaurentPoly:
        return LaurentPoly.const(other) + (-self)

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        bound = _check(self.bound + other.bound)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return LaurentPoly.zero()
        # The first term shifts b's keys one-to-one, so its row merges nothing.
        (k1, c1), *rest = a.items()
        out = {k1 + k: c1 * c for k, c in b.items()}
        get = out.get
        for k1, c1 in rest:
            for k2, c2 in b.items():
                k = k1 + k2
                s = get(k)
                if s is None:
                    out[k] = c1 * c2
                else:
                    s += c1 * c2
                    if s == 0:
                        del out[k]
                    else:
                        out[k] = s
        return _make(out, bound)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            if not self.is_monomial():
                raise NotAMonomial("negative powers only for monomials")
            return self.monomial_inverse() ** (-n)
        if n == 0:
            return LaurentPoly.const(1)
        _check(self.bound * n)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({0: other} if other != 0 else {})
        return NotImplemented

    def __hash__(self):
        # A constant hashes as its value, since it compares equal to it.
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and 0 in self.terms:
            return hash(self.terms[0])
        return hash(frozenset(self.terms.items()))

    def __reduce__(self):
        # Keys depend on this process's slot registry; pickle the tuple form.
        return (LaurentPoly, (self.vars, self.tuple_terms()))

    # ------------------------------------------------------------------
    # monomial utilities
    # ------------------------------------------------------------------

    def monomial_inverse(self) -> LaurentPoly:
        """m -> m^-1 for a single term whose coefficient is a unit."""
        if len(self.terms) != 1:
            raise NotAMonomial(f"expected one term, got {len(self.terms)}")
        (k, c), = self.terms.items()
        return _make({-k: _unit_inverse(c)}, self.bound)

    # ------------------------------------------------------------------
    # evaluation and substitution
    # ------------------------------------------------------------------

    def substitute(self, mapping: Mapping[str, LaurentPoly | int]) -> LaurentPoly:
        """Replace the named variables all at once, each by a monomial or an
        int constant; one standing at a negative exponent must have a unit
        coefficient (+-1).  Names no term uses are skipped, and a mapping
        that moves nothing returns self.

        With b = key + bias, subtracting twice the masked digits of b (less
        their biases) negates the inverted variables' exponents (v -> 1/v);
        each negated variable (v -> -v) at an odd exponent, which its
        digit's lowest bit shows (_HALF is even), flips a term's sign.
        Neither merges terms.  The other moves change keys and coefficients
        by amounts that depend on the moved digits alone, each pattern once.
        """
        def used(s):  # stops at the first term with a nonzero digit s
            return any(_digit(k, s) for k in self.terms)

        inv_mask = inv_half = signs = mask = 0
        moves = {}  # slot -> (value, shift, key step, coefficient) of the other moves
        for v, value in mapping.items():
            if not isinstance(value, LaurentPoly):
                value = LaurentPoly.const(value)
            s = _SLOT.get(v)
            if s is None or not used(s):
                continue
            if len(value.terms) > 1:
                raise NotAMonomial(f"value for {v} must be one monomial or a constant")
            (rkey, rc), = value.terms.items() or ((0, 0),)
            unit, shift = _UNIT[s], _W * s
            if rc == 1 and rkey == -unit:
                inv_mask |= _MASK << shift
                inv_half |= _HALF << shift
            elif rc == -1 and rkey == unit:
                signs |= 1 << shift
            elif rc != 1 or rkey != unit:
                mask |= _MASK << shift
                moves[s] = value, shift, rkey - unit, rc
        if not (moves or inv_mask or signs):
            return self
        bias = _BIAS[-1]
        terms = self.terms
        if inv_mask:
            terms = {k - 2 * ((k + bias & inv_mask) - inv_half): c for k, c in terms.items()}
        if signs:
            terms = {k: -c if (k + bias & signs).bit_count() & 1 else c for k, c in terms.items()}
        if not moves:
            return _make(terms, self.bound)
        out: dict = {}
        get = out.get
        patterns: dict = {}
        for k, c in terms.items():
            b = k + bias & mask
            hit = patterns.get(b)
            if hit is None:
                step, factor = 0, 1
                for _, shift, key_step, rc in moves.values():
                    d = (b >> shift & _MASK) - _HALF
                    step += d * key_step
                    if d and rc != 1:
                        factor = factor * (rc ** d if d > 0 else _unit_inverse(rc) ** -d)
                hit = patterns[b] = (step, None if factor == 1 else factor)
            k += hit[0]
            if hit[1] is not None:
                c = c * hit[1]
            s = get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)  # cancelled, or sent to zero by a value 0
        # A slot's bound: its own, if its digit stays, plus top |d| times each
        # value's exponent there.  out is dropped if some digit left the range.
        load = {}
        for value, shift, _, _ in moves.values():
            top = max(abs((b >> shift & _MASK) - _HALF) for b in patterns)
            for exps in value.tuple_terms():
                for name, e in zip(value.vars, exps):
                    t = _SLOT[name]
                    kept = load.get(t, self.bound if t not in moves and used(t) else 0)
                    load[t] = kept + top * abs(e)
        return _make(out, _check(max([self.bound, *load.values()])))

    def substitute_poly(self, var: str, value: LaurentPoly) -> LaurentPoly:
        """Substitute an arbitrary polynomial for a variable occurring only
        with nonnegative exponents."""
        s = _SLOT.get(var)
        if s is None:
            return self
        unit = _UNIT[s]
        buckets: dict[int, dict] = {}
        for k, c in self.terms.items():
            d = _digit(k, s)
            if d < 0:
                raise NonInvertibleValue(f"{var} occurs with negative exponent")
            buckets.setdefault(d, {})[k - d * unit] = c
        if buckets.keys() <= {0}:
            return self
        total = LaurentPoly.zero()
        for d, terms in buckets.items():
            total = total + _make(terms, self.bound) * value ** d
        return total

    # ------------------------------------------------------------------
    # coefficient extraction and variable-wise transforms
    # ------------------------------------------------------------------

    def coeff_of(self, constraints: Mapping[str, int]) -> LaurentPoly:
        """The polynomial that multiplies fixed exponents of a subset of variables.

        Returns 0 when no term matches; constrained variables are removed
        from the result.
        """
        mask = target = drop = 0
        for v, k in constraints.items():
            if abs(k) > _LIMIT:  # no digit holds it; its target would carry over
                return LaurentPoly.zero()
            s = _SLOT.get(v)
            if s is not None:
                mask |= _MASK << (_W * s)
                target |= (k + _HALF) << (_W * s)
                drop += k * _UNIT[s]
            elif k != 0:
                return LaurentPoly.zero()
        bias = _BIAS[-1] if _BIAS else 0
        out = {key - drop: c for key, c in self.terms.items()
               if (key + bias) & mask == target}
        return _make(out, self.bound)

    def degree_in(self, var: str) -> int | None:
        """Maximal exponent of `var`, or None for the zero polynomial."""
        if not self.terms:
            return None
        s = _SLOT.get(var)
        if s is None:
            return 0
        bias, shift = _BIAS[s], _W * s  # the biased digit is monotone in the exponent
        return max((k + bias) >> shift & _MASK for k in self.terms) - _HALF

    def total_degrees(self, skip: Iterable[str] = ()) -> set[int]:
        """The total degrees of the terms, not counting the exponents of the
        variables named in `skip` (names no term uses are ignored).

        The named digits are masked out of each key as `substitute` masks
        inverted ones.  Since 2^W = 1 modulo 2^W - 1, a key is the sum of its digits modulo
        2^W - 1, and that sum lies within +-(slots * bound): while that is
        at most _LIMIT, the balanced residue of the key is the sum itself.
        Beyond it, the digits are summed one by one.
        """
        mask = half = 0
        for v in skip:
            s = _SLOT.get(v)
            if s is not None:
                mask |= _MASK << (_W * s)
                half |= _HALF << (_W * s)
        bias = _BIAS[-1] if _BIAS else 0
        keys = {k - ((k + bias) & mask) + half for k in self.terms}
        if len(_NAME) * self.bound <= _LIMIT:
            return {(k + _LIMIT) % _MASK - _LIMIT for k in keys}
        return {sum(_digit(k, s) for s in range(len(_NAME))) for k in keys}

    # ------------------------------------------------------------------
    # exact division
    # ------------------------------------------------------------------

    def exact_div(self, den: LaurentPoly) -> LaurentPoly:
        """Exact quotient q with q*den == self, else NotDivisible.

        Both operands are shifted by their per-variable minimal exponents
        into the ordinary polynomial ring, where leading-term reduction
        under a graded order must end with zero remainder; the quotient is
        shifted back.  Its exponents lie within self.bound + den.bound.
        """
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        bound = _check(self.bound + den.bound)
        slots = sorted({_SLOT[v] for v in self.vars + den.vars})
        num_t, num_shift = _shifted(self.terms, slots)
        den_t, den_shift = _shifted(den.terms, slots)
        bias = _BIAS[slots[-1]] if slots else 0
        quotient = _poly_exact_div(num_t, den_t, bias)
        shift = num_shift - den_shift
        return _make({k + shift: c for k, c in quotient.items()}, bound)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """Terms in descending graded-lex order (canonical)."""
        return sorted(self.tuple_terms().items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def to_json_obj(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [{"exps": list(e), "coef": str(c)} for e, c in self.sorted_terms()],
        }

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [f"{v}^{k}" if k != 1 else v
                       for v, k in zip(self.vars, e) if k != 0]
            cs = str(c)
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors and cs == "-1":
                body = "-" + "*".join(factors)
            else:
                body = "*".join([cs] + factors)
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


# ----------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------


def sigma_of(m: LaurentPoly) -> LaurentPoly:
    """sigma(m) = m - m^-1 for a monomial with unit coefficient."""
    return m - m.monomial_inverse()


def _unit_inverse(c: int) -> int:
    if c in (1, -1):
        return c
    raise NonInvertibleValue(f"integer {c} is not a unit")


def _shifted(terms: dict, slots: list[int]) -> tuple[dict, int]:
    """Terms moved into the polynomial ring: ({key - shift: (coeff, total
    degree)}, shift), where shift packs each slot's minimal exponent."""
    shifts = [_W * s for s in slots]
    bias = _BIAS[slots[-1]] if slots else 0
    exps = {k: [((k + bias) >> sh & _MASK) - _HALF for sh in shifts] for k in terms}
    low = [min(col) for col in zip(*exps.values())]
    shift = sum(m * _UNIT[s] for m, s in zip(low, slots))
    low_deg = sum(low)
    return {k - shift: (c, sum(exps[k]) - low_deg) for k, c in terms.items()}, shift


def _poly_exact_div(num: dict, den: dict, bias: int) -> dict:
    """Leading-term reduction for ordinary (nonnegative-exponent) terms.

    num and den map keys to (coefficient, total degree); bias is _BIAS of
    the highest slot in use.  The order is graded, then by key, which is
    lexicographic from the highest slot down: a monomial order, so for an
    exact quotient the leading term of the running remainder is always
    divisible by the divisor's leading term, and a failed step proves
    NotDivisible.  Every remainder exponent lies in [0, D] for D the top
    degree of num, which must fit a digit (and so must the divisor's, or
    it cannot divide).  A max-heap tracks candidate leading terms; stale
    entries are skipped.
    """
    top = _check(max(deg for _, deg in num.values()))
    den_lead = max(den, key=lambda k: (den[k][1], k))
    den_lc, den_deg = den[den_lead]
    if den_deg > top:  # top degrees add under multiplication
        raise NotDivisible("no exact quotient exists")
    den_items = [(k, c, deg) for k, (c, deg) in den.items()]
    rem = {k: c for k, (c, _) in num.items()}
    get = rem.get
    heap = [(-deg, -k) for k, (_, deg) in num.items()]
    heapq.heapify(heap)
    quotient: dict = {}
    while rem:
        lead = None
        while heap:
            neg_deg, neg_key = heap[0]
            if -neg_key in rem:
                lead = -neg_key
                break
            heapq.heappop(heap)
        if lead is None:  # cannot happen: every live key has a heap entry
            raise AssertionError("division heap lost track of the remainder")
        diff = lead - den_lead
        if (diff + bias) & bias != bias:  # some digit of diff is negative
            raise NotDivisible("no exact quotient exists")
        c, r = divmod(rem[lead], den_lc)
        if r:
            raise NotDivisible(f"coefficient {rem[lead]} not divisible by {den_lc}")
        quotient[diff] = c
        diff_deg = -neg_deg - den_deg
        for de, dc, deg in den_items:
            ne = diff + de
            s = get(ne)
            if s is None:
                rem[ne] = -c * dc
                heapq.heappush(heap, (-(diff_deg + deg), -ne))
            else:
                s -= c * dc
                if s == 0:
                    del rem[ne]
                else:
                    rem[ne] = s
    return quotient
