"""Laurent polynomial ring: canonical form, arithmetic, division, JSON."""

import itertools
import json
import pickle
import threading
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from halfturn_ice import laurent
from halfturn_ice.exactnum import Cyclo, ZETA
from halfturn_ice.laurent import (
    _LIMIT, LaurentPoly, NonInvertibleValue, NotAMonomial, NotDivisible, sigma_of)

M = LaurentPoly.monomial
V = LaurentPoly.var


def _at(p, values):
    """The constant p takes with every variable given an int value."""
    return p.substitute(values).constant_value()


def value_at(p, point):
    """The value of p at a point of Q(zeta) (one value for each variable
    of p), summed term by term: c * prod(value^e) over `tuple_terms`.  A
    polynomial holds ints only, so this is the tests' one route from a
    symbolic sum to its value at a rational or cyclotomic point."""
    values = [Cyclo.of(point[v]) for v in p.vars]
    return sum((c * prod(x ** e for x, e in zip(values, exps))
                for exps, c in p.tuple_terms().items()), Cyclo.of(0))


def _json(p):
    return json.dumps(p.to_json_obj(), separators=(",", ":"))


def poly_strategy(var_names=("a", "x1", "y1"), max_terms=4, span=3):
    exps = st.tuples(*[st.integers(-span, span)] * len(var_names))
    coeffs = st.integers(-9, 9).filter(lambda c: c != 0)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda terms: LaurentPoly(var_names, terms))


def test_sigma_expansion():
    x = V("X")
    p = sigma_of(x)
    assert p * p == x ** 2 - 2 + M(1, {"X": -2})


def test_additive_inverse_is_empty():
    p = M(3, {"a": 2, "x1": -1})
    z = p + (-p)
    assert z.is_zero()
    assert z.vars == ()
    assert z.terms == {}


def test_four_term_expansion():
    # (a*X - Y/a)(a*Y - X/a) = a^2*X*Y - X^2 - Y^2 + X*Y/a^2
    a, x, y = V("a"), V("X"), V("Y")
    lhs = (a * x - M(1, {"a": -1}) * y) * (a * y - M(1, {"a": -1}) * x)
    want = (M(1, {"a": 2, "X": 1, "Y": 1}) - x ** 2 - y ** 2
            + M(1, {"a": -2, "X": 1, "Y": 1}))
    assert lhs == want


def test_sigma_of_examples():
    assert sigma_of(M(1, {"a": 2})) == M(1, {"a": 2}) - M(1, {"a": -2})
    s = sigma_of(M(1, {"a": 1, "x1": 1, "y1": -1}))
    assert s == M(1, {"a": 1, "x1": 1, "y1": -1}) - M(1, {"a": -1, "x1": -1, "y1": 1})
    assert sigma_of(LaurentPoly.const(1)).is_zero()
    with pytest.raises(NotAMonomial):
        sigma_of(V("a") + 1)


def test_evaluate():
    p = sigma_of(M(1, {"a": 2}))
    assert value_at(p, {"a": ZETA}) == 2 * ZETA - 1
    assert _at(p, {"a": -1}) == 0
    q = V("X") ** 2 - 2 + M(1, {"X": -2})
    assert _at(q, {"X": 1}) == 0
    # sigma(a*x)*sigma(a/x) at a=zeta, x=1 is sigma(zeta)^2 = -3
    pq = sigma_of(M(1, {"a": 1, "x1": 1})) * sigma_of(M(1, {"a": 1, "x1": -1}))
    assert value_at(pq, {"a": ZETA, "x1": 1}) == -3
    # A partial assignment leaves a polynomial; constant_value refuses it.
    with pytest.raises(NotAMonomial):
        _at(pq, {"a": 1})
    # A value 0 removes the terms where its variable has a positive exponent.
    assert (V("X") ** 2 + V("Y") + 3).substitute({"X": 0}) == V("Y") + 3
    assert (V("X") ** 2 + V("Y")).substitute({"X": 0}).terms == V("Y").terms


def test_evaluate_rejects_non_units_at_negative_exponents():
    p = M(1, {"X": -1})
    with pytest.raises(NonInvertibleValue):
        _at(p, {"X": 2})
    with pytest.raises(NonInvertibleValue):
        _at(p, {"X": 0})
    with pytest.raises(NonInvertibleValue):
        p.substitute({"X": M(2, {"Y": 1})})
    assert _at(p, {"X": -1}) == -1
    assert p.substitute({"X": M(-1, {"Y": 1})}) == M(-1, {"Y": -1})


def test_exact_div():
    x = V("X")
    num = sigma_of(M(1, {"X": 2}))
    den = sigma_of(x)
    assert num.exact_div(den) == x + M(1, {"X": -1})
    with pytest.raises(NotDivisible):
        (x + 1).exact_div(x - 1)
    with pytest.raises(ZeroDivisionError):
        x.exact_div(LaurentPoly.zero())
    assert LaurentPoly.zero().exact_div(den).is_zero()


def test_coeff_extraction():
    p = V("a") * V("x1") ** 2 + V("b") * V("x1")
    assert p.coeff_of({"x1": 2}) == V("a")
    assert p.coeff_of({"x1": 5}).is_zero()
    assert p.coeff_of({"zz": 3}).is_zero()
    # Two names registered in turn hold adjacent digits; an exponent past the
    # digit range must not carry into its neighbour's constraint.
    q = M(1, {"carry_lo": 5, "carry_hi": 1})
    assert laurent._SLOT["carry_hi"] == laurent._SLOT["carry_lo"] + 1
    assert q.coeff_of({"carry_lo": 5 + (1 << laurent._W), "carry_hi": 1}).is_zero()


def test_negate_var():
    flip = {"a": -V("a")}
    even = sigma_of(M(1, {"a": 2}))
    assert even.substitute(flip) == even
    odd = sigma_of(V("a"))
    assert odd.substitute(flip) == -odd
    p = V("a") ** 3 + V("a") + 7
    assert p.substitute(flip).substitute(flip) == p
    assert p.substitute(flip).bound == p.bound
    assert p.substitute({"missing": -V("missing")}) is p


def test_substitute_monomial():
    p = V("y1") ** 2 + V("x1")
    q = p.substitute({"y1": M(1, {"a": 1, "x1": 1})})
    assert q == M(1, {"a": 2, "x1": 2}) + V("x1")
    inv = p.substitute({"y1": M(1, {"y1": -1})})
    assert inv == M(1, {"y1": -2}) + V("x1")
    assert p.substitute({"y1": V("y1"), "x1": V("x1")}) is p
    assert p.substitute({}) is p
    with pytest.raises(NotAMonomial):
        p.substitute({"y1": V("x1") + 1})


def test_rename_swap():
    p = V("x1") ** 2 * V("x2") + V("x2") ** 3
    q = p.substitute({"x1": V("x2"), "x2": V("x1")})
    assert q == V("x2") ** 2 * V("x1") + V("x1") ** 3
    assert q.bound == p.bound
    # Two variables sent to one name merge; the bound grows to cover it.
    merged = p.substitute({"x1": V("x2")})
    assert merged == 2 * V("x2") ** 3
    assert merged.bound >= 3
    assert (V("x1") - V("x2")).substitute({"x1": V("x2")}).is_zero()


def test_substitute_poly():
    p = V("x") ** 2 * V("t") + 3 * V("x") + 1
    one_plus_t = V("t") + 1
    assert p.substitute_poly("x", one_plus_t) == (
        one_plus_t ** 2 * V("t") + 3 * one_plus_t + 1)
    assert p.substitute_poly("absent", one_plus_t) is p
    with pytest.raises(NonInvertibleValue):
        M(1, {"x": -1}).substitute_poly("x", one_plus_t)


def test_json_round_trip_is_canonical():
    # The same polynomial, built over reversed variables with its terms in
    # reverse order, serializes to the same bytes.
    p = (sigma_of(M(1, {"a": 2})) * V("x1") + 3) * (V("y1") - M(1, {"y1": -1}))
    twin = LaurentPoly(tuple(reversed(p.vars)),
                       {e[::-1]: c for e, c in reversed(list(p.tuple_terms().items()))})
    assert twin == p
    assert _json(twin) == _json(p) == (
        '{"vars":["a","x1","y1"],"terms":[{"exps":[2,1,1],"coef":"1"},'
        '{"exps":[2,1,-1],"coef":"-1"},{"exps":[0,0,1],"coef":"3"},'
        '{"exps":[-2,1,1],"coef":"-1"},{"exps":[0,0,-1],"coef":"-3"},'
        '{"exps":[-2,1,-1],"coef":"1"}]}')


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), Cyclo(0, 1)],
                         ids=["float", "Fraction", "Cyclo"])
def test_non_int_coefficients_are_refused(bad):
    x = V("x")
    entries = {
        "constructor": lambda: LaurentPoly(("x",), {(1,): bad}),
        "const": lambda: LaurentPoly.const(bad),
        "monomial": lambda: M(bad, {"x": 1}),
        "mul": lambda: x * bad, "rmul": lambda: bad * x,
        "add": lambda: x + bad, "radd": lambda: bad + x,
        "sub": lambda: x - bad, "rsub": lambda: bad - x,
        "substitute": lambda: x.substitute({"x": bad}),
        "substitute unused name": lambda: x.substitute({"a": bad}),
    }
    for entry, build in entries.items():
        with pytest.raises(TypeError):
            build()
            pytest.fail(entry)
    with pytest.raises(TypeError):  # a zero that is not an int is refused too
        LaurentPoly(("x",), {(1,): bad - bad})
    # Ints behave as before.
    assert (x * 3 - 2 + 1).to_json_obj()["terms"] == [{"exps": [1], "coef": "3"},
                                                    {"exps": [0], "coef": "-1"}]
    with pytest.raises(NonInvertibleValue):
        M(1, {"x": -1}).substitute({"x": 3})


def test_cyclo_on_the_left_of_a_polynomial():
    # A Cyclo defers its operators to the polynomial: arithmetic is refused
    # there (test_non_int_coefficients_are_refused), and no polynomial
    # equals a field element, not even one that is an int.
    x1, one = V("x1"), LaurentPoly.const(1)
    assert ZETA != x1 and x1 != ZETA
    assert Cyclo.of(1) != one and one != Cyclo.of(1)
    assert one == 1 and 1 == one


@settings(max_examples=500, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


@settings(max_examples=200, deadline=None)
@given(poly_strategy(max_terms=3), poly_strategy(max_terms=3))
def test_evaluation_is_a_homomorphism(p, q):
    at = {"a": Fraction(3, 2), "x1": Fraction(-5, 3), "y1": Fraction(7, 4)}
    assert value_at(p * q, at) == value_at(p, at) * value_at(q, at)
    assert value_at(p + q, at) == value_at(p, at) + value_at(q, at)


@settings(max_examples=300, deadline=None)
@given(poly_strategy(), poly_strategy().filter(lambda q: not q.is_zero()))
def test_exact_division_round_trip(p, q):
    assert (p * q).exact_div(q) == p


@settings(max_examples=200, deadline=None)
@given(poly_strategy(max_terms=3))
def test_substitution_commutes_with_evaluation(p):
    mono = M(1, {"a": 1, "x1": 2})  # rule y1 -> a*x1^2
    q = p.substitute({"y1": mono})
    at = {"a": Fraction(2, 3), "x1": Fraction(5, 7), "y1": Fraction(1)}
    composed = dict(at, y1=value_at(mono, at))
    assert value_at(q, at) == value_at(p, composed)


@settings(max_examples=200, deadline=None)
@given(poly_strategy())
def test_coefficient_slices_reconstruct(p):
    idx = p.vars.index("x1") if "x1" in p.vars else None
    exps = {e[idx] for e in p.tuple_terms()} if idx is not None else {0}
    total = LaurentPoly.zero()
    for k in exps:
        total = total + p.coeff_of({"x1": k}) * M(1, {"x1": k})
    assert total == p


def test_repeated_variable_name_is_refused():
    with pytest.raises(ValueError):
        LaurentPoly(("x1", "x1"), {(1, 2): 1})


def test_exponent_tuple_of_the_wrong_length_is_refused():
    for c in (0, 1):  # a zero term is checked as well
        with pytest.raises(ValueError):
            LaurentPoly(("a",), {(1, 2): c})


def test_constant_hashes_as_its_value():
    assert len({LaurentPoly.const(3), 3}) == 1
    assert hash(LaurentPoly.const(-7)) == hash(-7)
    assert hash(LaurentPoly.zero()) == hash(0) and LaurentPoly.zero() == 0


def test_pow_multiplies_only_while_bits_remain(monkeypatch):
    calls = []
    mul = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda p, q: calls.append(1) or mul(p, q))
    x = V("x1") + 1
    for n, products in ((0, 0), (1, 0), (2, 1), (3, 2), (5, 3), (8, 3)):
        calls.clear()
        want = LaurentPoly.const(1)
        for _ in range(n):
            want = mul(want, x)
        assert x ** n == want
        assert len(calls) == products, n


def test_product_past_the_digit_range_overflows():
    top = M(1, {"a": 1, "x1": _LIMIT - 1})
    assert (top * V("x1")).degree_in("x1") == _LIMIT
    with pytest.raises(OverflowError):
        top * V("x1") ** 2
    with pytest.raises(OverflowError):
        (top + 1) ** 2
    with pytest.raises(OverflowError):
        top.substitute({"a": M(1, {"x1": 2})})
    with pytest.raises(OverflowError):
        M(1, {"x1": _LIMIT + 1})


def test_concurrent_registration_gives_each_name_one_slot():
    # Registering a name appends to the slot lists; a thread switch inside
    # that append is forced here, so without the registration lock two
    # threads would both give the same new name a slot.
    class SwitchingList(list):
        def append(self, item):
            time.sleep(0.001)
            super().append(item)

    names = [f"race{i}" for i in range(5)]
    seen = []
    start = threading.Barrier(4, timeout=30)

    def work():
        start.wait()
        seen.append([LaurentPoly.var(n) for n in names])

    original = laurent._NAME
    laurent._NAME = SwitchingList(original)
    try:
        threads = [threading.Thread(target=work, daemon=True) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        original[:] = laurent._NAME
        laurent._NAME = original
    assert not any(t.is_alive() for t in threads) and len(seen) == 4
    assert len(set(original)) == len(original)
    for polys in seen:
        assert polys == seen[0]
        assert [p.vars for p in polys] == [(n,) for n in names]


def test_pickle_round_trip():
    p = sigma_of(M(1, {"a": 2, "x1": -1})) * V("y1") - 3
    assert pickle.loads(pickle.dumps(p)) == p


# ----------------------------------------------------------------------
# differential test against exponent-tuple polynomials
# ----------------------------------------------------------------------

# In the canonical variable order; a case uses 1-4 of them.
_NAMES = ("a", "x1", "x2", "y1", "z", "t", "w")
_FRESH = itertools.count()  # suffixes of names renamed onto before any use


def _ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_substitute(p, i, r, rc):
    """x_i -> rc * prod x^r, rc = +-1."""
    out = {}
    for e, c in p.items():
        k = e[i]
        new = [x + k * y for x, y in zip(e, r)]
        new[i] -= k
        out[tuple(new)] = out.get(tuple(new), 0) + c * rc ** abs(k)
    return {e: c for e, c in out.items() if c}


def _ref_rename(p, mapping):
    """A permutation of names through exponent tuples and the constructor."""
    new_names = tuple(mapping.get(v, v) for v in p.vars)
    return LaurentPoly(new_names, p.tuple_terms())


def _renamed(p, mapping):
    return p.substitute({v: V(w) for v, w in mapping.items()})


def _ref_map(p, width, values):
    """Every index i in values replaced at once by the monomial values[i] =
    (exponents over width names, coefficient); NonInvertibleValue when a
    coefficient other than +-1 stands at a negative exponent, as in the
    package.  A unit is its own inverse, so d < 0 takes rc^|d|."""
    out = {}
    for e, c in p.items():
        new = [0] * width
        new[:len(e)] = e
        for i, d in enumerate(e):
            if i in values:
                r, rc = values[i]
                new[i] -= d
                new = [x + d * y for x, y in zip(new, r)]
                if d < 0 and rc not in (1, -1):
                    raise NonInvertibleValue(f"{rc} at exponent {d}")
                c = c * rc ** abs(d)
        out[tuple(new)] = out.get(tuple(new), 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_json(p, names):
    used = [i for i in range(len(names)) if any(e[i] for e in p)]
    terms = sorted(((tuple(e[i] for i in used), c) for e, c in p.items()),
                   key=lambda t: (sum(t[0]), t[0]), reverse=True)
    return json.dumps({"vars": [names[i] for i in used],
                       "terms": [{"exps": list(e), "coef": str(c)} for e, c in terms]},
                      separators=(",", ":"))


def _as_ref(p, names):
    """The terms of p as exponent tuples over all of names."""
    pos = [names.index(v) for v in p.vars]
    out = {}
    for e, c in p.tuple_terms().items():
        full = [0] * len(names)
        for i, k in zip(pos, e):
            full[i] = k
        out[tuple(full)] = c
    return out


@st.composite
def _ref_case(draw):
    picked = draw(st.lists(st.integers(0, len(_NAMES) - 1), min_size=1, max_size=4, unique=True))
    names = tuple(_NAMES[i] for i in sorted(picked))
    exps = st.tuples(*[st.integers(-4, 4)] * len(names))
    terms = st.dictionaries(exps, st.integers(-9, 9).filter(bool), max_size=4)
    return names, draw(terms), draw(terms), draw(exps), draw(st.data())


@settings(max_examples=300, deadline=None)
@given(_ref_case(), st.integers(0, 4), st.sampled_from((1, -1)))
def test_packed_terms_match_tuple_reference(case, n, rc):
    names, p, q, r, data = case
    P, Q = LaurentPoly(names, p), LaurentPoly(names, q)
    assert _as_ref(P, names) == _ref_add(p, {})
    assert _as_ref(P + Q, names) == _ref_add(p, q)
    assert _as_ref(P - Q, names) == _ref_add(p, {e: -c for e, c in q.items()})
    pq = _ref_mul(p, q)
    assert _as_ref(P * Q, names) == pq
    pn = {(0,) * len(names): 1}
    for _ in range(n):
        pn = _ref_mul(pn, p)
    assert _as_ref(P ** n, names) == pn
    assert _json(P) == _ref_json(_ref_add(p, {}), names)
    assert _json(P * Q) == _ref_json(pq, names)

    i = data.draw(st.integers(0, len(names) - 1))
    v, k = names[i], data.draw(st.integers(-4, 4))
    sub = P.substitute({v: LaurentPoly(names, {r: rc})})
    assert _as_ref(sub, names) == _ref_substitute(p, i, r, rc)
    sliced = {e[:i] + (0,) + e[i + 1:]: c for e, c in p.items() if e[i] == k}
    assert _as_ref(P.coeff_of({v: k}), names) == _ref_add(sliced, {})
    assert _as_ref(P.substitute({v: -V(v)}), names) == _ref_add(
        {e: -c if e[i] % 2 else c for e, c in p.items()}, {})
    live = _ref_add(p, {})
    assert P.degree_in(v) == (max(e[i] for e in live) if live else None)

    # Every exponent of v made negative, so each term takes rc^d at d < 0.
    low = {e[:i] + (-abs(e[i]) - 1,) + e[i + 1:]: c for e, c in p.items()}
    sub = LaurentPoly(names, low).substitute({v: LaurentPoly(names, {r: -1})})
    assert _as_ref(sub, names) == _ref_substitute(low, i, r, -1)

    # Two or three constrained variables, the last absent from P.
    fixed = data.draw(st.lists(st.integers(0, len(names) - 1), min_size=1, max_size=2,
                               unique=True))
    ks = [data.draw(st.integers(-4, 4)) for _ in fixed]
    absent = data.draw(st.sampled_from([n for n in _NAMES if n not in names]))
    k0 = data.draw(st.integers(-1, 1))
    sliced = {} if k0 else {
        tuple(0 if j in fixed else x for j, x in enumerate(e)): c
        for e, c in p.items() if all(e[j] == k for j, k in zip(fixed, ks))}
    wanted = {names[j]: k for j, k in zip(fixed, ks)} | {absent: k0}
    assert _as_ref(P.coeff_of(wanted), names) == _ref_add(sliced, {})
    assert P.coeff_of({v: _LIMIT + 1}).is_zero()
    assert P.coeff_of({v: -_LIMIT - 1, absent: 0}).is_zero()

    # A swap, a 3-cycle and a rename onto a name no slot has yet.
    order = data.draw(st.permutations(names))
    fresh = f"fresh{next(_FRESH)}"
    assert fresh not in laurent._SLOT
    for mapping in (dict(zip(order[:2], order[1::-1])),
                    dict(zip(order[:3], order[1:3] + order[:1])),
                    {v: fresh}):
        renamed = _renamed(P, mapping)
        assert renamed == _ref_rename(P, mapping)
        assert _json(renamed) == _json(_ref_rename(P, mapping))
        assert renamed.bound == P.bound
    if len(names) > 1:  # two names made one: their exponents add up
        j = (i + 1) % len(names)
        merged = _renamed(P, {v: names[j]})
        unit = tuple(int(x == j) for x in range(len(names)))
        assert _as_ref(merged, names) == _ref_map(p, len(names), {i: (unit, 1)})

    if q:
        assert _as_ref((P * Q).exact_div(Q), names) == live
    if len(Q) > 1:  # a polynomial of two or more terms divides no monomial
        with pytest.raises(NotDivisible):
            (P * Q + LaurentPoly(names, {r: 1})).exact_div(Q)
    at = {name: Fraction(data.draw(st.integers(-5, 5).filter(bool)), data.draw(st.integers(1, 5)))
          for name in names}
    want = 0
    for e, c in p.items():
        term = Fraction(c)
        for name, x in zip(names, e):
            term *= at[name] ** x
        want += term
    assert value_at(P, at) == want


@settings(max_examples=300, deadline=None)
@given(_ref_case())
def test_invert_vars_matches_chained_substitution(case):
    names, p, _, _, data = case
    P = LaurentPoly(names, p)
    absent = [n for n in _NAMES if n not in names]
    inverted = data.draw(st.lists(st.sampled_from(names + tuple(absent)), unique=True,
                                  max_size=len(names) + 2))
    out = P.substitute({v: M(1, {v: -1}) for v in inverted})
    chained = P
    for v in inverted:
        chained = chained.substitute({v: M(1, {v: -1})})
    assert out == chained
    flipped = [i for i, v in enumerate(names) if v in inverted]
    assert _as_ref(out, names) == _ref_add(
        {tuple(-x if i in flipped else x for i, x in enumerate(e)): c for e, c in p.items()}, {})
    assert out.bound == P.bound
    assert out.substitute({v: M(1, {v: -1}) for v in inverted}) == P
    assert P.substitute({}) is P


def test_invert_vars_skips_unregistered_names():
    p = V("x1") ** 2 * M(1, {"y1": -3}) + 5
    fresh = f"fresh{next(_FRESH)}"
    assert p.substitute({fresh: 2}) is p
    assert fresh not in laurent._SLOT
    assert p.substitute({"y1": M(1, {"y1": -1}), fresh: 2}) == V("x1") ** 2 * M(1, {"y1": 3}) + 5


@st.composite
def _mapping_case(draw):
    """A case and a random simultaneous mapping over its names and a fresh
    one, as {index: (kind, exponents over all those names, coefficient)}.
    Each name is kept, inverted, negated, renamed (onto a name of the case,
    which may swap, cycle or merge, or onto the fresh one), sent to a
    monomial such as a*x with coefficient +-1, or sent to a constant: +-1,
    or an int other than +-1, which is refused where its variable has a
    negative exponent."""
    names, p, *_ = draw(_ref_case())
    width = len(names) + 1
    values = {}
    for i in range(len(names)):
        kind = draw(st.sampled_from(("keep", "invert", "negate", "rename", "monomial",
                                     "constant")))
        unit = [0] * width
        if kind == "invert":
            unit[i] = -1
            values[i] = (kind, tuple(unit), 1)
        elif kind == "negate":
            unit[i] = 1
            values[i] = (kind, tuple(unit), -1)
        elif kind == "rename":
            unit[draw(st.integers(0, width - 1))] = 1
            values[i] = (kind, tuple(unit), 1)
        elif kind == "monomial":
            exps = draw(st.tuples(*[st.integers(-2, 2)] * width))
            values[i] = (kind, exps, draw(st.sampled_from((1, -1))))
        elif kind == "constant":
            values[i] = (kind, (0,) * width, draw(st.sampled_from((1, -1, 2, -3))))
    return names, p, values


def _keeps_bound(p, values):
    """Whether the mapping only inverts, negates and renames, with no two
    exponents landing on one name, so no exponent grows."""
    if any(kind not in ("invert", "negate", "rename") for kind, _, _ in values.values()):
        return False
    targets = [r.index(1) for i, (kind, r, _) in values.items()
               if kind == "rename" and r.index(1) != i]
    vacated = {i for i, (kind, r, _) in values.items() if kind == "rename" and r.index(1) != i}
    return len(set(targets)) == len(targets) and all(
        t in vacated or not any(t < len(e) and e[t] for e in p) for t in targets)


@settings(max_examples=400, deadline=None)
@given(_mapping_case())
def test_simultaneous_substitution_matches_tuple_reference(case):
    names, p, values = case
    fresh = f"fresh{next(_FRESH)}"
    full = names + (fresh,)
    P = LaurentPoly(names, p)
    mapping = {names[i]: LaurentPoly(full, {r: rc}) if any(r) else rc
               for i, (_, r, rc) in values.items()}
    try:
        want = _ref_map(p, len(full), {i: (r, rc) for i, (_, r, rc) in values.items()})
    except NonInvertibleValue:
        with pytest.raises(NonInvertibleValue):
            P.substitute(mapping)
        return
    out = P.substitute(mapping)
    assert _as_ref(out, full) == want
    assert _json(out) == _json(LaurentPoly(full, want))
    assert out.bound >= max((abs(x) for e in want for x in e), default=0)
    if _keeps_bound(p, values):
        assert out.bound == P.bound


@settings(max_examples=300, deadline=None)
@given(_ref_case())
def test_total_degrees_match_the_tuple_reference(case):
    # The case draws a about half the time, negative exponents and subsets
    # of the registered names that leave slots unused in between.
    names, p, _, _, data = case
    P = LaurentPoly(names, p)
    live = _ref_add(p, {})
    fresh = f"fresh{next(_FRESH)}"
    skip = data.draw(st.lists(st.sampled_from(_NAMES + (fresh,)), unique=True, max_size=3))
    assert P.total_degrees() == {sum(e) for e in live}
    assert P.total_degrees(skip) == {sum(x for v, x in zip(names, e) if v not in skip)
                                     for e in live}
    assert fresh not in laurent._SLOT


def test_total_degrees_beyond_the_residue_range():
    # Sums past +-_LIMIT are not the balanced residue of one key modulo
    # 2^W - 1, so these are read digit by digit.
    big = _LIMIT - 1
    p = M(1, {"x1": big, "y1": big, "a": -3}) + M(2, {"x1": -big, "y1": -big})
    assert p.total_degrees() == {2 * big - 3, -2 * big}
    assert p.total_degrees(["a"]) == {2 * big, -2 * big}
    assert p.total_degrees(["x1", "y1"]) == {-3, 0}
    assert LaurentPoly.zero().total_degrees() == set()
    assert LaurentPoly.const(5).total_degrees(["a"]) == {0}
