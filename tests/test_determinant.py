"""Special-point determinant evaluators."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from halfturn_ice import determinant
from halfturn_ice.determinant import (
    DimensionMismatch, det_exact, random_distinct_rationals, row_exponents, special_z)
from halfturn_ice.exactnum import Cyclo, ZETA, sigma
from halfturn_ice.formulas import count_asm, count_closed, count_ht_even, count_ht_odd
from halfturn_ice.icemodel import ModelSpec
# The evaluated state sum at a = zeta, the points interleaved as (x1, y1,
# x2, y2, ...) and the central pair of ht-odd sharing the last: the second
# route, which has no pole at u_i = +-u_j.
from halfturn_ice.verify import _Z


# ----------------------------------------------------------------------
# the paper's route: N x N generalized Vandermonde determinants divided by
# sigma products, against which the Schur-function form of `special_z`
# is checked
# ----------------------------------------------------------------------

def build_matrix(kind, size, u):
    """Row r, column c entry is u_c ** e_r for the kind's exponent list."""
    exps = row_exponents(kind, size)
    pts = tuple(Cyclo.of(x) for x in u)
    if len(pts) != len(exps):
        raise DimensionMismatch(
            f"{kind}({size}) needs {len(exps)} points, got {len(pts)}")
    if any(not x for x in pts):
        raise ValueError("points must be nonzero")
    return tuple(zip(*(_power_column(x, exps) for x in pts)))


def _power_column(x, exps):
    """x ** e down a descending exponent run, whose gaps are 2 or 4 since
    every third integer of one parity is a multiple of 3: one power for the
    first entry, then one product per entry (one inverse of x in all)."""
    down2 = x.inverse() ** 2
    step = {2: down2, 4: down2 * down2}
    col = [x ** exps[0]]
    for prev, e in zip(exps, exps[1:]):
        col.append(col[-1] * step[prev - e])
    return col


def _sigma_pair_product(u, power=1):
    total = Cyclo(1)
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            total = total * sigma(u[i] / u[j]) ** power
    return total


def det_cyclo(mat):
    """`det_exact` of a matrix over Q, its entries rational `Cyclo`s: each
    row times the lcm of its entries' denominators is a row of ints, and
    the determinant of those rows is divided by the product of the row
    scales."""
    rows, scale = [], 1
    for row in mat:
        parts = [x.integer_parts() for x in row]
        assert not any(b for _, b, _ in parts), "rational entries only"
        d = lcm(*(e for _, _, e in parts))
        rows.append([a * (d // e) for a, _, e in parts])
        scale *= d
    return Cyclo.from_integer_parts(det_exact(rows), 0, scale)


def reference_special_z(model, size, u):
    """The paper's forms: det P(n), det Q(m) or det P'(m+1; u) det P'(m+1; 1/u)
    by `det_cyclo`, times sigma(a)^k over the product of sigma(u_mu/u_nu).
    Two points with u_i = +-u_j put a pole in that product."""
    pts = tuple(Cyclo.of(x) for x in u)
    if model in ("dwbc", "ht2"):
        pref = sigma(ZETA) ** size / _sigma_pair_product(pts)
        if (size * (size - 1) // 2) % 2:
            pref = -pref
        return pref * det_cyclo(build_matrix("P" if model == "dwbc" else "Q", size, pts))
    pref = sigma(ZETA) ** (2 * size) / _sigma_pair_product(pts, power=2)
    inv = tuple(x.inverse() for x in pts)
    return (pref * det_cyclo(build_matrix("Pprime", size + 1, pts))
            * det_cyclo(build_matrix("Pprime", size + 1, inv)))


def point_count(model, size):
    return 2 * size + 1 if model == "ht-odd" else 2 * size


def reference_det(mat):
    """Bareiss elimination with every entry and quotient in Q(zeta), on
    `Cyclo`s: the oracle that `det_exact` (directly, or by `det_cyclo`) must
    agree with."""
    n = len(mat)
    if n == 0:
        return Cyclo(1)
    m = [list(row) for row in mat]
    sign = 1
    prev = Cyclo(1)
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Cyclo(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# Small rationals, zero about half the time, so that pivot swaps and
# singular matrices occur.
parts = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3),
                         Fraction(5, 7)])
entries = st.one_of(st.just(Cyclo(0)), st.builds(Cyclo, parts))
square_matrices = st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n).map(tuple),
                       min_size=n, max_size=n).map(tuple))


# Small and large ints, zero about half the time, so that zero pivots, row
# swaps and singular matrices occur.
int_entries = st.one_of(st.just(0), st.one_of(st.integers(-9, 9), st.integers()))
int_matrices = st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(int_entries, min_size=n, max_size=n),
                       min_size=n, max_size=n))


def test_row_exponent_patterns():
    assert row_exponents("P", 1) == (1, -1)
    assert row_exponents("P", 2) == (4, 2, -2, -4)
    assert row_exponents("P", 3) == (7, 5, 1, -1, -5, -7)
    assert row_exponents("Q", 1) == (2, -2)
    assert row_exponents("Q", 2) == (5, 1, -1, -5)
    assert row_exponents("Q", 3) == (8, 4, 2, -2, -4, -8)
    assert row_exponents("Pprime", 2) == (4, 2, -2)


def test_build_matrix():
    mat = build_matrix("P", 1, (Fraction(2), Fraction(3)))
    assert mat == ((Cyclo(2), Cyclo(3)), (Cyclo(Fraction(1, 2)), Cyclo(Fraction(1, 3))))
    with pytest.raises(DimensionMismatch):
        build_matrix("P", 2, (Fraction(1), Fraction(2)))
    with pytest.raises(ValueError):
        build_matrix("P", 1, (Fraction(0), Fraction(2)))
    # Every entry is the plain power, at seeded rational and zeta-valued points.
    rng = random.Random(7)
    for kind in ("P", "Q", "Pprime"):
        for size in range(1, 6):
            exps = row_exponents(kind, size)
            rational = [Cyclo(f) for f in random_distinct_rationals(rng, len(exps))]
            zeta_valued = [Cyclo(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                 Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                           for _ in exps]
            for u in (rational, zeta_valued):
                mat = build_matrix(kind, size, u)
                assert len(mat) == len(exps)
                for row, e in zip(mat, exps):
                    assert row == tuple(x ** e for x in u), (kind, size, e)


def test_det_examples():
    assert det_cyclo(build_matrix("P", 1, (Fraction(2), Fraction(3)))) == Fraction(-5, 6)
    ident = tuple(tuple(Cyclo(int(i == j)) for j in range(3)) for i in range(3))
    assert det_cyclo(ident) == Cyclo(1)
    dup = ((Cyclo(1), Cyclo(1)), (Cyclo(2), Cyclo(2)))
    assert det_cyclo(dup) == Cyclo(0)


def test_empty_determinant_is_one():
    assert det_cyclo(()) == Cyclo(1)


def test_det_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        det_cyclo(((Cyclo(1), Cyclo(2)),))


@settings(max_examples=300, deadline=None)
@given(square_matrices)
def test_det_matches_reference(mat):
    assert det_cyclo(mat) == reference_det(mat)


@settings(max_examples=300, deadline=None)
@given(int_matrices)
def test_det_matches_the_cyclo_oracle(mat):
    # The elimination over Z against the one in Q(zeta) on the same entries.
    got = det_exact(mat)
    assert type(got) is int and got == reference_det([[Cyclo(x) for x in row] for row in mat])


def test_det_matches_reference_at_p10():
    u = random_distinct_rationals(random.Random(2024), 20)
    mat = build_matrix("P", 10, u)
    assert len(mat) == 20
    assert det_cyclo(mat) == reference_det(mat)


def test_det_edge_cases():
    assert det_exact(()) == 1
    assert det_exact([[0, 1], [2, 3]]) == -2  # one swap
    assert det_exact([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1  # two swaps
    assert det_exact([[1, 2], [3, 6]]) == 0
    assert det_exact([[0, 1], [0, 2]]) == 0  # no pivot
    with pytest.raises(DimensionMismatch):
        det_exact([[1, 2]])
    with pytest.raises(DimensionMismatch):
        det_exact([[1, 2], [3]])


def test_dwbc_size_one_is_constant():
    rng = random.Random(3)
    for _ in range(5):
        u = random_distinct_rationals(rng, 2)
        assert special_z("dwbc", 1, u) == sigma(ZETA)


def test_coincident_points_guard():
    # No guard: equal points are no pole of the Schur form.
    assert special_z("dwbc", 1, (Fraction(2), Fraction(2))) == sigma(ZETA)
    u = (Fraction(2), Fraction(3), Fraction(2), Fraction(5))
    assert special_z("dwbc", 2, u) == _Z("dwbc", 2, u)


@pytest.mark.parametrize("model,size,u", [
    ("dwbc", 1, (2, -2)),
    ("ht2", 1, (Fraction(1, 3), Fraction(-1, 3))),
    ("ht-odd", 1, (2, 3, -3)),
])
def test_opposite_points_guard(model, size, u):
    # sigma(u_i/u_j) = sigma(-1) = 0 in the paper's prefactor, yet the form
    # is the state sum there, and the reference meets a zero divisor.
    assert special_z(model, size, u) == _Z(model, size, u)
    with pytest.raises(ZeroDivisionError):
        reference_special_z(model, size, u)


def test_zero_point_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        special_z("dwbc", 1, (0, 2))


@pytest.mark.parametrize("model", ["dwbc", "ht2", "ht-odd"])
def test_zeta_point_rejected(model, monkeypatch):
    # One zeta-valued coordinate among rationals is refused before any
    # elimination.
    monkeypatch.setattr(determinant, "det_exact", None)
    u = list(random_distinct_rationals(random.Random(2), point_count(model, 2)))
    u[1] = Cyclo(Fraction(1, 3), Fraction(-5, 2))
    with pytest.raises(ValueError, match="points must be rational"):
        special_z(model, 2, u)


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        special_z("ht2", 2, (Fraction(1), Fraction(2)))
    with pytest.raises(DimensionMismatch):
        special_z("ht-odd", 1, (Fraction(1), Fraction(2)))
    with pytest.raises(ValueError):
        special_z("mystery", 1, (Fraction(1), Fraction(2)))
    # The point count is checked before anything of the size's order is built.
    with pytest.raises(DimensionMismatch, match="dwbc size 1000000000 needs 2000000000 points"):
        special_z("dwbc", 10 ** 9, (Fraction(1), Fraction(2)))


@pytest.mark.parametrize("model,size,u", [
    ("dwbc", 0, ()),
    ("ht2", 0, ()),
    ("dwbc", -1, (1, 2)),
    ("ht2", -2, ()),
    ("ht-odd", -1, ()),
])
def test_size_out_of_range(model, size, u):
    low = 0 if model == "ht-odd" else 1
    with pytest.raises(ValueError, match=f"{model} size must be >= {low}, got {size}"):
        special_z(model, size, u)


@pytest.mark.parametrize("model,kind", [("dwbc", "dwbc"), ("ht2", "ht-even"),
                                        ("ht-odd", "ht-odd")])
def test_size_range_matches_model_spec(model, kind):
    for size in range(-2, 3):
        try:
            ModelSpec(kind, size)
        except ValueError:
            with pytest.raises(ValueError, match="size must be"):
                special_z(model, size, ())
        else:
            count = 2 * size + 1 if model == "ht-odd" else 2 * size
            special_z(model, size, random_distinct_rationals(random.Random(size), count))


def test_random_points_are_distinct():
    rng = random.Random(42)
    pts = random_distinct_rationals(rng, 30)
    assert len(set(pts)) == 30
    assert all(0 < p <= 50 for p in pts)


def test_random_points_stop_at_the_number_of_distinct_rationals():
    limit = len({Fraction(p, q) for p in range(1, 51) for q in range(1, 51)})
    assert limit == 1547
    pts = random_distinct_rationals(random.Random(1), limit)
    assert len(set(pts)) == limit
    assert all(x.numerator <= 50 and x.denominator <= 50 for x in pts)
    with pytest.raises(ValueError, match="at most 1547 distinct rationals"):
        random_distinct_rationals(random.Random(1), limit + 1)


def test_permutation_symmetry():
    rng = random.Random(9)
    u = list(random_distinct_rationals(rng, 4))
    base = special_z("ht2", 2, tuple(u))
    rng.shuffle(u)
    assert special_z("ht2", 2, tuple(u)) == base


# ----------------------------------------------------------------------
# the Schur-function form against the paper's route
# ----------------------------------------------------------------------

def _shape(pairs_from, top=(), tail=(0, 0)):
    """top, then pairs_from, pairs_from, pairs_from - 1, ..., 1, 1, then tail."""
    return tuple(top) + tuple(k for k in range(pairs_from, 0, -1) for _ in (0, 1)) + tuple(tail)


@pytest.mark.parametrize("size", range(1, 9))
def test_partitions_of_the_kinds(size):
    partition = determinant._partition
    assert partition(row_exponents("P", size)) == _shape(size - 1)
    assert partition(row_exponents("Q", size)) == _shape(size - 1, top=(size,), tail=(0,))
    assert partition(row_exponents("Pprime", size + 1)) == _shape(size - 1, top=(size,))


@pytest.mark.parametrize("model,sizes", [("dwbc", range(1, 11)), ("ht2", range(1, 8)),
                                         ("ht-odd", range(0, 7))])
def test_special_z_matches_reference_at_rational_points(model, sizes):
    rng = random.Random(f"special-z-{model}")
    for size in sizes:
        for _ in range(2):
            # Distinct absolute values with random signs: never u_i = +-u_j.
            u = tuple(f * rng.choice((-1, 1))
                      for f in random_distinct_rationals(rng, point_count(model, size)))
            assert special_z(model, size, u) == reference_special_z(model, size, u), (model, size, u)


def _with_pair(model, size, i, j, value, opposite):
    """Seeded distinct rational points with u_i = value and u_j = +-value."""
    u = list(random_distinct_rationals(random.Random(size), point_count(model, size)))
    u[i] = Cyclo.of(value)
    u[j] = -u[i] if opposite else u[i]
    return tuple(u)


@pytest.mark.parametrize("model", ["dwbc", "ht2", "ht-odd"])
@pytest.mark.parametrize("opposite", [False, True])
@pytest.mark.parametrize("value", [Fraction(51, 2), Fraction(-5, 3)])
def test_pole_guard_at_a_non_adjacent_pair(model, opposite, value):
    # Points 2 and 4 (1-based) of five or four coincide up to sign: no pole
    # of the Schur form, which equals the state sum there.
    u = _with_pair(model, 2, 1, 3, value, opposite)
    assert special_z(model, 2, u) == _Z(model, 2, u)


@pytest.mark.parametrize("model", ["dwbc", "ht2", "ht-odd"])
def test_pole_guard_names_the_first_pair(model):
    # u_1 = -u_4 and u_2 = u_3: two pairs at once.
    u = list(random_distinct_rationals(random.Random(5), point_count(model, 2)))
    u[3], u[2] = -u[0], u[1]
    assert special_z(model, 2, u) == _Z(model, 2, u)


@pytest.mark.parametrize("model", ["dwbc", "ht2", "ht-odd"])
def test_pole_guard_names_the_first_combination(model):
    # u_2 = u_3 = u_4 and u_1 = -u_2: four points equal up to sign.
    u = list(random_distinct_rationals(random.Random(6), point_count(model, 2)))
    u[1] = u[2] = u[3] = Fraction(-5, 2)
    u[0] = -u[1]
    assert special_z(model, 2, u) == _Z(model, 2, u)


# ----------------------------------------------------------------------
# the paper's enumerations by the determinant route
# ----------------------------------------------------------------------
#
# At a = zeta with every spectral parameter 1, each vertex weighs
# sigma(zeta^2) = sigma(zeta), with sigma(zeta)^2 = -3, and the central
# cell of an odd order weighs 1: a state sum is sigma(zeta)^k times its
# number of states, k the number of weighted vertices.

S = sigma(ZETA)


def _ones(model, size):
    return (1,) * point_count(model, size)


def test_special_z_at_the_unit_point_counts_the_states():
    assert S * S == -3 and sigma(ZETA * ZETA) == S
    for n in range(1, 13):
        assert special_z("dwbc", n, _ones("dwbc", n)) == S ** (n * n) * count_asm(n), n
    for m in range(1, 11):
        cofactor = count_ht_even(2 * m) // count_asm(m)
        assert special_z("ht2", m, _ones("ht2", m)) == S ** (m * m) * cofactor, m
    for m in range(0, 11):
        assert special_z("ht-odd", m, _ones("ht-odd", m)) \
            == S ** (2 * m * (m + 1)) * count_ht_odd(2 * m + 1), m


@pytest.mark.parametrize("model,sizes", [("dwbc", range(1, 7)), ("ht2", range(1, 5)),
                                         ("ht-odd", range(0, 5))])
def test_special_z_at_the_unit_point_is_the_state_sum(model, sizes):
    # Up to dwbc 6 and half-turn order 9.
    for size in sizes:
        u = _ones(model, size)
        assert special_z(model, size, u) == _Z(model, size, u), (model, size)


def test_theorem2_at_the_unit_point_splits_the_odd_count():
    # Theorem 2 at a = zeta and w = 1, with A(m) and B(m) = A_HT(2m)/A(m)
    # read off the determinants.
    def read(model, size):
        value = special_z(model, size, _ones(model, size)) / S ** (size * size)
        assert value.q == 0 and value.p.denominator == 1
        return value.p.numerator

    a = {n: read("dwbc", n) for n in range(1, 22)}
    b = {m: read("ht2", m) for m in range(1, 22)}
    for m in range(1, 21):
        assert a[m] == count_asm(m) and a[m] * b[m] == count_ht_even(2 * m), m
        order = 2 * m + 1
        assert (2 * a[m] * b[m + 1] - a[m + 1] * b[m]) == 3 * count_closed("ht-odd-plus", order)
        assert (2 * a[m + 1] * b[m] - a[m] * b[m + 1]) == 3 * count_closed("ht-odd-minus", order)
