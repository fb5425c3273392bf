"""Special-point determinant evaluators."""

import random
from fractions import Fraction

import pytest

from halfturn_ice.determinant import (
    CoincidentPoints, DimensionMismatch, build_matrix, det_exact,
    random_distinct_rationals, row_exponents, special_z)
from halfturn_ice.exactnum import Cyclo, ZETA, sigma


def test_row_exponent_patterns():
    assert row_exponents("P", 1) == (1, -1)
    assert row_exponents("P", 2) == (4, 2, -2, -4)
    assert row_exponents("P", 3) == (7, 5, 1, -1, -5, -7)
    assert row_exponents("Q", 1) == (2, -2)
    assert row_exponents("Q", 2) == (5, 1, -1, -5)
    assert row_exponents("Q", 3) == (8, 4, 2, -2, -4, -8)
    assert row_exponents("Pprime", 2) == (4, 2, -2)
    assert row_exponents("Qprime", 2) == (5, 1, -1)


def test_build_matrix():
    mat = build_matrix("P", 1, (Fraction(2), Fraction(3)))
    assert mat == ((Cyclo(2), Cyclo(3)), (Cyclo(Fraction(1, 2)), Cyclo(Fraction(1, 3))))
    with pytest.raises(DimensionMismatch):
        build_matrix("P", 2, (Fraction(1), Fraction(2)))
    with pytest.raises(ValueError):
        build_matrix("P", 1, (Fraction(0), Fraction(2)))


def test_det_examples():
    assert det_exact(build_matrix("P", 1, (Fraction(2), Fraction(3)))) == Fraction(-5, 6)
    ident = tuple(tuple(Cyclo(int(i == j)) for j in range(3)) for i in range(3))
    assert det_exact(ident) == Cyclo(1)
    dup = ((Cyclo(1), Cyclo(1)), (Cyclo(2), Cyclo(2)))
    assert det_exact(dup) == Cyclo(0)


def test_det_with_zeta_entries():
    mat = ((ZETA, Cyclo(1)), (Cyclo(1), ZETA))
    # zeta^2 - 1 = zeta - 2
    assert det_exact(mat) == ZETA - 2


def test_dwbc_size_one_is_constant():
    rng = random.Random(3)
    for _ in range(5):
        u = random_distinct_rationals(rng, 2)
        assert special_z("dwbc", 1, u) == sigma(ZETA)


def test_coincident_points_guard():
    with pytest.raises(CoincidentPoints):
        special_z("dwbc", 1, (Fraction(2), Fraction(2)))


@pytest.mark.parametrize("model,size,u", [
    ("dwbc", 1, (2, -2)),
    ("ht2", 1, (Fraction(1, 3), Fraction(-1, 3))),
    ("ht-odd", 1, (2, 3, -3)),
])
def test_opposite_points_guard(model, size, u):
    # sigma(u_i/u_j) = sigma(-1) = 0: a pole, not a bare ZeroDivisionError
    with pytest.raises(CoincidentPoints):
        special_z(model, size, u)


def test_zero_point_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        special_z("dwbc", 1, (0, 2))


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        special_z("ht2", 2, (Fraction(1), Fraction(2)))
    with pytest.raises(DimensionMismatch):
        special_z("ht-odd", 1, (Fraction(1), Fraction(2)))
    with pytest.raises(ValueError):
        special_z("mystery", 1, (Fraction(1), Fraction(2)))


def test_random_points_are_distinct():
    rng = random.Random(42)
    pts = random_distinct_rationals(rng, 30)
    assert len(set(pts)) == 30
    assert all(0 < p <= 50 for p in pts)


def test_permutation_symmetry():
    rng = random.Random(9)
    u = list(random_distinct_rationals(rng, 4))
    base = special_z("ht2", 2, tuple(u))
    rng.shuffle(u)
    assert special_z("ht2", 2, tuple(u)) == base
