"""Determinant representations of the partition functions at the special
parameter value a = zeta (the primitive sixth root of unity).

The matrices are generalized Vandermonde matrices u_c^(e_r) whose row
exponents are the integers of fixed parity, not divisible by 3, bounded by
3n - 2 (kind P, for the domain-wall sum) or 3m - 1 (kind Q, for the
half-turn cofactor), listed in descending order.  The primed kinds drop
the last row and column.  Evaluators:

    dwbc : (-1)^(n(n-1)/2) sigma(a)^n / prod_(mu<nu) sigma(u_mu/u_nu) * det P(n)
    ht2  : (-1)^(m(m-1)/2) sigma(a)^m / prod sigma(u_mu/u_nu) * det Q(m)
    ht-odd: sigma(a)^(2m) / prod sigma(u_mu/u_nu)^2
                 * det P'(m+1; u) * det P'(m+1; 1/u)

The prefactors are exact in Q(zeta).  The determinants clear each
column's denominators once and then eliminate over the integers Z[zeta]
with exact division; evaluation is O(d^3) against the exponentially
growing state sums it reproduces.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Sequence

from .exactnum import Cyclo, ZETA, sigma

Matrix = tuple[tuple[Cyclo, ...], ...]


class DimensionMismatch(ValueError):
    """Point vector length does not match the matrix being built."""


class CoincidentPoints(ValueError):
    """Two coordinates are equal or opposite, putting a pole in the prefactor."""


def _exponent_run(bound: int) -> tuple[int, ...]:
    """Integers e with |e| <= bound, e = bound (mod 2), 3 does not divide e,
    descending."""
    return tuple(e for e in range(bound, -bound - 1, -2) if e % 3 != 0)


def row_exponents(kind: str, size: int) -> tuple[int, ...]:
    if kind == "P":
        exps = _exponent_run(3 * size - 2)
        want = 2 * size
    elif kind == "Q":
        exps = _exponent_run(3 * size - 1)
        want = 2 * size
    elif kind == "Pprime":
        exps = _exponent_run(3 * size - 2)[:-1]
        want = 2 * size - 1
    elif kind == "Qprime":
        exps = _exponent_run(3 * size - 1)[:-1]
        want = 2 * size - 1
    else:
        raise ValueError(f"unknown matrix kind {kind!r}")
    assert len(exps) == want, (kind, size, exps)
    return exps


def build_matrix(kind: str, size: int, u: Sequence[Cyclo]) -> Matrix:
    """Row r, column c entry is u_c ** e_r for the kind's exponent list."""
    exps = row_exponents(kind, size)
    pts = tuple(Cyclo.of(x) for x in u)
    if len(pts) != len(exps):
        raise DimensionMismatch(
            f"{kind}({size}) needs {len(exps)} points, got {len(pts)}")
    if any(not x for x in pts):
        raise ValueError("points must be nonzero")
    return tuple(zip(*(_power_column(x, exps) for x in pts)))


def _power_column(x: Cyclo, exps: Sequence[int]) -> list[Cyclo]:
    """x ** e down a descending exponent run, whose gaps are 2 or 4 since
    every third integer of one parity is a multiple of 3: one power for the
    first entry, then one product per entry (one inverse of x in all)."""
    down2 = x.inverse() ** 2
    step = {2: down2, 4: down2 * down2}
    col = [x ** exps[0]]
    for prev, e in zip(exps, exps[1:]):
        col.append(col[-1] * step[prev - e])
    return col


def det_exact(mat: Matrix) -> Cyclo:
    """Exact determinant by fraction-free (Bareiss) elimination over Z[zeta].

    Each column is first scaled by the lcm of its entries' denominators, so
    that every entry is an integer pair (a, b) standing for a + b*zeta; the
    determinant of the original matrix is that of the scaled one over the
    product of the column scales.  A column of P, Q or P' holds the powers
    of one point, so its scale stays small.  Z[zeta] is an integral domain,
    so each Bareiss step divides exactly by the previous pivot p: by `//`
    on both parts when p is rational, otherwise by multiplying with
    conj(p) and dividing both parts by the integer norm p * conj(p).
    The 0 x 0 determinant is 1.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise DimensionMismatch("matrix must be square")
    if n == 0:
        return Cyclo.of(1)
    m = [[None] * n for _ in range(n)]
    scale = 1
    for j in range(n):
        parts = [row[j].integer_parts() for row in mat]
        col_scale = lcm(*(d for _, _, d in parts))
        scale *= col_scale
        for i, (a, b, d) in enumerate(parts):
            f = col_scale // d
            m[i][j] = (a * f, b * f)
    sign = 1
    pa, pb = 1, 0  # the previous pivot
    for k in range(n - 1):
        if m[k][k] == (0, 0):
            for i in range(k + 1, n):
                if m[i][k] != (0, 0):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Cyclo.of(0)
        rk = m[k]
        ka, kb = rk[k]
        # Divide by p = pa + pb*zeta as t * conj(p) / norm(p), where
        # conj(p) = ca + cb*zeta.
        ca, cb, norm = pa + pb, -pb, pa * pa + pa * pb + pb * pb
        for i in range(k + 1, n):
            ri = m[i]
            ia, ib = ri[k]
            for j in range(k + 1, n):
                xa, xb = ri[j]
                ya, yb = rk[j]
                # t = x * pivot - ik * y, schoolbook with zeta^2 = zeta - 1:
                # with rational entries, all but xa * ka and ia * ya are
                # products with 0, which cost O(1).
                ta = xa * ka - xb * kb - ia * ya + ib * yb
                tb = xa * kb + xb * ka + xb * kb - ia * yb - ib * ya - ib * yb
                if pb:
                    ta, tb = ta * ca - tb * cb, ta * cb + tb * ca + tb * cb
                    ri[j] = (ta // norm, tb // norm)
                else:
                    ri[j] = (ta // pa, tb // pa)
        pa, pb = ka, kb
    a, b = m[n - 1][n - 1]
    return Cyclo.from_integer_parts(sign * a, sign * b, scale)


def _sigma_pair_product(u: Sequence[Cyclo], power: int = 1) -> Cyclo:
    total = Cyclo.of(1)
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            s = sigma(u[i] / u[j])
            if not s:  # u_i / u_j = +-1
                raise CoincidentPoints(
                    f"u_{i + 1} = {u[i]} and u_{j + 1} = {u[j]} put a pole at "
                    f"sigma(u_{i + 1}/u_{j + 1}) = 0")
            total = total * s ** power
    return total


# Smallest size of each evaluator's model.
_MIN_SIZE = {"dwbc": 1, "ht2": 1, "ht-odd": 0}


def special_z(model: str, size: int, u: Sequence[Cyclo]) -> Cyclo:
    """Determinant evaluator of the partition function at a = zeta.

    model "dwbc" (size n, 2n points), "ht2" (size m, 2m points) or
    "ht-odd" (size m, 2m+1 points, last coordinate shared between the two
    spectral vectors).  The sizes are those of `icemodel.ModelSpec`: dwbc
    and ht2 need size >= 1, ht-odd size >= 0.
    """
    low = _MIN_SIZE.get(model)
    if low is None:
        raise ValueError(f"unknown determinant model {model!r}")
    if size < low:
        raise ValueError(f"{model} size must be >= {low}, got {size}")
    pts = tuple(Cyclo.of(x) for x in u)
    if any(not x for x in pts):
        raise ValueError("points must be nonzero")
    a = ZETA
    if model in ("dwbc", "ht2"):
        n = size
        if len(pts) != 2 * n:
            raise DimensionMismatch(f"{model} size {n} needs {2 * n} points")
        pref = sigma(a) ** n / _sigma_pair_product(pts)
        if (n * (n - 1) // 2) % 2:
            pref = -pref
        return pref * det_exact(build_matrix("P" if model == "dwbc" else "Q", n, pts))
    m = size  # ht-odd
    if len(pts) != 2 * m + 1:
        raise DimensionMismatch(f"ht-odd size {m} needs {2 * m + 1} points")
    pref = sigma(a) ** (2 * m) / _sigma_pair_product(pts, power=2)
    inv = tuple(x.inverse() for x in pts)
    return (pref * det_exact(build_matrix("Pprime", m + 1, pts))
            * det_exact(build_matrix("Pprime", m + 1, inv)))


def random_distinct_rationals(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    """Distinct positive rationals with numerator and denominator <= 50."""
    seen: set[Fraction] = set()
    out = []
    while len(out) < count:
        f = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        if f not in seen:
            seen.add(f)
            out.append(f)
    return tuple(out)
