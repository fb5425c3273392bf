"""Determinant representations of the partition functions at the special
parameter value a = zeta (the primitive sixth root of unity).

The paper's forms divide generalized Vandermonde determinants det[u_c^(e_r)]
by a product of sigma(u_mu/u_nu).  Their row exponents e_1 > ... > e_N are
the integers of fixed parity, not divisible by 3, bounded by 3n - 2 (kind
P, for the domain-wall sum) or 3m - 1 (kind Q, for the half-turn
cofactor); the primed kind P' of the odd sum drops P's last row
(`row_exponents`):

    dwbc : (-1)^(n(n-1)/2) sigma(a)^n / prod_(mu<nu) sigma(u_mu/u_nu) * det P(n)
    ht2  : (-1)^(m(m-1)/2) sigma(a)^m / prod sigma(u_mu/u_nu) * det Q(m)
    ht-odd: sigma(a)^(2m) / prod sigma(u_mu/u_nu)^2
                 * det P'(m+1; u) * det P'(m+1; 1/u)

Taking u_c^(e_1) out of each column leaves the alternant of w_c = u_c^-2
with exponents k_r = (e_1 - e_r)/2: the Vandermonde determinant of the w's
times the Schur function s_lam(w), lam_j = k_(N+1-j) - (N-j).  The
Vandermonde factor cancels the sigma product (Stroganov for P; Okada for
the symmetry classes), which leaves

    dwbc, ht2 (size n): (-1)^(n(n-1)/2) sigma(a)^n (prod_c u_c)^(e_1-N+1) s_lam(u^-2), N = 2n
    ht-odd (size m):    (-1)^(N(N-1)/2) sigma(a)^(2m) s_lam(u^-2) s_lam(u^2), N = 2m+1

with lam = (n-1, n-1, ..., 1, 1, 0, 0) for P(n), (m, m-1, m-1, ..., 1, 1, 0)
for Q(m) and (m, m-1, m-1, ..., 1, 1, 0, 0) for P'(m+1).  `special_z`
evaluates these: each s_lam is the dual Jacobi-Trudi determinant
det[e_(lam'_i - i + j)] over the elementary symmetric functions e_k of the
N arguments, of size lam_1 = n - 1 (dwbc) or m (ht2, ht-odd) where the
paper's matrices are N x N.  With no sigma product formed, the pole at
u_i = +-u_j is refused up front.  Writing each argument as v/d with v in
Z[zeta] and d an integer, `_schur` forms D e_k, D = prod d, as integer
pairs; `det_exact` eliminates over the integers Z[zeta] with exact
division, and the one division by D^lam_1 comes last.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from typing import Sequence

from .exactnum import ONE, ZERO, ZETA, Cyclo, sigma

Matrix = tuple[tuple[Cyclo, ...], ...]


class DimensionMismatch(ValueError):
    """A point vector does not fit the model size, or a matrix is not square."""


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
    else:
        raise ValueError(f"unknown matrix kind {kind!r}")
    assert len(exps) == want, (kind, size, exps)
    return exps


def det_exact(mat: Matrix) -> Cyclo:
    """Exact determinant by fraction-free (Bareiss) elimination over Z[zeta].

    Each column is first scaled by the lcm of its entries' denominators, so
    that every entry is an integer pair (a, b) standing for a + b*zeta; the
    determinant of the original matrix is that of the scaled one over the
    product of the column scales.  The matrices `_schur` passes are
    already integral (elementary symmetric functions times the product of
    their arguments' denominators), so their column scales are all 1 and
    the one division is `_schur`'s.  Z[zeta] is an integral domain, so
    each Bareiss step divides exactly by the previous pivot p: by `//` on
    both parts when p is rational, otherwise by multiplying with conj(p)
    and dividing both parts by the integer norm p * conj(p).  The 0 x 0
    determinant is 1.
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


def _partition(exps: Sequence[int]) -> tuple[int, ...]:
    """The partition lam of a descending exponent run e_1 > ... > e_N: with
    k_r = (e_1 - e_r)/2, lam_j = k_(N+1-j) - (N-j)."""
    k = [(exps[0] - e) // 2 for e in exps]
    return tuple(k[r] - r for r in reversed(range(len(k))))


def _schur(lam: Sequence[int], args: Sequence[Cyclo]) -> Cyclo:
    """s_lam(args) by the dual Jacobi-Trudi determinant det[e_(lam'_i - i + j)]
    of size lam_1, where e_k is the k-th elementary symmetric function of
    args (0 outside 0..len(args)) and lam' the conjugate partition.

    Each argument is w = v/d with v in Z[zeta] and d a positive integer.
    The integer pairs E_k, the coefficients of prod (d + v t), are D e_k
    with D = prod d, so `det_exact` sees only integral entries and
    s_lam = det[E_(lam'_i - i + j)] / D^lam_1: one division in all.
    """
    e = [(1, 0)] + [(0, 0)] * len(args)  # (a, b) standing for a + b*zeta
    scale = 1
    for c, w in enumerate(args, 1):
        va, vb, d = w.integer_parts()
        for k in range(c, 0, -1):
            ea, eb = e[k]
            fa, fb = e[k - 1]
            # d * E_k + v * E_(k-1), with zeta^2 = zeta - 1
            aa = va * fa
            e[k] = (d * ea + aa - vb * fb, d * eb + (va + vb) * (fa + fb) - aa)
        scale *= d
        e[0] = (scale, 0)

    def entry(k: int) -> Cyclo:
        return Cyclo(*e[k]) if 0 <= k < len(e) else ZERO

    conj = [sum(1 for part in lam if part > i) for i in range(lam[0])]
    a, b, _ = det_exact(tuple(tuple(entry(c - i + j) for j in range(len(conj)))
                              for i, c in enumerate(conj))).integer_parts()
    return Cyclo.from_integer_parts(a, b, scale ** len(conj))


# Each evaluator's matrix kind and smallest size (that of its
# `icemodel.ModelSpec`).
_MODELS = {"dwbc": ("P", 1), "ht2": ("Q", 1), "ht-odd": ("Pprime", 0)}


def special_z(model: str, size: int, u: Sequence[Cyclo]) -> Cyclo:
    """Determinant evaluator of the partition function at a = zeta.

    model "dwbc" (size n, 2n points), "ht2" (size m, 2m points) or
    "ht-odd" (size m, 2m+1 points, last coordinate shared between the two
    spectral vectors).  The sizes are those of `icemodel.ModelSpec`: dwbc
    and ht2 need size >= 1, ht-odd size >= 0.  Two points with u_i = +-u_j
    put a pole in the paper's prefactor and raise `CoincidentPoints`.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown determinant model {model!r}")
    kind, low = _MODELS[model]
    if size < low:
        raise ValueError(f"{model} size must be >= {low}, got {size}")
    pts = tuple(Cyclo.of(x) for x in u)
    if any(not x for x in pts):
        raise ValueError("points must be nonzero")
    ht_odd = model == "ht-odd"
    npts = 2 * size + 1 if ht_odd else 2 * size
    if len(pts) != npts:
        raise DimensionMismatch(f"{model} size {size} needs {npts} points")
    squares = [x * x for x in pts]
    for (i, s), (j, t) in combinations(enumerate(squares), 2):
        if s == t:  # u_i / u_j = +-1
            raise CoincidentPoints(
                f"u_{i + 1} = {pts[i]} and u_{j + 1} = {pts[j]} put a pole at "
                f"sigma(u_{i + 1}/u_{j + 1}) = 0")
    exps = row_exponents(kind, size + 1 if ht_odd else size)
    lam = _partition(exps)
    s_inv = _schur(lam, [s.inverse() for s in squares])
    if ht_odd:
        value = sigma(ZETA) ** (2 * size) * s_inv * _schur(lam, squares)
        flips = npts * (npts - 1) // 2
    else:
        value = sigma(ZETA) ** size * prod(pts, start=ONE) ** (exps[0] - npts + 1) * s_inv
        flips = size * (size - 1) // 2
    return -value if flips % 2 else value


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
