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
paper's matrices are N x N.

Each point u = (a + b*zeta)/d is read once, as integers, and the points
choose the ring.  Rational points (b = 0 for all: every caller's, the
all-ones point of the paper's enumerations included) are evaluated over Z:
each square is the pair (a^2, d^2), and `_elementary_z` forms the ints
E_k = D^2 e_k(u^2), D = prod d, by E_k <- d^2 E_k + a^2 E_(k-1).  Other
points are evaluated over Z[zeta]: each square is the triple
(a^2 - b^2, 2ab + b^2, d^2), not reduced, and `_elementary` forms the same
E_k as integer pairs.  Either way E_0 = D^2 and E_N = P^2 with
P = prod (a + b*zeta).  The Schur form has no pole where the paper's
prefactor has one (u_i = +-u_j), so every nonzero point is evaluated.  As
e_k(1/w) = e_(N-k)(w) / e_N(w), the same vector read backwards gives the
e_k of the u^-2, so no point is inverted and ht-odd builds one vector for
both Schur factors.  `det_exact` eliminates with exact division over Z on
the ints and over Z[zeta] on the pairs.  With e_1 - N + 1 = lam_1 (kinds P
and Q), each form is +-sigma(a)^k times an integral determinant (or a
product of two) over (P D)^lam_1 (dwbc, ht2) or (P D)^(2 lam_1) (ht-odd):
one pair numerator over one pair divisor, which `special_z` divides once
(`pair_quotient`).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from typing import Sequence

from .exactnum import ZETA, Cyclo, pair_mul, pair_quotient, sigma


class DimensionMismatch(ValueError):
    """A point vector does not fit the model size, or a matrix is not square."""


def row_exponents(kind: str, size: int) -> tuple[int, ...]:
    """The descending integers e with |e| <= b, e = b (mod 2) and 3 not
    dividing e, for b = 3 size - 2 (P) or 3 size - 1 (Q); P' drops P's last."""
    if kind not in ("P", "Q", "Pprime"):
        raise ValueError(f"unknown matrix kind {kind!r}")
    bound = 3 * size - (1 if kind == "Q" else 2)
    exps = tuple(e for e in range(bound, -bound - 1, -2) if e % 3 != 0)
    exps = exps[:-1] if kind == "Pprime" else exps
    assert len(exps) == 2 * size - (kind == "Pprime"), (kind, size, exps)
    return exps


def det_exact(mat: Sequence[Sequence[int]] | Sequence[Sequence[tuple[int, int]]]
              ) -> int | tuple[int, int]:
    """Exact determinant of a square matrix by fraction-free (Bareiss)
    elimination: over Z on and to ints, or over Z[zeta] on and to integer
    pairs (a, b) standing for a + b*zeta.  The first entry's type names the
    ring.

    Both rings are integral domains, so each Bareiss step divides exactly
    by the previous pivot p: over Z by one `//`, over Z[zeta] by `//` on
    both parts when p is rational, otherwise by multiplying with conj(p)
    and dividing both parts by the integer norm p * conj(p).  The 0 x 0
    determinant is (1, 0); a singular matrix gives 0 or (0, 0).
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise DimensionMismatch("matrix must be square")
    if n == 0:
        return 1, 0
    m = [list(row) for row in mat]
    if type(m[0][0]) is int:
        return _det_z(m)
    sign = 1
    pa, pb = 1, 0  # the previous pivot
    for k in range(n - 1):
        if m[k][k] == (0, 0):
            i = next((i for i in range(k + 1, n) if m[i][k] != (0, 0)), None)
            if i is None:
                return 0, 0
            m[k], m[i], sign = m[i], m[k], -sign
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
    return sign * a, sign * b


def _det_z(m: list[list[int]]) -> int:
    """`det_exact`'s elimination over Z, in place on a nonempty int matrix:
    two products and one exact `//` per entry."""
    n = len(m)
    sign = p = 1  # p: the previous pivot
    for k in range(n - 1):
        if not m[k][k]:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                return 0
            m[k], m[i], sign = m[i], m[k], -sign
        rk = m[k]
        pivot = rk[k]
        for i in range(k + 1, n):
            ri = m[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - f * rk[j]) // p
        p = pivot
    return sign * m[n - 1][n - 1]


def _partition(exps: Sequence[int]) -> tuple[int, ...]:
    """The partition lam of a descending exponent run e_1 > ... > e_N: with
    k_r = (e_1 - e_r)/2, lam_j = k_(N+1-j) - (N-j)."""
    k = [(exps[0] - e) // 2 for e in exps]
    return tuple(k[r] - r for r in reversed(range(len(k))))


def _elementary(args: Sequence[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """The integer pairs E_0..E_N, the coefficients of prod (d + v t) over
    the arguments w = v/d given as triples (a, b, d), v = a + b*zeta: so
    E_k = D e_k(w) with D = prod d, E_0 = D and E_N = prod v."""
    e = [(1, 0)] + [(0, 0)] * len(args)
    for c, (va, vb, d) in enumerate(args, 1):
        for k in range(c, 0, -1):
            ea, eb = e[k]
            fa, fb = e[k - 1]
            # d * E_k + v * E_(k-1), with zeta^2 = zeta - 1
            aa = va * fa
            e[k] = (d * ea + aa - vb * fb, d * eb + (va + vb) * (fa + fb) - aa)
        e[0] = (e[0][0] * d, 0)
    return e


def _elementary_z(args: Sequence[tuple[int, int]]) -> list[int]:
    """`_elementary` for rational arguments w = v/d given as pairs (v, d):
    the ints E_0..E_N, by E_k <- d E_k + v E_(k-1)."""
    e = [1]
    for v, d in args:
        out, prev = [], 0
        for x in e:
            out.append(d * x + v * prev)
            prev = x
        out.append(v * prev)
        e = out
    return e


def _schur(lam: Sequence[int], e: Sequence[int] | Sequence[tuple[int, int]]) -> tuple[int, int]:
    """E_0^lam_1 s_lam(w) from the `_elementary` pairs or `_elementary_z`
    ints E_0..E_N of the w's, as a pair: the dual Jacobi-Trudi determinant
    det[E_(lam'_i - i + j)] of size lam_1, lam' the conjugate partition and
    E_k = 0 outside 0..N.  The reversed vector gives E_N^lam_1 s_lam(1/w),
    as e_k(1/w) = e_(N-k)(w) / e_N(w)."""
    rise = lam[::-1]
    conj = [len(lam) - bisect_right(rise, i) for i in range(lam[0])]
    zero = 0 if type(e[0]) is int else (0, 0)
    det = det_exact([[e[c - i + j] if 0 <= c - i + j < len(e) else zero
                      for j in range(len(conj))] for i, c in enumerate(conj)])
    return (det, 0) if type(det) is int else det


# Each evaluator's matrix kind and smallest size (as in `icemodel.ModelSpec`).
_MODELS = {"dwbc": ("P", 1), "ht2": ("Q", 1), "ht-odd": ("Pprime", 0)}


def special_z(model: str, size: int, u: Sequence[Cyclo]) -> Cyclo:
    """Determinant evaluator of the partition function at a = zeta.

    model "dwbc" (size n, 2n points), "ht2" (size m, 2m points) or
    "ht-odd" (size m, 2m+1 points, last coordinate shared between the two
    spectral vectors).  The sizes are those of `icemodel.ModelSpec`: dwbc
    and ht2 need size >= 1, ht-odd size >= 0.  Every point must be nonzero;
    equal or opposite points are evaluated like any others.  When every
    point is rational the Schur functions are evaluated over Z, otherwise
    over Z[zeta] on integer pairs.
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
    parts = [x.integer_parts() for x in pts]
    lam = _partition(row_exponents(kind, size + 1 if ht_odd else size))
    if any(b for _, b, _ in parts):
        e = _elementary([(a * a - b * b, (2 * a + b) * b, d * d) for a, b, d in parts])
    else:
        e = _elementary_z([(a * a, d * d) for a, _, d in parts])
    num = _schur(lam, e[::-1])
    if ht_odd:
        num, power, flips = pair_mul(num, _schur(lam, e)), 2 * size, npts * (npts - 1) // 2
    else:
        power, flips = size, size * (size - 1) // 2
    pd = reduce(pair_mul, ((a * d, b * d) for a, b, d in parts), (1, 0))
    value = sigma(ZETA) ** power * pair_quotient(num, pd, lam[0] * (1 + ht_odd))
    return -value if flips % 2 else value


# The number of distinct p/q with 1 <= p, q <= 50.
_DISTINCT_RATIONALS = 1547


def random_distinct_rationals(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    """Distinct positive rationals with numerator and denominator <= 50;
    there are 1,547 of them, and a larger count raises `ValueError`."""
    if count > _DISTINCT_RATIONALS:
        raise ValueError(f"at most {_DISTINCT_RATIONALS} distinct rationals p/q with "
                         f"1 <= p, q <= 50 exist, {count} requested")
    seen: set[Fraction] = set()
    out = []
    while len(out) < count:
        f = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        if f not in seen:
            seen.add(f)
            out.append(f)
    return tuple(out)
