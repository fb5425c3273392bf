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

The paper's forms are evaluated at rational points only: every caller's
(the CLI `det`, the `theorem3` and `det-oracle` suites, the all-ones point
of the paper's enumerations) has no zeta part, and `special_z` refuses a
point that has one.  Each point u = a/d is read once, as integers, and its
square is the pair (a^2, d^2); `_elementary` forms the ints
E_k = D^2 e_k(u^2), D = prod d, by E_k <- d^2 E_k + a^2 E_(k-1), so that
E_0 = D^2 and E_N = P^2 with P = prod a.  The Schur form has no pole where
the paper's prefactor has one (u_i = +-u_j), so every nonzero point is
evaluated.  As e_k(1/w) = e_(N-k)(w) / e_N(w), the same vector read
backwards gives the e_k of the u^-2, so no point is inverted and ht-odd
builds one vector for both Schur factors.  `det_exact` eliminates over Z
with exact division.  With e_1 - N + 1 = lam_1 (kinds P and Q), each form
is +-sigma(a)^k times an integral determinant (or a product of two) over
(P D)^lam_1 (dwbc, ht2) or (P D)^(2 lam_1) (ht-odd): one int numerator over
one int divisor, which `special_z` divides once.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from math import prod
from typing import Sequence

from .exactnum import ZETA, Cyclo, CycloLike, sigma


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


def det_exact(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square int matrix by fraction-free (Bareiss)
    elimination over Z: two products and one exact `//` by the previous
    pivot per entry, Z being an integral domain.  The 0 x 0 determinant is
    1; a singular matrix gives 0.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise DimensionMismatch("matrix must be square")
    if n == 0:
        return 1
    m = [list(row) for row in mat]
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


def _elementary(args: Sequence[tuple[int, int]]) -> list[int]:
    """The ints E_0..E_N, the coefficients of prod (d + v t) over the
    rational arguments w = v/d given as pairs (v, d): so E_k = D e_k(w)
    with D = prod d, E_0 = D and E_N = prod v, by E_k <- d E_k + v E_(k-1)."""
    e = [1]
    for v, d in args:
        out, prev = [], 0
        for x in e:
            out.append(d * x + v * prev)
            prev = x
        out.append(v * prev)
        e = out
    return e


def _schur(lam: Sequence[int], e: Sequence[int]) -> int:
    """E_0^lam_1 s_lam(w) from the `_elementary` ints E_0..E_N of the w's:
    the dual Jacobi-Trudi determinant det[E_(lam'_i - i + j)] of size lam_1,
    lam' the conjugate partition and E_k = 0 outside 0..N.  The reversed
    vector gives E_N^lam_1 s_lam(1/w), as e_k(1/w) = e_(N-k)(w) / e_N(w)."""
    rise = lam[::-1]
    conj = [len(lam) - bisect_right(rise, i) for i in range(lam[0])]
    return det_exact([[e[c - i + j] if 0 <= c - i + j < len(e) else 0
                       for j in range(len(conj))] for i, c in enumerate(conj)])


# Each evaluator's matrix kind and smallest size (as in `icemodel.ModelSpec`).
_MODELS = {"dwbc": ("P", 1), "ht2": ("Q", 1), "ht-odd": ("Pprime", 0)}


def special_z(model: str, size: int, u: Sequence[CycloLike]) -> Cyclo:
    """Determinant evaluator of the partition function at a = zeta.

    model "dwbc" (size n, 2n points), "ht2" (size m, 2m points) or
    "ht-odd" (size m, 2m+1 points, last coordinate shared between the two
    spectral vectors).  The sizes are those of `icemodel.ModelSpec`: dwbc
    and ht2 need size >= 1, ht-odd size >= 0.  Every point must be a
    nonzero rational (an int, a `Fraction` or a `Cyclo` with no zeta part);
    equal or opposite points are evaluated like any others.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown determinant model {model!r}")
    kind, low = _MODELS[model]
    if size < low:
        raise ValueError(f"{model} size must be >= {low}, got {size}")
    parts = [Cyclo.of(x).integer_parts() for x in u]
    if any(b for _, b, _ in parts):
        raise ValueError("points must be rational")
    if any(not a for a, _, _ in parts):
        raise ValueError("points must be nonzero")
    ht_odd = model == "ht-odd"
    npts = 2 * size + 1 if ht_odd else 2 * size
    if len(parts) != npts:
        raise DimensionMismatch(f"{model} size {size} needs {npts} points")
    lam = _partition(row_exponents(kind, size + 1 if ht_odd else size))
    e = _elementary([(a * a, d * d) for a, _, d in parts])
    num = _schur(lam, e[::-1])
    if ht_odd:
        num, power, flips = num * _schur(lam, e), 2 * size, npts * (npts - 1) // 2
    else:
        power, flips = size, size * (size - 1) // 2
    pd = prod(a * d for a, _, d in parts)
    value = sigma(ZETA) ** power * Cyclo.from_integer_parts(num, 0, pd ** (lam[0] * (1 + ht_odd)))
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
