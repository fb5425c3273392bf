"""Exhaustive ASM generators, inversion generating functions and censuses.

These are the brute-force oracles behind every enumeration identity in the
package: every matrix is generated, none is counted by formula.  Generation
is row-by-row backtracking on column partial sums (each constrained to
{0, 1}), which enforces the alternating property incrementally; streams
are emitted in row-major lexicographic order with entries ordered
-1 < 0 < 1, so two runs are byte-identical.

The valid next rows depend only on the column partial sums, kept as one
int mask C with bit j = C_j, the profile of `icemodel._transfer_plan`
between two rows.  A row-transition table (`_row_table`) maps C to the
rows that fit under it, in lex order: with plus and minus the masks of a
row's 1s and -1s, those with plus & C == 0 and minus & C == minus, each
moving C to C ^ plus ^ minus.  Each entry is built on first use, one
column at a time, so no table is larger than the stream needs.  The
depth-first walk (`_prefixes`) only looks rows up, and stops two rows
short: a second table maps the mask there to every (row, row) tail that
the last two steps allow, so each prefix emits all its matrices by one
`map`.  All tables belong to the stream, not to the module, so no state
outlives it.

The half-turn class fills only rows 1..ceil(n/2) (the middle row of an odd
order is palindromic and must fit on all n columns).  Those rows complete
to a half-turn symmetric ASM by 180-degree rotation exactly when
C_j + C_(n+1-j) = 1 + mid_j for every column j, with C their column sums
and mid the middle row (0 for even n); on masks this is one identity
between C, C mirrored and the middle row's plus mask
(`_half_turn_closing`), and only prefixes that pass it are completed.  Each
completion is still validated by `as_asm`, which walks one column mask down
rows looked up in its memo.

Census weights follow the x-enumeration conventions: a matrix with k
entries equal to -1 weighs x^k in the plain class and x^(k/2) in the
half-turn class.  For odd half-turn orders k may be odd, so those tables
are kept in the variable "sqrtx" with exponent k (sqrtx^2 = x).  One
constructor, `CensusTable.from_tally`, applies these conventions for both
routes to a census.  `census` here is the brute route: it lists every
matrix and tallies `asm.stats`.  The `refined-1`, `refined-split`, `xenum`
and `four-enum` suites check the closed forms against it, and the tests
check the plan route against it.  `icemodel.census`, which the CLI uses,
is the plan route: it runs the compiled transfer matrix once, behind the
state guard.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Optional

from .asm import Asm, as_asm, inversions, stats
from .laurent import _LIMIT, LaurentPoly

Row = tuple[int, ...]
Moves = tuple[tuple[Row, int], ...]


def _row_table(n: int, palindrome: bool = False,
               closes: Optional[Callable[[int, int], bool]] = None) -> Callable[[int], Moves]:
    """The row-transition table of one stream, on int column masks.

    Whether a row may follow the rows above it depends on those rows only
    through their column partial sums: each must stay in {0, 1}.  The sums
    above any row of an ASM form a 0/1 vector, kept as the mask C with bit
    j = C_j, the profile of `icemodel._transfer_plan` between two rows.  A
    row fits under C when it puts a 1 only under a column at 0 and a -1
    only under a column at 1 (plus & C == 0 and minus & C == minus, for
    the masks of its 1s and -1s), and moves C to C ^ plus ^ minus.

    The table maps C to its (row, new mask) moves in lex order (-1 < 0 < 1),
    built on first use one column at a time: each prefix, kept as its plus
    and minus masks and its partial sum, grows by the entries that fit its
    column and keep the sum in {0, 1}, so every level stays in lex order.
    The rows are the prefixes whose sum ends at 1, each made a tuple once
    per table.  A palindromic table keeps only rows equal to their reverse;
    a table for the last row keeps only the moves for which
    `closes(new mask, plus)` holds.  It lives in the returned closure, so it
    is built cold for each stream and dies with it.
    """
    table: dict[int, Moves] = {}
    rows: dict[tuple[int, int], Row] = {}
    columns = range(1, n + 1)

    def moves(col: int) -> Moves:
        found = table.get(col)
        if found is None:
            level = [(0, 0, 0)]  # (plus, minus, partial sum) of each prefix
            for j in columns:
                bit = 1 << j
                grown = []
                for plus, minus, r in level:
                    if r:  # a -1 under a column at 1, or a 0
                        if col & bit:
                            grown.append((plus, minus | bit, 0))
                        grown.append((plus, minus, 1))
                    else:  # a 0, or a 1 under a column at 0
                        grown.append((plus, minus, 0))
                        if not col & bit:
                            grown.append((plus | bit, minus, 1))
                level = grown
            found = []
            for plus, minus, r in level:
                if not r:
                    continue
                row = rows.get((plus, minus))
                if row is None:
                    row = rows[plus, minus] = tuple([(plus >> j & 1) - (minus >> j & 1)
                                                     for j in columns])
                if ((not palindrome or row == row[::-1])
                        and (closes is None or closes(col ^ plus ^ minus, plus))):
                    found.append((row, col ^ plus ^ minus))
            found = table[col] = tuple(found)
        return found

    return moves


def _prefixes(steps: list[Callable[[int], Moves]]) -> Iterator[tuple[Row, ...]]:
    """Every stack of len(steps) rows that the steps allow, depth first in
    row-major lex order; steps[i] is the transition table of row i + 1.

    The last two rows depend on the rows above only through their column
    mask, so a second table maps each mask to its (row, row) tails, filled
    on first use from the last two steps and owned by the stream.  The walk
    keeps one iterator per row above the tails on an explicit stack, and
    each prefix emits all its matrices at once as its rows plus each tail,
    by `map`.
    """
    depth = len(steps)
    if depth == 1:
        yield from ((row,) for row, _ in steps[0](0))
        return
    penult, last = steps[-2], steps[-1]
    table: dict[int, tuple[tuple[Row, Row], ...]] = {}

    def tails(col: int) -> tuple[tuple[Row, Row], ...]:
        found = table.get(col)
        if found is None:
            found = table[col] = tuple((row, end) for row, below in penult(col)
                                       for end, _ in last(below))
        return found

    if depth == 2:
        yield from tails(0)
        return
    head = depth - 2
    rows: list[Row] = [()] * head
    stack = [iter(steps[0](0))]
    while stack:
        i = len(stack) - 1
        for row, col in stack[i]:
            rows[i] = row
            if i == head - 1:
                yield from map(tuple(rows).__add__, tails(col))
            else:
                stack.append(iter(steps[i + 1](col)))
                break
        else:
            stack.pop()


def _gen_all(n: int) -> Iterator[Asm]:
    done = (1 << n + 1) - 2  # every column at 1
    last = _row_table(n, closes=lambda col, plus: col == done)
    yield from map(Asm, _prefixes([_row_table(n)] * (n - 1) + [last]))


def _half_turn_closing(n: int) -> Callable[[int, int], bool]:
    """The closing test of the half-turn class at order n, on the column
    mask C of the top ceil(n/2) rows and the plus mask of the middle row
    (odd n; an even order has no middle row, read as 0).

    Row n+1-i of the completion is row i reversed (i <= n/2).  Going down
    the lower half, column j has the partial sums
    C_j + (C_(n+1-j) - mid_j) - P, with P running over the 0/1 partial sums
    of column n+1-j above the middle, down to 0.  So every lower partial sum
    is 0 or 1 and the column sums to 1 exactly when
    C_j + C_(n+1-j) = 1 + mid_j for every j.  Summed over all columns both
    sides are 2|C|, since each top row adds one to |C| and the middle row
    sums to 1.  A middle row that fits all n columns leaves both bits clear
    where mid_j = -1, and the identity C & M == plus, with M the mask C
    mirrored (bit j to bit n+1-j), sets both where mid_j = 1 and at most one
    where mid_j = 0.  Then no column's left side exceeds its right side, and
    as the totals agree, every column's sides are equal.  A middle row whose
    mirrored half does not fit never closes: it took some C_j to 2 or -1,
    mid_j has that sign, and C_(n+1-j) cannot make up the difference.
    """
    odd = n % 2 == 1

    def closes(col: int, plus: int) -> bool:
        mirror = sum(1 << n + 1 - j for j in range(1, n + 1) if col >> j & 1)
        return col & mirror == (plus if odd else 0)

    return closes


def _gen_ht(n: int) -> Iterator[Asm]:
    half = (n + 1) // 2
    odd = n % 2 == 1
    steps = [_row_table(n)] * (half - 1) + [_row_table(n, odd, _half_turn_closing(n))]
    for top in _prefixes(steps):
        yield as_asm(top + tuple(row[::-1] for row in reversed(top[:n - half])))


def gen_asms(n: int, klass: str = "all") -> Iterator[Asm]:
    """Stream every ASM of the class exactly once, deterministically."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > sys.maxsize:  # a row of n entries cannot be indexed
        raise OverflowError(f"order {n} is past the index range")
    if klass == "all":
        return _gen_all(n)
    if klass == "ht":
        return _gen_ht(n)
    raise ValueError(f"unknown class {klass!r}")


# ----------------------------------------------------------------------
# inversion generating functions
# ----------------------------------------------------------------------


def ht_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """Permutations (1-based words) whose matrices are half-turn symmetric,
    in lexicographic order.

    Such a word has s(n+1-i) = n+1-s(i), so its first floor(n/2) letters
    fix it: each takes one value of a pair {v, n+1-v} that no earlier letter
    touched, an odd order keeps its self-paired value (n+1)/2 in the middle,
    and the second half mirrors the first.  The first half is filled by
    backtracking over values in increasing order.
    """
    half = n // 2
    mid = ((n + 1) // 2,) if n % 2 else ()
    free = [2 * v != n + 1 for v in range(n + 1)]  # free[v]: v's pair is unused
    head: list[int] = []

    def fill() -> Iterator[tuple[int, ...]]:
        if len(head) == half:
            yield (*head, *mid, *(n + 1 - v for v in reversed(head)))
            return
        for v in range(1, n + 1):
            if free[v]:
                free[v] = free[n + 1 - v] = False
                head.append(v)
                yield from fill()
                head.pop()
                free[v] = free[n + 1 - v] = True

    return fill()


def _times_geometric(coeffs: list[int], k: int, step: int) -> list[int]:
    """The coefficients in z of coeffs times 1 + z^step + ... + z^((k-1)step):
    each is a window sum of k coefficients of coeffs, step apart, read as
    the difference of two running sums."""
    run = coeffs + [0] * ((k - 1) * step)
    for e in range(step, len(run)):
        run[e] += run[e - step]  # run[e] = coeffs[e] + coeffs[e - step] + ...
    span = k * step
    return run[:span] + [run[e] - run[e - span] for e in range(span, len(run))]


def _z_poly(coeffs: list[int]) -> LaurentPoly:
    return LaurentPoly(("z",), {(e,): c for e, c in enumerate(coeffs) if c})


def phi_closed(n: int) -> LaurentPoly:
    """Inversion generating function of the full symmetric group: the
    product of 1 + z + ... + z^(k-1) over k = 2..n."""
    coeffs = [1]
    for k in range(2, n + 1):
        coeffs = _times_geometric(coeffs, k, 1)
    return _z_poly(coeffs)


def phi_ht_closed(n: int) -> LaurentPoly:
    """Inversion generating function of the half-turn permutations:
    phi of m = floor(n/2) in z^2 times the binomials 1 + z^(2i - 1) for
    even n, 1 + z^(2i + 1) for odd n, i = 1..m."""
    m = n // 2
    coeffs = [1]
    for k in range(2, m + 1):
        coeffs = _times_geometric(coeffs, k, 2)
    for i in range(1, m + 1):
        e = 2 * i - 1 + 2 * (n % 2)
        shifted = coeffs + [0] * e  # coeffs times 1 + z^e
        for j, c in enumerate(coeffs):
            shifted[j + e] += c
        coeffs = shifted
    return _z_poly(coeffs)


def inversion_genfunc(n: int, klass: str = "all", mode: str = "brute") -> LaurentPoly:
    """Sum of z^inv(s) over the class, by brute force or by product formula."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if klass not in ("all", "ht"):
        raise ValueError(f"unknown class {klass!r}")
    if n * (n - 1) // 2 > _LIMIT:  # the reversed word's inversions, before anything is built
        raise OverflowError(f"order {n} has up to {n * (n - 1) // 2} inversions, "
                            f"past the exponent range +-{_LIMIT}")
    if mode == "closed":
        return phi_closed(n) if klass == "all" else phi_ht_closed(n)
    if mode != "brute":
        raise ValueError(f"unknown mode {mode!r}")
    perms = (itertools.permutations(range(1, n + 1)) if klass == "all"
             else ht_permutations(n))
    counts: dict[tuple, int] = {}
    for s in perms:
        k = (inversions(s),)
        counts[k] = counts.get(k, 0) + 1
    return LaurentPoly(("z",), counts)


# ----------------------------------------------------------------------
# weighted refined census
# ----------------------------------------------------------------------


class CensusTable:
    """Refined x-enumeration table of one ASM class.

    Rows are keyed by (position r of the 1 in the first column, central
    entry or None); values are weight polynomials in "x" (classes all and
    even ht) or "sqrtx" (odd ht, where sqrtx^2 = x).  Tables compare by
    their fields.
    """

    def __init__(self, order: int, klass: str, weight_var: str,
                 rows: Optional[dict[tuple[int, Optional[int]], LaurentPoly]] = None,
                 count: int = 0):
        self.order = order
        self.klass = klass
        self.weight_var = weight_var
        self.rows = {} if rows is None else rows
        self.count = count

    @classmethod
    def from_tally(cls, order: int, klass: str,
                   tally: Mapping[tuple[int, int, Optional[int]], int]) -> CensusTable:
        """The table of {(k, r, central): matrices}, k the number of -1
        entries and r the row of the first column's 1.  Each matrix weighs
        x^k in the plain class, x^(k/2) at even half-turn orders and sqrtx^k
        at odd ones; only odd half-turn rows keep the central entry."""
        odd_ht = klass == "ht" and order % 2 == 1
        var = "sqrtx" if odd_ht else "x"
        counts: dict[tuple[int, Optional[int]], dict[tuple[int], int]] = {}
        for (k, r, central), hits in tally.items():
            exp = (k if (odd_ht or klass == "all") else k // 2,)
            row = counts.setdefault((r, central if odd_ht else None), {})
            row[exp] = row.get(exp, 0) + hits
        return cls(order=order, klass=klass, weight_var=var, count=sum(tally.values()),
                   rows={key: LaurentPoly((var,), row) for key, row in counts.items()})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"CensusTable({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def total_count(self) -> int:
        """Number of matrices (all weights at x = 1)."""
        return self.count

    def ordered_rows(self) -> list[tuple[tuple[int, Optional[int]], LaurentPoly]]:
        """(key, polynomial) pairs by row, then central entry (-1 before +1)."""
        return sorted(self.rows.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0))

    def genfunc(self) -> LaurentPoly:
        """The full refined generating function in (t, weight_var)."""
        tot = LaurentPoly.zero()
        for (r, _), p in self.ordered_rows():
            tot = tot + p * LaurentPoly(("t",), {(r - 1,): 1})
        return tot

    def split_by_center(self) -> tuple[LaurentPoly, LaurentPoly]:
        """(plus, minus) refined polynomials in (t, x) for odd ht tables.

        The minus part has one overall sqrtx factored out, so both parts
        are honest polynomials in x.
        """
        if self.klass != "ht" or self.order % 2 == 0:
            raise ValueError("central split requires an odd half-turn census")
        plus = LaurentPoly.zero()
        minus = LaurentPoly.zero()
        for (r, central), p in self.rows.items():
            tp = p * LaurentPoly(("t",), {(r - 1,): 1})
            if central == 1:
                plus = plus + tp
            else:
                minus = minus + tp
        return _halve_sqrtx(plus), _halve_sqrtx(minus * LaurentPoly.monomial(1, {"sqrtx": -1}))

    def to_json_obj(self) -> dict:
        return {
            "order": self.order,
            "class": self.klass,
            "weightVar": self.weight_var,
            "count": self.count,
            "rows": [
                {"r": r, "central": central,
                 "weight": poly.to_json_obj()}
                for (r, central), poly in self.ordered_rows()
            ],
        }

    def to_csv(self) -> str:
        lines = ["r,central,terms"]
        for (r, central), poly in self.ordered_rows():
            terms = ";".join(
                f"{(e[0] if e else 0)}:{c}" for e, c in sorted(poly.tuple_terms().items()))
            lines.append(f"{r},{'' if central is None else central},{terms}")
        return "\n".join(lines) + "\n"


def _halve_sqrtx(p: LaurentPoly) -> LaurentPoly:
    """Rewrite even powers of sqrtx as powers of x."""
    if "sqrtx" not in p.vars:
        return p
    i = p.vars.index("sqrtx")
    out = {}
    for e, c in p.tuple_terms().items():
        if e[i] % 2:
            raise ValueError("odd sqrtx power cannot be halved")
        out[e[:i] + (e[i] // 2,) + e[i + 1:]] = c
    vs = p.vars[:i] + ("x",) + p.vars[i + 1:]
    return LaurentPoly(vs, out)


@lru_cache(maxsize=None)
def census(n: int, klass: str = "all") -> CensusTable:
    """Exact weighted refined census of a class, split by central entry for
    odd half-turn orders, by listing every matrix: the brute-force oracle of
    `icemodel.census`, which the CLI uses.  Cached: treat the returned table
    as read-only."""
    return CensusTable.from_tally(n, klass, Counter(map(stats, gen_asms(n, klass))))
