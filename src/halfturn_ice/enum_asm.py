"""Exhaustive ASM generators, the compiled transfer plan they walk,
inversion generating functions and censuses.

The streams and the listing census are the brute-force oracles behind the
enumeration identities: every matrix is generated, none is counted by
formula.  The transfer plan (`_transfer_plan`) is the square-ice row
transfer matrix over boundary profiles, compiled once per class and order;
`icemodel` runs it for its state counts, censuses and evaluated sums, and
`gen_asms` walks it to list the matrices.

* The plan visits the cells of `_plan_cells`, row by row, left to right.
  A partial matrix is keyed by its profile: the column partial sums
  C_1..C_n above the current cell and the running row sum R to its left,
  all 0 or 1.  An entry e in {-1, 0, 1} may go at a cell when C + e and
  R + e both stay in {0, 1}; a row closes only with R = 1.
* Each move carries the weight class of `asm.to_state`: class 0 (types
  1/2) when e != 0, which needs C = R and writes e = 1 - 2R; otherwise
  class 1 (types 3/4) when C = R and class 2 (types 5/6) when C != R.
* The class "all" runs all n rows and closes with every C = 1.
* The class "ht" runs only the top floor(n/2) rows, over all n columns,
  and for odd n = 2m+1 the cells 1..m of the middle row, whose right half
  mirrors the left.  Row n+1-i of the completion is row i reversed, so
  column j of the full matrix sums to C_j + mid_j + C_(n+1-j), mid the
  middle row (none for even n), and its lower partial sums are 1 minus
  partial sums of column n+1-j: the top half completes exactly when
  C_j + C_(n+1-j) = 1 for j <= m, the m pair conditions.  The central
  cell's row sums to 2 R_m + e_c = 1, so e_c = 1 - 2 R_m keys the closing
  profile, and its column needs C_(m+1) = R_m, which the pair conditions
  imply: each top row sums to 1, so |C| = m + R_m.
* Moves that reach no closing profile are pruned, so every path through
  the plan is one matrix (one top half for "ht").

`gen_asms` walks the plan one row at a time (`_plan_rows`, `_prefixes`),
in row-major lexicographic order with entries ordered -1 < 0 < 1, so two
runs are byte-identical.  The half-turn stream completes each top half by
180-degree rotation and still validates the completion by `as_asm`, which
walks one column mask down rows looked up in its memo.

Census weights follow the x-enumeration conventions, which one
constructor, `CensusTable.from_tally`, applies for both routes to a
census.  The plan route, `icemodel.census`, serves `enumerate --census`
and the catalog: it runs the compiled transfer plan once, behind the state
guard, on ints that pack the monomials u^i t^j (u per nonzero entry,
t^(r-1) for the first column's 1 in row r) into w-bit slots, w the bit
length of the class's count, which bounds every coefficient, so no slot
carries.  `census` here is the brute route, the tests' oracle of the plan
route: it lists every matrix and tallies `asm.stats`.  It stays in the
package only for the benchmark's traced sample (ROADMAP item 1 moves it).
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Optional

from .asm import Asm, as_asm, inversions, stats
from .laurent import _LIMIT, LaurentPoly

Row = tuple[int, ...]
Moves = tuple[tuple[Row, int], ...]

DEFAULT_MAX_STATES = 10_000_000  # the package's one size guard, on states or words listed


def _plan_cells(n: int, klass: str) -> list[tuple[int, int]]:
    """The cells the transfer plan of a class at order n visits, row by
    row, left to right: every cell for "all"; for "ht" the first
    floor(n^2/2), the top floor(n/2) rows and then the left half of an odd
    middle row, one cell of every half-turn orbit but the central cell's."""
    count = n * n if klass == "all" else n * n // 2
    return [(k // n + 1, k % n + 1) for k in range(count)]


@lru_cache(maxsize=None)
def _transfer_plan(n: int, klass: str):
    """The transfer plan of the module docstring for a class ("all" or
    "ht") at order n, compiled once: (steps, centrals, counts).

    A profile is one int: bit 0 holds R and bit j holds C_j.  Step k
    visits the k-th of `_plan_cells` and is (width of the next front,
    moves), moves[p] being the (target, weight class) moves out of
    position p, the entry-0 move first.  The last front is the closing
    profiles, centrals[p] the central entry of profile p (0 but at odd
    half-turn orders).  After the forward pass, one backward pass drops the
    moves into dead positions, numbers each front's live positions in
    order and groups the moves by source.  `counts` is the plan run with
    unit weights: the matrix count per central entry."""
    front, steps, widest = [0], [], 1
    for _, j in _plan_cells(n, klass):
        flip = 1 << j | 1
        targets, moves = {}, []
        for source, key in enumerate(front):
            if (key >> j ^ key) & 1:  # C != R: only e = 0
                options = ((key, 2),)
            else:  # e = 0, or e = 1 - 2C taking both C and R across
                options = ((key, 1), (key ^ flip, 0))
            for target, weight_class in options:
                if j == n:  # the row closes only with R = 1
                    if not target & 1:
                        continue
                    target ^= 1
                moves.append((source, targets.setdefault(target, len(targets)), weight_class))
        steps.append(moves)
        front = list(targets)
        widest = max(widest, len(front))
    pairs = range(1, n // 2 + 1) if klass == "ht" else ()  # n full rows leave every C_j = 1
    closing = {s: 1 - 2 * (key & 1) if klass == "ht" and n % 2 else 0
               for s, key in enumerate(front)
               if all((key >> j ^ key >> n + 1 - j) & 1 for j in pairs)}
    alive = {s: p for p, s in enumerate(closing)}  # live positions of the next front
    shared = [[(p, c) for p in range(widest)] for c in range(3)]  # one tuple per move (p, c)
    for k in reversed(range(len(steps))):
        index, grouped = {}, []
        for s, t, c in steps[k]:  # by source, in order
            if t in alive:
                move = shared[c][alive[t]]
                if s in index:
                    grouped[-1] += (move,)
                else:
                    index[s] = len(grouped)
                    grouped.append((move,))
        steps[k] = len(alive), tuple(grouped)
        alive = index
    centrals = tuple(closing.values())
    return tuple(steps), centrals, _run_plan(steps, centrals, [(1, 1, 1)] * len(steps), 1)


def _run_plan(steps, centrals, weights, one) -> dict:
    """{central entry: sum} of a compiled transfer plan in any ring, with
    weights[k] the weight triple of step k."""
    front = [one]
    for (width, moves), w in zip(steps, weights):
        nxt = [None] * width
        for x, out in zip(front, moves):
            for t, c in out:
                y = x * w[c]
                nxt[t] = y if nxt[t] is None else nxt[t] + y
        front = nxt
    sums = {}
    for central, x in zip(centrals, front):
        sums[central] = sums[central] + x if central in sums else x
    return sums


def _plan_rows(n: int, klass: str) -> list[Callable[[int], Moves]]:
    """The row tables of one stream, one per row of the compiled plan of
    the class at order n: each maps a position of the front where its row
    starts to the (row, end position) pairs of the row's cell moves, in lex
    order, filled on first use.  Every row starts at R = 0; a class-0 move
    writes 1 - 2R and flips R, so it comes before the source's entry-0 move
    where R = 1 (-1 < 0) and after it where R = 0; the other classes write
    0.  An odd middle row takes its central entry from its closing profile
    and mirrors its left half.  The tables and the one tuple kept per
    distinct row live in the returned closures, so no state outlives the
    stream.
    """
    steps, centrals, _ = _transfer_plan(n, klass)
    rows: dict[Row, Row] = {}

    def table(row_steps: tuple, middle: bool) -> Callable[[int], Moves]:
        found: dict[int, Moves] = {}

        def moves(start: int) -> Moves:
            got = found.get(start)
            if got is None:
                level = [(start, 0, ())]  # (position, R, entries) of each prefix
                for _, out in row_steps:  # out[p]: the moves out of position p
                    grown = []
                    for p, r, head in level:
                        for t, c in (out[p][::-1] if r else out[p]):  # -1 before 0 before 1
                            grown.append((t, 1 - r, head + (1 - 2 * r,)) if c == 0
                                         else (t, r, head + (0,)))
                    level = grown
                got = []
                for t, _, head in level:
                    row = head + (centrals[t],) + head[::-1] if middle else head
                    got.append((rows.setdefault(row, row), t))
                got = found[start] = tuple(got)
            return got

        return moves

    full = n if klass == "all" else n // 2
    count = full + (n % 2 if klass == "ht" else 0)  # an odd middle row comes last
    return [table(steps[i * n:(i + 1) * n], i == full) for i in range(count)]


def _prefixes(steps: list[Callable[[int], Moves]]) -> Iterator[tuple[Row, ...]]:
    """Every stack of len(steps) rows that the steps allow, depth first in
    row-major lex order; steps[i] is the row table of row i + 1.

    The last two rows depend on the rows above only through the position
    where they start, so a second table maps each position to its (row,
    row) tails, filled on first use from the last two steps and owned by
    the stream.  The walk keeps one iterator per row above the tails on an
    explicit stack, and each prefix emits all its matrices at once as its
    rows plus each tail, by `map`.
    """
    depth = len(steps)
    if depth == 1:
        yield from ((row,) for row, _ in steps[0](0))
        return
    penult, last = steps[-2], steps[-1]
    table: dict[int, tuple[tuple[Row, Row], ...]] = {}

    def tails(start: int) -> tuple[tuple[Row, Row], ...]:
        found = table.get(start)
        if found is None:
            found = table[start] = tuple((row, end) for row, below in penult(start)
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
        for row, below in stack[i]:
            rows[i] = row
            if i == head - 1:
                yield from map(tuple(rows).__add__, tails(below))
            else:
                stack.append(iter(steps[i + 1](below)))
                break
        else:
            stack.pop()


def _gen_all(n: int) -> Iterator[Asm]:
    yield from map(Asm, _prefixes(_plan_rows(n, "all")))


def _gen_ht(n: int) -> Iterator[Asm]:
    for top in _prefixes(_plan_rows(n, "ht")):
        yield as_asm(top + tuple(row[::-1] for row in reversed(top[:n // 2])))


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
    m = n // 2  # n! words for "all", 2^m m! for "ht"
    if (math.factorial(n) if klass == "all" else 2 ** m * math.factorial(m)) > DEFAULT_MAX_STATES:
        raise ValueError(f"order {n} has more words to list by brute force than the guard "
                         f"{DEFAULT_MAX_STATES}")
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
    odd half-turn orders, by listing every matrix: the tests' brute-force
    oracle of `icemodel.census`, which the CLI and the catalog read.
    Cached: treat the returned table as read-only."""
    return CensusTable.from_tally(n, klass, Counter(map(stats, gen_asms(n, klass))))
