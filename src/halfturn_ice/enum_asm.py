"""Exhaustive ASM generators, the compiled transfer plan they walk,
inversion generating functions and censuses.

The streams and the listing census are the brute-force oracles behind the
enumeration identities: every matrix is generated, none is counted by
formula.  The transfer plan (`_transfer_plan`) is the square-ice row
transfer matrix over boundary profiles, compiled once per class and order;
`icemodel` runs it for its state counts, censuses and evaluated sums, and
`gen_asms` walks it to list the matrices.  The compile refuses, with
`SizeTooLarge`, an order whose plan could hold 2^PLAN_BOUND_BITS profile
positions or more (`_check_plan_size`), before it builds anything.

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
* Moves that reach no closing profile are never kept: `_live_targets`
  marks the profiles that can still close, from the last step back, and
  the compile keeps only moves into those, so every path through the plan
  is one matrix (one top half for "ht").

The one walker, `_prefixes`, steps through the plan one row at a time in
row-major lexicographic order with entries ordered -1 < 0 < 1, so two runs
are byte-identical, and yields blocks (head rows, tails): the head is the
top half of the rows, and the tails, the bottom half, are shared by every
head that ends at one plan position: `gen_asms` flattens them and
`enumerate` serializes each once.  The half-turn stream completes each top
half by 180-degree rotation and still validates the completion by `as_asm`,
which walks one column mask down rows looked up in its memo.

Census weights follow the x-enumeration conventions, which one
constructor, `CensusTable.from_tally`, applies for both routes to a
census.  The plan route, `icemodel.census`, serves `enumerate --census`
and the catalog: it runs the compiled transfer plan once, behind the plan
bound, on ints that pack the monomials u^i t^j (u per nonzero entry,
t^(r-1) for the first column's 1 in row r) into w-bit slots, w the bit
length of the class's count, which bounds every coefficient, so no slot
carries.  `census` here is the brute route, the tests' oracle of the plan
route: it lists every matrix and tallies `asm.stats`.  It stays in the
package only for the benchmark's traced sample (ROADMAP item 1 moves it).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Optional

from .asm import Asm, as_asm, inversions, stats
from .laurent import _LIMIT, LaurentPoly

Row = tuple[int, ...]
Moves = tuple[tuple[Row, int], ...]
Tails = tuple[tuple[Row, ...], ...]

# The guard of the routes that list every state or word (streams, symbolic
# sums, brute inversion counts): an exact count, read from the compiled plan
# for states.  The plan's own routes (counts, censuses, evaluated sums) are
# bounded by the plan bound alone.
DEFAULT_MAX_STATES = 10_000_000
# No plan compiles that could hold 2^PLAN_BOUND_BITS or more profile
# positions: half-turn order 15 and order 14, the largest plans under it,
# compile in about 0.2 and 0.35 s.
PLAN_BOUND_BITS = 23


class SizeTooLarge(ValueError):
    """An order past the plan bound, or a state count past a guard."""


def _check_plan_size(n: int, klass: str) -> None:
    """Raise SizeTooLarge when the plan of a class at order n could hold
    2^PLAN_BOUND_BITS or more profile positions: one front per plan cell,
    of at most 2^(n+1) profiles each.  Reads n alone and compares bit
    lengths, so an order of any size is refused at once."""
    cells = n * n if klass == "all" else n * n // 2  # len(_plan_cells(n, klass))
    if cells.bit_length() + n + 1 > PLAN_BOUND_BITS:
        raise SizeTooLarge(f"order {n} ({klass}) is past the plan bound: its transfer plan "
                           f"could hold {cells} x 2^{n + 1} profile positions, not under "
                           f"2^{PLAN_BOUND_BITS}")


def _plan_cells(n: int, klass: str) -> list[tuple[int, int]]:
    """The cells the transfer plan of a class at order n visits, row by
    row, left to right: every cell for "all"; for "ht" the first
    floor(n^2/2), the top floor(n/2) rows and then the left half of an odd
    middle row, one cell of every half-turn orbit but the central cell's."""
    count = n * n if klass == "all" else n * n // 2
    return [(k // n + 1, k % n + 1) for k in range(count)]


def _zero_bit(b: int, size: int) -> int:
    """The profiles below 2^size whose bit b is 0, as a bitset: bit p is
    set for each such profile p."""
    bits, width = (1 << (1 << b)) - 1, 2 << b
    while width < 1 << size:
        bits |= bits << width
        width *= 2
    return bits


def _live_targets(n: int, klass: str, cells) -> list[Optional[int]]:
    """For each step k, the profiles among its moves' targets that can
    still reach a closing profile, as a bitset (bit p set for profile p),
    or None where all of them can.

    Two passes of whole-set operations.  Backward, reach[k] is the
    profiles of front k whose moves of steps k, k+1, ... can reach a
    closing profile; forward, the live front's moves give the next
    targets.  At a cell j < n, profile p goes on by e = 0, staying p, and
    when C_j = R = 0 (both 1) by e = 1 (e = -1) to p + 2^j + 1
    (p - 2^j - 1); at j = n the row closes only by e = 0 from R = 1, to
    p - 1, or by e = 1 from R = C_n = 0, to p + 2^n."""
    size = n + 1
    everything = (1 << (1 << size)) - 1
    zero = [_zero_bit(b, size) for b in range(size)]
    kinds = {j: ((everything, 0), (zero[j] & zero[0], (1 << j) + 1),  # (sources, offset)
                 (everything & ~(zero[j] | zero[0]), -(1 << j) - 1)) for j in range(1, n)}
    kinds[n] = (everything & ~zero[0], -1), (zero[0] & zero[n], 1 << n)

    def moved(x: int, offset: int) -> int:
        return x << offset if offset >= 0 else x >> -offset

    if klass == "ht":  # C_a + C_(n+1-a) = 1 for a <= n/2
        live = everything
        for a in range(1, n // 2 + 1):
            live &= zero[a] ^ zero[n + 1 - a]
    else:  # every C_j = 1 and R = 0
        live = 1 << (1 << size) - 2
    reach = [live]
    for _, j in reversed(cells):
        live = 0
        for sources, offset in kinds[j]:
            live |= moved(reach[-1], -offset) & sources
        reach.append(live)
    reach.reverse()
    front, found = 1, []  # the start, profile 0
    for k, (_, j) in enumerate(cells):
        targets = 0
        for sources, offset in kinds[j]:
            targets |= moved(front & sources, offset)
        front = targets & reach[k + 1]
        found.append(None if front == targets else front)
    return found


# One byte per binary digit: 0 or 1.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


@lru_cache(maxsize=None)
def _transfer_plan(n: int, klass: str):
    """The transfer plan of the module docstring for a class ("all" or
    "ht") at order n, compiled once: (steps, centrals, counts).

    A profile is one int: bit 0 holds R and bit j holds C_j.  Step k
    visits the k-th of `_plan_cells` and is (width of the next front,
    moves), moves[p] being the (target, weight class) moves out of
    position p, the entry-0 move first.  The last front is the closing
    profiles, centrals[p] the central entry of profile p (0 but at odd
    half-turn orders), and counts the matrix count per central entry.

    The forward pass keeps only the profiles that `_live_targets` marks,
    so every position is live, numbers each front's in order of first
    appearance, and keeps two flat lists per step: each source's entry-0
    and other move's targets, interleaved (-1 for no move), and whether
    C != R there, which makes the entry-0 move's class 2, not 1.  One
    backward pass then groups the moves by source and counts the paths
    from each position to the last front, every central entry at once:
    the +1 paths count `shift` bits up.
    """
    _check_plan_size(n, klass)
    cells = _plan_cells(n, klass)
    targets_live = _live_targets(n, klass, cells)
    digits = f"0{2 << n}b"  # one binary digit per profile
    front, built, widest = [0], [], 1
    for k, (_, j) in enumerate(cells):
        slots = [None] * (2 * len(front))  # the target profiles, None for no move
        if j < n:  # e = 0, and e = 1 - 2C taking both C and R across where C = R
            flip = 1 << j | 1
            slots[::2] = front
            slots[1::2] = flips = [None if (key >> j ^ key) & 1 else key ^ flip for key in front]
            cross = [f is None for f in flips]
        else:  # the row closes only with R = 1, which the move clears
            cross = [(key >> n ^ key) & 1 for key in front]
            slots[::2] = [key ^ 1 if key & 1 else None for key in front]
            slots[1::2] = [None if key & 1 or d else key ^ 1 << n for key, d in zip(front, cross)]
        index = dict.fromkeys(slots, -1)
        index.pop(None, None)
        if targets_live[k] is None:
            front = list(index)
        else:  # live[p]: 1 if profile p can still close
            live = format(targets_live[k], digits)[::-1].encode().translate(_DIGIT_BYTES)
            front = list(itertools.compress(index, map(live.__getitem__, index)))
        index.update(zip(front, itertools.count()))
        index[None] = -1
        built.append((list(map(index.__getitem__, slots)), cross))
        widest = max(widest, len(front))
    odd = klass == "ht" and n % 2
    centrals = tuple(1 - 2 * (key & 1) if odd else 0 for key in front)
    shift = len(cells) + 1  # no position starts more than 2^len(cells) paths
    below = [1 << shift if c == 1 else 1 for c in centrals]  # the paths from each position
    shared = [[(p, c) for p in range(widest)] for c in range(3)]  # one tuple per move (p, c)
    zero, other = shared[1:], shared[0]
    steps = []
    while built:  # each step's lists go as its moves are grouped
        targets, cross = built.pop()
        width = len(below)
        below.append(0)  # where there is no move
        grouped, paths = [], []
        for p, q, d in zip(targets[::2], targets[1::2], cross):
            if p < 0:
                grouped.append((other[q],))
            elif q < 0:
                grouped.append((zero[d][p],))
            else:
                grouped.append((zero[d][p], other[q]))
            paths.append(below[p] + below[q])
        steps.append((width, tuple(grouped)))
        below = paths
    steps.reverse()
    total = below[0]
    counts = {c: total >> shift if c == 1 else total & (1 << shift) - 1 for c in centrals}
    return tuple(steps), centrals, counts


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


def _prefixes(n: int, klass: str) -> Iterator[tuple[tuple[Row, ...], Tails]]:
    """The stream of the class at order n (top halves for "ht"), depth
    first in row-major lex order, as blocks (head, tails) of the matrices
    head + tail, tail in tails: of the stream's r rows, the head holds the
    top ceil(r/2) and every tail the bottom floor(r/2).

    The rows below a position depend on the rows above only through that
    position, so a table owned by the stream maps each position to its
    tails, filled on first use.  The walk keeps one iterator per head row
    on an explicit stack, and every block that ends at one position shares
    one tails tuple.
    """
    steps = _plan_rows(n, klass)
    split = len(steps) - len(steps) // 2
    table: dict[int, Tails] = {}

    def tails(start: int) -> Tails:
        found = table.get(start)
        if found is None:
            level: list[tuple[tuple[Row, ...], int]] = [((), start)]
            for step in steps[split:]:
                level = [(rows + (row,), end) for rows, p in level for row, end in step(p)]
            found = table[start] = tuple(rows for rows, _ in level)
        return found

    rows: list[Row] = [()] * split
    stack = [iter(steps[0](0))]
    while stack:
        i = len(stack) - 1
        for row, below in stack[i]:
            rows[i] = row
            if i == split - 1:
                yield tuple(rows), tails(below)
            else:
                stack.append(iter(steps[i + 1](below)))
                break
        else:
            stack.pop()


def _gen_all(n: int) -> Iterator[Asm]:
    for head, tails in _prefixes(n, "all"):
        yield from map(Asm, map(head.__add__, tails))


def _gen_ht(n: int) -> Iterator[Asm]:
    for head, tails in _prefixes(n, "ht"):
        for top in map(head.__add__, tails):
            yield as_asm(top + tuple(row[::-1] for row in reversed(top[:n // 2])))


def gen_asms(n: int, klass: str = "all") -> Iterator[Asm]:
    """Stream every ASM of the class exactly once, deterministically.
    Orders past the plan bound are refused here, not at the first matrix."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if klass not in ("all", "ht"):
        raise ValueError(f"unknown class {klass!r}")
    _check_plan_size(n, klass)
    return _gen_all(n) if klass == "all" else _gen_ht(n)


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
    even ht) or "sqrtx" (odd ht, where sqrtx^2 = x), and `count` is the
    number of matrices.  Tables compare by their fields.
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
