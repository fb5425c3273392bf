"""Alternating-sign matrices, the six-vertex bijection and the per-matrix
facts that key the refined census.

Conventions (all 1-based in the public API, matching the usual matrix
notation):

* An ASM is a square {-1, 0, 1} matrix whose partial row/column sums are
  all 0 or 1 and whose full row/column sums are 1; this is equivalent to
  the alternating-sign condition.
* Vertex types 1..6 of the ice state at cell (i, j) are read off the
  partial sums C = sum of column j through row i and R = sum of row i
  through column j:

      entry +1 -> type 1        entry -1 -> type 2
      entry 0, (C, R) = (0, 0) -> type 3   (flow east and north)
      entry 0, (C, R) = (1, 1) -> type 4   (flow west and south)
      entry 0, (C, R) = (0, 1) -> type 5   (flow west and north)
      entry 0, (C, R) = (1, 0) -> type 6   (flow east and south)

  With the domain-wall boundary (horizontal edges in, vertical out) this
  is the standard bijection; types 3/4 sit at zeros with the column's
  nearest 1 below and the row's nearest 1 to the right (resp. above/left).
  The package needs only this direction, `to_state`; the inverse map is
  the round-trip oracle of the tests.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple, Optional, Sequence

Grid = tuple[tuple[int, ...], ...]


class NotAlternating(ValueError):
    """Input grid violates the alternating-sign conditions."""


class _Frozen:
    """Base of the immutable records.  The fields are the subclass's
    `__slots__`, set once by its `__init__` through the slot descriptors;
    records are equal when of one class with equal fields, hash as their
    field tuple, and pickle by calling the class on the fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class Asm(_Frozen):
    """A validated alternating-sign matrix; immutable, compared by entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Grid):
        _set_entries(self, entries)

    @property
    def order(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i - 1][j - 1]


class SixVertexState(_Frozen):
    """Vertex types (ints 1..6) of a square-ice state with domain-wall
    boundary; immutable, compared by types."""

    __slots__ = ("types",)

    def __init__(self, types: Grid):
        _set_types(self, types)

    @property
    def order(self) -> int:
        return len(self.types)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.types[i - 1][j - 1]

    def type_counts(self) -> tuple[int, ...]:
        counts = [0] * 7
        for row in self.types:
            for t in row:
                counts[t] += 1
        return tuple(counts[1:])


_set_entries = Asm.entries.__set__
_set_types = SixVertexState.types.__set__


class AsmStats(NamedTuple):
    """The census key of a matrix: its weight and its refinement."""

    minus_ones: int
    first_column_one_pos: int
    central_entry: Optional[int]  # None for even order


# Every alternating row that `as_asm` has met, keyed by its entries: the
# row as ints, with its plus and minus masks (bit j set where entry j,
# 1-based, is 1, resp. -1).  Only rows that pass are stored, so an order n
# adds at most its 2^(n-1) alternating rows.  Equal numbers hash alike, so
# a row of 1.0, True or Fraction(1) finds the entry of its ints.
_ROWS: dict[tuple, tuple[tuple[int, ...], int, int]] = {}


def _new_row(row: tuple) -> Optional[tuple[tuple[int, ...], int, int]]:
    """Check a row not met yet; store and return its memo entry when its
    entries are -1/0/1 and its partial sums stay in {0, 1} and end at 1,
    else return None."""
    if not all(e in (-1, 0, 1) for e in row):
        return None
    ints = tuple(map(int, row))
    r = plus = minus = 0
    for j, e in enumerate(ints, 1):
        r += e
        if r not in (0, 1):
            return None
        if e == 1:
            plus |= 1 << j
        elif e:
            minus |= 1 << j
    if r != 1:
        return None
    found = _ROWS[ints] = (ints, plus, minus)
    return found


def as_asm(grid: Sequence[Sequence[int]]) -> Asm:
    """Validate a grid and wrap it as an Asm; raises NotAlternating.

    Each row is looked up in a memo of the alternating rows met so far,
    which holds its ints and its plus and minus masks; a row not met yet is
    checked once and stored only if it passes.  The columns are checked by
    walking one int mask C (bit j = C_j) down the rows: a row may put a 1
    only under a column at 0 and a -1 only under a column at 1, and moves C
    to C ^ plus ^ minus, which must end with every column at 1.  When that
    fails, or an entry is unhashable, the entry loop runs in row-major
    order and names the first fault: an entry outside -1/0/1 (tested before
    any conversion, so 1.0 and True are read as 1 but 1.5 and "1" are
    refused) or a partial sum that leaves {0, 1}.
    """
    n = len(grid)
    if n == 0 or {*map(len, grid)} != {n}:
        raise NotAlternating("matrix must be square and nonempty")
    col, rows = 0, []
    for row in grid:
        row = tuple(row)
        try:
            ints, plus, minus = _ROWS[row]
        except (KeyError, TypeError):  # a row not met yet, or an unhashable entry
            found = _new_row(row)
            if found is None:
                break
            ints, plus, minus = found
        if plus & col or minus & ~col:
            break
        col ^= plus ^ minus
        rows.append(ints)
    if len(rows) == n and col == (1 << n + 1) - 2:
        return Asm(tuple(rows))
    col_sums = [0] * n
    for i, row in enumerate(grid):
        r = 0
        for j, e in enumerate(row):
            if e not in (-1, 0, 1):
                raise NotAlternating(f"entry {e!r} at ({i + 1}, {j + 1}) not in -1/0/1")
            e = int(e)
            r += e
            if r not in (0, 1):
                raise NotAlternating(f"row {i + 1} partial sums leave {{0,1}}")
            col_sums[j] += e
            if col_sums[j] not in (0, 1):
                raise NotAlternating(f"column {j + 1} partial sums leave {{0,1}}")
        if r != 1:
            raise NotAlternating(f"row {i + 1} sums to {r}, not 1")
    bad = [j + 1 for j, s in enumerate(col_sums) if s != 1]
    if bad:
        raise NotAlternating(f"column {bad[0]} does not sum to 1")
    return Asm(tuple(tuple(map(int, row)) for row in grid))


# The type of a 0 entry, by (column partial sum, row partial sum) through it.
_ZERO_TYPE = ((3, 5), (6, 4))


def to_state(asm: Asm) -> SixVertexState:
    """The six-vertex state of an ASM (the Robbins-Rumsey correspondence)."""
    n = asm.order
    col = [0] * n
    types = []
    for row in asm.entries:
        r = 0
        trow = []
        for j, e in enumerate(row):
            r += e
            col[j] += e
            if e == 1:
                trow.append(1)
            elif e == -1:
                trow.append(2)
            else:
                trow.append(_ZERO_TYPE[col[j]][r])
        types.append(tuple(trow))
    return SixVertexState(tuple(types))


def inversions(s: Sequence[int]) -> int:
    """Number of pairs i < j with s[i] > s[j], by the Lehmer code: each
    letter adds the count of smaller letters after it, its index in the
    sorted rest of the word."""
    rest = sorted(s)
    total = 0
    for v in s:
        i = rest.index(v)
        total += i
        del rest[i]
    return total


def stats(asm: Asm) -> AsmStats:
    e = asm.entries
    n = len(e)
    return AsmStats._make((sum(map(tuple.count, e, repeat(-1, n))),
                           next(zip(*e)).index(1) + 1,
                           e[n // 2][n // 2] if n % 2 else None))
