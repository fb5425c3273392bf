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
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

Grid = tuple[tuple[int, ...], ...]


class NotAlternating(ValueError):
    """Input grid violates the alternating-sign conditions."""


class InconsistentOrientation(ValueError):
    """Vertex types do not glue into a consistent edge orientation."""


class Asm:
    """A validated alternating-sign matrix; immutable, compared by entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Grid):
        _set_entries(self, entries)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __repr__(self) -> str:
        return f"Asm(entries={self.entries!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Asm, (self.entries,)

    @property
    def order(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i - 1][j - 1]

    def rotated(self) -> Asm:
        n = self.order
        return Asm(tuple(tuple(self.entries[n - 1 - i][n - 1 - j]
                               for j in range(n)) for i in range(n)))

    def to_text(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


class SixVertexState:
    """Vertex types (ints 1..6) of a square-ice state with domain-wall
    boundary; immutable, compared by types."""

    __slots__ = ("types",)

    def __init__(self, types: Grid):
        _set_types(self, types)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.types == other.types
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.types,))

    def __repr__(self) -> str:
        return f"SixVertexState(types={self.types!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return SixVertexState, (self.types,)

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


def as_asm(grid: Sequence[Sequence[int]]) -> Asm:
    """Validate a grid and wrap it as an Asm; raises NotAlternating."""
    n = len(grid)
    if n == 0 or any(len(row) != n for row in grid):
        raise NotAlternating("matrix must be square and nonempty")
    rows = tuple(tuple(map(int, row)) for row in grid)
    col_sums = [0] * n
    for i, row in enumerate(rows):
        r = 0
        for j, e in enumerate(row):
            if e not in (-1, 0, 1):
                raise NotAlternating(f"entry {e} at ({i + 1}, {j + 1}) not in -1/0/1")
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
    return Asm(rows)


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
                trow.append({(0, 0): 3, (1, 1): 4, (0, 1): 5, (1, 0): 6}[(col[j], r)])
        types.append(tuple(trow))
    return SixVertexState(tuple(types))


# Partial sums (R_left, R_right, C_top, C_bottom) implied by each type;
# adjacent cells must agree and the boundary values are forced to 0/1.
_EDGE_PROFILE = {
    1: (0, 1, 0, 1),
    2: (1, 0, 1, 0),
    3: (0, 0, 0, 0),
    4: (1, 1, 1, 1),
    5: (1, 1, 0, 0),
    6: (0, 0, 1, 1),
}


def to_asm(state: SixVertexState) -> Asm:
    """Inverse bijection; raises InconsistentOrientation for bad hand-built
    states and NotAlternating if the implied entries fail validation."""
    n = state.order
    for i in range(n):
        for j in range(n):
            t = state.types[i][j]
            if t not in _EDGE_PROFILE:
                raise InconsistentOrientation(f"unknown type {t} at ({i + 1}, {j + 1})")
            rl, rr, ct, cb = _EDGE_PROFILE[t]
            if j == 0 and rl != 0:
                raise InconsistentOrientation(f"left boundary violated in row {i + 1}")
            if j == n - 1 and rr != 1:
                raise InconsistentOrientation(f"right boundary violated in row {i + 1}")
            if i == 0 and ct != 0:
                raise InconsistentOrientation(f"top boundary violated in column {j + 1}")
            if i == n - 1 and cb != 1:
                raise InconsistentOrientation(f"bottom boundary violated in column {j + 1}")
            if j + 1 < n and rr != _EDGE_PROFILE[state.types[i][j + 1]][0]:
                raise InconsistentOrientation(
                    f"horizontal edge mismatch between ({i + 1}, {j + 1}) and ({i + 1}, {j + 2})")
            if i + 1 < n and cb != _EDGE_PROFILE[state.types[i + 1][j]][2]:
                raise InconsistentOrientation(
                    f"vertical edge mismatch between ({i + 1}, {j + 1}) and ({i + 2}, {j + 1})")
    entry = {1: 1, 2: -1, 3: 0, 4: 0, 5: 0, 6: 0}
    return as_asm([[entry[t] for t in row] for row in state.types])


def is_half_turn_symmetric(asm: Asm) -> bool:
    n = asm.order
    e = asm.entries
    return all(e[i][j] == e[n - 1 - i][n - 1 - j]
               for i in range(n) for j in range(n))


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
    return AsmStats(
        minus_ones=sum(row.count(-1) for row in e),
        first_column_one_pos=[row[0] for row in e].index(1) + 1,
        central_entry=e[n // 2][n // 2] if n % 2 == 1 else None,
    )
