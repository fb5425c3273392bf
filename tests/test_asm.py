"""ASM validation, the six-vertex bijection and matrix statistics."""

import itertools
import random
import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from halfturn_ice import asm
from halfturn_ice.asm import (
    Asm, AsmStats, NotAlternating, SixVertexState, as_asm, inversions, stats,
    to_state)
from halfturn_ice.enum_asm import gen_asms


def reference_as_asm(grid):
    """The entry loop that once validated every grid, kept as the oracle of
    the memoized row and column check of `as_asm`: in row-major order, each
    entry is tested against -1/0/1 before it is read as an int, then the
    row and column partial sums are checked."""
    n = len(grid)
    if n == 0 or any(len(row) != n for row in grid):
        raise NotAlternating("matrix must be square and nonempty")
    rows = []
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
        rows.append(tuple(map(int, row)))
    bad = [j + 1 for j, s in enumerate(col_sums) if s != 1]
    if bad:
        raise NotAlternating(f"column {bad[0]} does not sum to 1")
    return Asm(tuple(rows))


class InconsistentOrientation(ValueError):
    """Vertex types do not glue into a consistent edge orientation."""


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
    """The inverse bijection, the round-trip oracle of `to_state`: raises
    InconsistentOrientation for bad hand-built states and NotAlternating
    if the implied entries fail validation."""
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


def test_validate_examples():
    assert as_asm([[1]]).order == 1
    m = as_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])
    assert m[2, 2] == -1
    with pytest.raises(NotAlternating):
        as_asm([[1, -1], [0, 1]])
    with pytest.raises(NotAlternating):
        as_asm([[0, 2], [1, 0]])
    with pytest.raises(NotAlternating):
        as_asm([[1, 0], [1, 0]])
    with pytest.raises(NotAlternating):
        as_asm([])


def test_non_integral_entries_are_refused_not_truncated():
    for grid, entry in (([[1.5]], "1.5"), ([["1"]], "'1'"),
                        ([[0.9, 0.2], [0.1, 1]], "0.9"), ([[1, 0], [0, 1.5]], "1.5")):
        with pytest.raises(NotAlternating, match=rf"^entry {entry} at "):
            as_asm(grid)
    # Entries equal to -1, 0 or 1 are read as ints.
    for grid in ([[1.0]], [[True]], [[0, True, 0], [1.0, -1.0, 1], [False, 1, 0]]):
        m = as_asm(grid)
        assert m == reference_as_asm(grid)
        assert {type(x) for row in m.entries for x in row} == {int}


def test_unhashable_entries_are_named_not_a_type_error():
    for grid, message in (([[[1]]], "entry [1] at (1, 1) not in -1/0/1"),
                          ([[1, [0]], [0, 1]], "entry [0] at (1, 2) not in -1/0/1")):
        with pytest.raises(NotAlternating, match=f"^{re.escape(message)}$"):
            as_asm(grid)


def test_numbers_equal_to_one_are_read_as_ints():
    for one in (True, 1.0, Fraction(1), Decimal(1)):
        for grid in ([[one]], [[0, one, 0], [one, -1, 1], [0, 1, 0]]):
            m = as_asm(grid)
            assert m == reference_as_asm(grid)
            assert {type(x) for row in m.entries for x in row} == {int}


def test_nan_is_refused():
    with pytest.raises(NotAlternating, match=r"^entry nan at \(1, 1\) "):
        as_asm([[float("nan")]])
    with pytest.raises(NotAlternating, match=r"^entry nan at \(2, 1\) "):
        as_asm([[1, 0], [float("nan"), 1]])


def test_invalid_grids_leave_the_row_memo_alone():
    # The memo keeps alternating rows only: once it holds every row of order
    # 6, no invalid grid of that order can grow it.
    for m in _asms(6):
        as_asm(m.entries)
    rows = {row for row in asm._ROWS if len(row) == 6}
    assert len(rows) == 32 and all(
        [e for e in row if e] == [1, -1] * (sum(map(abs, row)) // 2) + [1] for row in rows)
    size = len(asm._ROWS)
    rng = random.Random(6)
    for _ in range(1000):
        grid = [[rng.choice((-1, 0, 0, 0, 1, 1, 2, 1.5)) for _ in range(6)] for _ in range(6)]
        with pytest.raises(NotAlternating):
            as_asm(grid)
    assert len(asm._ROWS) == size


ENTRIES = st.sampled_from([-2, -1, 0, 1, 2, 1.0, 1.5, True, "1", Fraction(1), float("nan"),
                           [1]])


@lru_cache(maxsize=None)
def _asms(n):
    return list(gen_asms(n))


@st.composite
def grids(draw):
    """A square grid of order 1..6: entries drawn at random, or an ASM with
    up to two entries replaced, its rows and columns perhaps shuffled (all
    sums stay 1, but partial sums may leave {0, 1})."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "asm", "shuffled"]))
    if kind == "random":
        return draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                             min_size=n, max_size=n))
    grid = draw(st.sampled_from(_asms(n))).entries
    if kind == "shuffled":
        rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
        grid = [[grid[i][j] for j in cols] for i in rows]
    grid = [list(row) for row in grid]
    for _ in range(draw(st.integers(0, 2))):
        grid[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(ENTRIES)
    return grid


def _outcome(check, grid):
    try:
        return repr(check(grid))  # the repr shows each entry's type
    except NotAlternating as err:
        return f"NotAlternating: {err}"


@settings(max_examples=500, deadline=None)
@given(grids())
def test_as_asm_matches_the_entry_loop(grid):
    assert _outcome(as_asm, grid) == _outcome(reference_as_asm, grid)


def test_bijection_small():
    one = as_asm([[1]])
    assert to_state(one).types == ((1,),)
    m = as_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])
    st = to_state(m)
    assert st[2, 2] == 2
    assert st[1, 2] == st[2, 1] == st[2, 3] == st[3, 2] == 1
    assert to_asm(st) == m


def test_identity_state_types():
    # identity of order 3: zero inversions, so six type-5/6 vertices
    m = as_asm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    counts = to_state(m).type_counts()
    assert counts[2] == counts[3] == 0
    assert counts[4] == counts[5] == 3


@pytest.mark.parametrize("n", range(1, 6))
def test_bijection_round_trip_exhaustive(n):
    for m in gen_asms(n):
        st = to_state(m)
        assert to_asm(st) == m


@pytest.mark.parametrize("n", range(1, 5))
def test_type1_minus_type2_is_order(n):
    for m in gen_asms(n):
        c = to_state(m).type_counts()
        assert c[0] - c[1] == n


def test_inconsistent_states_rejected():
    with pytest.raises(InconsistentOrientation):
        to_asm(SixVertexState(((3,),)))  # boundary requires type 1 at order 1
    with pytest.raises(InconsistentOrientation):
        to_asm(SixVertexState(((1, 1), (1, 1))))
    with pytest.raises(InconsistentOrientation):
        to_asm(SixVertexState(((9,),)))


def test_stats_examples():
    s = stats(as_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]]))
    assert (s.minus_ones, s.first_column_one_pos, s.central_entry) == (1, 2, -1)

    s = stats(as_asm([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert (s.minus_ones, s.first_column_one_pos, s.central_entry) == (0, 1, 1)

    assert inversions((2, 4, 1, 3)) == 3
    even = stats(as_asm([[1, 0], [0, 1]]))
    assert even.central_entry is None

    s = stats(as_asm([[0, 1, 0, 0, 0], [1, -1, 1, 0, 0], [0, 1, 0, 0, 0],
                      [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]))
    assert (s.minus_ones, s.first_column_one_pos, s.central_entry) == (1, 2, 0)

    s = stats(as_asm([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    assert (s.minus_ones, s.first_column_one_pos, s.central_entry) == (0, 2, 0)


def _pair_inversions(s):
    """The O(n^2) pair count: the oracle of the Lehmer-code `inversions`."""
    return sum(1 for i in range(len(s)) for j in range(i + 1, len(s)) if s[i] > s[j])


def test_inversions_match_the_pair_count():
    assert inversions(()) == _pair_inversions(()) == 0
    for n in range(1, 8):
        for s in itertools.permutations(range(1, n + 1)):
            assert inversions(s) == _pair_inversions(s), s
    for n in range(1, 7):  # words with repeated letters
        for s in itertools.product(range(3), repeat=n):
            assert inversions(s) == _pair_inversions(s), s
    assert inversions((5, 5, 5)) == 0 and inversions((3, 1, 3, 1)) == 3


def test_stats_fields_are_the_census_keys():
    # census weighs by minus_ones and keys its rows by the other two
    assert list(AsmStats._fields) == [
        "minus_ones", "first_column_one_pos", "central_entry"]


def test_stats_field_by_field():
    streams = [gen_asms(n) for n in range(1, 7)] + [gen_asms(7, "ht")]
    for m in itertools.chain(*streams):
        e, n = m.entries, m.order
        s = stats(m)
        assert type(s) is AsmStats
        assert s.minus_ones == sum(1 for row in e for x in row if x == -1)
        assert s.first_column_one_pos == next(i + 1 for i in range(n) if e[i][0] == 1)
        assert s.central_entry == (e[n // 2][n // 2] if n % 2 == 1 else None)
