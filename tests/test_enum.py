"""Generators, inversion generating functions and censuses."""

import hashlib
import itertools
import math

import pytest

from halfturn_ice.asm import Asm, NotAlternating, stats
from halfturn_ice.enum_asm import (
    PLAN_BOUND_BITS, SizeTooLarge, _check_plan_size, _plan_cells, _plan_rows, _prefixes,
    _transfer_plan, census, gen_asms, ht_permutations, inversion_genfunc)
from halfturn_ice.formulas import count_closed
from halfturn_ice.laurent import LaurentPoly

from test_asm import reference_as_asm


# ----------------------------------------------------------------------
# the per-node generators that the streams replaced, kept as a reference
# ----------------------------------------------------------------------


def reference_row_candidates(col, force_palindrome):
    """All valid next rows given column partial sums, in lex order (-1 < 0 < 1)."""
    n = len(col)
    row = [0] * n
    half = (n + 1) // 2

    def fill(j, rsum):
        if force_palindrome and j >= half:
            for k in range(half, n):
                row[k] = row[n - 1 - k]
            s = 0
            for k in range(n):
                s += row[k]
                if s not in (0, 1):
                    return
            if s == 1:
                yield tuple(row)
            return
        if j == n:
            if rsum == 1:
                yield tuple(row)
            return
        for e in (-1, 0, 1):
            if rsum + e not in (0, 1) or col[j] + e not in (0, 1):
                continue
            row[j] = e
            yield from fill(j + 1, rsum + e)
        row[j] = 0

    yield from fill(0, 0)


def reference_gen(n, klass):
    """Backtracking with one recursive generator per node; the half-turn
    class completes every top half by rotation and keeps what the entry
    loop of `reference_as_asm` validates."""
    last = n if klass == "all" else (n + 1) // 2
    rows = []

    def rec(i, col):
        if i == last:
            if klass == "all":
                if all(c == 1 for c in col):
                    yield Asm(tuple(rows))
                return
            full = rows + [tuple(reversed(rows[k])) for k in range(n - last - 1, -1, -1)]
            try:
                yield reference_as_asm(full)
            except NotAlternating:
                pass
            return
        palindrome = klass == "ht" and n % 2 == 1 and i == last - 1
        for row in reference_row_candidates(col, palindrome):
            rows.append(row)
            yield from rec(i + 1, tuple(c + e for c, e in zip(col, row)))
            rows.pop()

    return rec(0, (0,) * n)


def _fits(col, row):
    return all(c + e in (0, 1) for c, e in zip(col, row))


def check_plan_row_tables(n, klass):
    """Under every position that the row tables of the plan reach from the
    start, each table lists, in order, exactly the reference candidates on
    that position's column sums that lead to at least one matrix.  A row
    leads to one when some candidate below it does, down to the last row,
    which must close: every column at 1 for "all"; for "ht" (whose last row
    is the palindromic middle row at odd n, its mirrored half fitting too)
    C_j + C_(n+1-j) = 1 + mid_j for every column j, mid = 0 at even n.
    Above the last row, each end position stands for one column-sum vector
    and no two for the same; each distinct row is one tuple."""
    tables = _plan_rows(n, klass)
    last = len(tables) - 1
    odd = klass == "ht" and n % 2 == 1
    live = {}

    def live_rows(i, col):
        if (i, col) not in live:
            found = []
            for row in reference_row_candidates(col, odd and i == last):
                if not _fits(col, row):
                    continue
                new = tuple(c + e for c, e in zip(col, row))
                if i < last:
                    leads = bool(live_rows(i + 1, new))
                elif klass == "all":
                    leads = all(c == 1 for c in new)
                else:
                    mid = row if odd else (0,) * n
                    leads = all(new[j] + new[n - 1 - j] == 1 + mid[j] for j in range(n))
                if leads:
                    found.append(row)
            live[i, col] = found
        return live[i, col]

    rows, front = {}, {0: (0,) * n}
    for i, table in enumerate(tables):
        below = {}
        for start, col in front.items():
            moves = table(start)
            assert [row for row, _ in moves] == live_rows(i, col), (i, col)
            for row, end in moves:
                assert rows.setdefault(row, row) is row
                below.setdefault(end, set()).add(tuple(c + e for c, e in zip(col, row)))
        if i < last:
            assert all(len(cols) == 1 for cols in below.values())
            assert len(set().union(*below.values())) == len(below)
        front = {end: cols.pop() for end, cols in below.items()}
    assert rows


@pytest.mark.parametrize("n", range(1, 10))
def test_row_tables_match_the_reference_candidates(n):
    # Every row of the plan, closing with every column at 1.
    check_plan_row_tables(n, "all")


@pytest.mark.parametrize("n", range(1, 10))
def test_mask_closing_agrees_with_the_column_condition(n):
    # The half-turn top rows, the last closing on the plan's profile-mask
    # test, against the column condition.
    check_plan_row_tables(n, "ht")


@pytest.mark.parametrize("n, klass", [(n, "all") for n in range(1, 9)]
                         + [(n, "ht") for n in range(1, 14)])
def test_plan_layout_past_the_listing(n, klass):
    # The compiled layout at every order to dwbc 8 and half-turn 13, past
    # the listing guard: each front's positions all have a move out and a move in,
    # the last front is the closing profiles, a source's entry-0 move
    # (class 1 or 2) comes before its class-0 move, and the unit counts are
    # the closed counts, split by the central entry at odd half-turn
    # orders.  No listing reaches ht 10..13, so this is what checks the
    # closing rule there.
    steps, centrals, counts = _transfer_plan(n, klass)
    width = 1
    for next_width, moves in steps:
        assert len(moves) == width
        assert all(out for out in moves)
        assert {t for out in moves for t, _ in out} == set(range(next_width))
        for out in moves:
            classes = [c for _, c in out]
            assert classes in ([0], [1], [2], [1, 0]), classes
        width = next_width
    assert width == len(centrals)
    if klass == "all":
        assert set(centrals) == {0} and counts == {0: count_closed("asm", n)}
    elif n % 2 == 0:
        assert set(centrals) == {0} and counts == {0: count_closed("ht-even", n)}
    else:
        assert set(centrals) <= {1, -1}
        assert counts.get(1, 0) == count_closed("ht-odd-plus", n)
        assert counts.get(-1, 0) == count_closed("ht-odd-minus", n)
        assert sum(counts.values()) == count_closed("ht-odd", n)


# sha256 of `plan_dump`, recorded from the compile that built every move as
# a (source, target, class) tuple and counted the matrices in a third pass.
PLAN_SHA256 = {
    ("all", 1): "9673272f641621264867a4546c1e1fafe4d4e200c25ed32661f1563edaf9d4f0",
    ("all", 2): "84c7c20bc68d4b7334287b05c7d7abdb49e8b23c1fb6221e342caa5d11baf367",
    ("all", 3): "e6ec0ffd56080fa710415478b92bab0dff194622c4c041556bca54d833ab9581",
    ("all", 4): "a3fa05f7411ee792e3cbd23f8d95f32f977c72af1bdab19172c8e12936f3e5b0",
    ("all", 5): "e8d80bac463094bc6ff7e419f55c4878e1057661474e96fc1b080e71dae38b3e",
    ("all", 6): "8dee318737bd35478d66a649c52a7c6e9c7b71fc37fdac8fd179522f20d77bb1",
    ("all", 7): "a984a9bb0c77b4e576437f4552d9e5d36b790537c050009f957da40b7400e6eb",
    ("all", 8): "0034814ff41897d53a6a7268864b97bff86521a7c305641a74ffa313b0d134ba",
    ("ht", 1): "2d1a1227831cd7fdddb46e1b20546741d19f901bb415e47b3f6cf002933214be",
    ("ht", 2): "f4d1ee459b696863488864fd71e431a4958ccfc06742f9219e32a5821ac0c24b",
    ("ht", 3): "39e9b5ab0a7d41730be0a7939742f462dcd6db1d13a761e711c0cee3937a1a1a",
    ("ht", 4): "5f5813190118321da1ca316b41d357c20485274b4b8ff1514d9361031f029a7e",
    ("ht", 5): "9b652b44ec6595120ca60e12519baf4eee9591a5cda5d3f0c057311b9d2eff52",
    ("ht", 6): "9486e257a478d27e41e51391fdfb9de4486af444230b2292fef79279539239ff",
    ("ht", 7): "b81cb138cdfd7e69252342333b247c2de13482f77c6772bc6eff289061177f82",
    ("ht", 8): "2fa0e30ce47d2440d7b56a7029fb31e37503bd9b51665953c541a0c101dea286",
    ("ht", 9): "c5443f5c78f110e0e641d6f6a975867afaf5b59637d5a05b09469eaf26979156",
    ("ht", 10): "7949ef43f96f5c82e84a97c43099165a4592d4cdbc29d65d0d673c3f7a59519e",
    ("ht", 11): "d319d95680e6c2950d154ffb029f38051632b089bd137e3b406e29318a0afac0",
}


def plan_dump(n, klass) -> str:
    """The compiled plan of a class at order n as text that does not depend
    on how a step stores its moves: per step its width and its sorted
    (source, target, class) moves, then the central entries and the sorted
    counts."""
    steps, centrals, counts = _transfer_plan(n, klass)
    lines = [f"{width} {sorted((s, t, c) for s, out in enumerate(moves) for t, c in out)}"
             for width, moves in steps]
    return "\n".join([*lines, repr(tuple(centrals)), repr(sorted(counts.items()))])


@pytest.mark.parametrize("klass, n", sorted(PLAN_SHA256))
def test_plan_matches_its_pin(klass, n):
    digest = hashlib.sha256(plan_dump(n, klass).encode()).hexdigest()
    assert digest == PLAN_SHA256[klass, n]


def zpoly(*coeffs):
    return LaurentPoly(("z",), {(i,): c for i, c in enumerate(coeffs) if c})


def test_gen_counts():
    assert [sum(1 for _ in gen_asms(n)) for n in range(1, 7)] == [1, 2, 7, 42, 429, 7436]
    assert [sum(1 for _ in gen_asms(n, "ht")) for n in range(1, 8)] == [1, 2, 3, 10, 25, 140, 588]


def test_gen_unique_and_valid():
    for n, klass in ((4, "all"), (5, "ht")):
        seen = set()
        for m in gen_asms(n, klass):
            assert m.entries not in seen
            seen.add(m.entries)


def test_gen_order_deterministic_and_lex():
    for n, klass in ((4, "all"), (6, "all"), (7, "ht")):
        runs = [list(gen_asms(n, klass)), list(gen_asms(n, klass))]
        assert runs[0] == runs[1]
        flat = [tuple(x for row in m.entries for x in row) for m in runs[0]]
        assert flat == sorted(flat)
        assert len(set(flat)) == len(flat)


@pytest.mark.parametrize("n, klass", [(n, "all") for n in range(1, 7)]
                         + [(n, "ht") for n in range(1, 9)])
def test_gen_matches_reference(n, klass):
    assert list(gen_asms(n, klass)) == list(reference_gen(n, klass))


@pytest.mark.parametrize("n, klass", [(n, "all") for n in range(1, 8)]
                         + [(n, "ht") for n in range(1, 11)])
def test_blocks_split_the_rows_in_half(n, klass):
    # The head holds the top ceil(r/2) of the stream's r rows and every tail
    # the bottom floor(r/2); the blocks flatten to the stream, in order.
    r = n if klass == "all" else (n + 1) // 2
    stream = (m.entries[:r] for m in gen_asms(n, klass))
    for head, tails in _prefixes(n, klass):
        assert len(head) == r - r // 2 and tails
        for tail in tails:
            assert len(tail) == r // 2 and head + tail == next(stream)
    assert next(stream, None) is None


def test_interleaved_streams_are_independent():
    # Each stream owns its transition table: consuming two in turn must give
    # what each gives alone.
    pairs = list(itertools.zip_longest(gen_asms(5), gen_asms(5, "ht")))
    assert [a for a, _ in pairs] == list(gen_asms(5))
    assert [h for _, h in pairs if h is not None] == list(gen_asms(5, "ht"))
    assert sum(1 for _, h in pairs if h is not None) == 25


def test_order9_ht_count():
    assert sum(1 for _ in gen_asms(9, "ht")) == count_closed("ht-odd", 9) == 39204


def is_half_turn_symmetric(asm) -> bool:
    """The filter oracle of `gen_asms(n, "ht")`: entry (i, j) equals
    entry (n+1-i, n+1-j) everywhere."""
    n = asm.order
    e = asm.entries
    return all(e[i][j] == e[n - 1 - i][n - 1 - j]
               for i in range(n) for j in range(n))


def test_ht_stream_is_filter_of_full_stream():
    for n in range(1, 6):
        direct = list(gen_asms(n, "ht"))
        filtered = [m for m in gen_asms(n) if is_half_turn_symmetric(m)]
        assert direct == filtered


def test_genfunc_examples():
    assert inversion_genfunc(3, "all", "closed") == zpoly(1, 2, 2, 1)
    assert inversion_genfunc(3, "ht", "closed") == zpoly(1, 0, 0, 1)
    assert inversion_genfunc(2, "ht", "closed") == zpoly(1, 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_genfunc_brute_equals_closed_all(n):
    assert inversion_genfunc(n, "all", "brute") == inversion_genfunc(n, "all", "closed")


@pytest.mark.parametrize("n", range(1, 9))
def test_genfunc_brute_equals_closed_ht(n):
    assert inversion_genfunc(n, "ht", "brute") == inversion_genfunc(n, "ht", "closed")


@pytest.mark.parametrize("klass", ["all", "ht"])
def test_genfunc_closed_at_the_largest_order(klass):
    # Order 256 is the largest whose n(n-1)/2 inversions fit the exponent
    # range.  Degrees run from 0 to n(n-1)/2, symmetrically (reversing a
    # word keeps its class and complements its inversions), and the
    # coefficients count every word once: n! or 2^m m!, m = n/2.
    n, top = 256, 256 * 255 // 2
    terms = inversion_genfunc(n, klass, "closed").tuple_terms()
    assert min(terms) == (0,) and max(terms) == (top,)
    assert all(terms.get((top - e,)) == c for (e,), c in terms.items())
    words = math.factorial(n) if klass == "all" else 2 ** (n // 2) * math.factorial(n // 2)
    assert sum(terms.values()) == words


def _is_ht_perm(s: tuple[int, ...]) -> bool:
    n = len(s)
    return all(s[n - 1 - i] == n + 1 - s[i] for i in range(n))


def test_ht_permutation_condition():
    assert all(_is_ht_perm(s) for s in ht_permutations(4))
    assert sum(1 for _ in ht_permutations(7)) == 48


@pytest.mark.parametrize("n", range(1, 10))
def test_ht_permutations_equal_the_filtered_symmetric_group(n):
    # Same words in the same (lexicographic) order as filtering all n! words.
    want = [s for s in itertools.permutations(range(1, n + 1)) if _is_ht_perm(s)]
    assert list(ht_permutations(n)) == want


def test_census_order3_all():
    tab = census(3, "all")
    rows = {r: str(p) for (r, _), p in tab.rows.items()}
    assert rows == {1: "2", 2: "x + 2", 3: "2"}
    assert tab.count == 7
    total = sum(tab.rows.values(), LaurentPoly.zero())
    assert total.substitute({"x": 1}).constant_value() == 7


def test_census_order3_ht_split():
    tab = census(3, "ht")
    plus, minus = tab.split_by_center()
    t = LaurentPoly.var("t")
    assert plus == 1 + t ** 2
    assert minus == t
    g = tab.genfunc()
    assert g == 1 + LaurentPoly.monomial(1, {"sqrtx": 1, "t": 1}) + t ** 2


def test_census_order2_ht():
    tab = census(2, "ht")
    assert tab.genfunc() == 1 + LaurentPoly.var("t")


def test_census_exports():
    tab = census(3, "ht")
    csv = tab.to_csv()
    assert csv.splitlines()[0] == "r,central,terms"
    assert len(csv.splitlines()) == 4
    obj = tab.to_json_obj()
    assert obj["count"] == 3 and obj["class"] == "ht"
    assert len(obj["rows"]) == 3


def test_plan_bound_admits_half_turn_order_15_and_order_14():
    # The bound is on cells x 2^(n+1): the plan's fronts, one per cell, of
    # at most 2^(n+1) profiles each.
    for n, klass in ((15, "ht"), (14, "all"), (1, "ht"), (1, "all")):
        _check_plan_size(n, klass)
        assert len(_plan_cells(n, klass)) << n + 1 < 1 << PLAN_BOUND_BITS
    for n, klass in ((16, "ht"), (15, "all")):
        assert len(_plan_cells(n, klass)) << n + 1 >= 1 << PLAN_BOUND_BITS
        with pytest.raises(SizeTooLarge, match=f"^order {n} [(]{klass}[)] is past the plan bound"):
            _check_plan_size(n, klass)
        with pytest.raises(SizeTooLarge):
            _transfer_plan(n, klass)


def test_bad_inputs():
    with pytest.raises(ValueError):
        list(gen_asms(0))
    with pytest.raises(ValueError):
        list(gen_asms(2, "diagonal"))
    for klass in ("all", "ht"):
        with pytest.raises(SizeTooLarge, match=f"order {10 ** 20} [(]{klass}[)] is past"):
            gen_asms(10 ** 20, klass)
    with pytest.raises(ValueError):
        inversion_genfunc(2, "all", "guess")
    for mode in ("brute", "closed"):
        with pytest.raises(ValueError, match="unknown class 'bogus'"):
            inversion_genfunc(4, "bogus", mode)
    for n, klass, mode in ((0, "all", "brute"), (0, "ht", "closed"), (-3, "all", "closed")):
        with pytest.raises(ValueError, match="order must be >= 1"):
            inversion_genfunc(n, klass, mode)


def reference_census_rows(matrices, n, klass):
    """One LaurentPoly monomial per matrix, added up row by row, with every
    key and exponent read directly off the entries."""
    odd_ht = klass == "ht" and n % 2 == 1
    var = "sqrtx" if odd_ht else "x"
    rows: dict = {}
    for m in matrices:
        e = m.entries
        k = sum(1 for row in e for x in row if x == -1)
        exp = k if (odd_ht or klass == "all") else k // 2
        r = next(i + 1 for i in range(n) if e[i][0] == 1)
        key = (r, e[n // 2][n // 2] if odd_ht else None)
        rows[key] = rows.get(key, LaurentPoly.zero()) + LaurentPoly((var,), {(exp,): 1})
    return rows


def test_census_is_a_chunked_reduction():
    # Partitioning the stream and merging partial tables must reproduce the
    # full census (the reduction is associative and commutative).
    full = census(4, "all")
    matrices = list(gen_asms(4, "all"))
    halves = [matrices[:20], matrices[20:]]
    merged: dict = {}
    for chunk in halves:
        for m in chunk:
            st = stats(m)
            key = (st.first_column_one_pos, None)
            mono = LaurentPoly(("x",), {(st.minus_ones,): 1})
            merged[key] = merged.get(key, LaurentPoly.zero()) + mono
    assert merged == full.rows
    assert {c for _, c in census(7, "ht").rows} == {-1, 1}


@pytest.mark.parametrize("n, klass", [(n, "all") for n in range(1, 7)]
                         + [(n, "ht") for n in range(1, 9)])
def test_census_matches_the_per_matrix_sum(n, klass):
    # The tally of `stats` keys against one monomial per matrix: plain x^k,
    # even half-turn x^(k/2), odd half-turn sqrtx^k keyed by central entry.
    matrices = list(reference_gen(n, klass))
    tab = census(n, klass)
    rows = reference_census_rows(matrices, n, klass)
    assert tab.rows == rows and list(tab.rows) == list(rows)
    assert tab.count == len(matrices)
    assert tab.weight_var == ("sqrtx" if klass == "ht" and n % 2 else "x")
