"""Vertex weights, partition functions, the cofactor and the central split."""

import random
import time
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest

from halfturn_ice.asm import to_state
from halfturn_ice.determinant import random_distinct_rationals, special_z
from halfturn_ice.enum_asm import CensusTable, census, gen_asms
from halfturn_ice.exactnum import Cyclo, ZETA
from halfturn_ice.formulas import count_closed, refined_asm_closed, refined_ht_odd
from halfturn_ice import cli, enum_asm, icemodel
from halfturn_ice.icemodel import (
    ModelSpec, SingularAssignment, SizeTooLarge, _pair_weights, _plan_cells, _run_pairs,
    _run_plan, _state_sums, _symbolic_weights, _transfer_plan, fundamental_cells,
    modified_multiplier, modified_partition, modified_z_ht2, partition_function, state_counts,
    z_ht2, z_split_odd)
from halfturn_ice.laurent import LaurentPoly, sigma_of
from halfturn_ice.verify import _assign_interleaved
from test_laurent import value_at

M = LaurentPoly.monomial
V = LaurentPoly.var

# The per-state oracles' own weights: vertex types 1/2 weigh sigma(a^2),
# 3/4 sigma(a*s) and 5/6 sigma(a/s), with s = x/y at the cell (x, y).
TYPE_CLASS = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2}


def vertex_weight(vertex_type, xv, yv):
    a, s = V("a"), M(1, {xv: 1, yv: -1})
    return (sigma_of(a * a), sigma_of(a * s),
            sigma_of(a * s.monomial_inverse()))[TYPE_CLASS[vertex_type]]


def test_vertex_weights_standard():
    assert vertex_weight(1, "x1", "y1") == sigma_of(M(1, {"a": 2}))
    assert vertex_weight(3, "x1", "y2") == sigma_of(M(1, {"a": 1, "x1": 1, "y2": -1}))
    assert vertex_weight(5, "x1", "y2") == sigma_of(M(1, {"a": 1, "x1": -1, "y2": 1}))
    # The state sums' weight triples are the weights of types 1, 3, 5 and of
    # 2, 4, 6, cell by cell.
    for kind, size in (("dwbc", 3), ("ht-even", 2), ("ht-odd", 2)):
        cells = fundamental_cells(ModelSpec(kind, size))
        weights = _symbolic_weights(kind, size)
        assert len(weights) == len(cells)
        for triple, (_, _, xv, yv) in zip(weights, cells):
            for types in ((1, 3, 5), (2, 4, 6)):
                assert triple == tuple(vertex_weight(t, xv, yv) for t in types), (kind, xv, yv)


def test_partition_examples():
    z1 = partition_function(ModelSpec("dwbc", 1))
    assert z1.value == sigma_of(M(1, {"a": 2}))
    assert z1.state_count == 1

    ones3 = {"a": ZETA} | {f"x{i}": 1 for i in (1, 2, 3)} | {f"y{i}": 1 for i in (1, 2, 3)}
    z3 = partition_function(ModelSpec("dwbc", 3), ones3)
    assert z3.value == 567 * (2 * ZETA - 1)
    assert z3.state_count == 7

    ones_odd = {"a": ZETA, "x1": 1, "x2": 1, "y1": 1, "y2": 1}
    zht3 = partition_function(ModelSpec("ht-odd", 1), ones_odd)
    assert zht3.value == Cyclo.of(27)
    assert zht3.state_count == 3


def _point_value(rng, style):
    """A random nonzero value: a rational Cyclo, a plain Fraction, or a
    zeta-valued Cyclo (q != 0)."""
    p = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    if style == "fraction":
        return p
    if style == "zeta":
        return Cyclo(p - 1, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
    return Cyclo(p)


# (a, style of the spectral values), a = None for a random one of that style.
# Cyclo(2, 1/3) is neither rational nor a unit of Z[zeta].
EVALUATED_POINTS = ((None, "rational"), (ZETA, "rational"), (ZETA, "zeta"),
                    (Cyclo(2, Fraction(1, 3)), "rational"), (Cyclo(2, Fraction(1, 3)), "zeta"),
                    (None, "fraction"))


def test_symbolic_matches_evaluated():
    # The symbolic sum with every variable substituted shares nothing with the
    # scaled integral weights of the evaluated sum.
    rng = random.Random(11)
    for kind, size in (("dwbc", 2), ("dwbc", 3), ("ht-even", 1), ("ht-even", 2),
                       ("ht-odd", 0), ("ht-odd", 1), ("ht-odd", 2)):
        spec = ModelSpec(kind, size)
        sym = partition_function(spec).value
        for a, style in EVALUATED_POINTS:
            for _ in range(3):
                assign = {"a": _point_value(rng, style) if a is None else a}
                for xs in spec.spectral_vars():
                    for v in xs:
                        assign[v] = _point_value(rng, style)
                value = partition_function(spec, assign).value
                assert isinstance(value, Cyclo)
                assert value_at(sym, assign) == value, (kind, size, assign)


def test_fundamental_domain_shapes():
    assert len(fundamental_cells(ModelSpec("dwbc", 3))) == 9
    assert len(fundamental_cells(ModelSpec("ht-even", 2))) == 8
    assert len(fundamental_cells(ModelSpec("ht-odd", 2))) == 12
    assert fundamental_cells(ModelSpec("ht-odd", 0)) == ()


def test_empty_odd_model_is_one():
    res = partition_function(ModelSpec("ht-odd", 0))
    assert res.value == LaurentPoly.const(1)
    assert res.state_count == 1


def test_modified_partition_clears_negative_exponents():
    for kind, size in (("dwbc", 2), ("ht-even", 1), ("ht-odd", 1)):
        zt = modified_partition(ModelSpec(kind, size)).value
        for i, var in enumerate(zt.vars):
            if var != "a":
                assert min(e[i] for e in zt.tuple_terms()) >= 0, (kind, size, var)


def test_modified_order_one_is_plain():
    assert modified_partition(ModelSpec("dwbc", 1)).value == sigma_of(M(1, {"a": 2}))


def test_modified_degrees():
    zt = modified_partition(ModelSpec("dwbc", 2)).value
    ia = zt.vars.index("a")
    assert {sum(e) - e[ia] for e in zt.tuple_terms()} == {4}
    zt5 = modified_partition(ModelSpec("ht-odd", 1)).value
    ia = zt5.vars.index("a")
    assert {sum(e) - e[ia] for e in zt5.tuple_terms()} == {6}


def test_z_ht2_small():
    q = z_ht2(1)
    want = sigma_of(V("a")) * (M(1, {"x1": 1, "y1": -1}) + M(1, {"x1": -1, "y1": 1}))
    assert q.value == want
    assert q.value.degree_in("y1") == 1
    ones = {"a": ZETA, "x1": 1, "y1": 1}
    assert value_at(q.value, ones) == 2 * (2 * ZETA - 1)


def test_z_split_examples():
    plus, minus = z_split_odd(0)
    assert plus.value == LaurentPoly.const(1) and minus.value.is_zero()
    plus, minus = z_split_odd(1)
    assert (plus.state_count, minus.state_count) == (2, 1)
    assert plus.value + minus.value == partition_function(ModelSpec("ht-odd", 1)).value
    ones = {"a": ZETA, "x1": 1, "x2": 1, "y1": 1, "y2": 1}
    assert value_at(plus.value, ones) == 2 * 9
    assert value_at(minus.value, ones) == 9


def test_z_split_direct_matches_parity_and_counts():
    # Each part against the per-state reference, and the parity relation:
    # under a -> -a the +1 part picks up (-1)^m and the -1 part (-1)^(m+1).
    flip = {"a": -V("a")}
    for m in range(3):
        plus, minus = z_split_odd(m)
        ref = symbolic_reference("ht-odd", m)
        assert (plus.value, plus.state_count) == ref[1]
        assert (minus.value, minus.state_count) == ref.get(-1, (LaurentPoly.zero(), 0))
        sign = (-1) ** m
        assert plus.value.substitute(flip) == sign * plus.value
        assert minus.value.substitute(flip) == -sign * minus.value
        assert plus.state_count == count_closed("ht-odd-plus", 2 * m + 1)
        assert minus.state_count == count_closed("ht-odd-minus", 2 * m + 1)


def test_split_parts_carry_their_own_counts(monkeypatch):
    # The +1 part has the count of the states with central entry +1, and
    # the -1 part those with -1.  The counts do not depend on the sums,
    # which are stubbed at m = 3: the symbolic split of Z_HT(7) takes
    # minutes.
    for m in range(4):
        if m == 3:
            monkeypatch.setattr(icemodel, "_symbolic_weights",
                                lambda kind, size: [(LaurentPoly.const(1),) * 3]
                                * len(fundamental_cells(ModelSpec(kind, size))))
        order = 2 * m + 1
        assert [r.state_count for r in z_split_odd(m)] == (
            [1, 0] if m == 0 else
            [count_closed("ht-odd-plus", order), count_closed("ht-odd-minus", order)]), m


def test_state_guard(monkeypatch):
    with pytest.raises(SizeTooLarge, match="has 42 states, more than the guard 10$"):
        partition_function(ModelSpec("dwbc", 4), max_states=10)
    assert partition_function(ModelSpec("dwbc", 2)).state_count == 2
    # The default guard holds the routes that list every state: the
    # symbolic sums and the central split.
    monkeypatch.setattr(icemodel, "DEFAULT_MAX_STATES", 2)
    with pytest.raises(SizeTooLarge, match="guard 2$"):
        partition_function(ModelSpec("dwbc", 3))
    with pytest.raises(SizeTooLarge, match="guard 2$"):
        z_ht2(2)
    with pytest.raises(SizeTooLarge, match="guard 2$"):
        z_split_odd(1)
    assert z_ht2(1).state_count == 2
    # The plan's own routes list no state, so the default guard does not
    # hold them: counts, censuses and evaluated sums.
    assert state_counts(ModelSpec("ht-odd", 1)) == {1: 2, -1: 1}
    assert icemodel.census(3, "ht").count == 3
    point = {"a": ZETA, "x1": 2, "x2": 3, "x3": 5, "y1": 7, "y2": 11, "y3": 13}
    assert partition_function(ModelSpec("dwbc", 3), point).state_count == 7
    # A caller's own max_states is an exact count that replaces the default
    # guard, for symbolic and evaluated sums alike: 7 states pass 7, not 6.
    for assignment in (None, point):
        assert partition_function(ModelSpec("dwbc", 3), assignment, 7).state_count == 7
        with pytest.raises(SizeTooLarge, match="has 7 states, more than the guard 6$"):
            partition_function(ModelSpec("dwbc", 3), assignment, 6)
    with pytest.raises(SizeTooLarge, match="guard 2$"):
        state_counts(ModelSpec("ht-odd", 1), 2)


def test_partial_assignment_names_every_missing_variable():
    spec = ModelSpec("dwbc", 2)
    with pytest.raises(ValueError, match="^missing assignments for y2$"):
        partition_function(spec, {"a": ZETA, "x1": 2, "x2": 3, "y1": 5})
    with pytest.raises(ValueError, match="^missing assignments for a, x2, y2$"):
        partition_function(spec, {"x1": 2, "y1": 5})
    # The central pair of an odd model is part of its assignment.
    with pytest.raises(ValueError, match="^missing assignments for x2, y2$"):
        partition_function(ModelSpec("ht-odd", 1), {"a": ZETA, "x1": 2, "y1": 5})


def test_zero_assignment_is_a_pole():
    assignment = {"a": ZETA, "x1": 2, "x2": 3, "y1": 5, "y2": 0}
    with pytest.raises(SingularAssignment, match="y2"):
        partition_function(ModelSpec("dwbc", 2), assignment)
    with pytest.raises(SingularAssignment, match="a"):
        partition_function(ModelSpec("dwbc", 2), assignment | {"a": 0, "y2": 7})


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("weird", 1)
    with pytest.raises(ValueError):
        ModelSpec("dwbc", 0)
    with pytest.raises(TypeError):  # the normalization is a result label, not a spec field
        ModelSpec("dwbc", 1, "modified")


def test_multiplier_shapes():
    assert modified_multiplier(ModelSpec("dwbc", 3)) == M(
        1, {"x1": 2, "x2": 2, "x3": 2, "y1": 2, "y2": 2, "y3": 2})
    assert modified_multiplier(ModelSpec("ht-odd", 1)) == M(
        1, {"x1": 2, "y1": 2, "x2": 1, "y2": 1})
    assert modified_multiplier(ModelSpec("ht-even", 2)) == M(
        1, {"x1": 3, "y1": 3, "x2": 3, "y2": 3})
    # Per kind, the exponents of x_i and y_i for i = 1, 2, ...
    table = {"dwbc": lambda n: [n - 1] * n,
             "ht-even": lambda m: [2 * m - 1] * m,
             "ht-odd": lambda m: [2 * m] * m + [m]}
    for kind, exponents in table.items():
        for size in range(1, 6):
            want = M(1, {f"{v}{i}": e for i, e in enumerate(exponents(size), 1) for v in "xy"})
            assert modified_multiplier(ModelSpec(kind, size)) == want, (kind, size)


def test_modified_cofactor_is_the_cofactor_times_prod_xy_to_the_m():
    for m in (1, 2, 3):
        prod = M(1, {f"{v}{i}": m for i in range(1, m + 1) for v in "xy"})
        assert modified_z_ht2(m) == z_ht2(m).value * prod, m


def test_partition_result_json():
    obj = partition_function(ModelSpec("dwbc", 1)).to_json_obj()
    assert obj["kind"] == "dwbc" and obj["stateCount"] == 1
    assert obj["value"]["vars"] == ["a"]
    assert obj["normalization"] == "standard"


def test_only_modified_partition_is_labelled_modified():
    spec = ModelSpec("ht-odd", 1)
    plain, modified = partition_function(spec), modified_partition(spec)
    assert plain.normalization == "standard"
    assert modified.normalization == "modified"
    assert modified.value == plain.value * modified_multiplier(spec)
    assert all(r.normalization == "standard"
               for r in (z_ht2(1), *z_split_odd(1)))


def test_state_sum_is_chunking_independent():
    spec = ModelSpec("ht-even", 2)
    full = partition_function(spec).value
    cells = fundamental_cells(spec)
    a = V("a")
    chunks = [LaurentPoly.zero(), LaurentPoly.zero()]
    for idx, m in enumerate(gen_asms(4, "ht")):
        st = to_state(m)
        w = LaurentPoly.const(1)
        for i, j, xv, yv in cells:
            w = w * vertex_weight(st[i, j], xv, yv)
        chunks[idx % 2] = chunks[idx % 2] + w
    assert chunks[0] + chunks[1] == full


def random_assignment(rng, spec, a):
    assign = {"a": a}
    for names in spec.spectral_vars():
        for v in names:
            assign[v] = Cyclo(Fraction(rng.randint(1, 50), rng.randint(1, 50)))
    return assign


TRANSFER_RANGE = (("dwbc", range(1, 6)), ("ht-even", range(1, 4)), ("ht-odd", range(0, 4)))


def _row_major_cells(spec):
    """The fundamental domain by its definition, as a set: every cell for
    dwbc; for the half-turn kinds columns 1..m of every row, row i weighted
    by x_min(i, n+1-i), plus rows m+2..n of an odd central column."""
    n, m = spec.order, spec.order // 2
    if spec.kind == "dwbc":
        return {(i, j, f"x{i}", f"y{j}") for i in range(1, n + 1) for j in range(1, n + 1)}
    cells = {(i, j, f"x{min(i, n + 1 - i)}", f"y{j}")
             for i in range(1, n + 1) for j in range(1, m + 1)}
    if n % 2:
        cells |= {(i, m + 1, f"x{n + 1 - i}", f"y{m + 1}") for i in range(m + 2, n + 1)}
    return cells


def test_plan_step_k_is_fundamental_cell_k():
    # Step k of the plan visits the k-th plan cell and weighs with the k-th
    # fundamental cell: that cell itself or its half-turn image.
    for kind, sizes in TRANSFER_RANGE:
        for size in sizes:
            spec = ModelSpec(kind, size)
            n = spec.order
            steps, _, _ = _transfer_plan(n, spec.klass)
            cells = fundamental_cells(spec)
            plan_cells = _plan_cells(n, spec.klass)
            assert len(steps) == len(cells) == len(plan_cells), (kind, size)
            for (i, j), (fi, fj, _, _) in zip(plan_cells, cells):
                assert (fi, fj) in ((i, j), (n + 1 - i, n + 1 - j)), (kind, size, i, j)
            assert len(set(cells)) == len(cells)
            assert set(cells) == _row_major_cells(spec), (kind, size)


def _lcm_point_weights(spec, assignment):
    """The reference weights: each cell's field weight triple times the lcm
    of its three denominators, as Cyclos, and the product of those lcms."""
    a = Cyclo.of(assignment["a"])
    a_inv = a.inverse()
    sig_a2 = a * a - a_inv * a_inv
    weights, scale = [], 1
    for _, _, xv, yv in fundamental_cells(spec):
        s = Cyclo.of(assignment[xv]) * Cyclo.of(assignment[yv]).inverse()
        s_inv = s.inverse()
        # sigma(a s) = a s - 1/(a s) and sigma(a/s) = a/s - s/a
        parts = [w.integer_parts() for w in
                 (sig_a2, a * s - a_inv * s_inv, a * s_inv - a_inv * s)]
        d = lcm(*(e for _, _, e in parts))
        weights.append(tuple(Cyclo(p * (d // e), q * (d // e)) for p, q, e in parts))
        scale *= d
    return weights, scale


def test_transfer_matches_brute_sums_at_points():
    rng = random.Random(29)
    for kind, sizes in TRANSFER_RANGE:
        for size in sizes:
            spec = ModelSpec(kind, size)
            for a in (ZETA, Cyclo(Fraction(rng.randint(1, 9), rng.randint(10, 19)))):
                pairs, scale = _pair_weights(kind, size, random_assignment(rng, spec, a))
                assert all(type(p) is int for triple in pairs for w in triple for p in w)
                assert Cyclo(*scale)
                weights = [tuple(Cyclo(*w) for w in triple) for triple in pairs]
                brute = reference_state_sums(kind, size, weights, Cyclo.of(1))
                assert transfer_sums(kind, size, weights, Cyclo.of(1)) == brute, (kind, size, a)
                total = sum((v for v, _ in brute.values()), Cyclo.of(0))
                assert _state_sums(kind, size, weights, Cyclo.of(1)) == total, (kind, size, a)
                steps, _, _ = _transfer_plan(spec.order, spec.klass)
                assert Cyclo(*_run_pairs(steps, pairs)) == total, (kind, size, a)


def test_pair_run_matches_the_lcm_scaled_reference():
    # The integer-pair weights and run against the field weights scaled cell
    # by cell by the lcm of their denominators, through the generic plan run:
    # sum / scale must agree, cross-multiplied so that nothing is divided.
    rng = random.Random(37)
    for kind, sizes in TRANSFER_RANGE:
        for size in sizes:
            spec = ModelSpec(kind, size)
            steps, centrals, _ = _transfer_plan(spec.order, spec.klass)
            for a, style in EVALUATED_POINTS:
                assign = {"a": _point_value(rng, style) if a is None else a}
                for names in spec.spectral_vars():
                    for v in names:
                        assign[v] = _point_value(rng, style)
                pairs, scale = _pair_weights(kind, size, assign)
                total = Cyclo(*_run_pairs(steps, pairs))
                ref_weights, ref_scale = _lcm_point_weights(spec, assign)
                ref = sum(_run_plan(steps, centrals, ref_weights, Cyclo.of(1)).values(),
                          Cyclo.of(0))
                assert total * ref_scale == ref * Cyclo(*scale), (kind, size, assign)


def test_transfer_matches_brute_sums_symbolically():
    # {central entry: (sum, count)} by the plan against the per-state loop,
    # part by part, counts too.
    for kind, sizes in (("dwbc", range(1, 4)), ("ht-even", range(1, 4)), ("ht-odd", range(0, 3))):
        for size in sizes:
            fast = transfer_sums(kind, size, _symbolic_weights(kind, size), LaurentPoly.const(1))
            assert fast == symbolic_reference(kind, size), (kind, size)


def transfer_sums(kind, size, weights, one):
    """{central entry: (sum, state count)} by the compiled transfer plan:
    its sums in the ring of `one`, and its unit-weight counts."""
    spec = ModelSpec(kind, size)
    steps, centrals, counts = _transfer_plan(spec.order, spec.klass)
    return {c: (v, counts[c]) for c, v in _run_plan(steps, centrals, weights, one).items()}


def reference_state_sums(kind, size, weights, one):
    """{central entry: (sum, state count)} over the listed states with no
    shared work: every state read from the ASM stream, its product
    multiplied out alone and put in the part of its own central entry (0
    for dwbc and ht-even).  The products of a part are added pairwise, so
    that no running total is copied once per state."""
    spec = ModelSpec(kind, size)
    cells = fundamental_cells(spec)
    mid = (spec.order + 1) // 2
    parts = {}
    for m in gen_asms(spec.order, "all" if kind == "dwbc" else "ht"):
        st = to_state(m)
        w = one
        for triple, (i, j, _, _) in zip(weights, cells):
            w = w * triple[TYPE_CLASS[st[i, j]]]
        parts.setdefault(m[mid, mid] if kind == "ht-odd" else 0, []).append(w)
    sums = {}
    for central, products in parts.items():
        count = len(products)
        while len(products) > 1:
            products = [sum(products[k + 1:k + 2], products[k]) for k in range(0, len(products), 2)]
        sums[central] = (products[0], count)
    return sums


@lru_cache(maxsize=None)
def symbolic_reference(kind, size):
    """`reference_state_sums` over the oracle's own symbolic weights, shared
    by the tests (Z_HT(6) takes seconds)."""
    weights = [tuple(vertex_weight(t, xv, yv) for t in (1, 3, 5))
               for _, _, xv, yv in fundamental_cells(ModelSpec(kind, size))]
    return reference_state_sums(kind, size, weights, LaurentPoly.const(1))


def test_horner_sums_match_the_per_state_products():
    one = LaurentPoly.const(1)
    for kind, sizes in (("dwbc", range(1, 5)), ("ht-even", range(1, 4)), ("ht-odd", range(0, 3))):
        for size in sizes:
            # One total over every central entry.
            total = sum((v for v, _ in symbolic_reference(kind, size).values()), LaurentPoly.zero())
            assert _state_sums(kind, size, _symbolic_weights(kind, size), one) == total, (kind, size)


def test_class_codes_fix_the_state():
    # Distinct states have distinct code vectors, so every leaf of the
    # Horner sum holds one state; each central entry's group is sorted, and
    # the groups together hold every state once.
    for kind, sizes in TRANSFER_RANGE:
        for size in sizes:
            groups = icemodel._state_profiles(kind, size)
            assert len({central for central, _ in groups}) == len(groups), (kind, size)
            codes = [c for _, group in groups for c in group]
            assert len(set(codes)) == len(codes), (kind, size)
            assert all(list(group) == sorted(group) for _, group in groups), (kind, size)
            counts = state_counts(ModelSpec(kind, size))
            assert {central: len(group) for central, group in groups} == counts, (kind, size)


def test_transfer_counts_are_the_closed_counts():
    # The plan's state counts against the product formulas, and against the
    # census, which lists every matrix, for orders <= 7 (the all-class
    # census of order 7 takes seconds, so it stops at n = 6).
    for kind, sizes in TRANSFER_RANGE:
        for size in range(sizes.start, sizes.stop + 2):
            spec = ModelSpec(kind, size)
            counts = state_counts(spec)
            units = [(1, 1, 1)] * len(fundamental_cells(spec))
            unit = transfer_sums(kind, size, units, 1)
            assert unit == {c: (n, n) for c, n in counts.items()}
            if size in sizes:
                assert reference_state_sums(kind, size, units, 1) == unit, (kind, size)
                assert _state_sums(kind, size, units, 1) == sum(counts.values()), (kind, size)
            family = "asm" if kind == "dwbc" else kind
            assert sum(counts.values()) == count_closed(family, spec.order)
            if kind == "ht-odd" and size:
                assert counts == {1: count_closed("ht-odd-plus", spec.order),
                                  -1: count_closed("ht-odd-minus", spec.order)}
            if spec.order <= (6 if kind == "dwbc" else 7):
                tab = census(spec.order, "all" if kind == "dwbc" else "ht")
                split = {}
                for (_, central), poly in tab.rows.items():
                    key = 0 if central is None else central
                    split[key] = split.get(key, 0) + sum(poly.terms.values())
                assert counts == split, (kind, size)
    counts = state_counts(ModelSpec("dwbc", 3))
    counts[0] += 1  # a copy: the compiled plan's counts stay as they were
    assert state_counts(ModelSpec("dwbc", 3)) == {0: 7}


@pytest.mark.parametrize("order,klass", [(n, "all") for n in range(1, 7)]
                         + [(n, "ht") for n in range(1, 10)])
def test_plan_census_is_the_listing_census(order, klass):
    assert icemodel.census(order, klass) == census(order, klass)


def monomial_census(order, klass):
    """The plan census over Laurent monomials: the compiled plan run once
    with class-0 weight u, times t^(r-1) where the cell puts the first
    column's 1 in row r, and 1 for the other classes; each term u^e t^(r-1)
    of a central entry's sum is read back as its k and r."""
    steps, centrals, _ = _transfer_plan(order, klass)
    n, turned = order, klass == "ht"
    one, u = LaurentPoly.const(1), V("u")
    weights = []
    for i, j in _plan_cells(order, klass):
        r = i if j == 1 else n + 1 - i if turned and j == n else None
        weights.append((u if r is None else M(1, {"u": 1, "t": r - 1}), one, one))
    tally = {}
    for central, poly in _run_plan(steps, centrals, weights, one).items():
        for exps, hits in poly.tuple_terms().items():
            e = dict(zip(poly.vars, exps))
            k = e.get("u", 0) - n // 2 if turned else (e.get("u", 0) - n) // 2
            tally[k, e.get("t", 0) + 1, central] = hits
    return CensusTable.from_tally(order, klass, tally)


@pytest.mark.parametrize("order,klass", [(n, "all") for n in range(1, 8)]
                         + [(n, "ht") for n in range(1, 12)])
def test_packed_census_is_the_monomial_census(order, klass):
    # Order 1 of the half-turn class has no plan cell; the odd orders split
    # by the central entry; dwbc 7 and half-turn 10 and 11 are past the
    # listing census.
    assert icemodel.census(order, klass) == monomial_census(order, klass)


def test_plan_census_past_the_listing():
    for order, klass, family in ((7, "all", "asm"), (10, "ht", "ht-even"),
                                 (11, "ht", "ht-odd")):
        assert icemodel.census(order, klass).count == count_closed(family, order)
    assert icemodel.census(7).genfunc().substitute({"x": 1}) == refined_asm_closed(7)
    # refined_ht_odd builds the split at x = 1 from the closed forms.
    plus, minus = icemodel.census(11, "ht").split_by_center()
    assert (plus.substitute({"x": 1}), minus.substitute({"x": 1})) \
        == refined_ht_odd(5)[:2]


def test_plan_census_refuses_bad_classes_and_oversized_orders():
    with pytest.raises(ValueError, match="order must be >= 1"):
        icemodel.census(0)
    with pytest.raises(ValueError, match="unknown class"):
        icemodel.census(3, "odd")
    # Half-turn order 16 and order 15 are the first past the plan bound.
    for order, klass in ((16, "ht"), (15, "all")):
        with pytest.raises(SizeTooLarge, match=f"order {order} [(]{klass}[)] is past"):
            icemodel.census(order, klass)


def test_transfer_matches_the_determinant_past_the_brute_range():
    rng = random.Random(31)
    for n in (6, 7):
        spec = ModelSpec("dwbc", n)
        u = random_distinct_rationals(rng, 2 * n)
        assign = {"a": ZETA} | {f"x{i + 1}": Cyclo(u[2 * i]) for i in range(n)} \
            | {f"y{i + 1}": Cyclo(u[2 * i + 1]) for i in range(n)}
        res = partition_function(spec, assign)
        assert res.state_count == count_closed("asm", n)
        assert res.value == special_z("dwbc", n, u)


def test_evaluated_sums_and_censuses_reach_the_plan_bound():
    # Past the 10^7 states that hold the symbolic sums, up to the largest
    # plans under the plan bound, each against a second route: the
    # determinant forms at a = zeta and the closed-form counts.
    rng = random.Random(38)
    for kind, size, family in (("ht-odd", 7, "ht-odd"), ("ht-even", 7, "ht-even"),
                               ("dwbc", 12, "asm")):
        spec = ModelSpec(kind, size)
        u = random_distinct_rationals(rng, 2 * size + (kind == "ht-odd"))
        res = partition_function(spec, _assign_interleaved(u, size))
        assert res.state_count == count_closed(family, spec.order)
        want = (special_z("dwbc", size, u) * special_z("ht2", size, u) if kind == "ht-even"
                else special_z(kind, size, u))
        assert res.value == want, (kind, size)
    assert icemodel.census(13, "ht").count == count_closed("ht-odd", 13)
    assert icemodel.census(10).count == count_closed("asm", 10)


def test_oversized_plans_are_refused_before_anything_is_built(monkeypatch, capsys):
    # Each of these once reached _live_targets, whose bitsets have 2^(n+1)
    # bits each: gigabytes at n = 24 or 30.  The plan bound reads the order
    # alone, so nothing of the plan is built.
    def forbidden(*args):
        raise AssertionError("a refused order started to build its plan")

    monkeypatch.setattr(enum_asm, "_live_targets", forbidden)
    monkeypatch.setattr(enum_asm, "_plan_cells", forbidden)
    monkeypatch.setattr(icemodel, "_plan_cells", forbidden)
    with pytest.raises(SizeTooLarge, match=r"^order 30 \(all\) is past the plan bound"):
        gen_asms(30)  # at call time, not at the first matrix
    with pytest.raises(SizeTooLarge, match=r"^order 24 \(all\) is past the plan bound"):
        partition_function(ModelSpec("dwbc", 24), max_states=10 ** 70)
    for route in (icemodel.census, census):
        with pytest.raises(SizeTooLarge, match=r"^order 31 \(all\) is past the plan bound"):
            route(31)
    for argv in (["enumerate", "--order", "99999999999999999999", "--count"],
                 ["partition", "-n", "24", "--max-states", str(10 ** 70)]):
        started = time.perf_counter()
        code = cli.main(argv)
        assert time.perf_counter() - started < 1
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and len(captured.err.splitlines()) == 1
        assert "is past the plan bound" in captured.err
