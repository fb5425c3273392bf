"""The verification engine itself: reports, determinism, failure witnesses."""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from halfturn_ice import icemodel, verify
from halfturn_ice.cli import main
from halfturn_ice.determinant import random_distinct_rationals, special_z
from halfturn_ice.enum_asm import CensusTable
from halfturn_ice.exactnum import ZETA, Cyclo
from halfturn_ice.laurent import LaurentPoly
from halfturn_ice.verify import (
    SUITES, UnknownSuite, _WITNESS_CAP, _Run, _clip, run_suite)
from test_laurent import value_at

CHEAP_SUITES = [
    "ybe", "leading-C-S", "lemma2-counts", "lemma7-12-counts", "genfunc",
    "ht-even-leading", "factorization", "ht2-recursion", "ht-odd-leading",
    "parity", "counts-closed", "refined-1", "refined-split", "four-enum",
]


@pytest.mark.parametrize("suite_id", CHEAP_SUITES)
def test_cheap_suites_pass(suite_id):
    report = run_suite(suite_id)
    assert report.passed, report.witness
    assert report.checks_run > 0
    assert report.witness is None


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("does-not-exist")


def test_reports_are_deterministic():
    a = run_suite("det-oracle", seed=7)
    b = run_suite("det-oracle", seed=7)
    assert a.to_json() == b.to_json()
    c = run_suite("det-oracle", seed=8)
    assert c.passed  # different points, same verdict


def test_report_json_shape():
    rep = run_suite("parity")
    obj = rep.to_json_obj()
    assert obj["schemaVersion"] == 1
    assert obj["suiteId"] == "parity"
    assert obj["status"] == "pass"
    assert obj["witness"] is None
    assert "elapsedSeconds" not in obj
    assert "elapsedSeconds" in rep.to_json_obj(include_elapsed=True)


def _ybe_with_z(monkeypatch, wrong_z):
    """The ybe suite with ybe_components taking z = wrong_z(x, y, z)."""
    real = verify.ybe_components
    monkeypatch.setattr(verify, "ybe_components",
                        lambda x, y, z=None: real(x, y, wrong_z(x, y, z)))
    return run_suite("ybe")


def test_ybe_negative_control_has_witness(monkeypatch):
    # z = x instead of a/(x*y) at the symbolic point breaks the triangle move.
    rep = _ybe_with_z(monkeypatch, lambda x, y, z: x)
    assert not rep.passed
    assert rep.witness["check"].startswith("symbolic component")
    assert "lhs" in rep.witness and "rhs" in rep.witness


def test_ybe_unit_point(monkeypatch):
    rep = run_suite("ybe")
    assert rep.passed and rep.checks_run == 64 + 1 + 64  # symbolic, control, unit
    # The 64 unit-point checks are live: z = a^2 at x = y = 1 fails there.
    one, a = LaurentPoly.const(1), LaurentPoly.var("a")
    rep = _ybe_with_z(monkeypatch, lambda x, y, z: a * a if x == one else z)
    assert not rep.passed
    assert rep.witness["check"].startswith("unit component")


@pytest.mark.parametrize("kind, size, delta, check", [
    ("dwbc", 4, {0: 1}, "plain count n=4"),
    ("ht-even", 3, {0: -1}, "half-turn count order=6"),
    ("ht-odd", 0, {1: 1}, "half-turn count order=1"),
    ("ht-odd", 3, {-1: 1}, "half-turn count order=7"),
    ("ht-odd", 2, {1: 1, -1: -1}, "central +1 count order=5"),
])
def test_counts_closed_negative_control(monkeypatch, kind, size, delta, check):
    # One plan count off by one (the total kept in the last case) fails the
    # check that reads it.
    real = icemodel.state_counts

    def off_by_one(spec):
        counts = real(spec)
        if (spec.kind, spec.size) == (kind, size):
            for central, d in delta.items():
                counts[central] += d
        return counts

    monkeypatch.setattr(icemodel, "state_counts", off_by_one)
    rep = run_suite("counts-closed")
    assert not rep.passed
    assert rep.witness["check"] == check
    assert abs(int(rep.witness["lhs"]) - int(rep.witness["rhs"])) == 1


def test_ht_odd_inversion_negative_control(monkeypatch):
    assert run_suite("ht-odd-inversion", {"m_max": 1}).passed
    # Every variable but y1 inverted.
    real = LaurentPoly.substitute
    monkeypatch.setattr(LaurentPoly, "substitute", lambda self, mapping: real(
        self, {v: value for v, value in mapping.items() if v != "y1"}))
    rep = run_suite("ht-odd-inversion", {"m_max": 1})
    assert not rep.passed
    assert rep.witness["check"] == "invariance under reciprocal variables, m=1"
    assert rep.witness["lhs"] != rep.witness["rhs"]


def test_orbit_weighted_checks_do_not_read_the_split(monkeypatch):
    # With the t^0 terms of the split's minus part dropped, the split checks
    # fail, and the orbit-weighted ones, which read the unsplit census, pass.
    real = CensusTable.split_by_center

    def drop_minus_t0(self):
        plus, minus = real(self)
        it = minus.vars.index("t")
        return plus, LaurentPoly(minus.vars, {e: c for e, c in minus.tuple_terms().items()
                                              if e[it]})

    monkeypatch.setattr(CensusTable, "split_by_center", drop_minus_t0)
    outcomes = {}
    monkeypatch.setattr(_Run, "check", lambda self, name, lhs, rhs, **context:
                        outcomes.__setitem__(name, lhs == rhs))
    run_suite("refined-split", {"orders": [5, 7]})
    for order in (5, 7):
        assert not outcomes[f"central -1 refined order={order}"]
        assert outcomes[f"orbit-weighted column order={order}"]
    assert outcomes["symbolic orbit-weighted m=1"]


@pytest.mark.parametrize("seed", (42, 7, 8))
def test_det_oracle_transpositions_fail_at_generic_a(monkeypatch, seed):
    # The suite's own draws with a = 3/7 in place of zeta, the only input
    # changed: each transposition must then change the state sum, so the
    # symmetry it checks at a = zeta is no identity of every a.
    real = verify._assign_interleaved
    monkeypatch.setattr(verify, "_assign_interleaved",
                        lambda u, size: real(u, size) | {"a": Cyclo(Fraction(3, 7))})
    outcomes = []
    monkeypatch.setattr(_Run, "check", lambda self, name, lhs, rhs, **context:
                        outcomes.append((name, lhs == rhs)))
    run_suite("det-oracle", seed=seed)
    swaps = [(name, same) for name, same in outcomes if name.startswith("u-permutation")]
    assert swaps == [(f"u-permutation invariance of the state sum, {model}", False)
                     for model in ("dwbc", "ht2", "ht-odd")]


def test_theorem_suites_through_run_suite():
    assert run_suite("theorem1", {"m_max": 1}).passed
    rep2 = run_suite("theorem2", {"m_max": 1})
    assert rep2.passed and rep2.params["eq25_reading"] == "2m+2"
    rep3 = run_suite("theorem3", {"m_max": 1, "points": 5}, seed=3)
    assert rep3.passed and rep3.checks_run == 10  # m = 0 and m = 1, five points each
    with pytest.raises(UnknownSuite):
        run_suite("theorem4")


@pytest.mark.parametrize("tamper", ["swap", "move-term"])
def test_theorem2_catches_a_wrong_split(monkeypatch, tamper):
    # At m = 1, swap the two parts, or move one term of the +1 part into the
    # -1 part.  Either keeps the total, so the sum check passes; the signed
    # difference check is the one that fails.
    split = icemodel.z_split_odd

    def wrong(m):
        plus, minus = split(m)
        if m != 1:
            return plus, minus
        if tamper == "swap":
            return minus, plus
        exps, coeff = next(iter(plus.value.tuple_terms().items()))
        term = LaurentPoly(plus.value.vars, {exps: coeff})
        return plus._replace(value=plus.value - term), minus._replace(value=minus.value + term)

    monkeypatch.setattr(icemodel, "z_split_odd", wrong)
    plus, minus = icemodel.z_split_odd(1)
    assert (plus.value, minus.value) != tuple(r.value for r in split(1))
    assert plus.value + minus.value == sum(r.value for r in split(1))
    rep = run_suite("theorem2", {"m_max": 1})
    assert rep.status == "fail" and rep.checks_run == 8
    assert rep.witness["check"] == "(-1)^m split difference == total at a -> -a, m=1"
    assert rep.witness["m"] == "1"


def test_refined_1_needs_exactly_one_reading(monkeypatch):
    # A formula that fits the census under both readings resolves nothing.
    formula = verify.formulas._refined_ht2_formula
    monkeypatch.setattr(verify.formulas, "_refined_ht2_formula",
                        lambda m, reading: formula(m, "factorial"))
    rep = run_suite("refined-1")
    assert rep.status == "fail"
    assert rep.witness == {"check": "one factorial reading matches the census",
                           "readings": "['factorial', 'plain']"}
    assert rep.params["ht2_reading"] is None


def test_an_arithmetic_error_ends_the_suite_as_a_failure(monkeypatch):
    def raising(run, params, rng):
        run.check("fine", 1, 1)
        raise ZeroDivisionError("division by zero")

    monkeypatch.setitem(SUITES, "ybe", (raising, {}))
    rep = run_suite("ybe")
    assert (rep.status, rep.checks_run) == ("fail", 2)
    assert rep.witness == {"check": "suite raised", "error": "ZeroDivisionError: division by zero"}

    def overflowing(run, params, rng):
        raise OverflowError("too big")

    monkeypatch.setitem(SUITES, "ybe", (overflowing, {}))
    with pytest.raises(OverflowError):
        run_suite("ybe")


def test_an_oversized_suite_still_raises():
    # Theorem 3 runs through m = 7, ht-odd order 15; order 17 is past the
    # plan bound.
    with pytest.raises(icemodel.SizeTooLarge, match=r"order 17 \(ht\) is past the plan bound"):
        run_suite("theorem3", {"m_max": 8, "points": 1})


def test_plain_reading_fails_refined_1_without_raising(monkeypatch, capsys):
    # Under the plain reading the cofactor's closed form at m = 3 is not an
    # integer; the suite keeps its first failure, the reading check.
    monkeypatch.setattr(verify.formulas, "HT2_READING", "plain")
    rep = run_suite("refined-1")
    assert (rep.status, rep.checks_run) == ("fail", 10)
    assert rep.witness == {"check": "one factorial reading matches the census",
                           "readings": "['factorial']"}
    # The reading resolved before the error stays in the report.
    assert rep.params == {"ht2_reading": "factorial"}
    assert main(["verify", "--suite", "refined-1"]) == 1
    capsys.readouterr()


def _one_more_ht_matrix(real):
    """`real` with every half-turn table given one more matrix, at an
    exponent its first row already has."""
    def census(order, klass="all"):
        tab = real(order, klass)
        if klass != "ht":
            return tab
        key, row = tab.ordered_rows()[0]
        exps = next(iter(row.tuple_terms()))
        rows = dict(tab.rows)
        rows[key] = row + LaurentPoly(row.vars, {exps: 1})
        return CensusTable(tab.order, tab.klass, tab.weight_var, rows, tab.count + 1)
    return census


@pytest.mark.parametrize("suite_id,params", [
    ("refined-1", None), ("refined-split", None),
    ("xenum", {"n_max": 3, "m_max": 1}), ("four-enum", None),
])
def test_enumeration_suites_fail_on_a_wrong_census(monkeypatch, suite_id, params):
    monkeypatch.setattr(verify, "census", _one_more_ht_matrix(verify.census))
    rep = run_suite(suite_id, params)
    assert rep.status == "fail"
    assert rep.witness["check"] != "no checks ran"


@pytest.mark.parametrize("suite_id", ["refined-1", "xenum", "refined-split", "four-enum"])
def test_enumeration_suites_build_each_census_once(monkeypatch, suite_id):
    calls, real = Counter(), verify.census

    def counting(order, klass="all"):
        calls[order, klass] += 1
        return real(order, klass)

    monkeypatch.setattr(verify, "census", counting)
    assert run_suite(suite_id).passed
    assert calls and set(calls.values()) == {1}


def test_enumeration_suites_list_no_matrix():
    # The catalog reads the plan census; the listing census stays cold.
    probe = ("from halfturn_ice import enum_asm, verify\n"
             "for suite in ('refined-1', 'xenum', 'refined-split', 'four-enum'):\n"
             "    assert verify.run_suite(suite).passed, suite\n"
             "print(enum_asm.census.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0"]


def test_run_keeps_first_failure_and_clips():
    run = _Run()
    run.check("equal", 1, 1)
    run.check("first", 1, 2, n=3)
    run.check("second", 5, 6)
    run.check_true("third", False)
    assert run.checks == 4
    assert run.witness == {"check": "first", "n": "3", "lhs": "1", "rhs": "2"}

    at_cap, over = "x" * _WITNESS_CAP, "y" * (_WITNESS_CAP + 1)
    assert _clip(at_cap) == at_cap
    assert _clip(over) == "y" * _WITNESS_CAP + "...<clipped>"
    run = _Run()
    run.check("long", over, at_cap, context=over)
    assert run.witness == {"check": "long", "context": _clip(over),
                           "lhs": _clip(over), "rhs": at_cap}


def test_suite_without_checks_fails():
    rep = run_suite("theorem3", {"m_max": -1})
    assert rep.checks_run == 0
    assert rep.status == "fail"
    assert rep.witness == {"check": "no checks ran"}


def test_suite_params_override():
    rep = run_suite("three-term", {"n_max": 1, "m_max": 1, "points": 2})
    assert rep.passed
    assert rep.checks_run == 8  # two sizes, two coordinates each, two points


def test_recorded_readings():
    rep = run_suite("refined-1")
    assert rep.params["ht2_reading"] == "factorial"
    rep2 = run_suite("theorem2", {"m_max": 0})
    assert rep2.params["eq25_reading"] == "2m+2"
    rep3 = run_suite("ht-even-leading", {"m_max": 1})
    assert rep3.params["cofactor_subleading_sign"] == ["minus"]


def test_catalog_is_complete():
    expected = {
        "ybe", "dwbc-recursion", "dwbc-symmetry", "leading-C-S", "lemma2-counts",
        "lemma7-12-counts", "genfunc", "ht-even-recursion", "ht-even-leading",
        "factorization", "ht2-recursion", "ht-odd-recursion", "ht-odd-inversion",
        "ht-odd-leading", "theorem1", "theorem2", "theorem3", "parity",
        "special-recursion", "three-term", "det-oracle", "wronskian",
        "counts-closed", "refined-1", "xenum", "refined-split", "four-enum",
    }
    assert set(SUITES) == expected


def test_cofactor_at_a_point_is_the_symbolic_cofactor_evaluated():
    # The reference route: the symbolic Z_HT(2m)/Z(m), evaluated.
    rng = random.Random(37)
    for m, points in ((1, 3), (2, 3), (3, 1)):
        symbolic = verify._Z("ht2", m)
        for _ in range(points):
            u = tuple(Cyclo.of(f) for f in random_distinct_rationals(rng, 2 * m))
            at = verify._assign_interleaved(u, m)
            assert verify._Z("ht2", m, u) == value_at(symbolic, at), (m, u)


def test_wronskian_matches_the_cofactor_form():
    # The reference route: Z(lo) Z2(hi) - Z2(lo) Z(hi) with every factor
    # from its own evaluated sums.
    rng = random.Random(41)
    a2 = ZETA * ZETA
    for m in (1, 2):
        for _ in range(2):
            u = tuple(Cyclo.of(f) for f in random_distinct_rationals(rng, 2 * m))
            lo, hi = u[:-1] + (u[-1] / a2,), u[:-1] + (a2 * u[-1],)
            want = (verify._Z("dwbc", m, lo) * verify._Z("ht2", m, hi)
                    - verify._Z("ht2", m, lo) * verify._Z("dwbc", m, hi))
            assert verify._wronskian(m, u) == want, (m, u)


@pytest.mark.parametrize("size", [0, 1, 2])
@pytest.mark.parametrize("model", ["dwbc", "ht-even", "ht-odd", "ht2"])
def test_state_sum_evaluator_agrees_across_its_modes(model, size):
    # The symbolic sum evaluated at the interleaved point is the evaluated
    # sum; at a = zeta both are the determinant form where one is defined.
    # With a moved off zeta the symbolic sum (in a whenever it is not the
    # empty matrix's 1) takes another value, so an evaluator that ignored
    # its point could not pass.
    rng = random.Random(53)
    symbolic = verify._Z(model, size)
    assert isinstance(symbolic, LaurentPoly)
    for _ in range(2):
        u = random_distinct_rationals(rng, 2 * size + (model == "ht-odd"))
        at = verify._Z(model, size, u)
        point = verify._assign_interleaved(u, size)
        assert at == value_at(symbolic, point)
        if symbolic.vars:
            assert value_at(symbolic, point | {"a": 2 * ZETA}) != at, (model, size, u)
        if model != "ht-even" and (size or model == "ht-odd"):
            assert at == special_z(model, size, u), (model, size, u)


@pytest.mark.parametrize("kind,size", [("dwbc", 2), ("dwbc", 3), ("ht-even", 2), ("ht-odd", 2)])
def test_spectral_degrees_match_the_tuple_reference(kind, size):
    zt = verify._Zt(kind, size)
    ia = zt.vars.index("a")
    want = {sum(e) - e[ia] for e in zt.tuple_terms()}
    assert len(want) == 1
    assert verify._spectral_degrees(zt) == want
    # Without a, every exponent counts; a spread of degrees is kept apart.
    spread = zt.coeff_of({"a": zt.degree_in("a")}) + LaurentPoly.monomial(3, {"x1": -2, "y1": 5})
    assert verify._spectral_degrees(spread) == {sum(e) for e in spread.tuple_terms()}
    assert len(verify._spectral_degrees(spread)) == 2
