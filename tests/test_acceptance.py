"""Acceptance criteria, one test per criterion.

Every check here is exact (integer, rational or Q(zeta) equality; symbolic
Laurent identities compared in canonical form), so the only tolerances are
the stated time budgets.  Run with `pytest tests/test_acceptance.py -v -s`
to see one pass line per criterion.
"""

import hashlib
import time
from pathlib import Path

from halfturn_ice import formulas, verify
from halfturn_ice.cli import main
from halfturn_ice.enum_asm import census, gen_asms
from halfturn_ice.laurent import LaurentPoly

# The sha256 of `verify --all --seed 42 --format json`; CI checks the same
# digest under two hash seeds.
VERIFY_ALL_DIGEST = Path(__file__).resolve().parent / "data" / "verify_all_seed42.sha256"


def _criterion(num, text):
    print(f"[criterion {num:02d}] PASS  {text}")


def _run(suite_id, params=None):
    report = verify.run_suite(suite_id, params)
    assert report.passed, (suite_id, report.witness)
    return report


def test_criterion_01_counting_oracle():
    t0 = time.time()
    assert [census(n, "all").count for n in range(1, 7)] == \
        [formulas.count_asm(n) for n in range(1, 7)] == [1, 2, 7, 42, 429, 7436]
    assert [census(k, "ht").count for k in (2, 4, 6)] == \
        [formulas.count_ht_even(k) for k in (2, 4, 6)] == [2, 10, 140]
    assert [census(k, "ht").count for k in (1, 3, 5, 7)] == \
        [formulas.count_ht_odd(k) for k in (1, 3, 5, 7)] == [1, 3, 25, 588]
    elapsed = time.time() - t0
    assert elapsed < 120, f"counting oracle took {elapsed:.1f}s"
    _criterion(1, f"brute-force counts equal closed forms ({elapsed:.1f}s)")


def test_criterion_02_central_entry_split():
    for order, want in ((3, (2, 1)), (5, (15, 10)), (7, (336, 252))):
        mid = (order + 1) // 2
        plus = sum(1 for m in gen_asms(order, "ht") if m[mid, mid] == 1)
        total = census(order, "ht").count
        assert (plus, total - plus) == want
        assert plus == formulas.count_closed("ht-odd-plus", order)
        assert total - plus == formulas.count_closed("ht-odd-minus", order)
    _criterion(2, "central-entry splits (2,1), (15,10), (336,252) match the ratios")


def test_criterion_03_generating_functions():
    t0 = time.time()
    _run("genfunc", {"n_max": 7, "ht_order_max": 8})
    elapsed = time.time() - t0
    assert elapsed < 10, f"genfunc took {elapsed:.1f}s"
    _criterion(3, f"inversion generating functions brute = closed ({elapsed:.1f}s)")


def test_criterion_04_vertex_count_lemmas():
    _run("lemma2-counts", {"n_max": 5})
    _run("lemma7-12-counts", {"order_max": 7})
    _criterion(4, "vertex-count identities exhaustive, orders <= 5 / <= 7")


def test_criterion_05_recursions():
    _run("dwbc-recursion", {"n_max": 4})
    _run("ht-even-recursion", {"m_max": 2})
    _run("ht-odd-recursion", {"m_max": 2})
    _run("special-recursion", {"n_max": 4, "m_max": 2, "points": 10})
    _criterion(5, "all reduction recursions hold (symbolic n<=4 / m<=2, 10 points)")


def test_criterion_06_leading_terms():
    _run("leading-C-S", {"n_max": 3})
    rep = _run("ht-even-leading", {"m_max": 2})
    assert rep.params["cofactor_subleading_sign"] == ["minus"]
    _run("ht-odd-leading", {"m_max": 2})
    _criterion(6, "leading coefficients match the product formulas")


def test_criterion_07_factorization():
    rep = _run("factorization", {"m_max": 2})
    assert rep.checks_run >= 4  # NotDivisible would have aborted the suite
    _criterion(7, "half-turn sum factors exactly through the plain sum, m <= 2")


def test_criterion_08_theorem1():
    t0 = time.time()
    _run("theorem1", {"m_max": 2})
    elapsed = time.time() - t0
    assert elapsed < 300, f"theorem1 took {elapsed:.1f}s"
    _criterion(8, f"odd-order factorization identity, m <= 2, symbolic ({elapsed:.1f}s)")


def test_criterion_09_theorem2():
    rep = _run("theorem2", {"m_max": 2})
    assert rep.params["eq25_reading"] == "2m+2"
    _criterion(9, "central-entry split identities: total, signed difference, displayed")


def test_criterion_10_determinant_oracles():
    _run("det-oracle", {"n_max": 3, "m_max": 2, "points": 20})
    _run("theorem3", {"m_max": 2, "points": 20})
    _criterion(10, "determinant representations equal state sums at 20 random points")


def test_criterion_11_three_term():
    _run("three-term", {"n_max": 2, "m_max": 2, "points": 10})
    _criterion(11, "three-term relations vanish at 10 points per coordinate")


def test_criterion_12_refined_formulas():
    rep = _run("refined-1")
    assert rep.params["ht2_reading"] == "factorial"
    t = LaurentPoly.var("t")
    assert formulas.refined_asm_closed(3) == 2 + 3 * t + 2 * t ** 2
    assert formulas.refined_asm_closed(4) == 7 + 14 * t + 14 * t ** 2 + 7 * t ** 3
    _criterion(12, "refined formulas match brute force (factorial reading)")


def test_criterion_13_xenum_identities():
    _run("xenum", {"n_max": 4, "m_max": 2})
    _criterion(13, "x-enumeration identities hold symbolically in (a, v)")


def test_criterion_14_four_enumeration():
    _run("four-enum", {"m_max": 3})
    _criterion(14, "4-enumeration product identity matches the order-6 census")


def test_criterion_15_yang_baxter():
    rep = _run("ybe")
    assert rep.checks_run == 129  # 64 symbolic, 1 negative control, 64 at the unit point
    _criterion(15, "all 64 boundary components of the triangle move agree, "
                   "symbolically and at the unit point")


def test_criterion_16_full_verify_all(capsys):
    t0 = time.time()
    code = main(["verify", "--all", "--seed", "42", "--format", "json"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert code == 0
    assert len(lines) == len(verify.SUITES)
    assert all('"status":"pass"' in line for line in lines)
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGEST.read_text().strip()
    assert elapsed < 600, f"verify --all took {elapsed:.1f}s"
    with capsys.disabled():
        _criterion(16, f"verify --all: {len(lines)} suites green in {elapsed:.1f}s, exit 0")
