"""CLI: subcommands, formats, exit codes, reproducibility."""

import contextlib
import hashlib
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from halfturn_ice.cli import UsageError, main, parse_value
from halfturn_ice.determinant import special_z
from halfturn_ice.exactnum import Cyclo
from halfturn_ice.formulas import FAMILIES, MAX_DIGITS, count_closed
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_value():
    assert parse_value("2") == Cyclo(2)
    assert parse_value("-1/3") == Cyclo(Fraction(-1, 3))
    assert parse_value("zeta") == Cyclo(0, 1)
    assert parse_value("2*zeta") == Cyclo(0, 2)
    assert parse_value("1/2+3*zeta") == Cyclo(Fraction(1, 2), 3)
    assert parse_value("1-zeta") == Cyclo(1, -1)
    assert parse_value("-zeta") == Cyclo(0, -1)


def test_enumerate_census(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "3", "--class", "ht", "--census")
    assert code == 0
    assert "3 matrices" in out
    code, out, _ = run(capsys, "enumerate", "--order", "3", "--class", "ht",
                       "--census", "--format", "csv")
    assert out.splitlines()[0] == "r,central,terms"


def test_enumerate_count_and_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "4", "--count")
    assert code == 0 and out.strip() == "42"
    code, out, _ = run(capsys, "enumerate", "-n", "2", "--format", "json")
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]


def _text_stream(*rows):
    """The text stream of matrices given as "r1 / r2 / ..." rows."""
    return "".join(m.replace(" / ", "\n") + "\n\n" for m in rows)


def test_enumerate_text_bytes(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "3")
    assert code == 0 and out == _text_stream(
        "0 0 1 / 0 1 0 / 1 0 0", "0 0 1 / 1 0 0 / 0 1 0", "0 1 0 / 0 0 1 / 1 0 0",
        "0 1 0 / 1 -1 1 / 0 1 0", "0 1 0 / 1 0 0 / 0 0 1", "1 0 0 / 0 0 1 / 0 1 0",
        "1 0 0 / 0 1 0 / 0 0 1")
    code, out, _ = run(capsys, "enumerate", "--order", "3", "--class", "ht")
    assert code == 0 and out == _text_stream(
        "0 0 1 / 0 1 0 / 1 0 0", "0 1 0 / 1 -1 1 / 0 1 0", "1 0 0 / 0 1 0 / 0 0 1")


def test_genfunc(capsys):
    code, out, _ = run(capsys, "genfunc", "-n", "3", "--class", "ht")
    assert code == 0 and out.strip() == "z^3 + 1"


def test_partition_symbolic_and_evaluated(capsys):
    code, out, _ = run(capsys, "partition", "--model", "dwbc", "-n", "1",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["stateCount"] == 1 and obj["kind"] == "dwbc"
    assert obj["normalization"] == "standard"
    code, out, _ = run(capsys, "partition", "--model", "dwbc", "-n", "1", "--modified",
                       "--format", "json")
    assert code == 0 and json.loads(out)["normalization"] == "modified"
    code, out, _ = run(capsys, "partition", "--model", "ht-odd", "--m", "1",
                       "--assign", "a=zeta", "--assign", "x1=1", "--assign", "x2=1",
                       "--assign", "y1=1", "--assign", "y2=1")
    assert code == 0 and out.strip() == "27"
    code, out, _ = run(capsys, "partition", "--model", "ht-odd", "--m", "1",
                       "--assign", "a=zeta", "--assign", "x1=1", "--assign", "x2=1",
                       "--assign", "y1=1", "--assign", "y2=1", "--format", "json")
    assert code == 0 and json.loads(out)["normalization"] == "standard"


def test_partition_missing_assignment(capsys):
    code, _, err = run(capsys, "partition", "--model", "dwbc", "-n", "2",
                       "--assign", "a=zeta")
    assert code == 2 and "missing assignments" in err


def test_partition_bad_size_names_model_and_value(capsys):
    code, _, err = run(capsys, "partition", "--order", "0")
    assert code == 2 and err == "error: dwbc size must be >= 1, got 0\n"
    code, _, err = run(capsys, "partition", "--model", "ht-odd", "--m", "-1")
    assert code == 2 and err == "error: ht-odd size must be >= 0, got -1\n"


def test_det(capsys):
    code, out, _ = run(capsys, "det", "--model", "dwbc", "-n", "1", "--u", "2,3")
    assert code == 0 and out.strip() == "-1 + 2*zeta"
    # Equal points are no pole of the determinant form.
    code, out, _ = run(capsys, "det", "--model", "dwbc", "-n", "1", "--u", "2,2")
    assert code == 0 and out.strip() == "-1 + 2*zeta"


def test_formulas(capsys):
    code, out, _ = run(capsys, "formulas", "--family", "ht-odd", "--order", "7")
    assert code == 0 and out.strip() == "588"
    code, out, _ = run(capsys, "formulas", "--family", "asm", "--order", "3",
                       "--refined")
    assert code == 0 and out.strip() == "2*t^2 + 3*t + 2"
    code, _, err = run(capsys, "formulas", "--family", "ht-even", "--order", "5")
    assert code == 2


def test_verify_suite_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "parity", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass" and obj["seed"] == 42
    code, _, err = run(capsys, "verify", "--suite", "no-such-suite")
    assert code == 2
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_verify_reproducible_output(capsys):
    args = ("verify", "--suite", "det-oracle", "--seed", "5", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_enumerate_reproducible_output(capsys):
    args = ("enumerate", "-n", "4", "--class", "ht", "--census", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_points_override(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem3", "--points", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["params"]["points"] == 2


def test_report_merge(tmp_path, capsys):
    p1 = tmp_path / "a.jsonl"
    code, out, _ = run(capsys, "verify", "--suite", "parity", "--format", "json",
                       "--out", str(p1))
    assert code == 0
    code, out, _ = run(capsys, "report", str(p1))
    assert code == 0
    merged = json.loads(out)
    assert merged["total"] == 1 and merged["passed"] == 1

    bad = tmp_path / "b.jsonl"
    bad.write_text('{"suiteId":"zzz","status":"fail"}\n')
    code, out, _ = run(capsys, "report", str(p1), str(bad))
    assert code == 1
    assert json.loads(out)["failed"] == 1


def test_out_file(tmp_path, capsys):
    path = tmp_path / "z.json"
    code, _, _ = run(capsys, "partition", "--model", "dwbc", "-n", "1",
                     "--format", "json", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["kind"] == "dwbc"


def test_usage_errors(capsys):
    assert run(capsys, "enumerate")[0] == 2
    assert run(capsys, "partition", "--model", "ht-even")[0] == 2
    assert run(capsys, "det", "--model", "ht2")[0] == 2
    assert main(["no-such-command"]) == 2


def assert_usage_error(result, *fragments):
    code, out, err = result
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


def test_det_opposite_points_is_a_usage_error(capsys):
    # Opposite points are evaluated; a zero point among them is refused.
    assert run(capsys, "det", "--model", "dwbc", "-n", "1", "--u", "2,-2") \
        == (0, "-1 + 2*zeta\n", "")
    assert_usage_error(run(capsys, "det", "--model", "dwbc", "-n", "1", "--u", "0,-0"),
                       "nonzero")


@pytest.mark.parametrize("argv,pair", [
    (("--model", "dwbc", "--order", "2", "--u", "1/2,3,5,1/2"), ("1/2", 1, 4, "1/2")),
    (("--model", "ht2", "--m", "2", "--u", "7,-3,5,3"), ("-3", 2, 4, "3")),
    (("--model", "ht-odd", "--m", "1", "--u", "2,3,-2"), ("2", 1, 3, "-2")),
])
def test_det_pole_message(capsys, argv, pair):
    # A non-adjacent pair of equal or opposite points is no pole of the
    # determinant form: exit 0 with its value, and a zero put in place of
    # the pair's second point is one error line, exit 2.
    ui, i, j, uj = pair
    args = dict(zip(argv[::2], argv[1::2]))
    u = args["--u"].split(",")
    assert (u[i - 1], u[j - 1]) == (ui, uj)
    size = int(args.get("--order", args.get("--m")))
    want = special_z(args["--model"], size, tuple(parse_value(x) for x in u))
    assert run(capsys, "det", *argv) == (0, f"{want}\n", "")
    u[j - 1] = "0"
    zeroed = argv[:-1] + (",".join(u),)
    assert run(capsys, "det", *zeroed) == (2, "", "error: points must be nonzero\n")


def test_det_bad_points_are_usage_errors(capsys):
    assert_usage_error(run(capsys, "det", "--model", "dwbc", "-n", "1", "--u", "0,2"),
                       "nonzero")
    assert_usage_error(run(capsys, "det", "--model", "dwbc", "-n", "1", "--u", "1/0,2"),
                       "1/0")


def test_only_numbers_are_refused_for_exponent_notation(capsys):
    # A token with an "e" that is no number, such as zeta where a rational
    # is read, cannot be parsed; a number with an exponent is refused as one.
    result = run(capsys, "det", "--model", "dwbc", "--order", "1", "--u", "1/2,zeta")
    assert_usage_error(result, "cannot parse value 'zeta'")
    assert "exponent" not in result[2]
    for token in ("1e3", "-2.5E-1", ".5e+3", "1_0e2", "7.e1"):
        result = run(capsys, "det", "--model", "dwbc", "--order", "1", f"--u={token},2")
        assert_usage_error(result, f"exponent notation is not accepted: '{token}'")


def test_exponent_notation_is_a_usage_error(capsys):
    # Only small exponents here: Fraction would build 10**e before any check.
    result = run(capsys, "det", "--model", "dwbc", "-n", "1", "--u", "1e5,2")
    assert_usage_error(result, "1e5")
    assert len(result[2].splitlines()) == 1
    result = run(capsys, "partition", "--model", "dwbc", "-n", "1", "--assign", "a=zeta",
                 "--assign", "x1=2E3", "--assign", "y1=3")
    assert_usage_error(result, "2E3")
    assert len(result[2].splitlines()) == 1
    assert parse_value("0.25") == Cyclo(Fraction(1, 4))


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "parity", "--seed=--"),
    ("enumerate", "--order=--"),
    ("enumerate", "-n", "2", "--class=--"),
    ("partition", "-n", "1", "--out=--"),
    ("partition", "-n", "1", "--assign=--"),
    ("partition", "-n", "1", "--max-states=--"),
    ("det", "--model", "dwbc", "-n", "1", "--u=--"),
])
def test_attached_double_dash_is_a_missing_value(capsys, argv):
    # argparse reads an attached "--" as an empty list, not as a value.
    result = run(capsys, *argv)
    assert_usage_error(result, argv[-1][:-3], "needs a value")
    assert len(result[2].splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("enumerate", "--order", "99999999999999999999", "--count"),
    ("enumerate", "--order", "99999999999999999999", "--count", "--class", "ht"),
    ("genfunc", "--order", "99999999999999999999", "--mode", "brute"),
])
def test_oversized_order_is_a_usage_error(capsys, argv):
    # Refused before anything is built: --count by the state guard, the
    # brute genfunc by the exponent range.
    result = run(capsys, *argv)
    assert_usage_error(result)
    assert len(result[2].splitlines()) == 1


@pytest.mark.parametrize("argv,model", [
    (("enumerate", "-n", "8", "--census"), "dwbc size 8"),
    (("enumerate", "-n", "8", "--count"), "dwbc size 8"),
    (("enumerate", "--order", "12", "--class", "ht", "--census"), "ht-even size 6"),
    (("enumerate", "--order", "12", "--class", "ht", "--count"), "ht-even size 6"),
    (("enumerate", "--order", "13", "--class", "ht", "--census"), "ht-odd size 6"),
    (("enumerate", "--order", "5000", "--count"), "dwbc size 5000"),
    (("enumerate", "-n", "8"), "dwbc size 8"),
    (("enumerate", "--order", "12", "--class", "ht"), "ht-even size 6"),
    (("enumerate", "--order", "13", "--class", "ht"), "ht-odd size 6"),
])
def test_enumerate_past_the_state_guard_is_a_usage_error(capsys, argv, model):
    # Every mode runs the transfer plan (the plain stream walks it), so
    # every mode passes the state guard: -n 8 has 10,850,216 matrices and
    # half-turn order 12 has 198,846,076, and both are refused at once
    # instead of listed.  The message names the order as typed.
    order = argv[2]
    started = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert_usage_error(result, f"order {order} ({model})", "the guard 10000000")
    assert len(result[2].splitlines()) == 1


def test_enumerate_order_below_one_is_a_usage_error(capsys):
    for flag in ("--census", "--count"):
        for argv in (("-n", "0"), ("-n", "-3", "--class", "ht")):
            result = run(capsys, "enumerate", *argv, flag)
            assert_usage_error(result, "order must be >= 1")
            assert len(result[2].splitlines()) == 1


def test_enumerate_count_past_the_brute_range(capsys):
    # Counts from the plan, at orders whose listing would take minutes.
    for argv, family, order in ((("-n", "7"), "asm", 7),
                                (("--order", "9", "--class", "ht"), "ht-odd", 9),
                                (("--order", "11", "--class", "ht"), "ht-odd", 11)):
        code, out, _ = run(capsys, "enumerate", *argv, "--count")
        assert code == 0 and int(out) == count_closed(family, order)


# sha256 of `enumerate ... --census --format F`, recorded from the listing
# census before the CLI took its censuses from the transfer plan.
CENSUS_SHA256 = {
    ("-n 4", "json"): "a73009b151f2efb10e61d8138553bf11e1b025e606fb21ac3f7b4a281d781fec",
    ("-n 4", "csv"): "ab352ea30846bd1e9299c45bd636546f161176dca60b2f3b4b261d7e7552f58b",
    ("-n 4", "text"): "61462861de78fa21a63c1eb54fd2a5ee0eb43da230c7582c8fc062fbc10f85a2",
    ("-n 6", "json"): "98ccf7ad2c09197a5f33572097ead964d8cc43f986c40975541c1817d48a58d5",
    ("-n 6", "csv"): "70ac0e9eda4b81e41a13e8fd77223a86901ef8d4f319e06f439051b55c581050",
    ("-n 6", "text"): "1109ff29d18d0b1fdda3e8539b57b3c5d45618adeabc9a2fd4c13aad0a13db9b",
    ("--order 3 --class ht", "json"):
        "d08dac8da3342f06ef3fc1eb1d64cede5caea6fd7bab12a1f853273af8d84726",
    ("--order 3 --class ht", "csv"):
        "84b6b8060d2ea0fd83a9adb2a29bbbfeb389ef280ade6908b6429f0eb968af67",
    ("--order 3 --class ht", "text"):
        "6c9485092a5bec958ad24f35964335f8fd124a58f1bcf1b55585c64a86dee088",
    ("--order 7 --class ht", "json"):
        "f5360c6f07973b2b33123192392313f9372ffea5fe67bc050124fd8a08f680a4",
    ("--order 7 --class ht", "csv"):
        "a8c31760f888ab891205755664453490a8056adcd657daca1226e9eff3d6c0ad",
    ("--order 7 --class ht", "text"):
        "172f6ff12d6e6a6a06609775f56d49504654b63b8639f20f1b33ef1c56bf4c67",
}


@pytest.mark.parametrize("args,fmt", sorted(CENSUS_SHA256))
def test_census_bytes(capsys, args, fmt):
    code, out, _ = run(capsys, "enumerate", *args.split(), "--census", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_SHA256[args, fmt]


# sha256 of `enumerate ... --census --format json` at the largest orders the
# transfer plan serves under the guard, recorded from the plan with its
# moves kept flat, before they were grouped by source.
PLAN_CENSUS_SHA256 = {
    "-n 7": "d2c4c11a0aaaa059873209829ad5e575bb7ea180262c6a3eb5c879481240d6f3",
    "--order 11 --class ht": "69bf412b5355f8617f0eeb86de477887dc544c009221823eba0893f39d11df0b",
}


@pytest.mark.parametrize("args", sorted(PLAN_CENSUS_SHA256))
def test_census_bytes_at_the_largest_plan_orders(capsys, args):
    code, out, _ = run(capsys, "enumerate", *args.split(), "--census", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PLAN_CENSUS_SHA256[args]


def test_enumerate_count_json_is_one_object(capsys):
    # Like every other --format json output: one line, one object with
    # schemaVersion.  The text form stays the bare count.
    for argv, klass, order in ((("-n", "6"), "all", 6),
                               (("--order", "9", "--class", "ht"), "ht", 9)):
        code, out, _ = run(capsys, "enumerate", *argv, "--count", "--format", "json")
        assert code == 0 and out.endswith("\n") and out.count("\n") == 1
        obj = json.loads(out)
        family = "asm" if klass == "all" else "ht-odd"
        assert obj == {"schemaVersion": obj["schemaVersion"], "order": order, "class": klass,
                       "count": count_closed(family, order)}
        assert isinstance(obj["schemaVersion"], int)
        code, out, _ = run(capsys, "enumerate", *argv, "--count")
        assert code == 0 and out == f"{obj['count']}\n"


@pytest.mark.parametrize("argv", [
    ("genfunc", "--mode", "brute", "--order", "11"),
    ("genfunc", "--class", "ht", "--mode", "brute", "--order", "16"),
])
def test_genfunc_brute_past_the_guard_is_a_usage_error(capsys, argv):
    # 11! = 39,916,800 and 2^8 8! = 10,321,920 words pass the guard of 10^7
    # (orders 10 and 15 list 3,628,800 and 645,120): refused before the
    # first word, where listing order 11 takes minutes.
    started = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert_usage_error(result, f"order {argv[-1]} has more words", "the guard 10000000")
    assert len(result[2].splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("genfunc", "--class", "ht", "--mode", "brute", "--order", "99999999999999999999"),
    ("genfunc", "--order", "300"),
])
def test_genfunc_past_the_exponent_range_is_a_usage_error(capsys, argv):
    # n(n-1)/2 inversions past the +-32767 exponent digits: refused before a
    # permutation or a factor is built.
    result = run(capsys, *argv)
    assert_usage_error(result, "exponent range")
    assert len(result[2].splitlines()) == 1


def test_partition_zero_assignment_is_a_usage_error(capsys):
    assert_usage_error(run(capsys, "partition", "--model", "dwbc", "-n", "2",
                           "--assign", "a=zeta", "--assign", "x1=0", "--assign", "x2=2",
                           "--assign", "y1=3", "--assign", "y2=5"),
                       "x1", "pole")


def test_partition_unparsable_value_is_a_usage_error(capsys):
    assert_usage_error(run(capsys, "partition", "--model", "dwbc", "-n", "1",
                           "--assign", "a=1/0*zeta", "--assign", "x1=2",
                           "--assign", "y1=3"),
                       "1/0")


@pytest.mark.parametrize("argv,model", [
    (("partition", "-n", "2000"), "dwbc size 2000"),
    (("partition", "--model", "ht-odd", "--m", "1000"), "ht-odd size 1000"),
    (("partition", "-n", "300"), "dwbc size 300"),
])
def test_partition_past_the_state_guard_is_a_usage_error(capsys, argv, model):
    # The guard tries the sizes upward and refuses at the first one past
    # it, so no count of thousands of digits is computed or printed.
    result = run(capsys, *argv)
    assert_usage_error(result, model, "the guard 10000000")
    assert len(result[2].splitlines()) == 1


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_partition_max_states_below_one_is_a_usage_error(capsys, limit):
    result = run(capsys, "partition", "-n", "3", "--max-states", limit)
    assert_usage_error(result, "--max-states", f"got {limit}")
    assert len(result[2].splitlines()) == 1


def test_report_missing_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    assert_usage_error(run(capsys, "report", str(missing)), "missing.jsonl")


def test_genfunc_order_below_one_is_a_usage_error(capsys):
    for argv in (("genfunc", "-n", "0"),
                 ("genfunc", "-n", "-3", "--class", "ht", "--mode", "closed")):
        result = run(capsys, *argv)
        assert_usage_error(result, "order must be >= 1")
        assert len(result[2].splitlines()) == 1


def test_report_malformed_lines_are_usage_errors(tmp_path, capsys):
    good = '{"suiteId":"parity","status":"pass"}\n'
    for bad in ("1", "[]", '"pass"', '{"suiteId":5,"status":"pass"}',
                '{"suiteId":"parity","status":null}', "{not json"):
        path = tmp_path / "r.jsonl"
        path.write_text(good + "\n" + bad + "\n")
        for fmt in ("json", "text"):
            result = run(capsys, "report", str(path), "--format", fmt)
            assert_usage_error(result, "r.jsonl", "line 3")
            assert len(result[2].splitlines()) == 1


def test_verify_points_below_one_is_a_usage_error(capsys):
    for points in ("0", "-3"):
        result = run(capsys, "verify", "--suite", "theorem3", "--points", points)
        assert_usage_error(result, "--points", points)


def test_verify_points_for_a_suite_without_points_is_a_usage_error(capsys):
    result = run(capsys, "verify", "--suite", "parity", "--points", "5")
    assert_usage_error(result, "parity", "--points")


def test_verify_all_points_reaches_only_the_suites_that_take_points(monkeypatch, capsys):
    from halfturn_ice import verify

    seen = {}

    def fake_run_all(seed, overrides):
        seen.update(overrides)
        return []

    monkeypatch.setattr(verify, "run_all", fake_run_all)
    assert run(capsys, "verify", "--all", "--points", "3")[0] == 0
    takers = {sid for sid, (_, defaults) in verify.SUITES.items() if "points" in defaults}
    assert "parity" not in takers and "theorem3" in takers
    assert seen == {sid: {"points": 3} for sid in takers}


def _int_digit_cap():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_formulas_prints_counts_past_the_int_digit_cap(capsys):
    # A(300) has 10,226 digits.  The cap on int-to-string digits is lifted
    # while the count is written and restored afterwards.
    cap = _int_digit_cap()
    code, out, _ = run(capsys, "formulas", "--family", "asm", "--order", "300")
    assert code == 0 and _int_digit_cap() == cap
    digits = out.strip()
    assert len(digits) == 10226 and digits.isdigit()
    assert int(digits[:64]) == count_closed("asm", 300) // 10 ** (10226 - 64)
    assert count_closed("asm", 300) % 10 ** 64 == int(digits[-64:])


@pytest.mark.skipif(not _int_digit_cap(), reason="this Python has no int digit cap")
def test_value_parsing_keeps_the_int_digit_cap(capsys):
    # Only formulas' output lifts the cap: a value past it is still refused.
    huge = "7" * (_int_digit_cap() + 1)
    assert_usage_error(run(capsys, "partition", "-n", "1", "--assign", f"a={huge}",
                           "--assign", "x1=2", "--assign", "y1=3"), "cannot parse value")
    assert_usage_error(run(capsys, "det", "-n", "1", "--u", f"{huge},2"), "cannot parse value")
    assert_rejected_by_parser(run(capsys, "formulas", "--family", "asm", "--order", huge))


@pytest.mark.parametrize("refined", [(), ("--refined",)])
@pytest.mark.parametrize("family", FAMILIES)
def test_formulas_past_the_digit_limit_refuse_at_once(capsys, family, refined):
    # A(99999999) would have about 10^15 digits; the count used to build
    # lists of n and 3n + 1 ints until memory ran out.  Refused before any
    # list or sieve is built.  ht-even takes even orders only.
    order = "99999998" if family == "ht-even" else "99999999"
    started = time.perf_counter()
    result = run(capsys, "formulas", "--family", family, "--order", order, *refined)
    assert time.perf_counter() - started < 1
    assert_usage_error(result, f"({order})", f"past the limit of {MAX_DIGITS}")


def test_formulas_refined_past_the_digit_limit(capsys):
    # A(200) has 4,545 digits, its refined polynomial 200 coefficients.
    assert run(capsys, "formulas", "--family", "asm", "--order", "200")[0] == 0
    result = run(capsys, "formulas", "--family", "asm", "--order", "200", "--refined")
    assert_usage_error(result, "refined A(200; t)", "past the limit")


@pytest.mark.parametrize("family", FAMILIES)
def test_formulas_refined_sums_to_the_count(capsys, family):
    # At t = 1 a family's refined polynomial is its count; ht-even prints
    # A(m; t) times the cofactor, not the cofactor alone.
    least = {"asm": 1, "ht-even": 2}.get(family, 3)
    for order in range(least, 12, 1 if family == "asm" else 2):
        args = ("formulas", "--family", family, "--order", str(order), "--format", "json")
        code, plain, _ = run(capsys, *args)
        assert code == 0
        code, refined, _ = run(capsys, *args, "--refined")
        assert code == 0
        terms = json.loads(refined)["poly"]["terms"]
        assert sum(int(term["coef"]) for term in terms) == int(json.loads(plain)["value"]), order


def test_formulas_refined_refuses_an_order_outside_the_family(capsys):
    for family, order in (("ht-even", "5"), ("ht-odd", "6"), ("robbins", "4"),
                          ("ht-odd-plus", "6")):
        plain = run(capsys, "formulas", "--family", family, "--order", order)
        refined = run(capsys, "formulas", "--family", family, "--order", order, "--refined")
        assert_usage_error(refined, "order")
        assert refined == plain


@pytest.mark.parametrize("family,order,least", [
    ("ht-odd-plus", "1", 3), ("ht-odd", "1", 3), ("robbins", "1", 3), ("ht-even", "0", 2),
])
def test_formulas_refined_below_its_first_order_names_the_order(capsys, family, order, least):
    # These orders have a closed count but no refined form.
    assert run(capsys, "formulas", "--family", family, "--order", order)[0] == 0
    result = run(capsys, "formulas", "--family", family, "--order", order, "--refined")
    assert_usage_error(result, f"order {order}", f"starts at order {least}")


def test_enumerate_json_lines_match_jsonline():
    from halfturn_ice.cli import _jsonline, _matrix_jsonline
    from halfturn_ice.enum_asm import gen_asms

    for klass, orders in (("all", range(1, 6)), ("ht", range(1, 8))):
        for n in orders:
            row_text = {}
            for m in gen_asms(n, klass):
                want = _jsonline([list(row) for row in m.entries])
                assert _matrix_jsonline(m.entries, row_text) == want
                assert _matrix_jsonline(m.entries, {}) == want


def assert_rejected_by_parser(result):
    code, out, err = result
    assert code == 2 and out == "" and "Traceback" not in err


def test_csv_only_for_enumerate_census(capsys):
    for argv in (("verify", "--suite", "parity"), ("report", "r.jsonl"),
                 ("partition", "-n", "1"), ("genfunc", "-n", "3"),
                 ("det", "-n", "1", "--u", "2,3"), ("formulas", "--family", "asm", "-n", "3")):
        assert_rejected_by_parser(run(capsys, *argv, "--format", "csv"))
    for argv in (("enumerate", "-n", "3"), ("enumerate", "-n", "3", "--count")):
        assert_usage_error(run(capsys, *argv, "--format", "csv"), "--census")


def test_partition_symbolic_flag_is_gone(capsys):
    assert_rejected_by_parser(run(capsys, "partition", "-n", "1", "--symbolic"))
    assert_rejected_by_parser(run(capsys, "partition", "-n", "1", "--symbolic",
                                  "--assign", "a=zeta", "--assign", "x1=2",
                                  "--assign", "y1=3"))


def test_det_negative_size_is_a_usage_error(capsys):
    result = run(capsys, "det", "--model", "dwbc", "--order", "-1", "--u", "1,2")
    assert_usage_error(result, "size must be >= 1", "-1")
    assert len(result[2].splitlines()) == 1


# ----------------------------------------------------------------------
# fuzzing the value parser and the commands that take values
# ----------------------------------------------------------------------

# Pieces of values: rationals, zeta terms, and the ways they go wrong.
# Exponents stay short, so that no value is a huge power of ten.
value_pieces = st.sampled_from(["0", "1", "2", "7", "-", "+", "/", "*", "zeta",
                                "3*zeta", "1/2", ".", " ", "e1", "x", "=", ","])
fuzz_values = st.lists(value_pieces, max_size=5).map("".join)
rational_values = st.sampled_from(["2", "3", "-1/3", "5/7", "1/2", "-4", "9/5", "11"])
good_values = st.one_of(rational_values,
                        st.sampled_from(["zeta", "1-zeta", "1/2+3*zeta", "-2*zeta"]))


def draw_value(data, good):
    """Mostly a well-formed value, one time in eight a fuzzed one."""
    return data.draw(fuzz_values if data.draw(st.integers(0, 7)) == 0 else good)


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv):
    code, out, err = run_quiet(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert out == "" and "error:" in err, (argv, out, err)
    else:
        assert out and err == "", (argv, out, err)


@settings(max_examples=300, deadline=None)
@given(fuzz_values)
def test_parse_value_fuzz(text):
    try:
        value = parse_value(text)
    except UsageError:
        return
    assert isinstance(value, Cyclo)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([("dwbc", "-n", 1), ("dwbc", "-n", 2), ("ht-odd", "--m", 0),
                        ("ht-odd", "--m", 1)]),
       st.data())
def test_partition_assign_fuzz(model, data):
    kind, flag, size = model
    count = size if kind == "dwbc" else size + 1
    names = ["a"] + [f"{v}{i}" for v in "xy" for i in range(1, count + 1)]
    argv = ["partition", "--model", kind, flag, str(size)]
    for name in names:
        if data.draw(st.integers(0, 19)):  # now and then leave one out
            argv.append(f"--assign={name}={draw_value(data, good_values)}")
    if data.draw(st.integers(0, 3)) == 0:
        argv.append(f"--assign={data.draw(fuzz_values)}")
    assert_contract(argv)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([("dwbc", "-n"), ("ht2", "--m"), ("ht-odd", "--m")]),
       st.integers(-1, 2), st.data())
def test_det_points_fuzz(model, size, data):
    kind, flag = model
    count = max(0, 2 * size + (kind == "ht-odd"))
    if data.draw(st.booleans()):  # the right number of distinct points
        points = data.draw(st.lists(rational_values, min_size=count, max_size=count,
                                    unique=True))
        if points and data.draw(st.integers(0, 3)) == 0:
            points[data.draw(st.integers(0, count - 1))] = data.draw(fuzz_values)
    else:
        points = [draw_value(data, good_values) for _ in range(data.draw(st.integers(0, 6)))]
    assert_contract(["det", "--model", kind, flag, str(size), "--u=" + ",".join(points)])


def test_verify_max_states_is_gone(capsys):
    result = run(capsys, "verify", "--suite", "factorization", "--max-states", "5")
    assert_rejected_by_parser(result)
    assert "--max-states" in result[2]


def test_partition_unknown_or_repeated_assignment_is_a_usage_error(capsys):
    base = ("partition", "--model", "dwbc", "-n", "1",
            "--assign", "a=zeta", "--assign", "x1=2", "--assign", "y1=3")
    assert run(capsys, *base)[0] == 0
    assert_usage_error(run(capsys, *base, "--assign", "x9=5"), "x9")
    assert_usage_error(run(capsys, *base, "--assign", "x1=5"), "x1", "twice")


def test_verify_repeated_suite_or_suite_with_all_is_a_usage_error(capsys):
    for argv, message in (
            (("--suite", "ybe", "--suite", "parity"),
             "--suite may be given only once; use --all for the whole catalog"),
            (("--suite", "parity", "--suite", "parity"),
             "--suite may be given only once; use --all for the whole catalog"),
            (("--suite", "ybe", "--all"), "--suite and --all exclude each other"),
            (("--all", "--suite", "ybe"), "--suite and --all exclude each other")):
        assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n"), argv


def test_report_without_report_lines_is_a_usage_error(tmp_path, capsys):
    good = tmp_path / "good.jsonl"
    assert run(capsys, "verify", "--suite", "parity", "--out", str(good))[0] == 0
    for name, text in (("empty.jsonl", ""), ("blank.jsonl", "\n  \n")):
        path = tmp_path / name
        path.write_text(text)
        assert_usage_error(run(capsys, "report", str(path)), name)
        assert_usage_error(run(capsys, "report", str(good), str(path)), name)


def test_enumerate_count_and_census_are_exclusive(capsys):
    result = run(capsys, "enumerate", "-n", "3", "--count", "--census")
    assert_rejected_by_parser(result)
    assert "--count" in result[2] and "--census" in result[2]
