"""Tests of the benchmark itself: seeded inputs, gates, tracer and metric names.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import halfturn_ice  # noqa: E402
import halfturn_ice.cli  # noqa: E402
import halfturn_ice.verify  # noqa: E402
from halfturn_ice import cli, enum_asm, exactnum, formulas, icemodel, laurent  # noqa: E402

import gates  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import CATALOG, PAIRED, DET_ONLY, point_inputs  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_same_seed_same_points_other_seed_other_points():
    assert point_inputs(11) == point_inputs(11)
    assert point_inputs(11) != point_inputs(12)
    models = [(p["model"], p["size"]) for p in point_inputs(11)]
    assert models == list(PAIRED) + list(DET_ONLY)
    for p in point_inputs(11):
        assert len(set(p["u"])) == len(p["u"])  # distinct coordinates: no poles


def _point_records(seed, value="1"):
    return [{"check": p["check"], "model": p["model"], "size": p["size"],
             "u": [str(f) for f in p["u"]], "swap": list(p.get("swap", ())),
             "lhs": value, "rhs": value} for p in point_inputs(seed)]


def test_points_gate_negative_control():
    records = _point_records(5)
    assert gates.check_points({"records": records}, 5, {}, None) == []
    records[1]["rhs"] = "2"
    assert len(gates.check_points({"records": records}, 5, {}, None)) == 1
    # Outputs computed at other inputs than the seed's fail too.
    assert gates.check_points({"records": _point_records(6)}, 5, {}, None)


def test_enumerate_gate_negative_control():
    argv, (family, order) = "enumerate -n 6 --format json", ("asm", 6)
    digest = gates.load_digests()["enumerate"]["sha256"][2]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv.split())
    text = buf.getvalue()
    check = gates.check_enumerate_output
    assert check(argv, family, order, code, text, digest, formulas.count_closed) == []
    lines = text.splitlines(keepends=True)
    dropped = "".join(lines[:-1])
    assert len(check(argv, family, order, code, dropped, digest, formulas.count_closed)) == 2
    flipped = text.replace("[0,", "[1,", 1)
    assert len(check(argv, family, order, code, flipped, digest, formulas.count_closed)) == 1


def test_catalog_gate_negative_control():
    recorded = gates.load_digests()["catalog"]["seedless_sha256"]
    params = dict(CATALOG)["parity"]
    for seed in (42, 5):
        line = halfturn_ice.verify.run_suite("parity", params, seed).to_json()
        assert gates.seedless_digest(line) == recorded["parity"]
    obj = json.loads(line)
    obj["checksRun"] -= 1
    assert gates.seedless_digest(json.dumps(obj)) != recorded["parity"]


def _child(a, b, ok=True, ref=0.005):
    return {"wall_s": a + b + 0.2, "cpu_s": a + b + 0.2, "setup_s": 20 * ref,
            "setup_reference": ref, "peak_rss_mb": 20.0, "ok": ok,
            "pieces": [["a", a, ref], ["b", b, ref]]}


def test_failed_gate_lowers_ok_ratio_and_leaves_the_timings():
    records = _point_records(3)
    records[0]["lhs"] = "0"
    ok = not gates.check_points({"records": records}, 3, {}, None)
    children = [_child(1.0, 0.5), _child(1.2, 0.4), _child(0.1, 0.1, ok)]
    metrics, table = run.end_to_end(children, [])
    assert metrics["ok_ratio"] == 2 / 3
    assert table["child_wall_s"]["n"] == 2


def test_timings_are_scaled_to_the_reference_speed():
    # The second child ran on a host twice as slow, reference kernel included.
    children = [_child(1.0, 0.5), _child(2.4, 0.8, ref=0.01), _child(1.1, 0.6)]
    probes = [{"setup_s": 0.1, "setup_reference": 0.01, "ok": True},
              {"setup_s": 0.01, "setup_reference": 0.01, "ok": False}]
    metrics, _ = run.end_to_end(children, probes)
    scale = run.REFERENCE_S / 0.005
    assert abs(metrics["pass_wall_s"] - scale * (1.1 + 0.5)) < 1e-12
    assert abs(metrics["setup_s"] - 20 * run.REFERENCE_S) < 1e-12


def _traced_sample():
    """A small in-process pass through every layer, traced."""
    enum_asm.census.cache_clear()
    icemodel._symbolic_value.cache_clear()
    icemodel._state_profiles.cache_clear()
    tr = tracer_mod.Tracer()
    tr.install(halfturn_ice)
    t0 = time.monotonic()
    try:
        assert sum(1 for _ in enum_asm.gen_asms(4)) == 42
        enum_asm.census(5, "ht")
        spec = icemodel.ModelSpec("dwbc", 2)
        icemodel.partition_function(spec)
        assign = {"a": exactnum.ZETA, "x1": 2, "x2": 3, "y1": 5, "y2": 7}
        icemodel.partition_function(spec, {k: exactnum.Cyclo.of(v) for k, v in assign.items()})
        halfturn_ice.determinant.special_z("dwbc", 2, (2, 3, 5, 7))
        halfturn_ice.verify.run_suite("parity", dict(CATALOG)["parity"], 1)
        with redirect_stdout(io.StringIO()):
            cli.main(["enumerate", "-n", "3", "--census", "--format", "json"])
        formulas.count_closed("asm", 5)
        laurent.LaurentPoly.var("a") * 2 + 1
    finally:
        tr.uninstall()
    return tr, time.monotonic() - t0


def test_tracer_intercepts_counts_and_restores():
    bindings = {(layer, name): getattr(getattr(halfturn_ice, layer), name)
                for layer, name in tracer_mod.IMPORTED_BINDINGS}
    mul = vars(exactnum.Cyclo)["__mul__"]
    tr, wall = _traced_sample()
    snap = tr.snapshot()
    stats, counts = snap["stats"], snap["counts"]
    # Generators are timed over their iteration; the stream is counted.
    assert stats["enum_asm.gen_asms.all"]["items"] >= 42
    assert stats["enum_asm.gen_asms.ht"]["items"] >= formulas.count_closed("ht-odd", 5)
    assert 0 < stats["enum_asm.gen_asms.ht"]["items"] <= counts["enum_asm.as_asm.attempts"]
    # Names bound by ``from ... import`` went through the wrappers.
    assert stats["asm.stats"]["calls"] >= formulas.count_closed("ht-odd", 5)
    assert stats["asm.to_state"]["calls"] >= 7
    assert stats["cli.main"]["calls"] == 1
    assert stats["icemodel.partition_function.evaluated"]["calls"] == 1
    assert counts["icemodel.partition_function.evaluated.states"] == 2
    assert stats["verify.run_suite.parity"]["calls"] == 1
    # ``2 * poly`` and ``1 + poly`` reach the wrappers through the aliases.
    assert stats["laurent.mul"]["calls"] >= 1 and stats["laurent.add"]["calls"] >= 1
    assert stats["exactnum.mul"]["calls"] > 0
    # Self times are disjoint, so they add up to no more than the wall time.
    assert all(v >= 0 for v in snap["self_s"].values())
    assert sum(snap["self_s"].values()) <= wall
    # Everything is restored.
    for (layer, name), orig in bindings.items():
        assert getattr(getattr(halfturn_ice, layer), name) is orig
    assert vars(exactnum.Cyclo)["__mul__"] is mul is vars(exactnum.Cyclo)["__rmul__"]
    assert not tracer_mod.is_wrapped(icemodel.gen_asms)


def test_self_time_subtracts_nested_children():
    tr, _ = _traced_sample()
    st = tr.snapshot()["stats"]["icemodel.partition_function.symbolic"]
    assert st["self_s"] < st["s"]


def test_metric_names_are_declared():
    tr, wall = _traced_sample()
    layer = run.layer_metrics(tr.snapshot(), wall, 0.1, wall)
    declared = [m["name"] for m in BENCH["per_layer"]]
    assert list(layer) == declared
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        name: run._unit(name) for name in layer}
    e2e, _ = run.end_to_end([_child(1.0, 0.5)], [])
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == {
        name: run.UNITS[name] for name in e2e}
    for name in list(layer) + list(e2e):
        assert NAME.fullmatch(name) and len(name) <= 64
    assert [w["name"] for w in BENCH["workloads"]] == ["catalog", "points", "enumerate"]


def test_cold_check_sees_a_warm_cache():
    import child

    icemodel.partition_function(icemodel.ModelSpec("dwbc", 1))
    assert child._cold_caches()["icemodel._symbolic_value"] > 0


def _run_benchmark(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_points_run_prints_the_declared_result_line():
    proc = _run_benchmark(ROOT, "--workload", "points", "--seed", "4", "--seconds", "1",
                          "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_package_sources_it_fails_without_a_result():
    bare = ROOT / ".bench_build" / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run_benchmark(bare, "--workload", "catalog", "--seed", "1", "--seconds", "1",
                              "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
