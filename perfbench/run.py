#!/usr/bin/env python3
"""Cold-process benchmark of halfturn-ice.

    python3 perfbench/run.py --workload {catalog,points,enumerate} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every measured run of a workload is a
fresh interpreter (``perfbench/child.py``), one at a time, because the
package's ``lru_cache``s make in-process repeats meaningless.

--trace 0  spawns workload children, each after two import-only probes,
           until S seconds have been spent (at least one child).  Each
           child times every piece of its workload (a suite, a point, a
           command) and, just before it, a fixed reference kernel.  Timings
           are reported in seconds at the reference speed (see pass_time):
           one cold pass summed over the pieces, over the children that
           passed their correctness gate, and set-up time over every spawn.
--trace 1  spawns one plain and one traced child and reports the per-layer
           metrics of the traced one, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record, with quartiles,
sample counts, provenance and every traced counter, is written under
``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

PROBES_PER_CHILD = 2
MAX_CHILDREN = 200
CHILD_CPU_LIMIT_S = 170
RUN_BUDGET_S = 120  # no new child starts after this much of a run

UNITS = {"pass_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
         "child_wall_s": "s", "child_cpu_s": "s", "raw_setup_s": "s"}
# The wall time of child.reference_kernel on the 2-vCPU host the benchmark was
# defined on, running at full speed.  Timings are reported as if every piece
# ran at that speed.
REFERENCE_S = 0.005

# Per-layer metrics: (traced stats key, calls and inclusive time).
_CALLS_AND_S = ("laurent.mul", "laurent.add", "laurent.exact_div", "laurent.substitute",
                "laurent.evaluate", "icemodel.partition_function.symbolic",
                "icemodel.partition_function.evaluated", "icemodel.z_ht2",
                "exactnum.mul", "exactnum.add", "exactnum.inverse",
                "determinant.special_z", "determinant.det_exact",
                "asm.to_state", "asm.stats", "asm.as_asm")
_S_ONLY = ("laurent.to_json_obj", "icemodel.z_split_odd", "icemodel.modified_partition",
           "determinant.build_matrix", "enum_asm.census", "enum_asm.inversion_genfunc")
_COUNTS = ("laurent.mul.term_products", "laurent.mul.terms_out",
           "laurent.exact_div.quotient_terms", "icemodel.partition_function.evaluated.states",
           "determinant.det_exact.ops")


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "matrices_per_s":
        return "1/s"
    if last == "accept_ratio":
        return "ratio"
    if last == "s" or last.endswith("_s"):
        return "s"
    return "count"


def layer_metrics(trace: dict, wall: float, setup: float, plain_wall: float) -> dict:
    """Per-layer metrics of one traced child, by name."""
    from tracer import LAYERS
    from workloads import CATALOG

    stats, counts = trace["stats"], trace["counts"]

    def stat(key: str, field: str):
        return stats.get(key, {}).get(field, 0)

    m = {}
    for key in _CALLS_AND_S:
        m[f"{key}.calls"] = stat(key, "calls")
        m[f"{key}.s"] = stat(key, "s")
    for key in _S_ONLY:
        m[f"{key}.s"] = stat(key, "s")
    for key in _COUNTS:
        m[key] = counts.get(key, 0)
    for klass in ("all", "ht"):
        key = f"enum_asm.gen_asms.{klass}"
        n, t = stat(key, "items"), stat(key, "s")
        m[f"{key}.matrices"] = n
        m[f"{key}.s"] = t
        m[f"{key}.matrices_per_s"] = n / t if t else 0.0
    attempts = counts.get("enum_asm.as_asm.attempts", 0)
    m["enum_asm.gen_asms.ht.accept_ratio"] = (
        stat("enum_asm.gen_asms.ht", "items") / attempts if attempts else 0.0)
    m["cli.main.calls"] = stat("cli.main", "calls")
    m["cli.main.self_s"] = stat("cli.main", "self_s")
    m["formulas.s"] = trace["layer_s"]["formulas"]
    for suite_id, _ in CATALOG:
        m[f"verify.suite.{suite_id}.s"] = stat(f"verify.run_suite.{suite_id}", "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = trace["self_s"][layer]
    m["trace.wall_s"] = wall
    m["trace.setup_s"] = setup
    m["trace.unattributed_s"] = wall - setup - sum(trace["self_s"].values())
    m["trace.overhead_s"] = wall - plain_wall
    return m


def quartiles(values: list[float]) -> dict:
    vals = sorted(values)
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def pass_time(children: list[dict]) -> float:
    """One cold pass of the workload, in seconds at the reference speed.

    Each piece's wall time is divided by the time the reference kernel took
    just before it, in the same process.  A host that slows down for seconds
    or minutes at a time slows both alike, so the ratio cancels it.  The sum
    over the pieces of each piece's median ratio across the children, times
    REFERENCE_S, is the pass's time on the host at full speed."""
    by_piece: dict[str, list[float]] = {}
    for child in children:
        for name, wall, reference in child["pieces"]:
            by_piece.setdefault(name, []).append(wall / reference)
    return REFERENCE_S * sum(statistics.median(ratios) for ratios in by_piece.values())


def setup_time(records: list[dict]) -> float:
    """Set-up time in seconds at the reference speed: the median over the
    records of spawn-to-import time over the reference kernel's wall time
    right after, times REFERENCE_S."""
    return REFERENCE_S * statistics.median(r["setup_s"] / r["setup_reference"]
                                           for r in records)


def reference_times(children: list[dict], probes: list[dict]) -> list[float]:
    """Every wall time of the reference kernel in a run: the host's speed."""
    return ([r["setup_reference"] for r in children + probes if "setup_reference" in r]
            + [piece[2] for c in children for piece in c.get("pieces", ())])


def end_to_end(children: list[dict], probes: list[dict]) -> tuple[dict, dict]:
    """(metrics, quartile table) over the children that passed their gate."""
    ok = [c for c in children if c["ok"]]
    setups = ok + [p for p in probes if p["ok"]]
    rss = [c["peak_rss_mb"] for c in ok]
    metrics = {"pass_wall_s": pass_time(ok), "setup_s": setup_time(setups),
               "peak_rss_mb": statistics.median(rss), "ok_ratio": len(ok) / len(children)}
    table = {"child_wall_s": quartiles([c["wall_s"] for c in ok]),
             "child_cpu_s": quartiles([c["cpu_s"] for c in ok]),
             "raw_setup_s": quartiles([r["setup_s"] for r in setups]),
             "peak_rss_mb": quartiles(rss)}
    return metrics, table


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def spawn(args: list[str], tag: str) -> dict:
    """Run one child to completion; its wall, CPU and peak memory, plus what
    it wrote (under "result") when it exited 0."""
    out = BUILD / "tmp" / f"{tag}.json"
    err = BUILD / "tmp" / f"{tag}.err"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), *args, "--out", str(out)]
    with open(err, "w") as err_fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err_fh,
                                preexec_fn=_limit_cpu)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"code": proc.returncode, "wall_s": wall,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024, "ok": False}
    if proc.returncode != 0:
        rec["problems"] = [f"exit code {proc.returncode}: "
                           + err.read_text()[-2000:].strip()]
        return rec
    result = json.loads(out.read_text())
    if not result["package_in_checkout"]:
        raise SystemExit(f"child imported halfturn_ice from {result['package_file']}, "
                         f"not from {SRC}")
    rec["setup_s"] = result["imported_at"] - t0
    rec["setup_reference"] = result["setup_reference"]
    rec["result"] = result
    rec["ok"] = True
    return rec


def run_workload(workload: str, seed: int, trace: bool, tag: str, gate) -> dict:
    args = ["--workload", workload, "--seed", str(seed)] + (["--trace"] if trace else [])
    rec = spawn(args, tag)
    if rec["ok"]:
        problems = gate(rec["result"]["outputs"], seed)
        rec["problems"] = problems
        rec["ok"] = not problems
        rec["work_s"] = rec["result"]["work_s"]
        rec["pieces"] = rec["result"]["pieces"]
        rec["trace"] = rec["result"].get("trace")
    rec.pop("result", None)
    return rec


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------


def provenance() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "git_commit": commit or None,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def _gate_for(workload: str):
    from gates import GATES, load_digests

    sys.path.insert(0, str(SRC))
    from halfturn_ice import formulas

    if not Path(formulas.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"halfturn_ice imported from {formulas.__file__}, not from {SRC}")
    digests = load_digests()
    check = GATES[workload]
    return lambda outputs, seed: check(outputs, seed, digests, formulas.count_closed)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "halfturn_ice" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'halfturn_ice'}", file=sys.stderr)
        return 2
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    gate = _gate_for(args.workload)
    prov = provenance()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    warmup = spawn(["--setup-only"], f"{tag}-warmup")  # compiles bytecode, untimed
    if not warmup["ok"]:
        print(f"error: the package does not import: {warmup['problems']}", file=sys.stderr)
        return 2

    probes: list[dict] = []
    children: list[dict] = []
    if args.trace:
        children.append(run_workload(args.workload, args.seed, False, f"{tag}-plain", gate))
        children.append(run_workload(args.workload, args.seed, True, f"{tag}-traced", gate))
    else:
        started = time.monotonic()
        while len(children) < MAX_CHILDREN:
            probes += [spawn(["--setup-only"], f"{tag}-probe{len(probes)}")
                       for _ in range(PROBES_PER_CHILD)]
            children.append(run_workload(args.workload, args.seed, False,
                                         f"{tag}-child{len(children)}", gate))
            elapsed = time.monotonic() - started
            typical = statistics.median(c["wall_s"] for c in children)
            if elapsed + typical > min(args.seconds, RUN_BUDGET_S):
                break

    failed = [c for c in children if not c["ok"]]
    prov["reference_s"] = statistics.median(reference_times(children, probes))
    for c in failed:
        print(f"FAILED child: {c['problems'][:5]}", file=sys.stderr)
    if len(failed) == len(children) or (args.trace and failed):
        print(f"error: {len(failed)} of {len(children)} children failed; nothing to report",
              file=sys.stderr)
        return 1

    if args.trace:
        plain, traced = children
        metrics = layer_metrics(traced["trace"], traced["wall_s"], traced["setup_s"],
                                plain["wall_s"])
        units = {name: _unit(name) for name in metrics}
        table = {}
    else:
        metrics, table = end_to_end(children, probes)
        units = UNITS

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"children={len(children)} failed={len(failed)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, row in table.items():
        print(f"  {name:12s} median={row['median']:.4f} q1={row['q1']:.4f} "
              f"q3={row['q3']:.4f} n={row['n']} {UNITS[name]}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": prov, "quartiles": table, "metrics": metrics,
              "children": children, "probes": probes}
    (BUILD / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
