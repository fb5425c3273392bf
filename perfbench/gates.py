"""Correctness gates, applied by the parent to what a child wrote.

Each gate returns a list of problems; an empty list passes.  The gates use
routes independent of the timed code's own verdicts: digests recorded from
the commit that defined the benchmark, closed-form counts, and the inputs
regenerated from the seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import CATALOG, ENUMERATE, point_inputs

DIGESTS_FILE = Path(__file__).with_name("digests.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def catalog_digest(lines: list[str]) -> str:
    """Digest of ``verify --all --format json`` output for the pinned suites."""
    return sha256("".join(line + "\n" for line in lines))


def seedless_digest(line: str) -> str:
    """Digest of one suite report with its seed field removed."""
    obj = json.loads(line)
    obj.pop("seed", None)
    return sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def check_catalog(out: dict, seed: int, digests: dict, count_closed) -> list[str]:
    rec = digests["catalog"]
    lines = out["lines"]
    reports = [json.loads(line) for line in lines]
    problems = []
    if [r["suiteId"] for r in reports] != [sid for sid, _ in CATALOG]:
        problems.append("suite ids differ from the pinned catalog")
    problems += [f"suite {r['suiteId']} reports {r['status']}"
                 for r in reports if r["status"] != "pass"]
    if seed == rec["seed"] and catalog_digest(lines) != rec["report_sha256"]:
        problems.append(f"report bytes at seed {seed} differ from the recorded digest")
    for line, r in zip(lines, reports):
        want = rec["seedless_sha256"].get(r["suiteId"])
        if want is not None and seedless_digest(line) != want:
            problems.append(f"suite {r['suiteId']} report differs from the recorded one")
    return problems


def check_points(out: dict, seed: int, digests: dict, count_closed) -> list[str]:
    want = point_inputs(seed)
    got = out["records"]
    if len(got) != len(want):
        return [f"{len(got)} point records, expected {len(want)}"]
    problems = []
    for w, g in zip(want, got):
        where = f"{w['check']} {w['model']} size {w['size']}"
        if (g["model"], g["size"], g["u"], g["swap"]) != (
                w["model"], w["size"], [str(f) for f in w["u"]], list(w.get("swap", ()))):
            problems.append(f"{where}: inputs differ from the seeded ones")
        elif g["lhs"] != g["rhs"]:
            problems.append(f"{where}: {g['lhs']} != {g['rhs']} at u={g['u']}")
    return problems


def check_enumerate_output(argv: str, family: str, order: int, code: int, text: str,
                           digest: str, count_closed) -> list[str]:
    problems = [f"`{argv}` exited {code}"] if code != 0 else []
    total = json.loads(text)["count"] if "--census" in argv else len(text.splitlines())
    expected = count_closed(family, order)
    if total != expected:
        problems.append(f"`{argv}` gave {total} matrices, closed form {expected}")
    if sha256(text) != digest:
        problems.append(f"`{argv}` output differs from the recorded digest")
    return problems


def check_enumerate(out: dict, seed: int, digests: dict, count_closed) -> list[str]:
    if len(out["outputs"]) != len(ENUMERATE):
        return [f"{len(out['outputs'])} enumerate outputs, expected {len(ENUMERATE)}"]
    problems = []
    for (argv, (family, order)), code, text, digest in zip(
            ENUMERATE, out["codes"], out["outputs"], digests["enumerate"]["sha256"]):
        problems += check_enumerate_output(argv, family, order, code, text, digest,
                                           count_closed)
    return problems


GATES = {"catalog": check_catalog, "points": check_points, "enumerate": check_enumerate}


def load_digests() -> dict:
    return json.loads(DIGESTS_FILE.read_text())
