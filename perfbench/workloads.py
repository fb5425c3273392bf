"""The three workloads: their pinned inputs and the code a child runs.

catalog    the 27 verify suites in canonical order, at the run's seed, with
           parameters pinned small enough that no suite builds the symbolic
           Z(4) or Z_HT(6) (a single one of those takes 8 to 30 s).
points     seeded random rational points at a = zeta: evaluated state sums
           against the determinant evaluators, plus the evaluators alone
           at larger sizes, each checked under a seeded transposition.
enumerate  three ``halfturn-ice enumerate`` commands through ``cli.main``.
           The commands take no seed, so this workload ignores it.

Each ``run_*`` function returns plain data that the parent checks.  It runs
every piece of its work through ``timed(name, fn)``, which the child uses to
time the piece after a reference kernel; pieces are short (mostly well under
a second) so that a piece and the kernel timed just before it see the host
at the same speed.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

# Suite ids and parameters pinned, so that a catalog grown later leaves
# this workload unchanged.
CATALOG = (
    ("ybe", {}),
    ("dwbc-recursion", {"n_max": 3}),
    ("dwbc-symmetry", {"n_max": 3}),
    ("leading-C-S", {"n_max": 3}),
    ("lemma2-counts", {"n_max": 5}),
    ("lemma7-12-counts", {"order_max": 7}),
    ("genfunc", {"n_max": 7, "ht_order_max": 8}),
    ("ht-even-recursion", {"m_max": 2}),
    ("ht-even-leading", {"m_max": 2}),
    ("factorization", {"m_max": 2}),
    ("ht2-recursion", {"m_max": 2}),
    ("ht-odd-recursion", {"m_max": 2}),
    ("ht-odd-inversion", {"m_max": 2}),
    ("ht-odd-leading", {"m_max": 2}),
    ("theorem1", {"m_max": 1}),
    ("theorem2", {"m_max": 1}),
    ("theorem3", {"m_max": 2, "points": 8}),
    ("parity", {"n_max": 3, "m_max": 2}),
    ("special-recursion", {"n_max": 4, "m_max": 2, "points": 4}),
    ("three-term", {"n_max": 2, "m_max": 2, "points": 4}),
    ("det-oracle", {"n_max": 3, "m_max": 2, "points": 8}),
    ("wronskian", {"m_max": 2, "points": 4}),
    ("counts-closed", {}),
    ("refined-1", {}),
    ("xenum", {"n_max": 3, "m_max": 1}),
    ("refined-split", {"orders": [3, 5, 7]}),
    ("four-enum", {"m_max": 3}),
)

# (model, size): state sum at a = zeta against determinant.special_z.
PAIRED = (("dwbc", 5), ("ht2", 3), ("ht-odd", 3))
# (model, size): special_z alone, checked for symmetry under a transposition.
DET_ONLY = (("dwbc", 8), ("dwbc", 10), ("ht-odd", 5), ("ht-odd", 6))
POINT_BOUND = 50

# (argv, (family, order) whose closed-form count the output's total must equal)
ENUMERATE = (
    ("enumerate -n 6 --census --format json", ("asm", 6)),
    ("enumerate --order 7 --class ht --census --format json", ("ht-odd", 7)),
    ("enumerate -n 6 --format json", ("asm", 6)),
)


def point_dim(model: str, size: int) -> int:
    return 2 * size + 1 if model == "ht-odd" else 2 * size


def _rationals(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    out: list[Fraction] = []
    while len(out) < count:
        f = Fraction(rng.randint(1, POINT_BOUND), rng.randint(1, POINT_BOUND))
        if f not in out:
            out.append(f)
    return tuple(out)


def point_inputs(seed: int) -> list[dict]:
    """Every point of the ``points`` workload; a function of the seed only."""
    rng = random.Random(f"perfbench-points-{seed}")
    inputs = [{"check": "state-sum", "model": model, "size": size,
               "u": _rationals(rng, point_dim(model, size))} for model, size in PAIRED]
    for model, size in DET_ONLY:
        dim = point_dim(model, size)
        inputs.append({"check": "transposition", "model": model, "size": size,
                       "u": _rationals(rng, dim),
                       "swap": tuple(sorted(rng.sample(range(dim), 2)))})
    return inputs


# ----------------------------------------------------------------------
# child side: these run inside the measured process
# ----------------------------------------------------------------------


def run_catalog(hi, seed: int, timed) -> dict:
    return {"lines": [timed(suite_id, lambda: hi.verify.run_suite(suite_id, params, seed).to_json())
                      for suite_id, params in CATALOG]}


def _assignment(hi, model: str, size: int, u) -> dict:
    c = hi.exactnum.Cyclo.of
    assign = {"a": hi.exactnum.ZETA}
    if model == "ht-odd":
        for i in range(size + 1):
            assign[f"x{i + 1}"] = c(u[2 * i])
        for i in range(size):
            assign[f"y{i + 1}"] = c(u[2 * i + 1])
        assign[f"y{size + 1}"] = c(u[2 * size])
    else:
        for i in range(size):
            assign[f"x{i + 1}"] = c(u[2 * i])
            assign[f"y{i + 1}"] = c(u[2 * i + 1])
    return assign


def _state_sum(hi, model: str, size: int, u):
    ice = hi.icemodel
    assign = _assignment(hi, model, size, u)
    if model == "ht2":  # Z_HT(2m) / Z(m), both evaluated
        zht = ice.partition_function(ice.ModelSpec("ht-even", size), assign).value
        return zht / ice.partition_function(ice.ModelSpec("dwbc", size), assign).value
    return ice.partition_function(ice.ModelSpec(model, size), assign).value


def _lhs(hi, p: dict):
    model, size, u = p["model"], p["size"], p["u"]
    if p["check"] == "state-sum":
        return _state_sum(hi, model, size, u)
    i, j = p["swap"]
    swapped = list(u)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return hi.determinant.special_z(model, size, tuple(swapped))


def run_points(hi, seed: int, timed) -> dict:
    records = []
    for p in point_inputs(seed):
        model, size, u = p["model"], p["size"], p["u"]
        name = f"{p['check']}-{model}-{size}"
        lhs = timed(f"{name}.lhs", lambda: _lhs(hi, p))
        rhs = timed(f"{name}.rhs", lambda: hi.determinant.special_z(model, size, u))
        records.append({"check": p["check"], "model": model, "size": size,
                        "u": [str(f) for f in u], "swap": list(p.get("swap", ())),
                        "lhs": str(lhs), "rhs": str(rhs)})
    return {"records": records}


def _command(hi, argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hi.cli.main(argv.split())
    return code, buf.getvalue()


def run_enumerate(hi, seed: int, timed) -> dict:
    outputs, codes = [], []
    for argv, _ in ENUMERATE:
        code, text = timed(argv, lambda: _command(hi, argv))
        codes.append(code)
        outputs.append(text)
    return {"outputs": outputs, "codes": codes}


RUNNERS = {"catalog": run_catalog, "points": run_points, "enumerate": run_enumerate}
WORKLOADS = tuple(RUNNERS)
