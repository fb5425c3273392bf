"""One measured process: import the package, prove the caches cold, run one
workload (optionally traced) and write its outputs, and the wall time of
each of its pieces, for the parent to check.  Each piece is preceded by a
timing of a fixed reference kernel, which tells the parent how fast the host
was running at that moment; so is the set-up stamp.

    python3 perfbench/child.py --workload NAME --seed N --out FILE [--trace]
    python3 perfbench/child.py --setup-only --out FILE

The first statements import the package and stamp the clock, so the parent
can measure set-up time as the span from spawn to that stamp.
"""

import time

import halfturn_ice
import halfturn_ice.asm
import halfturn_ice.cli
import halfturn_ice.determinant
import halfturn_ice.enum_asm
import halfturn_ice.exactnum
import halfturn_ice.formulas
import halfturn_ice.icemodel
import halfturn_ice.laurent
import halfturn_ice.verify

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402  (after the set-up stamp on purpose)
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

COLD_EXIT = 3


def reference_kernel() -> float:
    """Wall time of a fixed pure-Python loop of about 5 ms."""
    started = time.perf_counter()
    table: dict = {}
    for i in range(20_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i
    sum(table.values())
    return time.perf_counter() - started


def _cold_caches() -> dict:
    ice, enum = halfturn_ice.icemodel, halfturn_ice.enum_asm
    caches = {"icemodel._state_profiles": ice._state_profiles,
              "icemodel._symbolic_value": ice._symbolic_value,
              "icemodel._z_ht2_value": ice._z_ht2_value,
              "enum_asm.census": enum.census}
    return {name: fn.cache_info().currsize for name, fn in caches.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    src = Path(__file__).resolve().parents[1] / "src"
    result = {"imported_at": IMPORTED_AT,
              "package_file": halfturn_ice.__file__,
              "package_in_checkout": Path(halfturn_ice.__file__).resolve().is_relative_to(src),
              "setup_reference": reference_kernel()}
    if not args.setup_only:
        warm = {k: v for k, v in _cold_caches().items() if v}
        if warm:
            print(f"refusing a warm run, caches already filled: {warm}", file=sys.stderr)
            return COLD_EXIT
        from workloads import RUNNERS

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(halfturn_ice)
        pieces = result["pieces"] = []

        def timed(name, fn):
            reference = reference_kernel()
            started = time.perf_counter()
            value = fn()
            pieces.append([name, time.perf_counter() - started, reference])
            return value

        started = time.monotonic()
        try:
            result["outputs"] = RUNNERS[args.workload](halfturn_ice, args.seed, timed)
        finally:
            result["work_s"] = time.monotonic() - started
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            result["trace"] = tracer.snapshot()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
