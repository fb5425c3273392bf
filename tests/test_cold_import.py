"""Importing the package stays light: no module of it may pull in
`dataclasses` or `inspect` (which loads `ast`, `dis` and `tokenize`), nor
`argparse`, which only `cli.build_parser` needs, since every CLI command and
every benchmark child pays for its imports cold.  Nor may an import do work
that a command would otherwise do: no cache is filled and no alternating
row is built until something asks for one."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Modules loaded by site hooks are in sys.modules before the package is
# imported, so only what the package itself adds is compared.
PROBE = """
import importlib, json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


# Prints what the import left filled: the size of `as_asm`'s row memo, every
# `lru_cache` holding an entry, and every module global that holds an
# alternating row (length 2 or more), directly or as the first item of a
# tuple such as (row, plus mask, minus mask).
STATE_PROBE = """
import importlib, json, sys
mods = [importlib.import_module(name) for name in sys.argv[1:]]

def alternating(x):
    if not (isinstance(x, tuple) and len(x) > 1 and all(type(e) is int for e in x)):
        return False
    nonzero = [e for e in x if e]
    return nonzero == [1, -1] * (len(nonzero) // 2) + [1]

filled = []
for mod in mods:
    for name, value in vars(mod).items():
        if hasattr(value, "cache_info") and value.cache_info().currsize:
            filled.append(f"{mod.__name__}.{name}")
        if isinstance(value, dict):
            items = [*value, *value.values()]
        elif isinstance(value, (list, tuple, set, frozenset)):
            items = list(value)
        else:
            continue
        if any(alternating(x) or (isinstance(x, tuple) and x and alternating(x[0]))
               for x in items):
            filled.append(f"{mod.__name__}.{name}")
print(json.dumps({"memo": len(sys.modules["halfturn_ice.asm"]._ROWS), "filled": filled}))
"""


def _modules():
    # __main__ runs the CLI when imported; it only imports cli.
    return ["halfturn_ice"] + [f"halfturn_ice.{p.stem}"
                               for p in sorted((SRC / "halfturn_ice").glob("*.py"))
                               if p.stem not in ("__init__", "__main__")]


def _probe(probe, modules=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return json.loads(subprocess.run([sys.executable, "-c", probe, *(modules or _modules())],
                                     env=env, capture_output=True, text=True,
                                     check=True).stdout)


def test_package_import_loads_no_dataclasses_or_inspect():
    added = set(_probe(PROBE))
    assert set(_modules()) <= added
    assert not added & {"dataclasses", "inspect", "argparse"}, sorted(added)


def test_laurent_and_formulas_import_only_their_layers():
    # laurent is the bottom layer: it imports no other module of the
    # package.  formulas stands on laurent alone, and icemodel, which counts
    # states by its compiled plan, does not load it.
    def package_modules(module):
        return {m for m in _probe(PROBE, [module]) if m.startswith("halfturn_ice.")}

    assert package_modules("halfturn_ice.laurent") == {"halfturn_ice.laurent"}
    assert "halfturn_ice.formulas" not in package_modules("halfturn_ice.icemodel")
    assert package_modules("halfturn_ice.formulas") == {"halfturn_ice.laurent",
                                                        "halfturn_ice.formulas"}


def test_package_import_builds_no_rows_and_fills_no_cache():
    assert _probe(STATE_PROBE) == {"memo": 0, "filled": []}
