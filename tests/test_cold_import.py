"""Importing the package stays light: no module of it may pull in
`dataclasses` or `inspect` (which loads `ast`, `dis` and `tokenize`), nor
`argparse`, which only `cli.build_parser` needs, since every CLI command and
every benchmark child pays for its imports cold."""

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


def test_package_import_loads_no_dataclasses_or_inspect():
    # __main__ runs the CLI when imported; it only imports cli.
    names = ["halfturn_ice"] + [f"halfturn_ice.{p.stem}"
                                for p in sorted((SRC / "halfturn_ice").glob("*.py"))
                                if p.stem not in ("__init__", "__main__")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE, *names], env=env,
                         capture_output=True, text=True, check=True).stdout
    added = set(json.loads(out))
    assert set(names) <= added
    assert not added & {"dataclasses", "inspect", "argparse"}, sorted(added)
