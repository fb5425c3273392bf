"""Re-record ``digests.json`` from the code of the current checkout.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run it only when the pinned workloads change, on a commit whose outputs are
known to be right: every later run is checked against what it records.  The
catalog is run at three seeds; a suite's seedless digest is kept only when
all three agree.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import halfturn_ice.cli
import halfturn_ice.verify

from gates import DIGESTS_FILE, catalog_digest, seedless_digest, sha256
from workloads import CATALOG, ENUMERATE

SEEDS = (42, 7, 1234)


def main() -> None:
    by_seed = {seed: [halfturn_ice.verify.run_suite(sid, params, seed).to_json()
                      for sid, params in CATALOG] for seed in SEEDS}
    seedless = {}
    for i, (sid, _) in enumerate(CATALOG):
        found = {seedless_digest(by_seed[seed][i]) for seed in SEEDS}
        if len(found) == 1:
            seedless[sid] = found.pop()
    outputs = []
    for argv, _ in ENUMERATE:
        buf = io.StringIO()
        with redirect_stdout(buf):
            halfturn_ice.cli.main(argv.split())
        outputs.append(sha256(buf.getvalue()))
    digests = {"catalog": {"seed": SEEDS[0], "report_sha256": catalog_digest(by_seed[SEEDS[0]]),
                           "seedless_sha256": seedless},
               "enumerate": {"sha256": outputs}}
    DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(seedless)} seedless suite digests and {len(outputs)} outputs")


if __name__ == "__main__":
    main()
