"""Record the output digests that the correctness gate compares against.

Usage: ``python3 perfbench/record_digests.py`` from the root of a
checkout.  Runs every workload once for each seed 0..31, requires
the outputs to pass the invariant checks, and writes the SHA-256 of every
input and output to ``perfbench/digests.json``.  Outputs are meant to stay
byte-identical, so record again only for a change that says why its
outputs differ.
"""

from __future__ import annotations

import json
import sys

import check
import run

SEEDS = range(32)


def main() -> int:
    recorded: dict[str, dict] = {}
    for workload in run.WORKLOADS:
        recorded[workload] = {}
        for seed in SEEDS:
            r = run.Run(workload, seed)
            r.iteration()
            if r.failures:
                print(f"{workload} seed {seed}: {r.failures}", file=sys.stderr)
                return 1
            recorded[workload][str(seed)] = {"inputs": r.inputs, "outputs": r.reference}
    text = json.dumps(recorded, indent=1, sort_keys=True) + "\n"
    check.DIGESTS.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
