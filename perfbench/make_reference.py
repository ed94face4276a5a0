"""Record the reference values that run.py checks results against.

    python3 perfbench/make_reference.py 0 1 2

Runs one untraced repetition of every workload for each given seed and
stores its values in reference.json, replacing entries for those seeds.
Only rerun this when a change is meant to alter the results.
"""
from __future__ import annotations

import json
import sys

import run


def main(argv) -> int:
    seeds = [int(s) for s in argv]
    if not seeds or not run.prepare():
        print(__doc__, file=sys.stderr)
        return 2
    from workloads import (REFERENCE_PATH, WORKLOADS, load_reference,
                           reference_entry, run_repetition)

    reference = load_reference()
    for wl in WORKLOADS.values():
        for seed in seeds:
            rep = run_repetition(wl, seed, None)
            if rep.failed_ops:
                print("\n".join(rep.problems), file=sys.stderr)
                return 1
            reference.setdefault(wl.name, {})[str(seed)] = \
                reference_entry(wl, rep)
            print(f"{wl.name} seed {seed}: final_rvol {rep.final_rvol!r}")
    REFERENCE_PATH.write_text(dumps(reference))
    return 0


def dumps(reference: dict) -> str:
    """JSON with one line per workload and seed."""
    blocks = []
    for name, seeds in reference.items():
        lines = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(entry)}"
                           for seed, entry in seeds.items())
        blocks.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
