#!/usr/bin/env python3
"""Record the reference final loss and final L2 error of every workload
unit for seeds 0..SEEDS-1 into perfbench/reference.json.

    python3 perfbench/record_reference.py

Run it from the repository root at a commit whose numerics are trusted,
and again only when a change to the numerics is deliberate and named.
It rewrites the whole table.
"""

from __future__ import annotations

import json
import shutil

import outputs
from run import OUT, invoke, load_cli
from workloads import WORKLOADS

RTOL = 1e-9
SEEDS = 40


def main():
    cli = load_cli()
    ref = {"rtol": RTOL, "workloads": {}}
    work = OUT / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in sorted(WORKLOADS.items()):
            table = ref["workloads"][name] = {}
            for seed in range(SEEDS):
                cfg_path = work / "config.json"
                cfg_path.write_text(json.dumps(workload.config(seed)) + "\n")
                inv = invoke(cli, workload, cfg_path, work / "run")
                problems = [p for u in inv.units for p in u.problems]
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                table[str(seed)] = {u.name: [u.final_loss, u.final_l2] for u in inv.units}
                shutil.rmtree(work / "run")
                print(f"{name} seed {seed}: {table[str(seed)]}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outputs.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
