#!/usr/bin/env python3
"""Run every workload untraced, each in its own process so that peak
memory is its own, and print each one's table of end-to-end metrics.

    python3 perfbench/all.py --seed 0 --seconds 40

Exits non-zero when a workload fails its output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)

    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            return proc.returncode or 1
        print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
        ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
