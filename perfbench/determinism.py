#!/usr/bin/env python3
"""Report whether sensopt's outputs are identical at 1 and at 2 BLAS threads.

Run from the repository root:

    python3 perfbench/determinism.py --seed 1

Runs train_desk and sweep_grid once per thread count with a 1-second
loop (so each run is mostly its fixture builds), then compares the SHA-256
digests of every model.bin, history.csv and sweep_report.csv the two
runs recorded.  This reports; it does not gate: the exit code is 0
whenever all four runs completed, whatever the digests say.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train_desk", "sweep_grid")
THREADS = (1, 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    report = {}
    for workload in WORKLOADS:
        digests = {}
        for threads in THREADS:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
                "--blas-threads", str(threads),
            ]
            done = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                print(f"determinism: {workload} at {threads} BLAS threads failed", file=sys.stderr)
                return done.returncode
            record = HERE / "_results" / f"{workload}-s{args.seed}-t0-b{threads}.json"
            digests[threads] = json.loads(record.read_text())["digests"]
        one, two = (digests[t] for t in THREADS)
        differing = sorted(name for name in one.keys() | two.keys() if one.get(name) != two.get(name))
        report[workload] = {"identical": not differing, "files": len(one), "differing": differing}
    print(json.dumps({"seed": args.seed, "blas_threads": list(THREADS), "workloads": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
