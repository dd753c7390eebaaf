"""Record the reference outputs the benchmark's output checks compare with.

Run from the root of a checkout:

    python3 perfbench/record.py

For each workload and each of the seeds 0 to 20 it runs one worker process
(set-up plus a single CLI call, BLAS capped as in a benchmark run), parses
the output, and stores its numbers, its counts and the SHA-256 of its bytes
in ``perfbench/reference.json``, keeping the tolerances stored there.
Re-record only when a change to the program is meant to change its output,
and say so where the change is described.
"""

import hashlib
import json
import os
import shutil
import sys
import time

from run import HERE, RUN_TIMEOUT, spawn
from workloads import REFERENCE, WORKLOADS, load_reference

RECORDED_SEEDS = range(21)


def main():
    reference = load_reference()
    root = os.getcwd()
    scratch = os.path.join(HERE, "out", "record")
    for name, workload in WORKLOADS.items():
        entries = reference["outputs"][name] = {}
        for seed in RECORDED_SEEDS:
            shutil.rmtree(scratch, ignore_errors=True)
            report = spawn(root, name, seed, 0, scratch, 0.0, time.time() + RUN_TIMEOUT)
            if report["calls"][0]["exit"] != 0:
                raise SystemExit(f"{name} seed {seed}: the call failed")
            with open(os.path.join(scratch, "out-t1"), "rb") as fh:
                data = fh.read()
            numbers, counts = workload.parse(data.decode("utf-8"))
            problems = workload.invariants(numbers, counts, seed)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            entries[str(seed)] = {
                "numbers": numbers, "counts": counts,
                "sha256": hashlib.sha256(data).hexdigest(),
            }
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    shutil.rmtree(scratch, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
