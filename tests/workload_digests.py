"""Print the SHA-256 of each benchmark workload's output, seed by seed.

Run from the root of a checkout, or name the checkout with ``--root``:

    python3 tests/workload_digests.py --seeds 0-4
    python3 tests/workload_digests.py --root ../base --seeds 0-4

For every workload that ``perfbench/workloads.py`` defines and every seed,
it makes the workload's inputs in a temporary directory, runs the
workload's CLI call once in this process, and prints one line
``<workload> <seed> <sha256>``.  The package and the workload definitions
both come from the checkout at ``--root``; the workload file is imported,
never written.  Two checkouts that print the same lines write the same
output bytes on those seeds.
"""

import argparse
import hashlib
import os
import sys
import tempfile

# One BLAS thread, as in the benchmark's workers, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _seeds(text):
    """``"0-4"`` or ``"0,3,7"`` (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=os.getcwd(),
                        help="checkout whose package and workloads run (default: here)")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-4"),
                        help='seeds as "0-4" or "0,3,7" (default: 0-4)')
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from panel_causal import cli
    from workloads import WORKLOADS

    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                workload.prepare(seed, workdir)
                out = os.path.join(workdir, "out")
                code = cli.run(workload.argv(seed, workdir, out))
                if code != 0:
                    raise SystemExit(f"{name} seed {seed}: exit {code}")
                with open(out, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
            print(name, seed, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
