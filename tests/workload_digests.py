"""Print the SHA-256 of each benchmark workload's output, seed by seed.

Run from the root of a checkout, or name the checkout with ``--root``:

    python3 tests/workload_digests.py --seeds 0-4
    python3 tests/workload_digests.py --root ../base --seeds 0-4

For every workload that ``perfbench/workloads.py`` defines and every seed,
it makes the workload's inputs in a temporary directory, runs the
workload's CLI call once in this process, and prints one line
``<workload> <seed> <sha256>``.  A workload that reads a CSV (``--input``)
runs twice more.  Once it reads its input through a pipe, which a writer
thread fills, and prints ``<workload>/piped <seed> <sha256>``: the loader
holds a pipe's text in memory, while it reads a file on disk by name.
Once it reads a copy of its input with the data rows in a fixed shuffled
order, units interleaved and some with their t=1 row first, and prints
``<workload>/shuffled <seed> <sha256>``: the loader sorts such a file,
while the file as written is already in order.  Then, per seed, it runs a
small study (``STUDY_N`` units, ``STUDY_REPS`` replicates) on each scenario
but study-het's HET and prints ``study/<SCENARIO> <seed> <sha256>``: those
draws take the branches (unit-level coefficients, the post-period-only x2
term, the log x2 term) that the benchmark's study never runs.  Last, per
seed, it runs DRGLMM and OR (ATE and ATT each) on a HET panel of
``INTERACTION_N`` units with the treatment interactions ``x1:treat`` and
``v:treat`` and prints one digest of the four outputs' digests,
``estimate/interactions <seed> <sha256>``: v takes negative values, whose
control-design products are -0.0, and no workload fits a ``v:treat``
column.  Then, per seed, it runs ``diagnose --check all`` twice on a HOM
panel of ``DIAGNOSE_N`` units with ``DIAGNOSE_B`` replicates, with the
models of ``DIAGNOSE_SPECS``: the README's, and the same outcome model with
a constant treatment model, under which every propensity bin collapses and
the DR test meets its degenerate variance.  It prints one digest of the
two outputs' digests, ``diagnose/all <seed> <sha256>``: no workload runs
the balance check, the DR test or backward elimination.  The package
and the workload definitions both come from the checkout at ``--root``;
the workload file is imported, never written.  Two checkouts that print
the same lines write the same output bytes on those seeds.
"""

import argparse
import contextlib
import hashlib
import json
import os
import random
import sys
import tempfile
import threading

STUDY_N = 60
STUDY_REPS = 12
INTERACTION_N = 500
# The models of the estimate/interactions lines: the two-period model of
# DRGLMM and the post-period model of OR, each with two treatment
# interactions.
INTERACTION_SPECS = {
    "drglmm": {"outcome_terms": ["1", "time", "treat", "x1", "x2", "x1:treat", "v:treat"],
               "ps_terms": ["1", "x1", "x2", "v"]},
    "or": {"outcome_terms": ["1", "treat", "x1", "x2", "x1:treat", "v:treat"]},
}
DIAGNOSE_N = 300
DIAGNOSE_B = 60
# The models of the diagnose/all lines: the README's spec, and its outcome
# model with a constant treatment model.
_README_OUTCOME = ["1", "time", "treat", "x1", "x2", "log(x2)"]
DIAGNOSE_SPECS = {
    "readme": {"outcome_terms": _README_OUTCOME, "ps_terms": ["1", "x1", "x2", "v"]},
    "constant": {"outcome_terms": _README_OUTCOME, "ps_terms": ["1"]},
}

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
    from panel_causal import SCENARIO_IDS, cli
    from workloads import WORKLOADS

    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                workload.prepare(seed, workdir)
                out = os.path.join(workdir, "out")
                argv = workload.argv(seed, workdir, out)
                print(name, seed, _digest(cli.run, argv, out, f"{name} seed {seed}"), flush=True)
                if "--input" in argv:
                    at = argv.index("--input") + 1
                    with _pipe_of(argv[at]) as pipe:
                        label = f"{name}/piped"
                        print(label, seed, _digest(cli.run, [*argv[:at], pipe, *argv[at + 1:]],
                                                   out, f"{label} seed {seed}"), flush=True)
                    _shuffle_rows(argv[at])
                    label = f"{name}/shuffled"
                    print(label, seed, _digest(cli.run, argv, out, f"{label} seed {seed}"),
                          flush=True)
    for scenario in SCENARIO_IDS:
        if scenario == "HET":
            continue
        label = f"study/{scenario}"
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                out = os.path.join(workdir, "out")
                argv = ["study", "--scenario", scenario, "--n", str(STUDY_N),
                        "--reps", str(STUDY_REPS), "--seed", str(seed), "--format", "csv",
                        "--output", out]
                print(label, seed, _digest(cli.run, argv, out, f"{label} seed {seed}"),
                      flush=True)
    for seed in args.seeds:
        print("estimate/interactions", seed, _interactions_digest(cli.run, seed), flush=True)
    for seed in args.seeds:
        print("diagnose/all", seed, _diagnose_digest(cli.run, seed), flush=True)
    return 0


def _interactions_digest(run, seed):
    """The SHA-256 of the digests of DRGLMM's and OR's outputs, each
    estimand, on a HET panel drawn from ``seed``, with the models of
    ``INTERACTION_SPECS``."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        panel, out = os.path.join(workdir, "panel.csv"), os.path.join(workdir, "out")
        argv = ["simulate", "--scenario", "HET", "--n", str(INTERACTION_N), "--seed", str(seed),
                "--output", panel]
        if run(argv) != 0:
            raise SystemExit(f"estimate/interactions seed {seed}: simulate failed")
        for method, spec in INTERACTION_SPECS.items():
            spec_path = os.path.join(workdir, f"{method}.json")
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            for estimand in ("ate", "att"):
                argv = ["estimate", "--input", panel, "--method", method, "--estimand", estimand,
                        "--spec", spec_path, "--format", "json", "--output", out]
                what = f"estimate/interactions {method} {estimand} seed {seed}"
                digest.update(_digest(run, argv, out, what).encode())
    return digest.hexdigest()


def _diagnose_digest(run, seed):
    """The SHA-256 of the digests of ``diagnose --check all`` with each
    model of ``DIAGNOSE_SPECS``, on a HOM panel drawn from ``seed``."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        panel, out = os.path.join(workdir, "panel.csv"), os.path.join(workdir, "out")
        argv = ["simulate", "--scenario", "HOM", "--n", str(DIAGNOSE_N), "--seed", str(seed),
                "--output", panel]
        if run(argv) != 0:
            raise SystemExit(f"diagnose/all seed {seed}: simulate failed")
        for name, spec in DIAGNOSE_SPECS.items():
            spec_path = os.path.join(workdir, f"{name}.json")
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            argv = ["diagnose", "--input", panel, "--spec", spec_path, "--check", "all",
                    "--B", str(DIAGNOSE_B), "--seed", str(seed), "--format", "json",
                    "--output", out]
            digest.update(_digest(run, argv, out, f"diagnose/all {name} seed {seed}").encode())
    return digest.hexdigest()


def _digest(run, argv, out, what):
    """Run the CLI call and return the SHA-256 of the file it wrote."""
    code = run(argv)
    if code != 0:
        raise SystemExit(f"{what}: exit {code}")
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@contextlib.contextmanager
def _pipe_of(path):
    """The ``/dev/fd`` name of a pipe that a writer thread fills with the
    bytes of the file at ``path``.  The read end is closed on exit, so a
    writer left blocked by a call that never read ends with a broken pipe."""
    with open(path, "rb") as fh:
        data = fh.read()
    r, w = os.pipe()

    def write():
        try:
            with open(w, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)
        writer.join()


def _shuffle_rows(path):
    """Rewrite the CSV at ``path`` with its data rows in one fixed shuffled
    order (one line per row, as the workloads write their inputs)."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = fh.readlines()
    random.Random(0).shuffle(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines([header, *rows])


if __name__ == "__main__":
    sys.exit(main())
