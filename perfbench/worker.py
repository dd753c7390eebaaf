"""One workload process: set up, then time ``panel_causal.cli.run`` calls.

Started by ``run.py`` as a fresh interpreter so that set-up (importing the
package, making the inputs, lazy one-time work) is paid as a user pays it.
BLAS and OpenMP pools are capped at one thread before numpy loads.  The
process writes one JSON report to ``<workdir>/report.json``:

* ``--trace 0``: the set-up time, then one record per timed call, calls
  repeated in a closed loop until ``--seconds`` have passed.  A host-speed
  probe (see ``hostspeed``) runs after set-up and after every call; each
  call records the mean of the probes on either side of it.
* ``--trace 1``: a warm-up call, ``traced_calls`` pairs of an untraced and
  a traced call, then (for commands that take ``--threads``) the same
  number of calls at ``--threads 2``.  The number of calls is fixed, not
  set by ``--seconds``, so the counts repeat exactly.  The report holds the
  per-layer figures derived from the spans, which are also written to
  ``<workdir>/spans.jsonl``.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --workdir DIR --spawned-at UNIX_TIME
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import hostspeed  # first: caps the BLAS pools before numpy loads
from spans import COUNTERS, MODULES, Tracer, check_spans, layer_totals
from workloads import WORKLOADS

# Per-layer times that include the set-up tree as well as one call.
SETUP_TIMES = ("panel_data.write_csv.s", "simlab.true_effects.s")


def _blas_threads():
    """Thread count OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment(seed):
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "blas_thread_env": {v: os.environ[v] for v in hostspeed.BLAS_THREAD_VARS},
            "seed": seed}


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    def __init__(self, workload, seed, workdir):
        from panel_causal import cli
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir

    def call(self, threads=1):
        """One timed CLI call: {"s", "exit", "sha256"}.

        While a tracer is installed, ``cli.run`` is its wrapper and the call
        is the root span of its tree.
        """
        out = os.path.join(self.workdir, f"out-t{threads}")
        argv = self.workload.argv(self.seed, self.workdir, out, threads=threads)
        if os.path.exists(out):
            os.remove(out)
        t0 = time.perf_counter()
        code = self.cli.run(argv)
        dt = time.perf_counter() - t0
        return {"s": dt, "exit": code,
                "sha256": _sha(out) if os.path.exists(out) else None}


def _per_layer(names, tracer, roots, setup_root):
    """Per-layer times and call counts of one traced call (the median over
    ``roots``) for the metric ``names`` of BENCHMARK.json that name a span
    or a module."""
    spans = tracer.spans
    per_call = [layer_totals(spans, {r}) for r in roots]
    setup_busy = layer_totals(spans, {setup_root})[1]
    problems = []
    if any(pc[0] != per_call[0][0] for pc in per_call):
        problems.append("traced calls made different numbers of calls")
    out = {}
    for name in names:
        if name in COUNTERS or name.endswith(".failed"):
            continue  # filled from the counts below
        stem, _, field = name.rpartition(".")
        if field == "calls":
            vals = [pc[0][stem] for pc in per_call]
        elif field == "s":
            vals = [pc[1][stem] / 1e9 for pc in per_call]
            if name in SETUP_TIMES:
                vals = [v + setup_busy[stem] / 1e9 for v in vals]
        elif field == "self_s" and stem in MODULES:
            vals = [pc[2][stem] / 1e9 for pc in per_call]
        else:
            continue
        if field in ("calls", "s") and stem not in tracer.names:
            problems.append(f"per-layer metric {name} names no traced function")
        out[name] = statistics.median(vals)
    return out, problems


def run_traced(runner, workload, names, tracer, setup_root):
    # The warm-up call takes the first-call costs of a fresh process.
    report = {"warmup": [runner.call()], "untraced": [], "traced": [], "threads2": []}
    roots, counts = [], []
    for k in range(workload.traced_calls):
        if k % 2 == 0:  # alternate the order, so drift does not favour one side
            report["untraced"].append(runner.call())
        before = tracer.counts.copy()
        roots.append(len(tracer.spans))
        tracer.install()
        try:
            report["traced"].append(runner.call())
        finally:
            tracer.uninstall()
        counts.append(tracer.counts - before)
        if k % 2 == 1:
            report["untraced"].append(runner.call())
    if workload.threaded:
        report["threads2"] = [runner.call(threads=2)
                              for _ in range(workload.traced_calls)]
    layers, problems = _per_layer(names, tracer, roots, setup_root)
    if any(c != counts[0] for c in counts):
        problems.append("traced calls reported different diagnostic counts")
    for name in names:
        if name in COUNTERS or name.endswith(".failed"):
            layers[name] = counts[0][name]
    untraced = statistics.median(c["s"] for c in report["untraced"])
    layers["trace.overhead_frac"] = (
        statistics.median(c["s"] for c in report["traced"]) / untraced - 1.0)
    # estimate has no --threads and no thread pool: its ratio is 1 by definition.
    layers["inference.threads2_speedup"] = (
        untraced / statistics.median(c["s"] for c in report["threads2"])
        if report["threads2"] else 1.0)
    problems += check_spans(tracer.spans)
    report["per_layer"] = layers
    report["trace_problems"] = problems
    tracer.dump(os.path.join(runner.workdir, "spans.jsonl"))
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    import panel_causal
    import panel_causal.cli  # noqa: F401  (the tracer wraps cli too)
    tracer = Tracer(panel_causal) if args.trace else None
    if tracer is None:
        workload.prepare(args.seed, args.workdir)
    else:
        tracer.install()
        try:
            setup_root = len(tracer.spans)
            tracer.call("bench.setup", workload.prepare, args.seed, args.workdir)
        finally:
            tracer.uninstall()
    setup_s = time.time() - args.spawned_at
    runner = Runner(workload, args.seed, args.workdir)

    if tracer is None:
        probe = hostspeed.probe()
        report = {"calls": [], "setup_probe_s": probe}
        deadline = time.perf_counter() + args.seconds
        while not report["calls"] or time.perf_counter() < deadline:
            record = runner.call()
            after = hostspeed.probe()
            record["probe_s"] = 0.5 * (probe + after)
            probe = after
            report["calls"].append(record)
    else:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        report = run_traced(runner, workload, names, tracer, setup_root)
    report["setup_s"] = setup_s
    report["env"] = _environment(args.seed)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(args.workdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
