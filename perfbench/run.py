"""Benchmark entry point for panel-causal.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it starts ``WORKERS`` fresh worker processes one after
another, each paying its own set-up and then timing CLI calls for an equal
share of ``--seconds``, and prints the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it starts one traced worker and
prints the per-layer metrics.  Either way it checks every output (see
``workloads.check_output``), writes the full record (samples, quartiles,
checks, environment) to ``perfbench/out/<workload>-seed<N>-trace<T>/``, and
prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402  (caps the BLAS pools before numpy loads)
from workloads import WORKLOADS, check_output, load_reference  # noqa: E402

WORKERS = 3        # fresh processes per untraced run
RUN_TIMEOUT = 170  # seconds for all workers of a run; a hung one is killed


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _git_commit(root):
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def spawn(root, workload, seed, trace, workdir, seconds, deadline):
    """Run one worker process to the end and return its report."""
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--workdir", workdir, "--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.time()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker for {workload} exited {proc.returncode}")
    with open(os.path.join(workdir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _check(workload, args, reports, outdir):
    """Output checks over every call of every worker.

    Returns (problems, attempted, failed, sha256, sha_matches).
    """
    problems = []
    calls = [c for r in reports
             for key in ("calls", "warmup", "untraced", "traced") for c in r.get(key, [])]
    bad = [c for c in calls if c["exit"] != 0]
    if bad:
        problems.append(f"{len(bad)} of {len(calls)} calls exited nonzero")
    shas = {c["sha256"] for c in calls if c["exit"] == 0}
    if len(shas) > 1:
        problems.append("repeated calls with the same seed wrote different bytes")
    threads2 = {c["sha256"] for r in reports for c in r.get("threads2", [])}
    if threads2 and threads2 != shas:
        problems.append("--threads 2 output differs from --threads 1 output")
    for r in reports:
        problems += r.get("trace_problems", [])
    sha, sha_matches = None, None
    per_call = (1, 1)  # a call with no output fails all of its work
    outputs = [os.path.join(outdir, f"w{k}", "out-t1") for k in range(len(reports))]
    outputs = [path for path in outputs if os.path.exists(path)]
    if shas and outputs:
        sha = shas.pop()
        with open(outputs[0], "rb") as fh:
            data = fh.read()
        out_problems, sha_matches = check_output(workload, data, args.seed,
                                                 load_reference())
        problems += out_problems
        if not out_problems:
            per_call = workload.failures(workload.parse(data.decode("utf-8"))[1])
    attempted = len(calls) * per_call[0]
    failed = (len(calls) - len(bad)) * per_call[1] + len(bad) * per_call[0]
    return problems, attempted, failed, sha, sha_matches


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    deadline = time.time() + RUN_TIMEOUT
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "panel_causal", "cli.py")):
        print("perfbench: src/panel_causal not found; run from the root of a "
              "panel-causal checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workload = WORKLOADS[args.workload]
    outdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)

    if args.trace:
        wanted = bench["per_layer"]
        reports = [spawn(root, args.workload, args.seed, 1,
                         os.path.join(outdir, "w0"), args.seconds, deadline)]
    else:
        wanted = bench["end_to_end"]
        reports = []
        for k in range(WORKERS):
            probe = hostspeed.probe()
            reports.append(spawn(root, args.workload, args.seed, 0,
                                 os.path.join(outdir, f"w{k}"), args.seconds / WORKERS,
                                 deadline))
            reports[-1]["spawn_probe_s"] = probe
    problems, attempted, failed, sha, sha_matches = _check(workload, args, reports, outdir)

    values, detail = {}, {}
    if args.trace:
        values.update(reports[0]["per_layer"])
        values["failed_frac"] = failed / attempted
        values["check.sha_mismatches"] = int(sha_matches is False)
    else:
        calls = [c for r in reports for c in r["calls"]]
        rates = [workload.items / hostspeed.at_reference(c["s"], c["probe_s"])
                 for c in calls]
        setups = [hostspeed.at_reference(
                      r["setup_s"], 0.5 * (r["spawn_probe_s"] + r["setup_probe_s"]))
                  for r in reports]
        rss = [r["maxrss_kb"] / 1024.0 for r in reports]
        raw_rates = [workload.items / c["s"] for c in calls]
        raw_setups = [r["setup_s"] for r in reports]
        for name, samples in (("items_per_s", rates), ("setup_s", setups),
                              ("peak_rss_mb", rss), ("raw.items_per_s", raw_rates),
                              ("raw.setup_s", raw_setups)):
            q1, q2, q3 = _quartiles(samples)
            values[name] = q2
            detail[name] = {"median": q2, "q1": q1, "q3": q3,
                            "samples": len(samples)}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    if sha_matches is False:
        print("perfbench: output bytes differ from the recorded reference",
              file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(root),
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "output_sha256": sha, "reference_sha256_matches": sha_matches,
        "metrics": metrics, "distribution": detail,
        "env": reports[0]["env"], "reports": reports,
    }
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, d in detail.items():
        print(f"perfbench: {name} median {d['median']:.6g} "
              f"q1 {d['q1']:.6g} q3 {d['q3']:.6g} n={d['samples']}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
