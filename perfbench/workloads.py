"""The three benchmark workloads: inputs, CLI arguments and output checks.

Each workload is one ``panel_causal.cli.run(argv)`` call, repeated in a
closed loop by one client in one process.  ``prepare`` makes the inputs from
the seed (set-up, outside the timed calls); ``argv`` builds the call.  ``items``
is the work one call completes: study replicates, bootstrap replicates, or
panel units loaded and estimated.

Output checks come in two strengths.  On a seed recorded in
``reference.json`` every number must match the stored value within the
tolerance stored there, and counts must match exactly.  On any other seed
the checks are seed-independent invariants.
"""

import csv
import hashlib
import io
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# The README's doubly robust model: a HOM panel with the log(x2) term.
SPEC = {"outcome_terms": ["1", "time", "treat", "x1", "x2", "log(x2)"],
        "ps_terms": ["1", "x1", "x2", "v"]}

STUDY_N = 250
STUDY_REPS = 40
BOOT_N = 1000
BOOT_B = 200
CSV_N = 100_000
HOM_EFFECT = 15.0


class Workload:
    """One named workload; subclasses fill in the specifics."""

    name = None
    items = None       # work per call, in the unit of items_per_s
    threaded = True    # the command takes --threads
    traced_calls = 2   # traced calls in a --trace 1 run

    def prepare(self, seed, workdir):
        """Make the inputs for ``seed`` in ``workdir``."""

    def argv(self, seed, workdir, output, threads=1):
        raise NotImplementedError

    def parse(self, text):
        """Output text -> (numbers, counts): two flat dicts, the floats
        (compared within tolerance) and the counts and labels (compared
        exactly)."""
        raise NotImplementedError

    def failures(self, counts):
        """(attempted, failed) operations of one call."""
        raise NotImplementedError

    def invariants(self, numbers, counts, seed):
        """Seed-independent problems with one output, as messages."""
        raise NotImplementedError


def _write_panel(scenario_id, n, seed, workdir):
    from panel_causal import panel_data, simlab
    data = simlab.generate_scenario(simlab.Scenario(scenario_id, n), seed)
    panel_data.write_csv(data, os.path.join(workdir, "panel.csv"))
    with open(os.path.join(workdir, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(SPEC, fh)


class StudyHet(Workload):
    name = "study-het"
    items = STUDY_REPS
    traced_calls = 3

    def prepare(self, seed, workdir):
        # The HET ATT oracle (a one-off 1M-unit draw) is lazy one-time work
        # that every `study --scenario HET` process pays before its first
        # result; pay it here so every timed call does the same work.
        from panel_causal import simlab
        simlab.true_effects("HET")

    def argv(self, seed, workdir, output, threads=1):
        return ["study", "--scenario", "HET", "--n", str(STUDY_N),
                "--reps", str(STUDY_REPS), "--seed", str(seed),
                "--threads", str(threads), "--format", "csv",
                "--output", output]

    def parse(self, text):
        rows = list(csv.DictReader(io.StringIO(text)))
        numbers, counts = {}, {}
        for row in rows:
            key = f"{row['label']}.{row['estimand']}"
            for col in ("bias100", "var", "mse", "mc_se_bias100"):
                numbers[f"{key}.{col}"] = float(row[col])
            counts[f"{key}.r_used"] = int(row["r_used"])
        if rows:
            head = rows[0]
            numbers["true_ate"] = float(head["true_ate"])
            numbers["true_att"] = float(head["true_att"])
            for col in ("n", "R", "seed"):
                counts[col] = int(head[col])
            counts["cells"] = len(rows)
        return numbers, counts

    def failures(self, counts):
        cells = [v for k, v in counts.items() if k.endswith(".r_used")]
        return STUDY_REPS * len(cells), sum(STUDY_REPS - v for v in cells)

    def invariants(self, numbers, counts, seed):
        problems = []
        if counts.get("cells") != 24:
            problems.append(f"expected 24 study cells, got {counts.get('cells')}")
        if (counts.get("n"), counts.get("R"), counts.get("seed")) != (STUDY_N, STUDY_REPS, seed):
            problems.append("study header does not echo n, R and seed")
        if numbers.get("true_ate") != 35.0:
            problems.append(f"HET true ATE should be 35, got {numbers.get('true_ate')}")
        if not 35.0 < numbers.get("true_att", 0.0) < 40.0:
            problems.append(f"HET true ATT out of range: {numbers.get('true_att')}")
        for key, v in counts.items():
            if key.endswith(".r_used") and not 0 < v <= STUDY_REPS:
                problems.append(f"{key} = {v} outside 1..{STUDY_REPS}")
        for key, v in numbers.items():
            if not math.isfinite(v):
                problems.append(f"{key} is not finite")
            elif key.endswith((".var", ".mse")) and v < 0.0:
                problems.append(f"{key} is negative")
        return problems


class _JsonOutput(Workload):
    def parse(self, text):
        payload = json.loads(text)
        numbers = {k: v for k, v in payload.items() if isinstance(v, float)}
        counts = {k: v for k, v in payload.items() if isinstance(v, int)}
        counts.update({k: v for k, v in payload.items() if isinstance(v, str)})
        return numbers, counts

    def _common(self, numbers, counts, value_key):
        problems = []
        if (counts.get("method"), counts.get("estimand")) != ("DRGLMM", "ATT"):
            problems.append("output does not name DRGLMM / ATT")
        for key, v in numbers.items():
            if not math.isfinite(v):
                problems.append(f"{key} is not finite")
        # True ATT of HOM is 15; the standard error is well under 1 at
        # these sizes, so this band fails only on a broken estimate.
        v = numbers.get(value_key, math.nan)
        if not abs(v - HOM_EFFECT) < 5.0:
            problems.append(f"{value_key} = {v} implausible for a true ATT of 15")
        return problems


class BootstrapDrglmm(_JsonOutput):
    name = "bootstrap-drglmm"
    items = BOOT_B
    traced_calls = 3

    def prepare(self, seed, workdir):
        _write_panel("HOM", BOOT_N, seed, workdir)

    def argv(self, seed, workdir, output, threads=1):
        return ["bootstrap", "--input", os.path.join(workdir, "panel.csv"),
                "--method", "drglmm", "--estimand", "att",
                "--spec", os.path.join(workdir, "spec.json"),
                "--B", str(BOOT_B), "--seed", str(seed),
                "--threads", str(threads), "--format", "json",
                "--output", output]

    def failures(self, counts):
        return BOOT_B, counts.get("n_failed", BOOT_B)

    def invariants(self, numbers, counts, seed):
        problems = self._common(numbers, counts, "point")
        if set(numbers) != {"point", "boot_mean", "se", "ci_lower", "ci_upper"}:
            problems.append(f"unexpected float fields {sorted(numbers)}")
        if counts.get("B") != BOOT_B:
            problems.append(f"B = {counts.get('B')}, asked for {BOOT_B}")
        if not 0 <= counts.get("n_failed", -1) < BOOT_B:
            problems.append(f"n_failed = {counts.get('n_failed')} outside 0..B-1")
        if not (numbers.get("se", -1.0) > 0.0
                and numbers.get("ci_lower", 1.0) < numbers.get("ci_upper", 0.0)):
            problems.append("degenerate bootstrap spread")
        return problems


class EstimateCsv(_JsonOutput):
    name = "estimate-csv"
    items = CSV_N
    threaded = False

    def prepare(self, seed, workdir):
        _write_panel("HOM", CSV_N, seed, workdir)

    def argv(self, seed, workdir, output, threads=1):
        return ["estimate", "--input", os.path.join(workdir, "panel.csv"),
                "--method", "drglmm", "--estimand", "att",
                "--spec", os.path.join(workdir, "spec.json"),
                "--format", "json", "--output", output]

    def failures(self, counts):
        return 1, 0

    def invariants(self, numbers, counts, seed):
        problems = self._common(numbers, counts, "value")
        if set(numbers) != {"value"}:
            problems.append(f"unexpected float fields {sorted(numbers)}")
        return problems


WORKLOADS = {w.name: w for w in (StudyHet(), BootstrapDrglmm(), EstimateCsv())}


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check_output(workload, data, seed, reference):
    """Check the bytes ``data`` one call wrote.

    Returns (problems, sha_matches): the problems as messages, and whether
    the bytes hash to the recorded SHA-256 (None on a seed without a
    reference entry).
    """
    try:
        numbers, counts = workload.parse(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, KeyError) as exc:
        return [f"output does not parse: {exc}"], None
    problems = workload.invariants(numbers, counts, seed)
    entry = reference["outputs"].get(workload.name, {}).get(str(seed))
    if entry is None:
        return problems, None
    rel, abs_ = reference["rel_tol"], reference["abs_tol"]
    if set(entry["numbers"]) != set(numbers) or set(entry["counts"]) != set(counts):
        problems.append("output fields differ from the reference")
    for key, want in entry["numbers"].items():
        got = numbers.get(key, math.nan)
        if not math.isclose(got, want, rel_tol=rel, abs_tol=abs_):
            problems.append(f"{key} = {got!r}, reference {want!r}")
    for key, want in entry["counts"].items():
        if counts.get(key) != want:
            problems.append(f"{key} = {counts.get(key)!r}, reference {want!r}")
    return problems, hashlib.sha256(data).hexdigest() == entry["sha256"]
