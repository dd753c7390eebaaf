"""In-memory span tracer that instruments panel_causal from outside.

Every public function of a panel_causal module (the names in its
``__all__``) is wrapped at each module-global name bound to it, in the
defining module and in every module that imports it, plus the method
``PanelDataset.take``.  A wrapped call records one span (name, start, end,
parent) with integer ``perf_counter_ns`` times and counts the calls that
raise; a few wrappers also read diagnostic counts from the object the call
returned.  Nothing under ``src/`` is edited: the wrappers are installed
by rebinding module attributes, and :meth:`Tracer.uninstall` restores them.

Spans live in a list until :meth:`Tracer.dump` writes them out.  Self time
of a span is its duration minus the durations of its direct children;
because times are integers, the self times of a tree sum exactly to the
duration of its root, which :func:`check_spans` verifies.
"""

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("rng", "panel_data", "glm_fit", "lmm_fit", "marginalize",
           "estimators", "inference", "simlab", "cli")


def _diag_lmm(fit, counts):
    if fit.sigma_u2 == 0.0:
        counts["lmm_fit.boundary"] += 1
    if not fit.converged:
        counts["lmm_fit.not_converged"] += 1


def _diag_logistic(fit, counts):
    counts["glm_fit.irls_iters"] += int(fit.n_iter)


def _diag_dummies(dummies, counts):
    counts["glm_fit.bins_collapsed"] += int(dummies.collapsed)


def _diag_load(data, counts):
    counts["panel_data.load_csv.rows"] += 2 * data.n


def _diag_bootstrap(res, counts):
    counts["inference.replicates_failed"] += int(res.n_failed)


def _diag_study(res, counts):
    counts["simlab.cells_failed"] += sum(res.R - c.r_used for c in res.cells)


# Names of the counts the functions above add to.
COUNTERS = ("lmm_fit.boundary", "lmm_fit.not_converged", "glm_fit.irls_iters",
            "glm_fit.bins_collapsed", "panel_data.load_csv.rows",
            "inference.replicates_failed", "simlab.cells_failed")

# Diagnostic counts read from the value a wrapped call returns.
DIAGNOSTICS = {
    "lmm_fit.fit_lmm": _diag_lmm,
    "glm_fit.fit_logistic": _diag_logistic,
    "glm_fit.ps_quantile_dummies": _diag_dummies,
    "panel_data.load_csv": _diag_load,
    "inference.cluster_bootstrap": _diag_bootstrap,
    "simlab.run_study": _diag_study,
}


class Tracer:
    """Records spans and counts for the wrapped panel_causal functions.

    Spans nest through one call stack, so a traced workload must run on a
    single thread (``--threads 1``).
    """

    def __init__(self, package):
        self.spans = []          # [name, start_ns, end_ns, parent_index]
        self.counts = Counter()  # "<span>.failed" and DIAGNOSTICS counts
        self._stack = []         # indices of the open spans
        self._patches = []       # (owner, attribute, original, wrapper)
        mods = {m: getattr(package, m) for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in (package, *mods.values()):
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value, hit[1]))
        cls = mods["panel_data"].PanelDataset
        take = cls.__dict__["take"]
        self._patches.append((cls, "take", take, self._wrap("panel_data.take", take)))
        self.names = {w.span_name for *_, w in self._patches}

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        idx = len(self.spans)
        span = [name, 0, 0, stack[-1] if stack else -1]
        self.spans.append(span)
        stack.append(idx)
        span[1] = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            span[2] = time.perf_counter_ns()
            self.counts[name + ".failed"] += 1
            raise
        finally:
            stack.pop()
        span[2] = time.perf_counter_ns()
        diag = DIAGNOSTICS.get(name)
        if diag is not None:
            diag(out, self.counts)
        return out

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.span_name = name
        return traced

    def install(self):
        """Bind every wrapper in place of the function it wraps."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        """Bind the original functions again."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def self_times(spans):
    """Self time in ns of every span: duration minus its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_spans(spans):
    """Problems with the span tree, as a list of messages (empty if sane).

    Every child lies inside its parent, no self time is negative, and the
    self times of each tree sum exactly to the duration of its root.
    """
    problems = []
    own = self_times(spans)
    tree_self = defaultdict(int)
    root_of = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            pname, pstart, pend, _ = spans[parent]
            if start < pstart or end > pend:
                problems.append(f"span {i} {name} leaves its parent {pname}")
            root_of.append(root_of[parent])
        else:
            root_of.append(i)
        if own[i] < 0:
            problems.append(f"span {i} {name} has negative self time {own[i]}")
        tree_self[root_of[i]] += own[i]
    for root, total in tree_self.items():
        _, start, end, _ = spans[root]
        if total != end - start:
            problems.append(f"tree of span {root}: self times sum to {total}, "
                            f"root lasts {end - start}")
    return problems


def layer_totals(spans, roots):
    """Per-name call counts, busy ns and self ns, and per-module self ns,
    over the trees whose root index is in ``roots``."""
    own = self_times(spans)
    calls, busy, module_self = Counter(), Counter(), Counter()
    root_of = []
    for i, (name, start, end, parent) in enumerate(spans):
        root_of.append(root_of[parent] if parent >= 0 else i)
        if root_of[i] not in roots:
            continue
        calls[name] += 1
        busy[name] += end - start
        module_self[name.split(".", 1)[0]] += own[i]
    return calls, busy, module_self
