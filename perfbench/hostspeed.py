"""Host-speed probe used to express timings at a fixed reference speed.

The benchmark shares its machine with other tenants, and the speed of one
core drifts by tens of percent over seconds to minutes: every part of a
workload runs slower together, and process CPU time slows with wall time.
A timed call is therefore bracketed by runs of :func:`probe`, a fixed
piece of work (small least-squares solves, CSV-style string parsing and a
vectorised pass over 200k floats, the mix the workloads run) that uses no
panel_causal code, so no change to the program moves it.

A timing ``t`` taken while the probe took ``p`` seconds is reported by
:func:`at_reference` as ``t * (REFERENCE_S / p) ** ELASTICITY``: the time the
same call would take on a host where the probe takes ``REFERENCE_S``.  The
workloads do not slow down by the whole of the probe's slowdown; over ten
20-second runs of each workload on a 2-vCPU shared Xeon host, an
elasticity of 0.6 left the least run-to-run spread of the exponents tried
(0.5 to 1): a third to a half of the raw spread on the study and bootstrap
workloads, and less than the raw spread on estimate-csv.  Raw timings are
kept in the run record.
"""

import os
import statistics
import time

# Cap the BLAS and OpenMP pools before numpy loads, here and in every
# process started from here: each workload is single-threaded.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

REFERENCE_S = 0.020  # probe time on an unloaded core of the reference host
ELASTICITY = 0.6     # share of the probe's relative slowdown a workload sees
REPEATS = 3          # probe runs per measurement; their median is taken

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((500, 8))
_Y = _rng.standard_normal(500)
_V = _rng.standard_normal(200_000)
_ROWS = [f"u{i:07d},{i % 2},{i % 3},{i * 0.37!r}" for i in range(12000)]
_EYE = np.eye(8)


def _work():
    acc = 0.0
    for i in range(360):
        gram = _A.T @ _A + (1.0 + i) * 1e-3 * _EYE
        beta = np.linalg.solve(gram, _A.T @ _Y)
        resid = _Y - _A @ beta
        acc += float(resid @ resid)
    for line in _ROWS:
        parts = line.split(",")
        acc += float(parts[3]) + int(parts[1])
    return acc + float(np.exp(_V * 1e-3).sum())


def probe():
    """Seconds one run of the fixed work takes now (median of REPEATS)."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference(seconds, probe_s):
    """``seconds`` measured while the probe took ``probe_s``, rescaled to
    the reference host speed."""
    return seconds * (REFERENCE_S / probe_s) ** ELASTICITY
