"""Layer probe: times ``engine.stein_gradient`` (beta 1 and 2) and
``condense.distance_matrix`` over N x D and records each call's tracemalloc
peak.

    python3 bench/probe.py SEED

Prints one JSON object: ``values`` (``<cell>.s``, the median call time, and
``<cell>.peak_mb``), ``skipped`` cells and ``errors``.  A cell whose pairwise
N*N*D float64 temporary exceeds TEMP_CAP_BYTES is skipped: at N=1000,
D=1020 one temporary is 8.2 GB, all of the RAM of the machine the baseline
was taken on.  The beta=1 cells cover a kernel branch no workload runs.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

NS = (10, 64, 200, 1000)
DS = (3, 1020)
TEMP_CAP_BYTES = 400 * 2**20
TIME_BUDGET_S = 0.25   # per cell: repeat a call until this is spent ...
MAX_REPS = 5           # ... or this many calls are timed


def cells(cap: int = TEMP_CAP_BYTES):
    """(cell name, kind, beta, N, D, skipped) for every probe cell."""
    for n in NS:
        for d in DS:
            skip = n * n * d * 8 > cap
            for beta in (1, 2):
                yield f"engine.stein_gradient.b{beta}.N{n}-D{d}", "stein", beta, n, d, skip
            yield f"condense.distance_matrix.N{n}-D{d}", "distance", None, n, d, skip


def metric_names(cap: int = TEMP_CAP_BYTES) -> dict:
    """Per-layer metric name -> unit for every cell that is measured."""
    out = {}
    for name, *_, skip in cells(cap):
        if not skip:
            out[f"{name}.s"] = "s"
            out[f"{name}.peak_mb"] = "MB"
    return out


def _median_time(fn) -> float:
    samples = []
    while len(samples) < MAX_REPS and sum(samples) < TIME_BUDGET_S:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure(seed: int) -> dict:
    import numpy as np
    from csvgd.condense import distance_matrix
    from csvgd.engine import Ensemble, SvgdConfig, stein_gradient
    from csvgd.kernels import KernelSpec

    rng = np.random.default_rng(seed)
    values, skipped, errors = {}, [], {}
    for name, kind, beta, n, d, skip in cells():
        if skip:
            skipped.append(name)
            continue
        P = rng.standard_normal((n, d))
        if kind == "stein":
            # gamma = D keeps the kernel near exp(-1) instead of underflowing
            config = SvgdConfig(step_size=0.01, max_iters=1,
                                kernel=KernelSpec(beta, float(d)))
            ens = Ensemble(P, None, rng)
            S = np.zeros_like(P)

            def fn():
                return stein_gradient(ens, S, config, gamma=float(d))
        else:
            def fn():
                return distance_matrix(P)
        try:
            values[f"{name}.s"] = _median_time(fn)
            values[f"{name}.peak_mb"] = _peak_mb(fn)
        except Exception as exc:  # an API change must not stop the benchmark
            errors[name] = f"{type(exc).__name__}: {exc}"
            values[f"{name}.s"] = values[f"{name}.peak_mb"] = 0.0
    return {"values": values, "skipped": skipped, "errors": errors}


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(json.dumps(measure(int(sys.argv[1]))))
