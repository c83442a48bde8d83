"""Runs one csvgd command in a fresh process and writes its timings as JSON.

    python3 bench/worker.py JOB.json

JOB.json holds ``src`` (the checkout's source directory), ``argv`` (the
``csvgd`` arguments), ``trace`` (wrap the layer functions in spans) and
``result`` (where to write the result).  Setup ends when the command hands
its inputs to ``run_csvgd``; a one-call marker there is the only wrapper in
an untraced command.  Times come from ``time.monotonic``, the clock the
parent process also reads, so the parent can time setup from the moment it
started this process.

After the command, the worker times a fixed kernel that runs no csvgd code
(``calibrate``), so the parent can scale the command's times to a reference
machine speed.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def calibrate(repeats: int = 5) -> float:
    """Median seconds of a fixed kernel that mixes the work csvgd does: a
    pairwise kernel matrix, a chain of small dense layers and a Python loop."""
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, 3))
    w = rng.standard_normal((30, 30)) / 30
    times = []
    for _ in range(repeats):
        t0 = time.monotonic()
        for _ in range(10):
            d = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
            np.exp(-d, out=d)
            d @ x
        h = w
        for _ in range(500):
            h = np.tanh(h @ w + 0.1)
        total = 0
        for i in range(15000):
            total += i * i
        times.append(time.monotonic() - t0)
    return statistics.median(times)


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import csvgd
    from csvgd import cli, experiments

    if src not in Path(csvgd.__file__).resolve().parents:
        raise SystemExit(f"csvgd imported from {csvgd.__file__}, not from {src}")

    tracer, missing = None, []
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        missing, _ = spans.install(tracer)

    marks = {}
    run_csvgd = getattr(experiments, "run_csvgd", None)
    if run_csvgd is not None:
        def marked(*args, **kwargs):
            marks.setdefault("setup_end", time.monotonic())
            return run_csvgd(*args, **kwargs)
        experiments.run_csvgd = marked

    t_main = time.monotonic()
    error = None
    try:
        rc = cli.main(job["argv"])
    except Exception:
        rc, error = None, traceback.format_exc()
    t_end = time.monotonic()
    setup_end = marks.get("setup_end", t_main)
    result = {
        "rc": rc,
        "error": error,
        "setup_end": setup_end,
        "setup_marker": "setup_end" in marks,
        "end": t_end,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration_s": calibrate(),
        "numpy": numpy.__version__,
        "missing": missing,
    }
    if tracer is not None:
        result["trace"] = {
            "setup": tracer.aggregate(float("-inf"), setup_end),
            "run": tracer.aggregate(setup_end, t_end),
            "counters": dict(tracer.counters),
        }
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
