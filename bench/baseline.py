"""Runs every workload through the benchmark command and records a baseline.

    python3 bench/baseline.py [--out FILE]

For each workload of BENCHMARK.json it makes one untraced run per seed 0-9
and one traced run at seed 0, each with the command and ``run_seconds`` of
BENCHMARK.json.
It prints, per workload, every end-to-end metric's median over the seeds
with its unit, the quartile spread as a share of the median next to the
metric's bound, and ``failed_frac``, then writes all runs with their
provenance and unscaled wall times to FILE (default bench/baseline.json).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)


def bench_run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])
    return {"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "provenance": context["provenance"],
            "wall": context["wall"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(spec: dict, runs: list) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]] for r in runs]
        q1, med, q3 = quartiles(values)
        out[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": m["bound"],
                          "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(ROOT / "bench" / "baseline.json"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(bench_run(spec, name, seed, 0))
            print(f"{name} seed {seed}: {runs[-1]['metrics']}", file=sys.stderr)
        traced = bench_run(spec, name, SEEDS[0], 1)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = summarize(spec, runs)
        doc["workloads"][name] = {"end_to_end": summary,
                                  "failed_frac": failed / attempted,
                                  "commands": attempted, "runs": runs,
                                  "traced": traced}
        print(f"{name}  ({len(runs)} seeds, {attempted} commands)")
        for metric, s in summary.items():
            print(f"  {metric:12s} median {s['median']:10.5g} {s['unit']:4s} "
                  f"spread {s['spread']:.3f} (bound {s['bound']})")
        print(f"  failed_frac  {failed / attempted:.3g} ({failed}/{attempted})")
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
