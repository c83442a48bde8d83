"""One sha256 per artifact of the benchmark's seed-0 commands, of a default
desk run and of ``condense-inspect`` on every stage checkpoint they write.

    python tests/artifact_digests.py [--src DIR] [--keep DIR] > digests.txt

A change that claims to move no floating-point result is checked by running
this on the parent tree and on the change (``--src`` picks the ``src/`` whose
``csvgd`` runs) and diffing the two outputs.  The commands are the three
workloads of ``bench/workloads.py`` at seed 0 (their configs are read from
there, not copied), then ``csvgd hyperelastic`` with its defaults; each stage
checkpoint of these runs is then inspected.  Every command runs in its own
process with one BLAS thread.  The work directory's path, which
``README.txt`` and ``config.json`` record, is masked as ``<root>`` before
those two are hashed; every other file is hashed as written.  The default
desk run makes this take about 15 s.  It is not collected by pytest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

MASKED = ("README.txt", "config.json")


def run_csvgd(src: Path, argv: list[str]) -> None:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "csvgd.cli", *argv], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"csvgd {' '.join(argv)} failed:\n{proc.stderr}")


def digests(work: Path) -> list[tuple[str, str]]:
    """(sha256, path relative to ``work``) of every file under ``work``."""
    rows = []
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name in MASKED:
            data = data.replace(str(work).encode(), b"<root>")
        rows.append((hashlib.sha256(data).hexdigest(), str(path.relative_to(work))))
    return rows


def produce(src: Path, work: Path) -> None:
    """Every command's artifacts, under ``work``."""
    runs = []
    for name, workload in WORKLOADS.items():
        config = work / f"{name}.config.json"
        config.write_text(json.dumps(workload.config(0)))
        run_csvgd(src, workload.argv(config, work / name))
        runs.append(work / name)
    run_csvgd(src, ["hyperelastic", "--out", str(work / "desk_default")])
    runs.append(work / "desk_default")
    for run in runs:
        for ckpt in sorted((run / "checkpoints").glob("*.json")):
            run_csvgd(src, ["condense-inspect", str(ckpt),
                            "--out", str(work / "inspect" / run.name / ckpt.stem)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to run (default: this checkout's src/)")
    parser.add_argument("--keep", type=Path,
                        help="write the artifacts here (an empty or new directory) "
                             "and keep them")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if args.keep is not None:
        work = args.keep.resolve()
        work.mkdir(parents=True, exist_ok=True)
        if any(work.iterdir()):
            raise SystemExit(f"{work} is not empty")
        produce(src, work)
        rows = digests(work)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp).resolve()
            produce(src, work)
            rows = digests(work)
    for digest, path in rows:
        print(f"{digest}  {path}")
    print(f"{len(rows)} artifacts", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
