"""One sha256 per artifact of the benchmark's seed-0 commands, of a default
desk run and of ``condense-inspect`` on every stage checkpoint they write.

    python tests/artifact_digests.py [--src DIR] [--keep DIR] > MANIFEST
    python tests/artifact_digests.py --check MANIFEST [--src DIR] [--keep DIR]

The first form prints a manifest: a header naming the build that made it
(numpy's version, the BLAS numpy was built against and its version, and the
CPU model), then one ``<sha256>  <path>`` line per artifact.  The second
remakes the artifacts and compares them with a manifest: it names every
file whose bytes moved, every added and every missing file, and exits 0
when all are byte-identical and 1 otherwise.  Floating-point bits may
differ between numpy builds, BLAS builds and CPUs, so a manifest from
another build is not compared: ``--check`` then exits 2 and says so.

A change that claims to move no floating-point result is checked against
``tests/artifact_manifest.txt``, the manifest of the parent commit on the
build that it names; a change that moves results on purpose updates it.
``--src`` picks the ``src/`` whose ``csvgd`` runs, so a manifest of another
tree can be taken from this checkout.  The commands are the three workloads
of ``bench/workloads.py`` at seed 0 (their configs are read from there, not
copied), then ``csvgd hyperelastic`` with its defaults; each stage
checkpoint of these runs is then inspected.  Every command runs in its own
process with one BLAS thread, and its peak resident set (``ru_maxrss``, in
MB of 2**20 bytes) and minor page faults, read from the process's own
``os.wait4`` resource usage, are printed to standard error, one line per
command; they never enter the manifest.  The work directory's path, which
``README.txt`` and ``config.json`` record, is masked as ``<root>`` before
those two are hashed; every other file is hashed as written.  The default
desk run makes this take about 12 s.  The script is not collected by
pytest; ``tests/test_artifacts.py`` runs its ``--check`` form against
``tests/artifact_manifest.txt`` in the tier-1 suite, and skips where the
manifest names another build.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

MASKED = ("README.txt", "config.json")
MANIFEST = Path(__file__).resolve().parent / "artifact_manifest.txt"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def build_header() -> list[str]:
    """The manifest header of the running build: the lines that must match
    for two manifests' digests to be compared."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# numpy {np.__version__}",
            f"# blas {blas.get('name')} {blas.get('version')}",
            f"# cpu {cpu_model()}"]


def read_manifest(path: Path) -> tuple[list[str], dict[str, str]]:
    """(header lines, {path: sha256}) of a manifest file."""
    header, digests_by_path = [], {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line.strip():
            digest, name = line.split("  ", 1)
            digests_by_path[name] = digest
    return header, digests_by_path


def compare(expected: dict[str, str], rows: list[tuple[str, str]]) -> list[str]:
    """One line per moved, added or missing artifact, in path order."""
    got = {name: digest for digest, name in rows}
    lines = []
    for name in sorted(set(expected) | set(got)):
        if name not in got:
            lines.append(f"missing: {name}")
        elif name not in expected:
            lines.append(f"added:   {name}")
        elif got[name] != expected[name]:
            lines.append(f"moved:   {name}")
    return lines


def run_csvgd(src: Path, argv: list[str]) -> None:
    """Run one csvgd command in its own process; print its peak RSS and
    minor faults to standard error."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "csvgd.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    with proc.stderr:
        err = proc.stderr.read()
    # wait4 reaps the child and returns its resource usage alone; the status
    # is stored on ``proc``, so Popen does not wait for the child again
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(f"{usage.ru_maxrss / 1024:8.2f} MB maxrss {usage.ru_minflt:8d} minor faults"
          f"  csvgd {' '.join(argv)}", file=sys.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"csvgd {' '.join(argv)} failed:\n{err}")


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
    parser.add_argument("--check", type=Path, metavar="MANIFEST",
                        help=f"compare with a manifest (e.g. {MANIFEST.relative_to(ROOT)}) "
                             "instead of printing one")
    args = parser.parse_args(argv)
    header = build_header()
    if args.check is not None:
        want_header, expected = read_manifest(args.check)
        if want_header != header:
            print(f"{args.check} was taken on another build, so its digests "
                  f"cannot be compared:\n  manifest: {' | '.join(want_header)}"
                  f"\n  running:  {' | '.join(header)}", file=sys.stderr)
            return 2
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
    if args.check is None:
        print("\n".join(header))
        for digest, path in rows:
            print(f"{digest}  {path}")
        print(f"{len(rows)} artifacts", file=sys.stderr)
        return 0
    differences = compare(expected, rows)
    print("\n".join(differences) if differences else
          f"all {len(rows)} artifacts byte-identical to {args.check}")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
