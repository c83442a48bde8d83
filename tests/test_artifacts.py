"""Byte identity: the seed-0 artifacts of the benchmark's commands, of a
default desk run and of ``condense-inspect`` on their checkpoints match
``tests/artifact_manifest.txt`` (see ``tests/artifact_digests.py``)."""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def test_every_artifact_is_byte_identical_to_the_manifest():
    proc = subprocess.run([sys.executable, str(HERE / "artifact_digests.py"), "--check",
                           str(HERE / "artifact_manifest.txt")],
                          capture_output=True, text=True)
    if proc.returncode == 2:
        # another numpy, BLAS or CPU build: its bits may differ by right
        pytest.skip(proc.stderr.strip())
    if proc.returncode == 1:
        pytest.fail(f"artifacts whose bytes moved:\n{proc.stdout}")
    assert proc.returncode == 0, proc.stderr
