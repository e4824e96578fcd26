"""Each demo runs to exit 0 in a fresh interpreter, and demos 01-04 print
exactly the text recorded for them (SHA-256 of stdout).  Demo 05 prints the
name of a temporary directory, so only its exit code is checked."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quatisom

DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "01_quaternions_and_orders.py": "a1b41824f802bce20ed94d00c532a412c07fd874ac40afbdb05198f0472c2d4c",
    "02_completing_an_isomorphism.py": "8a8a529dd3889b95f42de8a2e1ebabf2c1c6e189eaede3b2b2508e0b8f52552c",
    "03_low_discriminant_route.py": "f00f2b7aed111d55f025b387ab236712a1439aa5d94ac610d7d5f9925bd88b96",
    "04_products_of_curves.py": "8eb36c2d8b1759411c989411313efebba663f94efbad64dd80a2fda46b706485",
    "05_cli_workflow.py": None,
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(quatisom.__file__).resolve().parents[1]),
               TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    if STDOUT_SHA256[name] is not None:
        assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
