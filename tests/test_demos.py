"""Each demo runs to exit 0 in a fresh interpreter, prints exactly the text
recorded for it (SHA-256 of stdout) and leaves nothing in the temp dir.

The digests of demos 02 and 04 were re-recorded when completion started to
split xi in closed form (xi11 = u*xi, xi21 = v*xi by Bezout): their printed
second-column degrees shrink, while every first-column value is unchanged.
Demo 05 got a digest once it stopped printing its temporary directory."""

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
    "02_completing_an_isomorphism.py": "b6e38dbfd183f73372035eefe5e012cddb38ff52832d89417c7451dfc93cee41",
    "03_low_discriminant_route.py": "f00f2b7aed111d55f025b387ab236712a1439aa5d94ac610d7d5f9925bd88b96",
    "04_products_of_curves.py": "6eabf1380ec83c69062209ad3498d73eaf29389a89dd20b6deb789c9a914b610",
    "05_cli_workflow.py": "75c3a2a7e2faaa0dde05d9963fef9edcdea244fca3fb1e5b7d8ade6449df318a",
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
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
    assert not list(tmp_path.glob("quatisom-demo-*"))
