#!/usr/bin/env python3
"""The JSON file workflow through the command-line interface.

Generates a reproducible instance, runs the low-discriminant pipeline to a
certificate file, and re-verifies that file in a fresh invocation --
exactly what `quatisom gen/lowdisc/verify` do from a shell.
"""

import json
import tempfile
from pathlib import Path

from quatisom.cli import main

with tempfile.TemporaryDirectory(prefix="quatisom-demo-") as tmp:
    workdir = Path(tmp)
    instance = workdir / "instance.json"
    certificate = workdir / "certificate.json"
    verdict = workdir / "verdict.json"

    print("$ quatisom gen --p 103 --ell 3 --m 5 --seed 11 --out instance.json")
    code = main(["gen", "--p", "103", "--ell", "3", "--m", "5", "--seed", "11",
                 "--out", str(instance)])
    print("  exit:", code)
    data = json.loads(instance.read_text())
    print("  instance ideals:", len(data["ideals"]), "of norm 3^5")

    print("\n$ quatisom lowdisc --in instance.json --seed 1 --out certificate.json")
    code = main(["lowdisc", "--in", str(instance), "--seed", "1",
                 "--out", str(certificate)])
    print("  exit:", code)
    cert = json.loads(certificate.read_text())
    print("  certificate column norms d11, d21:", cert["d11"], cert["d21"])

    print("\n$ quatisom verify --in certificate.json --out verdict.json")
    code = main(["verify", "--in", str(certificate), "--out", str(verdict)])
    print("  exit:", code)
    print("  verdict:", json.loads(verdict.read_text()))

    print("\n$ quatisom isom2 ... (four curves; see --help for all commands)")
    print("files written under a temporary directory, removed on exit")
