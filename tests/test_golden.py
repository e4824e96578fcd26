"""Fixed-seed CLI outputs must stay byte-identical across refactors.

The digests were first recorded from the `complete` and `lowdisc` outputs
before the closed-form division and the integer-only lattice checks replaced
the generic solvers.  They were re-recorded once, when completion started to
split xi in closed form (xi11 = u*xi, xi21 = v*xi with u*d21 - v*d11 = 1)
and kept only the frame connecting ideal: in all four files I11, I21, Ipsi,
d11, d21, m11 and m21 stayed byte-identical, only xi11, xi21, I12, I22, m12
and m22 changed, and CLI `verify` accepts each new file.  Completion draws no
randomness, so every random draw is the same.  A change that alters them
changes certificates.
"""

import hashlib
import json

import pytest

from quatisom.cli import main

GOLDEN = {
    (103, "complete"): "e6b5d0d0be3d68c5253cba634d1b521b583bcaf695d6c32576e65877e07b465e",
    (103, "lowdisc"): "1a1d1a14a671a0e4abb9ce53ecccaa5a1d313cd75e9860b4988f3df2d2cb3c52",
    (503, "complete"): "4b393bd04a0abc04e0d7fe9acb63fda5556a3bad03fc80b24608260fab06d9ef",
    (503, "lowdisc"): "85e16acd5d58cdfb537c66737c3595e0dfcb5acb73636fdba6cbb9755edea752",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("p", [103, 503])
def test_cli_outputs_match_recorded_digests(tmp_path, p):
    first, second = tmp_path / "ell3.json", tmp_path / "ell5.json"
    assert main(["gen", "--p", str(p), "--ell", "3", "--m", "3", "--seed", "21",
                 "--out", str(first)]) == 0
    assert main(["gen", "--p", str(p), "--ell", "5", "--m", "2", "--seed", "22",
                 "--out", str(second)]) == 0
    # a column of coprime norms 3^3 and 5^2
    data = json.loads(first.read_text())
    data["ideals"] = [data["ideals"][0], json.loads(second.read_text())["ideals"][0]]
    inst = tmp_path / "column.json"
    inst.write_text(json.dumps(data))

    complete, lowdisc = tmp_path / "complete.json", tmp_path / "lowdisc.json"
    assert main(["complete", "--in", str(inst), "--out", str(complete)]) == 0
    assert main(["lowdisc", "--in", str(first), "--seed", "1", "--out", str(lowdisc)]) == 0
    assert _sha256(complete) == GOLDEN[(p, "complete")]
    assert _sha256(lowdisc) == GOLDEN[(p, "lowdisc")]
