"""Fixed-seed CLI outputs must stay byte-identical across refactors.

The digests were recorded from the `complete` and `lowdisc` outputs before
the closed-form division and the integer-only lattice checks replaced the
generic solvers; a change that alters them changes certificates.
"""

import hashlib
import json

import pytest

from quatisom.cli import main

GOLDEN = {
    (103, "complete"): "a1fe8b2f9b1a5a18210b70eed1d454f83b8b8d6b67a37671453f054b89d1a288",
    (103, "lowdisc"): "e89a0f5e7e7316ab93b07a60c77d15e563bb77a9f6e0f03c16c64112d0c71968",
    (503, "complete"): "5b884ac5a0c56a38962268956d638fe48968164632e3c8ab288bba242f71b50f",
    (503, "lowdisc"): "c77fe5d384aa577d32e374ed0724ba3f19eda8e60dfe0430b9329d0974799a17",
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
