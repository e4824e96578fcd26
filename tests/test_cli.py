import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import quatisom
from quatisom.cli import main

# subprocesses import the same quatisom as the tests, also when the suite is
# run without PYTHONPATH
ENV = dict(os.environ, PYTHONPATH=str(Path(quatisom.__file__).resolve().parents[1]))


def run_cli(args):
    return main(args)


def test_gen_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "5", "--seed", "9",
                    "--out", str(out1)]) == 0
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "5", "--seed", "9",
                    "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["p"] == "103"
    from quatisom import QuatAlgebra
    from quatisom.serialization import ideal_from_json

    ideal = ideal_from_json(data["ideals"][0], QuatAlgebra(103))
    assert ideal.nrd() == 3 ** 5


def test_gen_rejects_bad_p(tmp_path, capsys):
    assert run_cli(["gen", "--p", "10", "--out", str(tmp_path / "x.json")]) == 3
    assert run_cli(["gen", "--p", "103", "--ell", "103",
                    "--out", str(tmp_path / "x.json")]) == 3


def test_lowdisc_and_verify_flow(tmp_path):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "4", "--seed", "4",
                    "--out", str(inst)]) == 0
    assert run_cli(["lowdisc", "--in", str(inst), "--seed", "1", "--out", str(cert)]) == 0
    # the emitted certificate re-verifies in a fresh invocation
    assert run_cli(["verify", "--in", str(cert), "--out", str(tmp_path / "v.json")]) == 0
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["verified"] is True


def test_lowdisc_verifies_its_certificate_once(tmp_path, monkeypatch):
    # the completion proves the certificate identities; before writing, the
    # CLI compares only the kernel ideals.  Certificate.verify builds J11
    # and J21 and runs the check the completion runs on its own
    from quatisom.homframe import Certificate

    calls = []
    check = Certificate._verify_products
    monkeypatch.setattr(Certificate, "_verify_products",
                        lambda self, *args: calls.append(1) or check(self, *args))
    inst = tmp_path / "inst.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "4", "--seed", "4",
                    "--out", str(inst)]) == 0
    assert run_cli(["lowdisc", "--in", str(inst), "--seed", "1",
                    "--out", str(tmp_path / "cert.json")]) == 0
    assert len(calls) == 1


def test_lowdisc_bad_ell_is_input_error(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "4", "--seed", "4",
                    "--out", str(inst)]) == 0
    for ell in ("0", "2", "9", "103"):
        capsys.readouterr()
        assert run_cli(["lowdisc", "--in", str(inst), "--seed", "1", "--ell", ell,
                        "--out", str(tmp_path / "cert.json")]) == 3
        assert "invalid input" in capsys.readouterr().err
    assert not (tmp_path / "cert.json").exists()


def test_complete_flow(tmp_path):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "3", "--seed", "5",
                    "--out", str(inst)]) == 0
    # generated ideals have equal norms: make the second coprime by regenerating
    data = json.loads(inst.read_text())
    alt = tmp_path / "alt.json"
    assert run_cli(["gen", "--p", "103", "--ell", "5", "--m", "2", "--seed", "6",
                    "--out", str(alt)]) == 0
    data["ideals"] = [data["ideals"][0], json.loads(alt.read_text())["ideals"][0]]
    inst.write_text(json.dumps(data))
    assert run_cli(["complete", "--in", str(inst), "--out", str(cert)]) == 0
    assert run_cli(["verify", "--in", str(cert)]) == 0


def test_malformed_coordinate_is_input_error(tmp_path, capsys):
    # quaternions are read as the "num/den" strings `quaternion_to_json`
    # writes, num an integer and den a positive integer; any other literal
    # is invalid input, in xi11 and in a matrix entry alike
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "2", "--seed", "5",
                    "--out", str(inst)]) == 0
    alt = tmp_path / "alt.json"
    assert run_cli(["gen", "--p", "103", "--ell", "5", "--m", "1", "--seed", "6",
                    "--out", str(alt)]) == 0
    data = json.loads(inst.read_text())
    data["ideals"][1] = json.loads(alt.read_text())["ideals"][0]
    inst.write_text(json.dumps(data))
    assert run_cli(["complete", "--in", str(inst), "--out", str(cert)]) == 0
    good = json.loads(cert.read_text())
    bad_path = tmp_path / "bad.json"
    for literal in ["1/0", "-3/0", "1/-2", "1/2/3", "0.5", "1", "+1/2", " 1/2", "1/2 ",
                    "1_0/2", "1e3/1", "\uff11/2", "", 1]:
        for place in ("xi11", "matrix"):
            bad = json.loads(json.dumps(good))
            coords = bad["xi11"] if place == "xi11" else bad["matrix"]["m11"]["elem"]
            coords[0] = literal
            bad_path.write_text(json.dumps(bad))
            capsys.readouterr()
            assert run_cli(["verify", "--in", str(bad_path)]) == 3, (literal, place)
            assert "invalid input: quaternion coordinate" in capsys.readouterr().err


def test_isom2_flow(tmp_path):
    inst = tmp_path / "inst.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "3", "--g", "2",
                    "--seed", "7", "--out", str(inst)]) == 0
    out = tmp_path / "matrix.json"
    assert run_cli(["isom2", "--in", str(inst), "--seed", "2", "--out", str(out)]) == 0
    assert "matrix" in json.loads(out.read_text())


def _scaled_entry(data, key, num, den):
    """A copy of a matrix file with the quaternion of one entry times num/den."""
    bad = json.loads(json.dumps(data))
    elem = bad["matrix"][key]["elem"]
    for t, c in enumerate(elem):
        a, b = c.split("/")
        elem[t] = f"{int(a) * num}/{int(b) * den}"
    return bad


@pytest.mark.parametrize("cmd", ["isom-e0", "isom2"])
def test_verify_decides_a_bare_matrix(tmp_path, capsys, cmd):
    # what isom-e0 and isom2 write re-verifies: its Kani degree is 1, so it
    # is an isomorphism between the products whose frames it lists
    inst = tmp_path / "inst.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "3", "--seed", "7",
                    "--out", str(inst)]) == 0
    out = tmp_path / "matrix.json"
    assert run_cli([cmd, "--in", str(inst), "--seed", "2", "--out", str(out)]) == 0
    verdict = tmp_path / "verdict.json"
    assert run_cli(["verify", "--in", str(out), "--out", str(verdict)]) == 0
    report = json.loads(verdict.read_text())
    assert report["verified"] is True and "frames the matrix lists" in report["reason"]
    data = json.loads(out.read_text())
    # twice an entry is still a morphism, but the matrix is no isomorphism
    bad = tmp_path / "doubled.json"
    bad.write_text(json.dumps(_scaled_entry(data, "m12", 2, 1)))
    assert run_cli(["verify", "--in", str(bad), "--out", str(verdict)]) == 1
    assert "Kani degree" in json.loads(verdict.read_text())["reason"]
    # an entry divided by 7 leaves its hom lattice
    bad = tmp_path / "divided.json"
    bad.write_text(json.dumps(_scaled_entry(data, "m21", 1, 7)))
    assert run_cli(["verify", "--in", str(bad), "--out", str(verdict)]) == 1
    assert json.loads(verdict.read_text())["reason"].startswith("m21: lattice condition")
    # a frame that is not a left O0-ideal does not parse
    bad_data = json.loads(json.dumps(data))
    bad_data["matrix"]["m11"]["src_frame"]["denominator"] = "7"
    bad = tmp_path / "frame.json"
    bad.write_text(json.dumps(bad_data))
    capsys.readouterr()
    assert run_cli(["verify", "--in", str(bad)]) == 3
    assert "invalid input" in capsys.readouterr().err


def test_isom_g_flow(tmp_path):
    inst = tmp_path / "inst.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "3", "--g", "3",
                    "--seed", "8", "--out", str(inst)]) == 0
    out = tmp_path / "chain.json"
    assert run_cli(["isom-g", "--in", str(inst), "--g", "3", "--seed", "3",
                    "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["factors"]) == 2


def test_isom_g_bad_g_is_input_error(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "3", "--g", "3",
                    "--seed", "8", "--out", str(inst)]) == 0
    for g in ("0", "1"):
        capsys.readouterr()
        assert run_cli(["isom-g", "--in", str(inst), "--g", g, "--seed", "3",
                        "--out", str(tmp_path / "chain.json")]) == 3
        assert "invalid input" in capsys.readouterr().err
    assert not (tmp_path / "chain.json").exists()
    # gen rejects the same g, so it writes no instance that isom-g refuses
    for g in ("0", "-1"):
        assert run_cli(["gen", "--p", "103", "--g", g, "--out", str(tmp_path / "g.json")]) == 3
    assert not (tmp_path / "g.json").exists()


def test_isom_e0_flow(tmp_path):
    inst = tmp_path / "inst.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "3", "--seed", "11",
                    "--out", str(inst)]) == 0
    assert run_cli(["isom-e0", "--in", str(inst), "--seed", "1"]) == 0


def test_verify_failure_exit_code(tmp_path):
    # corrupt a certificate: swap I12 with an unrelated ideal
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "4", "--seed", "12",
                    "--out", str(inst)]) == 0
    assert run_cli(["lowdisc", "--in", str(inst), "--seed", "1", "--out", str(cert)]) == 0
    data = json.loads(cert.read_text())
    data["ideals"]["I12"] = data["ideals"]["I11"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run_cli(["verify", "--in", str(bad)]) == 1


def test_arithmetic_error_is_algorithm_failure(tmp_path, monkeypatch, capsys):
    from quatisom import isom
    from quatisom.division import NotDivisibleError

    def fail(*args, **kwargs):
        raise NotDivisibleError("patched local generator failure")

    inst = tmp_path / "inst.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "4", "--seed", "4",
                    "--out", str(inst)]) == 0
    monkeypatch.setattr(isom, "local_generator", fail)
    capsys.readouterr()
    assert run_cli(["lowdisc", "--in", str(inst), "--seed", "1",
                    "--out", str(tmp_path / "cert.json")]) == 2
    err = capsys.readouterr().err
    assert "algorithm failed: NotDivisibleError: patched local generator failure" in err


@pytest.mark.parametrize("argv", [
    ["verify"],                                   # no --in
    ["frobnicate"],                               # no such command
    ["lowdisc", "--in", "x.json", "--seed", "abc"],
    ["complete", "--in", "x.json", "--seed", "1"],  # complete draws no random numbers
    ["verify", "--in", "x.json", "--trials", "2"],
])
def test_usage_error_is_input_error(argv, capsys):
    assert run_cli(argv) == 3
    assert "usage: quatisom" in capsys.readouterr().err


def test_missing_file_is_input_error():
    assert run_cli(["verify", "--in", "/nonexistent/xyz.json"]) == 3


def test_console_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "quatisom.cli", "--help"],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0
    assert "gen" in proc.stdout


def test_parser_keeps_no_state_between_calls(tmp_path):
    # verify, complete and verify again in one process give the files and
    # exit codes of separate invocations
    fixture = resources.files("quatisom") / "fixtures" / "worked_example_p103.json"
    inst = tmp_path / "inst.json"
    alt = tmp_path / "alt.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "3", "--seed", "5",
                    "--out", str(inst)]) == 0
    assert run_cli(["gen", "--p", "103", "--ell", "5", "--m", "2", "--seed", "6",
                    "--out", str(alt)]) == 0
    data = json.loads(inst.read_text())
    data["ideals"] = [data["ideals"][0], json.loads(alt.read_text())["ideals"][0]]
    inst.write_text(json.dumps(data))
    outputs = {}
    for mode in ("same", "separate"):
        d = tmp_path / mode
        d.mkdir()
        steps = [["verify", "--in", str(fixture), "--out", str(d / "v1.json")],
                 ["complete", "--in", str(inst), "--out", str(d / "cert.json")],
                 ["verify", "--in", str(d / "cert.json"), "--out", str(d / "v2.json")]]
        if mode == "same":
            codes = [run_cli(argv) for argv in steps]
        else:
            codes = [subprocess.run([sys.executable, "-m", "quatisom.cli", *argv],
                                    env=ENV).returncode for argv in steps]
        outputs[mode] = codes, [(d / n).read_bytes() for n in ("v1.json", "cert.json", "v2.json")]
    assert outputs["same"] == outputs["separate"]
    assert outputs["same"][0] == [0, 0, 0]
