import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

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


def test_isom2_flow(tmp_path):
    inst = tmp_path / "inst.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "3", "--g", "2",
                    "--seed", "7", "--out", str(inst)]) == 0
    out = tmp_path / "matrix.json"
    assert run_cli(["isom2", "--in", str(inst), "--seed", "2", "--out", str(out)]) == 0
    assert "matrix" in json.loads(out.read_text())


def test_isom_g_flow(tmp_path):
    inst = tmp_path / "inst.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "3", "--g", "3",
                    "--seed", "8", "--out", str(inst)]) == 0
    out = tmp_path / "chain.json"
    assert run_cli(["isom-g", "--in", str(inst), "--g", "3", "--seed", "3",
                    "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["factors"]) == 2


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
        raise NotDivisibleError("patched division failure")

    inst = tmp_path / "inst.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "4", "--seed", "4",
                    "--out", str(inst)]) == 0
    monkeypatch.setattr(isom, "principal_ideal_divide", fail)
    capsys.readouterr()
    assert run_cli(["lowdisc", "--in", str(inst), "--seed", "1",
                    "--out", str(tmp_path / "cert.json")]) == 2
    err = capsys.readouterr().err
    assert "algorithm failed: NotDivisibleError: patched division failure" in err


def test_missing_file_is_input_error():
    assert run_cli(["verify", "--in", "/nonexistent/xyz.json"]) == 3


def test_trials_flag(tmp_path):
    inst = tmp_path / "inst.json"
    assert run_cli(["gen", "--p", "103", "--ell", "3", "--m", "3", "--seed", "13",
                    "--out", str(inst)]) == 0
    out = tmp_path / "m.json"
    assert run_cli(["isom-e0", "--in", str(inst), "--seed", "1", "--trials", "3",
                    "--out", str(out)]) == 0


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
