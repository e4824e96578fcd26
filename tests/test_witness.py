"""`quatisom verify` on files that carry their isomorphism matrix.

Such a file is decided from its own matrix (`isom.verify_certificate`), with
no generator or unit-twist search.  A file that holds only the ideals is
decided by the search (`isom.verify_ideal_quadruple`).  The two formats must
agree on every genuine certificate and every negative control, and a file
whose matrix does not match its ideals is rejected even when its ideals
alone assemble.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quatisom
from quatisom import QuatAlgebra, isom, orders, standard_extremal_order
from quatisom.cli import main
from quatisom.orders import Ideal
from quatisom.serialization import certificate_from_json, mor_from_json

ENV = dict(os.environ, PYTHONPATH=str(Path(quatisom.__file__).resolve().parents[1]))

PRIMES = [103, 503, 1019, 2 ** 61 + 15]

# the witness path's reason for each negative control
CONTROLS = {
    ("I12", "I22"): "differs from b21*conj(I22)*b21^-1",
    ("I22", "I12"): "differs from b11*conj(I12)*b11^-1",
    ("I11", "I12"): "differs from b11*conj(I12)*b11^-1",
}


def _certificates(tmp: Path, p: int) -> dict[str, Path]:
    """A `lowdisc` and a `complete` certificate at p, made through the CLI."""
    first, second, column = tmp / "ell3.json", tmp / "ell5.json", tmp / "column.json"
    assert main(["gen", "--p", str(p), "--ell", "3", "--m", "3", "--seed", "31",
                 "--out", str(first)]) == 0
    assert main(["gen", "--p", str(p), "--ell", "5", "--m", "2", "--seed", "32",
                 "--out", str(second)]) == 0
    data = json.loads(first.read_text())
    data["ideals"] = [data["ideals"][0], json.loads(second.read_text())["ideals"][0]]
    column.write_text(json.dumps(data))
    out = {"lowdisc": tmp / "lowdisc.json", "complete": tmp / "complete.json"}
    assert main(["lowdisc", "--in", str(first), "--seed", "1", "--out", str(out["lowdisc"])]) == 0
    assert main(["complete", "--in", str(column), "--out", str(out["complete"])]) == 0
    return out


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    made = {}

    def get(p):
        if p not in made:
            made[p] = _certificates(tmp_path_factory.mktemp(f"p{p}"), p)
        return made[p]

    return get


def _verify(data: dict, path: Path) -> tuple[int, dict]:
    path.write_text(json.dumps(data))
    verdict = path.with_name(path.stem + "-verdict.json")
    verdict.unlink(missing_ok=True)
    code = main(["verify", "--in", str(path), "--out", str(verdict)])
    return code, json.loads(verdict.read_text()) if verdict.exists() else {}


def _ideals_only(data: dict) -> dict:
    return {k: v for k, v in data.items() if k != "matrix"}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("kind", ["lowdisc", "complete"])
def test_witness_and_search_agree(certificates, tmp_path, p, kind):
    data = json.loads(certificates(p)[kind].read_text())
    code, report = _verify(data, tmp_path / "cert.json")
    assert (code, report["reason"]) == (0, "isomorphism witnessed")
    assert _verify(_ideals_only(data), tmp_path / "ideals.json")[0] == 0
    for (src, dst), reason in CONTROLS.items():
        bad = json.loads(json.dumps(data))
        bad["ideals"][dst] = bad["ideals"][src]
        code, report = _verify(bad, tmp_path / f"{dst}-from-{src}.json")
        assert code == 1 and report["verified"] is False
        assert reason in report["reason"], (src, dst, report)
        assert _verify(_ideals_only(bad), tmp_path / f"{dst}-from-{src}-ideals.json")[0] == 1


def _forgeries(data: dict, other: dict, alg) -> dict[str, tuple[dict, int, str]]:
    """Copies of `data` with one field altered: (file, exit code, reason)."""
    out = {}
    bad = json.loads(json.dumps(data))
    m11 = bad["matrix"]["m11"]
    m11["elem"] = [f"{2 * int(c.split('/')[0])}/{c.split('/')[1]}" for c in m11["elem"]]
    out["elem doubled"] = (bad, 1, "Kani degree")
    # 1/1000003 lies in no hom lattice at these small frame norms
    bad = json.loads(json.dumps(data))
    num, den = (int(v) for v in bad["matrix"]["m12"]["elem"][0].split("/"))
    bad["matrix"]["m12"]["elem"][0] = f"{num * 1000003 + den}/{den * 1000003}"
    out["elem plus 1/1000003"] = (bad, 1, "m12: lattice condition")
    bad = json.loads(json.dumps(data))
    bad["xi11"] = [f"{2 * int(c.split('/')[0])}/{c.split('/')[1]}" for c in bad["xi11"]]
    out["xi11 doubled"] = (bad, 1, "certificate identities")
    bad = json.loads(json.dumps(data))
    bad["matrix"] = other["matrix"]
    out["matrix of another certificate"] = (bad, 1, "differs from I11")
    # g*O0 for g = 1 + i + j: a lattice of reduced norm 105 whose left order is not O0
    o0 = standard_extremal_order(alg)
    g = alg.quaternion(1, 1, 1, 0)
    lat = o0.lattice.lmul_q(g)
    bad = json.loads(json.dumps(data))
    bad["matrix"]["m12"]["src_frame"] = {"denominator": str(lat.den),
                                         "basis": [[str(v) for v in r] for r in lat.mat]}
    out["frame g*O0"] = (bad, 3, None)
    bad = json.loads(json.dumps(data))
    bad["matrix"]["m21"] = 5
    out["entry of the wrong shape"] = (bad, 3, None)
    return out


@pytest.mark.parametrize("kind", ["lowdisc", "complete"])
def test_forged_witness_is_rejected(certificates, tmp_path, kind, capsys):
    files = certificates(103)
    data = json.loads(files[kind].read_text())
    other = json.loads(files["complete" if kind == "lowdisc" else "lowdisc"].read_text())
    for name, (bad, code, reason) in _forgeries(data, other, QuatAlgebra(103)).items():
        capsys.readouterr()
        got, report = _verify(bad, tmp_path / "forged.json")
        assert got == code, name
        if code == 1:
            assert report["verified"] is False and reason in report["reason"], (name, report)
        else:
            assert not report and "invalid input" in capsys.readouterr().err, name
    # the ideals of a file with another certificate's matrix assemble on their
    # own; the matrix still decides the file
    bad = _forgeries(data, other, QuatAlgebra(103))["matrix of another certificate"][0]
    assert _verify(_ideals_only(bad), tmp_path / "ideals.json")[0] == 0


def test_frame_must_be_a_left_ideal_of_O0(alg103, o0_103):
    # g*O0 for g = 1 + i + j has left order g*O0*g^-1, not O0
    lat = o0_103.lattice.lmul_q(alg103.quaternion(1, 1, 1, 0))
    assert Ideal(lat).left_order() != o0_103
    frame = {"denominator": str(lat.den), "basis": [[str(v) for v in r] for r in lat.mat]}
    with pytest.raises(ValueError, match="left ideal of the extremal order"):
        mor_from_json(alg103, {"src_frame": frame, "dst_frame": frame,
                               "elem": ["1/1", "0/1", "0/1", "0/1"]})


def test_witness_path_runs_no_search(certificates, tmp_path, monkeypatch):
    files = certificates(503)

    def forbidden(*args, **kwargs):
        pytest.fail("a file with a matrix reached the generator or unit-twist search")

    monkeypatch.setattr(quatisom.cli, "verify_ideal_quadruple", forbidden)
    monkeypatch.setattr(isom, "_principal_generator", forbidden)
    monkeypatch.setattr(isom, "conjugating_elements", forbidden)
    for path in files.values():
        assert main(["verify", "--in", str(path), "--out", str(tmp_path / "v.json")]) == 0
    inst = tmp_path / "inst.json"
    assert main(["gen", "--p", "503", "--ell", "3", "--m", "3", "--seed", "33",
                 "--out", str(inst)]) == 0
    assert main(["lowdisc", "--in", str(inst), "--seed", "2",
                 "--out", str(tmp_path / "cert.json")]) == 0


def test_forged_witness_is_rejected_under_python_O(certificates, tmp_path):
    data = json.loads(certificates(103)["lowdisc"].read_text())
    bad = _forgeries(data, data, QuatAlgebra(103))["xi11 doubled"][0]
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(bad))
    script = ("import sys\n"
              "if __debug__:\n"
              "    sys.exit(3)  # not running under -O\n"
              "from quatisom.cli import main\n"
              "sys.exit(main(['verify', '--in', sys.argv[1]]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script, str(path)],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 1, proc.stderr
    assert '"verified": false' in proc.stdout


def _encodings(data: dict) -> set:
    """The distinct lattice encodings of a certificate file: five ideals, eight frames."""
    lattices = list(data["ideals"].values())
    lattices += [m[f] for m in data["matrix"].values() for f in ("src_frame", "dst_frame")]
    return {(d["denominator"], json.dumps(d["basis"])) for d in lattices}


@pytest.mark.parametrize("p", [103, 503])
@pytest.mark.parametrize("kind", ["lowdisc", "complete"])
def test_certificate_file_is_read_once(certificates, monkeypatch, p, kind):
    # one Lattice4 reduction per distinct encoding and one order built.
    # O2 = O_R(I_psi) is the order of n2, m12's source; I12 and I22 share the
    # left order xi^-1*O2*xi, which is O2 itself where xi is a rational number
    # (`complete`, O2 built by `_unit_order`) and is O0 conjugated by xi11,
    # one HNF and no `_unit_order`, where it is not (`lowdisc`, O2 = O0)
    data = json.loads(certificates(p)[kind].read_text())
    reductions, unit_orders = [], []
    hnf_rows, unit_order = orders.hnf_rows, orders._unit_order
    monkeypatch.setattr(orders, "hnf_rows", lambda m: reductions.append(1) or hnf_rows(m))
    monkeypatch.setattr(orders, "_unit_order",
                        lambda lat, left: unit_orders.append(1) or unit_order(lat, left))
    cert, matrix = certificate_from_json(data)
    assert len(unit_orders) == (kind == "complete")
    assert len(reductions) == len(_encodings(data)) + 1
    assert cert.i_psi.right_order() is matrix.m12.src.order
    assert cert.i22.left_order() is cert.i12.left_order()
    if kind == "complete":
        assert cert.i12.left_order() is cert.i_psi.right_order()
        assert matrix.m11.dst.frame is cert.i11 and matrix.m21.dst.frame is cert.i21
    assert isom.verify_certificate(cert, matrix).ok
    # the I22 := I12 control shares one ideal between the two
    bad = json.loads(json.dumps(data))
    bad["ideals"]["I22"] = bad["ideals"]["I12"]
    cert, matrix = certificate_from_json(bad)
    assert cert.i12 is cert.i22


@pytest.mark.parametrize("kind", ["lowdisc", "complete"])
def test_shared_parse_keeps_its_errors(certificates, tmp_path, kind, capsys):
    data = json.loads(certificates(103)[kind].read_text())
    bad = json.loads(json.dumps(data))
    bad["ideals"]["I12"]["nrd"] = str(int(bad["ideals"]["I12"]["nrd"]) + 1)
    assert _verify(bad, tmp_path / "nrd.json")[0] == 3
    assert "stored reduced norm" in capsys.readouterr().err
    # a frame that repeats an ideal already read must be a left O0-ideal too
    bad = json.loads(json.dumps(data))
    i12 = bad["ideals"]["I12"]
    bad["matrix"]["m12"]["src_frame"] = {k: i12[k] for k in ("denominator", "basis")}
    assert _verify(bad, tmp_path / "frame.json")[0] == 3
    assert "left ideal of the extremal order" in capsys.readouterr().err
