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

The `isom-e0` digests were recorded before xi was taken in closed form on
the general route (jk = c*O2), and pin that the closed form keeps the
element the search found.  The `isom-g --g 3` digests were recorded when the
g-fold chain started to pass through E0 in its middle coordinate; they pin
the chain against later refactors.

The `lowdisc`, `isom-e0` and `isom-g` digests were re-recorded once more
when KLPT's strong approximation stopped sampling: it walks its disk of
candidates once, in a fixed order, and draws no randomness, so the random
draws after it (and the mu it finds) changed.  The `complete` digests did
not move, since completion draws no randomness, and CLI `verify` accepts
the new `lowdisc` files.

No digest moved when completion started to take xi, like b11 and b21, from
a generator the pipeline holds (alpha*x, or the scalar d11*d21) instead of
searching for it: the generator is normalized to the element the search
keeps.
"""

import hashlib
import json

import pytest

from quatisom.cli import main

GOLDEN = {
    (103, "complete"): "e6b5d0d0be3d68c5253cba634d1b521b583bcaf695d6c32576e65877e07b465e",
    (103, "lowdisc"): "5b225b59e1f4555679570797988eaab3c671edec0b880027c6d502769926db03",
    (503, "complete"): "4b393bd04a0abc04e0d7fe9acb63fda5556a3bad03fc80b24608260fab06d9ef",
    (503, "lowdisc"): "e47b4c41a54a78eaab8ee7ea1a450645c16b83bc2bb56aedcee31103b3fb5091",
    (103, "isom-e0"): "678a3a4b949e592827552476188f3f3ac46182475e71112566a29eb16aa34181",
    (103, "isom-g"): "22a9ffd29ed0c918949c4fc9d330972c1e35cb846249f69e339f51545a5a753c",
    (503, "isom-e0"): "4864c666329fb9761e6fb99df4f60a2eaf2c90dd33a7b7c93ac872514f7c212d",
    (503, "isom-g"): "33960c7af2d232f29735b74843280a32d1a7499b78f379dbfd5d6c3f9e4d097c",
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


@pytest.mark.parametrize("p", [103, 503])
def test_pipeline_cli_outputs_match_recorded_digests(tmp_path, p):
    inst = tmp_path / "instance.json"
    assert main(["gen", "--p", str(p), "--ell", "3", "--m", "3", "--g", "3", "--seed", "23",
                 "--out", str(inst)]) == 0
    for cmd, extra in (("isom-e0", []), ("isom-g", ["--g", "3"])):
        out = tmp_path / f"{cmd}.json"
        assert main([cmd, "--in", str(inst), "--seed", "1", "--out", str(out)] + extra) == 0
        assert _sha256(out) == GOLDEN[(p, cmd)], cmd
