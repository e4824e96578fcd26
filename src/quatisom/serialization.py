"""JSON encodings: quaternions as four "num/den" strings, ideals as integer
basis matrices over a denominator, morphisms by their frames and element,
certificates per the documented schema.  All numbers are decimal strings so
files carry no integer-width assumptions; serialization is canonical
(lattices are already in Hermite normal form) and round-trips bit-exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .homframe import Certificate, LatticeConditionError, Mor, Mor2x2, node_from_frame
from .orders import Ideal, Lattice4, standard_extremal_order
from .quat import QuatAlgebra, Quaternion


def quaternion_to_json(q: Quaternion) -> list[str]:
    return [f"{c.numerator}/{c.denominator}" for c in q.coords()]


def quaternion_from_json(alg: QuatAlgebra, data) -> Quaternion:
    if len(data) != 4:
        raise ValueError("quaternion must have four coordinates")
    return alg.quaternion(*(Fraction(s) for s in data))


def ideal_to_json(ideal: Ideal) -> dict:
    lat = ideal.lattice
    return {
        "p": str(lat.alg.p),
        "denominator": str(lat.den),
        "basis": [[str(v) for v in row] for row in lat.mat],
        "nrd": str(ideal.nrd()),
    }


def ideal_from_json(data, alg: QuatAlgebra | None = None) -> Ideal:
    p = int(data["p"])
    if alg is None:
        alg = QuatAlgebra(p)
    elif alg.p != p:
        raise ValueError("algebra mismatch in ideal encoding")
    lat = _lattice_from_json(alg, data)
    # O0*L <= L puts the maximal order O0 inside O_L(L), so O_L(L) = O0 with
    # no HNF; other lattices get their left order from `Ideal.nrd`
    o0 = standard_extremal_order(alg)
    ideal = Ideal(lat, left=o0 if lat.contains_product(o0.lattice, lat) else None)
    if "nrd" in data and ideal.nrd() != int(data["nrd"]):
        raise ValueError("stored reduced norm does not match the lattice")
    return ideal


def _lattice_from_json(alg: QuatAlgebra, data) -> Lattice4:
    rows = [[int(v) for v in row] for row in data["basis"]]
    return Lattice4(alg, rows, int(data["denominator"]))


def _lattice_to_json(lat: Lattice4) -> dict:
    return {
        "denominator": str(lat.den),
        "basis": [[str(v) for v in row] for row in lat.mat],
    }


def mor_to_json(m: Mor) -> dict:
    return {
        "src_frame": _lattice_to_json(m.src.frame.lattice),
        "dst_frame": _lattice_to_json(m.dst.frame.lattice),
        "elem": quaternion_to_json(m.elem),
    }


def mor_from_json(alg: QuatAlgebra, data, nodes: dict | None = None) -> Mor:
    """The morphism of `mor_to_json`.  Each frame must be a left O0-ideal
    (`node_from_frame`); `nodes` maps each frame lattice already read to its
    node, so a matrix builds one node per distinct frame."""
    nodes = {} if nodes is None else nodes

    def node_of(lat_data):
        lat = _lattice_from_json(alg, lat_data)
        if lat not in nodes:
            nodes[lat] = node_from_frame(lat)
        return nodes[lat]

    return Mor(node_of(data["src_frame"]), node_of(data["dst_frame"]),
               quaternion_from_json(alg, data["elem"]))


def matrix_to_json(mat: Mor2x2) -> dict:
    return {key: mor_to_json(m) for key, m in
            zip(("m11", "m12", "m21", "m22"), mat.entries())}


def matrix_from_json(alg: QuatAlgebra, data) -> Mor2x2:
    """The matrix of `matrix_to_json`.  An entry that fails its lattice
    condition raises LatticeConditionError naming the entry."""
    nodes, entries = {}, {}
    for key in ("m11", "m12", "m21", "m22"):
        try:
            entries[key] = mor_from_json(alg, data[key], nodes)
        except LatticeConditionError as err:
            raise LatticeConditionError(f"{key}: {err}") from None
    return Mor2x2(**entries)


def certificate_to_json(cert: Certificate, matrix: Mor2x2 | None = None) -> dict:
    out = {
        "p": str(cert.i_psi.alg.p),
        "ideals": {
            "Ipsi": ideal_to_json(cert.i_psi),
            "I11": ideal_to_json(cert.i11),
            "I21": ideal_to_json(cert.i21),
            "I12": ideal_to_json(cert.i12),
            "I22": ideal_to_json(cert.i22),
        },
        "xi11": quaternion_to_json(cert.xi11),
        "xi21": quaternion_to_json(cert.xi21),
        "d11": str(cert.d11),
        "d21": str(cert.d21),
    }
    if matrix is not None:
        out["matrix"] = matrix_to_json(matrix)
    return out


def certificate_from_json(data) -> tuple[Certificate, Mor2x2 | None]:
    alg = QuatAlgebra(int(data["p"]))
    ideals = data["ideals"]
    cert = Certificate(
        i_psi=ideal_from_json(ideals["Ipsi"], alg),
        i11=ideal_from_json(ideals["I11"], alg),
        i21=ideal_from_json(ideals["I21"], alg),
        i12=ideal_from_json(ideals["I12"], alg),
        i22=ideal_from_json(ideals["I22"], alg),
        xi11=quaternion_from_json(alg, data["xi11"]),
        xi21=quaternion_from_json(alg, data["xi21"]),
        d11=int(data["d11"]),
        d21=int(data["d21"]),
    )
    matrix = matrix_from_json(alg, data["matrix"]) if "matrix" in data else None
    return cert, matrix


def dumps(obj: dict) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
