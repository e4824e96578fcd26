"""JSON encodings: quaternions as four "num/den" strings, ideals as integer
basis matrices over a denominator, morphisms by their frames and element,
certificates per the documented schema.  All numbers are decimal strings so
files carry no integer-width assumptions; serialization is canonical
(lattices are already in Hermite normal form) and round-trips bit-exactly.
A certificate file is read once: each distinct lattice encoding becomes one
`Ideal`, shared by the ideals and frames that repeat it.
"""

from __future__ import annotations

import json
import re
from math import lcm

from .homframe import Certificate, LatticeConditionError, Mor, Mor2x2, Node, node_from_frame
from .orders import Ideal, Lattice4, Order, standard_extremal_order
from .quat import QuatAlgebra, Quaternion


def quaternion_to_json(q: Quaternion) -> list[str]:
    return [f"{c.numerator}/{c.denominator}" for c in q.coords()]


_RATIONAL = re.compile(r"(-?[0-9]+)/([0-9]+)")


def quaternion_from_json(alg: QuatAlgebra, data) -> Quaternion:
    """The quaternion of `quaternion_to_json`, read as integers: each
    coordinate is a string "num/den" with den > 0.  Any other literal,
    a zero denominator included, raises ValueError."""
    if len(data) != 4:
        raise ValueError("quaternion must have four coordinates")
    pairs = []
    for s in data:
        m = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
        if m is None:
            raise ValueError(f"quaternion coordinate {s!r} is not of the form num/den")
        if not int(m[2]):
            raise ValueError(f"quaternion coordinate {s!r} has a zero denominator")
        pairs.append((int(m[1]), int(m[2])))
    den = lcm(*(d for _, d in pairs))
    return Quaternion(alg, tuple(n * (den // d) for n, d in pairs), den)


def ideal_to_json(ideal: Ideal) -> dict:
    lat = ideal.lattice
    return {
        "p": str(lat.alg.p),
        "denominator": str(lat.den),
        "basis": [[str(v) for v in row] for row in lat.mat],
        "nrd": str(ideal.nrd()),
    }


def ideal_from_json(data, alg: QuatAlgebra | None = None) -> Ideal:
    """The ideal of `ideal_to_json`.  A lattice with O0*L <= L
    (`Lattice4.is_left_o0_module`) has left order O0, since O0 is maximal;
    any other gets its left order from `Ideal.nrd`, which raises ValueError
    when that order is not maximal.  A stored `nrd` must match."""
    if alg is None:
        alg = QuatAlgebra(int(data["p"]))
    return _read_ideal(alg, data, {}, standard_extremal_order(alg))


def _encoding(data) -> tuple:
    """A lattice's JSON encoding (denominator and basis strings) as a key,
    taken before any HNF: equal keys encode equal lattices."""
    return data["denominator"], tuple(tuple(row) for row in data["basis"])


def _read_ideal(alg: QuatAlgebra, data, seen: dict, order: Order) -> Ideal:
    """The ideal encoded by `data`, one `Ideal` per distinct encoding in `seen`.

    A lattice not seen before takes the maximal order `order` as its left
    order when order*L <= L, since that containment is then equality
    (8 products for O0, 16 for another order); otherwise `Ideal.nrd` builds
    its left order.  O0 itself is `one_ideal()`, whose orders are O0.  The
    algebra and the stored `nrd` are checked on every entry, seen or not.
    """
    if int(data["p"]) != alg.p:
        raise ValueError("algebra mismatch in ideal encoding")
    key = _encoding(data)
    ideal = seen.get(key)
    if ideal is None:
        lat = _lattice_from_json(alg, data)
        o0 = standard_extremal_order(alg)
        if lat == o0.lattice:
            ideal = o0.one_ideal()
        else:
            acts = (lat.is_left_o0_module() if order is o0
                    else lat.contains_product(order.lattice, lat))
            ideal = Ideal(lat, left=order if acts else None)
        seen[key] = ideal
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


def _frame_node(alg: QuatAlgebra, data, frames: dict) -> Node:
    """The node on the frame encoded by `data`.  An encoding already in
    `frames` is looked up before any HNF: its ideal must be a left O0-ideal
    and becomes the frame itself.  A new one is reduced once and checked by
    `node_from_frame`, and its frame is kept under the encoding."""
    key = _encoding(data)
    frame = frames.get(key)
    if frame is None:
        node = node_from_frame(_lattice_from_json(alg, data))
        frames[key] = node.frame
        return node
    if frame.left_order() != standard_extremal_order(alg):
        raise ValueError("a frame is not a left ideal of the extremal order O0")
    frame.nrd()  # an integral ideal of square index, as every frame is
    return Node(frame=frame)


def mor_from_json(alg: QuatAlgebra, data, frames: dict | None = None) -> Mor:
    """The morphism of `mor_to_json`.  Each frame must be a left O0-ideal.
    `frames` maps each lattice encoding already read to its ideal, so a
    frame is reduced and checked (`node_from_frame`) only the first time its
    encoding is seen, and equal encodings share one frame ideal."""
    frames = {} if frames is None else frames
    return Mor(_frame_node(alg, data["src_frame"], frames),
               _frame_node(alg, data["dst_frame"], frames),
               quaternion_from_json(alg, data["elem"]))


def matrix_to_json(mat: Mor2x2) -> dict:
    return {key: mor_to_json(m) for key, m in
            zip(("m11", "m12", "m21", "m22"), mat.entries())}


def matrix_from_json(alg: QuatAlgebra, data, frames: dict | None = None) -> Mor2x2:
    """The matrix of `matrix_to_json`, its 8 frames looked up in and added
    to `frames` as in `mor_from_json`, so each distinct frame is read once.
    An entry that fails its lattice condition raises LatticeConditionError
    naming the entry."""
    frames = {} if frames is None else frames
    entries = {}
    for key in ("m11", "m12", "m21", "m22"):
        try:
            entries[key] = mor_from_json(alg, data[key], frames)
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
    """The certificate of `certificate_to_json`, with its matrix if the file
    has one.  The file is read once: one `Ideal` per distinct lattice
    encoding serves the five ideals and the eight frames.

    I_psi, I11 and I21 are left O0-ideals.  O2 = O_R(I_psi) is built once
    (O0 itself when I_psi = O0).  I12 and I22 are left ideals of
    xi^-1*O2*xi, as xi11 and xi21 are integer multiples of one xi.  That
    order is taken from xi11 with one HNF (`Order.conjugate_by`), and is O2
    itself when xi is a rational number, as in `complete` certificates; a
    conjugate of a maximal order is maximal.  So I12 is certified as its
    left ideal by xi11^-1*O2*xi11*L <= L, which is equality, and I22 by the
    left order of I12; a lattice that fails it gets its own left order, as
    in `ideal_from_json`.  The frames that repeat an ideal (n1p, n2 and n2p
    repeat I11, I_psi and I21 in a `complete` certificate) become nodes on
    that ideal, so O(n2) is the same `Order` object as O2.
    """
    alg = QuatAlgebra(int(data["p"]))
    o0 = standard_extremal_order(alg)
    ideals, seen = data["ideals"], {}
    i_psi, i11, i21 = (_read_ideal(alg, ideals[k], seen, o0) for k in ("Ipsi", "I11", "I21"))
    xi11 = quaternion_from_json(alg, data["xi11"])
    o2 = i_psi.right_order()
    i12 = _read_ideal(alg, ideals["I12"], seen, o2 if xi11.is_zero() else o2.conjugate_by(xi11))
    i22 = _read_ideal(alg, ideals["I22"], seen, i12.left_order())
    cert = Certificate(
        i_psi=i_psi, i11=i11, i21=i21, i12=i12, i22=i22,
        xi11=xi11,
        xi21=quaternion_from_json(alg, data["xi21"]),
        d11=int(data["d11"]),
        d21=int(data["d21"]),
    )
    matrix = matrix_from_json(alg, data["matrix"], seen) if "matrix" in data else None
    return cert, matrix


def dumps(obj: dict) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
