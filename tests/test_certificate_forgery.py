"""Forged certificates against `Certificate.verify`'s division identities.

Each identity A*B = O2*xi (A = conj(I_psi)*I11, B = conj(I12), and the 21/22
twin) is proved by conditions (a)-(d) of the `Certificate.verify`
docstring, with no HNF of A*B.  Every forgery below must be rejected, and
the ideal forgeries aimed at (c) and (d) must pass the other condition, so
that each condition is shown to be needed.  The file forms must make
`quatisom verify` exit 1.  The checks are explicit code, so the file also
runs under `python -O`.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import count
from math import isqrt

import pytest

from quatisom import (QuatAlgebra, base_node, isomorphism_completion,
                      low_discriminant_isomorphism, node_from_ideal, random_left_ideal,
                      standard_extremal_order, sum_kernel_ideal)
from quatisom.cli import main
from quatisom.homframe import _division_identity
from quatisom.orders import Ideal, Lattice4, Order
from quatisom.serialization import certificate_to_json, ideal_to_json


@pytest.fixture(scope="module", params=["lowdisc", "complete"])
def completion(request):
    """A completion at p = 103 on either route, with O2 = O(m12.src)."""
    alg = QuatAlgebra(103)
    o0 = standard_extremal_order(alg)
    rng = random.Random(121)
    if request.param == "lowdisc":
        res = low_discriminant_isomorphism(node_from_ideal(random_left_ideal(o0, 5, 3, rng)),
                                           3, rng)
    else:
        i11, i21 = random_left_ideal(o0, 3, 3, rng), random_left_ideal(o0, 5, 2, rng)
        res = isomorphism_completion(base_node(alg), node_from_ideal(i11),
                                     node_from_ideal(sum_kernel_ideal(i11, i21)),
                                     node_from_ideal(i21), i11, i21)
    return res, res.matrix.m12.src.order


def _conditions(cert, o2):
    """(a), (c) and (d) for the 11/12 identity, as the docstring states them."""
    a = cert.i_psi.conjugate().lattice.mul(cert.i11.lattice)
    b = cert.i12.conjugate().lattice
    xi = cert.xi11
    n = isqrt(int(4 * abs(a.det())))
    return (a.contains_product(o2.lattice, a), b.contains_rmul(a.conjugate(), xi / n),
            o2.lattice.rmul_q(xi).contains_product(a, b))


def test_genuine_certificate_meets_every_condition(completion):
    res, o2 = completion
    assert res.certificate.verify(o2)
    assert _conditions(res.certificate, o2) == (True, True, True)


def test_forged_ideal_breaks_its_condition(completion):
    res, o2 = completion
    cert = res.certificate
    # 3*I12 is a sublattice: conj(A)*xi/n is no longer inside B
    thrice = replace(cert, i12=Ideal(cert.i12.lattice.scale(3)))
    assert _conditions(thrice, o2) == (True, False, True)
    assert not thrice.verify(o2)
    # I12/3 is a superlattice: A*B leaves O2*xi
    third = replace(cert, i12=Ideal(cert.i12.lattice.scale(Fraction(1, 3))))
    assert _conditions(third, o2) == (True, True, False)
    assert not third.verify(o2)


def test_forged_order_or_xi_is_rejected(completion):
    res, o2 = completion
    cert = res.certificate
    o0 = standard_extremal_order(o2.alg)
    # another maximal order does not act on A; a suborder of O2 is not maximal
    wrong = o0 if o2 != o0 else node_from_ideal(random_left_ideal(o0, 7, 2,
                                                                  random.Random(5))).order
    assert _conditions(cert, wrong)[0] is False
    assert not cert.verify(wrong)
    lat = o2.lattice
    suborder = Order(Lattice4(o2.alg, [[lat.den, 0, 0, 0]] + [[2 * v for v in r] for r in lat.mat],
                              lat.den))  # Z + 2*O2
    assert not suborder.is_maximal()
    assert not cert.verify(suborder)
    assert not replace(cert, xi11=cert.xi11 * 2).verify(o2)
    assert not replace(cert, i12=cert.i22).verify(o2)
    assert not replace(cert, i22=cert.i12).verify(o2)
    assert not replace(cert, i12=cert.i22, i22=cert.i12).verify(o2)


@pytest.mark.parametrize("p", [103, 503, 1019])
def test_doubled_xi_fails_only_the_norm_check(p):
    # xi11, xi21 doubled and I12, I22 scaled by 2: the xi's stay in J11 and
    # J21, and A*conj(2*I12) = O2*(2*xi11) still holds, so only the norm
    # check Nrd(xi) = d11*d21*Nrd(I_psi) can reject it (Nrd(xi) is 4 times that)
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p + 3)
    res = low_discriminant_isomorphism(node_from_ideal(random_left_ideal(o0, 5, 3, rng)), 3, rng)
    cert, o2 = res.certificate, res.matrix.m12.src.order
    assert cert.verify(o2)
    forged = replace(cert, xi11=cert.xi11 * 2, xi21=cert.xi21 * 2,
                     i12=Ideal(cert.i12.lattice.scale(2)), i22=Ideal(cert.i22.lattice.scale(2)))
    assert not forged.verify(o2)
    xi = forged.xi11 * forged.d21 - forged.xi21 * forged.d11
    assert xi.reduced_norm() == 4 * forged.d11 * forged.d21 * forged.i_psi.nrd()
    psi_bar = forged.i_psi.conjugate().lattice
    j11, j21 = psi_bar.mul(forged.i11.lattice), psi_bar.mul(forged.i21.lattice)
    assert o2.is_maximal()
    assert j11.contains(forged.xi11) and j21.contains(forged.xi21)
    assert _division_identity(o2, j11, forged.i12.conjugate().lattice, forged.xi11)
    assert _division_identity(o2, j21, forged.i22.conjugate().lattice, forged.xi21)


def _verify_file(data: dict, path) -> int:
    path.write_text(json.dumps(data))
    verdict = path.with_name(path.stem + "-verdict.json")
    code = main(["verify", "--in", str(path), "--out", str(verdict)])
    if code == 1:
        assert json.loads(verdict.read_text())["verified"] is False
    return code


def test_forged_files_exit_1(completion, tmp_path):
    res, _ = completion
    cert = res.certificate
    data = certificate_to_json(cert, res.matrix)
    # I12/3 is no integral ideal, so its file form is already invalid input;
    # the integral superlattice I12 + (Nrd(I12)/q)*O_L(I12), q the least
    # prime factor of Nrd(I12), breaks (d) and nothing before it
    n12 = cert.i12.nrd()
    q = next(f for f in count(2) if n12 % f == 0)
    wider = Ideal(cert.i12.lattice.add(cert.i12.left_order().lattice.scale(n12 // q)))
    assert wider.nrd() < n12
    assert _conditions(replace(cert, i12=wider), res.matrix.m12.src.order) == (True, True, False)
    lat = cert.i12.lattice.scale(Fraction(1, 3))
    third = json.loads(json.dumps(data))
    third["ideals"]["I12"].update(denominator=str(lat.den),
                                  basis=[[str(v) for v in r] for r in lat.mat])
    assert _verify_file(third, tmp_path / "third.json") == 3
    forged = {"3*I12": {"I12": ideal_to_json(Ideal(cert.i12.lattice.scale(3)))},
              "I12 + (Nrd(I12)/q)*O_L(I12)": {"I12": ideal_to_json(wider)},
              "I12 := I22": {"I12": data["ideals"]["I22"]},
              "I22 := I12": {"I22": data["ideals"]["I12"]},
              "swapped": {"I12": data["ideals"]["I22"], "I22": data["ideals"]["I12"]}}
    for name, ideals in forged.items():
        bad = json.loads(json.dumps(data))
        bad["ideals"].update(ideals)
        assert _verify_file(bad, tmp_path / "forged.json") == 1, name
    bad = json.loads(json.dumps(data))
    bad["xi11"] = [f"{2 * int(c.split('/')[0])}/{c.split('/')[1]}" for c in bad["xi11"]]
    assert _verify_file(bad, tmp_path / "xi.json") == 1
