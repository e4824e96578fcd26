import json
import random
from fractions import Fraction
from itertools import product
from math import isqrt, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from quatisom import (Ideal, Lattice4, QuatAlgebra, connecting_ideal, multiply_ideals,
                      node_from_ideal, principal_ideal, random_left_ideal,
                      standard_extremal_order, sum_kernel_ideal, two_sided_prime)
from quatisom.cli import main
from quatisom.orders import Order, left_order, right_order
from quatisom.quat import qmul
from quatisom.serialization import ideal_from_json, ideal_to_json


def _det3(a, b, c, d, e, f, g, h, i) -> int:
    """Determinant of the 3x3 matrix with rows (a, b, c), (d, e, f), (g, h, i)."""
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _det4(m) -> int:
    """Determinant of a 4x4 integer matrix by cofactor expansion."""
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = m
    return (
        m00 * _det3(m11, m12, m13, m21, m22, m23, m31, m32, m33)
        - m01 * _det3(m10, m12, m13, m20, m22, m23, m30, m32, m33)
        + m02 * _det3(m10, m11, m13, m20, m21, m23, m30, m31, m33)
        - m03 * _det3(m10, m11, m12, m20, m21, m22, m30, m31, m32)
    )


def coords_of(lat, q):
    """Coordinates of q on the basis of lat (a full-rank lattice spans the
    algebra), by a rational triangular solve on the HNF rows.  The oracle
    for `Lattice4.coordinates` and the membership kernel."""
    target = [c * lat.den for c in q.coords()]
    xs = []
    for r in range(4):
        piv = lat.mat[r][r]
        acc = target[r]
        for t in range(r):
            acc -= xs[t] * lat.mat[t][r]
        xs.append(Fraction(acc, piv))
    return xs


def test_standard_order(alg103, o0_103):
    assert o0_103.reduced_discriminant() == 103
    assert o0_103.is_maximal()
    one, i, j, k = alg103.gens()
    assert o0_103.lattice.contains(one)
    assert o0_103.lattice.contains(i)
    assert o0_103.lattice.contains((i + j) / 2)
    assert o0_103.lattice.contains((one + k) / 2)
    assert not o0_103.lattice.contains((one + j) / 2)
    assert o0_103.lattice.contains(j)
    assert o0_103.lattice.contains(k)


def test_standard_order_503(o0_503):
    assert o0_503.reduced_discriminant() == 503
    assert o0_503.is_maximal()


def test_non_maximal_order_detected(alg103):
    # Z[i, j] = Z<1, i, j, k> is an order of reduced discriminant 2p
    zij = Order(Lattice4(alg103, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    # index 4 in the maximal order, so the reduced discriminant picks up that factor
    assert zij.reduced_discriminant() == 4 * 103
    assert not zij.is_maximal()


def test_order_units(o0_103):
    units = sorted(str(u) for u in o0_103.units())
    assert units == ["-1", "-i", "1", "i"]


def test_lattice_canonical_equality(alg103):
    rows = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]]
    a = Lattice4(alg103, rows, 2)
    shuffled = [rows[2], rows[0], rows[3], [r + s for r, s in zip(rows[1], rows[2])]]
    b = Lattice4(alg103, shuffled, 2)
    assert a == b
    assert hash(a) == hash(b)


def test_ideal_norm_paper_values(o0_103, o0_503, alg103, example_p503):
    assert o0_103.one_ideal().nrd() == 1
    assert example_p503["I11"].nrd() == 729
    assert example_p503["I21"].nrd() == 625
    a = alg103.quaternion(6, 1, 1, -1)
    assert principal_ideal(o0_103, a).nrd() == 243


def test_unit_orders(o0_103, alg103):
    assert left_order(o0_103.lattice) == o0_103
    assert right_order(o0_103.lattice) == o0_103
    a = alg103.quaternion(6, 1, 1, -1)
    ideal = principal_ideal(o0_103, a)
    assert left_order(ideal.lattice) == o0_103
    # right order of O0*a is a^-1 O0 a
    conj = o0_103.lattice.lmul_q(a.inverse()).rmul_q(a)
    assert right_order(ideal.lattice).lattice == conj


def test_left_order_of_random_ideals(o0_103):
    rng = random.Random(21)
    for _ in range(5):
        ideal = random_left_ideal(o0_103, 3, 4, rng)
        assert left_order(ideal.lattice) == o0_103
        assert ideal.left_order().lattice.contains_lattice(ideal.lattice)


def test_multiply_ideals(o0_103):
    rng = random.Random(22)
    o0_ideal = o0_103.one_ideal()
    assert multiply_ideals(o0_ideal, o0_ideal).lattice == o0_103.lattice
    for _ in range(4):
        i = random_left_ideal(o0_103, 3, 4, rng)
        # I * conj(I) = Nrd(I) * O_L(I)
        prod = multiply_ideals(i, i.conjugate())
        assert prod.lattice == o0_103.lattice.scale(i.nrd())
        # the product's norm is Nrd(I)^2, and the lattice's own
        assert prod.nrd() == i.nrd() ** 2 == Ideal(prod.lattice).nrd()
        j = Ideal(i.right_order().lattice.rmul_q(i.basis()[2]), left=i.right_order())
        prod = multiply_ideals(i, j)
        assert prod.nrd() == i.nrd() * j.nrd()
    with pytest.raises(ValueError):
        i1 = random_left_ideal(o0_103, 3, 4, rng)
        i2 = random_left_ideal(o0_103, 3, 4, rng)
        multiply_ideals(i1, i2)  # incompatible: O_R(i1) != O0 generally


def test_connecting_ideal(o0_103, alg103):
    conn = connecting_ideal(o0_103, o0_103)
    assert conn.lattice == o0_103.lattice
    rng = random.Random(23)
    for _ in range(4):
        a = alg103.quaternion(rng.randint(-5, 5), rng.randint(-5, 5),
                              rng.randint(-5, 5), rng.randint(-5, 5))
        if a.is_zero():
            continue
        o2 = Order(o0_103.lattice.lmul_q(a.inverse()).rmul_q(a))
        conn = connecting_ideal(o0_103, o2)
        assert conn.left_order() == o0_103
        assert conn.right_order() == o2
        assert conn.left_order().lattice.contains_lattice(conn.lattice)
        # Nrd(I) = [O1 : O1 n O2], and I = d*O1*O2 with d = Nrd(I)
        assert conn.nrd() == o0_103.lattice.intersect(o2.lattice).index_in(o0_103.lattice)
        assert conn.lattice.index_in(o0_103.lattice.mul(o2.lattice)) == conn.nrd() ** 4


@pytest.mark.parametrize("p", [103, 503, 1019])
def test_connecting_ideal_denominator_matches_rational_coordinates(p):
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p + 2)
    for _ in range(6):
        o2 = random_left_ideal(o0, rng.choice([3, 5, 7]), rng.randint(1, 4), rng).right_order()
        prod = o0.lattice.mul(o2.lattice)
        # d = lcm of the denominators of the coordinates of O0*O2's basis on O0 and O2
        d = 1
        for target in (o0.lattice, o2.lattice):
            for b in prod.basis():
                coords = coords_of(target, b)
                d = lcm(d, *(c.denominator for c in coords))
                den, ys = target.coordinates(b.num, b.den)
                assert den == lcm(*(c.denominator for c in coords))
                assert ys == [c * den for c in coords]
        assert connecting_ideal(o0, o2).lattice == prod.scale(d)


def test_random_left_ideal(o0_103):
    rng = random.Random(24)
    assert random_left_ideal(o0_103, 3, 0, rng).lattice == o0_103.lattice
    ideal = random_left_ideal(o0_103, 3, 5, rng)
    assert ideal.nrd() == 243
    assert ideal.left_order() == o0_103
    assert ideal.left_order().lattice.contains_lattice(ideal.lattice)
    # l-type (0, 5): of norm 3^5 and not inside 3*O0
    assert not o0_103.lattice.scale(3).contains_lattice(ideal.lattice)
    # determinism under the same seed
    r1, r2 = random.Random(99), random.Random(99)
    assert random_left_ideal(o0_103, 3, 4, r1) == random_left_ideal(o0_103, 3, 4, r2)


def test_two_sided_prime(o0_103):
    p_ideal = two_sided_prime(o0_103)
    assert p_ideal.nrd() == 103
    assert p_ideal.left_order() == o0_103
    assert p_ideal.right_order() == o0_103
    # P^2 = p * O0
    sq = multiply_ideals(p_ideal, p_ideal)
    assert sq.lattice == o0_103.lattice.scale(103)


@pytest.mark.parametrize("p", [103, 503, 1019, 2 ** 32 + 15])
def test_two_sided_prime_of_maximal_orders(p):
    o0 = standard_extremal_order(QuatAlgebra(p))
    rng = random.Random(p)
    orders = [o0] + [random_left_ideal(o0, ell, m, rng).right_order()
                     for ell, m in ((3, 1), (5, 2), (7, 3), (3, 4))]
    for order in orders:
        lat = two_sided_prime(order).lattice
        # two-sided: O*P <= P and P*O <= P
        assert lat.contains_lattice(order.lattice.mul(lat))
        assert lat.contains_lattice(lat.mul(order.lattice))
        # both orders recomputed from the lattice alone
        assert left_order(lat) == order and right_order(lat) == order
        assert Ideal(lat).nrd() == p
        assert lat.mul(lat) == order.lattice.scale(p)


def _two_sided_prime_reference(order):
    """p*O^# from the Gram matrix G of Trd(x*conj(y)) on the basis rows M
    over den: the dual basis is den*G^-1*M, the rows den*adj(G)*M over
    det(G)."""
    lat = order.lattice
    p, mat, den = lat.alg.p, lat.mat, lat.den
    diag = (1, 1, p, p)
    gram = [[2 * sum(x[t] * diag[t] * y[t] for t in range(4)) for y in mat] for x in mat]

    def cofactor(r, c):
        (a, b, e), (d, f, g), (h, i, j) = [row[:c] + row[c + 1:]
                                           for t, row in enumerate(gram) if t != r]
        return (-1) ** (r + c) * (a * (f * j - g * i) - b * (d * j - g * h) + e * (d * i - f * h))

    adj = [[cofactor(c, r) for c in range(4)] for r in range(4)]
    rows = [[p * den * sum(adj[r][t] * mat[t][c] for t in range(4)) for c in range(4)]
            for r in range(4)]
    return Lattice4(lat.alg, rows, abs(_det4(gram)))


@pytest.mark.parametrize("p", [103, 503, 1019])
def test_two_sided_prime_matches_the_gram_adjugate_reference(p):
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p + 3)
    orders = [o0] + [random_left_ideal(o0, ell, m, rng).right_order()
                     for ell, m in ((3, 2), (5, 1), (7, 2), (3, 5))]
    g = alg.quaternion(1, 2, Fraction(1, 3), -1)
    orders += [o0.conjugate_by(g), Order(orders[1].lattice), orders[2].conjugate_by(g)]
    for order in orders:
        assert two_sided_prime(order).lattice == _two_sided_prime_reference(order)


def _left_order_reference(lat):
    """O_L(L) as the intersection of the four lattices L*b^-1 over the basis b."""
    acc = None
    for b in lat.basis():
        cand = lat.rmul_q(b.inverse())
        acc = cand if acc is None else acc.intersect(cand)
    return Order(acc)


def _right_order_reference(lat):
    """O_R(L) as the intersection of the four lattices b^-1*L."""
    acc = None
    for b in lat.basis():
        cand = lat.lmul_q(b.inverse())
        acc = cand if acc is None else acc.intersect(cand)
    return Order(acc)


@pytest.mark.parametrize("p", [103, 503, 1019, 2 ** 32 + 15])
def test_closed_form_orders_match_intersections(p):
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p + 1)
    lattices = [o0.lattice]
    for ell, m in ((3, 1), (3, 4), (5, 2), (7, 3), (11, 1)):
        ideal = random_left_ideal(o0, ell, m, rng)
        # O0-ideals, their conjugates (left order O_R), a principal ideal of the
        # right order, and a fractional multiple
        q = alg.quaternion(*(rng.randint(-9, 9) for _ in range(4)))
        lattices += [ideal.lattice, ideal.lattice.conjugate(), ideal.lattice.scale(Fraction(2, 3))]
        if not q.is_zero():
            lattices.append(ideal.right_order().lattice.rmul_q(q))
    for lat in lattices:
        ol, orr = _left_order_reference(lat), _right_order_reference(lat)
        assert ol.is_maximal() and orr.is_maximal()
        assert left_order(lat) == ol
        assert right_order(lat) == orr
        if ol.lattice.contains_lattice(lat):
            assert Ideal(lat).nrd() ** 2 == lat.index_in(ol.lattice)


def _reduced_discriminant_reference(order):
    """sqrt |det Gram| of the trace form Trd(x*conj(y)) on the basis."""
    basis = order.basis()
    det = abs(_det4([[(x * y.conjugate()).reduced_trace() for y in basis] for x in basis]))
    d = Fraction(isqrt(det.numerator), isqrt(det.denominator))
    assert d * d == det
    return d


def test_reduced_discriminant_matches_gram_determinant():
    for p in (103, 503, 1019, 2 ** 32 + 15):
        alg = QuatAlgebra(p)
        o0 = standard_extremal_order(alg)
        rng = random.Random(p + 2)
        zijk = Order(Lattice4(alg, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
        # Z + 3*O0 has index 27 in O0
        small = Order(o0.lattice.scale(3).add(Lattice4(alg, [[1, 0, 0, 0], [0, 3, 0, 0],
                                                            [0, 0, 3, 0], [0, 0, 0, 3]])))
        orders = [o0, zijk, small] + [random_left_ideal(o0, ell, 3, rng).right_order()
                                      for ell in (3, 5)]
        for order in orders:
            assert order.reduced_discriminant() == _reduced_discriminant_reference(order)
        assert zijk.reduced_discriminant() == 4 * p
        assert small.reduced_discriminant() == 27 * p
        assert [o.is_maximal() for o in orders] == [True, False, False, True, True]


def test_non_maximal_lattice_is_rejected(alg103, example_p103, tmp_path):
    # 3*Z<1, i, j, k>: its left and right orders are Z<1, i, j, k>, not maximal
    lat = Lattice4(alg103, [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])
    for func in (left_order, right_order, lambda x: Ideal(x).nrd()):
        with pytest.raises(ValueError, match="not an ideal of a maximal order"):
            func(lat)
    data = {"p": "103", "denominator": "1", "nrd": "9",
            "basis": [[str(v) for v in row] for row in lat.mat]}
    with pytest.raises(ValueError, match="not an ideal of a maximal order"):
        ideal_from_json(data, alg103)
    quad = {k: ideal_to_json(example_p103[k]) for k in ("I11", "I21", "I12", "I22")}
    quad["I11"] = data
    path = tmp_path / "quad.json"
    path.write_text(json.dumps({"p": "103", "ideals": quad}))
    assert main(["verify", "--in", str(path)]) == 3


@pytest.mark.parametrize("p", [103, 503, 1019])
def test_is_left_o0_module_agrees_with_the_16_products(p):
    # the 8 products with O0's ring generators i and (i+j)/2 decide O0*L <= L
    # exactly as the 16 products of the two bases do
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p + 7)
    g = alg.quaternion(1, 1, 1, 0)  # g*O0 is the forged frame of the witness tests
    lattices = [o0.lattice, o0.lattice.lmul_q(g), o0.lattice.scale(Fraction(1, 3))]
    for ell, m in ((3, 1), (3, 3), (5, 2), (7, 2)):
        for _ in range(3):
            ideal = random_left_ideal(o0, ell, m, rng)
            lat, right = ideal.lattice, ideal.right_order().lattice
            h = alg.quaternion(*(rng.randrange(-3, 4) for _ in range(4)))
            if h.is_zero():
                h = g
            lattices += [lat, lat.conjugate(), lat.rmul_q(h), lat.lmul_q(h), lat.rmul_q(g),
                         lat.lmul_q(g), right, lat.add(right.scale(7))]
    got = [lat.is_left_o0_module() for lat in lattices]
    assert got == [lat.contains_product(o0.lattice, lat) for lat in lattices]
    assert got[:3] == [True, False, True]  # O0/3 is a fractional left O0-ideal
    assert 0 < sum(got) < len(got)


def test_nrd_index_consistency(o0_103):
    rng = random.Random(25)
    for _ in range(5):
        ideal = random_left_ideal(o0_103, 5, 3, rng)
        n = ideal.nrd()
        assert ideal.lattice.index_in(o0_103.lattice) == n * n
        for b in ideal.basis():
            assert b.reduced_norm() % n == 0


def _unit_order_reference(lat, left):
    """The former `_unit_order`: the same candidate order, certified by the
    full closure test of the public `Order(...)` as well as by its covolume
    and its action on the lattice."""
    p, mat, den = lat.alg.p, lat.mat, lat.den
    idx = 4 * abs(lat.det())
    n = Fraction(isqrt(idx.numerator), isqrt(idx.denominator))
    conj = [(r[0], -r[1], -r[2], -r[3]) for r in mat]
    pairs = product(mat, conj) if left else product(conj, mat)
    try:
        if n * n != idx:
            raise ValueError(f"4*covolume {idx} is not a square")
        o = Lattice4(lat.alg, [[v * n.denominator for v in qmul(x, y, p)] for x, y in pairs],
                     den * den * n.numerator)
        order = Order(o)
        if 4 * abs(o.det()) != 1:
            raise ValueError(f"the candidate order has covolume {abs(o.det())}")
        acts = [qmul(u, x, p) if left else qmul(x, u, p) for u in o.mat for x in mat]
        if not lat._contains_rows(acts, o.den * den):
            raise ValueError("the candidate order does not act on the lattice")
    except ValueError as err:
        raise ValueError(f"not an ideal of a maximal order: {err}") from None
    return order


def _ideal_from_json_reference(data, alg):
    """`ideal_from_json` with its left order from `_unit_order_reference`."""
    lat = Lattice4(alg, [[int(v) for v in row] for row in data["basis"]],
                   int(data["denominator"]))
    ideal = Ideal(lat, left=_unit_order_reference(lat, left=True))
    if ideal.nrd() != int(data["nrd"]):
        raise ValueError("stored reduced norm does not match the lattice")
    return ideal


def _outcome(func, *args):
    """func(*args), or ValueError when it raises one."""
    try:
        return func(*args)
    except ValueError:
        return ValueError


def _assert_unit_orders_match_reference(lat, nrd):
    """left_order, right_order and ideal_from_json raise exactly when the
    reference does, and otherwise give the same order or ideal."""
    alg = lat.alg
    data = {"p": str(alg.p), "denominator": str(lat.den), "nrd": str(nrd),
            "basis": [[str(v) for v in row] for row in lat.mat]}
    left = _outcome(left_order, lat)
    assert left == _outcome(_unit_order_reference, lat, True)
    assert _outcome(right_order, lat) == _outcome(_unit_order_reference, lat, False)
    assert _outcome(ideal_from_json, data, alg) == _outcome(_ideal_from_json_reference, data, alg)
    return left is not ValueError


@pytest.mark.parametrize("p", [103, 503, 1019, 2 ** 61 + 15])
def test_unit_orders_match_closure_checked_reference(p):
    # left_order/right_order certify by covolume 1/4 and the action on the
    # lattice, without Order's closure test; the reference keeps that test
    o0 = standard_extremal_order(QuatAlgebra(p))
    rng = random.Random(p)
    for ell, m in ((3, 3), (5, 2), (7, 2), (3, 5)):
        ideal = random_left_ideal(o0, ell, m, rng)
        # the conjugate is a left ideal of O_R(ideal), an order other than O0
        for lat in (ideal.lattice, ideal.conjugate().lattice, ideal.lattice.scale(Fraction(1, 3))):
            assert _assert_unit_orders_match_reference(lat, ideal.nrd())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unit_orders_of_altered_ideals_match_reference(data):
    # an ideal with one basis row replaced, or scaled by a rational: mostly
    # no ideal of a maximal order, sometimes still one (a row times -1)
    alg = QuatAlgebra(data.draw(st.sampled_from([103, 503])))
    o0 = standard_extremal_order(alg)
    ideal = random_left_ideal(o0, data.draw(st.sampled_from([3, 5])), 2,
                              random.Random(data.draw(st.integers(0, 10 ** 6))))
    rows = [list(r) for r in ideal.lattice.mat]
    den = ideal.lattice.den
    r = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        rows[r] = data.draw(st.lists(st.integers(-12, 12), min_size=4, max_size=4))
        assume(_det4(rows) != 0)
    else:
        c = Fraction(data.draw(st.sampled_from([-1, 2, -3, Fraction(1, 2), Fraction(2, 3)])))
        rows = [[v * (c.numerator if t == r else c.denominator) for v in row]
                for t, row in enumerate(rows)]
        den *= c.denominator
    _assert_unit_orders_match_reference(Lattice4(alg, rows, den), ideal.nrd())


@pytest.mark.parametrize("rows, den, message", [
    # Z<2, i, j, k>: a lattice without 1
    ([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 1, "must contain 1"),
    # Z<1, i/2, j, k>: i/2 has norm 1/4
    ([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]], 2, "integral trace and norm"),
    # Z<1, 2i, j, k>: integral traces and norms, but j*k = p*i has odd i-coordinate
    ([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 1, "not closed"),
])
def test_order_rejects_non_orders(alg103, rows, den, message):
    with pytest.raises(ValueError, match=message):
        Order(Lattice4(alg103, rows, den))


def _contains_reference(lat, q):
    """Membership through the rational coordinates on the basis."""
    return all(x.denominator == 1 for x in coords_of(lat, q))


_small = st.integers(-12, 12)


@st.composite
def _lattices(draw, alg):
    rows = draw(st.lists(st.lists(_small, min_size=4, max_size=4), min_size=4, max_size=4))
    assume(_det4(rows) != 0)
    return Lattice4(alg, rows, draw(st.integers(1, 6)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_contains_matches_rational_coordinates(alg103, data):
    lat = data.draw(_lattices(alg103))
    other = data.draw(_lattices(alg103))
    # an integer combination of the basis over a small divisor, so both
    # answers occur often
    coeffs = data.draw(st.lists(_small, min_size=4, max_size=4))
    m = data.draw(st.integers(1, 3))
    q = sum((c * b for c, b in zip(coeffs[1:], lat.basis()[1:])), coeffs[0] * lat.basis()[0]) / m
    assert lat.contains(q) == _contains_reference(lat, q)
    if data.draw(st.booleans()):
        # a sublattice (or a superlattice, for m > 1) of lat
        combo = data.draw(st.lists(st.lists(_small, min_size=4, max_size=4),
                                   min_size=4, max_size=4))
        assume(_det4(combo) != 0)
        rows = [[sum(c[t] * lat.mat[t][col] for t in range(4)) for col in range(4)]
                for c in combo]
        other = Lattice4(alg103, rows, lat.den * m)
    assert lat.contains_lattice(other) == all(_contains_reference(lat, b) for b in other.basis())


def _assert_kernel_matches_oracle(lat, qs):
    """The kernel's membership and least-denominator coordinates agree with
    `coords_of`, one vector at a time and as one batch of rows over a common
    denominator.  Returns the oracle's membership verdicts."""
    inside = []
    for q in qs:
        coords = coords_of(lat, q)
        den = lcm(*(c.denominator for c in coords))
        assert lat.coordinates(q.num, q.den) == (den, [c * den for c in coords])
        inside.append(den == 1)
        assert lat.contains(q) == inside[-1]
    e = lcm(*(q.den for q in qs))
    assert lat._contains_rows([[v * (e // q.den) for v in q.num] for q in qs], e) == all(inside)
    return inside


_KERNEL_PRIMES = [103, 503, 1019]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_membership_kernel_matches_rational_coordinates(data):
    # full-rank lattices with negative entries over a denominator > 1, and
    # vectors inside and outside them: integer combinations of the basis
    # over a small divisor, some moved by a small step
    alg = QuatAlgebra(data.draw(st.sampled_from(_KERNEL_PRIMES)))
    entries = st.integers(-60, 60)
    rows = data.draw(st.lists(st.lists(entries, min_size=4, max_size=4), min_size=4, max_size=4))
    assume(_det4(rows) != 0)
    lat = Lattice4(alg, rows, data.draw(st.integers(2, 10 ** 6)))
    assume(lat.den > 1)
    qs = []
    for _ in range(data.draw(st.integers(1, 4))):
        coeffs = data.draw(st.lists(entries, min_size=4, max_size=4))
        q = sum((c * b for c, b in zip(coeffs[1:], lat.basis()[1:])), coeffs[0] * lat.basis()[0])
        q /= data.draw(st.integers(1, 4))
        if data.draw(st.booleans()):
            step = data.draw(st.lists(st.integers(-2, 2), min_size=4, max_size=4))
            q += alg.quaternion(*step) / data.draw(st.integers(1, 10 ** 6))
        qs.append(q)
    _assert_kernel_matches_oracle(lat, qs)


@pytest.mark.parametrize("p", _KERNEL_PRIMES)
def test_membership_kernel_on_orders_with_large_denominators(p):
    # right orders of sums of kernel ideals of norms 3^24 and 5^18, the
    # orders a completion builds, with denominators of about 10^24
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p + 7)
    for _ in range(3):
        i11, i21 = random_left_ideal(o0, 3, 24, rng), random_left_ideal(o0, 5, 18, rng)
        order = node_from_ideal(sum_kernel_ideal(i11, i21)).order
        lat = order.lattice
        assert lat.den >= 10 ** 20
        basis = lat.basis()
        # the 16 products lie in the order; over a small divisor or moved by
        # a small step, most do not
        qs = [x * y for x in basis for y in basis]
        qs += [x / m for x in qs[:6] for m in (2, 3, 5)]
        qs += [b + alg.quaternion(*(rng.randint(-1, 1) for _ in range(4))) / lat.den
               for b in basis]
        inside = _assert_kernel_matches_oracle(lat, qs)
        assert all(inside[:16]) and not all(inside)
        assert Order(lat) == order


def _quaternions(alg):
    """Nonzero quaternions with small numerators and denominators."""
    coords = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                      min_size=4, max_size=4)
    return coords.map(lambda c: alg.quaternion(*c)).filter(lambda q: not q.is_zero())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_contains_rmul_matches_product_lattice(alg103, data):
    lat = data.draw(_lattices(alg103))
    other = data.draw(_lattices(alg103))
    q = data.draw(_quaternions(alg103))
    if data.draw(st.booleans()):
        # other*q = c*lat, inside lat exactly when c is an integer
        c = data.draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), 1, 2, 3]))
        other = lat.rmul_q(q.inverse()).scale(c)
    assert lat.contains_rmul(other, q) == lat.contains_lattice(other.rmul_q(q))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_scale_matches_full_hnf(alg103, data):
    # scale() keeps the HNF rows and only removes the content shared with
    # the new denominator; the reference runs the full HNF
    lat = data.draw(_lattices(alg103))
    c = data.draw(st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), 3,
                                   Fraction(-7, 9)]))
    c = Fraction(c)
    ref = Lattice4(alg103, [[v * c.numerator for v in r] for r in lat.mat], lat.den * c.denominator)
    out = lat.scale(c)
    assert (out.mat, out.den) == (ref.mat, ref.den)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lattice_product_matches_fresh_build(alg103, data):
    # every answer of Lattice4.mul must equal a fresh HNF of the 16 row
    # products, whichever products came before it
    lats = data.draw(st.lists(_lattices(alg103), min_size=3, max_size=4, unique=True))
    # the same rows over another denominator
    lats.append(Lattice4(alg103, lats[0].mat, lats[0].den * 7))
    pairs = [(x, y) for x in lats for y in lats]
    order = data.draw(st.permutations(pairs))
    for x, y in order + order:
        fresh = Lattice4(alg103, [qmul(r, s, 103) for r in x.mat for s in y.mat], x.den * y.den)
        out = x.mul(y)
        assert (out.mat, out.den) == (fresh.mat, fresh.den)


def _random_lattice(alg, rng, bound):
    """A full-rank lattice with entries in [-bound, bound] over a denominator in [2, 9]."""
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(4)] for _ in range(4)]
        if _det4(rows):
            return Lattice4(alg, rows, rng.randint(2, 9))


@pytest.mark.parametrize("p", [103, 503, 1019])
def test_closed_form_conjugate_matches_full_hnf(p):
    # the closed form size-reduces row 0 of the sign-flipped HNF; the
    # reference reduces the conjugated rows from scratch
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p)
    lats = [o0.lattice] + [random_left_ideal(o0, 3, 4, rng).lattice for _ in range(5)]
    lats += [_random_lattice(alg, rng, 10 ** rng.randint(1, 6)) for _ in range(2000)]
    for lat in lats:
        ref = Lattice4(alg, [[r[0], -r[1], -r[2], -r[3]] for r in lat.mat], lat.den)
        out = lat.conjugate()
        assert (out.mat, out.den) == (ref.mat, ref.den)
        assert out.conjugate() == lat


@pytest.mark.parametrize("p", [103, 503, 1019])
def test_products_by_rational_quaternions_are_scalings(p):
    alg = QuatAlgebra(p)
    rng = random.Random(p + 1)
    for _ in range(300):
        lat = _random_lattice(alg, rng, 50)
        q = alg.quaternion(Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 40)))
        for out, rows in ((lat.rmul_q(q), [qmul(r, q.num, p) for r in lat.mat]),
                          (lat.lmul_q(q), [qmul(q.num, r, p) for r in lat.mat])):
            ref = Lattice4(alg, rows, lat.den * q.den)
            assert (out.mat, out.den) == (ref.mat, ref.den)


@pytest.mark.parametrize("p", [103, 503, 1019])
def test_product_by_an_acting_order_matches_full_hnf(p):
    # 1 in a and a*b <= b give a*b = b with no HNF.  The pairs mix orders
    # that act (O0 on a left O0-ideal, O_R(I) on conj(I)) with orders that
    # hold 1 but do not act (O0 on a random lattice, O_R(I) on I from the left)
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p + 2)
    acting = 0
    for _ in range(8):
        ideal = random_left_ideal(o0, 3, 3, rng)
        o_r = ideal.right_order().lattice
        pairs = [(o0.lattice, ideal.lattice), (o_r, ideal.conjugate().lattice),
                 (o0.lattice, _random_lattice(alg, rng, 20)), (o_r, ideal.lattice)]
        for a, b in pairs:
            acting += b.contains_product(a, b)
            out = a.mul(b)
            ref = Lattice4(alg, [qmul(x, y, p) for x in a.mat for y in b.mat], a.den * b.den)
            assert (out.mat, out.den) == (ref.mat, ref.den)
    assert 16 <= acting < 32
