import random
from fractions import Fraction
from math import gcd

import pytest

from quatisom import (NotDivisibleError, QuatAlgebra, integer_ideal_divide, multiply_ideals,
                      principal_ideal, principal_ideal_divide, random_left_ideal,
                      standard_extremal_order)


def test_trivial_division(o0_103):
    j = integer_ideal_divide(o0_103, o0_103, o0_103.one_ideal(), 1)
    assert j.lattice == o0_103.lattice


def test_division_conjugate_oracle(o0_103):
    rng = random.Random(31)
    for _ in range(6):
        i = random_left_ideal(o0_103, 3, 4, rng)
        o2 = i.right_order()
        d = i.nrd()
        j = integer_ideal_divide(o0_103, o2, i, d)
        assert j.lattice == i.lattice.conjugate()
        assert i.nrd() * j.nrd() == d * d
        prod = multiply_ideals(i, j, check_compatible=False)
        assert prod.lattice == o0_103.lattice.scale(d)


def test_division_scaled(o0_103):
    rng = random.Random(32)
    i = random_left_ideal(o0_103, 5, 3, rng)
    o2 = i.right_order()
    d = 3 * i.nrd()
    j = integer_ideal_divide(o0_103, o2, i, d)
    assert j.lattice == i.lattice.conjugate().scale(3)
    assert i.nrd() * j.nrd() == d * d


def test_division_uniqueness(o0_103):
    rng = random.Random(33)
    i = random_left_ideal(o0_103, 3, 5, rng)
    o2 = i.right_order()
    a = integer_ideal_divide(o0_103, o2, i, i.nrd())
    b = integer_ideal_divide(o0_103, o2, i, i.nrd())
    assert a.lattice == b.lattice  # identical HNF on identical inputs


def test_division_not_divisible(o0_103):
    rng = random.Random(34)
    i = random_left_ideal(o0_103, 3, 4, rng)
    o2 = i.right_order()
    with pytest.raises(NotDivisibleError):
        integer_ideal_divide(o0_103, o2, i, 7)  # 7 coprime to Nrd(I): no J exists


def test_principal_division_identity(o0_103, alg103):
    one = alg103.one()
    j = principal_ideal_divide(o0_103, o0_103, one, o0_103.one_ideal())
    assert j.lattice == o0_103.lattice


def test_principal_division_alpha(o0_103, alg103):
    # I = O0*a, d = Nrd(a), O2 = a^-1 O0 a  ->  J = conj(a) * O0
    a = alg103.quaternion(6, 1, 1, -1)
    i = principal_ideal(o0_103, a)
    o2 = i.right_order()
    j = integer_ideal_divide(o0_103, o2, i, int(a.reduced_norm()))
    assert j.lattice == o0_103.lattice.lmul_q(a.conjugate())


def test_principal_division_element_oracle(o0_103):
    # for mu in I the unique J with O1*mu = I*J is conj(I)*mu / Nrd(I)
    rng = random.Random(35)
    for _ in range(6):
        i = random_left_ideal(o0_103, 3, 4, rng)
        o2 = i.right_order()
        mu = i.basis()[rng.randrange(4)]
        j = principal_ideal_divide(o0_103, o2, mu, i)
        expected = i.lattice.conjugate().rmul_q(mu).scale(Fraction(1, i.nrd()))
        assert j.lattice == expected
        prod = multiply_ideals(i, j, check_compatible=False)
        assert prod.lattice == o0_103.lattice.rmul_q(mu)
        assert i.nrd() * j.nrd() == mu.reduced_norm()


def test_division_at_503(o0_503):
    rng = random.Random(36)
    i = random_left_ideal(o0_503, 3, 4, rng)
    o2 = i.right_order()
    j = integer_ideal_divide(o0_503, o2, i, i.nrd())
    assert j.lattice == i.lattice.conjugate()


@pytest.mark.parametrize("p", [103, 503, 1019])
def test_closed_form_division_random_ideals(p):
    o0 = standard_extremal_order(QuatAlgebra(p))
    rng = random.Random(p)
    for ell, m in ((3, 2), (5, 2), (3, 4), (7, 1)):
        i = random_left_ideal(o0, ell, m, rng)
        o2, n = i.right_order(), i.nrd()
        for k in (1, 2, 5):
            j = integer_ideal_divide(o0, o2, i, k * n)
            assert j.lattice == i.lattice.conjugate().scale(k)
        for d in (2, 11, n + 1):
            assert gcd(d, n) == 1
            with pytest.raises(NotDivisibleError):
                integer_ideal_divide(o0, o2, i, d)
        coeffs = [rng.randrange(-5, 6) for _ in range(4)]
        if not any(coeffs):
            coeffs[0] = 1
        mu = sum((c * b for c, b in zip(coeffs[1:], i.basis()[1:])), coeffs[0] * i.basis()[0])
        j = principal_ideal_divide(o0, o2, mu, i)
        assert j.lattice == i.lattice.conjugate().rmul_q(mu).scale(Fraction(1, n))
        assert multiply_ideals(i, j, check_compatible=False).lattice == o0.lattice.rmul_q(mu)
