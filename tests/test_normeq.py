import random
from math import gcd, isqrt

import pytest

from quatisom import (QuatAlgebra, cornacchia, equivalent_power_norm_ideal,
                      random_left_ideal, represent_integer, standard_extremal_order)
from quatisom.normeq import _ideal_is_primitive, _sum_of_two_squares
from quatisom.orders import SamplingBudgetError


def brute_cornacchia(d, m):
    out = []
    x = 0
    while x * x <= m:
        rem = m - x * x
        if rem % d == 0:
            y = isqrt(rem // d)
            if y * y * d + x * x == m and gcd(x, y) == 1:
                out.append((x, y))
        x += 1
    return out


def test_cornacchia_examples():
    assert cornacchia(1, 2) == (1, 1)
    assert cornacchia(1, 243) is None  # 3 = 3 mod 4 to an odd power
    assert cornacchia(1, 625) == (7, 24)
    assert cornacchia(1, 1) == (1, 0)
    assert cornacchia(2, 2) == (0, 1)
    assert cornacchia(3, 7) == (2, 1)


def test_cornacchia_matches_brute_force_sample():
    for d in (1, 2, 3):
        for m in range(1, 3000):
            got = cornacchia(d, m)
            want = brute_cornacchia(d, m)
            assert (got is None) == (not want), (d, m, got, want)
            if got is not None:
                x, y = got
                assert x * x + d * y * y == m
                assert gcd(x, y) == 1


def test_cornacchia_prime_powers():
    # the primary use: d = 1, odd prime powers
    for m in (5 ** 6, 13 ** 4, 3 ** 7, 7 ** 5, 29 ** 3):
        got = cornacchia(1, m)
        want = brute_cornacchia(1, m)
        assert (got is None) == (not want)
        if got:
            assert got in want or (got[1], got[0]) in want


def test_represent_integer_examples(o0_103, alg103):
    rng = random.Random(51)
    assert represent_integer(o0_103, 1, rng) == alg103.one()
    a = represent_integer(o0_103, 243, rng)
    assert a.reduced_norm() == 243
    assert o0_103.lattice.contains(a)


def test_represent_integer_half_integer_below_p():
    # 343 = 7^3 < p is no sum of two squares, so only a half-integer element
    # such as (8 + 17i + j)/2 has this norm
    o0 = standard_extremal_order(QuatAlgebra(1019))
    a = represent_integer(o0, 343, random.Random(57))
    assert a.reduced_norm() == 343
    assert o0.lattice.contains(a)


def _norms_below_p_with_primitive_remainder(p):
    """Every n < p of an element (x + yi + cj + dk)/2 of O0 (x = d and
    y = c mod 2) whose remainder is primitive: gcd(x, y) = 1 when c or d is
    odd, gcd(x/2, y/2) = 1 for the integer elements (c = d = 0)."""
    out = set()
    cd_max = isqrt(4 * (p - 1) // p)
    for c in range(cd_max + 1):
        for d in range(cd_max + 1):
            for x in range(d % 2, isqrt(4 * p) + 1, 2):
                for y in range(c % 2, isqrt(4 * p) + 1, 2):
                    four_n = x * x + y * y + p * (c * c + d * d)
                    if four_n >= 4 * p:
                        continue
                    g = gcd(x, y) if c % 2 or d % 2 else gcd(x // 2, y // 2)
                    if g == 1:
                        out.add(four_n // 4)
    return sorted(out)


@pytest.mark.parametrize("p", [103, 503, 1019])
def test_represent_integer_every_norm_below_p(p):
    o0 = standard_extremal_order(QuatAlgebra(p))
    rng = random.Random(58)
    norms = _norms_below_p_with_primitive_remainder(p)
    for n in norms:
        a = represent_integer(o0, n, rng, budget=200)
        assert a.reduced_norm() == n, n
        assert o0.lattice.contains(a), n


def test_represent_integer_non_primitive_remainder(o0_103):
    # 9 = Nrd(3) is no primitive sum of two squares, and no half-integer
    # element of O0 has norm 9 < p
    a = represent_integer(o0_103, 9, random.Random(59), budget=200)
    assert a.reduced_norm() == 9
    assert o0_103.lattice.contains(a)


def _norms_below_p(p):
    """Every n < p that is the reduced norm of some (x + yi + cj + dk)/2 in
    O0 (x = d and y = c mod 2), by exhaustive search."""
    out = set()
    cd_max = isqrt(4 * (p - 1) // p)
    for c in range(cd_max + 1):
        for d in range(cd_max + 1):
            for x in range(d % 2, isqrt(4 * p) + 1, 2):
                for y in range(c % 2, isqrt(4 * p) + 1, 2):
                    four_n = x * x + y * y + p * (c * c + d * d)
                    if 0 < four_n < 4 * p:
                        out.add(four_n // 4)
    return sorted(out)


def test_sum_of_two_squares_takes_least_scale():
    # g*(x, y) for the least g with g^2 | m and m/g^2 a primitive sum
    for m in range(1, 3000):
        got = _sum_of_two_squares(m)
        want = None
        for g in range(1, isqrt(m) + 1):
            if m % (g * g) == 0 and brute_cornacchia(1, m // (g * g)):
                want = g
                break
        if want is None:
            assert got is None, m
        else:
            x, y = got
            assert x * x + y * y == m and gcd(x, y) == want, m
    # square divisors come from the factorization, not a scan up to sqrt(m)
    assert _sum_of_two_squares(3 ** 40) == (3 ** 20, 0)
    assert _sum_of_two_squares(3 ** 41) is None


def test_represent_integer_prefers_primitive_remainders(o0_103):
    # 81 = Nrd(9), but (14 + 5i + j)/2 has norm 81 too and lies outside 3*O0,
    # which the low-discriminant route needs for l = 3
    rng = random.Random(61)
    for _ in range(10):
        a = represent_integer(o0_103, 81, rng, budget=200)
        assert a.reduced_norm() == 81
        assert not o0_103.lattice.scale(3).contains(a)


@pytest.mark.parametrize("p", [103, 503])
def test_represent_integer_every_reduced_norm_below_p(p):
    o0 = standard_extremal_order(QuatAlgebra(p))
    rng = random.Random(60)
    norms = _norms_below_p(p)
    assert 9 in norms and 9 not in _norms_below_p_with_primitive_remainder(p)
    for n in norms:
        a = represent_integer(o0, n, rng, budget=200)
        assert a.reduced_norm() == n, n
        assert o0.lattice.contains(a), n


def test_represent_integer_random(o0_103):
    rng = random.Random(52)
    hits = 0
    for _ in range(40):
        n = rng.randint(103 ** 2, 103 ** 3)
        try:
            a = represent_integer(o0_103, n, rng, budget=4000)
        except SamplingBudgetError:
            continue
        hits += 1
        assert a.reduced_norm() == n
        assert o0_103.lattice.contains(a)
        assert a.reduced_trace().denominator == 1
    assert hits >= 30  # Las Vegas: the vast majority succeed at this size


def test_equivalent_power_norm_trivial(o0_103, alg103):
    ideal, beta = equivalent_power_norm_ideal(o0_103.one_ideal(), 5, random.Random(53))
    assert ideal.lattice == o0_103.lattice
    assert beta == alg103.one()


def test_equivalent_power_norm_invariants(o0_103):
    rng = random.Random(54)
    for seed in range(6):
        j = random_left_ideal(o0_103, 3, 4, rng)
        ideal, beta = equivalent_power_norm_ideal(j, 5, rng)
        n = ideal.nrd()
        while n % 5 == 0:
            n //= 5
        assert n == 1
        assert ideal.left_order() == o0_103
        assert _ideal_is_primitive(ideal, 5)
        # witness: beta in J, Nrd(beta) = Nrd(J) * l^e, I = J conj(beta)/Nrd(J)
        assert j.lattice.contains(beta)
        assert beta.reduced_norm() == j.nrd() * ideal.nrd()
        from fractions import Fraction
        assert ideal.lattice == j.lattice.rmul_q(beta.conjugate()).scale(Fraction(1, j.nrd()))
        # chi-identity: J * conj(beta) is an integral multiple of Nrd(J)
        chi = j.lattice.rmul_q(beta.conjugate())
        assert o0_103.lattice.scale(j.nrd()).contains_lattice(chi)
        # right orders conjugate through beta: O_R(I) = beta O_R(J) beta^-1
        o_r = ideal.right_order().lattice
        conj_or = j.right_order().lattice.lmul_q(beta).rmul_q(beta.inverse())
        assert o_r == conj_or


def test_equivalent_power_norm_force_rebuild(o0_103):
    rng = random.Random(55)
    j = random_left_ideal(o0_103, 3, 4, rng)  # norm 81 < p = 103
    ideal, beta = equivalent_power_norm_ideal(j, 3, rng, force_rebuild=True)
    assert ideal.nrd() > 103
    assert ideal.left_order() == o0_103
    assert j.lattice.contains(beta)


def test_equivalent_power_norm_rejects_bad_ell(o0_103):
    rng = random.Random(56)
    j = random_left_ideal(o0_103, 3, 3, rng)
    with pytest.raises(ValueError):
        equivalent_power_norm_ideal(j, 2, rng)
    with pytest.raises(ValueError):
        equivalent_power_norm_ideal(j, 103, rng)
