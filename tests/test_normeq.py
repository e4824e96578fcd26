import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from quatisom import (QuatAlgebra, cornacchia, equivalent_power_norm_ideal,
                      random_left_ideal, represent_integer, standard_extremal_order)
from quatisom import normeq, orders
from quatisom.localization import _hensel_sqrt
from quatisom.normeq import (_all_sqrts_mod, _factorize, _ideal_is_primitive, _small_elements,
                             _sqrt_mod_prime_power, _sum_of_two_squares)
from quatisom.orders import SamplingBudgetError
from quatisom.quat import _jacobi, is_prime
from quatisom.serialization import ideal_from_json


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


def _factorize_reference(n):
    """Plain trial division by every integer up to sqrt(n)."""
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division():
    # _factorize yields (q, e) lazily, q ascending
    for m in range(1, 20000):
        assert list(_factorize(m)) == sorted(_factorize_reference(m).items()), m
    for m in (3 ** 25, (2 ** 31 - 1) * (2 ** 13 - 1), 10 ** 12 + 39, 1000003 ** 2):
        assert list(_factorize(m)) == sorted(_factorize_reference(m).items()), m
    # the Mersenne prime 2^61 - 1, beyond the reach of the plain reference
    assert list(_factorize(2 ** 61 - 1)) == [(2 ** 61 - 1, 1)]


def test_square_roots_stop_at_the_first_prime_power_without_one(monkeypatch):
    # -1 is no square mod 3, so the rest of m is never factored: no
    # primality test, no trial division up to 1000003
    tests = []
    prime_test = normeq.is_prime
    monkeypatch.setattr(normeq, "is_prime", lambda n: tests.append(n) or prime_test(n))
    m = 3 * 1000003 * 1000033
    assert _all_sqrts_mod(-1, m) == [] and cornacchia(1, m) is None
    assert tests == []
    # a prime power with roots is merged and the next one is factored
    assert _all_sqrts_mod(-1, 5 * 1000003) == []
    assert tests


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


def _roots_by_square(mod):
    """Every square root mod `mod`, by enumeration: residue -> sorted roots."""
    roots = {}
    for x in range(mod):
        roots.setdefault(x * x % mod, []).append(x)
    return roots


def test_sqrt_mod_prime_power_matches_brute_force():
    # every residue, non-units included, for q = 2 and odd q alike
    for q in (2, 3, 5, 7, 11):
        e = 1
        while q ** e <= 3000:
            mod = q ** e
            roots = _roots_by_square(mod)
            for a in range(mod):
                assert _sqrt_mod_prime_power(a, q, e) == roots.get(a, []), (a, q, e)
            e += 1


def test_all_sqrts_mod_matches_brute_force():
    for m in range(1, 2000):
        roots = _roots_by_square(m)
        for a in (-3, -2, -1, 0, 1, 4, 7, 12):
            assert _all_sqrts_mod(a, m) == roots.get(a % m, []), (a, m)


def _legendre(a, n):
    """Euler's criterion for an odd prime n."""
    a %= n
    if a == 0:
        return 0
    return 1 if pow(a, (n - 1) // 2, n) == 1 else -1


def test_jacobi_is_the_legendre_symbol_mod_primes():
    for n in range(3, 2000, 2):
        if is_prime(n):
            for a in range(-1, n + 1):
                assert _jacobi(a, n) == _legendre(a, n), (a, n)


def test_hensel_sqrt_is_the_unique_lift():
    for ell in (3, 5, 7):
        for e in range(1, 7):
            mod = ell ** e
            for x in range(mod):
                if x % ell:
                    a = x * x % mod
                    # the root = x mod l is unique mod l^e, so the lift is x itself
                    assert _hensel_sqrt(a, ell, e, x % ell) == x, (x, ell, e)


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


@pytest.mark.parametrize("p", [103, 503])
def test_represent_integer_fails_fast_below_p(p):
    # below p no element of any other norm exists: fail before any draw
    o0 = standard_extremal_order(QuatAlgebra(p))
    norms = set(_norms_below_p(p))
    rng = random.Random(62)
    state = rng.getstate()
    missing = [n for n in range(1, p) if n not in norms]
    assert missing
    for n in missing:
        with pytest.raises(SamplingBudgetError):
            represent_integer(o0, n, rng)
        assert rng.getstate() == state, n


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


def _assert_power_norm_witness(j, ideal, beta, ell, o0):
    n = ideal.nrd()
    while n % ell == 0:
        n //= ell
    assert n == 1
    assert ideal.left_order() == o0
    assert _ideal_is_primitive(ideal, ell)
    # witness: beta in J, Nrd(beta) = Nrd(J) * l^e, I = J conj(beta)/Nrd(J)
    assert j.lattice.contains(beta)
    assert beta.reduced_norm() == j.nrd() * ideal.nrd()
    assert ideal.lattice == j.lattice.rmul_q(beta.conjugate()).scale(Fraction(1, j.nrd()))
    # chi-identity: J * conj(beta) is an integral multiple of Nrd(J)
    chi = j.lattice.rmul_q(beta.conjugate())
    assert o0.lattice.scale(j.nrd()).contains_lattice(chi)
    # right orders conjugate through beta: O_R(I) = beta O_R(J) beta^-1
    o_r = ideal.right_order().lattice
    conj_or = j.right_order().lattice.lmul_q(beta).rmul_q(beta.inverse())
    assert o_r == conj_or


def test_equivalent_power_norm_invariants(o0_103):
    rng = random.Random(54)
    for seed in range(6):
        j = random_left_ideal(o0_103, 3, 4, rng)
        ideal, beta = equivalent_power_norm_ideal(j, 5, rng)
        _assert_power_norm_witness(j, ideal, beta, 5, o0_103)


@pytest.mark.parametrize("p", [103, 503])
def test_klpt_reduces_only_its_output(monkeypatch, p):
    # J' = I*conj(delta)/Nrd(I) is read through I and never built, and the
    # witness is checked by containment and covolume: a successful call
    # makes exactly one HNF reduction, the 4-row product that is its output
    o0 = standard_extremal_order(QuatAlgebra(p))
    rng = random.Random(p)
    ideals = [(random_left_ideal(o0, 3, 4, rng), 5) for _ in range(4)]
    ideals += [(random_left_ideal(o0, 5, 3, rng), 7) for _ in range(4)]
    reductions = []
    hnf_rows = orders.hnf_rows
    monkeypatch.setattr(orders, "hnf_rows", lambda m: reductions.append(len(m)) or hnf_rows(m))
    for ideal, ell in ideals:
        reductions.clear()
        out, beta = equivalent_power_norm_ideal(ideal, ell, rng)
        assert reductions == [4], reductions
        _assert_power_norm_witness(ideal, out, beta, ell, o0)


def test_klpt_rounds_take_distinct_prime_norms(o0_103, monkeypatch):
    j = random_left_ideal(o0_103, 3, 4, random.Random(63))
    avoid = (2, 103, 5)
    # the first prime N of one sweep over small elements, taken in every
    # round before each round took its own N
    first = next(n for delta in _small_elements(j)
                 for n in [int(delta.reduced_norm()) // j.nrd()]
                 if n > 2 and n not in avoid and is_prime(n))
    seen = []

    def fail(ideal, ell, rng, delta, n):
        # J' = I*conj(delta)/Nrd(I) has norm N
        assert delta.reduced_norm() == n * ideal.nrd()
        seen.append(n)
        raise SamplingBudgetError("patched round failure")

    monkeypatch.setattr(normeq, "_klpt_special", fail)
    with pytest.raises(SamplingBudgetError):
        equivalent_power_norm_ideal(j, 5, random.Random(64))
    assert len(seen) == 8 and len(set(seen)) == 8
    assert seen[0] == first
    assert all(is_prime(n) and n not in avoid for n in seen)


# The left O0-ideal that isomorphism_E0 hands to the low-discriminant route
# (l = 7) in the large-p benchmark, seed 1, operation 2, at p = 2^32 + 15.
# Its first two prime norms N = 175709 and 139999 meet the quadratic
# character obstruction for every gamma; while every round took the first N,
# all rounds failed on it.
OBSTRUCTED_IDEAL = {
    "p": "4294967311",
    "denominator": "2",
    "nrd": "468966522801494445606976549547603182188648673900388530455529689788818359375",
    "basis": [
        ["1", "0", "29083102500780188287277594582635353077202622144155774257268395699003923928", "408381923666347699452212919198988382570412603654489507148285791863417412695"],
        ["0", "1", "529551121936641191761740179896217981806884744146287553762773587714219306055", "29083102500780188287277594582635353077202622144155774257268395699003923928"],
        ["0", "0", "937933045602988891213953099095206364377297347800777060911059379577636718750", "0"],
        ["0", "0", "0", "937933045602988891213953099095206364377297347800777060911059379577636718750"],
    ],
}


def test_klpt_moves_past_an_obstructed_prime(monkeypatch):
    j = ideal_from_json(OBSTRUCTED_IDEAL)
    o0 = standard_extremal_order(j.alg)
    rounds = []
    klpt = normeq._klpt_special

    def record(*args):
        try:
            out = klpt(*args)
        except SamplingBudgetError as err:
            rounds.append((args[4], str(err)))
            raise
        rounds.append((args[4], "ok"))
        return out

    monkeypatch.setattr(normeq, "_klpt_special", record)
    for seed in range(5):
        rounds.clear()
        ideal, beta = equivalent_power_norm_ideal(j, 7, random.Random(seed))
        assert [n for n, _ in rounds[:2]] == [175709, 139999], seed
        assert all("quadratic character obstruction" in why for _, why in rounds[:2])
        assert rounds[-1][1] == "ok" and len({n for n, _ in rounds}) == len(rounds)
        _assert_power_norm_witness(j, ideal, beta, 7, o0)


def _disk_remainders(p, n, c, d, t):
    """Brute force: (t - p(X^2+Y^2))/N^2 for every integer (z, w) with
    X = N*z + lambda*C, Y = N*w - lambda*D, a non-negative remainder and
    N^2 dividing it, for the least lambda in [1, N) with lambda^2*p(C^2+D^2)
    = t mod N (the other root gives the points negated)."""
    lam = next((x for x in range(1, n) if (x * x * p * (c * c + d * d) - t) % n == 0), None)
    if lam is None:
        return []
    reach = isqrt(t // p) // n + 2
    out = []
    for z in range(-reach - abs(c), reach + abs(c) + 1):
        for w in range(-reach - abs(d), reach + abs(d) + 1):
            num = t - p * ((n * z + lam * c) ** 2 + (n * w - lam * d) ** 2)
            if num >= 0 and num % (n * n) == 0:
                out.append(num // (n * n))
    return sorted(out)


def _gauss_reduce_2d_reference(b1, b2):
    """`_gauss_reduce_2d` with each step's mu taken as round(Fraction(...))."""
    def norm(v):
        return v[0] * v[0] + v[1] * v[1]

    if norm(b1) > norm(b2):
        b1, b2 = b2, b1
    while True:
        n1 = norm(b1)
        mu = round(Fraction(b1[0] * b2[0] + b1[1] * b2[1], n1))
        b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])
        if norm(b2) >= n1:
            return b1, b2
        b1, b2 = b2, b1


def test_gauss_reduce_2d_matches_fraction_rounding():
    rng = random.Random(5)
    cases = []
    for bits in (6, 20, 70):
        for _ in range(1000):
            b1, b2 = [tuple(rng.randint(-2 ** bits, 2 ** bits) for _ in range(2)) for _ in range(2)]
            if any(b1) and any(b2):
                cases.append((b1, b2))
    # exact half ties on the first step: <b1, b2>/Nrd(b1) = k + 1/2, both parities of k
    ties = [((2 * t, 0), ((2 * k + 1) * t, y)) for t in (1, 3, 10) for k in range(-7, 8)
            for y in (-41 * t, 41 * t)]
    assert all(Fraction(b1[0] * b2[0], b1[0] ** 2).denominator == 2 for b1, b2 in ties)
    for b1, b2 in cases + ties:
        assert normeq._gauss_reduce_2d(b1, b2) == _gauss_reduce_2d_reference(b1, b2)


def test_strong_approximation_walks_the_whole_disk(monkeypatch):
    rng = random.Random(71)
    outcomes = []
    for p in (103, 503, 1019, 2 ** 32 + 15):
        alg = QuatAlgebra(p)
        for k in range(12):
            ell = (3, 5, 7)[k % 3]
            n = rng.choice([q for q in range(3, 24) if is_prime(q) and q != ell])
            while True:
                c = 0 if k % 4 == 0 else rng.randrange(-2 * n, 2 * n)
                d = rng.randrange(-2 * n, 2 * n)
                if p * (c * c + d * d) % n:
                    break
            e = 1
            while ell ** e <= 8 * p * n ** 3:
                e += 1
            if pow(ell ** e * pow(p * (c * c + d * d), -1, n), (n - 1) // 2, n) != 1:
                e += 1  # the parity KLPT takes; no parity helps when only R is a non-residue
            t = ell ** (e - 2 * rng.randrange(3))  # KLPT's disk, and two smaller ones
            expected = _disk_remainders(p, n, c, d, t)

            seen = []
            monkeypatch.setattr(normeq, "_two_squares", lambda r: seen.append(r))
            assert normeq._strong_approximation(alg, p, n, c, d, t) is None
            assert sorted(seen) == expected, (p, n, c, d, t)
            monkeypatch.undo()

            mu = normeq._strong_approximation(alg, p, n, c, d, t)
            solvable = [r for r in expected if normeq._two_squares(r) is not None]
            if mu is None:
                assert not solvable, (p, n, c, d, t)
                outcomes.append("miss" if expected else "empty")
                continue
            assert mu.reduced_norm() == t and mu.den == 1
            x, y, zc, wc = mu.num
            assert x % n == 0 and y % n == 0
            assert any((zc - s * c) % n == 0 and (wc + s * d) % n == 0 for s in range(1, n))
            outcomes.append("found")
    assert {"found", "miss", "empty"} <= set(outcomes)


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
