import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from quatisom import QuatAlgebra, Quaternion
from quatisom.quat import _strong_lucas, is_prime
from quatisom.serialization import quaternion_from_json, quaternion_to_json


def rand_quat(alg, rng, span=9, den=2):
    return alg.quaternion(*(Fraction(rng.randint(-span, span), rng.randint(1, den))
                            for _ in range(4)))


def test_algebra_validation():
    QuatAlgebra(103)
    QuatAlgebra(503)
    with pytest.raises(ValueError):
        QuatAlgebra(101)  # 1 mod 4
    with pytest.raises(ValueError):
        QuatAlgebra(111)  # 3 mod 4 but composite
    with pytest.raises(ValueError):
        QuatAlgebra(3)


def test_multiplication_table(alg103):
    one, i, j, k = alg103.gens()
    assert i * i == -one
    assert j * j == alg103.quaternion(-103)
    assert i * j == k
    assert j * i == -k
    assert k == i * j


def test_identity_and_bilinearity(alg103):
    rng = random.Random(1)
    one = alg103.one()
    for _ in range(50):
        x = rand_quat(alg103, rng)
        y = rand_quat(alg103, rng)
        z = rand_quat(alg103, rng)
        assert one * x == x
        assert x * one == x
        assert (x + y) * z == x * z + y * z
        assert z * (x + y) == z * x + z * y


def test_norm_multiplicative(alg103):
    rng = random.Random(2)
    for _ in range(100):
        x = rand_quat(alg103, rng)
        y = rand_quat(alg103, rng)
        assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()


def test_conjugation_properties(alg103):
    rng = random.Random(3)
    one, i, j, _ = alg103.gens()
    assert one.conjugate() == one
    assert (i + j).conjugate() == -i - j
    for _ in range(50):
        x = rand_quat(alg103, rng)
        y = rand_quat(alg103, rng)
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()
        assert x + x.conjugate() == alg103.quaternion(x.reduced_trace())
        assert x.reduced_trace() == 2 * x.coords()[0]


def test_norm_formula_paper_values(alg103):
    a = alg103.quaternion(6, 1, 1, -1)
    assert a.reduced_norm() == 243
    assert a * a.conjugate() == alg103.quaternion(243)
    nu1 = alg103.quaternion(Fraction(1075, 2), 1577, 244, Fraction(625, 2))
    assert nu1.reduced_norm() == 18966637
    assert alg103.one().reduced_norm() == 1


def test_norm_against_expanded_product(alg103):
    # independent oracle: expand x * conj(x) coordinate by coordinate
    rng = random.Random(4)
    p = 103
    for _ in range(50):
        x = rand_quat(alg103, rng)
        a0, a1, a2, a3 = x.coords()
        expanded = (a0 * a0 + a1 * a1 + p * (a2 * a2 + a3 * a3),
                    -a0 * a1 + a1 * a0 - p * a2 * a3 + p * a3 * a2,
                    -a0 * a2 + a2 * a0 + a1 * a3 - a3 * a1,
                    -a0 * a3 + a3 * a0 - a1 * a2 + a2 * a1)
        prod = x * x.conjugate()
        assert prod.coords() == expanded
        assert expanded[1] == expanded[2] == expanded[3] == 0
        assert x.reduced_norm() == expanded[0]


def test_inverse(alg103):
    rng = random.Random(5)
    for _ in range(30):
        x = rand_quat(alg103, rng)
        if x.is_zero():
            continue
        assert x * x.inverse() == alg103.one()
        assert x.inverse() * x == alg103.one()
        assert x * (x.conjugate() / x.reduced_norm()) == alg103.one()


def test_norm_positive_definite(alg103):
    rng = random.Random(6)
    for _ in range(50):
        x = rand_quat(alg103, rng)
        n = x.reduced_norm()
        assert n >= 0
        assert (n == 0) == x.is_zero()


def test_mismatched_algebras(alg103, alg503):
    with pytest.raises(ValueError):
        alg103.one() * alg503.one()
    with pytest.raises(ValueError):
        alg103.one() + alg503.one()


# Reference: the same algebra on four Fraction coordinates, computed
# coordinate by coordinate, independent of the integer form under test.

def _ref_mul(x, y, p):
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (x0 * y0 - x1 * y1 - p * (x2 * y2 + x3 * y3),
            x0 * y1 + x1 * y0 + p * (x2 * y3 - x3 * y2),
            x0 * y2 + x2 * y0 - x1 * y3 + x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1)


def _ref_nrd(x, p):
    return x[0] ** 2 + x[1] ** 2 + p * (x[2] ** 2 + x[3] ** 2)


def _ref_conj(x):
    return (x[0], -x[1], -x[2], -x[3])


def _ref_repr(x):
    terms = []
    for c, sym in zip(x, ("", "i", "j", "k")):
        if c == 0:
            continue
        s = str(c) if not sym else (sym if abs(c) == 1 else f"{abs(c)}*{sym}")
        if sym and c < 0:
            s = "-" + s
        terms.append(s if not terms or s.startswith("-") else "+" + s)
    return "".join(terms) if terms else "0"


_frac = st.fractions(min_value=-40, max_value=40, max_denominator=12)
_coords = st.tuples(_frac, _frac, _frac, _frac)
_scalar = st.one_of(st.integers(-30, 30), _frac)


def _canonical(q):
    return q.den > 0 and gcd(q.den, *q.num) == 1 and all(isinstance(v, int) for v in q.num)


@settings(max_examples=300, deadline=None)
@given(x=_coords, y=_coords, c=_scalar)
def test_integer_form_matches_fraction_reference(alg103, x, y, c):
    p = alg103.p
    qx, qy = alg103.quaternion(*x), alg103.quaternion(*y)
    assert qx.coords() == x and qy.coords() == y
    results = {
        "add": (qx + qy, tuple(a + b for a, b in zip(x, y))),
        "sub": (qx - qy, tuple(a - b for a, b in zip(x, y))),
        "neg": (-qx, tuple(-a for a in x)),
        "mul": (qx * qy, _ref_mul(x, y, p)),
        "conj": (qx.conjugate(), _ref_conj(x)),
        "scalar_mul": (qx * c, tuple(a * c for a in x)),
        "scalar_rmul": (c * qx, tuple(c * a for a in x)),
    }
    if c != 0:
        results["scalar_div"] = (qx / c, tuple(a / c for a in x))
    n = _ref_nrd(y, p)
    if n != 0:
        results["inverse"] = (qy.inverse(), tuple(a / n for a in _ref_conj(y)))
        results["div"] = (qx / qy, _ref_mul(x, tuple(a / n for a in _ref_conj(y)), p))
    for name, (got, ref) in results.items():
        assert got.coords() == ref, name
        assert _canonical(got), name
        assert got == alg103.quaternion(*ref), name
    assert qx.reduced_norm() == _ref_nrd(x, p)
    assert qx.reduced_trace() == 2 * x[0]
    assert all(isinstance(v, Fraction) for v in qx.coords())
    assert isinstance(qx.reduced_norm(), Fraction) and isinstance(qx.reduced_trace(), Fraction)
    assert qx.is_zero() == (x == (0, 0, 0, 0))
    assert repr(qx) == _ref_repr(x)
    text = quaternion_to_json(qx)
    assert text == [f"{a.numerator}/{a.denominator}" for a in x]
    back = quaternion_from_json(alg103, text)
    assert back == qx and (back.num, back.den) == (qx.num, qx.den)


def test_integer_form_is_canonical(alg103):
    a = Quaternion(alg103, (2, 4, 6, 8), 4)
    b = Quaternion(alg103, (1, 2, 3, 4), 2)
    assert a == b and hash(a) == hash(b)
    assert (a.num, a.den) == ((1, 2, 3, 4), 2)
    assert alg103.quaternion(Fraction(1, 2), 1, Fraction(3, 2), 2) == b
    for zero in (alg103.zero(), Quaternion(alg103, (0, 0, 0, 0), 7), b - b, 0 * b):
        assert (zero.num, zero.den) == ((0, 0, 0, 0), 1)
    neg = Quaternion(alg103, (1, 2, 3, 4), -6)
    assert (neg.num, neg.den) == ((-1, -2, -3, -4), 6)
    assert neg == alg103.quaternion(Fraction(-1, 6), Fraction(-1, 3), Fraction(-1, 2),
                                    Fraction(-2, 3))
    with pytest.raises(ZeroDivisionError):
        Quaternion(alg103, (1, 0, 0, 0), 0)
    with pytest.raises(ZeroDivisionError):
        b / 0
    with pytest.raises(ZeroDivisionError):
        alg103.zero().inverse()


def _sieve(n):
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for q in range(2, int(n ** 0.5) + 1):
        if flags[q]:
            flags[q * q::q] = bytearray(len(flags[q * q::q]))
    return flags


def test_is_prime_matches_a_sieve():
    flags = _sieve(30000)
    assert all(is_prime(n) == bool(flags[n]) for n in range(len(flags)))


def test_strong_lucas_pseudoprimes():
    # the strong Lucas pseudoprimes below 120000 (Selfridge's parameters,
    # OEIS A217255): the Lucas half of Baillie-PSW passes exactly these
    # composites, which Miller-Rabin to base 2 rejects
    flags = _sieve(120000)
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    passed = [n for n in range(41, len(flags), 2)
              if all(n % q for q in small) and _strong_lucas(n) != bool(flags[n])]
    assert passed == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
                      58519, 75077, 97439, 100127, 113573, 115639]
    assert not any(is_prime(n) for n in passed)


def test_is_prime_above_the_miller_rabin_bound():
    # psi_12 and psi_13 are strong pseudoprimes to every base up to 37, so
    # twelve Miller-Rabin rounds alone accept them
    psi12 = 318665857834031151167461
    psi13 = 3317044064679887385961981
    assert psi12 == 399165290221 * 798330580441 and psi13 % 1287836182261 == 0
    assert not is_prime(psi12) and not is_prime(psi13)
    for prime in (2 ** 61 - 1, 2 ** 127 - 1, 2 ** 128 + 51):
        assert is_prime(prime)
    assert QuatAlgebra(2 ** 128 + 51).p == 2 ** 128 + 51
