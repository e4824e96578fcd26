import random
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest

from quatisom import QuatAlgebra, random_left_ideal, standard_extremal_order
from quatisom.linalg import (enumerate_up_to, gram_of, hnf, hnf_rows, is_odd_prime_power,
                             lll_reduce, shortest_vector, snf_mod, solve_integer,
                             vectors_of_value)
from quatisom.orders import nrd_gram


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum((-1) ** c * m[0][c] * det([row[:c] + row[c + 1:] for row in m[1:]])
               for c in range(n))


def in_row_span(vec, rows):
    """Exact membership of vec in the integer row span of rows."""
    if not rows:
        return not any(vec)
    sol = solve_integer([[rows[r][c] for r in range(len(rows))] for c in range(len(rows[0]))], list(vec))
    return sol.has_solution


def test_hnf_examples():
    h, u = hnf([[1, 0], [0, 1]])
    assert h == [[1, 0], [0, 1]]
    h, u = hnf([[0, 1], [1, 0]])
    assert h == [[1, 0], [0, 1]]
    assert abs(det(u)) == 1


def test_hnf_shape_and_span():
    rng = random.Random(10)
    for _ in range(60):
        m = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(rng.choice((2, 4, 6)))]
        if not any(any(row) for row in m):
            continue
        h, u = hnf(m)
        assert mat_mul(u, m) == h
        assert abs(det(u)) == 1
        # membership oracle both directions
        for row in m:
            assert in_row_span(row, [r for r in h if any(r)])
        for row in h:
            if any(row):
                assert in_row_span(row, m)
        # pivots positive, entries above pivot reduced
        piv_cols = []
        for row in h:
            if any(row):
                c = next(i for i, v in enumerate(row) if v)
                assert row[c] > 0
                piv_cols.append((c, row[c]))
        for idx, (c, piv) in enumerate(piv_cols):
            for r in range(idx):
                assert 0 <= h[r][c] < piv


def test_hnf_idempotent():
    rng = random.Random(11)
    for _ in range(40):
        m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        if not any(any(r) for r in m):
            continue
        h, _ = hnf(m)
        h2, _ = hnf(h)
        assert h2 == h


def test_solve_integer_examples():
    sol = solve_integer([[1, 0], [0, 1]])
    assert sol.kernel == []
    sol = solve_integer([[1, -1]])
    assert len(sol.kernel) == 1
    assert sorted(map(abs, sol.kernel[0])) == [1, 1]
    sol = solve_integer([[2, 0], [0, 2]], [2, 4])
    assert sol.particular == [1, 2]
    sol = solve_integer([[2]], [3])
    assert not sol.has_solution


def test_solve_integer_random():
    rng = random.Random(12)
    for _ in range(60):
        rows, cols = rng.choice(((2, 4), (3, 5), (4, 4)))
        a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randint(-5, 5) for _ in range(cols)]
        b = [sum(a[r][c] * x[c] for c in range(cols)) for r in range(rows)]
        sol = solve_integer(a, b)
        assert sol.has_solution
        got = sol.particular
        assert [sum(a[r][c] * got[c] for c in range(cols)) for r in range(rows)] == b
        for vec in sol.kernel:
            assert all(sum(a[r][c] * vec[c] for c in range(cols)) == 0 for r in range(rows))


def test_snf_mod_examples():
    s, d, t = snf_mod([[1, 0], [0, 9]], 27)
    assert d == [[1, 0], [0, 9]]
    s, d, t = snf_mod([[9, 0], [0, 9]], 243)
    assert d == [[9, 0], [0, 9]]
    with pytest.raises(ValueError):
        snf_mod([[1, 0], [0, 1]], 8)
    with pytest.raises(ValueError):
        snf_mod([[1, 0], [0, 1]], 15)


def test_snf_mod_random():
    rng = random.Random(13)
    mod = 3 ** 5
    for _ in range(120):
        m = [[rng.randrange(mod) for _ in range(2)] for _ in range(2)]
        s, d, t = snf_mod(m, mod)
        prod = mat_mul(mat_mul(s, m), t)
        assert [[v % mod for v in row] for row in prod] == [[v % mod for v in row] for row in d]
        assert det(s) % 3 != 0 and det(t) % 3 != 0
        # diagonal, l-power entries, divisibility chain of valuations
        assert d[0][1] == 0 and d[1][0] == 0
        vals = []
        for entry in (d[0][0], d[1][1]):
            v = 5
            if entry:
                v = 0
                e = entry
                while e % 3 == 0:
                    e //= 3
                    v += 1
                assert e == 1
            vals.append(v)
        assert vals[0] <= vals[1]


def test_is_odd_prime_power():
    assert is_odd_prime_power(3) == (True, 3, 1)
    assert is_odd_prime_power(243) == (True, 3, 5)
    assert is_odd_prime_power(125) == (True, 5, 3)
    assert is_odd_prime_power(15)[0] is False
    assert is_odd_prime_power(8)[0] is False


def test_shortest_vector_examples():
    gram = nrd_gram(103)
    # the standard order contains 1, of norm 1
    o0 = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]]
    coeffs, vec, val = shortest_vector(o0, gram)
    assert val == 4  # scaled by the denominator 2 squared: Nrd = 1
    # 5 Z^4 has minimal norm 25
    five = [[5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 5]]
    _, _, val = shortest_vector(five, gram)
    assert val == 25
    with pytest.raises(ValueError):
        shortest_vector([[1, 0, 0, 0], [2, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], gram)


def test_shortest_vector_membership_and_bound():
    # the returned vector must lie in the lattice, realize the reported value,
    # and beat every vector in a brute-force coefficient box
    rng = random.Random(14)
    gram = nrd_gram(103)
    for _ in range(20):
        basis = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        if len(hnf_rows(basis)) != 4:
            continue
        coeffs, vec, val = shortest_vector(basis, gram)
        assert [sum(coeffs[t] * basis[t][c] for t in range(4)) for c in range(4)] == vec
        got = vec[0] ** 2 + vec[1] ** 2 + 103 * (vec[2] ** 2 + vec[3] ** 2)
        assert got == val
        for a in range(-4, 5):
            for b in range(-4, 5):
                for c in range(-4, 5):
                    for d in range(-4, 5):
                        if a == b == c == d == 0:
                            continue
                        v = [a * basis[0][t] + b * basis[1][t] + c * basis[2][t] + d * basis[3][t]
                             for t in range(4)]
                        n = v[0] ** 2 + v[1] ** 2 + 103 * (v[2] ** 2 + v[3] ** 2)
                        assert val <= n
        # value never exceeds any input basis vector's value
        for row in basis:
            assert val <= row[0] ** 2 + row[1] ** 2 + 103 * (row[2] ** 2 + row[3] ** 2)


def test_shortest_vector_deterministic_tiebreak():
    gram = nrd_gram(103)
    basis = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    coeffs, vec, val = shortest_vector(basis, gram)
    assert val == 1
    # among the minima +-1, +-i the lexicographically smallest coefficient
    # vector with positive first nonzero coordinate is (0, 1, 0, 0)
    assert coeffs == [0, 1, 0, 0]
    again = shortest_vector(basis, gram)
    assert again[0] == coeffs


def test_enumerate_up_to_counts():
    gram = nrd_gram(103)
    basis = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    red, _ = lll_reduce(basis, gram)
    found = enumerate_up_to(red, gram, Fraction(2))
    values = sorted(v for _, v in found)
    # up to sign: 1, i, 1+i, 1-i -> values 1, 1, 2, 2
    assert values == [1, 1, 2, 2]


@pytest.mark.parametrize("p", [103, 503])
def test_integer_gram_matches_fraction_reference(p):
    rng = random.Random(p)
    form = nrd_gram(p)
    assert all(type(v) is int for row in form for v in row)
    frac_form = [[Fraction(v) for v in row] for row in form]
    for _ in range(10):
        basis = [[rng.randint(-50, 50) for _ in range(4)] for _ in range(4)]
        got = gram_of(basis, form)
        assert all(type(v) is int for row in got for v in row)
        assert got == gram_of(basis, frac_form)
        if len(hnf_rows(basis)) == 4:
            # exact Fraction values from an integer form and the same answers
            # as from the Fraction form
            found = enumerate_up_to(basis, form, 200 * p)
            assert all(type(v) is Fraction for _, v in found)
            assert found == enumerate_up_to(basis, frac_form, Fraction(200 * p))
            assert shortest_vector(basis, form) == shortest_vector(basis, frac_form)


def test_min_nonzero_norm_is_a_fraction(o0_103):
    rng = random.Random(15)
    for lat in (o0_103.lattice, random_left_ideal(o0_103, 3, 3, rng).lattice,
                o0_103.lattice.scale(Fraction(1, 3))):
        _, val = lat.min_nonzero_norm()
        assert type(val) is Fraction
    assert val == Fraction(1, 9)


def _inverse_diagonal(g):
    """Diagonal of g^-1 for a positive definite rational Gram matrix g."""
    n = len(g)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(g)]
    for c in range(n):
        piv = aug[c][c]
        aug[c] = [v / piv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [aug[i][n + i] for i in range(n)]


def _box_reference(basis, form, bound):
    """Brute-force enumerate_up_to: every coefficient vector in the box
    |x_j| <= sqrt(bound * (G^-1)_jj), which holds every vector of value <= bound,
    in the enumeration's order (x_{n-1} outermost, each coordinate ascending)."""
    g = gram_of(basis, form)
    n = len(basis)
    radius = [isqrt(int(bound * v)) + 1 for v in _inverse_diagonal(g)]
    out = []
    for rev in product(*(range(-r, r + 1) for r in reversed(radius))):
        x = list(reversed(rev))
        if not any(x) or x[max(i for i in range(n) if x[i])] < 0:
            continue
        val = sum(x[i] * g[i][j] * x[j] for i in range(n) for j in range(n))
        if val <= bound:
            out.append((x, Fraction(val)))
    return out


@pytest.mark.parametrize("p", [103, 503])
def test_integer_enumeration_matches_box_reference(p):
    rng = random.Random(p + 1)
    o0 = standard_extremal_order(QuatAlgebra(p))
    # an integer diagonal form, a rational one, and a rational non-diagonal one
    forms = [nrd_gram(p), [[Fraction(v, 6) for v in row] for row in nrd_gram(p)],
             [[Fraction(2, 3), Fraction(1, 3), 0, 0], [Fraction(1, 3), 1, 0, 0],
              [0, 0, p, 1], [0, 0, 1, p]]]
    for _ in range(4):
        lat = random_left_ideal(o0, rng.choice([3, 5]), rng.randint(1, 3), rng).lattice
        for form in forms:
            red, _ = lll_reduce([list(r) for r in lat.mat], form)
            _, _, least = shortest_vector(red, form)
            for bound in (least - Fraction(1, 5), least, 2 * least + Fraction(1, 3)):
                found = enumerate_up_to(red, form, bound)
                assert found == _box_reference(red, form, bound)
                assert all(type(v) is Fraction for _, v in found)
                if bound < least:
                    assert found == []
                else:
                    # a bound equal to an attained value includes that vector
                    assert any(v == least for _, v in found)
            assert sorted(map(tuple, vectors_of_value(red, form, least))) == sorted(
                tuple(s * sum(c * r[t] for c, r in zip(x, red)) for t in range(4))
                for x, v in _box_reference(red, form, least) if v == least for s in (1, -1))


def test_enumeration_rejects_rank_deficient_basis():
    gram = nrd_gram(103)
    flat = [[1, 0, 0, 0], [2, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError):
        enumerate_up_to(flat, gram, Fraction(500))
    with pytest.raises(ValueError):
        vectors_of_value(flat, gram, Fraction(1))


@pytest.mark.parametrize("basis, form, reduced, transform", [
    # an ideal of norm 3^5 in O0 at p = 503 (HNF rows over the denominator 2)
    ([[1, 0, 294, 197], [0, 1, 289, 294], [0, 0, 486, 0], [0, 0, 0, 486]], nrd_gram(503),
     [[19, -21, 3, -1], [-21, -19, -1, -3], [-34, 117, 3, -2], [-117, -34, 2, 3]],
     [[19, -21, 1, 5], [-21, -19, 24, 20], [-34, 117, -49, -57], [-117, -34, 91, 68]]),
    # a skewed basis under a rational non-diagonal form
    ([[1, 1000, 3, 7], [0, 1, 999, 5], [4, 0, 1, 998], [1, 2, 3, 5]],
     [[Fraction(2, 3), Fraction(1, 3), 0, 0], [Fraction(1, 3), 1, 0, 0], [0, 0, 5, 1],
      [0, 0, 1, 2]],
     [[1, 2, 3, 5], [-361, 261, -106, 158], [266, -459, -190, 345], [610, 244, -135, 104]],
     [[0, 0, 0, 1], [1, 1, 2, -370], [-1, -1, -1, 271], [-1, -2, -3, 623]]),
])
def test_lll_reduce_output_is_pinned(basis, form, reduced, transform):
    # the swap and size-reduction rule fixes the reduced basis, and with it
    # the order of units() and so the certificates
    assert lll_reduce(basis, form) == (reduced, transform)
    assert mat_mul(transform, basis) == reduced
