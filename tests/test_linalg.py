import random
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from quatisom import (QuatAlgebra, isomorphism_E0, low_discriminant_isomorphism,
                      node_from_ideal, random_left_ideal, standard_extremal_order)
from quatisom import linalg, orders
from quatisom.linalg import (_form_dot, _lll, enumerate_up_to, hnf, hnf_rows, identity_matrix,
                             lll_reduce, shortest_vector, snf_prime_power, solve_integer)
from quatisom.orders import nrd_gram


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def gram_of(basis, form):
    """Gram matrix basis * form * basis^T, exact; integer for an integer form."""
    n = len(basis)
    d = len(form)
    fb = []
    for row in basis:
        fb.append([sum(row[t] * form[t][j] for t in range(d)) for j in range(d)])
    return [[sum(fb[i][t] * basis[j][t] for t in range(d)) for j in range(n)] for i in range(n)]


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


def _xgcd(a, b):
    """(g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _reference_echelon(mat):
    """The pairwise extended-gcd elimination on every column (Cohen, Alg. 2.4.5),
    kept as the oracle for `linalg._echelon`."""
    h = [row[:] for row in mat]
    nrows, ncols = len(h), len(h[0])
    piv_row = 0
    for col in range(ncols):
        if piv_row >= nrows:
            break
        pivot = next((r for r in range(piv_row, nrows) if h[r][col] != 0), None)
        if pivot is None:
            continue
        h[piv_row], h[pivot] = h[pivot], h[piv_row]
        for r in range(piv_row + 1, nrows):
            while h[r][col] != 0:
                a, b = h[piv_row][col], h[r][col]
                g, x, y = _xgcd(a, b)
                bp, ap = b // g, a // g
                hp, hr = h[piv_row], h[r]
                for c in range(ncols):
                    hp[c], hr[c] = x * hp[c] + y * hr[c], -bp * hp[c] + ap * hr[c]
        if h[piv_row][col] < 0:
            h[piv_row] = [-v for v in h[piv_row]]
        piv = h[piv_row][col]
        for r in range(piv_row):
            q = h[r][col] // piv
            if q:
                h[r] = [hv - q * pv for hv, pv in zip(h[r], h[piv_row])]
        piv_row += 1
    return h


@st.composite
def hnf_inputs(draw):
    """2-16 rows by 2-4 columns of rank 0..ncols, some rows zero; entries of up
    to 200 bits, or up to 2000 bits on at most 4 rows."""
    nrows, ncols = draw(st.integers(2, 16)), draw(st.integers(2, 4))
    bits = draw(st.integers(3, 2000 if nrows <= 4 else 200))
    entry = st.integers(-(1 << bits), 1 << bits)
    rank = draw(st.integers(0, ncols))
    base = [[draw(entry) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        if rank == ncols:
            rows.append([draw(entry) for _ in range(ncols)])
        else:  # rank-deficient: a small combination of the base rows
            coeffs = [draw(st.integers(-3, 3)) for _ in base]
            rows.append([sum(k * b[c] for k, b in zip(coeffs, base)) for c in range(ncols)])
    for r in draw(st.sets(st.integers(0, nrows - 1), max_size=nrows // 2)):
        rows[r] = [0] * ncols
    return rows


@settings(max_examples=300, deadline=None)
@given(mat=hnf_inputs())
def test_hnf_matches_reference_elimination(mat):
    nrows, ncols = len(mat), len(mat[0])
    ref_h = _reference_echelon(mat)
    assert hnf_rows(mat) == [row for row in ref_h if any(row)]
    h, u = hnf(mat)
    assert mat_mul(u, mat) == h
    assert _reference_echelon(u) == identity_matrix(nrows)  # U is unimodular
    # [mat | I] has full row rank, so its echelon form, U included, is unique
    eye = identity_matrix(nrows)
    ref_full = _reference_echelon([row + eye[r] for r, row in enumerate(mat)])
    assert (h, u) == ([row[:ncols] for row in ref_full], [row[ncols:] for row in ref_full])


def test_hnf_of_ideal_product_at_61_bits():
    """The 16 basis-row products of conj(I)*J, I and J left O0-ideals of norms
    3^4 and 5^3 at p = 2^61 + 15 (random_left_ideal with Random(61)), as
    Lattice4.mul hands them to hnf_rows."""
    rows = [
        [-8483196430897180104592, -6244222868950683262634, 262, -64],
        [-31742234864835711149722, 21013147342964393121276, 396, -202],
        [-33550015784059247219850, 16486777515877911864050, 50, 150],
        [-42081634918149914897750, 41505174165846491406000, 0, 250],
        [-8859048841399012221216, -7952852538778030492182, 246, -12],
        [-38007210320869317658066, 20162291272564540047448, 292, -334],
        [-39545207608014851534050, 14872687409428326087150, -150, 50],
        [-51881467707308114257500, 42081634918149914897750, -250, 0],
        [-16436048969675210596776, 2614825972448328958578, 162, -324],
        [-11579943592271171102274, 59020357663833710779332, 0, -810],
        [-18677328374630921132700, 56031985123892763398100, 0, 0],
        [0, 93386641873154605663500, 0, 0],
        [-2614825972448328958578, -16436048969675210596776, 324, 162],
        [-59020357663833710779332, -11579943592271171102274, 810, 0],
        [-56031985123892763398100, -18677328374630921132700, 0, 0],
        [-93386641873154605663500, 0, 0, 0],
    ]
    expected = [[2, 4, 7888, 38414], [0, 10, 6562, 3816], [0, 0, 8100, 24300],
                [0, 0, 0, 40500]]
    assert hnf_rows(rows) == expected
    assert [row for row in _reference_echelon(rows) if any(row)] == expected


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
    s, d, t = snf_prime_power([[1, 0], [0, 9]], 3, 3)
    assert d == [[1, 0], [0, 9]]
    s, d, t = snf_prime_power([[9, 0], [0, 9]], 3, 5)
    assert d == [[9, 0], [0, 9]]
    with pytest.raises(ValueError):
        snf_prime_power([[1, 0], [0, 1]], 2, 3)
    with pytest.raises(ValueError):
        snf_prime_power([[1, 0], [0, 1]], 15, 1)


def test_snf_mod_random():
    rng = random.Random(13)
    mod = 3 ** 5
    for _ in range(120):
        m = [[rng.randrange(mod) for _ in range(2)] for _ in range(2)]
        s, d, t = snf_prime_power(m, 3, 5)
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


def test_enumeration_rejects_rank_deficient_basis():
    gram = nrd_gram(103)
    flat = [[1, 0, 0, 0], [2, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError):
        enumerate_up_to(flat, gram, Fraction(500))


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
    # the order in which KLPT's _small_elements sweeps an ideal, and so the
    # certificates
    assert lll_reduce(basis, form) == (reduced, transform)
    assert mat_mul(transform, basis) == reduced


def _gs_row_oracle(b, k, d, lam, dot):
    """Integral Gram-Schmidt data of row k (Cohen, GTM 138, Alg. 2.6.7): the
    Gram determinants d[k+1] and lam[k][j] = d[j+1]*mu[k][j], all integers."""
    for j in range(k + 1):
        t = dot(b[k], b[j])
        for i in range(j):
            t = (d[i + 1] * t - lam[k][i] * lam[j][i]) // d[i]
        if j < k:
            lam[k][j] = t
        else:
            d[k + 1] = t
            if t <= 0:
                raise ValueError("form is not positive definite on the basis (rank deficiency?)")


def _lll_oracle(basis, dot):
    """The former `linalg._lll`, which updated the basis along with the
    transform: Cohen's integral LLL (delta = 3/4, GTM 138, Alg. 2.6.7).

    Returns (b, u, d, lam): the reduced basis, the transform with
    u * basis = b, and the integral Gram-Schmidt data of b.
    """
    n = len(basis)
    b = [row[:] for row in basis]
    u = identity_matrix(n)
    lam = [[0] * n for _ in range(n)]
    d = [1] + [0] * n

    def redi(k: int, l: int):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k][:] = [x - q * y for x, y in zip(b[k], b[l])]
            u[k][:] = [x - q * y for x, y in zip(u[k], u[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swapi(k: int, kmax: int):
        b[k], b[k - 1] = b[k - 1], b[k]
        u[k], u[k - 1] = u[k - 1], u[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lb = lam[k][k - 1]
        bb = (d[k - 1] * d[k + 1] + lb * lb) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lb * t) // d[k]
            lam[i][k - 1] = (bb * t + lb * lam[i][k]) // d[k + 1]
        d[k] = bb

    _gs_row_oracle(b, 0, d, lam, dot)
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            _gs_row_oracle(b, k, d, lam, dot)
        redi(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] * lam[k][k - 1]:
            swapi(k, kmax)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                redi(k, l)
            k += 1
    return b, u, d, lam


@pytest.mark.parametrize("p", [103, 503, 1019, 2 ** 61 + 15])
def test_lll_matches_the_basis_updating_oracle(p):
    """`_lll` tracks only the transform against a Gram matrix built once; it
    must return the (b, u, d, lam) of the algorithm that also updates b, on
    ideal and order bases, their 3x3 trace-zero projections, and random
    bases under random diagonal forms."""
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p % 1000)
    nrd_dot = _form_dot(nrd_gram(p))[0]
    tz_dot = _form_dot([[1, 0, 0], [0, p, 0], [0, 0, p]])[0]
    cases = [([list(r) for r in o0.lattice.mat], nrd_dot)]
    for _ in range(8):
        ideal = random_left_ideal(o0, rng.choice((3, 5, 7)), rng.randint(1, 8), rng)
        order = ideal.right_order()
        cases += [([list(r) for r in ideal.lattice.mat], nrd_dot),
                  ([list(r) for r in order.lattice.mat], nrd_dot),
                  (hnf_rows([list(r[1:]) for r in order.lattice.mat]), tz_dot)]
    while len(cases) < 60:
        n = rng.choice((2, 3, 4))
        basis = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)] for _ in range(n)]
        if len(hnf_rows(basis)) == n:
            form = [[rng.randint(1, 50) if i == j else 0 for j in range(n)] for i in range(n)]
            cases.append((basis, _form_dot(form)[0]))
    for basis, dot in cases:
        assert _lll(basis, dot) == _lll_oracle(basis, dot)


def test_lll_matches_the_oracle_on_a_skewed_rational_form():
    basis = [[1, 1000, 3, 7], [0, 1, 999, 5], [4, 0, 1, 998], [1, 2, 3, 5]]
    form = [[Fraction(2, 3), Fraction(1, 3), 0, 0], [Fraction(1, 3), 1, 0, 0], [0, 0, 5, 1],
            [0, 0, 1, 2]]
    dot = _form_dot(form)[0]
    assert _lll(basis, dot) == _lll_oracle(basis, dot)
    with pytest.raises(ValueError):
        _lll([[1, 0, 0, 0], [2, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dot)


def test_each_lattice_is_reduced_once(monkeypatch):
    """A pipeline reduces each distinct lattice once: one fixed-seed
    low_discriminant_isomorphism and one isomorphism_E0 at p = 503, with
    O0 and the lattice products built afresh."""
    alg = QuatAlgebra(503)
    monkeypatch.setattr(orders, "_EXTREMAL_ORDERS", {})
    o0 = standard_extremal_order(alg)
    rng = random.Random(25)
    nodes = [node_from_ideal(random_left_ideal(o0, ell, 3, rng)) for ell in (3, 5, 3)]

    reduced = []
    real_lll = linalg._lll

    def counting_lll(basis, dot):
        reduced.append(tuple(map(tuple, basis)))
        return real_lll(basis, dot)

    for module in (linalg, orders):
        monkeypatch.setattr(module, "_lll", counting_lll)
    low_discriminant_isomorphism(nodes[0], 3, random.Random(1))
    lowdisc_calls = len(reduced)
    isomorphism_E0(nodes[1], nodes[2], random.Random(2))
    assert len(reduced) == len(set(reduced))
    assert (lowdisc_calls, len(reduced) - lowdisc_calls) == (1, 3)
