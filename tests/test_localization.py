import random
from fractions import Fraction
from itertools import permutations

import pytest

from quatisom import QuatAlgebra, local_generator, random_left_ideal, rgcd_hnf, split_order
from quatisom.linalg import hnf_rows
from quatisom.localization import _mat_mul2, hnf2_mod
from quatisom.orders import standard_extremal_order


def test_split_order_relations(o0_103):
    sp = split_order(o0_103, 3, 5)
    mod = 3 ** 5
    alg = o0_103.alg
    one, i, j, k = alg.gens()
    mi, mj = sp.to_matrix(i), sp.to_matrix(j)
    neg_one = ((mod - 1, 0), (0, mod - 1))
    assert _mat_mul2(mi, mi, mod) == neg_one
    assert _mat_mul2(mj, mj, mod) == (((-103) % mod, 0), (0, (-103) % mod))
    assert _mat_mul2(mi, mj, mod) == tuple(
        tuple((-v) % mod for v in row) for row in _mat_mul2(mj, mi, mod))
    # i -> [[0,1],[-1,0]] and j -> [[a,b],[b,-a]] with a^2+b^2 = -p
    assert mi == ((0, 1), (mod - 1, 0))
    a, b = mj[0]
    assert (a * a + b * b) % mod == (-103) % mod == 140
    assert mj == ((a, b), (b, (-a) % mod))


def test_split_order_rejects_bad_primes(o0_103):
    with pytest.raises(ValueError):
        split_order(o0_103, 2, 3)
    with pytest.raises(ValueError):
        split_order(o0_103, 103, 2)
    with pytest.raises(ValueError):
        split_order(o0_103, 15, 2)


def test_splitting_is_ring_hom(o0_103):
    sp = split_order(o0_103, 3, 5)
    mod = sp.mod
    rng = random.Random(41)
    alg = o0_103.alg
    for _ in range(60):
        x = alg.quaternion(*(Fraction(rng.randint(-20, 20), rng.choice((1, 2)))
                             for _ in range(4)))
        y = alg.quaternion(*(rng.randint(-20, 20) for _ in range(4)))
        assert sp.to_matrix(x * y) == _mat_mul2(sp.to_matrix(x), sp.to_matrix(y), mod)
        mx = sp.to_matrix(x)
        det = (mx[0][0] * mx[1][1] - mx[0][1] * mx[1][0]) % mod
        assert det == x.reduced_norm().numerator * pow(x.reduced_norm().denominator, -1, mod) % mod


def _to_matrix_reference(sp, x):
    """The image of x computed coordinate by coordinate on its Fractions."""
    co = []
    for c in x.coords():
        if c.denominator % sp.ell == 0:
            raise ValueError("denominator not invertible mod l^m")
        co.append(c.numerator * pow(c.denominator, -1, sp.mod) % sp.mod)
    phi = _phi(sp)
    ent = [sum(phi[r][c] * co[c] for c in range(4)) % sp.mod for r in range(4)]
    return ((ent[0], ent[1]), (ent[2], ent[3]))


def _phi(sp):
    """The matrix of the splitting: column c is the image of the c-th basis
    element 1, i, j, k, flattened row by row, with i -> [[0,1],[-1,0]],
    j -> [[a,b],[b,-a]] and k -> the product of the two."""
    mod = sp.mod
    img_i = ((0, 1), (mod - 1, 0))
    img_j = ((sp.a % mod, sp.b % mod), (sp.b % mod, -sp.a % mod))
    images = (((1, 0), (0, 1)), img_i, img_j, _mat_mul2(img_i, img_j, mod))
    return [[images[c][r // 2][r % 2] for c in range(4)] for r in range(4)]


def _invert_mod(mat, mod):
    """Gauss-Jordan inverse of a square matrix mod l^m, pivoting on units."""
    n = len(mat)
    aug = [[mat[r][c] % mod for c in range(n)] + [1 if r == c else 0 for c in range(n)]
           for r in range(n)]
    for c in range(n):
        piv = inv = None
        for r in range(c, n):
            try:
                inv = pow(aug[r][c], -1, mod)
            except ValueError:
                continue
            piv = r
            break
        if piv is None:
            raise ValueError("matrix not invertible mod l^m")
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [v * inv % mod for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(v - f * w) % mod for v, w in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


@pytest.mark.parametrize("ell, m", [(3, 5), (5, 2), (7, 3)])
def test_to_matrix_matches_per_coordinate(o0_103, ell, m):
    # half-integer and other denominators prime to l: one check on the
    # common denominator gives the per-coordinate image; l | den raises
    sp = split_order(o0_103, ell, m)
    rng = random.Random(ell)
    alg = o0_103.alg
    for _ in range(100):
        dens = [rng.choice((1, 2, 4, 6, 11)) for _ in range(4)]
        x = alg.quaternion(*(Fraction(rng.randint(-99, 99), d) for d in dens))
        if x.den % ell == 0:
            continue
        assert sp.to_matrix(x) == _to_matrix_reference(sp, x)
    for b in o0_103.basis():
        assert sp.to_matrix(b) == _to_matrix_reference(sp, b)
    bad = alg.quaternion(1, Fraction(1, 2), 0, Fraction(2, ell))
    with pytest.raises(ValueError, match="not invertible"):
        sp.to_matrix(bad)
    with pytest.raises(ValueError, match="not invertible"):
        _to_matrix_reference(sp, bad)


def test_splitting_roundtrip(o0_103):
    sp = split_order(o0_103, 3, 4)
    for b in o0_103.basis():
        assert sp.to_matrix(sp.from_matrix(sp.to_matrix(b))) == sp.to_matrix(b)


@pytest.mark.parametrize("p", [103, 1019, 2 ** 61 + 15])
@pytest.mark.parametrize("ell, m", [(3, 1), (3, 9), (5, 4), (13, 2)])
def test_splitting_closed_form_against_gauss_jordan(p, ell, m):
    # the closed-form preimage is the inverse of phi mod l^m, which is unique
    o0 = standard_extremal_order(QuatAlgebra(p))
    sp = split_order(o0, ell, m)
    mod = sp.mod
    phi_inv = _invert_mod(_phi(sp), mod)
    rng = random.Random(p * ell + m)
    for _ in range(50):
        mat = tuple(tuple(rng.randrange(mod) for _ in range(2)) for _ in range(2))
        x = sp.from_matrix(mat)
        vec = [mat[0][0], mat[0][1], mat[1][0], mat[1][1]]
        assert x.den == 1
        assert list(x.num) == [sum(phi_inv[r][c] * vec[c] for c in range(4)) % mod
                               for r in range(4)]
        assert sp.to_matrix(x) == mat
        # y in O0 may have denominator 2, which is a unit mod l^m
        y = o0.alg.quaternion(*(Fraction(rng.randint(-p, p), 2) for _ in range(4)))
        back = sp.from_matrix(sp.to_matrix(y))
        assert all((b * y.den - a) % mod == 0 for a, b in zip(y.num, back.num))


def test_rgcd_examples():
    a = ((1, 1), (0, 9))
    assert rgcd_hnf(a, a, 3) == a
    # spec worked example: mhat = min(2, 1, val3(2 - 3*1)) = 0
    out = rgcd_hnf(((1, 1), (0, 9)), ((3, 2), (0, 3)), 3)
    assert out == ((1, 0), (0, 1))
    # pivot exponents are exact, not capped: the ideal is its own right-gcd
    assert rgcd_hnf(((3 ** 7, 0), (0, 1)), ((3 ** 7, 0), (0, 1)), 3) == ((3 ** 7, 0), (0, 1))
    for n in range(13):
        for m in range(13):
            for r in ({0, 1, 3 ** m // 2, 3 ** m - 1} if m else {0}):
                b = ((3 ** n, r), (0, 3 ** m))
                assert rgcd_hnf(b, b, 3) == b, b
    with pytest.raises(ValueError):
        rgcd_hnf(((2, 0), (0, 3)), a, 3)  # pivot not a power of 3
    with pytest.raises(ValueError):
        rgcd_hnf(((3, 5), (0, 3)), a, 3)  # r not reduced mod the second pivot


def _rgcd_fold(basis, split):
    """The local normal form of a lattice as the right-gcd of its basis
    elements' own normal forms, folded left to right."""
    acc = None
    for b in basis:
        nf = hnf2_mod(split.to_matrix(b), split.ell, split.m)
        acc = nf if acc is None else rgcd_hnf(acc, nf, split.ell)
    return acc


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_one_normal_form_of_the_rows_is_the_rgcd_fold(ell):
    for p in (103, 1019):
        o0 = standard_extremal_order(QuatAlgebra(p))
        rng = random.Random(ell * p)
        for m in range(1, 7):
            split = split_order(o0, ell, m)
            lats = [random_left_ideal(o0, ell, m, rng).lattice for _ in range(3)]
            if m >= 2:
                # norm l^m but inside l*O0: not of type (0, m)
                lats.append(random_left_ideal(o0, ell, m - 2, rng).lattice.scale(ell))
            for lat in lats:
                # the HNF basis and its reverse: neither form depends on the order
                for basis in (lat.basis(), lat.basis()[::-1]):
                    rows = [row for b in basis for row in split.to_matrix(b)]
                    assert hnf2_mod(rows, ell, m) == _rgcd_fold(basis, split)


def brute_rgcd(a1, a2, ell, m):
    """Row-span oracle: integer HNF of the stacked rows plus l^m scalars,
    pivots normalized to powers of l."""
    mod = ell ** m
    rows = [list(a1[0]), list(a1[1]), list(a2[0]), list(a2[1]), [mod, 0], [0, mod]]
    h = hnf_rows(rows)
    g1, t = h[0]
    g2 = h[1][1] if len(h) > 1 else mod

    def val(x):
        v = 0
        while x % ell == 0:
            x //= ell
            v += 1
        return v, x

    v1, u1 = val(g1)
    v2, u2 = val(g2)
    piv2 = ell ** v2
    r = t * pow(u1, -1, mod) % piv2 if piv2 > 1 else 0
    return ((ell ** v1, r), (0, piv2))


def test_rgcd_against_row_span_oracle():
    rng = random.Random(42)
    for ell in (3, 5, 7):
        for _ in range(1000):
            mats, prec = [], 0
            for _ in range(2):
                n = rng.randint(0, 12)
                m = rng.randint(0, 12)
                r = rng.randrange(ell ** m)
                mats.append(((ell ** n, r), (0, ell ** m)))
                # l^(n+m) = det lies in the ideal, so the oracle is exact at n + m
                prec = max(prec, n + m + 2)
            got = rgcd_hnf(mats[0], mats[1], ell)
            want = brute_rgcd(mats[0], mats[1], ell, prec)
            assert got == want, (mats, got, want)


def test_rgcd_associative_commutative():
    rng = random.Random(43)
    ell = 3
    for _ in range(60):
        mats = []
        for _ in range(3):
            n = rng.randint(0, 3)
            m = rng.randint(0, 3)
            mats.append(((ell ** n, rng.randrange(ell ** m)), (0, ell ** m)))

        def fold(seq):
            acc = seq[0]
            for x in seq[1:]:
                acc = rgcd_hnf(acc, x, ell)
            return acc

        results = {fold(list(p)) for p in permutations(mats)}
        assert len(results) == 1


def test_local_generator_trivial(o0_103, alg103):
    alpha, x = local_generator(3, o0_103.one_ideal(), alg103.one())
    assert x == alg103.one()


def test_local_generator_paper_instance(example_p103, o0_103):
    alg = example_p103["alg"]
    i11 = example_p103["I11"]
    alpha = example_p103["alpha"]
    assert alpha.reduced_norm() == 243
    a, x = local_generator(3, i11, alpha)
    assert x.reduced_norm() % 3 != 0
    assert i11.lattice.contains(alpha * x)
    # local generation witnessed at precision l^m
    gen = o0_103.lattice.rmul_q(alpha * x).add(o0_103.lattice.scale(243))
    assert gen == i11.lattice


def test_paper_witness_pair(example_p103):
    i11, alpha, nu1 = example_p103["I11"], example_p103["alpha"], example_p103["nu1"]
    assert i11.lattice.contains(alpha * nu1)
    assert nu1.reduced_norm() % 3 != 0


def test_local_generator_type_mismatch(o0_103, alg103):
    rng = random.Random(46)
    i11 = random_left_ideal(o0_103, 3, 4, rng)
    bad_alpha = alg103.quaternion(9)  # norm 81 = 3^4 but type (2, 2)
    with pytest.raises(ValueError):
        local_generator(3, i11, bad_alpha)


def test_local_generator_random(o0_103):
    from quatisom import represent_integer

    rng = random.Random(47)
    for _ in range(4):
        i11 = random_left_ideal(o0_103, 3, 5, rng)
        while True:
            alpha = represent_integer(o0_103, 243, rng)
            if not o0_103.lattice.scale(3).contains(alpha):
                break
        a, x = local_generator(3, i11, alpha)
        assert x.reduced_norm() % 3 != 0
        assert i11.lattice.contains(alpha * x)
