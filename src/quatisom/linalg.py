"""Exact integer linear algebra on small matrices.

Provides row-style Hermite normal form with transform, by one exact
pairwise-gcd elimination (a plain row subtraction when the pivot divides
the entry, a Bezout step from `gcd` and a modular inverse otherwise, each
on the columns from the pivot on), the Smith normal form over Z/l^m for an
odd prime l (`snf_prime_power`), integer linear system solving, and, for
positive definite forms in dimension <= 4, Cohen's integral LLL whose
Gram-Schmidt data (the Gram determinants d and lambda) drives an integer
Fincke-Pohst enumeration.

Matrices are lists of lists of Python ints (rows); nothing here ever
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

IntMatrix = list[list[int]]
Form = list[list[int | Fraction]]  # a quadratic form: integer or rational entries


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hnf(mat: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form: returns (H, U) with U unimodular, U*mat = H.

    H is upper echelon with positive pivots and entries above each pivot
    reduced into [0, pivot).  Zero rows sink to the bottom.  U is the last
    columns of the echelon form of [mat | I]: the elimination visits the
    columns of mat first, so the first columns are H.  [mat | I] has full
    row rank, so its echelon form, and with it U, is unique even when mat
    is rank-deficient.
    """
    if not mat or not mat[0]:
        raise ValueError("hnf of empty matrix")
    ncols, nrows = len(mat[0]), len(mat)
    eye = identity_matrix(nrows)
    h = _echelon([row + eye[r] for r, row in enumerate(mat)])
    return [row[:ncols] for row in h], [row[ncols:] for row in h]


def _echelon(mat: IntMatrix) -> IntMatrix:
    """The row echelon form behind `hnf` and `hnf_rows`, zero rows included.

    Column by column (Cohen, GTM 138, Alg. 2.4.5): the first row with a
    nonzero entry a becomes the pivot row, and each row below with entry b
    is cleared by one unimodular step on the pair.  When a | b that step
    subtracts (b/a) times the pivot row; otherwise, with g = gcd(a, b),
    x = (a/g)^-1 mod |b/g| and y = (g - x a)/b, the pair becomes
    (x piv + y row, (a/g) row - (b/g) piv), whose entries are (g, 0).  Both
    rows are zero left of the pivot column, so every update, including the
    reduction of the rows above into [0, pivot), touches only the columns
    from the pivot column on.
    """
    if not mat or not mat[0]:
        raise ValueError("hnf of empty matrix")
    h = [row[:] for row in mat]
    nrows, ncols = len(h), len(h[0])
    piv_row = 0
    for col in range(ncols):
        if piv_row >= nrows:
            break
        for pivot in range(piv_row, nrows):
            if h[pivot][col]:
                break
        else:
            continue
        if pivot != piv_row:
            h[piv_row], h[pivot] = h[pivot], h[piv_row]
        hp = h[piv_row]
        active = range(col, ncols)
        for r in range(piv_row + 1, nrows):
            hr = h[r]
            b = hr[col]
            if not b:
                continue
            a = hp[col]
            q, rem = divmod(b, a)
            if not rem:
                for c in active:
                    hr[c] -= q * hp[c]
                continue
            g = gcd(a, b)
            ag, bg = a // g, b // g
            x = pow(ag, -1, abs(bg))
            y = (g - x * a) // b
            for c in active:
                u, v = hp[c], hr[c]
                hp[c], hr[c] = x * u + y * v, ag * v - bg * u
        if hp[col] < 0:
            for c in active:
                hp[c] = -hp[c]
        piv = hp[col]
        for r in range(piv_row):
            hr = h[r]
            q = hr[col] // piv
            if q:
                for c in active:
                    hr[c] -= q * hp[c]
        piv_row += 1
    return h


def hnf_rows(mat: IntMatrix) -> IntMatrix:
    """Nonzero rows of the Hermite normal form (no transform is built)."""
    return [row for row in _echelon(mat) if any(row)]


@dataclass
class IntegerSolution:
    """Solution set of A*x = b over Z: a particular solution plus the kernel.

    `particular` is None when no integer solution exists (for b != 0).
    `kernel` rows form a basis of {x : A*x = 0}.
    """

    particular: list[int] | None
    kernel: IntMatrix

    @property
    def has_solution(self) -> bool:
        return self.particular is not None


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of the integer (right) kernel {x : a*x = 0}."""
    ncols = len(a[0])
    at = [[a[r][c] for r in range(len(a))] for c in range(ncols)]
    h, u = hnf(at)
    return [u[r] for r in range(ncols) if not any(h[r])]


def solve_integer(a: IntMatrix, b: list[int] | None = None) -> IntegerSolution:
    """Solve a*x = b over the integers (kernel only when b is None)."""
    ker = kernel_basis(a)
    if b is None:
        return IntegerSolution(particular=[0] * len(a[0]), kernel=ker)
    nrows, ncols = len(a), len(a[0])
    if len(b) != nrows:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    at = [[a[r][c] for r in range(nrows)] for c in range(ncols)]
    h, u = hnf(at)  # u * a^T = h, so a = h^T * (u^T)^-1; solve h^T z = b, x = u^T z
    z = [0] * ncols
    resid = list(b)
    for r in range(ncols):
        row = h[r]
        lead = next((c for c in range(nrows) if row[c] != 0), None)
        if lead is None:
            break
        if resid[lead] % row[lead] != 0:
            return IntegerSolution(particular=None, kernel=ker)
        z[r] = resid[lead] // row[lead]
        if z[r]:
            for c in range(nrows):
                resid[c] -= z[r] * row[c]
    if any(resid):
        return IntegerSolution(particular=None, kernel=ker)
    x = [sum(u[r][c] * z[r] for r in range(ncols)) for c in range(ncols)]
    return IntegerSolution(particular=x, kernel=ker)


# ---------------------------------------------------------------------------
# Smith normal form over Z/l^m
# ---------------------------------------------------------------------------


def _val(x: int, ell: int, cap: int) -> int:
    """The l-adic valuation of x, capped at cap (x = 0 gives cap)."""
    if x == 0:
        return cap
    v = 0
    while x % ell == 0 and v < cap:
        x //= ell
        v += 1
    return v


def snf_prime_power(mat: IntMatrix, ell: int, m: int) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form over Z/l^m, l an odd prime.

    Returns (S, D, T) with S, T invertible mod l^m, S*mat*T = D mod l^m and
    D diagonal with entries l^d, valuations non-decreasing (0 stands for l^m).
    """
    from .quat import is_prime

    if ell == 2 or not is_prime(ell):
        raise ValueError(f"l must be an odd prime, got {ell}")
    mod = ell ** m
    n = len(mat)
    c = len(mat[0])
    a = [[x % mod for x in row] for row in mat]
    s = identity_matrix(n)
    t = identity_matrix(c)
    size = min(n, c)
    for k in range(size):
        # pivot: entry of minimal l-valuation in the remaining block
        best = None
        best_v = m + 1
        for i in range(k, n):
            for j in range(k, c):
                v = _val(a[i][j], ell, m)
                if v < best_v:
                    best, best_v = (i, j), v
                    if v == 0:
                        break
            if best_v == 0:
                break
        if best is None or best_v >= m:
            break
        bi, bj = best
        if bi != k:
            a[k], a[bi] = a[bi], a[k]
            s[k], s[bi] = s[bi], s[k]
        if bj != k:
            for row in a:
                row[k], row[bj] = row[bj], row[k]
            for row in t:
                row[k], row[bj] = row[bj], row[k]
        # normalize pivot to an exact power of l
        unit = a[k][k] // (ell ** best_v)
        inv = pow(unit, -1, mod)
        a[k] = [x * inv % mod for x in a[k]]
        s[k] = [x * inv % mod for x in s[k]]
        piv = ell ** best_v
        for i in range(k + 1, n):
            q = a[i][k] // piv
            if q:
                a[i] = [(x - q * y) % mod for x, y in zip(a[i], a[k])]
                s[i] = [(x - q * y) % mod for x, y in zip(s[i], s[k])]
        for j in range(k + 1, c):
            q = a[k][j] // piv
            if q:
                for row in a:
                    row[j] = (row[j] - q * row[k]) % mod
                for row in t:
                    row[j] = (row[j] - q * row[k]) % mod
    d = [[0] * c for _ in range(n)]
    for k in range(size):
        v = _val(a[k][k], ell, m)
        d[k][k] = ell ** v % mod if v < m else 0
    return s, d, t


# ---------------------------------------------------------------------------
# Exact lattice reduction and enumeration
# ---------------------------------------------------------------------------


def _form_dot(form: Form):
    """(dot, scale): the bilinear form of scale*form on integer vectors, with
    scale the lcm of the entries' denominators.  A diagonal form, such as the
    reduced norm (1, 1, p, p), takes the diagonal sum."""
    scale = lcm(*(v.denominator for row in form for v in row))
    g = [[v.numerator * (scale // v.denominator) for v in row] for row in form]
    diag = [g[i][i] for i in range(len(g))]
    if all(g[i][j] == 0 for i in range(len(g)) for j in range(len(g)) if i != j):
        return (lambda x, y: sum(a * w * c for a, w, c in zip(x, diag, y))), scale
    return (lambda x, y: sum(x[i] * gi[j] * y[j] for i, gi in enumerate(g)
                             for j in range(len(g)))), scale


def _gs_row(k: int, dots: list[int], d: list[int], lam: IntMatrix) -> None:
    """Integral Gram-Schmidt data of row k (Cohen, GTM 138, Alg. 2.6.7) from
    dots[j] = <b_k, b_j>, j <= k: the Gram determinant d[k+1] and
    lam[k][j] = d[j+1]*mu[k][j], all integers."""
    for j in range(k + 1):
        t = dots[j]
        for i in range(j):
            t = (d[i + 1] * t - lam[k][i] * lam[j][i]) // d[i]
        if j < k:
            lam[k][j] = t
        else:
            d[k + 1] = t
            if t <= 0:
                raise ValueError("form is not positive definite on the basis (rank deficiency?)")


def _size_reduce(l: int, uk: list[int], lk: list[int], u: IntMatrix, d: list[int],
                 lam: IntMatrix) -> None:
    """Size-reduce row k (transform row uk, Gram-Schmidt row lk) against
    row l < k, Cohen's REDI: subtract q = round(lam[k][l]/d[l+1]) times row l
    when 2*|lam[k][l]| > d[l+1]."""
    dl = d[l + 1]
    if 2 * abs(lk[l]) > dl:
        q = (2 * lk[l] + dl) // (2 * dl)
        for c, x in enumerate(u[l]):
            uk[c] -= q * x
        lk[l] -= q * dl
        ll = lam[l]
        for i in range(l):
            lk[i] -= q * ll[i]


def _lll(basis: IntMatrix, dot) -> tuple[IntMatrix, IntMatrix, list[int], IntMatrix]:
    """Cohen's integral LLL (delta = 3/4, GTM 138, Alg. 2.6.7).

    Returns (b, u, d, lam): the reduced basis, the transform with
    u * basis = b, and the integral Gram-Schmidt data of b.

    Only u is updated: the Gram matrix G of the input is built once, and
    <b_k, b_j> = u_k*G*u_j^T.  Every step touches rows k <= kmax only, so
    when row k is first reached u_k is still the unit vector e_k and
    <b_k, b_j> = G_k*u_j^T.  The basis is b = u*basis at the end.
    """
    n = len(basis)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = dot(basis[i], basis[j])
    u = identity_matrix(n)
    lam = [[0] * n for _ in range(n)]
    d = [1] + [0] * n
    _gs_row(0, gram[0], d, lam)
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            gk = gram[k]
            _gs_row(k, [sum(map(mul, gk, u[j])) for j in range(k + 1)], d, lam)
        lk, uk = lam[k], u[k]
        _size_reduce(k - 1, uk, lk, u, d, lam)
        dl, lb = d[k], lk[k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * dl * dl - 4 * lb * lb:
            # the Lovasz condition fails: swap rows k-1 and k (Cohen's SWAPI)
            u[k], u[k - 1] = u[k - 1], uk
            lm = lam[k - 1]
            for j in range(k - 1):
                lk[j], lm[j] = lm[j], lk[j]
            bb = (d[k - 1] * d[k + 1] + lb * lb) // dl
            for i in range(k + 1, kmax + 1):
                li = lam[i]
                t = li[k]
                li[k] = (d[k + 1] * li[k - 1] - lb * t) // dl
                li[k - 1] = (bb * t + lb * li[k]) // d[k + 1]
            d[k] = bb
            if k > 1:
                k -= 1
        else:
            for l in range(k - 2, -1, -1):
                _size_reduce(l, uk, lk, u, d, lam)
            k += 1
    columns = list(zip(*basis))
    return [[sum(map(mul, ui, col)) for col in columns] for ui in u], u, d, lam


def lll_reduce(basis: IntMatrix, form: Form) -> tuple[IntMatrix, IntMatrix]:
    """Exact integral LLL (delta = 3/4) of a full-rank basis under a positive
    definite rational form.

    Returns (reduced_basis, transform) with transform * basis = reduced_basis.
    All arithmetic is on integers (Cohen's integral LLL with the d/lambda
    bookkeeping); the form is scaled to integer values first.
    """
    b, u, _, _ = _lll(basis, _form_dot(form)[0])
    return b, u


def _fincke_pohst(d: list[int], lam: IntMatrix, bound_num: int, bound_den: int):
    """Integer Fincke-Pohst on integral Gram-Schmidt data (Cohen, Alg. 2.7.5).

    With w_j = d_j*d_{j+1}, M = lcm(w) and t_j = d_{j+1}*x_j + sum_{k>j}
    lam[k][j]*x_k, the integer form value of x is sum_j t_j^2/w_j.  Returns
    (M, found), found listing (x, M * value) for every x != 0 with value <=
    bound_num/bound_den and its last nonzero entry positive.  Level n-1 is
    fixed first and each level runs upward, so the order is deterministic.
    """
    n = len(d) - 1
    m = lcm(*(d[j] * d[j + 1] for j in range(n)))
    c = [m // (d[j] * d[j + 1]) for j in range(n)]
    limit = bound_num * m // bound_den
    x = [0] * n
    found = []

    def recurse(level: int, rem: int):
        sigma = sum(lam[t][level] * x[t] for t in range(level + 1, n))
        dl, cl = d[level + 1], c[level]
        s = isqrt(rem // cl)
        for v in range(-((s + sigma) // dl), (s - sigma) // dl + 1):
            x[level] = v
            t = dl * v + sigma
            left = rem - cl * t * t
            if level:
                recurse(level - 1, left)
            elif any(x) and x[max(i for i in range(n) if x[i])] > 0:
                found.append((x[:], limit - left))
        x[level] = 0

    if limit >= 0:
        recurse(n - 1, limit)
    return m, found


def enumerate_up_to(basis: IntMatrix, form: Form, bound: Fraction):
    """Return (coeffs, value) for every nonzero lattice vector with form value <= bound.

    Only one of each +-v pair is produced (last nonzero coefficient positive).
    Exact integer Fincke-Pohst on the given (ideally LLL-reduced) basis; the
    values are Fractions, also for an integer form.
    """
    n = len(basis)
    dot, scale = _form_dot(form)
    d, lam = [1] + [0] * n, [[0] * n for _ in range(n)]
    for k in range(n):
        _gs_row(k, [dot(basis[k], basis[j]) for j in range(k + 1)], d, lam)
    m, found = _fincke_pohst(d, lam, bound.numerator * scale, bound.denominator)
    for i, (x, v) in enumerate(found):  # in place: a large bound gives a long list
        found[i] = (x, Fraction(v, scale * m))
    return found


def _least(reduction, bound: int) -> tuple[int, int, IntMatrix]:
    """(M, least, xs) for a reduction (b, u, d, lam) from `_lll`: the least
    form value of a nonzero vector, times M, and the coefficients xs on b of
    the vectors that attain it, one of each +-v pair in Fincke-Pohst order.
    bound is an integer form value that some nonzero vector attains."""
    m, found = _fincke_pohst(reduction[2], reduction[3], bound, 1)
    least = min(v for _, v in found)
    return m, least, [x for x, v in found if v == least]


def _shortest(basis: IntMatrix, reduction, bound: int) -> tuple[list[int], list[int], Fraction]:
    """`shortest_vector` on an integer form from the reduction of basis
    under it; bound as in `_least`."""
    m, least, xs = _least(reduction, bound)
    trans = reduction[1]
    n = len(trans)
    candidates = []
    for x in xs:
        coeffs = [sum(x[t] * trans[t][c] for t in range(n)) for c in range(n)]
        if next(v for v in coeffs if v) < 0:
            coeffs = [-v for v in coeffs]
        candidates.append(coeffs)
    coeffs = min(candidates)
    vec = [sum(coeffs[t] * basis[t][c] for t in range(n)) for c in range(len(basis[0]))]
    return coeffs, vec, Fraction(least, m)


def shortest_vector(basis: IntMatrix, form: Form) -> tuple[list[int], list[int], Fraction]:
    """Nonzero lattice vector of minimal form value.

    Returns (coeffs, vector, value) where coeffs are coordinates on the input
    basis and vector = coeffs * basis.  Rank-deficient input raises.
    Tie-break: lexicographically smallest coefficient vector among the minima
    whose first nonzero coefficient is positive.
    """
    dot, scale = _form_dot(form)
    reduction = _lll(basis, dot)
    coeffs, vec, val = _shortest(basis, reduction, min(dot(r, r) for r in reduction[0]))
    return coeffs, vec, val / scale

