"""Exact integer linear algebra on small matrices.

Provides row-style Hermite normal form with transform, Smith normal form
over Z/l^m, integer linear system solving, and, for positive definite forms
in dimension <= 4, Cohen's integral LLL whose Gram-Schmidt data (the Gram
determinants d and lambda) drives an integer Fincke-Pohst enumeration.

Matrices are lists of lists of Python ints (rows); nothing here ever
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

IntMatrix = list[list[int]]
Form = list[list[int | Fraction]]  # a quadratic form: integer or rational entries


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        ai = a[i]
        out.append([sum(ai[t] * b[t][j] for t in range(inner)) for j in range(cols)])
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
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


def hnf(mat: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form: returns (H, U) with U unimodular, U*mat = H.

    H is upper echelon with positive pivots and entries above each pivot
    reduced into [0, pivot).  Zero rows sink to the bottom.  U is the last
    columns of the echelon form of [mat | I]: the elimination visits the
    columns of mat first, so the first columns are H.
    """
    if not mat or not mat[0]:
        raise ValueError("hnf of empty matrix")
    ncols, nrows = len(mat[0]), len(mat)
    eye = identity_matrix(nrows)
    h = _echelon([row + eye[r] for r, row in enumerate(mat)])
    return [row[:ncols] for row in h], [row[ncols:] for row in h]


def _echelon(mat: IntMatrix) -> IntMatrix:
    """The row echelon form behind `hnf` and `hnf_rows`, zero rows included."""
    if not mat or not mat[0]:
        raise ValueError("hnf of empty matrix")
    h = [row[:] for row in mat]
    nrows, ncols = len(h), len(h[0])
    piv_row = 0
    for col in range(ncols):
        if piv_row >= nrows:
            break
        # clear the column below piv_row by pairwise gcd steps
        pivot = None
        for r in range(piv_row, nrows):
            if h[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != piv_row:
            h[piv_row], h[pivot] = h[pivot], h[piv_row]
        for r in range(piv_row + 1, nrows):
            while h[r][col] != 0:
                a, b = h[piv_row][col], h[r][col]
                g, x, y = _xgcd(a, b)
                # rows (piv, r) <- (x*piv + y*r, -(b/g)*piv + (a/g)*r)
                bp, ap = b // g, a // g
                hp, hr = h[piv_row], h[r]
                for c in range(ncols):
                    hp[c], hr[c] = x * hp[c] + y * hr[c], -bp * hp[c] + ap * hr[c]
        if h[piv_row][col] < 0:
            h[piv_row] = [-v for v in h[piv_row]]
        # reduce entries above the pivot into [0, pivot)
        piv = h[piv_row][col]
        for r in range(piv_row):
            q = h[r][col] // piv
            if q:
                h[r] = [hv - q * pv for hv, pv in zip(h[r], h[piv_row])]
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
    if x == 0:
        return cap
    v = 0
    while x % ell == 0 and v < cap:
        x //= ell
        v += 1
    return v


def snf_mod(mat: IntMatrix, modulus: int) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form over Z/l^m, the modulus given as l^m, l an odd prime.

    Returns (S, D, T) with S, T invertible mod l^m, S*mat*T = D mod l^m and
    D diagonal with entries l^d, valuations non-decreasing (0 stands for l^m).
    """
    ok, ell, m = is_odd_prime_power(modulus)
    if not ok:
        raise ValueError(f"modulus must be a power of an odd prime, got {modulus}")
    return snf_prime_power(mat, ell, m)


def snf_prime_power(mat: IntMatrix, ell: int, m: int) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
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


def is_odd_prime_power(n: int) -> tuple[bool, int, int]:
    """Check n = l^m with l an odd prime, m >= 1; returns (ok, l, m)."""
    from .quat import is_prime

    if n < 3 or n % 2 == 0:
        return (False, 0, 0)
    if is_prime(n):
        return (True, n, 1)
    for ell in range(3, isqrt(n) + 1, 2):
        if n % ell == 0:
            if not is_prime(ell):
                return (False, 0, 0)
            m = 0
            while n % ell == 0:
                n //= ell
                m += 1
            return (True, ell, m) if n == 1 else (False, 0, 0)
    return (False, 0, 0)


# ---------------------------------------------------------------------------
# Exact lattice reduction and enumeration
# ---------------------------------------------------------------------------


def gram_of(basis: IntMatrix, form: Form) -> list[list[int | Fraction]]:
    """Gram matrix basis * form * basis^T, exact; integer for an integer form."""
    n = len(basis)
    d = len(form)
    fb = []
    for row in basis:
        fb.append([sum(row[t] * form[t][j] for t in range(d)) for j in range(d)])
    return [[sum(fb[i][t] * basis[j][t] for t in range(d)) for j in range(n)] for i in range(n)]


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


def _gs_row(b: IntMatrix, k: int, d: list[int], lam: IntMatrix, dot) -> None:
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


def _lll(basis: IntMatrix, dot) -> tuple[IntMatrix, IntMatrix, list[int], IntMatrix]:
    """Cohen's integral LLL (delta = 3/4, GTM 138, Alg. 2.6.7).

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

    _gs_row(b, 0, d, lam, dot)
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            _gs_row(b, k, d, lam, dot)
        redi(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] * lam[k][k - 1]:
            swapi(k, kmax)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                redi(k, l)
            k += 1
    return b, u, d, lam


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
        _gs_row(basis, k, d, lam, dot)
    m, found = _fincke_pohst(d, lam, bound.numerator * scale, bound.denominator)
    for i, (x, v) in enumerate(found):  # in place: a large bound gives a long list
        found[i] = (x, Fraction(v, scale * m))
    return found


def shortest_vector(basis: IntMatrix, form: Form) -> tuple[list[int], list[int], Fraction]:
    """Nonzero lattice vector of minimal form value.

    Returns (coeffs, vector, value) where coeffs are coordinates on the input
    basis and vector = coeffs * basis.  Rank-deficient input raises.
    Tie-break: lexicographically smallest coefficient vector among the minima
    whose first nonzero coefficient is positive.
    """
    dot, scale = _form_dot(form)
    red, trans, d, lam = _lll(basis, dot)
    m, found = _fincke_pohst(d, lam, min(dot(r, r) for r in red), 1)
    best_val = min(v for _, v in found)
    candidates = []
    for coeffs_red, val in found:
        if val != best_val:
            continue
        coeffs = [sum(coeffs_red[t] * trans[t][c] for t in range(len(red)))
                  for c in range(len(red))]
        for sgn in (1, -1):
            cand = [sgn * v for v in coeffs]
            nz = next(v for v in cand if v)
            if nz > 0:
                candidates.append(cand)
    coeffs = min(candidates)
    vec = [sum(coeffs[t] * basis[t][c] for t in range(len(basis)))
           for c in range(len(basis[0]))]
    return coeffs, vec, Fraction(best_val, scale * m)


def vectors_of_value(basis: IntMatrix, form: Form, value: Fraction) -> list[list[int]]:
    """All lattice vectors (both signs) of exact form value, in ambient coords."""
    dot, scale = _form_dot(form)
    red, _, d, lam = _lll(basis, dot)
    num, den = value.numerator * scale, value.denominator
    m, found = _fincke_pohst(d, lam, num, den)
    out = []
    for coeffs, val in found:
        if val * den != num * m:
            continue
        vec = [sum(coeffs[t] * red[t][c] for t in range(len(red)))
               for c in range(len(red[0]))]
        out.append(vec)
        out.append([-v for v in vec])
    return out
