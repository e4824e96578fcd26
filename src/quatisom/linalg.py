"""Exact integer linear algebra on small matrices.

Provides row-style Hermite normal form with transform, Smith normal form
over Z/l^m, integer linear system solving, exact LLL reduction and
Fincke-Pohst enumeration for positive definite forms in dimension <= 4.

Matrices are lists of lists of Python ints (rows); nothing here ever
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

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


def lll_reduce(basis: IntMatrix, form: Form) -> tuple[IntMatrix, IntMatrix]:
    """Exact integral LLL (delta = 3/4) of a full-rank basis under a positive
    definite rational form.

    Returns (reduced_basis, transform) with transform * basis = reduced_basis.
    All arithmetic is on integers (Cohen's integral LLL with the d/lambda
    bookkeeping); the form is scaled to integer values first.
    """
    n = len(basis)
    scale = 1
    for row in form:
        for v in row:
            scale = scale * v.denominator // gcd(scale, v.denominator)
    g_int = [[int(v * scale) for v in row] for row in form]

    def dot(x, y):
        d = len(g_int)
        return sum(x[i] * g_int[i][j] * y[j] for i in range(d) for j in range(d))

    b = [row[:] for row in basis]
    u = identity_matrix(n)
    if n == 1:
        return b, u

    lam = [[0] * n for _ in range(n)]
    d = [0] * (n + 1)
    d[0] = 1

    def incremental_gram(k: int):
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

    incremental_gram(0)
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            incremental_gram(k)
        redi(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] * lam[k][k - 1]:
            swapi(k, kmax)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                redi(k, l)
            k += 1
    return b, u


def _floor_sqrt_frac(x: Fraction) -> int:
    """floor(sqrt(x)) for x >= 0 rational."""
    if x < 0:
        raise ValueError("negative radicand")
    return isqrt(x.numerator * x.denominator) // x.denominator


def _coord_range(center: Fraction, radius_sq: Fraction) -> tuple[int, int]:
    """Integer x with (x - center)^2 <= radius_sq, as inclusive [lo, hi].

    Returns an empty range (lo > hi) when no integer qualifies.
    """
    if radius_sq < 0:
        return (1, 0)
    s = _floor_sqrt_frac(radius_sq)
    num, den = center.numerator, center.denominator
    lo = -((-(num - s * den)) // den) - 1  # ceil(center - s) - 1
    hi = (num + s * den) // den + 1        # floor(center + s) + 1
    while lo <= hi and (Fraction(lo) - center) ** 2 > radius_sq:
        lo += 1
    while hi >= lo and (Fraction(hi) - center) ** 2 > radius_sq:
        hi -= 1
    return lo, hi


def enumerate_up_to(basis: IntMatrix, form: Form, bound: Fraction):
    """Yield (coeffs, value) for every nonzero lattice vector with form value <= bound.

    Only one of each +-v pair is produced (last nonzero coefficient positive).
    Exact Fincke-Pohst on the given (ideally LLL-reduced) basis; the values
    are Fractions, also for an integer form.
    """
    n = len(basis)
    g = gram_of(basis, form)
    # LDL^T decomposition: g = L D L^T with unit lower-triangular L
    dvec = [Fraction(0)] * n
    lmat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        lmat[i][i] = Fraction(1)
        dvec[i] = Fraction(g[i][i])
        for j in range(i):
            lmat[i][j] = Fraction(g[i][j]) - sum(lmat[i][t] * lmat[j][t] * dvec[t] for t in range(j))
            lmat[i][j] /= dvec[j]
            dvec[i] -= lmat[i][j] ** 2 * dvec[j]
        if dvec[i] <= 0:
            raise ValueError("form is not positive definite on the basis (rank deficiency?)")
    bound = Fraction(bound)
    x = [0] * n
    results = []

    def recurse(level: int, remaining: Fraction):
        # value so far uses coordinates x[level+1..]; center of x[level] is
        # -sum_{t>level} mu[t][level] * x[t]
        center = -sum(lmat[t][level] * x[t] for t in range(level + 1, n))
        lo, hi = _coord_range(center, remaining / dvec[level])
        for v in range(lo, hi + 1):
            x[level] = v
            contrib = dvec[level] * (Fraction(v) - center) ** 2
            if level == 0:
                if any(x):
                    # canonical sign: last nonzero coefficient positive
                    idx = max(t for t in range(n) if x[t])
                    if x[idx] > 0:
                        results.append((x[:], bound - remaining + contrib))
            else:
                recurse(level - 1, remaining - contrib)
        x[level] = 0

    recurse(n - 1, bound)
    return results


def shortest_vector(basis: IntMatrix, form: Form) -> tuple[list[int], list[int], Fraction]:
    """Nonzero lattice vector of minimal form value.

    Returns (coeffs, vector, value) where coeffs are coordinates on the input
    basis and vector = coeffs * basis.  Rank-deficient input raises.
    Tie-break: lexicographically smallest coefficient vector among the minima
    whose first nonzero coefficient is positive.
    """
    red, trans = lll_reduce(basis, form)
    g = gram_of(red, form)
    bound = Fraction(min(g[i][i] for i in range(len(red))))
    found = enumerate_up_to(red, form, bound)
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
    return coeffs, vec, best_val


def vectors_of_value(basis: IntMatrix, form: Form, value: Fraction) -> list[list[int]]:
    """All lattice vectors (both signs) of exact form value, in ambient coords."""
    red, _ = lll_reduce(basis, form)
    out = []
    for coeffs, val in enumerate_up_to(red, form, Fraction(value)):
        if val != value:
            continue
        vec = [sum(coeffs[t] * red[t][c] for t in range(len(red)))
               for c in range(len(red[0]))]
        out.append(vec)
        out.append([-v for v in vec])
    return out
