"""Norm-equation solvers: Cornacchia, RepresentInteger over the extremal
order, and equivalent ideals of prescribed l-power norm (desk-scale KLPT
for the special order, with an enumeration fallback).

All randomized searches are Las Vegas: outputs are verified before being
returned, randomness only affects the running time.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd, isqrt

from .linalg import lll_reduce, enumerate_up_to
from .localization import _sqrt_mod_prime
from .orders import Ideal, Order, SamplingBudgetError, nrd_gram, standard_extremal_order
from .quat import Quaternion, is_prime


# ---------------------------------------------------------------------------
# Cornacchia
# ---------------------------------------------------------------------------


def _sqrt_mod_prime_power(a: int, ell: int, e: int) -> list[int]:
    """All x in [0, l^e) with x^2 = a mod l^e, for odd prime l."""
    mod = ell ** e
    a %= mod
    if a == 0:
        return list(range(0, mod, ell ** ((e + 1) // 2)))
    v, u = 0, a
    while u % ell == 0:
        u //= ell
        v += 1
    if v % 2 == 1:
        return []
    sub = e - v
    r = _sqrt_mod_prime(u % ell, ell)
    if r is None or r == 0:
        return []
    r = _hensel_sqrt(u, ell, sub, r)
    half = ell ** (v // 2)
    period = ell ** (e - v // 2)
    out = set()
    for base in (r % ell ** sub, (-r) % ell ** sub):
        x0 = half * base
        for t in range(mod // period):
            out.add((x0 + t * period) % mod)
    return sorted(x for x in out if x * x % mod == a)


def _hensel_sqrt(a: int, ell: int, e: int, r: int) -> int:
    """Lift r with r^2 = a mod l to mod l^e (a a unit mod l)."""
    mod = ell
    for _ in range(e - 1):
        mod *= ell
        f = (r * r - a) % mod
        r = (r - f * pow(2 * r, -1, mod)) % mod
    return r


def _sqrt_mod_2_power(a: int, e: int) -> list[int]:
    """All x in [0, 2^e) with x^2 = a mod 2^e."""
    mod = 1 << e
    a %= mod
    if e <= 3:
        return [x for x in range(mod) if x * x % mod == a]
    if a == 0:
        return list(range(0, mod, 1 << ((e + 1) // 2)))
    v, u = 0, a
    while u % 2 == 0:
        u //= 2
        v += 1
    if v % 2 == 1:
        return []
    sub = e - v
    if sub <= 3:
        cands = [x for x in range(1 << sub) if x * x % (1 << sub) == u % (1 << sub)]
    else:
        if u % 8 != 1:
            return []
        r = 1
        for k in range(3, sub):
            if (r * r - u) % (1 << (k + 1)):
                r += 1 << (k - 1)
        cands = {r % (1 << sub), (-r) % (1 << sub),
                 (r + (1 << (sub - 1))) % (1 << sub), ((1 << (sub - 1)) - r) % (1 << sub)}
    half = 1 << (v // 2)
    period = 1 << (e - v // 2)
    out = set()
    for base in cands:
        x0 = half * base
        for t in range(mod // period):
            out.add((x0 + t * period) % mod)
    return sorted(x for x in out if x * x % mod == a)


def _factorize(n: int) -> dict[int, int]:
    """Trial-division factorization (desk scale)."""
    out: dict[int, int] = {}
    for q in (2, 3, 5):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    f = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    idx = 0
    while f * f <= n:
        if is_prime(n):
            break
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += inc[idx]
        idx = (idx + 1) % 8
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _all_sqrts_mod(a: int, m: int) -> list[int]:
    """All x in [0, m) with x^2 = a mod m."""
    if m == 1:
        return [0]
    roots = [0]
    mod = 1
    for q, e in _factorize(m).items():
        part = _sqrt_mod_2_power(a, e) if q == 2 else _sqrt_mod_prime_power(a, q, e)
        if not part:
            return []
        qe = q ** e
        new_mod = mod * qe
        inv_mod = pow(mod, -1, qe) if mod > 1 else 1
        merged = []
        for r0 in roots:
            for r1 in part:
                # CRT: x = r0 mod mod, x = r1 mod qe
                x = (r0 + mod * ((r1 - r0) * inv_mod % qe)) % new_mod
                merged.append(x)
        roots, mod = merged, new_mod
    return sorted(set(roots))


def cornacchia(d: int, m: int) -> tuple[int, int] | None:
    """Primitive (x, y) with x^2 + d*y^2 = m, or None.

    Deterministic: square roots of -d mod m are tried in increasing order and
    the first valid primitive solution is returned.
    """
    if d <= 0 or m <= 0:
        raise ValueError("d and m must be positive")
    if m == 1:
        return (1, 0)
    if m == d:
        return (0, 1)
    sols = []
    for r in _all_sqrts_mod(-d, m):
        a, b = m, r
        while b * b > m:
            a, b = b, a % b
        if b == 0:
            continue
        rem = m - b * b
        if rem % d:
            continue
        y2 = rem // d
        y = isqrt(y2)
        if y * y == y2 and gcd(b, y) == 1:
            sols.append((b, y))
            if d == 1:
                sols.append((y, b))
    if not sols:
        return None
    return min(sols)


def _two_squares(n: int) -> tuple[int, int] | None:
    """Some (x, y) with x^2 + y^2 = n, for n in {0,1,2} or n prime = 1 mod 4,
    or 2*prime with the prime = 1 mod 4.  None when not of that shape."""
    if n == 0:
        return (0, 0)
    if n == 1:
        return (1, 0)
    if n == 2:
        return (1, 1)
    if n % 4 == 1 and is_prime(n):
        r = _sqrt_mod_prime(n - 1, n)
        a, b = n, r
        while b * b > n:
            a, b = b, a % b
        y2 = n - b * b
        y = isqrt(y2)
        return (b, y) if y * y == y2 else None
    if n % 4 == 2 and is_prime(n // 2) and (n // 2) % 4 == 1:
        sub = _two_squares(n // 2)
        if sub:
            a, b = sub
            return (a + b, abs(a - b))
    return None


def _sum_of_two_squares(m: int) -> tuple[int, int] | None:
    """Some (x, y) with x^2 + y^2 = m > 0, or None: g times the primitive
    solution for m/g^2, for the least g with g^2 | m that has one."""
    roots = [1]  # every g with g^2 | m, from the factorization of m
    for q, e in _factorize(m).items():
        roots = [g * q ** k for g in roots for k in range(e // 2 + 1)]
    for g in sorted(roots):
        sol = cornacchia(1, m // (g * g))
        if sol is not None:
            return (g * sol[0], g * sol[1])
    return None


# ---------------------------------------------------------------------------
# RepresentInteger
# ---------------------------------------------------------------------------


def represent_integer(o0: Order, n: int, rng: random.Random | None = None,
                      *, budget: int = 20000) -> Quaternion:
    """An element of O0 with reduced norm exactly n.

    Alternates integer coordinates x + yi + cj + dk, with p(c^2+d^2) <= n,
    and half-integer ones (x + yi + cj + dk)/2, with x = d and y = c mod 2
    (the index-2 pattern of O0), and solves x^2 + y^2 for the rest.

    For n >= p, (c, d) is sampled and only prime remainders (or twice a
    prime) are solved; another (c, d) is tried otherwise.  For n < p the
    candidates form a finite set: c = d = 0, or c, d in {-1, 0, 1} in the
    half-integer case, so the remainders are n, 4n, 4n - p and 4n - 2p.
    When one of them is a primitive sum of two squares (gcd(x, y) = 1; 4n
    never is), only primitive remainders are solved, by Cornacchia, so a
    caller that needs an l-primitive element still gets one (at p = 103,
    n = 81 gives an element outside 3*O0, not 9).  Otherwise a remainder m
    is solved as g*(x, y), with (x, y) the primitive solution for m/g^2 and
    g = 1, 2, ... the first g with g^2 | m that has one.  So every element of
    norm n < p can be found.

    Raises SamplingBudgetError when the budget runs out.
    """
    rng = rng or random.Random(0)
    alg = o0.alg
    p = alg.p
    if n <= 0:
        raise ValueError("n must be positive")
    if n == 1:
        return alg.one()

    cmax = isqrt(n // p)
    if n >= p:
        solve = _two_squares
    elif any(cornacchia(1, r) for r in (n, 4 * n - p, 4 * n - 2 * p) if r > 0):
        solve = partial(cornacchia, 1)
    else:
        solve = _sum_of_two_squares
    for trial in range(budget):
        if trial % 2 == 0:
            # integer coordinates
            c = rng.randint(-cmax, cmax) if cmax else 0
            dd = rng.randint(-cmax, cmax) if cmax else 0
            rest = n - p * (c * c + dd * dd)
            if rest < 0:
                continue
            sol = solve(rest)
            if sol is None:
                continue
            x, y = sol
            if rng.random() < 0.5:
                x, y = y, x
            cand = alg.quaternion(x, y, c, dd)
        else:
            # half-integer coordinates: alpha = (x + y i + c j + d k)/2 in O0
            # requires x = d and y = c mod 2
            c = rng.randint(-2 * cmax - 1, 2 * cmax + 1)
            dd = rng.randint(-2 * cmax - 1, 2 * cmax + 1)
            rest = 4 * n - p * (c * c + dd * dd)
            if rest < 0:
                continue
            sol = solve(rest)
            if sol is None:
                continue
            x, y = sol
            if (x - dd) % 2 or (y - c) % 2:
                x, y = y, x
            if (x - dd) % 2 or (y - c) % 2:
                continue
            cand = alg.quaternion(Fraction(x, 2), Fraction(y, 2), Fraction(c, 2), Fraction(dd, 2))
        if cand.reduced_norm() == n and o0.lattice.contains(cand):
            return cand
    raise SamplingBudgetError(f"no element of norm {n} found within budget {budget}")


# ---------------------------------------------------------------------------
# Equivalent ideal of l-power norm (KLPT for the special order)
# ---------------------------------------------------------------------------


def _legendre(a: int, n: int) -> int:
    a %= n
    if a == 0:
        return 0
    return 1 if pow(a, (n - 1) // 2, n) == 1 else -1


def _gauss_reduce_2d(b1, b2):
    """Lagrange-reduced basis of the planar lattice spanned by b1, b2."""
    def norm(v):
        return v[0] * v[0] + v[1] * v[1]

    if norm(b1) == 0 or norm(b2) == 0:
        raise ArithmeticError("degenerate planar lattice")
    if norm(b1) > norm(b2):
        b1, b2 = b2, b1
    while True:
        n1 = norm(b1)
        mu = round(Fraction(b1[0] * b2[0] + b1[1] * b2[1], n1))
        b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])
        if norm(b2) >= n1:
            return b1, b2
        b1, b2 = b2, b1


def _planar_lattice_basis(v: tuple[int, int], n: int):
    """Basis of Z*v + n*Z^2 as two rows."""
    from .linalg import hnf_rows

    rows = hnf_rows([[v[0], v[1]], [n, 0], [0, n]])
    return (rows[0][0], rows[0][1]), (rows[1][0], rows[1][1])


def _small_projective_rep(c: int, d: int, n: int) -> tuple[int, int]:
    """Short nonzero representative of the projective point (c : d) mod n."""
    b1, b2 = _gauss_reduce_2d(*_planar_lattice_basis((c % n, d % n), n))
    # the reduction may land on a multiple of n; pick a vector nonzero mod n
    for v in (b1, b2, (b1[0] + b2[0], b1[1] + b2[1])):
        if v[0] % n or v[1] % n:
            return v
    raise ArithmeticError("degenerate projective point")


def _ideal_is_primitive(ideal: Ideal, ell: int) -> bool:
    """True when the ideal is not divisible by l, i.e. I is not inside l*O."""
    o = ideal.left_order()
    return not o.lattice.scale(ell).contains_lattice(ideal.lattice)


def _strip_l_content(lat, o0: Order, ell: int) -> tuple:
    """Largest v with L <= l^v O0 removed: returns (L / l^v, v)."""
    v = 0
    scaled = o0.lattice.scale(ell)
    while scaled.contains_lattice(lat):
        lat = lat.scale(Fraction(1, ell))
        v += 1
    return lat, v


def _small_elements(ideal: Ideal, count: int):
    """Elements of the ideal from short coefficient combinations of an
    LLL-reduced basis, in a deterministic sweep."""
    lat = ideal.lattice
    red, _ = lll_reduce([list(r) for r in lat.mat], nrd_gram(lat.alg.p))
    basis = []
    for row in red:
        basis.append(lat.alg.quaternion(Fraction(row[0], lat.den), Fraction(row[1], lat.den),
                                        Fraction(row[2], lat.den), Fraction(row[3], lat.den)))
    seen = 0
    for radius in range(1, 16):
        for co in product(range(-radius, radius + 1), repeat=4):
            if max(abs(v) for v in co) != radius:
                continue
            yield co[0] * basis[0] + co[1] * basis[1] + co[2] * basis[2] + co[3] * basis[3]
            seen += 1
            if seen >= count:
                return


def _equivalent_prime_norm(ideal: Ideal, avoid: tuple[int, ...],
                           *, count: int = 4000) -> tuple[Ideal, Quaternion, int]:
    """Equivalent left O0-ideal of odd prime norm N avoiding given primes.

    Returns (J', delta, N) with J' = I*conj(delta)/Nrd(I).
    """
    n_i = ideal.nrd()
    for delta in _small_elements(ideal, count):
        if delta.is_zero():
            continue
        nd = delta.reduced_norm()
        n = int(nd) // n_i
        if n <= 2 or n in avoid or not is_prime(n):
            continue
        lat = ideal.lattice.rmul_q(delta.conjugate()).scale(Fraction(1, n_i))
        return Ideal(lat, left=ideal._left, nrd=n), delta, n
    raise SamplingBudgetError("no equivalent prime-norm ideal found among small elements")


def _mod_constraint(j_prime: Ideal, gamma: Quaternion, n: int) -> tuple[int, int] | None:
    """(C, D) != 0 mod N with gamma*j*(C + D*i) in J', i.e. a kernel vector of
    the 4x2 system over F_N given by the J'-coordinates of gamma*j, -gamma*k."""
    alg = j_prime.alg
    _, _, jq, kq = alg.gens()
    lat = j_prime.lattice
    cu = [int(c * n) % n for c in lat.coords_of(gamma * jq)]
    cv = [int(c * n) % n for c in lat.coords_of(-(gamma * kq))]
    rows = [(cu[t], cv[t]) for t in range(4) if cu[t] or cv[t]]
    if not rows:
        return (1, 0)
    a0, b0 = rows[0]
    if a0:
        cc, dd = (-b0) * pow(a0, -1, n) % n, 1
    else:
        cc, dd = 1, 0  # b0 != 0 forces D = 0
    for a, b in rows[1:]:
        if (cc * a + dd * b) % n:
            return None
    return (cc, dd)


def equivalent_power_norm_ideal(ideal: Ideal, ell: int, rng: random.Random | None = None,
                                *, max_rounds: int = 8,
                                force_rebuild: bool = False) -> tuple[Ideal, Quaternion]:
    """Equivalent left O0-ideal of norm l^e, with the witness beta in I.

    Returns (J, beta) with J = I*conj(beta)/Nrd(I), Nrd(beta) = Nrd(I)*l^e,
    O_L(J) = O0 and J not divisible by l.  Strategy A is a KLPT pipeline for
    the special order; a direct enumeration fallback covers tiny instances.
    With force_rebuild an input that already has l-power norm is still
    replaced (used when a larger exponent is needed downstream).
    """
    rng = rng or random.Random(0)
    alg = ideal.alg
    p = alg.p
    o0 = standard_extremal_order(alg)
    if ideal.left_order() != o0:
        raise ValueError("equivalent_power_norm_ideal expects a left ideal of the extremal order O0")
    if ell == 2 or ell == p or not is_prime(ell):
        raise ValueError("l must be an odd prime different from p")

    n_i = ideal.nrd()
    # short-circuit: already an l-power-norm primitive ideal (with norm > p,
    # so that elements of that exact norm can exist primitively)
    t = n_i
    while t % ell == 0:
        t //= ell
    if t == 1 and not force_rebuild and (n_i == 1 or
                                         (n_i > p and _ideal_is_primitive(ideal, ell))):
        beta = alg.quaternion(n_i)
        return Ideal(ideal.lattice, left=o0, nrd=n_i), beta

    last_error: Exception | None = None
    for _ in range(max_rounds):
        try:
            return _klpt_special(ideal, ell, rng)
        except SamplingBudgetError as err:
            last_error = err
    try:
        return _equivalent_by_enumeration(ideal, ell, rng)
    except SamplingBudgetError:
        raise SamplingBudgetError(
            f"equivalent_power_norm_ideal failed after {max_rounds} KLPT rounds "
            f"and enumeration fallback: {last_error}")


def _klpt_special(ideal: Ideal, ell: int, rng: random.Random) -> tuple[Ideal, Quaternion]:
    alg = ideal.alg
    p = alg.p
    o0 = ideal.left_order()
    n_i = ideal.nrd()

    j_prime, delta, n = _equivalent_prime_norm(ideal, avoid=(2, p, ell))

    # gamma with Nrd = N * l^e0
    e0 = 1
    while n * ell ** e0 <= 16 * p:
        e0 += 1
    gamma = None
    for bump in range(3):
        try:
            gamma = represent_integer(o0, n * ell ** (e0 + bump), rng, budget=4000)
            e0 = e0 + bump
            break
        except SamplingBudgetError:
            continue
    if gamma is None:
        raise SamplingBudgetError("represent_integer failed for gamma")

    cd = _mod_constraint(j_prime, gamma, n)
    if cd is None:
        raise SamplingBudgetError("no mod-N constraint direction for this gamma")
    c, d = _small_projective_rep(cd[0], cd[1], n)
    big_r = p * (c * c + d * d)
    if big_r % n == 0:
        raise SamplingBudgetError("degenerate (C, D): N divides p(C^2+D^2)")

    chi_ell = _legendre(ell, n)
    chi_r = _legendre(big_r, n)
    e1 = 1
    while ell ** e1 <= 8 * p * n ** 3:
        e1 += 1
    if chi_ell == 1 and chi_r == -1:
        raise SamplingBudgetError("quadratic character obstruction; resample gamma")
    if chi_ell == -1 and ((-1) ** e1 == 1) != (chi_r == 1):
        e1 += 1

    for widen in range(3):
        t = ell ** (e1 + 2 * widen)
        mu = _strong_approximation(alg, p, n, c, d, t, rng)
        if mu is None:
            continue
        prod = gamma * mu
        if not j_prime.lattice.contains(prod):
            continue
        lat = j_prime.lattice.rmul_q(prod.conjugate()).scale(Fraction(1, n))
        if not o0.lattice.contains_lattice(lat):
            continue
        # strip the l-content: l^v * I' is equivalent to I' and the witness scales
        lat, v = _strip_l_content(lat, o0, ell)
        e_out = e0 + e1 + 2 * widen - 2 * v
        out = Ideal(lat, left=o0, nrd=ell ** e_out)
        if not _ideal_is_primitive(out, ell):
            continue
        beta = (gamma * mu * delta) / (n * ell ** v)
        assert ideal.lattice.contains(beta), "witness must lie in the input ideal"
        assert beta.reduced_norm() == n_i * out.nrd()
        check = ideal.lattice.rmul_q(beta.conjugate()).scale(Fraction(1, n_i))
        assert check == out.lattice
        return out, beta
    raise SamplingBudgetError("strong approximation failed at all widths")


def _strong_approximation(alg, p: int, n: int, c: int, d: int, t: int,
                          rng: random.Random, *, tries: int = 600) -> Quaternion | None:
    """mu = lambda*j*(C+Di) + N*nu with Nrd(mu) = t, or None."""
    big_r = p * (c * c + d * d)
    lam2 = t * pow(big_r, -1, n) % n
    lam = _sqrt_mod_prime(lam2, n)
    if lam is None or lam == 0:
        return None
    r1 = (t - lam * lam * big_r) // n % n

    # solve 2*lam*p*(C*z - D*w) = r1 mod N
    a_co = 2 * lam * p * c % n
    b_co = (-2 * lam * p * d) % n
    if a_co:
        inv = pow(a_co, -1, n)
        z0, w0 = r1 * inv % n, 0
        hom = ((-b_co * inv) % n, 1)
    elif b_co:
        inv = pow(b_co, -1, n)
        z0, w0 = 0, r1 * inv % n
        hom = (1, 0)  # z is free
    else:
        return None
    b1, b2 = _gauss_reduce_2d(*_planar_lattice_basis(hom, n))
    # Babai rounding of (z0, w0) against the reduced basis
    det = b1[0] * b2[1] - b1[1] * b2[0]
    if det == 0:
        return None
    s = Fraction(z0 * b2[1] - w0 * b2[0], det)
    u = Fraction(-z0 * b1[1] + w0 * b1[0], det)
    zs = z0 - round(s) * b1[0] - round(u) * b2[0]
    ws = w0 - round(s) * b1[1] - round(u) * b2[1]

    for _ in range(tries):
        da = rng.randint(-2, 2)
        db = rng.randint(-2, 2)
        z = zs + da * b1[0] + db * b2[0]
        w = ws + da * b1[1] + db * b2[1]
        num = t - big_r * lam * lam - 2 * lam * p * n * (c * z - d * w) - n * n * p * (z * z + w * w)
        if num < 0:
            continue
        assert num % (n * n) == 0
        r2 = num // (n * n)
        sol = _two_squares(r2)
        if sol is None:
            continue
        x, y = sol
        mu = alg.quaternion(n * x, n * y, lam * c + n * z, -lam * d + n * w)
        assert mu.reduced_norm() == t
        return mu
    return None


def _equivalent_by_enumeration(ideal: Ideal, ell: int, rng: random.Random,
                               *, max_exp: int = 40) -> tuple[Ideal, Quaternion]:
    """Fallback: enumerate beta in I with Nrd(beta)/Nrd(I) an l-power."""
    alg = ideal.alg
    n_i = ideal.nrd()
    lat = ideal.lattice
    red, _ = lll_reduce([list(r) for r in lat.mat], nrd_gram(alg.p))
    e = 1
    while e <= max_exp:
        bound = Fraction(n_i * ell ** e * lat.den ** 2)
        pts = enumerate_up_to(red, nrd_gram(alg.p), bound)
        if len(pts) > 200000:
            raise SamplingBudgetError("enumeration fallback exploded")
        for coeffs, val in sorted(pts, key=lambda cv: cv[1]):
            norm = val / lat.den ** 2
            q, rest = divmod(int(norm), n_i)
            if rest:
                continue
            ee, tq = 0, q
            while tq % ell == 0:
                tq //= ell
                ee += 1
            if tq != 1:
                continue
            vec = [sum(coeffs[t] * red[t][cc] for t in range(4)) for cc in range(4)]
            beta = alg.quaternion(Fraction(vec[0], lat.den), Fraction(vec[1], lat.den),
                                  Fraction(vec[2], lat.den), Fraction(vec[3], lat.den))
            out_lat = lat.rmul_q(beta.conjugate()).scale(Fraction(1, n_i))
            o0 = ideal.left_order()
            out_lat, v = _strip_l_content(out_lat, o0, ell)
            if 2 * v > ee:
                continue
            out = Ideal(out_lat, left=o0, nrd=ell ** (ee - 2 * v))
            if not _ideal_is_primitive(out, ell):
                continue
            return out, beta / ell ** v
        e += 2
    raise SamplingBudgetError("no l-power-norm equivalent found by enumeration")
