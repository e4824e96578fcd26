"""Norm-equation solvers: Cornacchia (square roots modulo q^e from one
routine for every prime q, 2 included), RepresentInteger over the extremal
order, and equivalent ideals of prescribed l-power norm (desk-scale KLPT
for the special order, each round through its own prime norm N, its strong
approximation one deterministic walk over the finite disk of candidates).

All randomized searches are Las Vegas: outputs are verified before being
returned, randomness only affects the running time.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import islice, product
from math import gcd, isqrt

from .linalg import _val, hnf_rows
from .localization import _hensel_sqrt, _sqrt_mod_prime
from .orders import Ideal, Order, SamplingBudgetError, _check, standard_extremal_order
from .quat import Quaternion, _jacobi, is_prime, qnrd


# ---------------------------------------------------------------------------
# Cornacchia
# ---------------------------------------------------------------------------


def _sqrt_mod_prime_power(a: int, q: int, e: int) -> list[int]:
    """All x in [0, q^e) with x^2 = a mod q^e, for any prime q, sorted.

    The roots mod q are lifted one power of q at a time, keeping every
    r + t*q^k, t in [0, q), whose square is a mod q^(k+1).  Every root mod
    q^(k+1) reduces to a root mod q^k, so the list is complete, units or not.
    """
    if q == 2:
        roots = [a % 2]
    else:
        r = _sqrt_mod_prime(a, q)
        roots = [] if r is None else sorted({r, -r % q})
    mod = q
    for _ in range(e - 1):
        nxt = mod * q
        roots = [x for r in roots for x in range(r, nxt, mod) if (x * x - a) % nxt == 0]
        mod = nxt
    return sorted(roots)


def _factorize(n: int):
    """The prime powers (q, e) of n, q ascending, by trial division (desk
    scale), yielded as they are found, so a caller can stop early; primality
    is tested before the wheel and after each factor found, not on every
    step."""
    for q in (2, 3, 5):
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            yield q, e
    f = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    idx = 0
    prime = is_prime(n)
    while not prime and f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            yield f, e
            prime = is_prime(n)
        f += inc[idx]
        idx = (idx + 1) % 8
    if n > 1:
        yield n, 1


def _all_sqrts_mod(a: int, m: int) -> list[int]:
    """All x in [0, m) with x^2 = a mod m; [] at the first prime power of m
    with no root, before the rest of m is factored."""
    if m == 1:
        return [0]
    roots = [0]
    mod = 1
    for q, e in _factorize(m):
        part = _sqrt_mod_prime_power(a, q, e)
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
    for q, e in _factorize(m):
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
    norm n < p can be found, and without a solvable remainder it fails at once.

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
    elif any(_sum_of_two_squares(r) for r in (n, 4 * n - p, 4 * n - 2 * p) if r > 0):
        solve = _sum_of_two_squares
    else:
        raise SamplingBudgetError(f"no element of O0 has norm {n} < p")
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
            cand = Quaternion(alg, (x, y, c, dd))
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
            cand = Quaternion(alg, (x, y, c, dd), 2)
        if cand.reduced_norm() == n and o0.lattice.contains(cand):
            return cand
    raise SamplingBudgetError(f"no element of norm {n} found within budget {budget}")


# ---------------------------------------------------------------------------
# Equivalent ideal of l-power norm (KLPT for the special order)
# ---------------------------------------------------------------------------


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
        # mu = round(<b1, b2>/n1), ties to even as round() does
        mu, r = divmod(b1[0] * b2[0] + b1[1] * b2[1], n1)
        if 2 * r > n1 or (2 * r == n1 and mu % 2):
            mu += 1
        b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])
        if norm(b2) >= n1:
            return b1, b2
        b1, b2 = b2, b1


def _planar_lattice_basis(v: tuple[int, int], n: int):
    """Basis of Z*v + n*Z^2 as two rows."""
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


def _small_elements(ideal: Ideal):
    """Nonzero elements of the ideal from short coefficient combinations of
    its LLL-reduced basis (kept on the lattice), in a deterministic sweep."""
    lat = ideal.lattice
    red = lat._reduction()[0]
    columns = list(zip(*red))
    for radius in range(1, 16):
        for co in product(range(-radius, radius + 1), repeat=4):
            if max(abs(v) for v in co) != radius:
                continue
            vec = tuple(sum(c * v for c, v in zip(co, col)) for col in columns)
            yield Quaternion(lat.alg, vec, lat.den)


def _equivalent_prime_norms(ideal: Ideal, avoid: tuple[int, ...]):
    """The prime norms N of equivalent left O0-ideals J' = I*conj(delta)/Nrd(I),
    avoiding given primes, one for each new N, in the order of one sweep
    over 4000 small elements delta of I.

    Yields (delta, N) with Nrd(delta) = N*Nrd(I); J' itself is never built.
    """
    n_i, p = ideal.nrd(), ideal.alg.p
    seen = set(avoid)  # -delta gives the same N
    for delta in islice(_small_elements(ideal), 4000):
        n = qnrd(delta.num, p) // (delta.den * delta.den * n_i)
        if n <= 2 or n in seen or not is_prime(n):
            continue
        seen.add(n)
        yield delta, n


def _mod_constraint(ideal: Ideal, gamma: Quaternion, delta: Quaternion,
                    n: int) -> tuple[int, int] | None:
    """(C, D) != 0 mod N with gamma*j*(C + D*i) in J' = I*conj(delta)/Nrd(I).

    x lies in J' exactly when x*delta lies in N*I, as J'*delta = N*I.
    gamma*j*(C + D*i) = C*gamma*j - D*gamma*k, and gamma*j*delta and
    gamma*k*delta lie in O0*I = I, so (C, D) is a kernel vector of the 4x2
    system over F_N given by the I-coordinates of gamma*j*delta and
    -gamma*k*delta: the same kernel as on J' itself, so the same (C, D)."""
    alg, lat = ideal.alg, ideal.lattice
    jq, kq = Quaternion(alg, (0, 0, 1, 0)), Quaternion(alg, (0, 0, 0, 1))
    gj, gk = gamma * jq * delta, -(gamma * kq * delta)
    cu = [y % n for y in lat.coordinates(gj.num, gj.den)[1]]
    cv = [y % n for y in lat.coordinates(gk.num, gk.den)[1]]
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
                                *, force_rebuild: bool = False) -> tuple[Ideal, Quaternion]:
    """Equivalent left O0-ideal of norm l^e, with the witness beta in I.

    Returns (J, beta) with J = I*conj(beta)/Nrd(I), Nrd(beta) = Nrd(I)*l^e,
    O_L(J) = O0 and J not divisible by l.  KLPT for the special order: each
    of at most 8 rounds takes its own prime norm N, so an N that is
    obstructed for every gamma costs one round.  A successful round reduces
    one lattice, its output.
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
    l_power = ell ** _val(n_i, ell, n_i.bit_length()) == n_i
    if l_power and not force_rebuild and (n_i == 1 or
                                          (n_i > p and _ideal_is_primitive(ideal, ell))):
        beta = Quaternion(alg, (n_i, 0, 0, 0))
        return Ideal(ideal.lattice, left=o0, nrd=n_i), beta

    last_error: Exception | None = None
    for delta, n in islice(_equivalent_prime_norms(ideal, (2, p, ell)), 8):
        try:
            return _klpt_special(ideal, ell, rng, delta, n)
        except SamplingBudgetError as err:
            last_error = err
    raise SamplingBudgetError("equivalent_power_norm_ideal failed in at most 8 "
                              f"KLPT rounds, one per prime norm N: {last_error}")


def _klpt_special(ideal: Ideal, ell: int, rng: random.Random, delta: Quaternion,
                  n: int) -> tuple[Ideal, Quaternion]:
    """One KLPT round through J' = I*conj(delta)/Nrd(I) of prime norm N.

    gamma in O0 has norm N*l^e0, and mu = lambda*j*(C+Di) + N*nu, so that
    gamma*mu lies in J', has norm t = l^e1 with e1 least for t > 8pN^3 (one
    more for parity), so t < 8pN^3*l^2: one walk over the disk of at most about
    8*pi*l^2 candidates (_strong_approximation).  The round fails when no
    remainder there is a prime = 1 mod 4 or twice one.

    J' is read through I (`_mod_constraint`) and never built: the output
    J'*conj(gamma*mu)/N = I*conj(gamma*mu*delta)/(N*Nrd(I)) is one product
    of I, the round's only reduction, and the witness check compares it
    with I*conj(beta)/Nrd(I) by containment and covolume.
    """
    alg = ideal.alg
    p = alg.p
    o0 = ideal.left_order()
    n_i = ideal.nrd()

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

    cd = _mod_constraint(ideal, gamma, delta, n)
    if cd is None:
        raise SamplingBudgetError("no mod-N constraint direction for this gamma")
    c, d = _small_projective_rep(cd[0], cd[1], n)
    big_r = p * (c * c + d * d)
    if big_r % n == 0:
        raise SamplingBudgetError("degenerate (C, D): N divides p(C^2+D^2)")

    chi_ell = _jacobi(ell, n)
    chi_r = _jacobi(big_r, n)
    e1 = 1
    while ell ** e1 <= 8 * p * n ** 3:
        e1 += 1
    if chi_ell == 1 and chi_r == -1:
        raise SamplingBudgetError("quadratic character obstruction for this N")
    if chi_ell == -1 and ((-1) ** e1 == 1) != (chi_r == 1):
        e1 += 1

    mu = _strong_approximation(alg, p, n, c, d, ell ** e1)
    if mu is None:
        raise SamplingBudgetError("strong approximation: no remainder in the disk is solvable")
    prod = gamma * mu * delta
    lat = ideal.lattice.rmul_q(prod.conjugate() / (n * n_i))
    _check(o0.lattice.contains_lattice(lat), "gamma*mu must lie in J', so I' is integral")
    # strip the l-content: l^v * I' is equivalent to I' and the witness scales
    lat, v = _strip_l_content(lat, o0, ell)
    out = Ideal(lat, left=o0, nrd=ell ** (e0 + e1 - 2 * v))
    beta = prod / (n * ell ** v)
    _check(ideal.lattice.contains(beta), "witness must lie in the input ideal")
    _check(beta.reduced_norm() == n_i * out.nrd(), "witness norm must be Nrd(I)*Nrd(I')")
    _check(lat.equals_rmul(ideal.lattice, beta.conjugate() / n_i),
           "witness must map I onto the output ideal")
    return out, beta


def _strong_approximation(alg, p: int, n: int, c: int, d: int, t: int) -> Quaternion | None:
    """mu = lambda*j*(C+Di) + N*nu with Nrd(mu) = t, or None.

    mu = N*x + N*y*i + X*j + Y*k, where (X, Y) = lambda*(C, -D) mod N and
    t - p(X^2+Y^2) = 0 mod N^2: with lambda lifted to lambda^2*p(C^2+D^2) = t
    mod N^2, the coset lambda*(C, -D) + N*(Z*(D, C) + N*Z^2).  The walk visits
    each (X, Y) of the coset with p(X^2+Y^2) <= t once and stops at the first
    remainder (t - p(X^2+Y^2))/N^2 that _two_squares solves as x^2+y^2.  The
    disk has area pi*t/p and the coset index N^3, so it holds about
    pi*t/(p*N^3) points.
    """
    big_r = p * (c * c + d * d)
    target = t * pow(big_r, -1, n * n) % (n * n)
    lam = _sqrt_mod_prime(target, n)
    if lam is None:
        return None
    lam = _hensel_sqrt(target, n, 2, lam)
    b1, b2 = _gauss_reduce_2d(*_planar_lattice_basis((d % n, c % n), n))
    for x_co, y_co in _disk_points((lam * c, -lam * d), (n * b1[0], n * b1[1]),
                                   (n * b2[0], n * b2[1]), t // p):
        num = t - p * (x_co * x_co + y_co * y_co)
        _check(num % (n * n) == 0, "strong approximation remainder must be divisible by N^2")
        sol = _two_squares(num // (n * n))
        if sol is not None:
            mu = Quaternion(alg, (n * sol[0], n * sol[1], x_co, y_co))
            _check(mu.reduced_norm() == t, "strong approximation must hit the target norm")
            return mu
    return None


def _disk_points(q0, u, v, bound: int):
    """Every q0 + a*u + b*v with |.|^2 <= bound, once, for a planar basis u, v:
    b ascending, then a.  On the row q = w + a*u, |q|^2 <= bound exactly when
    (u.q)^2 <= |u|^2*bound - (u x w)^2, so rows and ranges are integer tests;
    with u the shorter vector of a reduced basis, few rows are empty."""
    uu = u[0] * u[0] + u[1] * u[1]
    det = u[0] * v[1] - u[1] * v[0]
    if det < 0:
        v, det = (-v[0], -v[1]), -det
    c0 = u[0] * q0[1] - u[1] * q0[0]
    s = isqrt(uu * bound)
    for b in range(-((s + c0) // det), (s - c0) // det + 1):
        w = (q0[0] + b * v[0], q0[1] + b * v[1])
        cross = c0 + b * det
        r = isqrt(uu * bound - cross * cross)
        uw = u[0] * w[0] + u[1] * w[1]
        for a in range(-((r + uw) // uu), (r - uw) // uu + 1):
            yield (w[0] + a * u[0], w[1] + a * u[1])
