"""l-adic machinery: square roots mod l and their Hensel lift, splitting
O0 (x) Z_l = Mat_2 truncated at Z/l^m, right-gcd of 2x2 Hermite normal forms
and local ideal generators.
"""

from __future__ import annotations

from .linalg import _val, hnf_rows, snf_prime_power
from .orders import Ideal, Order
from .quat import Quaternion, is_prime

Mat2 = tuple[tuple[int, int], tuple[int, int]]


class VerificationError(Exception):
    """A computed result failed its final check: an internal fault, never
    retried (it is neither a ValueError nor a budget or precondition error)."""


def _check(ok: bool, what: str):
    """Raise VerificationError unless ok; unlike assert, survives python -O."""
    if not ok:
        raise VerificationError(what)


def _sqrt_mod_prime(a: int, ell: int) -> int | None:
    """Tonelli-Shanks; deterministic nonresidue search, None if no root."""
    a %= ell
    if a == 0:
        return 0
    if pow(a, (ell - 1) // 2, ell) != 1:
        return None
    if ell % 4 == 3:
        return pow(a, (ell + 1) // 4, ell)
    q, s = ell - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (ell - 1) // 2, ell) != ell - 1:
        z += 1
    m, c, t, r = s, pow(z, q, ell), pow(a, q, ell), pow(a, (q + 1) // 2, ell)
    while t != 1:
        i, t2 = 1, t * t % ell
        while t2 != 1:
            t2 = t2 * t2 % ell
            i += 1
        b = pow(c, 1 << (m - i - 1), ell)
        r, c, t, m = r * b % ell, b * b % ell, t * b * b % ell, i
    return r


def _hensel_sqrt(a: int, ell: int, e: int, r: int) -> int:
    """Lift r with r^2 = a mod l to the unique root = r mod l^e (l odd, a a unit mod l)."""
    mod = ell
    for _ in range(e - 1):
        mod *= ell
        f = (r * r - a) % mod
        r = (r - f * pow(2 * r, -1, mod)) % mod
    return r


def _mat_mul2(a: Mat2, b: Mat2, mod: int) -> Mat2:
    return (
        ((a[0][0] * b[0][0] + a[0][1] * b[1][0]) % mod,
         (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % mod),
        ((a[1][0] * b[0][0] + a[1][1] * b[1][0]) % mod,
         (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % mod),
    )


class Splitting:
    """Ring isomorphism O0/l^m O0 -> Mat_2(Z/l^m Z) for an odd prime l != p.

    i maps to [[0,1],[-1,0]] and j to [[a,b],[b,-a]] with a^2+b^2 = -p
    mod l^m, found by search mod l followed by Hensel lifting; k = ij then
    maps to [[b,-a],[-a,-b]].  Both directions are closed forms: with
    s = (m00-m11)/2 and t = (m01+m10)/2 the preimage of a matrix is
    x0 = (m00+m11)/2, x1 = (m01-m10)/2, x2 = -(a*s + b*t)/p and
    x3 = -(b*s - a*t)/p, because a*s + b*t = (a^2+b^2)*x2.
    """

    def __init__(self, o0: Order, ell: int, m: int):
        p = o0.alg.p
        if ell == 2 or ell == p or not is_prime(ell):
            raise ValueError("l must be an odd prime different from p")
        if m < 1:
            raise ValueError("precision exponent must be >= 1")
        self.order = o0
        self.ell = ell
        self.m = m
        self.mod = ell ** m
        self.a, self.b = self._solve_a_b(p, ell, m)

    @staticmethod
    def _solve_a_b(p: int, ell: int, m: int) -> tuple[int, int]:
        target = (-p) % ell
        for a in range(ell):
            b2 = (target - a * a) % ell
            b = _sqrt_mod_prime(b2, ell)
            if b is not None and b % ell != 0:
                break
        else:
            raise ValueError("no splitting pair found mod l")
        b = _hensel_sqrt(-p - a * a, ell, m, b)  # fix a, lift b with 2b invertible
        _check((a * a + b * b + p) % (ell ** m) == 0, "the Hensel lift must split mod l^m")
        return a, b

    def to_matrix(self, x: Quaternion) -> Mat2:
        """Image of x in Mat_2(Z/l^m); denominators must be prime to l."""
        mod = self.mod
        if x.den % self.ell == 0:
            raise ValueError("denominator not invertible mod l^m")
        inv = pow(x.den, -1, mod)
        a, b = self.a, self.b
        x0, x1, x2, x3 = x.num
        s, t = a * x2 + b * x3, b * x2 - a * x3
        return (((x0 + s) * inv % mod, (x1 + t) * inv % mod),
                ((t - x1) * inv % mod, (x0 - s) * inv % mod))

    def from_matrix(self, mat: Mat2) -> Quaternion:
        """Lift of the preimage, coordinates reduced into [0, l^m)."""
        mod, a, b = self.mod, self.a, self.b
        half, inv_neg_p = (mod + 1) // 2, pow(-self.order.alg.p, -1, mod)
        (m00, m01), (m10, m11) = mat
        s, t = (m00 - m11) * half, (m01 + m10) * half
        return self.order.alg.quaternion(
            (m00 + m11) * half % mod, (m01 - m10) * half % mod,
            (a * s + b * t) * inv_neg_p % mod, (b * s - a * t) * inv_neg_p % mod)


def split_order(o0: Order, ell: int, m: int) -> Splitting:
    return Splitting(o0, ell, m)


# ---------------------------------------------------------------------------
# Normal forms and right-gcd in Mat_2(Z_l)
# ---------------------------------------------------------------------------


def _is_normal_form(a: Mat2, ell: int) -> bool:
    (x, r), (z, y) = a
    if z != 0:
        return False
    for v in (x, y):
        if v <= 0 or ell ** _val(v, ell, v.bit_length()) != v:
            return False
    return 0 <= r < y


def hnf2_mod(mat: Mat2, ell: int, m: int) -> Mat2:
    """Normal form [[l^n, r], [0, l^m']] of the left ideal generated by mat
    in Mat_2(Z/l^m), pivots normalized to exact powers of l."""
    mod = ell ** m
    rows = [[mat[0][0] % mod, mat[0][1] % mod], [mat[1][0] % mod, mat[1][1] % mod],
            [mod, 0], [0, mod]]
    h = hnf_rows(rows)
    # h has two rows [[g1, t], [0, g2]] with g1, g2 dividing l^m
    g1, t = h[0]
    g2 = h[1][1] if len(h) > 1 else mod
    v1, v2 = _val(g1, ell, m), _val(g2, ell, m)
    u1 = g1 // ell ** v1
    piv2 = ell ** v2
    r = t * pow(u1, -1, mod) % piv2 if piv2 > 1 else 0
    return ((ell ** v1, r), (0, piv2))


def rgcd_hnf(a1: Mat2, a2: Mat2, ell: int) -> Mat2:
    """Right-gcd of two normal-form matrices: generator of the ideal sum.

    With A_i = [[l^{n_i}, r_i], [0, l^{m_i}]] and n_2 >= n_1 after swapping,
    the result is [[l^{n_1}, r_1 mod l^mhat], [0, l^mhat]] where
    mhat = min(m_1, m_2, val(r_2 - l^{n_2-n_1} r_1)).
    """
    if not _is_normal_form(a1, ell) or not _is_normal_form(a2, ell):
        raise ValueError("inputs must be in the normal form [[l^n, r], [0, l^m]]")
    if a2[0][0] < a1[0][0]:
        a1, a2 = a2, a1
    (x1, r1), (_, y1) = a1
    (x2, r2), (_, y2) = a2
    # pivots are exact powers of l: l^(n2-n1) = x2/x1 and l^mhat = min(y1, y2, l^val(diff))
    diff = r2 - x2 // x1 * r1
    piv = min(y1, y2) if diff == 0 else min(y1, y2, ell ** _val(diff, ell, diff.bit_length()))
    return ((x1, r1 % piv), (0, piv))


# ---------------------------------------------------------------------------
# LocalGenerator
# ---------------------------------------------------------------------------


def _local_normal_form_of_ideal(ideal: Ideal, splitting: Splitting) -> Mat2:
    acc = None
    for b in ideal.basis():
        nf = hnf2_mod(splitting.to_matrix(b), splitting.ell, splitting.m)
        acc = nf if acc is None else rgcd_hnf(acc, nf, splitting.ell)
    return acc


def local_generator(ell: int, ideal: Ideal, alpha: Quaternion) -> tuple[Quaternion, Quaternion]:
    """Given a left O0-ideal I of norm l^m with l-type (0, m) and alpha of
    reduced norm l^m, return (alpha, x) with Nrd(x) prime to l and alpha*x
    generating I locally at l; in fact alpha*x lies in I globally.
    """
    o0 = ideal.left_order()
    n = ideal.nrd()
    m = _val(n, ell, n.bit_length() + 2)
    if ell ** m != n:
        raise ValueError(f"ideal norm {n} is not a power of {ell}")
    if alpha.reduced_norm() != n:
        raise ValueError("Nrd(alpha) must equal the ideal norm")
    if m == 0:
        return alpha, o0.alg.one()

    split = Splitting(o0, ell, m)
    m_alpha = split.to_matrix(alpha)
    m_beta = _local_normal_form_of_ideal(ideal, split)
    # types must agree, else no invertible local y exists.  Both norms are
    # l^m, so a type is (0, m) exactly when its local matrix is nonzero mod l,
    # i.e. I is not inside l*O0 and alpha is not in l*O0.
    ideal_primitive = any(v % ell for row in m_beta for v in row)
    alpha_primitive = any(v % ell for row in m_alpha for v in row)
    if ideal_primitive != alpha_primitive:
        raise ValueError(f"l-type mismatch: ideal {'' if ideal_primitive else 'not '}(0, {m}), "
                         f"alpha {'' if alpha_primitive else 'not '}(0, {m})")
    if not ideal_primitive:
        raise ValueError(f"ideal is divisible by {ell}: l-type not (0, {m})")

    s1, d1, t1 = snf_prime_power([list(m_alpha[0]), list(m_alpha[1])], ell, m)
    s2, d2, t2 = snf_prime_power([list(m_beta[0]), list(m_beta[1])], ell, m)
    _check(d1 == d2, "equal l-types must give equal local Smith forms")
    mod = split.mod
    t1m = ((t1[0][0], t1[0][1]), (t1[1][0], t1[1][1]))
    t2m = ((t2[0][0], t2[0][1]), (t2[1][0], t2[1][1]))
    t2_inv = _inv2_mod(t2m, mod)
    t_mat = _mat_mul2(t1m, t2_inv, mod)
    x = split.from_matrix(t_mat)

    if x.reduced_norm() % ell == 0:
        raise ArithmeticError("constructed x has norm divisible by l")
    prod = alpha * x
    if not ideal.lattice.contains(prod):
        raise ArithmeticError("alpha*x does not lie in the ideal")
    return alpha, x


def _inv2_mod(a: Mat2, mod: int) -> Mat2:
    det = (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % mod
    inv = pow(det, -1, mod)
    return ((a[1][1] * inv % mod, -a[0][1] * inv % mod),
            (-a[1][0] * inv % mod, a[0][0] * inv % mod))
