"""Exact rational quaternions over B_{p,oo} for p = 3 mod 4.

The algebra has basis 1, i, j, k with i^2 = -1, j^2 = -p and k = ij = -ji.
A quaternion is four integers over one positive denominator in lowest terms,
the same form as the rows of an `orders.Lattice4`, and `qmul` and `qnrd` are
the one product and norm formulas for both.  Coordinates, norms and traces
are handed out as `fractions.Fraction`; arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Union

Rat = Union[int, Fraction]

# Miller-Rabin to the first 12 prime bases is deterministic below
# psi_12 = 318665857834031151167461 (Sorenson-Webster, Math. Comp. 2017);
# above it a strong Lucas test is added, which makes the test Baillie-PSW.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 37 with no prime factor up to 37.

    Selfridge's parameters: D the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D)/4.  With n + 1 = d*2^s, n passes when
    U_d = 0 or V_(d*2^r) = 0 mod n for some 0 <= r < s.
    """
    if isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    disc = 5
    while (j := _jacobi(disc, n)) == 1:
        disc = -disc - 2 if disc > 0 else -disc + 2
    if j == 0:
        return n == abs(disc)
    q = (1 - disc) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1

    def half(x):
        return (x if x % 2 == 0 else x + n) // 2 % n

    # (U_k, V_k, Q^k) from k = 1 along the bits of d: k -> 2k, then k -> k + 1
    u, v, qk = 1, 1, q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(disc * u + v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic below psi_12; Baillie-PSW above it, with no known
    counterexample."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _strong_lucas(n)


class QuatAlgebra:
    """The quaternion algebra B_{p,oo} with p prime, p = 3 mod 4, p > 3."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p <= 3 or p % 4 != 3:
            raise ValueError(f"p must be a prime = 3 mod 4 greater than 3, got {p}")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, QuatAlgebra) and self.p == other.p

    def __hash__(self):
        return hash(("QuatAlgebra", self.p))

    def __repr__(self):
        return f"QuatAlgebra(p={self.p})"

    def quaternion(self, a0: Rat, a1: Rat = 0, a2: Rat = 0, a3: Rat = 0) -> "Quaternion":
        co = [Fraction(a) for a in (a0, a1, a2, a3)]
        den = lcm(*(c.denominator for c in co))
        return Quaternion(self, tuple(c.numerator * (den // c.denominator) for c in co), den)

    def zero(self) -> "Quaternion":
        return Quaternion(self, (0, 0, 0, 0))

    def one(self) -> "Quaternion":
        return Quaternion(self, (1, 0, 0, 0))

    def gens(self):
        """The basis quaternions 1, i, j, k."""
        one = self.quaternion(1)
        i = self.quaternion(0, 1)
        j = self.quaternion(0, 0, 1)
        k = self.quaternion(0, 0, 0, 1)
        return one, i, j, k


def qmul(x, y, p: int) -> tuple[int, int, int, int]:
    """Product of quaternions given by their coordinates as 4-tuples."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 - x1 * y1 - p * (x2 * y2 + x3 * y3),
        x0 * y1 + x1 * y0 + p * (x2 * y3 - x3 * y2),
        x0 * y2 + x2 * y0 - x1 * y3 + x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


def qnrd(x, p: int) -> int:
    """Reduced norm x0^2 + x1^2 + p*(x2^2 + x3^2) of the quaternion with
    coordinates x (a 4-tuple); over a denominator e it is divided by e^2."""
    x0, x1, x2, x3 = x
    return x0 * x0 + x1 * x1 + p * (x2 * x2 + x3 * x3)


class Quaternion:
    """Element (n0 + n1*i + n2*j + n3*k)/den of B_{p,oo}.

    Stored as four integers `num` over a positive integer `den` with
    gcd(den, *num) = 1, so equal quaternions have equal fields; zero is
    (0, 0, 0, 0)/1.  Instances are immutable by convention.
    """

    __slots__ = ("alg", "num", "den")

    def __init__(self, alg: QuatAlgebra, num: tuple[int, int, int, int], den: int = 1):
        if not den:
            raise ZeroDivisionError("quaternion denominator is zero")
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [v // g for v in num]
            den //= g
        self.alg = alg
        self.num = tuple(num)
        self.den = den

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(Fraction(v, self.den) for v in self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.den == other.den and self.num == other.num and self.alg == other.alg

    def __hash__(self):
        return hash((self.alg, self.num, self.den))

    def _check_same(self, other: "Quaternion"):
        if self.alg.p != other.alg.p:
            raise ValueError("quaternions live in different algebras (distinct p)")

    def __add__(self, other: "Quaternion") -> "Quaternion":
        self._check_same(other)
        d1, d2 = self.den, other.den
        return Quaternion(self.alg, [x * d2 + y * d1 for x, y in zip(self.num, other.num)], d1 * d2)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return self + -other

    def __neg__(self) -> "Quaternion":
        return Quaternion(self.alg, tuple(-v for v in self.num), self.den)

    def __mul__(self, other) -> "Quaternion":
        if isinstance(other, Quaternion):
            self._check_same(other)
            return Quaternion(self.alg, qmul(self.num, other.num, self.alg.p),
                              self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.alg, tuple(v * other.numerator for v in self.num),
                              self.den * other.denominator)
        return NotImplemented

    def __rmul__(self, other) -> "Quaternion":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other) -> "Quaternion":
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.alg, tuple(v * other.denominator for v in self.num),
                              self.den * other.numerator)
        self._check_same(other)
        return self * other.inverse()

    def conjugate(self) -> "Quaternion":
        n0, n1, n2, n3 = self.num
        return Quaternion(self.alg, (n0, -n1, -n2, -n3), self.den)

    def reduced_norm(self) -> Fraction:
        return Fraction(qnrd(self.num, self.alg.p), self.den ** 2)

    def reduced_trace(self) -> Fraction:
        return Fraction(2 * self.num[0], self.den)

    def inverse(self) -> "Quaternion":
        """conj(x)/Nrd(x): the conjugate numerator times den over nrd(num)."""
        n = qnrd(self.num, self.alg.p)
        if n == 0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        n0, n1, n2, n3 = self.num
        d = self.den
        return Quaternion(self.alg, (n0 * d, -n1 * d, -n2 * d, -n3 * d), n)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self):
        terms = []
        for c, sym in zip(self.coords(), ("", "i", "j", "k")):
            if c == 0:
                continue
            s = str(c) if not sym else (sym if abs(c) == 1 else f"{abs(c)}*{sym}")
            if sym and c < 0:
                s = "-" + s
            terms.append(s if not terms or s.startswith("-") else "+" + s)
        return "".join(terms) if terms else "0"

