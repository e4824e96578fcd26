"""Maximal orders and integral ideals of B_{p,oo} as rank-4 lattices.

A lattice is stored as a 4x4 integer basis matrix (rows are coordinates on
1, i, j, k) together with a common positive denominator, canonicalized to
Hermite normal form so that structural equality is mathematical equality.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product
from fractions import Fraction
from math import gcd, lcm, isqrt

from .linalg import _least, _lll, _shortest, hnf_rows, kernel_basis, shortest_vector
from .quat import QuatAlgebra, Quaternion, qmul, qnrd


class SamplingBudgetError(RuntimeError):
    """A randomized search exhausted its retry budget."""


class VerificationError(Exception):
    """A computed result failed its final check: an internal fault, never
    retried (it is neither a ValueError nor a budget or precondition error)."""


def _check(ok: bool, what: str):
    """Raise VerificationError unless ok; unlike assert, survives python -O."""
    if not ok:
        raise VerificationError(what)


def nrd_gram(p: int) -> list[list[int]]:
    """Gram matrix of the reduced norm form on coordinates (1, i, j, k): the
    integer diagonal (1, 1, p, p)."""
    d = [1, 1, p, p]
    return [[d[i] if i == j else 0 for j in range(4)] for i in range(4)]


def _det3(a, b, c, d, e, f, g, h, i) -> int:
    """Determinant of the 3x3 matrix with rows (a, b, c), (d, e, f), (g, h, i)."""
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _det4(m) -> int:
    """Determinant of a 4x4 integer matrix by cofactor expansion."""
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = m
    return (
        m00 * _det3(m11, m12, m13, m21, m22, m23, m31, m32, m33)
        - m01 * _det3(m10, m12, m13, m20, m22, m23, m30, m32, m33)
        + m02 * _det3(m10, m11, m13, m20, m21, m23, m30, m31, m33)
        - m03 * _det3(m10, m11, m12, m20, m21, m22, m30, m31, m32)
    )


class Lattice4:
    """Full rank-4 Z-lattice in B_{p,oo}, canonical HNF basis over a denominator.

    Membership and coordinates have one kernel.  The HNF basis H (`mat`) is
    upper triangular with positive pivots, so D = det(H) = h00*h11*h22*h33,
    and adj(H) = D*H^-1 is an upper-triangular integer matrix whose 10
    entries are closed-form cofactors.  An integer row w over a denominator
    e is w/e = x*H/den for the coordinates x = w*A/(e*D), A = den*adj(H).
    So w/e lies in the lattice exactly when all four entries of w*A are
    0 mod e*D: an exact integer test, one product per row.  A and D depend
    only on `mat` and `den`, which never change, so they are computed on
    first use and kept, like the HNF itself.

    So is the LLL reduction of H under the reduced norm (`_reduction`): a
    lattice is reduced once, whichever of KLPT's small elements, the
    shortest vector and the minimal vectors asks first.
    """

    __slots__ = ("alg", "mat", "den", "_inv", "_red")

    def __init__(self, alg: QuatAlgebra, rows, den: int = 1, *, _canonical=False):
        self.alg = alg
        self._inv = None
        self._red = None
        if _canonical:
            self.mat = rows
            self.den = den
            return
        if den <= 0:
            raise ValueError("denominator must be positive")
        reduced = hnf_rows([list(r) for r in rows])
        if len(reduced) != 4:
            raise ValueError(f"lattice has rank {len(reduced)}, expected 4")
        g = gcd(den, *(v for row in reduced for v in row))
        self.mat = tuple(tuple(v // g for v in row) for row in reduced)
        self.den = den // g

    def basis(self) -> list[Quaternion]:
        return [Quaternion(self.alg, r, self.den) for r in self.mat]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Lattice4) and self.alg == other.alg
                and self.den == other.den and self.mat == other.mat)

    def __hash__(self):
        return hash((self.alg, self.den, self.mat))

    def __repr__(self):
        return f"Lattice4(den={self.den}, mat={[list(r) for r in self.mat]})"

    def det(self) -> Fraction:
        """Determinant of the basis: the HNF is upper triangular, so its diagonal product."""
        return Fraction(self._diag(), self.den ** 4)

    def _diag(self) -> int:
        """det(H) = h00*h11*h22*h33 > 0, so that det() = _diag()/den^4: the
        covolume tests compare it with den^4 times their target, in integers."""
        m = self.mat
        return m[0][0] * m[1][1] * m[2][2] * m[3][3]

    def _inverse(self) -> tuple[int, ...]:
        """The upper triangle of A = den*adj(H), row by row, and D = det(H):
        (a00, a01, a02, a03, a11, a12, a13, a22, a23, a33, D), kept."""
        if self._inv is None:
            (a, b, c, d), (_, e, f, g), (_, _, h, i), (_, _, _, j) = self.mat
            s, fi_gh, hj = self.den, f * i - g * h, h * j
            self._inv = (s * e * hj, -s * b * hj, s * (b * f - c * e) * j,
                         s * (c * e * i - b * fi_gh - d * e * h),
                         s * a * hj, -s * a * f * j, s * a * fi_gh,
                         s * a * e * j, -s * a * e * i,
                         s * a * e * h,
                         a * e * hj)
        return self._inv

    def coordinates(self, v, den: int) -> tuple[int, list[int]]:
        """(E, y) with y/E the coordinates of v/den (v an integer row) on the
        basis, E > 0 least: v*A over den*D, in lowest terms."""
        a00, a01, a02, a03, a11, a12, a13, a22, a23, a33, d = self._inverse()
        w0, w1, w2, w3 = v
        y = (w0 * a00, w0 * a01 + w1 * a11, w0 * a02 + w1 * a12 + w2 * a22,
             w0 * a03 + w1 * a13 + w2 * a23 + w3 * a33)
        m = den * d
        g = gcd(m, *y)
        return m // g, [t // g for t in y]

    def contains(self, q: Quaternion) -> bool:
        return self._contains_rows((q.num,), q.den)

    def _contains_rows(self, rows, den: int) -> bool:
        """Whether every row/den (integer rows) lies in the lattice: all four
        entries of row*A are 0 mod den*D (see the class docstring)."""
        a00, a01, a02, a03, a11, a12, a13, a22, a23, a33, d = self._inverse()
        m = den * d
        for w0, w1, w2, w3 in rows:
            if ((w0 * a00) % m or (w0 * a01 + w1 * a11) % m
                    or (w0 * a02 + w1 * a12 + w2 * a22) % m
                    or (w0 * a03 + w1 * a13 + w2 * a23 + w3 * a33) % m):
                return False
        return True

    def contains_lattice(self, other: "Lattice4") -> bool:
        return self._contains_rows(other.mat, other.den)

    def contains_rmul(self, other: "Lattice4", q: Quaternion) -> bool:
        """Whether other*q <= self, tested on the four product rows without
        building the lattice other*q."""
        p = self.alg.p
        return self._contains_rows([qmul(row, q.num, p) for row in other.mat], other.den * q.den)

    def equals_rmul(self, other: "Lattice4", q: Quaternion) -> bool:
        """Whether self = other*q, with no HNF.  Right multiplication by q
        scales the covolume by Nrd(q)^2, so other*q <= self (four product
        rows) with det(other)*Nrd(q)^2 = det(self) is equality; q = 0 fails
        the second condition."""
        nq = qnrd(q.num, self.alg.p)
        # over the denominators den^4 and q.den^4
        return (other._diag() * nq * nq * self.den ** 4
                == self._diag() * (other.den * q.den) ** 4
                and self.contains_rmul(other, q))

    def contains_product(self, a: "Lattice4", b: "Lattice4", q: Quaternion | None = None) -> bool:
        """Whether a*b <= self (a*b*q <= self for a quaternion q), tested on
        the 16 products of basis rows, each row of b times q first, without
        building the lattice a*b."""
        p, rows, den = self.alg.p, b.mat, a.den * b.den
        if q is not None:
            rows, den = [qmul(y, q.num, p) for y in rows], den * q.den
        return self._contains_rows([qmul(x, y, p) for x in a.mat for y in rows], den)

    def is_left_o0_module(self) -> bool:
        """Whether O0*L <= L for the extremal order O0 = <1, i, (i+j)/2, (1+k)/2>,
        tested on the 8 products g*x, x a basis row, of its ring generators
        g = i and (i+j)/2.

        {a : a*L <= L} is a ring with 1.  Once it holds i and (i+j)/2, it
        holds i*(i+j)/2 = (i^2 + i*j)/2 = (k-1)/2, so (1+k)/2 as well, and
        with 1, i and (i+j)/2 that is a Z-basis of O0.  So the 8 products
        decide what the 16 products of O0's basis with L's decide.
        """
        p = self.alg.p
        rows = [qmul(g, x, p) for g in ((0, 2, 0, 0), (0, 1, 1, 0)) for x in self.mat]
        return self._contains_rows(rows, 2 * self.den)

    def add(self, other: "Lattice4") -> "Lattice4":
        d = lcm(self.den, other.den)
        rows = [[v * (d // self.den) for v in r] for r in self.mat]
        rows += [[v * (d // other.den) for v in r] for r in other.mat]
        return Lattice4(self.alg, rows, d)

    def mul(self, other: "Lattice4") -> "Lattice4":
        return _lattice_mul(self, other)

    def scale(self, c) -> "Lattice4":
        """c*L without a new HNF: a positive multiple of an HNF basis is in
        HNF, so only the content shared with the new denominator is removed.
        c is an int or a Fraction."""
        if c == 0:
            raise ValueError("cannot scale a lattice by zero")
        num, den = abs(c.numerator), self.den * c.denominator
        g = gcd(den, num * gcd(*(v for r in self.mat for v in r)))
        mat = tuple(tuple(v * num // g for v in r) for r in self.mat)
        return Lattice4(self.alg, mat, den // g, _canonical=True)

    def rmul_q(self, q: Quaternion) -> "Lattice4":
        """The lattice L*q; a rational q is a scaling, with no HNF."""
        if q.is_zero():
            raise ValueError("cannot multiply a lattice by zero")
        if not any(q.num[1:]):
            return self.scale(Fraction(q.num[0], q.den))
        p = self.alg.p
        return Lattice4(self.alg, [qmul(r, q.num, p) for r in self.mat], self.den * q.den)

    def lmul_q(self, q: Quaternion) -> "Lattice4":
        """The lattice q*L; a rational q is a scaling, with no HNF."""
        if q.is_zero():
            raise ValueError("cannot multiply a lattice by zero")
        if not any(q.num[1:]):
            return self.scale(Fraction(q.num[0], q.den))
        p = self.alg.p
        return Lattice4(self.alg, [qmul(q.num, r, p) for r in self.mat], self.den * q.den)

    def conjugate(self) -> "Lattice4":
        """conj(L) in HNF without a new reduction.

        Conjugation negates columns 1-3 of the HNF basis H; negating rows
        1-3 as well gives rows 1-3 of H back, so only row 0's entries in
        columns 1-3 change sign.  Size-reducing them into [0, pivot) against
        rows 1, 2, 3 in turn, as the HNF requires, gives the HNF.  The
        content and denominator are those of L.
        """
        h = self.mat
        top = [h[0][0], -h[0][1], -h[0][2], -h[0][3]]
        for r in (1, 2, 3):
            q = top[r] // h[r][r]
            if q:
                for c in range(r, 4):
                    top[c] -= q * h[r][c]
        return Lattice4(self.alg, (tuple(top),) + h[1:], self.den, _canonical=True)

    def intersect(self, other: "Lattice4") -> "Lattice4":
        d = lcm(self.den, other.den)
        a = [[v * (d // self.den) for v in r] for r in self.mat]
        b = [[v * (d // other.den) for v in r] for r in other.mat]
        # x = u*a = v*b  <=>  (u, v) in kernel of [a^T | -b^T]
        sys = [[a[r][c] for r in range(4)] + [-b[r][c] for r in range(4)] for c in range(4)]
        ker = kernel_basis(sys)
        rows = []
        for vec in ker:
            rows.append([sum(vec[t] * a[t][c] for t in range(4)) for c in range(4)])
        return Lattice4(self.alg, rows, d)

    def index_in(self, other: "Lattice4") -> Fraction:
        """[other : self] as a positive rational (integer when self <= other)."""
        return abs(self.det() / other.det())

    def _reduction(self):
        """(b, u, d, lam): the LLL reduction of the HNF basis under the
        integer form nrd(row) = den^2*Nrd (`linalg._lll`), computed once."""
        if self._red is None:
            p = self.alg.p
            self._red = _lll(self.mat, lambda x, y: x[0] * y[0] + x[1] * y[1]
                             + p * (x[2] * y[2] + x[3] * y[3]))
        return self._red

    def _least_bound(self) -> int:
        """The least nrd(row) over the reduced basis: a form value that a
        nonzero vector attains, so an enumeration bound for the minimum."""
        p = self.alg.p
        return min(qnrd(r, p) for r in self._reduction()[0])

    def min_nonzero_norm(self) -> tuple[Quaternion, Fraction]:
        """Shortest nonzero vector under the reduced norm, deterministic."""
        _, vec, val = _shortest(self.mat, self._reduction(), self._least_bound())
        return Quaternion(self.alg, tuple(vec), self.den), val / self.den ** 2

    def _minimal_rows(self) -> list[list[int]]:
        """The integer rows of the elements of least reduced norm, one of
        each +-pair; each element is row/den."""
        reduction = self._reduction()
        red = reduction[0]
        _, _, xs = _least(reduction, self._least_bound())
        return [[sum(x[t] * red[t][c] for t in range(4)) for c in range(4)] for x in xs]


@lru_cache(maxsize=8)
def _lattice_mul(a: Lattice4, b: Lattice4) -> Lattice4:
    """a*b from the 16 products of basis rows, memoized by value.

    When 1 is in a and a*b <= b, a*b is b (b = 1*b <= a*b), decided on the
    16 products with no HNF: a ring acting on a lattice, such as
    conj(O0)*I = I for a left O0-ideal I, costs no reduction.  A completion
    builds J11 and J21, and its certificate check builds them again; the
    few most recent products are kept so each is reduced once.  Lattices
    are immutable, so a kept result can be shared.
    """
    if a._contains_rows(((1, 0, 0, 0),), 1) and b.contains_product(a, b):
        return b
    p = a.alg.p
    return Lattice4(a.alg, [qmul(x, y, p) for x in a.mat for y in b.mat], a.den * b.den)


def _unit_order(lat: Lattice4, left: bool) -> "Order":
    """O_L(L) = L*conj(L)/n or O_R(L) = conj(L)*L/n with n = Nrd(L) = sqrt(4*|det L|).

    Certified on every call, without `Order`'s closure test.  Every order of
    B_{p,oo} lies in a maximal order, and every maximal order has covolume
    1/4 on (1, i, j, k), so every order has covolume >= 1/4, with equality
    only for maximal orders (Voight, Quaternion Algebras, ch. 15-16).  The
    candidate Lambda passes two checks: its covolume is 1/4, and
    Lambda*L <= L (L*Lambda <= L for the right order).  The second puts
    Lambda inside O_L(L) (O_R(L)), which is an order, so that order has
    covolume <= 1/4; hence it equals Lambda and is maximal.  Raises
    ValueError when the order of L is not maximal.

    4*covolume is 4*D/den^4 with D = `_diag()`, a rational square exactly
    when 4*D is an integer square s^2; then n = s/den^2.  The order keeps L
    for its units (`Order.units`)."""
    p, mat, den = lat.alg.p, lat.mat, lat.den
    idx = 4 * lat._diag()
    s = isqrt(idx)
    g = gcd(s, den * den)
    conj = [(r[0], -r[1], -r[2], -r[3]) for r in mat]
    pairs = product(mat, conj) if left else product(conj, mat)
    try:
        if s * s != idx:
            raise ValueError(f"4*covolume {Fraction(idx, den ** 4)} is not a square")
        o = Lattice4(lat.alg, [[v * (den * den // g) for v in qmul(x, y, p)] for x, y in pairs],
                     den * den * (s // g))
        if 4 * o._diag() != o.den ** 4:
            raise ValueError(f"the candidate order has covolume {o.det()}")
        if not (lat.contains_product(o, lat) if left else lat.contains_product(lat, o)):
            raise ValueError("the candidate order does not act on the lattice")
    except ValueError as err:
        raise ValueError(f"not an ideal of a maximal order: {err}") from None
    order = Order(o, _certified=True)
    order._ideal = (lat, left)
    return order


def left_order(lat: Lattice4) -> "Order":
    """O_L(L) = {a : a*L <= L} = L*conj(L)/Nrd(L)."""
    return _unit_order(lat, left=True)


def right_order(lat: Lattice4) -> "Order":
    """O_R(L) = {a : L*a <= L} = conj(L)*L/Nrd(L)."""
    return _unit_order(lat, left=False)


class Order:
    """An order in B_{p,oo}.

    `Order(lattice)` checks that the lattice is an order: it contains 1, its
    basis elements have integral trace and norm, and the 16 products of
    basis elements lie in it.  The library builds an order without that
    test only where it is already proven, through the private keyword
    `_certified=True`: `left_order`/`right_order` (see `_unit_order`) and
    `conjugate_by`, whose g^-1*O*g is the image of O under an algebra
    automorphism.

    Its units and its trace-zero minimum are computed on first use and kept
    on the object.  An order made by `left_order`/`right_order` keeps the
    lattice it was made from (`_ideal`, with the side), from which `units`
    reads its units.
    """

    __slots__ = ("lattice", "_units", "_trace_zero_min", "_ideal")

    def __init__(self, lattice: Lattice4, *, _certified=False):
        self.lattice = lattice
        self._units = None
        self._trace_zero_min = None
        self._ideal = None
        if _certified:
            return
        # basis element x = row/den: trace 2*row[0]/den, norm nrd(row)/den^2,
        # and x*y = row_x*row_y/den^2
        p, mat, den = lattice.alg.p, lattice.mat, lattice.den
        if not lattice._contains_rows(((1, 0, 0, 0),), 1):
            raise ValueError("order must contain 1")
        for x in mat:
            if (2 * x[0]) % den or qnrd(x, p) % (den * den):
                raise ValueError("order elements must have integral trace and norm")
            if not lattice._contains_rows([qmul(x, y, p) for y in mat], den * den):
                raise ValueError("lattice is not closed under multiplication")

    @property
    def alg(self) -> QuatAlgebra:
        return self.lattice.alg

    def __eq__(self, other) -> bool:
        return isinstance(other, Order) and self.lattice == other.lattice

    def __hash__(self):
        return hash(("Order", self.lattice))

    def __repr__(self):
        return f"Order({self.lattice!r})"

    def basis(self) -> list[Quaternion]:
        return self.lattice.basis()

    def reduced_discriminant(self) -> int:
        """4p*covolume, as the Gram determinant of Trd(x*conj(y)) is 16p^2*covolume^2."""
        return 4 * self.alg.p * self.lattice._diag() // self.lattice.den ** 4

    def is_maximal(self) -> bool:
        return self.reduced_discriminant() == self.alg.p

    def units(self) -> list[Quaternion]:
        """All elements of reduced norm 1: 2, 4 or 6 of them, as p > 3.

        For O = O_R(L), fix an element y of least reduced norm in L.  A unit
        u gives y*u in L*O <= L with Nrd(y*u) = Nrd(y), so y*u is one of the
        minimal vectors s of L, and u = y^-1*s.  Conversely a y^-1*s in O has
        reduced norm 1, and an element of norm 1 of an order is a unit
        (its inverse is its conjugate trd - x).  So the units are the
        y^-1*s that pass the membership kernel; for O = O_L(L) they are
        the s*y^-1.  An order made by `left_order`/`right_order` reads them
        from the L it was made from, whose reduction KLPT shares for a
        node's frame.  Any other order (O0, `Order(...)`, `conjugate_by`) is
        its own L, as O_R(O) = O, and y = 1: its units are its minimal
        vectors, in the order its reduction gives them.
        """
        if self._units is None:
            self._units = self._units_from_ideal(*(self._ideal or (self.lattice, False)))
        return self._units

    def _units_from_ideal(self, lat: Lattice4, left: bool) -> list[Quaternion]:
        """The units of O = O_L(lat) (left) or O_R(lat), as in `units`."""
        p, alg = self.alg.p, self.alg
        rows = lat._minimal_rows()
        # 1 = (den, 0, 0, 0)/den is a minimal vector of the order's own lattice
        y = (lat.den, 0, 0, 0) if lat is self.lattice else rows[0]
        ybar = (y[0], -y[1], -y[2], -y[3])
        # y^-1*s = conj(y)*s/Nrd(y): over lat.den the dens cancel, nrd(y) remains
        ny = qnrd(y, p)
        out = []
        for s in rows:
            u = qmul(s, ybar, p) if left else qmul(ybar, s, p)
            if self.lattice._contains_rows((u,), ny):
                out.append(Quaternion(alg, u, ny))
                out.append(Quaternion(alg, tuple(-v for v in u), ny))
        return out

    def trace_zero_minimum(self) -> Fraction:
        """Least reduced norm of a nonzero x - trd(x)/2 with x in the order.

        These projections onto (i, j, k) form the Gross lattice up to the
        scale 2.  Conjugation x -> g*x*g^-1 commutes with the projection and
        keeps the reduced norm, so conjugate orders have the same minimum.
        The projected HNF rows have rank 3 (the kernel meets the order in
        Z*1), and their minimum is one 3-dimensional shortest vector under
        diag(1, p, p).
        """
        if self._trace_zero_min is None:
            p, lat = self.alg.p, self.lattice
            rows = hnf_rows([list(r[1:]) for r in lat.mat])
            _, _, val = shortest_vector(rows, [[1, 0, 0], [0, p, 0], [0, 0, p]])
            self._trace_zero_min = val / lat.den ** 2
        return self._trace_zero_min

    def one_ideal(self) -> "Ideal":
        return Ideal(self.lattice, left=self, right=self, nrd=1)

    def conjugate_by(self, g: Quaternion) -> "Order":
        """g^-1*O*g for a nonzero g: the image of O under an algebra
        automorphism, so an order, and maximal when O is.  One HNF of the
        rows conj(g)*r*g over den*Nrd(g); O itself when g is rational."""
        if not any(g.num[1:]):
            return self
        p, lat = self.alg.p, self.lattice
        gbar = (g.num[0], -g.num[1], -g.num[2], -g.num[3])
        rows = [qmul(qmul(gbar, r, p), g.num, p) for r in lat.mat]
        return Order(Lattice4(lat.alg, rows, lat.den * qnrd(g.num, p)), _certified=True)


_EXTREMAL_ORDERS: dict[int, Order] = {}


def standard_extremal_order(alg: QuatAlgebra) -> Order:
    """The maximal order O0 = <1, i, (i+j)/2, (1+k)/2> for p = 3 mod 4, built
    once per p."""
    o0 = _EXTREMAL_ORDERS.get(alg.p)
    if o0 is None:
        rows = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]]
        o0 = _EXTREMAL_ORDERS[alg.p] = Order(Lattice4(alg, rows, 2))
    return o0


class Ideal:
    """Integral ideal given by its lattice; orders, norm and conjugate cached lazily."""

    __slots__ = ("lattice", "_left", "_right", "_nrd", "_conj")

    def __init__(self, lattice: Lattice4, *, left: Order | None = None,
                 right: Order | None = None, nrd: int | None = None):
        self.lattice = lattice
        self._left = left
        self._right = right
        self._nrd = nrd
        self._conj = None

    @property
    def alg(self) -> QuatAlgebra:
        return self.lattice.alg

    def __eq__(self, other) -> bool:
        return isinstance(other, Ideal) and self.lattice == other.lattice

    def __hash__(self):
        return hash(("Ideal", self.lattice))

    def __repr__(self):
        return f"Ideal(nrd={self._nrd}, {self.lattice!r})"

    def basis(self) -> list[Quaternion]:
        return self.lattice.basis()

    def left_order(self) -> Order:
        if self._left is None:
            self._left = left_order(self.lattice)
        return self._left

    def right_order(self) -> Order:
        if self._right is None:
            self._right = right_order(self.lattice)
        return self._right

    def nrd(self) -> int:
        if self._nrd is None:
            self.left_order()  # certified maximal: covolume 1/4
            # 4*covolume = 4*D/den^4 with D = _diag(), an integer square n^2
            idx, rem = divmod(4 * self.lattice._diag(), self.lattice.den ** 4)
            if rem:
                raise ValueError("ideal is not contained in its left order")
            n = isqrt(idx)
            if n * n != idx:
                raise ValueError("lattice index is not a perfect square: corrupted ideal")
            p, mod = self.alg.p, n * self.lattice.den ** 2
            for r in self.lattice.mat:
                if qnrd(r, p) % mod:
                    raise ValueError("norm does not divide a basis element norm: corrupted ideal")
            self._nrd = n
        return self._nrd

    def conjugate(self) -> "Ideal":
        """conj(I), reduced once and kept: its orders are I's swapped, and
        its conjugate is I itself."""
        if self._conj is None:
            self._conj = Ideal(self.lattice.conjugate(), left=self._right, right=self._left,
                               nrd=self._nrd)
            self._conj._conj = self
        return self._conj


def multiply_ideals(i: Ideal, j: Ideal, *, check_compatible: bool = True) -> Ideal:
    """Product lattice I*J; with check_compatible, O_R(I) must equal O_L(J)."""
    if check_compatible and i.right_order() != j.left_order():
        raise ValueError("incompatible ideals: O_R(I) != O_L(J)")
    out = Ideal(i.lattice.mul(j.lattice), left=i._left, right=j._right)
    if check_compatible and i._nrd is not None and j._nrd is not None:
        out._nrd = i._nrd * j._nrd
    return out


def principal_ideal(order: Order, gamma: Quaternion) -> Ideal:
    """The left ideal O*gamma."""
    n = gamma.reduced_norm()
    return Ideal(order.lattice.rmul_q(gamma), left=order,
                 nrd=int(n) if n.denominator == 1 else None)


def connecting_ideal(o1: Order, o2: Order) -> Ideal:
    """I_psi = d*O1*O2 with d minimal such that the product is integral."""
    prod = o1.lattice.mul(o2.lattice)
    d = 1
    for target in (o1.lattice, o2.lattice):
        for row in prod.mat:
            d = lcm(d, target.coordinates(row, prod.den)[0])
    lat = prod.scale(d) if d != 1 else prod
    return Ideal(lat, left=o1, right=o2)


def two_sided_prime(order: Order) -> Ideal:
    """The unique two-sided ideal of reduced norm p (the ramified prime).

    For a maximal order, P^2 = p*O, so P = p*O^#, where O^# is the dual of O
    under Trd(x*conj(y)) = x*G*y^T with G = diag(2, 2, 2p, 2p).  For the basis
    H/den the dual basis is den*H^-T*G^-1: its row t is column t of A/D, with
    A = den*adj(H) and D = det(H) the kept inverse (`Lattice4._inverse`),
    scaled by (1/2, 1/2, 1/(2p), 1/(2p)).  So P has the rows
    (p*A0t, p*A1t, A2t, A3t) over 2D; A is upper triangular.
    """
    lat = order.lattice
    p = lat.alg.p
    a00, a01, a02, a03, a11, a12, a13, a22, a23, a33, d = lat._inverse()
    rows = [(p * a00, 0, 0, 0), (p * a01, p * a11, 0, 0), (p * a02, p * a12, a22, 0),
            (p * a03, p * a13, a23, a33)]
    out = Ideal(Lattice4(lat.alg, rows, 2 * d), left=order, right=order)
    if out.nrd() != p:
        raise ArithmeticError("two-sided prime construction failed")
    return out


def random_left_ideal(o0: Order, ell: int, m: int, rng: random.Random,
                      *, budget: int = 1000) -> Ideal:
    """Random integral left O0-ideal of reduced norm exactly l^m.

    Samples a uniform point (a : b) of P^1(Z/l^m) and lifts the local row
    [[a, b], [0, 0]] through the splitting O0 (x) Z_l = Mat_2 to a generator
    gamma; the ideal is O0*gamma + l^m*O0, uniform over the l^(m-1)*(l+1)
    primitive ideals of norm l^m.
    """
    if o0.alg.p % ell == 0:
        raise ValueError("l must not divide p")
    if m == 0:
        return o0.one_ideal()
    from .localization import Splitting

    target = ell ** m
    split = Splitting(o0, ell, m)
    for _ in range(budget):
        a = rng.randrange(target)
        b = rng.randrange(target)
        if a % ell == 0 and b % ell == 0:
            continue
        gamma = split.from_matrix(((a, b), (0, 0)))
        if gamma.reduced_norm() % target != 0:  # defensive; holds by construction
            continue
        lat = o0.lattice.rmul_q(gamma).add(o0.lattice.scale(target))
        cand = Ideal(lat, left=o0)
        if cand.nrd() == target:
            return cand
    raise SamplingBudgetError(f"no ideal of norm {ell}^{m} found in {budget} samples")
