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

from .linalg import hnf_rows, kernel_basis, shortest_vector, vectors_of_value
from .quat import QuatAlgebra, Quaternion, qmul


class SamplingBudgetError(RuntimeError):
    """A randomized search exhausted its retry budget."""


def nrd_gram(p: int) -> list[list[int]]:
    """Gram matrix of the reduced norm form on coordinates (1, i, j, k): the
    integer diagonal (1, 1, p, p)."""
    d = [1, 1, p, p]
    return [[d[i] if i == j else 0 for j in range(4)] for i in range(4)]


def _in_span(rows, v, scale: int = 1) -> bool:
    """Whether the integer vector v is an integer combination of scale*rows,
    where rows is a full-rank upper-triangular (HNF) basis."""
    v = list(v)
    for r, row in enumerate(rows):
        piv = scale * row[r]
        x, rem = divmod(v[r], piv)
        if rem:
            return False
        if x:
            for c in range(r + 1, 4):
                v[c] -= x * scale * row[c]
    return True


def _span_coords(rows, v, den: int = 1) -> tuple[int, list[int]]:
    """(D, y) with y/D the coordinates of v/den on rows, a full-rank
    upper-triangular (HNF) basis, and D > 0 least: the lcm of their
    denominators.  An integer triangular solve over a common denominator."""
    big, y = den, []
    for r, row in enumerate(rows):
        num = v[r] * (big // den) - sum(y[t] * rows[t][r] for t in range(r))
        g = gcd(num, row[r])
        if g != row[r]:
            k = row[r] // g
            big *= k
            y = [t * k for t in y]
        y.append(num // g)
    g = gcd(big, *y)
    return big // g, [t // g for t in y]


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


def _cofactor(m, r: int, c: int) -> int:
    """(-1)^(r+c) times the minor of the 4x4 matrix m without row r and column c."""
    x, y, z = [row[:c] + row[c + 1:] for t, row in enumerate(m) if t != r]
    return (-1) ** (r + c) * _det3(*x, *y, *z)


class Lattice4:
    """Full rank-4 Z-lattice in B_{p,oo}, canonical HNF basis over a denominator."""

    __slots__ = ("alg", "mat", "den")

    def __init__(self, alg: QuatAlgebra, rows, den: int = 1, *, _canonical=False):
        self.alg = alg
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
        m = self.mat
        return Fraction(m[0][0] * m[1][1] * m[2][2] * m[3][3], self.den ** 4)

    def coords_of(self, q: Quaternion) -> list[Fraction]:
        """Coordinates of q on the basis (a full-rank lattice spans the algebra)."""
        target = [c * self.den for c in q.coords()]
        xs = []
        for r in range(4):
            piv = self.mat[r][r]
            acc = target[r]
            for t in range(r):
                acc -= xs[t] * self.mat[t][r]
            xs.append(Fraction(acc, piv))
        return xs

    def contains(self, q: Quaternion) -> bool:
        return _in_span(self.mat, [v * self.den for v in q.num], q.den)

    def _contains_rows(self, rows, den: int) -> bool:
        """Whether every row/den (integer rows) lies in the lattice."""
        return all(_in_span(self.mat, [v * self.den for v in row], den) for row in rows)

    def contains_lattice(self, other: "Lattice4") -> bool:
        return self._contains_rows(other.mat, other.den)

    def contains_rmul(self, other: "Lattice4", q: Quaternion) -> bool:
        """Whether other*q <= self, tested on the four product rows without
        building the lattice other*q."""
        p = self.alg.p
        return self._contains_rows([qmul(row, q.num, p) for row in other.mat], other.den * q.den)

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
        """The lattice L*q."""
        if q.is_zero():
            raise ValueError("cannot multiply a lattice by zero")
        p = self.alg.p
        return Lattice4(self.alg, [qmul(r, q.num, p) for r in self.mat], self.den * q.den)

    def lmul_q(self, q: Quaternion) -> "Lattice4":
        """The lattice q*L."""
        if q.is_zero():
            raise ValueError("cannot multiply a lattice by zero")
        p = self.alg.p
        return Lattice4(self.alg, [qmul(q.num, r, p) for r in self.mat], self.den * q.den)

    def conjugate(self) -> "Lattice4":
        rows = [[r[0], -r[1], -r[2], -r[3]] for r in self.mat]
        return Lattice4(self.alg, rows, self.den)

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

    def min_nonzero_norm(self) -> tuple[Quaternion, Fraction]:
        """Shortest nonzero vector under the reduced norm, deterministic."""
        _, vec, val = shortest_vector([list(r) for r in self.mat], nrd_gram(self.alg.p))
        return Quaternion(self.alg, tuple(vec), self.den), val / self.den ** 2

    def norm_value_vectors(self, value: Fraction) -> list[Quaternion]:
        """All lattice elements of exact reduced norm `value` (both signs)."""
        target = Fraction(value) * self.den ** 2
        vecs = vectors_of_value([list(r) for r in self.mat], nrd_gram(self.alg.p), target)
        return [Quaternion(self.alg, tuple(vec), self.den) for vec in vecs]


@lru_cache(maxsize=8)
def _lattice_mul(a: Lattice4, b: Lattice4) -> Lattice4:
    """a*b from the 16 products of basis rows, memoized by value.

    A completion builds J11, J21 and the two J*W products, and its
    certificate check builds the same four again; the few most recent
    products are kept so each is reduced once.  Lattices are immutable, so
    a kept result can be shared.
    """
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
    ValueError when the order of L is not maximal."""
    p, mat, den = lat.alg.p, lat.mat, lat.den
    idx = 4 * abs(lat.det())
    n = Fraction(isqrt(idx.numerator), isqrt(idx.denominator))
    conj = [(r[0], -r[1], -r[2], -r[3]) for r in mat]
    pairs = product(mat, conj) if left else product(conj, mat)
    try:
        if n * n != idx:
            raise ValueError(f"4*covolume {idx} is not a square")
        o = Lattice4(lat.alg, [[v * n.denominator for v in qmul(x, y, p)] for x, y in pairs],
                     den * den * n.numerator)
        if 4 * abs(o.det()) != 1:
            raise ValueError(f"the candidate order has covolume {abs(o.det())}")
        acts = [qmul(u, x, p) if left else qmul(x, u, p) for u in o.mat for x in mat]
        if not lat._contains_rows(acts, o.den * den):
            raise ValueError("the candidate order does not act on the lattice")
    except ValueError as err:
        raise ValueError(f"not an ideal of a maximal order: {err}") from None
    return Order(o, _certified=True)


def left_order(lat: Lattice4) -> "Order":
    """O_L(L) = {a : a*L <= L} = L*conj(L)/Nrd(L)."""
    return _unit_order(lat, left=True)


def right_order(lat: Lattice4) -> "Order":
    """O_R(L) = {a : L*a <= L} = conj(L)*L/Nrd(L)."""
    return _unit_order(lat, left=False)


def unit_orders(lat: Lattice4) -> tuple["Order", "Order"]:
    return left_order(lat), right_order(lat)


class Order:
    """An order in B_{p,oo}.

    `Order(lattice)` checks that the lattice is an order: it contains 1, its
    basis elements have integral trace and norm, and the 16 products of
    basis elements lie in it.  The library builds an order without that
    test only where it is already proven, through the private keyword
    `_certified=True`: `left_order`/`right_order` (see `_unit_order`) and a
    conjugate g^-1*O*g of an order O, which is the image of O under an
    algebra automorphism.

    Its units and its trace-zero minimum are computed on first use and kept
    on the object.
    """

    __slots__ = ("lattice", "_units", "_trace_zero_min")

    def __init__(self, lattice: Lattice4, *, _certified=False):
        self.lattice = lattice
        self._units = None
        self._trace_zero_min = None
        if _certified:
            return
        # basis element x = row/den: trace 2*row[0]/den, norm nrd(row)/den^2,
        # and x*y lies in the lattice iff row_x*row_y is in den*span(rows)
        p, mat, den = lattice.alg.p, lattice.mat, lattice.den
        if not _in_span(mat, (den, 0, 0, 0)):
            raise ValueError("order must contain 1")
        for x in mat:
            nrd = x[0] ** 2 + x[1] ** 2 + p * (x[2] ** 2 + x[3] ** 2)
            if (2 * x[0]) % den or nrd % (den * den):
                raise ValueError("order elements must have integral trace and norm")
            for y in mat:
                if not _in_span(mat, qmul(x, y, p), den):
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
        return int(4 * self.alg.p * abs(self.lattice.det()))

    def is_maximal(self) -> bool:
        return self.reduced_discriminant() == self.alg.p

    def units(self) -> list[Quaternion]:
        """All elements of reduced norm 1 (at most 24)."""
        if self._units is None:
            self._units = self.lattice.norm_value_vectors(Fraction(1))
        return self._units

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
    """Integral ideal given by its lattice; orders and norm cached lazily."""

    __slots__ = ("lattice", "_left", "_right", "_nrd")

    def __init__(self, lattice: Lattice4, *, left: Order | None = None,
                 right: Order | None = None, nrd: int | None = None):
        self.lattice = lattice
        self._left = left
        self._right = right
        self._nrd = nrd

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
            idx = 4 * abs(self.lattice.det())
            if idx.denominator != 1:
                raise ValueError("ideal is not contained in its left order")
            n = isqrt(int(idx))
            if n * n != int(idx):
                raise ValueError("lattice index is not a perfect square: corrupted ideal")
            for b in self.basis():
                if b.reduced_norm() % n != 0:
                    raise ValueError("norm does not divide a basis element norm: corrupted ideal")
            self._nrd = n
        return self._nrd

    def is_integral(self) -> bool:
        return self.left_order().lattice.contains_lattice(self.lattice)

    def conjugate(self) -> "Ideal":
        return Ideal(self.lattice.conjugate(), left=self._right, right=self._left, nrd=self._nrd)

    def scale(self, c) -> "Ideal":
        nrd = None
        if self._nrd is not None and isinstance(c, int) and c > 0:
            nrd = self._nrd * c * c
        return Ideal(self.lattice.scale(c), left=self._left, right=self._right, nrd=nrd)

    def add(self, other: "Ideal") -> "Ideal":
        return Ideal(self.lattice.add(other.lattice))


def ideal_norm(ideal: Ideal) -> int:
    return ideal.nrd()


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
            d = lcm(d, _span_coords(target.mat, [v * target.den for v in row], prod.den)[0])
    lat = prod.scale(d) if d != 1 else prod
    return Ideal(lat, left=o1, right=o2)


def two_sided_prime(order: Order) -> Ideal:
    """The unique two-sided ideal of reduced norm p (the ramified prime).

    For a maximal order, P^2 = p*O, so P = p*O^#, where O^# is the dual of O
    under Trd(x*conj(y)).  With basis rows M over den, the trace form has the
    integer Gram matrix G = 2*M*diag(1, 1, p, p)*M^T over den^2, and the dual
    basis is den*G^-1*M, i.e. the rows den*adj(G)*M over det(G).
    """
    lat = order.lattice
    p, mat, den = lat.alg.p, lat.mat, lat.den
    diag = (1, 1, p, p)
    gram = [[2 * sum(x[t] * diag[t] * y[t] for t in range(4)) for y in mat] for x in mat]
    adj = [[_cofactor(gram, c, r) for c in range(4)] for r in range(4)]
    det = _det4(gram)
    rows = [[p * den * sum(adj[r][t] * mat[t][c] for t in range(4)) for c in range(4)]
            for r in range(4)]
    out = Ideal(Lattice4(lat.alg, rows, abs(det)), left=order, right=order)
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
