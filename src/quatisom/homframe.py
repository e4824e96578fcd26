"""Computational model of curves and morphisms on the quaternion side.

A node stands for a curve: a maximal order (its endomorphism ring) plus a
frame ideal connecting the extremal order O0 to it.  A morphism between
nodes is a single quaternion b acting by right multiplication on the
contravariant image, subject to frame(dst)*b <= frame(src); composition is
the quaternion product, and degrees and kernel ideals are exact rational
expressions in the frames.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from fractions import Fraction
from math import isqrt

from .orders import (Ideal, Lattice4, Order, VerificationError,  # noqa: F401 (re-exported)
                     _check, multiply_ideals, standard_extremal_order)
from .quat import QuatAlgebra, Quaternion, qmul, qnrd


@dataclass(frozen=True)
class Node:
    """A curve stand-in: a frame ideal from O0, whose right order is the
    maximal order End of the curve.

    The order is computed on first use and kept on the frame.  Equal frames
    give equal nodes, since the frame determines the order.
    """

    frame: Ideal

    @property
    def order(self) -> Order:
        return self.frame.right_order()

    @property
    def alg(self) -> QuatAlgebra:
        return self.frame.alg

    def frame_norm(self) -> int:
        return self.frame.nrd()

    def is_base(self) -> bool:
        """Whether the frame is O0: a frame equal to its right order is a
        ring containing O0, hence O0 by maximality."""
        return self.frame.lattice == standard_extremal_order(self.alg).lattice


def base_node(alg: QuatAlgebra) -> Node:
    return Node(frame=standard_extremal_order(alg).one_ideal())


def node_from_ideal(ideal: Ideal) -> Node:
    """Node with order O_R(I) and frame I, for a left O0-ideal I; O_R(I) is
    built here, so a frame whose order is not maximal fails at once."""
    o0 = standard_extremal_order(ideal.alg)
    if ideal.left_order() != o0:
        raise ValueError("frame ideals must be left ideals of the extremal order O0")
    ideal.right_order()
    return Node(frame=ideal)


def node_from_frame(lat: Lattice4) -> Node:
    """Node with frame lat, for a lattice read from outside the library.

    O0*lat <= lat (`Lattice4.is_left_o0_module`, 8 products with O0's ring
    generators) puts O0 inside O_L(lat); O0 is maximal, so O_L(lat) = O0
    with no HNF.  Raises ValueError when lat is not a left O0-ideal.  The
    node's order is left to its first use: a lattice with a maximal left
    order is an invertible ideal, whose right order is maximal too, and the
    certificate check needs only one of a matrix's orders.  A certificate
    file reaches this only for a frame whose encoding it has not read yet
    (`serialization.certificate_from_json`).
    """
    o0 = standard_extremal_order(lat.alg)
    if lat == o0.lattice:
        return base_node(lat.alg)
    if not lat.is_left_o0_module():
        raise ValueError("a frame is not a left ideal of the extremal order O0")
    frame = Ideal(lat, left=o0)
    frame.nrd()  # an integral ideal of square index, as every frame is
    return Node(frame=frame)


def extend_node(node: Node, k_ideal: Ideal) -> tuple[Node, "Mor"]:
    """Quotient node by a left ideal of node.order, with the canonical morphism.

    The new frame is frame * K and the canonical quotient morphism has
    quaternion 1 and degree Nrd(K).
    """
    if k_ideal.left_order() != node.order:
        raise ValueError("K must be a left ideal of the node's order")
    frame = multiply_ideals(node.frame, k_ideal)
    frame._right = k_ideal.right_order()
    new = Node(frame=frame)
    return new, Mor(node, new, node.alg.one())


class LatticeConditionError(ValueError):
    """A quaternion fails a morphism's lattice condition frame(dst)*elem <= frame(src)."""


def hom_lattice(src: Node, dst: Node) -> Lattice4:
    """The lattice of valid morphism quaternions {b : frame(dst)*b <= frame(src)},
    i.e. conj(frame(dst)) * frame(src) / Nrd(frame(dst))."""
    lat = dst.frame.lattice.conjugate().mul(src.frame.lattice)
    return lat.scale(Fraction(1, dst.frame_norm()))


@dataclass(frozen=True)
class Mor:
    """Morphism src -> dst given by its quaternion under the frame model.

    `Mor(src, dst, elem)` checks the lattice condition frame(dst)*elem <=
    frame(src), i.e. that elem lies in `hom_lattice(src, dst)`.  So does
    every morphism made from a raw quaternion: `extend_node`,
    `make_automorphism`'s scalar entries, `mor_from_json`,
    completion entries and the unit twists of `verify_ideal_quadruple`.
    `compose`, `add_mor`, `scalar_mul` and `dual` skip it through the
    private `_derived=True`: hom lattices are closed under them (see
    each function), so a morphism made from checked ones needs no test.
    """

    src: Node
    dst: Node
    elem: Quaternion
    _derived: InitVar[bool] = False

    def __post_init__(self, _derived):
        if not _derived and not self.elem.is_zero():
            if not self.src.frame.lattice.contains_rmul(self.dst.frame.lattice, self.elem):
                raise LatticeConditionError(
                    "lattice condition frame(dst)*elem <= frame(src) fails")

    @property
    def alg(self) -> QuatAlgebra:
        return self.src.alg

    def degree(self) -> int:
        """Nrd(elem)*Nrd(F_dst)/Nrd(F_src) = nrd(num)*Nrd(F_dst)/(den^2*Nrd(F_src)),
        an integer for a valid morphism, decided in integers."""
        e = self.elem
        d, rem = divmod(qnrd(e.num, e.alg.p) * self.dst.frame_norm(),
                        e.den * e.den * self.src.frame_norm())
        _check(not rem, "degree must be an integer for a valid morphism")
        return d

    def is_zero(self) -> bool:
        return self.elem.is_zero()

    def __repr__(self):
        return f"Mor({self.elem!r}, deg={self.degree()})"


def compose(g: Mor, f: Mor) -> Mor:
    """g o f (f first); the quaternion is g.elem * f.elem.

    frame(C)*g.elem*f.elem <= frame(B)*f.elem <= frame(A), so the result
    keeps the lattice condition unchecked.
    """
    if f.dst != g.src:
        raise ValueError("endpoint mismatch in composition")
    return Mor(f.src, g.dst, g.elem * f.elem, _derived=True)


def add_mor(f: Mor, g: Mor) -> Mor:
    """f + g; frame(dst)*(a + b) <= frame(dst)*a + frame(dst)*b <= frame(src)."""
    if f.src != g.src or f.dst != g.dst:
        raise ValueError("endpoint mismatch in sum")
    return Mor(f.src, f.dst, f.elem + g.elem, _derived=True)


def scalar_mul(c: int, f: Mor) -> Mor:
    """c*f for an integer c; frame(src) is closed under integer multiples."""
    return Mor(f.src, f.dst, f.elem * c, _derived=True)


def dual(f: Mor) -> Mor:
    """The dual morphism dst -> src; dual(f) o f is the scalar deg(f).

    Its quaternion conj(b)*Nrd(F_dst)/Nrd(F_src) lies in
    conj(F_src)*F_dst/Nrd(F_src) = `hom_lattice(dst, src)` because b lies in
    conj(F_dst)*F_src/Nrd(F_dst), so it keeps the lattice condition unchecked.
    """
    n0, n1, n2, n3 = f.elem.num
    c = f.dst.frame_norm()
    e = Quaternion(f.elem.alg, (n0 * c, -n1 * c, -n2 * c, -n3 * c),
                   f.elem.den * f.src.frame_norm())
    return Mor(f.dst, f.src, e, _derived=True)


def kernel_ideal(f: Mor) -> Ideal:
    """Left ideal of f.src.order of norm deg(f):
    conj(frame(src)) * frame(dst) * elem / Nrd(frame(src))."""
    if f.is_zero():
        raise ValueError("the zero morphism has no kernel ideal")
    lat = f.src.frame.lattice.conjugate().mul(f.dst.frame.lattice.rmul_q(f.elem))
    lat = lat.scale(Fraction(1, f.src.frame_norm()))
    return Ideal(lat, left=f.src.order, nrd=f.degree())


def kernel_ideal_equals(f: Mor, lat: Lattice4) -> bool:
    """Whether kernel_ideal(f) = lat, with no HNF.

    conj(frame(src)) and frame(dst) are invertible and meet in O0, so
    kernel_ideal(f) has reduced norm deg(f) and left order O(src), which is
    maximal: its covolume is deg(f)^2/4.  It lies in lat when its 16
    generators conj(x)*y*elem/Nrd(frame(src)), x and y rows of the frames,
    do; with equal covolumes it is then lat.  The zero morphism has no
    kernel ideal and equals no lattice.
    """
    if f.is_zero() or 4 * lat._diag() != f.degree() ** 2 * lat.den ** 4:
        return False
    p, b = f.alg.p, f.elem
    src, dst = f.src.frame.lattice, f.dst.frame.lattice
    gens = [qmul(y, b.num, p) for y in dst.mat]
    rows = [qmul((x[0], -x[1], -x[2], -x[3]), g, p) for x in src.mat for g in gens]
    return lat._contains_rows(rows, src.den * dst.den * b.den * f.src.frame_norm())


@dataclass(frozen=True)
class Mor2x2:
    """2x2 matrix of morphisms: entry (i, j) maps source node j to target node i."""

    m11: Mor
    m12: Mor
    m21: Mor
    m22: Mor

    def __post_init__(self):
        if self.m11.src != self.m21.src or self.m12.src != self.m22.src:
            raise ValueError("column sources do not match")
        if self.m11.dst != self.m12.dst or self.m21.dst != self.m22.dst:
            raise ValueError("row destinations do not match")

    def sources(self) -> tuple[Node, Node]:
        return (self.m11.src, self.m12.src)

    def targets(self) -> tuple[Node, Node]:
        return (self.m11.dst, self.m21.dst)

    def entries(self) -> tuple[Mor, Mor, Mor, Mor]:
        return (self.m11, self.m12, self.m21, self.m22)


def kani_degree(mat: Mor2x2) -> int:
    """Degree of the 2-dimensional morphism:
    (d11 + d21)(d12 + d22) - deg(dual(m12) m11 + dual(m22) m21)."""
    d11, d12 = mat.m11.degree(), mat.m12.degree()
    d21, d22 = mat.m21.degree(), mat.m22.degree()
    mixed = add_mor(compose(dual(mat.m12), mat.m11), compose(dual(mat.m22), mat.m21))
    val = (d11 + d21) * (d12 + d22) - mixed.degree()
    _check(val >= 0, "Kani degree must be non-negative")
    return val


def transpose(mat: Mor2x2) -> Mor2x2:
    """Degree-preserving reversed matrix: entry (i, j) becomes dual(entry (j, i))."""
    return Mor2x2(m11=dual(mat.m11), m12=dual(mat.m21),
                  m21=dual(mat.m12), m22=dual(mat.m22))


def mat_compose(n: Mor2x2, m: Mor2x2) -> Mor2x2:
    """Matrix product N*M representing the composed 2-dimensional morphism."""
    if m.targets() != n.sources():
        raise ValueError("endpoint mismatch in matrix composition")
    return Mor2x2(
        m11=add_mor(compose(n.m11, m.m11), compose(n.m12, m.m21)),
        m12=add_mor(compose(n.m11, m.m12), compose(n.m12, m.m22)),
        m21=add_mor(compose(n.m21, m.m11), compose(n.m22, m.m21)),
        m22=add_mor(compose(n.m21, m.m12), compose(n.m22, m.m22)),
    )


def swap_rows(mat: Mor2x2) -> Mor2x2:
    """Post-compose with the coordinate swap (P, Q) -> (Q, P)."""
    return Mor2x2(m11=mat.m21, m12=mat.m22, m21=mat.m11, m22=mat.m12)


def make_automorphism(a: int, b: int, c: int, d: int, f: Mor) -> tuple[Mor2x2, Mor2x2]:
    """The automorphism (a, b*dual(f); c*f, d) of src x dst for ad - bc*deg(f) = +-1,
    together with its companion inverse (d, -b*dual(f); -c*f, a)."""
    deg = f.degree()
    if a * d - b * c * deg not in (1, -1):
        raise ValueError("ad - bc*deg(f) must be +-1")
    n1, n2 = f.src, f.dst
    fd = dual(f)
    mat = Mor2x2(m11=Mor(n1, n1, n1.alg.quaternion(a)),
                 m12=scalar_mul(b, fd),
                 m21=scalar_mul(c, f),
                 m22=Mor(n2, n2, n2.alg.quaternion(d)))
    inv = Mor2x2(m11=Mor(n1, n1, n1.alg.quaternion(d)),
                 m12=scalar_mul(-b, fd),
                 m21=scalar_mul(-c, f),
                 m22=Mor(n2, n2, n2.alg.quaternion(a)))
    return mat, inv


def is_scalar_matrix(mat: Mor2x2, value: int) -> bool:
    """True when mat equals value * identity (same sources and targets)."""
    if mat.sources() != mat.targets():
        return False
    scalar = mat.m11.alg.quaternion(value)
    return (mat.m11.elem == scalar and mat.m22.elem == scalar
            and mat.m12.is_zero() and mat.m21.is_zero())


def _division_identity(o2: Order, a: Lattice4, b: Lattice4, xi: Quaternion) -> bool:
    """Whether a*b = O2*xi for a maximal order O2 and a nonzero xi, with no
    HNF of the 16-row product a*b nor of O2*xi; conditions (a)-(d) of
    `Certificate.verify`."""
    idx, rem = divmod(4 * a._diag(), a.den ** 4)
    n = isqrt(idx)
    return (not rem and n * n == idx                                  # (b)
            and a.contains_product(o2.lattice, a)                     # (a)
            and b.contains_rmul(a.conjugate(), xi / n)                # (c)
            and o2.lattice.contains_product(a, b, xi.inverse()))      # (d)


@dataclass(frozen=True)
class Certificate:
    """Data proving that a completed matrix is an isomorphism.

    Invariants (checked by `verify`): the split element d21*xi11 - d11*xi21
    has the exact norm d11*d21*Nrd(I_psi), the xi's lie in the J-ideals,
    and the division identities conj(I_psi)*I11*conj(I12) = O2*xi11 (resp.
    21/22) hold.  I12 and I22 carry right order O_R(I11), O_R(I21), the
    same presentation as the worked examples.
    """

    i_psi: Ideal
    i11: Ideal
    i21: Ideal
    i12: Ideal
    i22: Ideal
    xi11: Quaternion
    xi21: Quaternion
    d11: int
    d21: int

    def verify(self, o2: Order) -> bool:
        """Whether the invariants hold over o2, which must be maximal.

        Each division identity A*B = O2*xi, with A = J11 = conj(I_psi)*I11,
        B = conj(I12) and xi = xi11 (resp. 21/22), is proved by containment
        and covolume, with no HNF of A*B.  Let n > 0 with n^2 = 4*covol(A).
          (a) O2*A <= A.  O2 is maximal, so O_L(A) = O2; a lattice with a
              maximal left order is invertible, A*conj(A) = nrd(A)*O2, and
              covol(A) = nrd(A)^2/4, so n = nrd(A).
          (b) n is an integer.
          (c) conj(A)*xi/n <= B (4 products).  Then
              O2*xi = A*conj(A)*xi/n <= A*B.
          (d) A*B <= O2*xi, i.e. A*B*xi^-1 <= O2: 4 products of B's rows
              with xi^-1 = conj(xi)/Nrd(xi), then 16 with A's, against O2's
              kept inverse (`Lattice4._inverse`), with no lattice O2*xi.
        So A*B = O2*xi, and the test is sufficient: it accepts nothing the
        equality of the two reduced lattices rejects.  It also fixes B:
        multiplying on the left by conj(A)/n, and as conj(A)*A = n*O_R(A)
        and conj(A)*O2 = conj(A), gives O_R(A)*B = conj(A)*xi/n, which (c)
        puts inside B <= O_R(A)*B.  So B = conj(A)*xi/n and
        I12 = conj(xi)*A/n, of reduced norm Nrd(xi)/n and right order
        O_R(A) = O_R(I11): a certificate passes only in the presentation
        stated above.
        """
        if self.xi11.is_zero() or self.xi21.is_zero() or not o2.is_maximal():
            return False  # O2*0 is no lattice, and (a) needs a maximal O2
        xi = self.xi11 * self.d21 - self.xi21 * self.d11
        if xi.reduced_norm() != self.d11 * self.d21 * self.i_psi.nrd():
            return False
        psi_bar = self.i_psi.conjugate().lattice
        j11 = psi_bar.mul(self.i11.lattice)
        j21 = psi_bar.mul(self.i21.lattice)
        if not (j11.contains(self.xi11) and j21.contains(self.xi21)):
            return False
        return (_division_identity(o2, j11, self.i12.conjugate().lattice, self.xi11)
                and _division_identity(o2, j21, self.i22.conjugate().lattice, self.xi21))
