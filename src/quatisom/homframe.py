"""Computational model of curves and morphisms on the quaternion side.

A node stands for a curve: a maximal order (its endomorphism ring) plus a
frame ideal connecting the extremal order O0 to it.  A morphism between
nodes is a single quaternion b acting by right multiplication on the
contravariant image, subject to frame(dst)*b <= frame(src); composition is
the quaternion product, and degrees and kernel ideals are exact rational
expressions in the frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .localization import VerificationError, _check  # noqa: F401 (re-exported)
from .orders import Ideal, Lattice4, Order, multiply_ideals, standard_extremal_order
from .quat import QuatAlgebra, Quaternion


@dataclass(frozen=True)
class Node:
    """A curve stand-in: maximal order (= End) plus a frame ideal from O0."""

    order: Order
    frame: Ideal

    def __post_init__(self):
        if self.frame._right is None:
            self.frame._right = self.order

    @property
    def alg(self) -> QuatAlgebra:
        return self.order.alg

    def frame_norm(self) -> int:
        return self.frame.nrd()

    def is_base(self) -> bool:
        return self.frame.lattice == self.order.lattice


def base_node(alg: QuatAlgebra) -> Node:
    o0 = standard_extremal_order(alg)
    return Node(order=o0, frame=o0.one_ideal())


def node_from_ideal(ideal: Ideal) -> Node:
    """Node with order O_R(I) and frame I, for a left O0-ideal I."""
    o0 = standard_extremal_order(ideal.alg)
    if ideal.left_order() != o0:
        raise ValueError("frame ideals must be left ideals of the extremal order O0")
    return Node(order=ideal.right_order(), frame=ideal)


def extend_node(node: Node, k_ideal: Ideal) -> tuple[Node, "Mor"]:
    """Quotient node by a left ideal of node.order, with the canonical morphism.

    The new frame is frame * K and the canonical quotient morphism has
    quaternion 1 and degree Nrd(K).
    """
    if k_ideal.left_order() != node.order:
        raise ValueError("K must be a left ideal of the node's order")
    frame = multiply_ideals(node.frame, k_ideal)
    new = Node(order=k_ideal.right_order(), frame=frame)
    return new, Mor(node, new, node.alg.one())


def hom_lattice(src: Node, dst: Node) -> Lattice4:
    """The lattice of valid morphism quaternions {b : frame(dst)*b <= frame(src)},
    i.e. conj(frame(dst)) * frame(src) / Nrd(frame(dst))."""
    lat = dst.frame.lattice.conjugate().mul(src.frame.lattice)
    return lat.scale(Fraction(1, dst.frame_norm()))


@dataclass(frozen=True)
class Mor:
    """Morphism src -> dst given by its quaternion under the frame model."""

    src: Node
    dst: Node
    elem: Quaternion

    def __post_init__(self):
        if not self.elem.is_zero():
            if not self.src.frame.lattice.contains_rmul(self.dst.frame.lattice, self.elem):
                raise ValueError("lattice condition frame(dst)*elem <= frame(src) fails")

    @property
    def alg(self) -> QuatAlgebra:
        return self.src.alg

    def degree(self) -> int:
        if self.elem.is_zero():
            return 0
        d = self.elem.reduced_norm() * self.dst.frame_norm() / self.src.frame_norm()
        _check(d.denominator == 1, "degree must be an integer for a valid morphism")
        return int(d)

    def is_zero(self) -> bool:
        return self.elem.is_zero()

    def __repr__(self):
        return f"Mor({self.elem!r}, deg={self.degree()})"


def identity_mor(node: Node) -> Mor:
    return Mor(node, node, node.alg.one())


def zero_mor(src: Node, dst: Node) -> Mor:
    return Mor(src, dst, src.alg.zero())


def compose(g: Mor, f: Mor) -> Mor:
    """g o f (f first); the quaternion is g.elem * f.elem."""
    if f.dst != g.src:
        raise ValueError("endpoint mismatch in composition")
    return Mor(f.src, g.dst, g.elem * f.elem)


def add_mor(f: Mor, g: Mor) -> Mor:
    if f.src != g.src or f.dst != g.dst:
        raise ValueError("endpoint mismatch in sum")
    return Mor(f.src, f.dst, f.elem + g.elem)


def scalar_mul(c: int, f: Mor) -> Mor:
    return Mor(f.src, f.dst, f.elem * c)


def dual(f: Mor) -> Mor:
    """The dual morphism dst -> src; dual(f) o f is the scalar deg(f)."""
    e = f.elem.conjugate() * Fraction(f.dst.frame_norm(), f.src.frame_norm())
    return Mor(f.dst, f.src, e)


def kernel_ideal(f: Mor) -> Ideal:
    """Left ideal of f.src.order of norm deg(f):
    conj(frame(src)) * frame(dst) * elem / Nrd(frame(src))."""
    if f.is_zero():
        raise ValueError("the zero morphism has no kernel ideal")
    lat = f.src.frame.lattice.conjugate().mul(f.dst.frame.lattice.rmul_q(f.elem))
    lat = lat.scale(Fraction(1, f.src.frame_norm()))
    return Ideal(lat, left=f.src.order, nrd=f.degree())


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
        xi = self.xi11 * self.d21 - self.xi21 * self.d11
        if xi.reduced_norm() != self.d11 * self.d21 * self.i_psi.nrd():
            return False
        psi_bar = self.i_psi.lattice.conjugate()
        j11 = psi_bar.mul(self.i11.lattice)
        j21 = psi_bar.mul(self.i21.lattice)
        if not (j11.contains(self.xi11) and j21.contains(self.xi21)):
            return False
        if j11.mul(self.i12.conjugate().lattice) != o2.lattice.rmul_q(self.xi11):
            return False
        if j21.mul(self.i22.conjugate().lattice) != o2.lattice.rmul_q(self.xi21):
            return False
        return True
