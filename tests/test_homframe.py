import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import quatisom
from quatisom import (Mor, Mor2x2, base_node, compose, dual, extend_node, hom_lattice,
                      isom_two_products, isomorphism_E0, kani_degree, kernel_ideal,
                      low_discriminant_isomorphism, make_automorphism, mat_compose,
                      node_from_ideal, random_left_ideal, transpose)
from quatisom.homframe import (VerificationError, add_mor, is_scalar_matrix,
                               kernel_ideal_equals, node_from_frame, scalar_mul)


def identity_mor(node):
    return Mor(node, node, node.alg.one())


def zero_mor(src, dst):
    return Mor(src, dst, src.alg.zero())


def random_nodes(o0, rng, count=3, ell=3, m=3):
    nodes = [base_node(o0.alg)]
    for _ in range(count - 1):
        nodes.append(node_from_ideal(random_left_ideal(o0, ell, m, rng)))
    return nodes


def random_mor(src, dst, rng, span=2):
    lat = hom_lattice(src, dst)
    basis = lat.basis()
    while True:
        q = sum((rng.randint(-span, span) * b for b in basis[1:]),
                rng.randint(-span, span) * basis[0])
        if not q.is_zero():
            return Mor(src, dst, q)


def test_base_node(o0_103):
    base = base_node(o0_103.alg)
    assert base.order == o0_103
    assert base.frame.lattice == o0_103.lattice
    assert base.is_base()


def test_node_from_ideal(o0_103):
    rng = random.Random(61)
    ideal = random_left_ideal(o0_103, 3, 4, rng)
    node = node_from_ideal(ideal)
    assert node.frame == ideal
    assert node.order == ideal.right_order()
    assert node.order.is_maximal()
    assert node.frame_norm() == 81


def test_extend_node_roundtrip(o0_103):
    rng = random.Random(62)
    base = base_node(o0_103.alg)
    k_ideal = random_left_ideal(o0_103, 3, 4, rng)
    node, canon = extend_node(base, k_ideal)
    assert canon.degree() == k_ideal.nrd()
    assert kernel_ideal(canon).lattice == k_ideal.lattice
    # extending by the unit ideal is the identity
    same, ident = extend_node(node, node.order.one_ideal())
    assert same == node
    assert ident.degree() == 1


def test_degree_multiplicative(o0_103):
    rng = random.Random(63)
    nodes = random_nodes(o0_103, rng)
    for _ in range(40):
        f = random_mor(nodes[0], nodes[1], rng)
        g = random_mor(nodes[1], nodes[2], rng)
        assert compose(g, f).degree() == g.degree() * f.degree()


def test_degree_integrality(o0_103):
    rng = random.Random(64)
    nodes = random_nodes(o0_103, rng)
    for _ in range(60):
        f = random_mor(nodes[rng.randrange(3)], nodes[rng.randrange(3)], rng)
        assert f.degree() >= 1


def test_dual_properties(o0_103):
    rng = random.Random(65)
    nodes = random_nodes(o0_103, rng)
    for _ in range(40):
        f = random_mor(nodes[0], nodes[2], rng)
        fd = dual(f)
        assert fd.degree() == f.degree()
        assert dual(fd) == f
        back = compose(fd, f)
        assert back.elem == f.src.alg.quaternion(f.degree())


def test_kernel_ideal_properties(o0_103):
    rng = random.Random(66)
    nodes = random_nodes(o0_103, rng)
    base = nodes[0]
    assert kernel_ideal(identity_mor(base)).lattice == o0_103.lattice
    for _ in range(20):
        f = random_mor(nodes[1], nodes[2], rng)
        ki = kernel_ideal(f)
        assert ki.nrd() == f.degree()
        assert ki.left_order() == f.src.order
        assert ki.left_order().lattice.contains_lattice(ki.lattice)
    with pytest.raises(ValueError):
        kernel_ideal(zero_mor(nodes[0], nodes[1]))


def test_kernel_ideal_equals_matches_kernel_ideal(o0_103):
    # the containment-and-covolume test agrees with the HNF of the kernel ideal
    rng = random.Random(67)
    nodes = random_nodes(o0_103, rng)
    for _ in range(30):
        f = random_mor(nodes[rng.randrange(3)], nodes[rng.randrange(3)], rng)
        g = random_mor(f.src, f.dst, rng)
        ki, kg = kernel_ideal(f).lattice, kernel_ideal(g).lattice
        assert kernel_ideal_equals(f, ki)
        assert kernel_ideal_equals(f, kg) == (ki == kg)
        # a sublattice of the kernel ideal, and the kernel ideal scaled up
        assert not kernel_ideal_equals(f, ki.scale(2))
        assert not kernel_ideal_equals(scalar_mul(2, f), ki)
    assert not kernel_ideal_equals(zero_mor(nodes[0], nodes[1]), o0_103.lattice)


def test_node_from_frame(o0_103, alg103):
    rng = random.Random(68)
    ideal = random_left_ideal(o0_103, 3, 4, rng)
    node = node_from_frame(ideal.lattice)
    assert node == node_from_ideal(ideal) and node.frame_norm() == 81
    assert node.order == ideal.right_order()
    assert node_from_frame(o0_103.lattice) == base_node(alg103)
    # g*O0 with g = 1 + i + j is a right O0-ideal, not a left one
    with pytest.raises(ValueError, match="left ideal of the extremal order"):
        node_from_frame(o0_103.lattice.lmul_q(alg103.quaternion(1, 1, 1, 0)))


def test_kani_identity_matrix(o0_103):
    base = base_node(o0_103.alg)
    ident = identity_mor(base)
    mat = Mor2x2(m11=ident, m12=zero_mor(base, base),
                 m21=zero_mor(base, base), m22=ident)
    assert kani_degree(mat) == 1
    assert is_scalar_matrix(mat, 1)


def test_kani_one_plus_deg(o0_103):
    # F = (1 + deg(f), dual(f); f, 1) is an isomorphism for any f
    rng = random.Random(67)
    nodes = random_nodes(o0_103, rng)
    for _ in range(20):
        f = random_mor(nodes[0], nodes[1], rng)
        n1, n2 = f.src, f.dst
        mat = Mor2x2(m11=Mor(n1, n1, n1.alg.quaternion(1 + f.degree())),
                     m12=dual(f), m21=f, m22=identity_mor(n2))
        assert kani_degree(mat) == 1


def test_kani_multiplicative(o0_103):
    rng = random.Random(68)
    nodes = random_nodes(o0_103, rng, count=3)
    a, b, c = nodes
    for _ in range(10):
        m = Mor2x2(m11=random_mor(a, b, rng), m12=random_mor(a, b, rng),
                   m21=random_mor(a, b, rng), m22=random_mor(a, b, rng))
        n = Mor2x2(m11=random_mor(b, c, rng), m12=random_mor(b, c, rng),
                   m21=random_mor(b, c, rng), m22=random_mor(b, c, rng))
        assert kani_degree(mat_compose(n, m)) == kani_degree(n) * kani_degree(m)


def test_transpose_preserves_kani(o0_103):
    rng = random.Random(69)
    nodes = random_nodes(o0_103, rng, count=2)
    a, b = nodes
    for _ in range(25):
        m = Mor2x2(m11=random_mor(a, b, rng), m12=random_mor(a, b, rng),
                   m21=random_mor(a, b, rng), m22=random_mor(a, b, rng))
        t = transpose(m)
        assert kani_degree(t) == kani_degree(m)
        assert transpose(t) == m


def test_checkdeg_scaling(o0_103):
    # composing the first column with psi multiplies the Kani degree by deg(psi)
    rng = random.Random(70)
    nodes = random_nodes(o0_103, rng, count=3)
    a, b, c = nodes
    for _ in range(15):
        m = Mor2x2(m11=random_mor(a, b, rng), m12=random_mor(c, b, rng),
                   m21=random_mor(a, b, rng), m22=random_mor(c, b, rng))
        psi = random_mor(c, a, rng)
        composed = Mor2x2(m11=compose(m.m11, psi), m12=m.m12,
                          m21=compose(m.m21, psi), m22=m.m22)
        assert kani_degree(composed) == psi.degree() * kani_degree(m)


def test_make_automorphism(o0_103):
    rng = random.Random(71)
    nodes = random_nodes(o0_103, rng, count=2)
    f = random_mor(nodes[0], nodes[1], rng)
    deg = f.degree()
    mat, inv = make_automorphism(1 + deg, 1, 1, 1, f)
    assert kani_degree(mat) == 1
    prod = mat_compose(mat, inv)
    s = (1 + deg) * 1 - 1 * 1 * deg
    assert is_scalar_matrix(prod, s)
    ident, iinv = make_automorphism(1, 0, 0, 1, f)
    assert is_scalar_matrix(ident, 1)
    with pytest.raises(ValueError):
        make_automorphism(2, 1, 1, 1, f)  # 2 - deg != +-1 for deg not in (1, 3)


def test_mor_validation(o0_103, alg103):
    rng = random.Random(72)
    nodes = random_nodes(o0_103, rng, count=2)
    base, other = nodes
    # a quaternion violating the lattice condition is rejected
    with pytest.raises(ValueError):
        Mor(base, other, alg103.quaternion(1, 0, 0, 0) / 3)
    f = random_mor(base, other, rng)
    g = random_mor(other, base, rng)
    with pytest.raises(ValueError):
        compose(f, f)  # endpoint mismatch
    with pytest.raises(ValueError):
        add_mor(f, g)


def _kani_intermediates(mat):
    """The morphisms kani_degree builds: dual(m12), dual(m22), both
    compositions and their sum."""
    d12, d22 = dual(mat.m12), dual(mat.m22)
    left, right = compose(d12, mat.m11), compose(d22, mat.m21)
    return [d12, d22, left, right, add_mor(left, right)]


def test_derived_morphisms_keep_the_lattice_condition(monkeypatch, o0_103):
    # compose, add_mor, scalar_mul and dual skip the lattice test; the
    # checked constructor Mor(src, dst, elem) is the oracle for every
    # morphism they build in the pipelines and on the pipelines' outputs
    derived = []
    post_init = Mor.__post_init__

    def recording(self, _derived):
        if _derived:
            derived.append(self)
        post_init(self, _derived)

    monkeypatch.setattr(Mor, "__post_init__", recording)
    rng = random.Random(74)
    nodes = [node_from_ideal(random_left_ideal(o0_103, 3, 3, rng)) for _ in range(4)]
    outputs = [low_discriminant_isomorphism(nodes[0], 3, rng).matrix,
               isomorphism_E0(nodes[0], nodes[1], rng),
               isom_two_products(nodes[0], nodes[1], nodes[2], nodes[3], rng)]
    in_pipelines = len(derived)
    assert in_pipelines > 0
    for mat in outputs:
        t = transpose(mat)
        for m in (mat, t, mat_compose(mat, t), mat_compose(t, mat)):
            _kani_intermediates(m)
    assert len(derived) > in_pipelines
    for m in derived:
        Mor(m.src, m.dst, m.elem)  # raises ValueError if the condition fails


_UNCHECKED_DEGREE_SCRIPT = """
import sys
from fractions import Fraction
if __debug__:
    sys.exit(3)  # not running under -O
from quatisom import QuatAlgebra, base_node
from quatisom.homframe import Mor, VerificationError
base = base_node(QuatAlgebra(103))
# bypass the lattice check: 1/2 is no morphism of O0, its degree is 1/4
mor = object.__new__(Mor)
for name, value in (("src", base), ("dst", base), ("elem", base.alg.quaternion(Fraction(1, 2)))):
    object.__setattr__(mor, name, value)
try:
    mor.degree()
except VerificationError:
    sys.exit(0)
sys.exit(1)
"""


def test_degree_check_survives_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(quatisom.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _UNCHECKED_DEGREE_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_verification_error_is_reexported():
    from quatisom.isom import VerificationError as from_isom
    assert from_isom is VerificationError


def test_endomorphism_elems_are_order_elements(o0_103):
    rng = random.Random(73)
    node = node_from_ideal(random_left_ideal(o0_103, 3, 3, rng))
    lat = hom_lattice(node, node)
    assert lat == node.order.lattice
