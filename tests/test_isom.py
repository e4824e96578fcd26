import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import quatisom
from quatisom import (CompletionPreconditionError, SamplingBudgetError, VerificationError,
                      base_node, isom_g_products, isom_two_products, isomorphism_E0,
                      isomorphism_completion, kani_degree, kernel_ideal,
                      low_discriminant_isomorphism, node_from_ideal, principal_ideal,
                      random_left_ideal, sum_kernel_ideal, swap_with_E0,
                      verify_ideal_quadruple)
from quatisom.homframe import transpose, mat_compose
from quatisom.isom import _bezout_split, _principal_generator, is_isomorphic_order
from quatisom.orders import Lattice4


def test_principal_generator(o0_103, alg103):
    a = alg103.quaternion(6, 1, 1, -1)
    lat = principal_ideal(o0_103, a).lattice
    gen = _principal_generator(lat, o0_103)
    assert gen.reduced_norm() == a.reduced_norm()
    assert o0_103.lattice.rmul_q(gen) == lat
    # O0*(a/3) is not inside O0 but is principal; index Nrd(a/3)^2 = 27^2
    assert _principal_generator(lat.scale(Fraction(1, 3)), o0_103) is not None


def test_principal_generator_rejects_non_principal(o0_103):
    # O0 has no element of norm 3 at p = 103, so no ideal of norm 3 is principal
    ideal = random_left_ideal(o0_103, 3, 1, random.Random(82))
    assert ideal.lattice.index_in(o0_103.lattice) == 9
    assert _principal_generator(ideal.lattice, o0_103) is None


def test_principal_generator_rejects_non_square_index(o0_103, alg103):
    # O0 with its first HNF row doubled: index 2, not a square
    rows = [list(r) for r in o0_103.lattice.mat]
    rows[0] = [2 * v for v in rows[0]]
    lat = Lattice4(alg103, rows, o0_103.lattice.den)
    assert lat.index_in(o0_103.lattice) == 2
    assert _principal_generator(lat, o0_103) is None
    # and a rational index that is not a square: 2/81
    assert _principal_generator(lat.scale(Fraction(1, 3)), o0_103) is None


def test_sum_kernel_ideal(o0_103):
    rng = random.Random(81)
    i1 = random_left_ideal(o0_103, 3, 3, rng)
    assert sum_kernel_ideal(i1, o0_103.one_ideal()).lattice == i1.lattice
    i2 = random_left_ideal(o0_103, 5, 2, rng)
    out = sum_kernel_ideal(i1, i2)
    assert out.nrd() == i1.nrd() * i2.nrd()
    with pytest.raises(ValueError):
        sum_kernel_ideal(i1, random_left_ideal(o0_103, 3, 2, rng))


def test_sum_kernel_equals_intersection(o0_103):
    # for coprime norms the weighted sum is the intersection of the two ideals
    rng = random.Random(82)
    i1 = random_left_ideal(o0_103, 3, 3, rng)
    i2 = random_left_ideal(o0_103, 5, 2, rng)
    assert sum_kernel_ideal(i1, i2).lattice == i1.lattice.intersect(i2.lattice)


def test_sum_kernel_paper_value(example_p503):
    out = sum_kernel_ideal(example_p503["I11"], example_p503["I21"])
    assert out.nrd() == 729 * 625 == 455625


def test_completion_trivial_principal(o0_103, alg103):
    # I11 = O0, I21 principal of coprime norm, everything at the base node
    rng = random.Random(83)
    base = base_node(alg103)
    from quatisom import represent_integer

    nu = represent_integer(o0_103, 106, rng)  # 106 = 2*53 coprime to 1
    i21 = principal_ideal(o0_103, nu)
    res = isomorphism_completion(base, base, base, base, o0_103.one_ideal(), i21)
    assert kani_degree(res.matrix) == 1
    assert res.certificate.verify(o0_103)


def test_completion_paper_503(example_p503, o0_503, alg503):
    i11, i21 = example_p503["I11"], example_p503["I21"]
    base = base_node(alg503)
    n1p = node_from_ideal(i11)
    n2p = node_from_ideal(i21)
    n2 = node_from_ideal(sum_kernel_ideal(i11, i21))
    res = isomorphism_completion(base, n1p, n2, n2p, i11, i21)
    assert kani_degree(res.matrix) == 1
    cert = res.certificate
    xi = cert.xi11 * cert.d21 - cert.xi21 * cert.d11
    assert xi.reduced_norm() == 729 * 625 * cert.i_psi.nrd()
    assert cert.verify(n2.order)
    # first-column kernel ideals reproduce the inputs
    assert kernel_ideal(res.matrix.m11).lattice == i11.lattice
    assert kernel_ideal(res.matrix.m21).lattice == i21.lattice
    # second-column degrees match the certificate norms
    assert res.matrix.m12.degree() == cert.i12.nrd()
    assert res.matrix.m22.degree() == cert.i22.nrd()


def test_completion_roundtrip_verify(example_p503, alg503):
    i11, i21 = example_p503["I11"], example_p503["I21"]
    base = base_node(alg503)
    res = isomorphism_completion(base, node_from_ideal(i11),
                                 node_from_ideal(sum_kernel_ideal(i11, i21)),
                                 node_from_ideal(i21), i11, i21)
    cert = res.certificate
    rep = verify_ideal_quadruple(cert.i11, cert.i21, cert.i12, cert.i22)
    assert rep.ok, rep.reason


def test_bezout_split_small_norms():
    for d11 in range(1, 61):
        for d21 in range(1, 61):
            if gcd(d11, d21) != 1:
                continue
            u, v = _bezout_split(d11, d21)
            assert u * d21 - v * d11 == 1
            assert u != 0 and v != 0
            # Nrd(xi11) = u^2*Nrd(xi), so u must stay of the size of d11
            assert abs(u) <= 2 * d11


def test_completion_unit_norms(o0_103, alg103):
    # d11 = d21 = 1: the plain Bezout pair (0, -1) and its first shift (1, 0)
    # each leave a part zero
    base = base_node(alg103)
    res = isomorphism_completion(base, base, base, base, o0_103.one_ideal(), o0_103.one_ideal())
    assert kani_degree(res.matrix) == 1
    cert = res.certificate
    assert cert.verify(o0_103)
    assert cert.d11 == cert.d21 == 1
    assert not cert.xi11.is_zero() and not cert.xi21.is_zero()


def test_completion_rejects_noncoprime(o0_103, alg103):
    rng = random.Random(84)
    base = base_node(alg103)
    i1 = random_left_ideal(o0_103, 3, 2, rng)
    i2 = random_left_ideal(o0_103, 3, 3, rng)
    with pytest.raises(ValueError):
        isomorphism_completion(base, node_from_ideal(i1), base, node_from_ideal(i2), i1, i2)


def test_completion_negative_control(o0_103, alg103):
    # a deliberately wrong quotient node must be detected
    rng = random.Random(85)
    base = base_node(alg103)
    i11 = random_left_ideal(o0_103, 3, 3, rng)
    i21 = random_left_ideal(o0_103, 5, 2, rng)
    good = node_from_ideal(sum_kernel_ideal(i11, i21))
    detected = 0
    trials = 0
    while trials < 5:
        wrong = node_from_ideal(random_left_ideal(o0_103, 7, 2, rng))
        if is_isomorphic_order(wrong.order, good.order):
            continue
        trials += 1
        with pytest.raises(CompletionPreconditionError):
            isomorphism_completion(base, node_from_ideal(i11), wrong,
                                   node_from_ideal(i21), i11, i21)
        detected += 1
    assert detected == trials


def test_lowdisc_base_target(alg103):
    res = low_discriminant_isomorphism(base_node(alg103), 3, random.Random(86))
    assert kani_degree(res.matrix) == 1


def test_lowdisc_paper_input(example_p103, o0_103):
    res = low_discriminant_isomorphism(node_from_ideal(example_p103["I11"]), 3,
                                       random.Random(87))
    assert kani_degree(res.matrix) == 1
    cert = res.certificate
    assert cert.i11.lattice == example_p103["I11"].lattice
    assert cert.d11 == 243
    assert cert.verify(o0_103)
    rep = verify_ideal_quadruple(cert.i11, cert.i21, cert.i12, cert.i22)
    assert rep.ok


def test_lowdisc_accepts_paper_column(example_p103, o0_103, alg103):
    # the paper's printed I21 = O0*nu1 completes against the printed I11
    i11 = example_p103["I11"]
    i21 = principal_ideal(o0_103, example_p103["nu1"])
    base = base_node(alg103)
    res = isomorphism_completion(base, node_from_ideal(i11), base, base, i11, i21)
    assert kani_degree(res.matrix) == 1
    rep = verify_ideal_quadruple(res.certificate.i11, res.certificate.i21,
                                 res.certificate.i12, res.certificate.i22)
    assert rep.ok


def test_verify_paper_quadruple_p103(example_p103):
    rep = verify_ideal_quadruple(example_p103["I11"], example_p103["I21"],
                                 example_p103["I12"], example_p103["I22"])
    assert rep.ok, rep.reason


def test_verify_rejects_wrong_quadruple(example_p103, o0_103):
    rng = random.Random(88)
    junk = random_left_ideal(o0_103, 7, 3, rng)
    rep = verify_ideal_quadruple(example_p103["I11"], example_p103["I21"],
                                 junk, example_p103["I22"])
    assert not rep.ok


def test_isomorphism_E0(o0_103):
    rng = random.Random(89)
    n1 = node_from_ideal(random_left_ideal(o0_103, 3, 3, rng))
    n2 = node_from_ideal(random_left_ideal(o0_103, 3, 3, rng))
    mat = isomorphism_E0(n1, n2, rng)
    assert kani_degree(mat) == 1
    base = base_node(o0_103.alg)
    assert mat.sources() == (base, base)
    assert mat.targets() == (n1, n2)


def test_isom_two_products(o0_103):
    rng = random.Random(90)
    nodes = [node_from_ideal(random_left_ideal(o0_103, 3, 3, rng)) for _ in range(4)]
    mat = isom_two_products(*nodes, rng)
    assert kani_degree(mat) == 1
    assert mat.sources() == (nodes[0], nodes[1])
    assert mat.targets() == (nodes[2], nodes[3])
    # composing with the transpose yields a degree-1 endomorphism matrix
    comp = mat_compose(transpose(mat), mat)
    assert kani_degree(comp) == 1


def test_swap_with_E0(o0_103):
    rng = random.Random(91)
    n1 = node_from_ideal(random_left_ideal(o0_103, 3, 3, rng))
    n2 = node_from_ideal(random_left_ideal(o0_103, 5, 2, rng))
    mat = swap_with_E0(n1, n2, rng)
    assert kani_degree(mat) == 1
    base = base_node(o0_103.alg)
    assert mat.sources() == (n1, base)
    assert mat.targets() == (n2, base)


def test_isom_g_products(o0_103):
    rng = random.Random(92)
    base = base_node(o0_103.alg)
    sources = [node_from_ideal(random_left_ideal(o0_103, 3, 3, rng)) for _ in range(3)]
    targets = [node_from_ideal(random_left_ideal(o0_103, 3, 3, rng)) for _ in range(2)] + [base]
    chain = isom_g_products(sources, targets, rng)
    assert len(chain) == 2
    for idx, mat in chain:
        assert kani_degree(mat) == 1
    # factors chain: the first acts on (0, 1), the second on (1, 2)
    assert chain[0][0] == 0 and chain[1][0] == 1
    first, second = chain[0][1], chain[1][1]
    assert first.sources() == (sources[0], sources[1])
    assert first.targets() == (targets[0], targets[1])
    assert second.sources() == (targets[1], sources[2])
    assert second.targets() == (targets[1], targets[2])
    with pytest.raises(ValueError):
        isom_g_products(sources[:1], targets[:1], rng)


def test_isom_g_base_case(o0_103):
    rng = random.Random(93)
    nodes = [node_from_ideal(random_left_ideal(o0_103, 3, 3, rng)) for _ in range(4)]
    chain = isom_g_products(nodes[:2], nodes[2:], rng)
    assert len(chain) == 1 and chain[0][0] == 0
    assert kani_degree(chain[0][1]) == 1


_PATCHED_DEGREE_SCRIPT = """
import random, sys
if __debug__:
    sys.exit(3)  # not running under -O
import quatisom.isom as isom
from quatisom import (QuatAlgebra, VerificationError, base_node, node_from_ideal,
                      random_left_ideal, standard_extremal_order, sum_kernel_ideal)
isom.kani_degree = lambda mat: 2
o0 = standard_extremal_order(QuatAlgebra(103))
rng = random.Random(5)
i11 = random_left_ideal(o0, 3, 3, rng)
i21 = random_left_ideal(o0, 5, 2, rng)
n2 = node_from_ideal(sum_kernel_ideal(i11, i21))
try:
    isom.isomorphism_completion(base_node(o0.alg), node_from_ideal(i11), n2,
                                node_from_ideal(i21), i11, i21)
except VerificationError:
    sys.exit(0)
sys.exit(1)
"""


def test_verification_survives_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(quatisom.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _PATCHED_DEGREE_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


_PATCHED_SPLIT_SCRIPT = """
import random, sys
from fractions import Fraction
if __debug__:
    sys.exit(3)  # not running under -O
import quatisom.isom as isom
from quatisom import (QuatAlgebra, VerificationError, base_node, node_from_ideal,
                      random_left_ideal, standard_extremal_order, sum_kernel_ideal)
isom._bezout_split = eval(sys.argv[1])
o0 = standard_extremal_order(QuatAlgebra(103))
rng = random.Random(5)
i11 = random_left_ideal(o0, 3, 3, rng)
i21 = random_left_ideal(o0, 5, 2, rng)
n2 = node_from_ideal(sum_kernel_ideal(i11, i21))
try:
    isom.isomorphism_completion(base_node(o0.alg), node_from_ideal(i11), n2,
                                node_from_ideal(i21), i11, i21)
except VerificationError as err:
    print(err)
    sys.exit(0)
sys.exit(1)
"""


@pytest.mark.parametrize("pair, message", [
    ("lambda d11, d21: (1, 1)", "does not sum to xi"),
    ("lambda d11, d21: (Fraction(1, d21), 0)", "leaves J11 or J21"),
])
def test_split_checks_survive_python_O(pair, message):
    env = dict(os.environ, PYTHONPATH=str(Path(quatisom.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _PATCHED_SPLIT_SCRIPT, pair],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert message in proc.stdout


def test_pipelines_call_no_generic_solver(monkeypatch, o0_103):
    # completion, division, orders and norms are closed form: no pipeline may
    # reach HNF with transform, the integer kernel or system solver, or a
    # lattice intersection
    rng = random.Random(94)
    nodes = [node_from_ideal(random_left_ideal(o0_103, 3, 3, rng)) for _ in range(4)]

    def forbidden(*args, **kwargs):
        pytest.fail("a pipeline called the generic integer solver layer")

    for name, module in list(sys.modules.items()):
        if name == "quatisom" or name.startswith("quatisom."):
            for attr in ("hnf", "kernel_basis", "solve_integer"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    monkeypatch.setattr(Lattice4, "intersect", forbidden)

    assert kani_degree(low_discriminant_isomorphism(nodes[0], 3, rng).matrix) == 1
    assert kani_degree(isomorphism_E0(nodes[0], nodes[1], rng)) == 1
    assert kani_degree(isom_two_products(*nodes, rng)) == 1
    chain = isom_g_products(nodes[:3], nodes[1:], rng)
    assert [kani_degree(mat) for _, mat in chain] == [1, 1]


def test_library_has_no_assert():
    # python -O strips assert statements; every check must be explicit code
    found = []
    for path in sorted(Path(quatisom.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_verification_error_is_not_retried():
    for caught in (ValueError, SamplingBudgetError, CompletionPreconditionError):
        assert not issubclass(VerificationError, caught)
