import ast
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest

import quatisom
from quatisom import (CompletionPreconditionError, QuatAlgebra, SamplingBudgetError,
                      VerificationError, base_node, equivalent_power_norm_ideal,
                      isom_g_products, isom_two_products, isomorphism_E0,
                      isomorphism_completion, kani_degree, kernel_ideal, local_generator,
                      low_discriminant_isomorphism, node_from_ideal, principal_ideal,
                      principal_ideal_divide, random_left_ideal, represent_integer,
                      standard_extremal_order, sum_kernel_ideal, swap_with_E0,
                      verify_ideal_quadruple)
from quatisom import homframe, isom, orders
from quatisom.homframe import transpose, mat_compose
from quatisom.isom import (_bezout_split, _canonical_generator, _principal_generator,
                           conjugating_elements, is_isomorphic_order)
from quatisom.linalg import enumerate_up_to, lll_reduce
from quatisom.orders import (Ideal, Lattice4, Order, connecting_ideal, multiply_ideals, nrd_gram,
                             two_sided_prime)
from quatisom.quat import Quaternion


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


def test_principal_generator_rejects_right_principal_lattice(o0_103, alg103):
    # a*O0 has index Nrd(a)^2 and minimum Nrd(a) but is not a left O0-ideal
    a = alg103.quaternion(1, 2, 1, 0)
    lat = o0_103.lattice.lmul_q(a)
    assert lat != o0_103.lattice.rmul_q(a)
    assert lat.min_nonzero_norm()[1] == a.reduced_norm()
    assert _principal_generator(lat, o0_103) is None


def _principal_generator_by_index(lat, order):
    """`_principal_generator`'s index-based body before `equals_rmul`: a
    square index [order : lat], the minimal norm its root, and order*gen
    inside lat."""
    idx = lat.index_in(order.lattice)
    num, den = isqrt(idx.numerator), isqrt(idx.denominator)
    if num * num != idx.numerator or den * den != idx.denominator:
        return None
    gen, val = lat.min_nonzero_norm()
    if val != Fraction(num, den) or not lat.contains_rmul(order.lattice, gen):
        return None
    return gen


@pytest.mark.parametrize("p", [103, 503, 1019])
def test_principal_generator_matches_the_index_test(p):
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p + 11)
    principal, other = [], []
    for order in [o0] + [random_left_ideal(o0, 3, rng.randint(1, 4), rng).right_order()
                         for _ in range(2)]:
        for _ in range(3):
            lat = order.lattice.rmul_q(_random_quaternion(alg, rng))
            principal += [(lat, order), (lat.scale(Fraction(1, 3)), order)]
            # a*O is a right ideal, generally not left-principal
            other.append((order.lattice.lmul_q(_random_quaternion(alg, rng)), order))
        # index 2: not a square
        mat = order.lattice.mat
        other.append((Lattice4(alg, [[2 * v for v in mat[0]], *mat[1:]], order.lattice.den), order))
    for _ in range(6):
        lat = random_left_ideal(o0, rng.choice((3, 5)), rng.randint(1, 4), rng).lattice
        other += [(lat, o0), (lat.scale(Fraction(1, 3)), o0)]
    results = [_principal_generator(lat, order) for lat, order in principal + other]
    assert results == [_principal_generator_by_index(lat, order) for lat, order in principal + other]
    assert None not in results[:len(principal)]
    assert results[len(principal):].count(None) >= len(other) // 2


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
    base = base_node(alg103)
    res = low_discriminant_isomorphism(base, 3, random.Random(86))
    assert kani_degree(res.matrix) == 1
    # d11 = d21 = 1, so jk = O0: xi is the unit the search keeps, as when
    # the completion searches
    cert = res.certificate
    assert cert.d11 == cert.d21 == 1
    searched = isomorphism_completion(base, base, base, base, cert.i11, cert.i21)
    assert searched.certificate == cert and searched.matrix == res.matrix


@pytest.mark.parametrize("ell", [2, 9, 103])
def test_lowdisc_rejects_bad_ell_before_any_attempt(alg103, monkeypatch, ell):
    calls = []
    monkeypatch.setattr(isom, "equivalent_power_norm_ideal",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError):
        low_discriminant_isomorphism(base_node(alg103), ell, random.Random(88))
    assert calls == []


def test_lowdisc_does_not_retry_value_errors(o0_103, monkeypatch):
    # only budget failures are retried: a ValueError inside
    # an attempt is a fault and propagates from the first attempt
    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        raise ValueError("patched local generator failure")

    monkeypatch.setattr(isom, "local_generator", fail)
    node = node_from_ideal(random_left_ideal(o0_103, 5, 3, random.Random(89)))
    with pytest.raises(ValueError, match="patched local generator failure"):
        low_discriminant_isomorphism(node, 3, random.Random(90))
    assert len(calls) == 1


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
    # factors chain: the first acts on (0, 1), the second on (1, 2), through
    # the base node E0 in the middle coordinate
    assert chain[0][0] == 0 and chain[1][0] == 1
    first, second = chain[0][1], chain[1][1]
    assert first.sources() == (sources[0], sources[1])
    assert first.targets() == (targets[0], base)
    assert second.sources() == (base, sources[2])
    assert second.targets() == (targets[1], targets[2])
    with pytest.raises(ValueError):
        isom_g_products(sources[:1], targets[:1], rng)


def _walk_chain(chain, sources):
    """The coordinates after applying each factor in order, with each factor's
    sources checked against the coordinates it acts on."""
    current = list(sources)
    for idx, mat in chain:
        assert mat.sources() == tuple(current[idx:idx + 2])
        assert kani_degree(mat) == 1
        current[idx:idx + 2] = mat.targets()
    return current


@pytest.mark.parametrize("g", [4, 5])
def test_isom_g_products_middle_factors(o0_103, g):
    rng = random.Random(100 + g)
    base = base_node(o0_103.alg)
    nodes = [node_from_ideal(random_left_ideal(o0_103, (3, 5)[t % 2], 3, rng))
             for t in range(2 * g)]
    sources, targets = nodes[:g], nodes[g:]
    chain = isom_g_products(sources, targets, rng)
    assert [idx for idx, _ in chain] == list(range(g - 1))
    assert _walk_chain(chain, sources) == targets
    # every middle factor maps E0 x E(i+2) -> E(i+1)' x E0
    for idx, mat in chain[1:-1]:
        assert mat.sources() == (base, sources[idx + 1])
        assert mat.targets() == (targets[idx], base)


@pytest.mark.parametrize("g", [3, 4])
def test_isom_g_products_call_counts(monkeypatch, o0_103, g):
    # two isomorphism_E0 calls, and 2(g-2) low-discriminant calls outside them
    rng = random.Random(110 + g)
    nodes = [node_from_ideal(random_left_ideal(o0_103, 3, 3, rng)) for _ in range(2 * g)]
    counts = {"isomorphism_E0": 0, "direct_low_discriminant": 0}
    depth = [0]
    e0, low = isom.isomorphism_E0, isom.low_discriminant_isomorphism

    def counted_e0(*args, **kwargs):
        counts["isomorphism_E0"] += 1
        depth[0] += 1
        try:
            return e0(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_low(*args, **kwargs):
        if depth[0] == 0:
            counts["direct_low_discriminant"] += 1
        return low(*args, **kwargs)

    monkeypatch.setattr(isom, "isomorphism_E0", counted_e0)
    monkeypatch.setattr(isom, "low_discriminant_isomorphism", counted_low)
    chain = isom_g_products(nodes[:g], nodes[g:], rng)
    assert _walk_chain(chain, nodes[:g]) == nodes[g:]
    assert counts == {"isomorphism_E0": 2, "direct_low_discriminant": 2 * (g - 2)}


def test_isom_g_products_checks_its_chain(monkeypatch, o0_103):
    # a middle factor that starts at the wrong coordinates is caught by the walk
    rng = random.Random(120)
    nodes = [node_from_ideal(random_left_ideal(o0_103, 3, 3, rng)) for _ in range(8)]
    swap = isom.swap_with_E0
    monkeypatch.setattr(isom, "swap_with_E0",
                        lambda n1, n2, rng: swap(n2, n1, rng))
    with pytest.raises(VerificationError, match="current coordinates"):
        isom_g_products(nodes[:4], nodes[4:], rng)


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
    # rejected by the integer check of the pair, before a zero xi21 is used
    ("lambda d11, d21: (1, 1)", "does not split xi"),
    ("lambda d11, d21: (Fraction(1, d21), 0)", "does not split xi"),
    # a valid Bezout identity whose xi11 leaves J11: only the certificate
    # check, run before the entries are built, rejects it
    ("lambda d11, d21: (Fraction(1 + d11, d21), 1)", "certificate does not verify"),
], ids=["wrong-sum", "zero-v", "xi11-outside-J11"])
def test_split_checks_survive_python_O(pair, message):
    env = dict(os.environ, PYTHONPATH=str(Path(quatisom.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _PATCHED_SPLIT_SCRIPT, pair],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert message in proc.stdout


_UNCHECKED_INPUT_SCRIPT = """
import sys
from fractions import Fraction
if __debug__:
    sys.exit(3)  # not running under -O
import quatisom.isom as isom
from quatisom import QuatAlgebra, VerificationError, standard_extremal_order
from quatisom.serialization import ideal_from_json
o0 = standard_extremal_order(QuatAlgebra(103))
# 3*Z<1, i, j, k> has index 81 in O0, but its orders are Z<1, i, j, k>, not maximal
data = {"p": "103", "denominator": "1", "nrd": "9",
        "basis": [["3", "0", "0", "0"], ["0", "3", "0", "0"], ["0", "0", "3", "0"],
                  ["0", "0", "0", "3"]]}
try:
    ideal_from_json(data, o0.alg)
    sys.exit(1)
except ValueError:
    pass
# O0*(3 + 4i)/5 has the covolume of O0 but is not O0
g = o0.alg.quaternion(Fraction(3, 5), Fraction(4, 5))
try:
    isom._known_generator(o0.lattice, o0, o0.lattice, g)
    sys.exit(2)
except VerificationError:
    sys.exit(0)
"""


def test_input_checks_survive_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(quatisom.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _UNCHECKED_INPUT_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_pipelines_call_no_generic_solver(monkeypatch, o0_103):
    # completion, division, orders and norms are closed form: no pipeline may
    # reach HNF with transform, the integer kernel or system solver, a
    # lattice intersection or any shortest-vector search (the pipelines hold
    # all three generators of a completion), and no pipeline divides through the
    # division module.  A completion reduces at most two 16-row products, J11
    # and J21, and none on the low-discriminant route, where I_psi = O0 acts
    # on I11 and I21.  It makes at most 2 HNF reductions in all, the
    # lattices it keeps (J11 and J21, or I12 and I22): conjugates, products
    # by a rational xi (every general-route xi at this seed), the division
    # identities and the generator checks take none, jk and O2*xi are never
    # built, and the orders of I11, I21, I12 and I22 are left to first use.
    # So a check that repeats the certificate's or reduces a lattice it
    # only compares fails here
    rng = random.Random(94)
    nodes = [node_from_ideal(random_left_ideal(o0_103, 3, 3, rng)) for _ in range(4)]

    def forbidden(*args, **kwargs):
        pytest.fail("a pipeline called the generic solver layer or the generator search")

    for name, module in list(sys.modules.items()):
        if name == "quatisom" or name.startswith("quatisom."):
            for attr in ("hnf", "kernel_basis", "solve_integer", "_principal_generator",
                         "principal_ideal_divide", "integer_ideal_divide"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    monkeypatch.setattr(Lattice4, "intersect", forbidden)
    monkeypatch.setattr(Lattice4, "min_nonzero_norm", forbidden)

    counts, totals, active, lowdisc = [], [], [], []
    hnf_rows, completion = orders.hnf_rows, isom.isomorphism_completion

    def counting_hnf_rows(mat):
        if active:
            totals[-1] += 1
            counts[-1] += len(mat) == 16
        return hnf_rows(mat)

    def counted_completion(*args, **kwargs):
        orders._lattice_mul.cache_clear()  # count every product the completion needs
        counts.append(0)
        totals.append(0)
        lowdisc.append(args[2].is_base())  # n2 = E0: I_psi = O0
        active.append(True)
        try:
            return completion(*args, **kwargs)
        finally:
            active.pop()

    monkeypatch.setattr(orders, "hnf_rows", counting_hnf_rows)
    monkeypatch.setattr(isom, "isomorphism_completion", counted_completion)

    assert kani_degree(low_discriminant_isomorphism(nodes[0], 3, rng).matrix) == 1
    assert kani_degree(isomorphism_E0(nodes[0], nodes[1], rng)) == 1
    assert kani_degree(isom_two_products(*nodes, rng)) == 1
    chain = isom_g_products(nodes[:3], nodes[1:], rng)
    assert [kani_degree(mat) for _, mat in chain] == [1, 1]
    assert len(counts) == 1 + 2 + 4 + 6
    assert max(counts) <= 2, counts
    assert all(c == 0 for c, low in zip(counts, lowdisc) if low), (counts, lowdisc)
    assert max(totals) <= 2, totals


def _pipeline_column(o0, rng):
    """The first column isomorphism_E0 completes, with its known generators."""
    n1, n2 = (node_from_ideal(random_left_ideal(o0, 3, 3, rng)) for _ in range(2))
    i1, beta1 = equivalent_power_norm_ideal(n1.frame, 3, rng)
    i2, beta2 = equivalent_power_norm_ideal(n2.frame, 5, rng)
    n3 = node_from_ideal(sum_kernel_ideal(i1, i2))
    gens = (beta1.conjugate() / n1.frame_norm(), beta2.conjugate() / n2.frame_norm(),
            o0.alg.quaternion(i1.nrd() * i2.nrd()))
    return (base_node(o0.alg), n1, n3, n2, i1, i2), gens


def _lowdisc_column(o0, rng, ell=3):
    """The column low_discriminant_isomorphism completes, with its known
    generators: KLPT's ideal I11, an l-primitive alpha and the local
    generator x of I21 = O0*x."""
    node = node_from_ideal(random_left_ideal(o0, 5, 3, rng))
    i11, beta = equivalent_power_norm_ideal(node.frame, ell, rng)
    m, n = 0, i11.nrd()
    while n % ell == 0:
        n, m = n // ell, m + 1
    alpha = represent_integer(o0, ell ** m, rng)
    while m and o0.lattice.scale(ell).contains(alpha):
        alpha = represent_integer(o0, ell ** m, rng)
    alpha, x = local_generator(ell, i11, alpha)
    base = base_node(o0.alg)
    gens = (beta.conjugate() / node.frame_norm(), x, alpha * x)
    return (base, node, base, base, i11, principal_ideal(o0, x)), gens


def test_completion_from_generators_matches_search(o0_103):
    args, gens = _pipeline_column(o0_103, random.Random(95))
    searched = isomorphism_completion(*args)
    given = isomorphism_completion(*args, generators=gens)
    assert given.matrix == searched.matrix
    assert given.certificate == searched.certificate
    # -1 is a unit of every order, so it normalizes away
    flipped = isomorphism_completion(*args, generators=tuple(-g for g in gens))
    assert flipped.certificate == searched.certificate


@pytest.mark.parametrize("p", [103, 503, 1019])
def test_closed_form_xi_matches_search(monkeypatch, p):
    # on both routes the pipelines know xi (the scalar d11*d21 on the
    # general route, alpha*x on the low-discriminant one), so completion
    # searches nothing; its output must be what the search finds
    o0 = standard_extremal_order(QuatAlgebra(p))
    rng = random.Random(p)

    def forbidden(*args, **kwargs):
        pytest.fail("a completion from known generators searched")

    for args, gens in (_pipeline_column(o0, rng), _lowdisc_column(o0, rng)):
        with monkeypatch.context() as patch:
            patch.setattr(Lattice4, "min_nonzero_norm", forbidden)
            patch.setattr(isom, "_principal_generator", forbidden)
            given = isomorphism_completion(*args, generators=gens)
        searched = isomorphism_completion(*args)
        assert given.certificate == searched.certificate
        assert given.matrix == searched.matrix
        # I12 and I22 are the closed form of the reference division, conjugated
        cert = given.certificate
        psi_bar = cert.i_psi.conjugate()
        for i_first, i_second, xi in ((cert.i11, cert.i12, cert.xi11),
                                      (cert.i21, cert.i22, cert.xi21)):
            j = multiply_ideals(psi_bar, i_first, check_compatible=False)
            w = principal_ideal_divide(args[2].order, i_first.right_order(), xi, j)
            assert i_second == w.conjugate()
            # the closed-form reduced norm Nrd(xi)/Nrd(J) is the lattice's own
            assert i_second.nrd() == Ideal(i_second.lattice).nrd()


def test_completion_rejects_wrong_generator(o0_103, alg103):
    args, gens = _pipeline_column(o0_103, random.Random(96))
    one_plus_i = alg103.quaternion(1, 1)
    # (3 + 4i)/5 has norm 1 and lies in no order, so each twisted generator
    # has the right reduced norm but generates another lattice: only the
    # containment half of the check rejects it
    twist = alg103.quaternion(Fraction(3, 5), Fraction(4, 5))
    assert twist.reduced_norm() == 1
    wrong = [(gens[0] * one_plus_i, gens[1], gens[2]),
             (gens[0], gens[1] * one_plus_i, gens[2]),
             (alg103.zero(), gens[1], gens[2]),
             (gens[0], gens[1], gens[2] * one_plus_i),
             (gens[0], gens[1], alg103.zero()),
             (gens[0] * twist, gens[1], gens[2]),
             (gens[0], gens[1] * twist, gens[2]),
             (gens[0], gens[1], gens[2] * twist)]
    for bad in wrong:
        with pytest.raises(VerificationError):
            isomorphism_completion(*args, generators=bad)


@pytest.mark.parametrize("p", [103, 503, 1019])
def test_containment_checks_match_the_reduced_lattices(p):
    # the division identity's (d), A*B <= O2*xi, and the completion's
    # jk <= O2*g are tested against O2's kept inverse with no lattice O2*xi,
    # O2*g or jk; on pipeline columns of both routes they must agree with
    # the same tests on the HNF-built lattices, accept the true xi and g,
    # and reject them times 1+i or times a prime
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p + 7)
    one_plus_i, prime = alg.quaternion(1, 1), alg.quaternion(7)
    for args, gens in (_pipeline_column(o0, rng), _lowdisc_column(o0, rng)):
        cert = isomorphism_completion(*args, generators=gens).certificate
        o2, d11, d21 = args[2].order, cert.d11, cert.d21
        psi_bar = cert.i_psi.conjugate().lattice
        j11, j21 = psi_bar.mul(cert.i11.lattice), psi_bar.mul(cert.i21.lattice)
        jk = j11.scale(d21).add(j21.scale(d11))
        g = gens[2]
        assert o2.lattice.rmul_q(g) == jk
        for h, ok in ((g, True), (g * one_plus_i, False), (g * prime, False)):
            inside = isom._jk_inside(o2, j11, j21, d11, d21, h)
            assert inside == o2.lattice.rmul_q(h).contains_lattice(jk) == ok
        for a, i_second, xi in ((j11, cert.i12, cert.xi11), (j21, cert.i22, cert.xi21)):
            b = i_second.conjugate().lattice
            for x, ok in ((xi, True), (xi * one_plus_i, False), (xi * prime, False)):
                inside = o2.lattice.contains_product(a, b, x.inverse())
                assert inside == o2.lattice.rmul_q(x).contains_product(a, b) == ok
                assert homframe._division_identity(o2, a, b, x) == ok
        for h in (g * one_plus_i, g * prime):
            with pytest.raises(VerificationError):
                isomorphism_completion(*args, generators=(gens[0], gens[1], h))


def test_swapped_certificate_fails_with_warm_product_memo(o0_103):
    # right after a completion its products are memoized; the benchmark's
    # negative control (I12 replaced by I22) must still be rejected
    res = low_discriminant_isomorphism(node_from_ideal(random_left_ideal(o0_103, 5, 3,
                                                                         random.Random(97))),
                                       3, random.Random(98))
    cert = res.certificate
    assert orders._lattice_mul.cache_info().currsize > 0
    assert cert.i12 != cert.i22
    assert cert.verify(o0_103)
    assert not replace(cert, i12=cert.i22).verify(o0_103)
    assert not replace(cert, i22=cert.i12).verify(o0_103)


def _random_quaternion(alg, rng):
    while True:
        q = alg.quaternion(*(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                             for _ in range(4)))
        if not q.is_zero():
            return q


@pytest.mark.parametrize("p", [103, 503, 1019])
def test_canonical_generator_matches_search(p):
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p)
    orders_ = [o0]
    for _ in range(6):
        orders_.append(random_left_ideal(o0, 3, 4, rng).right_order())
    for _ in range(3):
        # conjugates of O0 keep its four units
        a = _random_quaternion(alg, rng)
        orders_.append(Order(o0.lattice.lmul_q(a.inverse()).rmul_q(a)))
    unit_counts = {len(o.units()) for o in orders_}
    assert {2, 4} <= unit_counts
    for order in orders_:
        for _ in range(4):
            g = _random_quaternion(alg, rng)
            expected = _principal_generator(order.lattice.rmul_q(g), order)
            assert _canonical_generator(order, g) == expected
        # a unit generates the order itself: the search keeps one of its units
        kept_unit = _principal_generator(order.lattice, order)
        for u in order.units():
            assert _canonical_generator(order, u) == kept_unit


# a left O0-ideal of norm 3^5 at p = 503 whose right order contains a cube
# root of unity: the order of the curve with j = 0, with 6 units
_J0_FRAME_503 = ([[1, 0, 334, 207], [0, 1, 279, 334], [0, 0, 486, 0], [0, 0, 0, 486]], 2)


def _norm_one_elements(lat):
    """The elements of reduced norm 1 of a lattice, both signs, by
    enumeration of the vectors of integer form value den^2."""
    gram, den = nrd_gram(lat.alg.p), lat.den
    red, _ = lll_reduce([list(r) for r in lat.mat], gram)
    out = []
    for x, v in enumerate_up_to(red, gram, Fraction(den * den)):
        if v == den * den:
            row = tuple(sum(c * r[t] for c, r in zip(x, red)) for t in range(4))
            out += [Quaternion(lat.alg, row, den), Quaternion(lat.alg, tuple(-c for c in row), den)]
    return out


@pytest.mark.parametrize("p", [103, 503, 1019])
def test_units_from_the_ideal_match_the_norm_one_search(p):
    """`units()` reads the minimal vectors of the lattice an order was made
    from, or of its own lattice for O0, `Order(...)` and `conjugate_by`; it
    must give the set that the search for elements of norm 1 in the order
    gives, and `_canonical_generator` must still pick what
    `_principal_generator` finds."""
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p + 7)
    made = []
    for _ in range(5):
        lat = random_left_ideal(o0, rng.choice((3, 5)), rng.randint(1, 4), rng).lattice
        made += [orders.right_order(lat), orders.left_order(lat.conjugate())]
    # O0*a has right order a^-1*O0*a, a conjugate of O0 with its four units
    conjugates = [orders.right_order(o0.lattice.rmul_q(_random_quaternion(alg, rng)))
                  for _ in range(2)]
    special = conjugates
    if p == 503:
        rows, den = _J0_FRAME_503
        special = conjugates + [orders.right_order(Lattice4(alg, rows, den))]
    # orders with no source ideal: O0, a public Order(...), a conjugate_by order
    own = [o0, Order(made[0].lattice), o0.conjugate_by(_random_quaternion(alg, rng))]
    assert all(o._ideal is not None for o in made + special)
    assert all(o._ideal is None for o in own)
    for order in made + special + own:
        units = order.units()
        assert len(units) == len(set(units))
        assert set(units) == set(_norm_one_elements(order.lattice))
        for _ in range(3):
            g = _random_quaternion(alg, rng)
            expected = _principal_generator(order.lattice.rmul_q(g), order)
            assert _canonical_generator(order, g) == expected
    assert {len(o.units()) for o in made} <= {2, 4, 6}
    assert [len(o.units()) for o in special] == [4, 4] + [6] * (p == 503)
    assert [len(o.units()) for o in own] == [4, len(made[0].units()), 4]
    if p == 103:
        # O0's own minimal vectors, in the order its reduction gives them
        assert o0.units() == [alg.quaternion(*c) for c in ((0, -1), (0, 1), (-1,), (1,))]


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


# ---------------------------------------------------------------------------
# Conjugacy of orders: the trace-zero minimum


def _conjugate_order(order, g):
    return Order(order.lattice.lmul_q(g).rmul_q(g.inverse()))


def _principal_generator_reference(lat, order):
    """`_principal_generator` with its check by lattice equality."""
    idx = lat.index_in(order.lattice)
    num, den = isqrt(idx.numerator), isqrt(idx.denominator)
    if num * num != idx.numerator or den * den != idx.denominator:
        return None
    gen, val = lat.min_nonzero_norm()
    if val != Fraction(num, den) or order.lattice.rmul_q(gen) != lat:
        return None
    return gen


def _conjugating_elements_reference(o_from, o_to):
    """`conjugating_elements` without the trace-zero test: it always searches."""
    if o_from == o_to:
        return [o_from.alg.one()]
    out = []
    conn = connecting_ideal(o_to, o_from)
    g = _principal_generator_reference(conn.lattice, o_to)
    if g is not None:
        out.append(g)
    twisted = multiply_ideals(conn, two_sided_prime(o_from), check_compatible=False)
    g = _principal_generator_reference(twisted.lattice, o_to)
    if g is not None:
        out.append(g)
    return out


def _forbid_search(monkeypatch):
    def forbidden(*args):
        pytest.fail("conjugating_elements searched for a connecting ideal's generator")

    monkeypatch.setattr(isom, "connecting_ideal", forbidden)


@pytest.mark.parametrize("p", [103, 503])
def test_trace_zero_minimum_by_enumeration(p):
    # x - n lies in O for every integer n, so a trace-zero projection of norm
    # m comes from some x in O with nrd(x) <= m + 1/4: enumerating O up to
    # that bound finds the minimum and nothing below it
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p + 1)
    for order in [o0] + [random_left_ideal(o0, 3, 3, rng).right_order() for _ in range(4)]:
        least = order.trace_zero_minimum()
        lat = order.lattice
        found = enumerate_up_to([list(r) for r in lat.mat], nrd_gram(p),
                                (least + Fraction(1, 4)) * lat.den ** 2)
        projected = []
        for coeffs, _ in found:
            x = [Fraction(sum(c * r[t] for c, r in zip(coeffs, lat.mat)), lat.den)
                 for t in range(4)]
            pure = alg.quaternion(0, *x[1:])  # x - trd(x)/2
            if not pure.is_zero():
                projected.append(pure.reduced_norm())
        assert min(projected) == least
    assert o0.trace_zero_minimum() == 1  # i


@pytest.mark.parametrize("p", [103, 503, 1019, 2 ** 32 + 15])
def test_trace_zero_minimum_is_a_conjugation_invariant(p):
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p)
    for order in [o0] + [random_left_ideal(o0, 3, 4, rng).right_order() for _ in range(3)]:
        for _ in range(3):
            g = _random_quaternion(alg, rng)
            conj = _conjugate_order(order, g)
            assert conj.trace_zero_minimum() == order.trace_zero_minimum()
            assert is_isomorphic_order(order, conj)
            assert is_isomorphic_order(conj, order)


def _certificate_orders(o0, rng):
    """(O_L(X), O_R(Y)) for the second-column ideals X and first-column ideals
    Y of a completion certificate: the pairs verification realigns, with
    those of its swapped-column controls."""
    i11 = random_left_ideal(o0, 3, 4, rng)
    i21 = random_left_ideal(o0, 5, 2, rng)
    n2 = node_from_ideal(sum_kernel_ideal(i11, i21))
    cert = isomorphism_completion(base_node(o0.alg), node_from_ideal(i11), n2,
                                  node_from_ideal(i21), i11, i21).certificate
    targets = [cert.i11.right_order(), cert.i21.right_order()]
    sources = [x.left_order() for y in (cert.i12, cert.i22) for x in (y, y.conjugate())]
    return [(s, t) for s in sources for t in targets]


def test_conjugating_elements_matches_reference():
    pairs = []
    for p in (103, 503, 1019):
        o0 = standard_extremal_order(QuatAlgebra(p))
        rng = random.Random(p + 2)
        for _ in range(4):
            cert_pairs = _certificate_orders(o0, rng)
            pairs += cert_pairs + [(b, a) for a, b in cert_pairs]
        pool = [o0] + [random_left_ideal(o0, rng.choice((3, 5)), rng.randint(1, 3), rng)
                       .right_order() for _ in range(6)]
        pool.append(_conjugate_order(pool[-1], _random_quaternion(o0.alg, rng)))
        pairs += [(a, b) for a in pool for b in pool]
    assert len(pairs) == 384
    verdicts = set()
    for o_from, o_to in pairs:
        got = conjugating_elements(o_from, o_to)
        assert got == _conjugating_elements_reference(o_from, o_to)
        verdicts.add((bool(got), o_from.trace_zero_minimum() == o_to.trace_zero_minimum()))
    # both verdicts occur, and a conjugate pair never has different minima
    assert {(True, True), (False, False)} <= verdicts
    assert (True, False) not in verdicts


def test_different_minima_need_no_search(monkeypatch, o0_103):
    order = random_left_ideal(o0_103, 3, 4, random.Random(98)).right_order()
    assert order.trace_zero_minimum() != o0_103.trace_zero_minimum()
    _forbid_search(monkeypatch)
    assert conjugating_elements(order, o0_103) == []
    assert conjugating_elements(o0_103, order) == []
    assert not is_isomorphic_order(order, o0_103)


@pytest.mark.parametrize("p", [2 ** 61 + 15, 2 ** 128 + 51])
def test_conjugacy_at_large_p(monkeypatch, p):
    alg = QuatAlgebra(p)
    o0 = standard_extremal_order(alg)
    rng = random.Random(p)
    o1, o2 = (random_left_ideal(o0, ell, 3, rng).right_order() for ell in (3, 5))
    for order in (o0, o1):
        g = _random_quaternion(alg, rng)
        assert is_isomorphic_order(order, _conjugate_order(order, g))
    _forbid_search(monkeypatch)
    assert not is_isomorphic_order(o1, o2)
    assert not is_isomorphic_order(o0, o2)
