"""Top-level algorithms: isomorphism completion from a first column, the
low-discriminant route, the general two-product pipeline, g-fold chains,
and verification of externally supplied ideal quadruples.

A g-fold chain E1 x ... x Eg -> E1' x ... x Eg' (g >= 3) passes through E0
in its middle coordinates: two `isomorphism_E0` calls at its ends and
2(g-2) low-discriminant calls in between, instead of g-1 two-product
isomorphisms (2(g-1) `isomorphism_E0` calls).

Every pipeline output is verified before it is returned (Las Vegas:
randomness never affects correctness).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .homframe import (Certificate, Mor, Mor2x2, VerificationError,  # noqa: F401 (re-exported)
                       _check, base_node, dual, extend_node, kani_degree,
                       kernel_ideal_equals, mat_compose, node_from_ideal, swap_rows, transpose)
from .linalg import _val
from .localization import local_generator
from .normeq import equivalent_power_norm_ideal, represent_integer
from .orders import (Ideal, Order, SamplingBudgetError, connecting_ideal, multiply_ideals,
                     principal_ideal, standard_extremal_order, two_sided_prime)
from .quat import Quaternion, is_prime


class CompletionPreconditionError(RuntimeError):
    """The principal-generator search failed: the target is not isomorphic
    to the quotient by the direct sum of the kernels."""


_LOWDISC_ATTEMPTS = 6  # budget failures a low-discriminant run retries


@dataclass
class CompletionResult:
    matrix: Mor2x2
    certificate: Certificate


def sum_kernel_ideal(i1: Ideal, i2: Ideal) -> Ideal:
    """Nrd(I1)*I2 + Nrd(I2)*I1, the kernel ideal of ker + ker (coprime norms)."""
    n1, n2 = i1.nrd(), i2.nrd()
    if gcd(n1, n2) != 1:
        raise ValueError("kernel ideals must have coprime norms")
    if i1.left_order() != i2.left_order():
        raise ValueError("kernel ideals must share a left order")
    out = Ideal(i1.lattice.scale(n2).add(i2.lattice.scale(n1)), left=i1._left)
    _check(out.nrd() == n1 * n2, "the sum of the kernel ideals has the wrong norm")
    return out


def _principal_generator(lat, order: Order) -> Quaternion | None:
    """g with order*g = lat, or None when lat is not left-principal.

    order*g has covolume Nrd(g)^2 times the order's, so a generator has the
    least norm in lat: the shortest vector generates lat exactly when
    `Lattice4.equals_rmul` holds (order*g <= lat and equal covolumes).
    """
    gen, _ = lat.min_nonzero_norm()
    return gen if lat.equals_rmul(order.lattice, gen) else None


def _frame_times(node, lat):
    """frame(node)*lat for a left lattice of node.order.

    A base node's frame is O0, and O0*X = X for a left O0-lattice X, so a
    base frame costs no product.
    """
    return lat if node.is_base() else node.frame.lattice.mul(lat)


def _solve_morphism_elem(src, dst, ideal: Ideal) -> Quaternion | None:
    """b with kernel_ideal(Mor(src, dst, b)) = ideal, or None.

    Solves frame(dst)*b = frame(src)*ideal by a principal-generator search.
    """
    target = _frame_times(src, ideal.lattice)
    if dst.frame.lattice == target:
        return src.alg.one()
    lat = dst.frame.lattice.conjugate().mul(target)
    lat = lat.scale(Fraction(1, dst.frame_norm()))
    return _principal_generator(lat, dst.order)


def _canonical_generator(order: Order, b: Quaternion) -> Quaternion:
    """The generator of order*b that `_principal_generator` returns, from b.

    The minimal-norm elements of order*b are u*b for the units u, and
    `shortest_vector` keeps the one whose coefficients c on the HNF basis H
    of order*b have a positive first nonzero entry and are lexicographically
    smallest.  H is upper triangular with a positive diagonal, so coordinate
    t of c*H is c[t]*H[t][t] plus terms in c[0..t-1]: the (1, i, j, k)
    coordinates have the same first nonzero sign and the same lexicographic
    order as c.  The candidates are ranked on those coordinates, with no HNF:
    x.num/x.den < y.num/y.den lexicographically exactly when x.num*y.den <
    y.num*x.den is, as both denominators are positive.
    """
    best = None
    for gen in (u * b for u in order.units()):
        if next(c for c in gen.num if c) > 0 and (
                best is None or [c * best.den for c in gen.num] < [c * gen.den for c in best.num]):
            best = gen
    return best


def _known_generator(lat, order: Order, target, g: Quaternion) -> Quaternion:
    """`_canonical_generator(order, g)` for order = O_R(lat), once
    lat*g = target is checked (`Lattice4.equals_rmul`: containment and
    covolume, no HNF); VerificationError when it does not hold."""
    if not target.equals_rmul(lat, g):
        raise VerificationError("a given generator does not solve its ideal equation")
    return _canonical_generator(order, g)


def _known_morphism_elem(src, dst, ideal: Ideal, b: Quaternion) -> Quaternion:
    """`_solve_morphism_elem(src, dst, ideal)` from a known solution b.

    Raises VerificationError unless frame(dst)*b = frame(src)*ideal.
    """
    target = _frame_times(src, ideal.lattice)
    b = _known_generator(dst.frame.lattice, dst.order, target, b)
    return src.alg.one() if dst.frame.lattice == target else b


def _jk_inside(o2: Order, j11, j21, d11: int, d21: int, g: Quaternion) -> bool:
    """Whether jk = d21*J11 + d11*J21 lies in O2*g, with no lattice jk nor
    O2*g: d21*J11*g^-1 and d11*J21*g^-1 lie in O2, four product rows each
    against O2's kept inverse.  False for g = 0."""
    if g.is_zero():
        return False
    g_inv = g.inverse()
    return (o2.lattice.contains_rmul(j11, g_inv * d21)
            and o2.lattice.contains_rmul(j21, g_inv * d11))


def _bezout_split(d11: int, d21: int) -> tuple[int, int]:
    """(u, v) with u*d21 - v*d11 = 1, both nonzero and 0 < u <= 2*d11.

    u starts as the inverse of d21 mod d11 in [0, d11); (d11, d21) is added
    while u or v is zero, at most twice (twice only when d11 = d21 = 1).
    """
    u = pow(d21, -1, d11)
    v = (u * d21 - 1) // d11
    while u == 0 or v == 0:
        u, v = u + d11, v + d21
    return u, v


def isomorphism_completion(n1, n1p, n2, n2p, i11: Ideal, i21: Ideal, *,
                           generators: tuple[Quaternion, Quaternion, Quaternion] | None = None
                           ) -> CompletionResult:
    """Complete the first column (I11, I21) to an isomorphism matrix
    E1 x E2 -> E1' x E2' with certificate.

    The connecting ideal is the frame ideal I_psi = conj(F1)*F2 from O1 to
    O2, realized by s = Nrd(F1).  With J11 = conj(I_psi)*I11 and
    J21 = conj(I_psi)*I21, the target is isomorphic to the quotient by
    ker + ker exactly when jk = d21*J11 + d11*J21 = O2*xi is principal.  xi
    splits as d21*(u*xi) - d11*(v*xi), and I12 = conj(xi11)*J11/Nrd(J11) (resp.
    21/22) in closed form.  `Certificate.verify` alone checks the split and
    the division identities, before the entries are built.

    The unknowns b11, b21, xi generate principal ideals: frame(n1p)*b11 =
    frame(n1)*I11, frame(n2p)*b21 = frame(n1)*I21 and O2*xi = jk.  Pipelines
    pass the three they hold as `generators`; each is checked exactly
    (VerificationError) and normalized to the element the search would
    find, so the output does not depend on which was given.  b11 and b21
    are checked by `_known_generator`; g by jk <= O2*g and, through the
    certificate check, g in jk, so jk is never built.  Without them the
    search runs on jk; a miss raises CompletionPreconditionError.
    """
    o1, o2 = n1.order, n2.order
    if i11.left_order() != o1 or i21.left_order() != o1:
        raise ValueError("I11 and I21 must be left ideals of the first source order")
    d11, d21 = i11.nrd(), i21.nrd()
    if gcd(d11, d21) != 1:
        raise ValueError("I11 and I21 must have coprime norms")

    if generators is None:
        b11 = _solve_morphism_elem(n1, n1p, i11)
        b21 = _solve_morphism_elem(n1, n2p, i21)
        if b11 is None or b21 is None:
            raise CompletionPreconditionError(
                "input ideals are not realizable as morphisms to the given target nodes")
    else:
        b11 = _known_morphism_elem(n1, n1p, i11, generators[0])
        b21 = _known_morphism_elem(n1, n2p, i21, generators[1])

    f2 = n2.frame.lattice
    i_psi = Ideal(f2 if n1.is_base() else n1.frame.lattice.conjugate().mul(f2),
                  left=o1, right=o2)
    n_psi = i_psi.nrd()
    psi_bar = i_psi.conjugate()
    j11 = multiply_ideals(psi_bar, i11, check_compatible=False)
    j11._nrd = n_psi * d11
    j21 = multiply_ideals(psi_bar, i21, check_compatible=False)
    j21._nrd = n_psi * d21
    if generators is None:
        jk = j11.lattice.scale(d21).add(j21.lattice.scale(d11))
        xi = _principal_generator(jk, o2)
        if xi is None:
            raise CompletionPreconditionError(
                "quotient by ker + ker is not isomorphic to the second source: "
                "d21*J11 + d11*J21 is not principal")
    else:
        # jk <= O2*g is tested here.  O2*g = O2*xi <= jk follows from xi in
        # jk: xi = d21*xi11 - d11*xi21, once the certificate check below has
        # put xi11 in J11 and xi21 in J21 (VerificationError when it has not)
        if not _jk_inside(o2, j11.lattice, j21.lattice, d11, d21, generators[2]):
            raise VerificationError("a given generator does not solve its ideal equation")
        xi = _canonical_generator(o2, generators[2])

    # d21*J11 <= J21 and d11*J21 <= J11, so xi lies in J11 and in J21
    u, v = _bezout_split(d11, d21)
    _check(u * d21 - v * d11 == 1 and u != 0 and v != 0,
           "the Bezout pair does not split xi into two nonzero parts")
    xi11, xi21 = xi * u, xi * v
    # I12 = conj(W) for the divisor W = conj(J11)*xi11/Nrd(J11) of O2*xi11 = J11*W,
    # of reduced norm Nrd(xi11)/Nrd(J11): an integer once the check below has
    # put xi11 in J11, and a scaling of J11 where xi is rational.  Its orders
    # are left to first use.
    i12 = Ideal(j11.lattice.lmul_q(xi11.conjugate() / j11.nrd()),
                nrd=xi11.reduced_norm() // j11.nrd())
    i22 = Ideal(j21.lattice.lmul_q(xi21.conjugate() / j21.nrd()),
                nrd=xi21.reduced_norm() // j21.nrd())
    cert = Certificate(i_psi=i_psi, i11=i11, i21=i21, i12=i12, i22=i22,
                       xi11=xi11, xi21=xi21, d11=d11, d21=d21)
    # xi11 in J11 makes W integral; the check proves it and both identities
    _check(cert.verify(o2), "the completion certificate does not verify")

    # I_psi is realized by the scalar s = Nrd(F1): b12 = b11*conj(s)*conj(xi11)/(d11*Nrd(s))
    f1 = n1.frame_norm()
    b12 = b11 * xi11.conjugate() / (d11 * f1)
    b22 = b21 * xi21.conjugate() / (d21 * f1)
    mat = Mor2x2(m11=Mor(n1, n1p, b11), m12=Mor(n2, n1p, b12),
                 m21=Mor(n1, n2p, b21), m22=Mor(n2, n2p, b22))
    _check(kani_degree(mat) == 1, "completion assembled a non-isomorphism")
    return CompletionResult(matrix=mat, certificate=cert)


def low_discriminant_isomorphism(n1p, ell: int,
                                 rng: random.Random | None = None) -> CompletionResult:
    """Isomorphism E0^2 -> E1' x E0 through the low-discriminant subring of O0.

    Computes an equivalent l-power-norm ideal I11 = F*conj(beta)/Nrd(F) for
    the frame F of n1p, a norm-l^m element alpha, a local generator x, and
    completes the column (I11, O0*x) from its generators conj(beta)/Nrd(F),
    x and alpha*x: alpha*x lies in I11 with norm d11*d21, so jk = O0*alpha*x.
    Completion then has no search to fail; only budget failures are retried
    (`_LOWDISC_ATTEMPTS` times, as is the draw of an l-primitive alpha).
    """
    rng = rng or random.Random(0)
    alg = n1p.alg
    if ell == 2 or ell == alg.p or not is_prime(ell):
        raise ValueError("l must be an odd prime different from p")
    o0 = standard_extremal_order(alg)
    base = base_node(alg)
    last: Exception | None = None
    for attempt in range(_LOWDISC_ATTEMPTS):
        try:
            i11, beta = equivalent_power_norm_ideal(n1p.frame, ell, rng,
                                                    force_rebuild=attempt > 0)
            n11 = i11.nrd()
            m = _val(n11, ell, n11.bit_length())
            for _ in range(_LOWDISC_ATTEMPTS):
                alpha = represent_integer(o0, ell ** m, rng)
                if m == 0 or not o0.lattice.scale(ell).contains(alpha):
                    break
            else:
                raise SamplingBudgetError("no l-primitive alpha of norm l^m")
            alpha, x = local_generator(ell, i11, alpha)
            i21 = principal_ideal(o0, x)
            b11 = beta.conjugate() / n1p.frame_norm()
            return isomorphism_completion(base, n1p, base, base, i11, i21,
                                          generators=(b11, x, alpha * x))
        except SamplingBudgetError as err:
            last = err
    raise SamplingBudgetError(f"low_discriminant_isomorphism failed: {last}")


def isomorphism_E0(n1, n2, rng: random.Random | None = None) -> Mor2x2:
    """Isomorphism E0^2 -> E1 x E2 for arbitrary nodes (Algorithm of the
    general case): completion of coprime-norm columns, then the
    low-discriminant isomorphism for the quotient node, composed with the
    coordinate swap.  The columns have norms 3^e and 5^f, and the
    low-discriminant step uses l = 7."""
    rng = rng or random.Random(0)
    alg = n1.alg
    ell1, ell2, ell_low = 3, 5, 7
    if alg.p in (ell1, ell2, ell_low):
        raise ValueError("p must differ from the primes 3, 5 and 7 of the pipeline")
    base = base_node(alg)
    i1, beta1 = equivalent_power_norm_ideal(n1.frame, ell1, rng)
    i2, beta2 = equivalent_power_norm_ideal(n2.frame, ell2, rng)
    ik = sum_kernel_ideal(i1, i2)
    n3 = node_from_ideal(ik)
    # I = frame*conj(beta)/Nrd(frame) gives b11, b21; I_psi = ik, so jk = Nrd(ik)*O3
    gens = (beta1.conjugate() / n1.frame_norm(), beta2.conjugate() / n2.frame_norm(),
            Quaternion(alg, (i1.nrd() * i2.nrd(), 0, 0, 0)))
    f_mat = isomorphism_completion(base, n1, n3, n2, i1, i2, generators=gens).matrix
    g_mat = low_discriminant_isomorphism(n3, ell_low, rng).matrix
    g_swapped = swap_rows(g_mat)  # E0^2 -> E0 x E3
    out = mat_compose(f_mat, g_swapped)
    _check(kani_degree(out) == 1, "the composed matrix is not an isomorphism")
    return out


def isom_two_products(n1, n2, n1p, n2p, rng: random.Random | None = None) -> Mor2x2:
    """Isomorphism E1 x E2 -> E1' x E2' via E0^2 in the middle."""
    rng = rng or random.Random(0)
    phi = transpose(isomorphism_E0(n1, n2, rng))     # E1 x E2 -> E0^2
    psi = isomorphism_E0(n1p, n2p, rng)              # E0^2 -> E1' x E2'
    out = mat_compose(psi, phi)
    _check(kani_degree(out) == 1, "the composed matrix is not an isomorphism")
    return out


def swap_with_E0(n1, n2, rng: random.Random | None = None) -> Mor2x2:
    """Isomorphism E1 x E0 -> E2 x E0 by running the low-discriminant
    algorithm (l = 3) twice and transposing the first factor."""
    rng = rng or random.Random(0)
    xi1 = low_discriminant_isomorphism(n1, 3, rng).matrix  # E0^2 -> E1 x E0
    xi2 = low_discriminant_isomorphism(n2, 3, rng).matrix  # E0^2 -> E2 x E0
    out = mat_compose(xi2, transpose(xi1))
    _check(kani_degree(out) == 1, "the composed matrix is not an isomorphism")
    return out


def isom_g_products(sources, targets, rng: random.Random | None = None) -> list[tuple[int, Mor2x2]]:
    """Factored isomorphism E1 x ... x Eg -> E1' x ... x Eg' as g-1 pairwise
    isomorphisms; entry (i, M) acts on coordinates (i, i+1), applied in order.

    g = 2 is `isom_two_products`.  For g >= 3 the chain passes through E0 in
    the middle coordinates: factor 0 maps E1 x E2 to E0^2 (the transpose of
    `isomorphism_E0`) and on to E1' x E0 (low-discriminant); factor i, for
    1 <= i <= g-3, maps E0 x E(i+2) -> E(i+1)' x E0 (`swap_with_E0`, rows
    swapped and transposed); the last maps E0 x Eg to E0^2 (low-discriminant)
    and on to E(g-1)' x Eg' (`isomorphism_E0`).  That is two `isomorphism_E0`
    and 2(g-2) direct low-discriminant calls, where g-1 `isom_two_products`
    would make 2(g-1) `isomorphism_E0` calls.  The chain is walked from the
    sources before it is returned: each factor must start at the current
    coordinates, have Kani degree 1, and the walk must end at the targets.
    """
    rng = rng or random.Random(0)
    g = len(sources)
    if g < 2 or len(targets) != g:
        raise ValueError("need g >= 2 sources and as many targets")
    if g == 2:
        chain = [(0, isom_two_products(sources[0], sources[1], targets[0], targets[1], rng))]
    else:
        first = mat_compose(low_discriminant_isomorphism(targets[0], 3, rng).matrix,
                            transpose(isomorphism_E0(sources[0], sources[1], rng)))
        # swap_with_E0(t, s): t x E0 -> s x E0; rows swapped and transposed: E0 x s -> t x E0
        middle = [transpose(swap_rows(swap_with_E0(targets[i], sources[i + 1], rng)))
                  for i in range(1, g - 2)]
        into_e0 = transpose(swap_rows(low_discriminant_isomorphism(sources[-1], 3, rng).matrix))
        last = mat_compose(isomorphism_E0(targets[-2], targets[-1], rng), into_e0)
        chain = list(enumerate([first, *middle, last]))
    current = list(sources)
    for i, mat in chain:
        _check(mat.sources() == tuple(current[i:i + 2]),
               "a factor of the chain does not start at the current coordinates")
        _check(kani_degree(mat) == 1, "a factor of the chain is not an isomorphism")
        current[i:i + 2] = mat.targets()
    _check(current == list(targets), "the chain does not end at the targets")
    return chain


# ---------------------------------------------------------------------------
# Verification of ideal quadruples
# ---------------------------------------------------------------------------


@dataclass
class QuadrupleReport:
    ok: bool
    reason: str
    unit_witnesses: tuple[Quaternion, ...] | None = None


def conjugating_elements(o_from: Order, o_to: Order) -> list[Quaternion]:
    """All g (one per class, up to units and scalars) with
    g * o_from * g^-1 = o_to; empty when the orders are not conjugate.

    Orders whose trace-zero minima (`Order.trace_zero_minimum`) differ get
    [] with no search: conjugation keeps trace and reduced norm, so
    conjugate orders have equal minima.  The test changes no answer, as the
    search succeeds only on conjugate orders: a g it returns makes o_to*g a
    connecting ideal of right order o_from, so g^-1 * o_to * g = o_from.
    Conversely, for conjugate orders one of the two ideals searched, I =
    d*o_to*o_from or its twist I*P by the two-sided prime P of o_from, is
    principal.
    """
    if o_from == o_to:
        return [o_from.alg.one()]
    if o_from.trace_zero_minimum() != o_to.trace_zero_minimum():
        return []
    out = []
    conn = connecting_ideal(o_to, o_from)
    g = _principal_generator(conn.lattice, o_to)
    if g is not None:
        out.append(g)
    twisted = multiply_ideals(conn, two_sided_prime(o_from), check_compatible=False)
    g = _principal_generator(twisted.lattice, o_to)
    if g is not None:
        out.append(g)
    return out


def is_isomorphic_order(o1: Order, o2: Order) -> bool:
    """Whether the maximal orders o1 and o2 are conjugate (isomorphic).

    False at once when their trace-zero minima differ, a conjugation
    invariant; otherwise decided by the generator search of
    `conjugating_elements`.
    """
    return bool(conjugating_elements(o1, o2))


def _realign_column_ideal(x: Ideal, o_tgt: Order) -> list[Ideal]:
    """Presentations of x (or its conjugate) conjugated so the left order
    becomes o_tgt; used to accept externally supplied quadruples whose
    second-column ideals live in a different embedding of End."""
    out = []
    for cand in (x.conjugate(), x):
        for g in conjugating_elements(cand.left_order(), o_tgt):
            lat = cand.lattice.lmul_q(g).rmul_q(g.inverse())
            aligned = Ideal(lat, left=o_tgt, nrd=cand.nrd())
            if aligned not in out:
                out.append(aligned)
    return out


def kernel_ideal_mismatch(cert: Certificate, matrix: Mor2x2) -> str | None:
    """The reason when a kernel ideal of the matrix is not the certificate's,
    else None.  With b11 = m11.elem and b21 = m21.elem the four are
    ker(m11) = I11, ker(m21) = I21, ker(dual(m12)) = b11*conj(I12)*b11^-1
    and ker(dual(m22)) = b21*conj(I22)*b21^-1, each compared with no HNF
    (`kernel_ideal_equals`).
    """
    m11, m12, m21, m22 = matrix.entries()
    b11, b21 = m11.elem, m21.elem
    for label, mor, stated, b, name in (
            ("m11", m11, cert.i11, None, "I11"),
            ("m21", m21, cert.i21, None, "I21"),
            ("dual(m12)", dual(m12), cert.i12, b11, "b11*conj(I12)*b11^-1"),
            ("dual(m22)", dual(m22), cert.i22, b21, "b21*conj(I22)*b21^-1")):
        if b is None:
            lat = stated.lattice
        else:
            # b is nonzero: m11 and m21 have kernel ideals I11 and I21
            lat = stated.conjugate().lattice
            if b != b.alg.one():
                lat = lat.lmul_q(b).rmul_q(b.inverse())
        if not kernel_ideal_equals(mor, lat):
            return f"the kernel ideal of {label} differs from {name}"
    return None


def verify_certificate(cert: Certificate, matrix: Mor2x2) -> QuadrupleReport:
    """Decide a certificate from its own isomorphism matrix, with no search.

    Accepts exactly when the matrix has Kani degree 1, its kernel ideals are
    the certificate's (`kernel_ideal_mismatch`), and the certificate's own
    identities hold over O2 = O(m12.src).  The entries' lattice conditions
    hold by construction: `Mor` checks them, and `matrix_from_json` raises
    LatticeConditionError for an entry that fails.
    """
    if kani_degree(matrix) != 1:
        return QuadrupleReport(False, "the matrix does not have Kani degree 1")
    reason = kernel_ideal_mismatch(cert, matrix)
    if reason is not None:
        return QuadrupleReport(False, reason)
    if not cert.verify(matrix.m12.src.order):
        return QuadrupleReport(False, "the certificate identities do not hold")
    return QuadrupleReport(True, "isomorphism witnessed")


def verify_ideal_quadruple(i11: Ideal, i21: Ideal, i12: Ideal, i22: Ideal) -> QuadrupleReport:
    """Decide whether four kernel ideals assemble into an isomorphism matrix.

    I11, I21 are left ideals of a common order O1; I12 and I22 carry right
    order O_R(I11), O_R(I21) (so their conjugates are the duals' kernel
    ideals), the presentation of the worked examples.  Searches the residual
    automorphism choices (at most 6^4 per pair of candidates: a unit group
    has at most 6 elements).
    """
    o1 = i11.left_order()
    if i21.left_order() != o1:
        return QuadrupleReport(False, "I11 and I21 have different left orders")
    d11, d21 = i11.nrd(), i21.nrd()
    if gcd(d11, d21) != 1:
        return QuadrupleReport(False, "column norms are not coprime")

    alg = i11.alg
    o0 = standard_extremal_order(alg)
    if o1 == o0:
        n1 = base_node(alg)
    else:
        n1 = node_from_ideal(connecting_ideal(o0, o1))
    n1p, m11 = extend_node(n1, i11)
    n2p, m21 = extend_node(n1, i21)
    ik = sum_kernel_ideal(i11, i21)
    n2, _ = extend_node(n1, ik)

    # one Order object per distinct order, so each trace-zero minimum is
    # computed once: O2 = O_L(I12) = O_L(I22), and in a control with equal
    # second-column ideals a right order that the first column already built
    shared = {o: o for o in (i11.right_order(), i21.right_order())}

    def reuse(order):
        return shared.setdefault(order, order)

    i12, i22 = (Ideal(x.lattice, left=reuse(x.left_order()), right=reuse(x.right_order()),
                      nrd=x.nrd()) for x in (i12, i22))

    # realign the second-column ideals into the reconstructed embedding and
    # recover morphism candidates (up to automorphism twists on both sides)
    cands12 = []
    for w in _realign_column_ideal(i12, i11.right_order()):
        e = _solve_morphism_elem(n1p, n2, w)
        if e is not None:
            cands12.append(dual(Mor(n1p, n2, e)))
    if not cands12:
        return QuadrupleReport(False, "I12 is not realizable against the reconstructed quotient")
    cands22 = []
    for w in _realign_column_ideal(i22, i21.right_order()):
        e = _solve_morphism_elem(n2p, n2, w)
        if e is not None:
            cands22.append(dual(Mor(n2p, n2, e)))
    if not cands22:
        return QuadrupleReport(False, "I22 is not realizable against the reconstructed quotient")

    u1s, u2s = n1p.order.units(), n2p.order.units()
    ws = n2.order.units()
    for m12 in cands12:
        for m22 in cands22:
            for u1, w1 in product(u1s, ws):
                e12 = u1 * m12.elem * w1
                for u2, w2 in product(u2s, ws):
                    mat = Mor2x2(m11=m11, m12=Mor(n2, n1p, e12),
                                 m21=m21, m22=Mor(n2, n2p, u2 * m22.elem * w2))
                    if kani_degree(mat) == 1:
                        return QuadrupleReport(True, "isomorphism witnessed", (u1, w1, u2, w2))
    return QuadrupleReport(False, "no automorphism combination reaches degree 1")
