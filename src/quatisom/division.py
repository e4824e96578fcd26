"""Exact division of ideals by ideals, in closed form.

In a maximal order every ideal is invertible: I*conj(I) = Nrd(I)*O_L(I)
(Voight, Quaternion Algebras, GTM 288, ch. 16).  So the only lattice J with
I*J = d*O1, for I a left O1-ideal, is J = conj(I)*d/Nrd(I), and the only
lattice with I*J = O1*mu is J = conj(I)*mu/Nrd(I).  Neither formula needs J
to exist: each result is checked to be integral (J <= O2, where O2 should
be O_R(I)) and to satisfy the product identity, and NotDivisibleError is
raised otherwise.

No pipeline calls it: completion builds its divisors in closed form and its
certificate check proves them; the tests use this module as the reference.
"""

from __future__ import annotations

from fractions import Fraction

from .orders import Ideal, Lattice4, Order
from .quat import Quaternion


class NotDivisibleError(ArithmeticError):
    """No ideal J satisfies I*J = d*O1 (precondition violated)."""


def _checked_divisor(o2: Order, ideal: Ideal, lat: Lattice4, target: Lattice4) -> Ideal:
    """The left O2-ideal on lat, after checking lat <= O2 and I*lat = target."""
    if not o2.lattice.contains_lattice(lat):
        raise NotDivisibleError("the divisor is not integral: no exact divisor exists")
    if ideal.lattice.mul(lat) != target:
        raise NotDivisibleError("I*J differs from the dividend: no exact divisor exists")
    return Ideal(lat, left=o2)


def integer_ideal_divide(o1: Order, o2: Order, ideal: Ideal, d: int) -> Ideal:
    """The unique left O2-ideal J with I*J = d*O1: J = conj(I)*d/Nrd(I)."""
    if d == 0:
        raise ValueError("d must be nonzero")
    lat = ideal.lattice.conjugate().scale(Fraction(abs(d), ideal.nrd()))
    return _checked_divisor(o2, ideal, lat, o1.lattice.scale(abs(d)))


def principal_ideal_divide(o1: Order, o2: Order, mu: Quaternion, ideal: Ideal) -> Ideal:
    """The unique left O2-ideal J with O1*mu = I*J: J = conj(I)*mu/Nrd(I)."""
    if mu.is_zero():
        raise ValueError("mu must be nonzero")
    if mu.reduced_norm().denominator != 1:
        raise ValueError("mu must have integral reduced norm")
    lat = ideal.lattice.conjugate().rmul_q(mu / ideal.nrd())
    return _checked_divisor(o2, ideal, lat, o1.lattice.rmul_q(mu))
