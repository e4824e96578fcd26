#!/usr/bin/env python3
"""Tour of the exact quaternion layer: the algebra B_{p,oo}, the extremal
maximal order O0, and integral left ideals.

Everything is exact rational arithmetic; there is no floating point anywhere
in the package.
"""

import random

from quatisom import (QuatAlgebra, multiply_ideals, principal_ideal, random_left_ideal,
                      standard_extremal_order)

p = 103
alg = QuatAlgebra(p)
one, i, j, k = alg.gens()

print(f"B_{{{p},oo}} with i^2 = -1, j^2 = -{p}, k = ij")
print("  i*j  =", i * j)
print("  j*i  =", j * i)

# reduced norm is the positive definite form a0^2 + a1^2 + p(a2^2 + a3^2)
x = alg.quaternion(6, 1, 1, -1)
print(f"\nNrd(6 + i + j - k) = {x.reduced_norm()}  (= 3^5)")
print("x * conj(x)       =", x * x.conjugate())
print("inverse check     :", x * x.inverse())

# the extremal maximal order O0 = <1, i, (i+j)/2, (1+k)/2>
o0 = standard_extremal_order(alg)
print(f"\nO0 basis: {[str(b) for b in o0.basis()]}")
print("reduced discriminant:", o0.reduced_discriminant(), "(= p, so O0 is maximal)")
print("(1+k)/2 in O0:", o0.lattice.contains((one + k) / 2))
print("(1+j)/2 in O0:", o0.lattice.contains((one + j) / 2))
print("units of O0:", [str(u) for u in o0.units()])

# a random integral left ideal of norm 3^5, as a rank-4 lattice in HNF
rng = random.Random(1)
ideal = random_left_ideal(o0, 3, 5, rng)
print(f"\nrandom left O0-ideal of norm {ideal.nrd()}:")
for b in ideal.basis():
    print("   ", b)
print("left order is O0 again:", ideal.left_order() == o0)
print("right order is maximal:", ideal.right_order().is_maximal())

# I * conj(I) = Nrd(I) * O0, the basic norm identity
prod = multiply_ideals(ideal, ideal.conjugate(), check_compatible=False)
print("I * conj(I) = Nrd(I) * O0:", prod.lattice == o0.lattice.scale(ideal.nrd()))

# principal ideals: Nrd(O0 * x) = Nrd(x)
px = principal_ideal(o0, x)
print("Nrd(O0 * (6+i+j-k)) =", px.nrd())
