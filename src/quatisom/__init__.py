"""Exact quaternion arithmetic for computing isomorphisms between products
of supersingular elliptic curves, entirely on the quaternion side of the
Deuring correspondence."""

from .quat import QuatAlgebra, Quaternion, conjugate, multiply, reduced_norm, reduced_trace
from .linalg import hnf, kernel_basis, lll_reduce, shortest_vector, snf_mod, solve_integer
from .orders import (Ideal, Lattice4, Order, SamplingBudgetError, connecting_ideal,
                     ideal_norm, multiply_ideals, principal_ideal, random_left_ideal,
                     standard_extremal_order, two_sided_prime, unit_orders)
from .division import NotDivisibleError, integer_ideal_divide, principal_ideal_divide
from .localization import LType, Splitting, l_type, l_type_of_ideal, local_generator, rgcd_hnf, split_order
from .normeq import cornacchia, equivalent_power_norm_ideal, represent_integer
from .homframe import (Certificate, Mor, Mor2x2, Node, base_node, compose, dual,
                       extend_node, hom_lattice, kani_degree, kernel_ideal,
                       make_automorphism, mat_compose, node_from_ideal, transpose)
from .isom import (CompletionPreconditionError, CompletionResult, QuadrupleReport,
                   VerificationError, is_isomorphic_order, isom_g_products,
                   isom_two_products, isomorphism_E0, isomorphism_completion,
                   low_discriminant_isomorphism, sum_kernel_ideal, swap_with_E0,
                   verify_ideal_quadruple)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
