"""Command-line front end: instance generation, algorithm runs, certificate
verification and worked-example replay, all through JSON files.

Exit codes: 0 verified success, 1 verification failure, 2 algorithmic
failure (budget exhausted), 3 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .homframe import base_node, kani_degree, node_from_ideal
from .isom import (CompletionPreconditionError, VerificationError, isom_g_products,
                   isom_two_products, isomorphism_E0, isomorphism_completion,
                   low_discriminant_isomorphism, sum_kernel_ideal, verify_ideal_quadruple)
from .orders import Ideal, SamplingBudgetError, random_left_ideal, standard_extremal_order
from .quat import QuatAlgebra, is_prime
from .serialization import (certificate_to_json, dumps, ideal_from_json, ideal_to_json,
                            matrix_to_json)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_ALGORITHM_FAILED = 2
EXIT_BAD_INPUT = 3


class InputError(ValueError):
    pass


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write(path: str | None, payload: dict):
    text = dumps(payload)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _algebra(args) -> QuatAlgebra:
    try:
        return QuatAlgebra(args.p)
    except ValueError as err:
        raise InputError(str(err))


def cmd_gen(args) -> int:
    alg = _algebra(args)
    if args.ell == alg.p or args.ell == 2 or not is_prime(args.ell):
        raise InputError("--ell must be an odd prime different from p")
    o0 = standard_extremal_order(alg)
    rng = random.Random(args.seed)
    count = max(2 * args.g, 2)
    ideals = [random_left_ideal(o0, args.ell, args.m, rng) for _ in range(count)]
    payload = {
        "p": str(alg.p),
        "ell": str(args.ell),
        "m": str(args.m),
        "g": str(args.g),
        "seed": str(args.seed),
        "ideals": [ideal_to_json(i) for i in ideals],
    }
    _write(args.out, payload)
    return EXIT_OK


def _instance_ideals(alg, data, need: int) -> list[Ideal]:
    raw = data.get("ideals")
    if raw is None or len(raw) < need:
        raise InputError(f"instance must provide at least {need} ideals")
    return [ideal_from_json(d, alg) for d in raw[:need]]


def _emit_result(args, alg, matrix, certificate=None) -> int:
    if kani_degree(matrix) != 1:
        return EXIT_VERIFY_FAILED
    if certificate is not None:
        rep = verify_ideal_quadruple(certificate.i11, certificate.i21,
                                     certificate.i12, certificate.i22)
        if not rep.ok:
            return EXIT_VERIFY_FAILED
        payload = certificate_to_json(certificate, matrix)
    else:
        payload = {"p": str(alg.p), "matrix": matrix_to_json(matrix)}
    _write(args.out, payload)
    return EXIT_OK


def cmd_complete(args) -> int:
    data = _load(args.infile)
    alg = QuatAlgebra(int(data["p"]))
    i11, i21 = _instance_ideals(alg, data, 2)
    base = base_node(alg)
    n1p = node_from_ideal(i11)
    n2p = node_from_ideal(i21)
    n2 = node_from_ideal(sum_kernel_ideal(i11, i21))
    res = isomorphism_completion(base, n1p, n2, n2p, i11, i21)
    return _emit_result(args, alg, res.matrix, res.certificate)


def cmd_lowdisc(args) -> int:
    data = _load(args.infile)
    alg = QuatAlgebra(int(data["p"]))
    (i11,) = _instance_ideals(alg, data, 1)
    rng = random.Random(args.seed if args.seed is not None else int(data.get("seed", 0)))
    ell = args.ell or int(data.get("ell", 3))
    res = low_discriminant_isomorphism(node_from_ideal(i11), ell, rng)
    return _emit_result(args, alg, res.matrix, res.certificate)


def cmd_isom_e0(args) -> int:
    data = _load(args.infile)
    alg = QuatAlgebra(int(data["p"]))
    i1, i2 = _instance_ideals(alg, data, 2)
    rng = random.Random(args.seed if args.seed is not None else int(data.get("seed", 0)))
    mat = isomorphism_E0(node_from_ideal(i1), node_from_ideal(i2), rng)
    return _emit_result(args, alg, mat)


def cmd_isom2(args) -> int:
    data = _load(args.infile)
    alg = QuatAlgebra(int(data["p"]))
    ideals = _instance_ideals(alg, data, 4)
    rng = random.Random(args.seed if args.seed is not None else int(data.get("seed", 0)))
    nodes = [node_from_ideal(i) for i in ideals]
    mat = isom_two_products(nodes[0], nodes[1], nodes[2], nodes[3], rng)
    return _emit_result(args, alg, mat)


def cmd_isom_g(args) -> int:
    data = _load(args.infile)
    alg = QuatAlgebra(int(data["p"]))
    g = args.g or int(data.get("g", 2))
    if g < 2:
        raise InputError("g must be at least 2")
    ideals = _instance_ideals(alg, data, 2 * g)
    rng = random.Random(args.seed if args.seed is not None else int(data.get("seed", 0)))
    sources = [node_from_ideal(i) for i in ideals[:g]]
    targets = [node_from_ideal(i) for i in ideals[g:]]
    chain = isom_g_products(sources, targets, rng)
    for _, mat in chain:
        if kani_degree(mat) != 1:
            return EXIT_VERIFY_FAILED
    payload = {
        "p": str(alg.p),
        "g": str(g),
        "factors": [{"coordinate": str(idx), "matrix": matrix_to_json(mat)}
                    for idx, mat in chain],
    }
    _write(args.out, payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    data = _load(args.infile)
    alg = QuatAlgebra(int(data["p"]))
    src = data.get("ideals")
    if isinstance(src, dict):
        quad = [ideal_from_json(src[k], alg) for k in ("I11", "I21", "I12", "I22")]
    elif isinstance(src, list) and len(src) >= 4:
        quad = [ideal_from_json(d, alg) for d in src[:4]]
    elif all(k in data for k in ("I11", "I21", "I12", "I22")):
        quad = [ideal_from_json(data[k], alg) for k in ("I11", "I21", "I12", "I22")]
    else:
        raise InputError("verify needs the four ideals I11, I21, I12, I22")
    rep = verify_ideal_quadruple(*quad)
    _write(args.out, {"p": str(alg.p), "verified": rep.ok, "reason": rep.reason})
    return EXIT_OK if rep.ok else EXIT_VERIFY_FAILED


def _run_one(func, args) -> int:
    try:
        return func(args)
    except InputError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (SamplingBudgetError, CompletionPreconditionError) as err:
        print(f"algorithm failed: {err}", file=sys.stderr)
        return EXIT_ALGORITHM_FAILED
    except ArithmeticError as err:  # NotDivisibleError and other arithmetic faults
        print(f"algorithm failed: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_ALGORITHM_FAILED
    except VerificationError as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once; `parse_args` keeps no state in it."""
    parser = argparse.ArgumentParser(prog="quatisom",
                                     description="quaternion-side isomorphisms between "
                                                 "products of supersingular elliptic curves")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--ell", type=int, default=3)
    gen.add_argument("--m", type=int, default=4)
    gen.add_argument("--g", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    for name, func, extra in (
        ("complete", cmd_complete, ()),
        ("lowdisc", cmd_lowdisc, ("ell",)),
        ("isom-e0", cmd_isom_e0, ()),
        ("isom2", cmd_isom2, ()),
        ("isom-g", cmd_isom_g, ("g",)),
        ("verify", cmd_verify, ()),
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("--in", dest="infile", required=True)
        cmd.add_argument("--out", default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--trials", type=int, default=1)
        if "ell" in extra:
            cmd.add_argument("--ell", type=int, default=None)
        if "g" in extra:
            cmd.add_argument("--g", type=int, default=None)
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    trials = getattr(args, "trials", 1)
    if trials <= 1:
        return _run_one(args.func, args)

    # independent seeded trials, one after another; all must succeed
    import copy

    codes = []
    for t in range(trials):
        sub_args = copy.copy(args)
        sub_args.seed = (args.seed if args.seed is not None else 0) + t
        if sub_args.out:
            sub_args.out = f"{args.out}.trial{t}"
        codes.append(_run_one(args.func, sub_args))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
