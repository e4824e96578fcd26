"""Command-line front end: instance generation, algorithm runs, certificate
verification and worked-example replay, all through JSON files.

`verify` reads three input formats.  A certificate that carries its matrix
(as `complete` and `lowdisc` write it) is decided from that matrix with no
search (`isom.verify_certificate`).  `complete` and `lowdisc` compare the
kernel ideals before they write; the Kani degree and the certificate
identities the pipeline proved are not checked again.  A bare matrix (as
`isom-e0` and `isom2` write it) is accepted exactly when its entries pass
their lattice conditions and its Kani degree is 1: an isomorphism between
the products whose frames it lists.  A file with the four ideals alone is
decided by the generator and unit-twist search of
`isom.verify_ideal_quadruple`.

Exit codes: 0 verified success, 1 verification failure (a witness that
parses but fails a check, named in the verdict's reason), 2 algorithmic
failure (budget exhausted), 3 invalid input (including a frame that is not
a left O0-ideal, and a usage error such as an unknown command or flag).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .homframe import LatticeConditionError, base_node, kani_degree, node_from_ideal
from .isom import (CompletionPreconditionError, QuadrupleReport, VerificationError,
                   isom_g_products, isom_two_products, isomorphism_E0, isomorphism_completion,
                   kernel_ideal_mismatch, low_discriminant_isomorphism, sum_kernel_ideal,
                   verify_certificate, verify_ideal_quadruple)
from .orders import Ideal, SamplingBudgetError, random_left_ideal, standard_extremal_order
from .quat import QuatAlgebra, is_prime
from .serialization import (certificate_from_json, certificate_to_json, dumps,
                            ideal_from_json, ideal_to_json, matrix_from_json, matrix_to_json)

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
    if args.g < 2:
        raise InputError("g must be at least 2")
    o0 = standard_extremal_order(alg)
    rng = random.Random(args.seed)
    ideals = [random_left_ideal(o0, args.ell, args.m, rng) for _ in range(2 * args.g)]
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


def _emit_result(args, alg, matrix, certificate=None) -> int:
    # the pipelines prove the Kani degree and a certificate's identities;
    # what is left of `verify_certificate` is the check of its kernel ideals
    if certificate is None:
        payload = {"p": str(alg.p), "matrix": matrix_to_json(matrix)}
    elif kernel_ideal_mismatch(certificate, matrix) is None:
        payload = certificate_to_json(certificate, matrix)
    else:
        return EXIT_VERIFY_FAILED
    _write(args.out, payload)
    return EXIT_OK


def _file_int(args, data, name: str, default: int) -> int:
    """The command's --name when given, else the instance file's, else default."""
    value = getattr(args, name)
    return value if value is not None else int(data.get(name, default))


def _instance(args, need) -> tuple[dict, QuatAlgebra, list[Ideal], random.Random | None]:
    """The data, algebra, first ideals and random generator of the instance
    file: `need` ideals, or `need(data)` for a function of the data.  Only
    a command with --seed gets a generator, seeded as `_file_int` reads it."""
    data = _load(args.infile)
    alg = QuatAlgebra(int(data["p"]))
    need = need(data) if callable(need) else need
    raw = data.get("ideals")
    if raw is None or len(raw) < need:
        raise InputError(f"instance must provide at least {need} ideals")
    ideals = [ideal_from_json(d, alg) for d in raw[:need]]
    rng = random.Random(_file_int(args, data, "seed", 0)) if "seed" in args else None
    return data, alg, ideals, rng


def cmd_complete(args) -> int:
    _, alg, (i11, i21), _ = _instance(args, 2)
    base = base_node(alg)
    n1p = node_from_ideal(i11)
    n2p = node_from_ideal(i21)
    n2 = node_from_ideal(sum_kernel_ideal(i11, i21))
    res = isomorphism_completion(base, n1p, n2, n2p, i11, i21)
    return _emit_result(args, alg, res.matrix, res.certificate)


def cmd_lowdisc(args) -> int:
    data, alg, (i11,), rng = _instance(args, 1)
    ell = _file_int(args, data, "ell", 3)
    res = low_discriminant_isomorphism(node_from_ideal(i11), ell, rng)
    return _emit_result(args, alg, res.matrix, res.certificate)


def cmd_isom_e0(args) -> int:
    _, alg, (i1, i2), rng = _instance(args, 2)
    mat = isomorphism_E0(node_from_ideal(i1), node_from_ideal(i2), rng)
    return _emit_result(args, alg, mat)


def cmd_isom2(args) -> int:
    _, alg, ideals, rng = _instance(args, 4)
    nodes = [node_from_ideal(i) for i in ideals]
    mat = isom_two_products(*nodes, rng)
    return _emit_result(args, alg, mat)


def cmd_isom_g(args) -> int:
    """g-1 factors, factor i acting on coordinates (i, i+1); for g >= 3 the
    coordinates between factors hold E0.  `isom_g_products` walks the chain
    and checks every factor's degree before it returns."""
    def need(data) -> int:  # two ideals per coordinate
        g = _file_int(args, data, "g", 2)
        if g < 2:
            raise InputError("g must be at least 2")
        return 2 * g

    _, alg, ideals, rng = _instance(args, need)
    g = len(ideals) // 2
    sources = [node_from_ideal(i) for i in ideals[:g]]
    targets = [node_from_ideal(i) for i in ideals[g:]]
    chain = isom_g_products(sources, targets, rng)
    payload = {
        "p": str(alg.p),
        "g": str(g),
        "factors": [{"coordinate": str(idx), "matrix": matrix_to_json(mat)}
                    for idx, mat in chain],
    }
    _write(args.out, payload)
    return EXIT_OK


def _verify_witness(data) -> QuadrupleReport:
    """The verdict on a certificate file that carries its matrix."""
    try:
        cert, matrix = certificate_from_json(data)
    except LatticeConditionError as err:
        return QuadrupleReport(False, str(err))
    return verify_certificate(cert, matrix)


def _verify_matrix(data, alg) -> QuadrupleReport:
    """The verdict on a bare matrix file: it proves an isomorphism between
    the products whose frames it lists exactly when its Kani degree is 1."""
    try:
        matrix = matrix_from_json(alg, data["matrix"])
    except LatticeConditionError as err:
        return QuadrupleReport(False, str(err))
    if kani_degree(matrix) != 1:
        return QuadrupleReport(False, "the matrix does not have Kani degree 1")
    return QuadrupleReport(True, "isomorphism witnessed between the products of the "
                                 "source and target frames the matrix lists")


def _verify_ideals(data, alg) -> QuadrupleReport:
    """The verdict on a file that holds only the four ideals."""
    src = data.get("ideals")
    if isinstance(src, dict):
        quad = [ideal_from_json(src[k], alg) for k in ("I11", "I21", "I12", "I22")]
    elif isinstance(src, list) and len(src) >= 4:
        quad = [ideal_from_json(d, alg) for d in src[:4]]
    elif all(k in data for k in ("I11", "I21", "I12", "I22")):
        quad = [ideal_from_json(data[k], alg) for k in ("I11", "I21", "I12", "I22")]
    else:
        raise InputError("verify needs the four ideals I11, I21, I12, I22")
    return verify_ideal_quadruple(*quad)


def cmd_verify(args) -> int:
    data = _load(args.infile)
    alg = QuatAlgebra(int(data["p"]))
    if "matrix" not in data:
        rep = _verify_ideals(data, alg)
    elif "ideals" in data:
        rep = _verify_witness(data)
    else:
        rep = _verify_matrix(data, alg)
    _write(args.out, {"p": str(alg.p), "verified": rep.ok, "reason": rep.reason})
    return EXIT_OK if rep.ok else EXIT_VERIFY_FAILED


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

    # only the randomized pipelines draw numbers, so only they take --seed
    for name, func, flags in (
        ("complete", cmd_complete, ()),
        ("lowdisc", cmd_lowdisc, ("--seed", "--ell")),
        ("isom-e0", cmd_isom_e0, ("--seed",)),
        ("isom2", cmd_isom2, ("--seed",)),
        ("isom-g", cmd_isom_g, ("--seed", "--g")),
        ("verify", cmd_verify, ()),
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("--in", dest="infile", required=True)
        cmd.add_argument("--out", default=None)
        for flag in flags:
            cmd.add_argument(flag, type=int, default=None)
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # 0 after --help; a usage error, usage on stderr, is bad input
        return EXIT_OK if exc.code == 0 else EXIT_BAD_INPUT
    try:
        return args.func(args)
    except InputError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (KeyError, TypeError, ValueError, OSError, json.JSONDecodeError) as err:
        # TypeError: a JSON value of the wrong shape, such as a number for an ideal
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (SamplingBudgetError, CompletionPreconditionError) as err:
        print(f"algorithm failed: {err}", file=sys.stderr)
        return EXIT_ALGORITHM_FAILED
    except ArithmeticError as err:  # an internal arithmetic fault
        print(f"algorithm failed: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_ALGORITHM_FAILED
    except VerificationError as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
