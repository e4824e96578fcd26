"""The benchmark's workloads: inputs made from the seed, the operations run on
them, and the exact checks each output must pass.

A workload's operations come in rounds.  Every round holds the same mix of
operation kinds in a seeded order, so runs that complete the same number of
rounds measure the same mix and differ only in their seeded inputs.

Every pipeline operation gets its own random generator, derived from the
seed, the workload and the operation index, and a deep copy of its input
nodes, so an operation never sees state left behind by an earlier one.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

SMALL_PRIMES = (103, 503, 1019)
# small-p leaves out p = 1019, where the pipelines fail on every input node
# whose ideal class holds an ideal of norm 3: KLPT then picks the prime norm
# N = 3, strong approximation mod 3 never succeeds, the enumeration fallback
# returns the class's ideal of norm 7^3 < p, and represent_integer(343) finds
# no element (the half-integer branch is never tried for n < p).  A run's
# count of failed operations would then depend on how many rounds fit in it,
# so two sets of runs of the same code would disagree.  The ideals of norm 3
# to 13 at p = 103 and 503 pass the low-discriminant steps for l in {3, 5, 7};
# at p = 1019 three of the four of norm 3 fail them with l = 7.  small-p-1019
# runs the same mix at p = 1019 and shows the failures in fail_ratio.
SMALL_P_PRIMES = (103, 503)
# 2^32 + 15 and 2^61 + 15, the 32- and 61-bit sizes of the project's north star
LARGE_PRIMES = (4294967311, 2305843009213693967)
# per-operation budget, the per-run budget the README gives each pipeline run
DEADLINE_S = 30.0
# rounds of distinct pipeline inputs made at set-up, more than a 35 s small-p
# run completes (5 or 6 rounds on a 2-core host), so that a run's mean rests
# on as many inputs as it can; later rounds reuse them with fresh random
# generators
POOL_ROUNDS = 8


class WrongOutput(Exception):
    """An operation returned an output that fails the benchmark's checks."""


class Output:
    """What an operation hands back: its serialized form and what the checks need."""

    def __init__(self, text: str, matrices=(), certificate=None, chain=None, code=None):
        self.text = text
        self.matrices = matrices
        self.certificate = certificate
        self.chain = chain
        self.code = code
        self.degree_bits = None


class Operation:
    def __init__(self, label: str, run, check):
        self.label = label
        self.run = run        # () -> Output; this is the timed part
        self.check = check    # (Output) -> None, raises WrongOutput


# ---------------------------------------------------------------------------
# pipeline workloads: small-p and large-p
# ---------------------------------------------------------------------------

# kind -> number of input nodes
PIPELINE_NODES = {"lowdisc": 1, "isom-e0": 2, "isom2": 4, "isom-g3": 6}


class PipelineState:
    """Set-up result of a pipeline workload: per-prime context and input pool."""

    def __init__(self, lib, name: str, seed: int, mix: dict[str, int], primes):
        self.lib, self.name, self.seed = lib, name, seed
        rng = random.Random(f"{seed}/{name}/inputs")
        self.base = {}
        for p in primes:
            alg = lib.QuatAlgebra(p)
            lib.standard_extremal_order(alg)
            self.base[p] = lib.base_node(alg)
        self.mix = [(kind, p) for p in primes for kind, count in mix.items()
                    for _ in range(count)]
        self.round_len = len(self.mix)
        self.orders = []
        self.pool = []
        for _ in range(POOL_ROUNDS):
            order = list(range(self.round_len))
            rng.shuffle(order)
            self.orders.append(order)
            self.pool.append([self._nodes(kind, p, rng) for kind, p in self.mix])

    def _nodes(self, kind, p, rng):
        lib = self.lib
        o0 = self.base[p].order
        nodes = []
        for t in range(PIPELINE_NODES[kind]):
            ideal = lib.random_left_ideal(o0, (3, 5)[t % 2], 3, rng)
            ideal.nrd()
            nodes.append(lib.node_from_ideal(ideal))
        return nodes

    def operation(self, index: int) -> Operation:
        rnd, pos = divmod(index, self.round_len)
        slot = self.orders[rnd % POOL_ROUNDS][pos]
        kind, p = self.mix[slot]
        nodes = copy.deepcopy(self.pool[rnd % POOL_ROUNDS][slot])
        rng = random.Random(f"{self.seed}/{self.name}/op{index}")
        lib, base = self.lib, self.base[p]

        def run() -> Output:
            return _run_pipeline(lib, kind, p, nodes, rng)

        def check(out: Output):
            _check_pipeline(lib, kind, nodes, base, out)

        return Operation(f"{kind}@{p}", run, check)


def _run_pipeline(lib, kind, p, nodes, rng) -> Output:
    ser = lib.serialization
    if kind == "lowdisc":
        res = lib.low_discriminant_isomorphism(nodes[0], 3, rng)
        text = ser.dumps(ser.certificate_to_json(res.certificate, res.matrix))
        return Output(text, [res.matrix], res.certificate)
    if kind == "isom-e0":
        mat = lib.isomorphism_E0(nodes[0], nodes[1], rng)
        return Output(ser.dumps({"p": str(p), "matrix": ser.matrix_to_json(mat)}), [mat])
    if kind == "isom2":
        mat = lib.isom_two_products(*nodes, rng)
        return Output(ser.dumps({"p": str(p), "matrix": ser.matrix_to_json(mat)}), [mat])
    chain = lib.isom_g_products(nodes[:3], nodes[3:], rng)
    payload = {"p": str(p), "g": "3",
               "factors": [{"coordinate": str(idx), "matrix": ser.matrix_to_json(mat)}
                           for idx, mat in chain]}
    return Output(ser.dumps(payload), [mat for _, mat in chain], chain=chain)


def _check_pipeline(lib, kind, nodes, base, out: Output):
    for mat in out.matrices:
        if lib.kani_degree(mat) != 1:
            raise WrongOutput(f"{kind}: output matrix has Kani degree != 1")
    if kind == "lowdisc":
        (mat,) = out.matrices
        if mat.sources() != (base, base) or mat.targets() != (nodes[0], base):
            raise WrongOutput("lowdisc: endpoints are not E0^2 -> E1' x E0")
        if not out.certificate.verify(base.order):
            raise WrongOutput("lowdisc: certificate does not verify")
    elif kind == "isom-e0":
        (mat,) = out.matrices
        if mat.sources() != (base, base) or mat.targets() != (nodes[0], nodes[1]):
            raise WrongOutput("isom-e0: endpoints are not E0^2 -> E1 x E2")
    elif kind == "isom2":
        (mat,) = out.matrices
        if mat.sources() != (nodes[0], nodes[1]) or mat.targets() != (nodes[2], nodes[3]):
            raise WrongOutput("isom2: endpoints are not the requested products")
    else:
        # factor (i, M) acts on coordinates (i, i+1), applied in order
        current = list(nodes[:3])
        for idx, mat in out.chain:
            if mat.sources() != (current[idx], current[idx + 1]):
                raise WrongOutput("isom-g3: factor sources do not match the chain")
            current[idx], current[idx + 1] = mat.targets()
        if current != list(nodes[3:]):
            raise WrongOutput("isom-g3: chain does not end at the requested targets")
    out.degree_bits = max(m.degree().bit_length()
                          for mat in out.matrices for m in mat.entries())


# Operations of each kind per prime and round.  The two cheap single-step
# pipelines come twice as often as the composite ones, so that the median
# operation lies inside one kind's time range (isom-e0) rather than in the
# gap between two kinds, where it would jump from run to run.
SMALL_P_MIX = {"lowdisc": 2, "isom-e0": 2, "isom2": 1, "isom-g3": 1}
LARGE_P_MIX = {"lowdisc": 1, "isom-e0": 1}


def setup_small_p(lib, seed: int, workdir: Path) -> PipelineState:
    return PipelineState(lib, "small-p", seed, SMALL_P_MIX, SMALL_P_PRIMES)


def setup_small_p_1019(lib, seed: int, workdir: Path) -> PipelineState:
    return PipelineState(lib, "small-p-1019", seed, SMALL_P_MIX, (1019,))


def setup_large_p(lib, seed: int, workdir: Path) -> PipelineState:
    return PipelineState(lib, "large-p", seed, LARGE_P_MIX, LARGE_PRIMES)


# ---------------------------------------------------------------------------
# verify-certs
# ---------------------------------------------------------------------------

# completion certificates per prime, with column norms 3^6 and 5^4 as in the
# p = 503 worked example
COMPLETE_CERTS = 8

FIXTURES = {
    # criterion 2: the low-discriminant worked example at p = 103 verifies
    "worked_example_p103.json": True,
    # criterion 1b: the printed second column of the p = 503 example does not
    # verify against its own first column (see the README); that verdict is
    # the known answer here
    "worked_example_p503.json": False,
}


class VerifyState:
    """Certificate files on disk with their known verdicts.

    Certificates are written in the CLI's `complete` output format by the
    same library calls; the CLI's own re-verification before writing is left
    out, because the timed phase verifies every file anyway.

    Freshly made low-discriminant certificates are not in the mix: verifying
    one takes 0.3 to 1.7 s depending on the certificate, so with the few a
    run can afford, a run's cost depended more on the seed than any bound
    could hold.  The p = 103 fixture is a low-discriminant certificate.
    """

    def __init__(self, lib, seed: int, workdir: Path, fixture_dir: Path):
        self.lib = lib
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        rng = random.Random(f"{seed}/verify-certs/inputs")
        self.files: list[tuple[Path, bool]] = []
        for p in SMALL_PRIMES:
            o0 = lib.standard_extremal_order(lib.QuatAlgebra(p))
            for k in range(COMPLETE_CERTS):
                cert = self._complete_cert(o0, rng, f"complete-{p}-{k}")
                self.files.append((cert, True))
                self.files.extend((f, False) for f in _negative_controls(cert))
        for name, verdict in FIXTURES.items():
            self.files.append((fixture_dir / name, verdict))
        self.round_len = len(self.files)
        self.orders = []
        for _ in range(POOL_ROUNDS):
            order = list(range(self.round_len))
            rng.shuffle(order)
            self.orders.append(order)

    def _complete_cert(self, o0, rng, name: str) -> Path:
        lib, ser = self.lib, self.lib.serialization
        i11 = lib.random_left_ideal(o0, 3, 6, rng)
        i21 = lib.random_left_ideal(o0, 5, 4, rng)
        n2 = lib.node_from_ideal(lib.sum_kernel_ideal(i11, i21))
        res = lib.isomorphism_completion(lib.base_node(o0.alg), lib.node_from_ideal(i11), n2,
                                         lib.node_from_ideal(i21), i11, i21)
        path = self.workdir / f"{name}.json"
        path.write_text(ser.dumps(ser.certificate_to_json(res.certificate, res.matrix)))
        return path

    def operation(self, index: int) -> Operation:
        rnd, pos = divmod(index, self.round_len)
        path, verdict = self.files[self.orders[rnd % POOL_ROUNDS][pos]]
        out_path = self.workdir / f"verdict-{path.stem}.json"
        main = self.lib.cli.main

        def run() -> Output:
            code = main(["verify", "--in", str(path), "--out", str(out_path)])
            return Output("", code=code)

        def check(out: Output):
            expected = 0 if verdict else 1
            if out.code != expected:
                raise WrongOutput(f"verify {path.name}: exit code {out.code}, "
                                  f"known verdict {verdict}")
            text = out_path.read_text()
            if json.loads(text).get("verified") is not verdict:
                raise WrongOutput(f"verify {path.name}: verdict file disagrees")
            out.text = f"{path.name}\n{text}"

        return Operation(f"verify:{path.name}", run, check)


def _negative_controls(cert: Path) -> list[Path]:
    """Copies of a valid certificate with one second-column ideal replaced by
    the other; neither assembles an isomorphism."""
    data = json.loads(cert.read_text())
    out = []
    for src, dst in (("I12", "I22"), ("I22", "I12")):
        bad = json.loads(json.dumps(data))
        bad["ideals"][dst] = bad["ideals"][src]
        path = cert.with_name(f"{cert.stem}-{dst}-from-{src}.json")
        path.write_text(json.dumps(bad))
        out.append(path)
    return out


def setup_verify_certs(lib, seed: int, workdir: Path) -> VerifyState:
    fixture_dir = Path(lib.__file__).resolve().parent / "fixtures"
    return VerifyState(lib, seed, workdir, fixture_dir)


WORKLOADS = {
    "small-p": setup_small_p,
    "small-p-1019": setup_small_p_1019,
    "large-p": setup_large_p,
    "verify-certs": setup_verify_certs,
}
PIPELINE_WORKLOADS = {"small-p", "small-p-1019", "large-p"}
