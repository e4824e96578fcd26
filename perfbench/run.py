#!/usr/bin/env python3
"""quatisom benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload small-p --seed 1 --seconds 35 --trace 0

Run it from the repository root.  The library is imported from `src/`.

With `--trace 0` the run sets up (importing the library afresh), then runs
the workload's operations one after another, in whole rounds, until they
have used `--seconds` of wall time, then sets up twice more; `setup_s` is
the median of the three set-ups.  It prints
every end-to-end metric by name and unit, then, as the last line, a JSON
object with the gated metrics (those in BENCHMARK.json).

With `--trace 1` the run does the untraced set-up and timed phase once, then
wraps the library's public functions (see tracing.py), sets up again and
replays the same operations traced.  It prints the per-layer metrics and
`trace_overhead_ratio`, traced over untraced wall time.

Every output is checked exactly (see workloads.py).  The exit code is 1 when
any output is wrong, 2 when the library cannot be found.  Full results, the
failure breakdown and the output digest go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer
from workloads import DEADLINE_S, PIPELINE_WORKLOADS, WORKLOADS, WrongOutput

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

SETUP_REPEATS = 3

# metrics of the last output line with --trace 0, as listed in BENCHMARK.json
GATED = ("ops_per_s", "setup_s", "peak_rss_mb")


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM.  Not an Exception, so the library's retry loops
    (`except ValueError`, `except SamplingBudgetError`) cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def load_library():
    """Import quatisom afresh from src/ (a repeated set-up pays the import)."""
    for name in [n for n in sys.modules if n == "quatisom" or n.startswith("quatisom.")]:
        del sys.modules[name]
    importlib.import_module("quatisom.cli")
    importlib.import_module("quatisom.serialization")
    return sys.modules["quatisom"]


@dataclass
class OpRecord:
    index: int
    label: str
    seconds: float
    status: str
    text: str | None = None
    degree_bits: int | None = None
    detail: str = ""


def execute(op, index: int, deadline: float, tracer=None) -> OpRecord:
    """Run one operation under the deadline, then check its output untimed."""
    span = tracer.root("op", index) if tracer else contextlib.nullcontext()
    out, status = None, "ok"
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with span:
                out = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        status = "DeadlineExceeded"
    except Exception as err:  # a failed search; counted, then the loop goes on
        status = type(err).__name__
    rec = OpRecord(index, op.label, min(time.perf_counter() - start, deadline), status)
    if out is not None:
        try:
            op.check(out)
        except WrongOutput as err:
            rec.status, rec.detail = "WrongOutput", str(err)
        else:
            rec.text, rec.degree_bits = out.text, out.degree_bits
    return rec


def run_phase(state, deadline: float, *, seconds: float | None = None,
              count: int | None = None, tracer=None) -> list[OpRecord]:
    """Closed loop: whole rounds until `seconds` of operation time, or `count` operations."""
    records: list[OpRecord] = []
    busy = 0.0
    index = 0
    while True:
        if count is not None:
            if index >= count:
                break
        elif index % state.round_len == 0 and busy >= seconds:
            break
        rec = execute(state.operation(index), index, deadline, tracer)
        records.append(rec)
        busy += rec.seconds
        index += 1
    return records


def digest(records: list[OpRecord]) -> str:
    h = hashlib.sha256()
    for rec in records:
        if rec.status == "ok":
            h.update(f"{rec.index}:{rec.label}\n{rec.text}".encode())
    return h.hexdigest()


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(records: list[OpRecord], setup_times: list[float], pipeline: bool) -> dict:
    times = [r.seconds for r in records]
    verified = [r for r in records if r.status == "ok"]
    value, pct, beyond = tail(times)
    failures: dict[str, int] = {}
    for rec in records:
        if rec.status != "ok":
            failures[rec.status] = failures.get(rec.status, 0) + 1
    metrics = {
        "ops_per_s": (len(verified) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (value, "s"),
        "fail_ratio": ((len(records) - len(verified)) / len(records), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if pipeline and verified:
        metrics["out_degree_bits_mean"] = (
            statistics.fmean(r.degree_bits for r in verified), "bits")
        metrics["out_bytes_mean"] = (
            statistics.fmean(len(r.text.encode()) for r in verified), "bytes")
    notes = {
        "op_tail_s": f"p{pct:.1f}, {beyond} of {len(times)} samples beyond",
        "fail_ratio": (f"{len(records) - len(verified)} of {len(records)}; deadline hits "
                       f"{failures.get('DeadlineExceeded', 0)}; by type {failures or '{}'}"),
    }
    return {"metrics": metrics, "notes": notes, "failures": failures}


def timed_setup(setup, seed: int, workdir: Path, *, reload: bool = True, tracer=None):
    start = time.perf_counter()
    lib = load_library() if reload else sys.modules["quatisom"]
    span = tracer.root("setup") if tracer else contextlib.nullcontext()
    with span:
        state = setup(lib, seed, workdir)
    return time.perf_counter() - start, state


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Set up, run the timed phase, then set up SETUP_REPEATS - 1 more times;
    spreading the set-ups over the run keeps their median from resting on
    one moment of machine load."""
    setup = WORKLOADS[workload]
    setup_times = []
    elapsed, state = timed_setup(setup, seed, workdir / "setup0")
    setup_times.append(elapsed)
    records = run_phase(state, DEADLINE_S, seconds=seconds)
    state = None
    for rep in range(1, SETUP_REPEATS):
        gc.collect()
        elapsed, _ = timed_setup(setup, seed, workdir / f"setup{rep}")
        setup_times.append(elapsed)
    summary = end_to_end(records, setup_times, workload in PIPELINE_WORKLOADS)
    summary["setup_runs_s"] = setup_times
    summary["records"] = records
    return summary


def run_traced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    setup = WORKLOADS[workload]
    load_library()  # both set-ups below are timed without the import
    plain_setup_s, state = timed_setup(setup, seed, workdir / "plain", reload=False)
    plain = run_phase(state, DEADLINE_S, seconds=seconds)
    state = None
    gc.collect()

    tracer = Tracer()
    tracer.install()
    traced_setup_s, state = timed_setup(setup, seed, workdir / "traced", reload=False,
                                        tracer=tracer)
    traced = run_phase(state, DEADLINE_S, count=len(plain), tracer=tracer)
    tracer.uninstall()

    untraced_s = plain_setup_s + sum(r.seconds for r in plain)
    traced_s = traced_setup_s + sum(r.seconds for r in traced)
    metrics = tracer.metrics()
    metrics["trace_overhead_ratio"] = (traced_s / untraced_s, "ratio")
    problems = []
    layer_ns, bench_ns, root_ns = tracer.layer_self_ns(), tracer.bench_self_ns(), tracer.root_ns()
    if layer_ns + bench_ns != root_ns:
        problems.append(f"layer self times {layer_ns} ns + benchmark {bench_ns} ns "
                        f"!= traced wall {root_ns} ns")
    cut = any(r.status == "DeadlineExceeded" for r in plain + traced)
    if not cut and digest(plain) != digest(traced):
        problems.append("traced and untraced runs gave different outputs")
    return {"metrics": metrics, "tracer": tracer, "records": traced, "problems": problems, "traced_wall_s": root_ns / 1e9,
            "layer_self_s": layer_ns / 1e9, "bench_self_s": bench_ns / 1e9}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quatisom" / "__init__.py").is_file():
        print(f"quatisom sources not found under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the report
            if args.trace:
                res = run_traced(args.workload, args.seed, args.seconds, workdir)
            else:
                res = run_untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = res["records"]
    wrong = [r for r in records if r.status == "WrongOutput"]
    problems = res.get("problems", []) + [f"op {r.index} {r.label}: {r.detail}" for r in wrong]
    failed = sum(1 for r in records if r.status != "ok")
    out_digest = digest(records)

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": len(records), "failed": failed,
        "problems": problems, "outputs_sha256": out_digest,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
        "operations": [{"index": r.index, "label": r.label, "seconds": r.seconds,
                        "status": r.status} for r in records],
    }
    for key in ("notes", "failures", "setup_runs_s", "traced_wall_s", "layer_self_s",
                "bench_self_s"):
        if key in res:
            report[key] = res[key]
    if args.trace:
        res["tracer"].write_spans(stem.with_suffix(".spans.csv"))
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(records)} operations, "
          f"{len(records) - failed} verified, {failed} failed")
    notes = res.get("notes", {})
    for name, (value, unit) in res["metrics"].items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<48} {_fmt(value):>14} {unit}{extra}")
    if args.trace:
        print(f"  traced wall {res['traced_wall_s']:.4f} s = layer self times "
              f"{res['layer_self_s']:.4f} s + benchmark {res['bench_self_s']:.4f} s")
    print(f"  outputs_sha256 {out_digest}")
    for problem in problems:
        print(f"  WRONG: {problem}")

    names = list(res["metrics"]) if args.trace else GATED
    line = {"correct": not problems, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": res["metrics"][k][0], "unit": res["metrics"][k][1]}
                        for k in names}}
    print(json.dumps(line), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
