#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, on a few operations of seed 1:

1. tracing is complete: once installed, no quatisom module or class still
   references the unwrapped original of a traced function;
2. tracing is transparent: a traced and an untraced run give identical
   output digests;
3. runs are reproducible: two untraced runs with the same seed give the same
   digest, on every workload that runs no deadline-bound search;
4. BENCHMARK.json names exactly the metrics the benchmark prints.

Exits 1 if any check fails.
"""

from __future__ import annotations

import gc
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

import run
from tracing import Tracer
from workloads import DEADLINE_S, WORKLOADS

OPS = 4


def ops_digest(workload: str, workdir: Path, tracer=None) -> str:
    setup = WORKLOADS[workload]
    if tracer is None:
        _, state = run.timed_setup(setup, 1, workdir)
    else:
        _, state = run.timed_setup(setup, 1, workdir, reload=False, tracer=tracer)
    records = run.run_phase(state, DEADLINE_S, count=OPS, tracer=tracer)
    bad = [f"{r.label}: {r.status} {r.detail}" for r in records if r.status != "ok"]
    if bad:
        raise AssertionError(f"{workload}: operations failed: {bad}")
    gc.collect()
    return run.digest(records)


def check_tracing(workdir: Path) -> list[str]:
    plain = ops_digest("small-p", workdir / "plain")
    tracer = Tracer()
    tracer.install()
    try:
        leftovers = tracer.unwrapped_references()
        traced = ops_digest("small-p", workdir / "traced", tracer)
    finally:
        tracer.uninstall()
    problems = [f"unwrapped original still referenced as {name}" for name in leftovers]
    if plain != traced:
        problems.append("traced and untraced runs gave different digests")
    if not tracer.calls[tracer.names.index("linalg.hnf")]:
        problems.append("the traced run recorded no linalg.hnf call")
    return problems


def check_reproducible(workdir: Path) -> list[str]:
    problems = []
    for workload in ("small-p", "verify-certs"):
        first = ops_digest(workload, workdir / f"{workload}-a")
        second = ops_digest(workload, workdir / f"{workload}-b")
        if first != second:
            problems.append(f"{workload}: two runs with seed 1 gave different digests")
    return problems


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = [m["name"] for m in spec["end_to_end"]]
    if e2e != list(run.GATED):
        problems.append(f"end_to_end {e2e} != printed {list(run.GATED)}")
    printed = Tracer().metrics()
    printed["trace_overhead_ratio"] = (0.0, "ratio")
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if listed != {name: unit for name, (_, unit) in printed.items()}:
        problems.append("per_layer names or units differ from what --trace 1 prints")
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names workloads run.py does not have: {unknown}")
    return problems


def main() -> int:
    if not (run.SRC / "quatisom" / "__init__.py").is_file():
        print(f"quatisom sources not found under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._on_alarm)
    workdir = Path(tempfile.mkdtemp(dir=run.HERE, prefix=".selftest-"))
    failed = False
    try:
        for name, check in (("tracing complete and transparent", lambda: check_tracing(workdir)),
                            ("same seed, same digest", lambda: check_reproducible(workdir)),
                            ("BENCHMARK.json matches", check_benchmark_json)):
            problems = check()
            print(f"{'PASS' if not problems else 'FAIL'} {name}")
            for problem in problems:
                print(f"  {problem}")
            failed |= bool(problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
