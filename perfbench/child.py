"""One measured advaug run, in a fresh process.

    python3 perfbench/child.py --src SRC --config INI --output DIR \
        --result FILE [--setup-only] [--reference] [--trace SPANS_FILE]

Drives ``advaug.cli.main(["run", ...])`` on the package under SRC.  An
untraced run installs a single hook, a timestamp at each call of
``training.sample_train_batch`` (the start of an iteration); with
``--setup-only`` the process stops at the first one.  With ``--reference``
the hook first runs a fixed reference kernel and times it, so that each
iteration is timed between two runs of the kernel on the same processor at
nearly the same moment; a set-up-only run times it SETUP_REFERENCE_RUNS
times at its one hook call, right after set-up.  A traced run installs the span tracer instead.
The result file receives the iteration start times twice: as
CLOCK_MONOTONIC nanoseconds, which the parent can compare with its own
clock, and as the process's CPU time (CLOCK_PROCESS_CPUTIME_ID, counted from
the process's start); the CPU time at the first hook call, before any
reference run (the set-up time); the wall and CPU time of each reference
run; the peak resident set size and, traced, the per-layer values.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


SETUP_REFERENCE_RUNS = 21


class SetupDone(Exception):
    """Raised by the hook to end a set-up-only run at its first iteration."""


class ReferenceKernel:
    """A fixed piece of work of the program's kind: small float64 matmuls,
    exp and log reductions, and an interpreted loop; about 0.15 ms of CPU
    on an unslowed core of the 2-core Xeon virtual machine the benchmark was
    written on.  Its inputs never change, so its time measures only how
    fast the processor is running at that moment."""

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((64, 32))
        self.b = rng.standard_normal((32, 16))

    def __call__(self) -> float:
        np, total = self.np, 0.0
        for _ in range(6):
            h = np.maximum(self.a @ self.b, 0.0)
            shifted = np.exp(h - h.max(axis=1, keepdims=True))
            total += float(np.log(shifted.sum(axis=1)).sum())
            total += sum(i * 0.5 for i in range(60))
        return total


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    from advaug import cli, training

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    reference = ReferenceKernel() if args.reference else None
    ref_wall: list[int] = []
    ref_cpu: list[int] = []
    setup_cpu: list[int] = []
    stamps: list[int] = []
    cpu_stamps: list[int] = []
    sample = training.sample_train_batch

    def stamped(state):
        if not setup_cpu:
            setup_cpu.append(time.process_time_ns())
        if reference is not None:
            for _ in range(SETUP_REFERENCE_RUNS if args.setup_only else 1):
                wall, cpu = now_ns(), time.process_time_ns()
                reference()
                ref_wall.append(now_ns() - wall)
                ref_cpu.append(time.process_time_ns() - cpu)
        stamps.append(now_ns())
        cpu_stamps.append(time.process_time_ns())
        if args.setup_only:
            raise SetupDone
        return sample(state)

    training.sample_train_batch = stamped

    try:
        code = cli.main(["run", "--config", args.config,
                         "--output", args.output])
    except SetupDone:
        code = 0
    result = {
        "stamps_ns": stamps,
        "cpu_stamps_ns": cpu_stamps,
        "setup_cpu_ns": setup_cpu[0] if setup_cpu else None,
        "reference_wall_ns": ref_wall,
        "reference_cpu_ns": ref_cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "advaug_file": os.path.realpath(cli.__file__),
    }
    if tracer is not None:
        tracer.write_spans(args.trace)
        result["trace"] = tracer.layer_values()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
