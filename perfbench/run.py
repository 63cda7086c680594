"""advaug benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs from any directory; the checkout root is the parent of this file's
directory.  Each workload is an ``advaug run`` on an INI file generated from
a shipped preset with the workload seed written into it.  Every run is a
fresh single-threaded process (``OPENBLAS_NUM_THREADS=1``), one at a time.

``--trace 0`` measures the end-to-end metrics: a discarded warm-up launch
that fills the bytecode cache, set-up-only launches, then whole runs until
``--seconds`` is spent (at least two).  Times are the run process's CPU
time, and the gated step costs are in units of a fixed reference kernel
timed around every iteration, which cancels the speed a shared host's
processor runs at (see end_to_end()); wall times are printed beside them.
``--trace 1`` makes one untraced and one traced run of the same seed and
reports the per-layer metrics with self times and the tracing overhead.  Both check the outputs: exit code 0,
``metrics.csv`` byte-identical across all runs of one workload, seed and
source, and (traced) count metrics that repeat exactly.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Seed 0 is each preset's shipped seed; confirm claims on the held-out seed 1.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
HELD_OUT_SEED = 1
MIN_FULL_RUNS = 2
SETUP_ONLY_RUNS = 11
# setup_s is set-up CPU time rescaled to the processor speed at which the
# reference kernel takes this long; see end_to_end().
NOMINAL_REFERENCE_MS = 0.2
# Stop launching runs past this point so that the process ends within the
# 180 s an invocation may take.
LAUNCH_CUTOFF_S = 120.0
CHILD_TIMEOUT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ONLY = ("warmup", "setup")  # launches that stop at the first iteration


@dataclass(frozen=True)
class Workload:
    preset: str
    plain_ce: bool  # t1 = t2: every step is a first-order warm-up step


WORKLOADS = {
    "longtail-meta": Workload("longtail", plain_ce=False),
    "subpop-meta": Workload("subpop", plain_ce=False),
    "longtail-ce": Workload("longtail", plain_ce=True),
}


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# statistics

def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ten of n samples beyond it."""
    for p in (99.99, 99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def step_times(stamps_ns: list[int], ref_ns: list[int]) -> list[float]:
    """Milliseconds from each iteration start to the next, less the
    reference kernel run just before the next start (ref_ns[k] precedes
    stamps_ns[k])."""
    return [(stamps_ns[k + 1] - ref_ns[k + 1] - stamps_ns[k]) / 1e6
            for k in range(len(stamps_ns) - 1)]


def in_reference_units(steps_ms: list[float], ref_ns: list[int]) -> list[float]:
    """Each step over the mean of the reference runs just before and after
    it: its cost at whatever speed the processor ran at that moment."""
    return [step * 2e6 / (ref_ns[k] + ref_ns[k + 1])
            for k, step in enumerate(steps_ms)]


def main_phase(steps_ms: list[float], t1: int, t2: int) -> list[float]:
    """The steps of the meta iterations t1 + 1 .. t2, or of every iteration
    when the schedule has none; steps_ms[t - 1] is iteration t's."""
    return steps_ms[t1 if t1 < t2 else 0:]


# ---------------------------------------------------------------------------
# workload inputs

def ini_value(text: str, section: str, key: str) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return parser.get(section, key)


def edit_ini(text: str, changes: dict[tuple[str, str], str]) -> str:
    """Rewrite `key = value` lines in place; every change must apply."""
    pending = dict(changes)
    current = None
    lines = []
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
        elif "=" in stripped:
            name = stripped.split("=", 1)[0].strip()
            if (current, name) in pending:
                end = "\n" if line.endswith("\n") else ""
                line = f"{name} = {pending.pop((current, name))}{end}"
        lines.append(line)
    if pending:
        raise KeyError(f"preset lacks {sorted(pending)}")
    return "".join(lines)


def workload_ini(workload: Workload, preset_text: str, seed: int) -> str:
    changes = {("run", "seed"): str(seed)}
    if workload.plain_ce:
        changes[("training", "t1")] = ini_value(preset_text, "training", "t2")
    return edit_ini(preset_text, changes)


def source_fingerprint(ini_text: str) -> str:
    """Hash of the package sources, the INI and the numpy version: runs
    with equal fingerprints must produce equal outputs and counts."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "advaug").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    digest.update(ini_text.encode())
    digest.update(importlib.metadata.version("numpy").encode())
    return digest.hexdigest()[:16]


def machine_notes() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_env": {k: "1" for k in BLAS_ENV},
        "git_commit": commit,
        "steal_s_start": steal_seconds(),
    }


def steal_seconds() -> float | None:
    """Time the hypervisor has taken from this machine's CPUs since boot."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


# ---------------------------------------------------------------------------
# runs

@dataclass
class Run:
    kind: str  # "warmup", "setup", "warmup-run", "full" or "traced"
    measured: bool = False  # the process completed and reported its data
    problems: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0  # CPU time of the whole process
    setup_cpu_s: float = 0.0  # CPU time from process start to iteration 1
    # Per step, steps_ms[t - 1] for iteration t: CPU time, wall time and
    # CPU time in reference-kernel runs.
    steps_ms: list[float] = field(default_factory=list)
    wall_steps_ms: list[float] = field(default_factory=list)
    ref_steps: list[float] = field(default_factory=list)
    reference_ms: list[float] = field(default_factory=list)  # kernel CPU
    epoch_index: list[int] = field(default_factory=list)  # epoch-end steps
    peak_rss_mb: float = 0.0
    csv_sha: str = ""
    summary: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.measured and not self.problems


class Session:
    """One benchmark invocation: its inputs, work directory and runs."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        workload = WORKLOADS[name]
        preset = (ROOT / "configs" / f"{workload.preset}.ini").read_text()
        self.ini_text = workload_ini(workload, preset, seed)
        self.t1 = int(ini_value(self.ini_text, "training", "t1"))
        self.t2 = int(ini_value(self.ini_text, "training", "t2"))
        self.fingerprint = source_fingerprint(self.ini_text)
        self.key = f"{name}/{seed}/{self.fingerprint}"
        self.dir = WORK / f"{name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.ini = self.dir / "config.ini"
        self.ini.write_text(self.ini_text)
        # Users run from compiled bytecode: the warm-up launch writes it,
        # for every module the run imports, under the work directory.
        self.env = dict(os.environ, PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
                        **{k: "1" for k in BLAS_ENV})
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.runs: list[Run] = []
        self.start_ns = now_ns()

    def elapsed(self) -> float:
        return (now_ns() - self.start_ns) / 1e9

    def launch(self, kind: str) -> Run:
        run = Run(kind)
        self.runs.append(run)
        index = len(self.runs) - 1
        out = self.dir / f"run{index}"
        result_path = self.dir / f"run{index}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--src",
               str(ROOT / "src"), "--config", str(self.ini), "--output",
               str(out), "--result", str(result_path)]
        if kind in SETUP_ONLY:
            cmd.append("--setup-only")
        if kind in ("setup", "full"):
            cmd.append("--reference")
        if kind == "traced":
            cmd += ["--trace", str(self.dir / "spans.jsonl")]
        start = now_ns()
        cpu_before = children_cpu_s()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=max(
                                      1.0, CHILD_TIMEOUT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            run.problems.append("timed out")
            return run
        run.wall_s = (now_ns() - start) / 1e9
        # One child at a time, so the growth is this run's CPU time.
        run.cpu_s = children_cpu_s() - cpu_before
        try:
            self._read(run, proc, start, out, result_path)
        except (OSError, ValueError, KeyError) as exc:
            run.problems.append(f"unreadable output: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)
        return run

    def _read(self, run: Run, proc, start: int, out: Path,
              result_path: Path) -> None:
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or [""])[-1]
            run.problems.append(f"exit code {proc.returncode}: {tail}")
            return
        child = json.loads(result_path.read_text())
        if not Path(child["advaug_file"]).is_relative_to(ROOT / "src"):
            run.problems.append(f"imported advaug from {child['advaug_file']}")
            return
        stamps, cpu_stamps = child["stamps_ns"], child["cpu_stamps_ns"]
        expected = 1 if run.kind in SETUP_ONLY else self.t2
        if len(stamps) != expected or len(cpu_stamps) != expected:
            run.problems.append(
                f"{len(stamps)} iterations started, expected {expected}")
            return
        # The reference kernel runs just before each stamp: take its time
        # out of the process's.
        ref_cpu, ref_wall = child["reference_cpu_ns"], child["reference_wall_ns"]
        run.cpu_s -= sum(ref_cpu) / 1e9
        run.wall_s -= sum(ref_wall) / 1e9
        run.setup_cpu_s = child["setup_cpu_ns"] / 1e9
        run.reference_ms = [ns / 1e6 for ns in ref_cpu]
        run.peak_rss_mb = child["peak_rss_kb"] / 1024.0
        run.trace = child.get("trace", {})
        if run.kind not in SETUP_ONLY:
            run.steps_ms = step_times(cpu_stamps, ref_cpu or [0] * expected)
            run.wall_steps_ms = step_times(stamps, ref_wall or [0] * expected)
            if ref_cpu:
                run.ref_steps = in_reference_units(run.steps_ms, ref_cpu)
            csv_bytes = (out / "metrics.csv").read_bytes()
            run.csv_sha = hashlib.sha256(csv_bytes).hexdigest()
            rows = csv.DictReader(io.StringIO(csv_bytes.decode()))
            run.epoch_index = [int(row["iteration"]) - 1 for row in rows
                               if int(row["iteration"]) < self.t2]
            run.summary = json.loads((out / "summary.json").read_text())
        run.measured = True

    def check_identical_csv(self, state: dict) -> None:
        """Every whole run of this workload, seed and source must write the
        same metrics.csv, within this invocation and across invocations."""
        reference = state.setdefault("metrics_csv", {}).get(self.key)
        for run in self.runs:
            if not run.csv_sha:
                continue
            reference = reference or run.csv_sha
            if run.csv_sha != reference:
                run.problems.append("metrics.csv differs from an earlier run")
        if reference:
            state["metrics_csv"][self.key] = reference

    def failures(self) -> list[str]:
        return [f"{r.kind} run {i}: {'; '.join(r.problems) or 'failed'}"
                for i, r in enumerate(self.runs) if not r.ok]


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def load_state() -> dict:
    path = WORK / "state.json"
    return json.loads(path.read_text()) if path.exists() else {}


def save_state(state: dict) -> None:
    (WORK / "state.json").write_text(json.dumps(state, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# metrics

def end_to_end(session: Session) -> tuple[dict, list[str]]:
    """The gated step costs are medians in reference-kernel units.

    On a shared host the processor this process runs on is slowed, by up
    to twice, whenever another tenant uses the same core or its cache, in
    episodes from milliseconds to seconds long.  CPU time does not leave
    that out, and the share of slowed time changes from minute to minute,
    so medians and totals of CPU or wall time move by a quarter between
    invocations of the same code.  Each step is therefore divided by the
    reference kernel's CPU time just before and after it (see child.py),
    which cancels the processor's speed at that moment; the median over
    every step of one kind in the invocation is the gated figure.  CPU and
    wall times are printed beside it.

    Set-up cannot be cut into steps, so each set-up-only launch times the
    kernel right after set-up, and setup_s is its set-up CPU time rescaled
    to the speed at which the kernel takes NOMINAL_REFERENCE_MS: seconds of
    set-up on a processor that runs at one fixed speed.
    """
    full = [r for r in session.runs if r.measured and r.kind == "full"]
    setups = [r for r in session.runs if r.measured and r.kind == "setup"]

    def pool(per_step: str, epoch: bool = False) -> list[float]:
        """One per-step series of every whole run: its main-phase steps, or
        its epoch-end steps."""
        pooled = []
        for r in full:
            values = getattr(r, per_step)
            pooled += ([values[i] for i in r.epoch_index] if epoch else
                       main_phase(values, session.t1, session.t2))
        return pooled

    steps = [s for r in full for s in r.steps_ms]
    main_steps, epoch_steps = pool("steps_ms"), pool("steps_ms", epoch=True)
    wall_steps = [s for r in full for s in r.wall_steps_ms]
    summary = full[0].summary
    values = {
        "setup_s": statistics.median(
            r.setup_cpu_s * NOMINAL_REFERENCE_MS
            / statistics.median(r.reference_ms) for r in setups),
        "setup_cpu_s": statistics.median(r.setup_cpu_s for r in setups),
        "step_ref_p50": percentile(pool("ref_steps"), 50.0),
        "epoch_step_ref_p50": percentile(pool("ref_steps", epoch=True), 50.0),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in full),
        "test_accuracy": summary["accuracy"],
        "step_cpu_ms_p1": percentile(main_steps, 1.0),
        "step_cpu_ms_p50": percentile(main_steps, 50.0),
        "epoch_step_cpu_ms_p50": percentile(epoch_steps, 50.0),
        "reference_cpu_ms_p50": percentile(
            [s for r in full for s in r.reference_ms], 50.0),
        "run_cpu_s": statistics.median(r.cpu_s for r in full),
        "iters_per_cpu_s": statistics.median(
            1000.0 * len(r.steps_ms) / sum(r.steps_ms) for r in full),
        "run_s": statistics.median(r.wall_s for r in full),
        "step_ms_p50": percentile(wall_steps, 50.0),
    }
    tail = tail_percentile(len(steps))
    failed = len(session.failures())
    notes = [
        f"runs: {len(full)} whole, {len(setups)} set-up-only (setup_cpu_s "
        f"{values['setup_cpu_s']:.4f} s, not rescaled), "
        f"{len(steps)} step samples, {len(main_steps)} of the main phase "
        f"(iterations {session.t1 + 1 if session.t1 < session.t2 else 1}.."
        f"{session.t2}), {len(epoch_steps)} epoch steps",
        f"CPU time (reference kernel taken out): main-phase step p50 "
        f"{values['step_cpu_ms_p50']:.4f} ms and p1 "
        f"{values['step_cpu_ms_p1']:.4f} ms, epoch step p50 "
        f"{values['epoch_step_cpu_ms_p50']:.4f} ms, all "
        f"steps p99 {percentile(steps, 99.0):.4f} ms and p{tail:g} "
        f"{percentile(steps, tail):.4f} ms (the highest percentile with at "
        f"least 10 of {len(steps)} samples beyond it), run_cpu_s "
        f"{values['run_cpu_s']:.4f} s, iters_per_cpu_s "
        f"{values['iters_per_cpu_s']:.2f}; reference kernel p50 "
        f"{values['reference_cpu_ms_p50']:.4f} ms",
        f"wall time: run_s {values['run_s']:.4f} s, step_ms_p50 "
        f"{values['step_ms_p50']:.4f} ms, step_ms_p99 "
        f"{percentile(wall_steps, 99.0):.4f} ms",
        f"worst_class_recall: {summary['worst_class_recall']:.4f} (seed "
        f"{session.seed}; deterministic per seed, not gated)",
        f"failed_frac: {failed / len(session.runs):.4f} "
        f"({failed}/{len(session.runs)})",
    ]
    return values, notes


def per_layer(untraced: Run, traced: Run) -> dict:
    values = dict(traced.trace)
    meta = values["training.meta_iterations"]
    values["training.events"] = (
        len(traced.summary["events"]) / meta if meta else 0.0)
    values["metrics.worst_class_recall"] = traced.summary["worst_class_recall"]
    values["trace.overhead_s"] = traced.cpu_s - untraced.cpu_s
    return values


def recorded_counts(session: Session) -> dict | None:
    """The counts.json entry for this workload and seed, if any."""
    entry = json.loads((HERE / "counts.json").read_text()).get(session.name)
    return entry if entry and entry["seed"] == session.seed else None


def check_counts(session: Session, counts: dict, state: dict) -> str | None:
    """Counts must repeat exactly across traced runs of one workload, seed
    and source: those recorded in counts.json and earlier ones here."""
    earlier = state.setdefault("counts", {}).get(session.key)
    recorded = recorded_counts(session)
    if earlier is None and recorded \
            and recorded["fingerprint"] == session.fingerprint:
        earlier = recorded["counts"]
    state["counts"][session.key] = earlier or counts
    moved = sorted(k for k in counts if earlier and counts[k] != earlier.get(k))
    return f"counts differ from an earlier traced run: {moved}" if moved else None


# ---------------------------------------------------------------------------
# invocations

def timed_invocation(session: Session, seconds: float,
                     state: dict) -> tuple[dict | None, list[str]]:
    """Set-up-only launches, then whole runs until `seconds` is spent."""
    for _ in range(SETUP_ONLY_RUNS):
        session.launch("setup")
    while True:
        run = session.launch("full")
        full_runs = sum(r.kind == "full" for r in session.runs)
        next_end = session.elapsed() + run.wall_s
        if session.elapsed() > LAUNCH_CUTOFF_S or (
                full_runs >= MIN_FULL_RUNS and next_end > seconds):
            break
    session.check_identical_csv(state)
    if not any(r.measured and r.kind == "full" for r in session.runs):
        return None, []
    return end_to_end(session)


def traced_invocation(session: Session, units: dict,
                      state: dict) -> tuple[dict | None, list[str]]:
    """One untraced and one traced whole run of the same seed."""
    untraced = session.launch("full")
    traced = session.launch("traced")
    session.check_identical_csv(state)
    if not (untraced.measured and traced.measured):
        return None, []
    values = per_layer(untraced, traced)
    counts = {k: values[k] for k, unit in units.items() if unit != "s"}
    problem = check_counts(session, counts, state)
    if problem:
        traced.problems.append(problem)
    lines = []
    recorded = recorded_counts(session)
    if recorded:
        lines += [f"count change vs counts.json: {k}: "
                  f"{recorded['counts'].get(k)} -> {v}"
                  for k, v in counts.items() if recorded["counts"].get(k) != v]
    lines += [f"trace: {values['trace.spans']} spans written to "
              f"{session.dir / 'spans.jsonl'}",
              f"trace: traced run {traced.cpu_s:.3f} CPU s "
              f"({traced.wall_s:.3f} s wall), untraced {untraced.cpu_s:.3f} "
              f"CPU s ({untraced.wall_s:.3f} s wall)"]
    return values, lines


# ---------------------------------------------------------------------------
# main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps
    # the run in flight instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in ("src/advaug/cli.py", "configs", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"benchmark: {ROOT} lacks {missing}; run it from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    notes = machine_notes()
    session = Session(args.workload, args.seed)
    state = load_state()
    # The discarded warm-up launch fills the bytecode cache.  In a fresh
    # checkout it is a whole run, which also compiles the modules a run
    # imports only while writing its artifacts.
    session.launch("warmup" if (WORK / "pycache").exists() else "warmup-run")
    if args.trace:
        values, lines = traced_invocation(session, units, state)
    else:
        values, lines = timed_invocation(session, args.seconds, state)
    save_state(state)

    notes["loadavg_end"] = list(os.getloadavg())
    failures = session.failures()
    print(f"workload {args.workload}, seed {args.seed} (held-out seed for "
          f"confirming claims: {HELD_OUT_SEED}), trace {args.trace}, "
          f"source {session.fingerprint}")
    print("machine: " + json.dumps(notes, sort_keys=True))
    for line in lines + failures:
        print(line)
    if values is None:
        print("benchmark: no run completed; nothing to report", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:>16.6f} {metric['unit']}")
    result = {"correct": not failures, "attempted": len(session.runs),
              "failed": len(failures), "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, fingerprint=session.fingerprint,
                  machine=notes, notes=lines + failures, all_values=values)
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
