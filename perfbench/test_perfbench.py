"""Tests of the benchmark's own logic.  Run with: python3 -m pytest perfbench"""

import difflib
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (1499, 99.0), (9999, 99.0), (10000, 99.9),
    (100000, 99.99), (10 ** 7, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_matches_numpy_linear_method():
    rng = random.Random(0)
    values = [rng.expovariate(1.0) for _ in range(1499)]
    for p in (0.0, 50.0, 99.0, 100.0):
        assert run.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_main_phase_is_the_meta_iterations_or_every_iteration():
    steps = [1.0, 2.0, 3.0, 4.0]  # iterations 1..4 of a t2 = 5 schedule
    assert run.main_phase(steps, t1=2, t2=5) == [3.0, 4.0]
    assert run.main_phase(steps, t1=0, t2=5) == steps
    assert run.main_phase(steps, t1=5, t2=5) == steps


def test_step_times_leave_out_the_reference_kernel():
    # Reference runs of 2, 4 and 2 ms end at 0, 14 and 20 ms: iterations
    # take 10 and 4 ms of their own.
    stamps_ns = [0, 14_000_000, 20_000_000]
    ref_ns = [2_000_000, 4_000_000, 2_000_000]
    steps = run.step_times(stamps_ns, ref_ns)
    assert steps == [10.0, 4.0]
    # Each step over the mean of the reference runs around it.
    assert run.in_reference_units(steps, ref_ns) == [10.0 / 3, 4.0 / 3]


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        ("root", 0, 100, -1),
        ("child", 10, 40, 0),
        ("grandchild", 20, 30, 1),
        ("child", 50, 70, 0),
        ("leaf_with_primitives", 72, 80, 0, 0, 5),
    ]
    assert self_times(spans) == [100 - 30 - 20 - 8, 30 - 10, 10, 20, 8 - 5]


def test_tracer_spans_record_parent_iteration_and_partition_time():
    tracer = Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer._span("m.inner", inner, None)

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = tracer._span("m.outer", outer, None)
    tracer.iteration = 7
    assert wrapped_outer(1) == 4
    (out_name, out_start, out_end, out_parent, out_iter, _), \
        (in_name, in_start, in_end, in_parent, in_iter, _) = tracer.spans
    assert (out_name, out_parent, in_name, in_parent) == ("m.outer", -1, "m.inner", 0)
    assert in_iter == out_iter == 7
    assert out_start <= in_start <= in_end <= out_end
    assert sum(self_times(tracer.spans)) == out_end - out_start


def _preset():
    return (run.ROOT / "configs" / "longtail.ini").read_text()


def test_longtail_ce_differs_from_longtail_only_in_t1():
    preset = _preset()
    derived = run.workload_ini(run.WORKLOADS["longtail-ce"], preset, seed=0)
    diff = [line for line in difflib.unified_diff(
        preset.splitlines(), derived.splitlines(), lineterm="", n=0)
        if line[:1] in "+-" and not line.startswith(("+++", "---"))]
    t2 = run.ini_value(preset, "training", "t2")
    assert diff == [f"-t1 = {run.ini_value(preset, 'training', 't1')}",
                    f"+t1 = {t2}"]


def test_workload_seed_is_written_into_the_run_section():
    preset = _preset()
    derived = run.workload_ini(run.WORKLOADS["longtail-meta"], preset, seed=3)
    assert run.ini_value(derived, "run", "seed") == "3"
    assert derived.replace("seed = 3", "seed = 0") == preset


def test_edit_ini_rejects_a_key_the_preset_lacks():
    with pytest.raises(KeyError):
        run.edit_ini(_preset(), {("training", "no_such_key"): "1"})
