"""Span tracer that instruments one advaug run from outside the package.

Public functions of the advaug modules are replaced, in every module that
holds a reference to them, by wrappers that record a span per call: name,
start, end, parent span and iteration id.  Autodiff primitives are not
spans: a longtail run makes over a million of them, so they are
aggregated as per-op call counts and busy time.  Spans stay in memory and
are written out when the run ends.

The self time of a span is its duration minus the time its child spans
cover and minus the busy time of primitives called directly under it, so
the self times of all spans plus the primitive busy times partition the
traced run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

import numpy as np

clock = time.perf_counter_ns

# Autodiff primitive function -> the op name it records as Node.op.
PRIMITIVES = {
    "mul": "mul", "add": "add", "tsum": "sum", "transpose": "transpose",
    "matmul": "matmul", "reshape": "reshape", "broadcast_to": "broadcast",
    "neg": "neg", "sub": "sub", "div": "div", "gather_rows": "gather",
    "scatter_rows": "scatter", "relu": "relu", "tanh": "tanh", "exp": "exp",
    "log": "log", "logsumexp": "logsumexp", "sign": "sign",
}


def _rows(arg_index: int):
    """Count the leading dimension of one positional argument as rows."""
    return lambda args: int(args[arg_index].shape[0])


def _clamped(args):
    # project_psd clamps the eigenvalues of the symmetrized input at zero.
    sigma = np.asarray(args[0], dtype=np.float64)
    return int(np.linalg.eigvalsh(0.5 * (sigma + sigma.T)).min() < 0.0)


# (module, function, extra counter) for every span.  The span is named
# "<module>.<function>"; an extra counter (name, fn) adds fn(args) to
# "<span>.<name>" at each call.
SPANS = [
    ("config", "parse_config", None),
    ("scenarios", "build_scenario", None),
    ("training", "train", None),
    ("training", "warmup_step", None),
    ("training", "pseudo_step", None),
    ("training", "meta_update_omega", None),
    ("training", "meta_update_sigma", None),
    ("training", "final_step", None),
    ("training", "full_train_eps", None),
    ("loss", "quadratic_terms", None),
    ("loss", "quadratic_row", None),
    ("loss", "adjusted_logits", None),
    ("loss", "compute_delta", None),
    ("characteristics", "extract", ("rows", lambda args: int(args[0].ids.size))),
    ("characteristics", "update_history", None),
    ("classifier", "numpy_features", ("rows", _rows(1))),
    ("classifier", "extract_features", ("rows", _rows(1))),
    ("classifier", "ce_grad_wrt_features", None),
    ("stats", "update_covariance", None),
    ("stats", "project_psd", ("clamped", _clamped)),
    ("perturbation", "eps_forward", ("rows", _rows(1))),
    ("metrics", "evaluate", None),
]

# Methods, wrapped on their class: (module, class, method, span name).
METHODS = [
    ("autodiff", "Tape", "gradient", "autodiff.gradient"),
    ("metrics", "MetricsLog", "write_csv", "metrics.write_csv"),
]


def self_times(spans) -> list[int]:
    """Self time of each span in `spans`.

    Each span is a sequence (name, start, end, parent, ...) where parent is
    the index of the enclosing span or -1, and an optional sixth field is
    primitive busy time spent directly under the span.  Self time is the
    duration minus the part of the span's interval its children cover,
    minus that busy time.
    """
    covered = [0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            covered[parent] += max(0, min(span[2], p_end) - max(span[1], p_start))
    return [span[2] - span[1] - covered[i] - (span[5] if len(span) > 5 else 0)
            for i, span in enumerate(spans)]


class Tracer:
    """Records spans and primitive counts for one process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.iteration: int | None = 0
        self.meta = False
        self.meta_iterations = 0
        self.op_ns = 0  # primitive busy time under the innermost open span
        self.op_calls: Counter = Counter()
        self.op_busy: Counter = Counter()
        self.meta_ops = 0
        self.meta_nodes = 0
        self.extra: Counter = Counter(
            {f"{m}.{f}.{extra[0]}": 0 for m, f, extra in SPANS if extra})

    # -- instrumentation ---------------------------------------------------

    def install(self) -> None:
        """Import the advaug modules and replace their public functions.

        A function or method that no longer exists is skipped, so its
        metrics read zero instead of the traced run failing.
        """
        for name in ("cli", "training", "metrics", "verification"):
            importlib.import_module(f"advaug.{name}")
        modules = [m for n, m in sys.modules.items()
                   if n == "advaug" or n.startswith("advaug.")]
        ad = sys.modules["advaug.autodiff"]
        training = sys.modules["advaug.training"]

        def replace(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        for mod_name, fn_name, extra in SPANS:
            original = getattr(sys.modules[f"advaug.{mod_name}"], fn_name, None)
            if original is not None:
                replace(original,
                        self._span(f"{mod_name}.{fn_name}", original, extra))
        for mod_name, cls_name, meth, span_name in METHODS:
            cls = getattr(sys.modules[f"advaug.{mod_name}"], cls_name, None)
            if cls is not None and hasattr(cls, meth):
                setattr(cls, meth, self._span(span_name, getattr(cls, meth), None))
        for fn_name, op in PRIMITIVES.items():
            original = getattr(ad, fn_name, None)
            if original is not None:
                replace(original, self._primitive(op, original))
        replace(training.sample_train_batch,
                self._marker(training.sample_train_batch))
        self._count_records(ad)

    def _span(self, name, fn, extra):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            outer_ops, tracer.op_ns = tracer.op_ns, 0
            iteration = tracer.iteration
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, iteration,
                                       tracer.op_ns)
                tracer.op_ns = outer_ops
            if extra is not None:
                tracer.extra[f"{name}.{extra[0]}"] += extra[1](args)
            if name == "training.train":
                tracer.iteration, tracer.meta = None, False
            return result

        return wrapper

    def _primitive(self, op, fn):
        tracer = self
        busy = self.op_busy

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            busy[op] += elapsed
            tracer.op_ns += elapsed
            return result

        return wrapper

    def _marker(self, fn):
        """Iteration boundary: the trainer samples one batch per iteration."""
        tracer = self

        def sample_train_batch(state):
            tracer.iteration = state.t
            tracer.meta = state.t > state.config.t1
            tracer.meta_iterations += tracer.meta
            return fn(state)

        return sample_train_batch

    def _count_records(self, ad) -> None:
        """Count every recorded primitive by the op name its Node carries."""
        tracer = self
        calls = self.op_calls
        record = ad._record
        tapes = ad._TAPE_STACK

        def _record(op, *args):
            calls[op] += 1
            if tracer.meta:
                tracer.meta_ops += 1
                if tapes:
                    tracer.meta_nodes += 1
            return record(op, *args)

        ad._record = _record

    # -- results -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, iteration, op_ns in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "iteration": iteration,
                                     "primitive_ns": op_ns}) + "\n")

    def layer_values(self) -> dict:
        """Flat per-layer values: `<span>.calls`, `.s` (self seconds) and
        `.total_s` for every span, `autodiff.op.<op>.calls` and `.s` (busy
        seconds), the extra counters, and the per-meta-iteration counts."""
        names = [f"{m}.{f}" for m, f, _ in SPANS] + [n for *_, n in METHODS]
        calls = Counter(dict.fromkeys(names, 0))
        own_ns = Counter(dict.fromkeys(names, 0))
        total_ns = Counter(dict.fromkeys(names, 0))
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            own_ns[span[0]] += own
            total_ns[span[0]] += span[2] - span[1]
        values = {}
        for name in calls:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.s"] = own_ns[name] / 1e9
            values[f"{name}.total_s"] = total_ns[name] / 1e9
        for op in set(PRIMITIVES.values()) | set(self.op_calls):
            values[f"autodiff.op.{op}.calls"] = self.op_calls[op]
            values[f"autodiff.op.{op}.s"] = self.op_busy[op] / 1e9
        values.update(self.extra)
        meta = self.meta_iterations
        taped = values["classifier.extract_features.rows"]
        values.update({
            "autodiff.ops": sum(self.op_calls.values()),
            "autodiff.ops_per_meta_iter": self.meta_ops / meta if meta else 0.0,
            "autodiff.tape_nodes_per_meta_iter":
                self.meta_nodes / meta if meta else 0.0,
            "classifier.detached_rows_per_taped_row":
                values["classifier.numpy_features.rows"] / taped if taped else 0.0,
            "training.meta_iterations": meta,
            "trace.spans": len(self.spans),
        })
        return values
