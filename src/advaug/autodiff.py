"""Minimal dense-tensor reverse-mode autodiff with second-order support.

Every primitive computes its value eagerly in float64 numpy and, while a
Tape is active, appends to every active tape a node holding one VJP
function per input. Gradient cotangents are themselves built out of the
same primitives, so a backward pass that runs while the tape is still
recording can be differentiated again (reverse-over-reverse), which makes
the tape the reference for the closed-form lookahead hypergradient of
`kernels`; training itself does not record on it. The module holds only
the ops that the taped builders of `loss`, the reference lookahead of the
tests and the VJPs of those ops use. A sweep builds only the cotangents on
paths from its sources; a first-order sweep should run after its tape
closes, so that nothing records its ops.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .kernels import differences, quad

class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; names the offending op."""


class Tensor:
    """A dense float64 array node. Leaf unless produced by a primitive."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Node:
    """One recorded primitive application."""

    __slots__ = ("op", "inputs", "output", "vjp")

    def __init__(self, op, inputs, output, vjp):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.vjp = vjp  # per input: fn(cotangent) -> its cotangent


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of primitive ops.

    Use as a context manager; ops executed inside are recorded in
    topological (execution) order. gradient() may be called while the tape
    is still active, in which case the backward arithmetic is recorded too
    and can itself be differentiated by a later gradient() call.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def gradient(self, target: Tensor, sources: Sequence[Tensor]
                 ) -> list[Tensor]:
        """Cotangents of target w.r.t. sources, seeded with ones.

        Only paths from the sources are swept: a node's VJP for an input
        runs only when that input is a source or depends on one, and each
        such cotangent is built and summed exactly as in a full sweep.
        Sources with no path to target get explicit zero tensors. A
        first-order sweep should be taken after the tape closes, so that
        its ops are not recorded.
        """
        produced = any(n.output is target for n in self.nodes)
        if not produced:
            raise ShapeError("gradient target was not produced on this tape")
        # Snapshot: cotangent ops recorded below must not be traversed now.
        nodes = list(self.nodes)
        live = {id(s) for s in sources}
        for node in nodes:
            if not live.isdisjoint(map(id, node.inputs)):
                live.add(id(node.output))
        # Only live inputs receive cotangents, so nodes with a dead output
        # (the target's aside) are skipped below.
        cot: dict[int, Tensor] = {
            id(target): Tensor(np.ones_like(target.value))}
        for node in reversed(nodes):
            g = cot.get(id(node.output))
            if g is None:
                continue
            # All VJPs run before any accumulation, as in a full sweep, so
            # the recorded op order (and a later sweep's sums) is unchanged.
            grads = [vjp(g) if id(inp) in live else None
                     for inp, vjp in zip(node.inputs, node.vjp)]
            for inp, gi in zip(node.inputs, grads):
                if gi is None:
                    continue
                acc = cot.get(id(inp))
                cot[id(inp)] = gi if acc is None else add(acc, gi)
        return [cot.get(id(s)) or Tensor(np.zeros_like(s.value)) for s in sources]


def _record(op: str, inputs: tuple[Tensor, ...], out_value: np.ndarray,
            vjp: tuple[Callable, ...]) -> Tensor:
    out = Tensor(out_value)
    if _TAPE_STACK:
        # Record on every active tape so an outer tape can differentiate
        # through work done (and backward passes taken) under an inner one.
        node = Node(op, inputs, out, vjp)
        for tape in _TAPE_STACK:
            tape.nodes.append(node)
    return out


def _sum_to_shape(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reverse numpy broadcasting: reduce g back to `shape` (traced)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = tsum(g, axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = tsum(g, axis=axes, keepdims=True)
    if g.shape != shape:
        g = reshape(g, shape)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        val = a.value + b.value
    except ValueError as e:
        raise ShapeError(f"add: {a.shape} vs {b.shape}") from e
    sa, sb = a.shape, b.shape
    return _record("add", (a, b), val,
                   (lambda g: _sum_to_shape(g, sa),
                    lambda g: _sum_to_shape(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        val = a.value - b.value
    except ValueError as e:
        raise ShapeError(f"sub: {a.shape} vs {b.shape}") from e
    sa, sb = a.shape, b.shape
    return _record("sub", (a, b), val,
                   (lambda g: _sum_to_shape(g, sa),
                    lambda g: _sum_to_shape(neg(g), sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        val = a.value * b.value
    except ValueError as e:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}") from e
    sa, sb = a.shape, b.shape
    return _record("mul", (a, b), val,
                   (lambda g: _sum_to_shape(mul(g, b), sa),
                    lambda g: _sum_to_shape(mul(g, a), sb)))


def neg(a: Tensor) -> Tensor:
    a = _wrap(a)
    return _record("neg", (a,), -a.value, (neg,))


# ---------------------------------------------------------------------------
# linear algebra and structure

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    return _record("matmul", (a, b), a.value @ b.value,
                   (lambda g: matmul(g, transpose(b)),
                    lambda g: matmul(transpose(a), g)))


def transpose(a: Tensor) -> Tensor:
    a = _wrap(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected 2-D, got {a.shape}")
    return _record("transpose", (a,), a.value.T.copy(), (transpose,))


def reshape(a: Tensor, shape) -> Tensor:
    a = _wrap(a)
    orig = a.shape
    try:
        val = a.value.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: {a.shape} -> {shape}") from e
    return _record("reshape", (a,), val,
                   (lambda g: reshape(g, orig),))


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows of a 2-D tensor by an integer index array (constant)."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.intp)
    if a.ndim != 2:
        raise ShapeError(f"gather_rows: expected 2-D, got {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape}")
    n_rows = a.shape[0]
    return _record("gather", (a,), a.value[idx],
                   (lambda g: scatter_rows(g, idx, n_rows),))


_QUAD_SLOTS = ("a", "u", "v", "s")


def quad_form(slot: str, **given) -> Tensor:
    """Gradient w.r.t. `slot` of the form

        T(a, u, v, s) = 1/2 sum_k sum_j a_kj (u_j - u_k)^T s_k (v_j - v_k),

    with a (C, C), u and v (C, H), s (C, H, H), given the other three
    inputs by name; the value is `kernels.quad`, and for slot "s", which no
    kernel takes, its dense form here. T is linear in each input,
    so <g, dT/dslot> is T with g in `slot`, and the VJP for any input is
    this op with the cotangent in `slot`: it is differentiable to any order
    with no further code.
    """
    names = tuple(n for n in _QUAD_SLOTS if n != slot)
    if slot not in _QUAD_SLOTS or set(given) != set(names):
        raise ShapeError(f"quad_form: slot {slot!r} needs inputs {names}, "
                         f"got {sorted(given)}")
    t = {n: _wrap(given[n]) for n in names}
    ref = t["u"] if "u" in t else t["v"]
    if ref.ndim != 2:
        raise ShapeError(f"quad_form: expected 2-D u/v, got {ref.shape}")
    c, h = ref.shape
    expected = {"a": (c, c), "u": (c, h), "v": (c, h), "s": (c, h, h)}
    for n in names:
        if t[n].shape != expected[n]:
            raise ShapeError(
                f"quad_form: {n} {t[n].shape}, expected {expected[n]}")
    values = {n: t[n].value for n in names}
    for n in ("u", "v"):
        if n in values:
            values["d" + n] = differences(values.pop(n))
    if slot == "s":
        du, dv = values["du"], values["dv"]
        out = 0.5 * (du * values["a"][..., None]).transpose(0, 2, 1) @ dv
    else:
        out = quad(slot, **values)

    def vjp(name):
        rest = {n: t[n] for n in names if n != name}
        return lambda g: quad_form(name, **{slot: g}, **rest)

    return _record("quad_form", tuple(t[n] for n in names), out,
                   tuple(vjp(n) for n in names))


def scatter_rows(a: Tensor, idx, n_rows: int) -> Tensor:
    """Adjoint of gather_rows: sum rows of `a` into an n_rows-tall zero matrix."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = np.zeros((n_rows, a.value.shape[1]))
    np.add.at(out, idx, a.value)
    return _record("scatter", (a,), out, (lambda g: gather_rows(g, idx),))


# ---------------------------------------------------------------------------
# nonlinearities

def tanh(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = _record("tanh", (a,), np.tanh(a.value),
                  (lambda g: mul(g, sub(Tensor(1.0), mul(out, out))),))
    return out


def relu(a: Tensor) -> Tensor:
    a = _wrap(a)
    # The mask (a > 0) equals (out > 0); it is built only when a backward
    # pass needs it, so untaped forwards do not pay for it.
    out = _record("relu", (a,), np.maximum(a.value, 0.0),
                  (lambda g: mul(g, Tensor((out.value > 0)
                                           .astype(np.float64))),))
    return out


def exp(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = _record("exp", (a,), np.exp(a.value),
                  (lambda g: mul(g, out),))
    return out


# ---------------------------------------------------------------------------
# reductions

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    in_shape = a.shape

    def vjp(g):
        if axis is None:
            gg = reshape(g, (1,) * len(in_shape)) if in_shape else g
        elif not keepdims:
            kept = list(g.shape)
            axes = (axis,) if isinstance(axis, int) else axis
            for ax in sorted(ax % len(in_shape) for ax in axes):
                kept.insert(ax, 1)
            gg = reshape(g, tuple(kept))
        else:
            gg = g
        return broadcast_to(gg, in_shape)

    return _record("sum", (a,), np.sum(a.value, axis=axis, keepdims=keepdims),
                   (vjp,))


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    count = a.value.size if axis is None else np.prod(
        [a.shape[ax] for ax in ((axis,) if isinstance(axis, int) else axis)])
    return mul(tsum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / float(count)))


def broadcast_to(a: Tensor, shape) -> Tensor:
    a = _wrap(a)
    shape = tuple(shape)
    orig = a.shape
    try:
        val = np.broadcast_to(a.value, shape).copy()
    except ValueError as e:
        raise ShapeError(f"broadcast_to: {a.shape} -> {shape}") from e
    return _record("broadcast", (a,), val,
                   (lambda g: _sum_to_shape(g, orig),))


def logsumexp(a: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Fused, shift-stable log-sum-exp along one axis.

    The cotangent is softmax(a) along the axis, expressed with traced ops
    so the backward pass stays twice-differentiable.
    """
    a = _wrap(a)
    m = np.max(a.value, axis=axis, keepdims=True)
    val = m + np.log(np.sum(np.exp(a.value - m), axis=axis, keepdims=True))

    def vjp(g):
        lse_k = out if keepdims else _expand_axis(out, axis, a.ndim)
        g_k = g if keepdims else _expand_axis(g, axis, a.ndim)
        soft = exp(sub(a, broadcast_to(lse_k, a.shape)))
        return mul(broadcast_to(g_k, a.shape), soft)

    if not keepdims:
        val = np.squeeze(val, axis=axis)
    out = _record("logsumexp", (a,), val, (vjp,))
    return out


def _expand_axis(t: Tensor, axis: int, ndim: int) -> Tensor:
    shape = list(t.shape)
    shape.insert(axis % ndim, 1)
    return reshape(t, tuple(shape))


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Per-sample CE of row-wise logits against integer labels, via logsumexp."""
    labels = np.asarray(labels, dtype=np.intp)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"softmax_cross_entropy: logits {logits.shape}, labels {labels.shape}")
    onehot = np.zeros(logits.shape)
    onehot[np.arange(labels.size), labels] = 1.0
    picked = tsum(mul(logits, Tensor(onehot)), axis=1)
    return sub(logsumexp(logits, axis=1), picked)
