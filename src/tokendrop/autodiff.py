"""Reverse-mode automatic differentiation over dense float64 arrays.

Implements exactly the operation set the translation model needs: elementwise
arithmetic with broadcasting, matmul (optionally batched), softmax, log,
sigmoid, relu, reshape/transpose, reductions, embedding lookup, position
gathering, and two fused ops: the masked attention core and a token-level
cross entropy. Operations executed while a GradTape is active are recorded;
replaying the tape in reverse accumulates gradients into every tensor that
influenced the loss.
"""

from __future__ import annotations

import ctypes

import numpy as np


def _keep_freed_memory():
    """Keep freed array buffers in the process heap, where glibc is the C library.

    A train step allocates every op's output afresh and frees them together
    when its tape goes. Under glibc's adaptive thresholds the heap is then
    trimmed, or big arrays get mappings of their own, so the next step faults
    every page in again, or not, depending on where long-lived arrays happen
    to lie. Fixed thresholds keep arrays below 32 MiB in the heap and never
    trim it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library by that name
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 1 << 30)


_keep_freed_memory()


class Tensor:
    """A dense float64 array plus gradient bookkeeping.

    `grad` is populated (as a plain ndarray) by `backward`. `requires_grad`
    is the only gradient flag: the caller sets it on trainable leaves, and an
    op recorded on a tape sets it on its output when any input has it.
    `backward` reads it when it runs, so changing it between steps takes
    effect.
    """

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class _TapeEntry:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class GradTape:
    """Ordered record of executed operations.

    Used as a context manager; operations run inside the `with` block are
    recorded in execution order and replayed in exact reverse order by
    `backward`. Not shareable across threads.
    """

    def __init__(self):
        self.entries = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a GradTape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False


_ACTIVE_TAPE = None


def _record(inputs, output, backward_fn):
    if _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs):
        output.requires_grad = True
        _ACTIVE_TAPE.entries.append(_TapeEntry(inputs, output, backward_fn))


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t, g):
    if t.grad is None:
        # A fresh array in the layout of `t.data`: `g` may be shared with
        # another input (add, sub), and its own layout (permuted after a
        # transpose) would change how later matmuls round.
        t.grad = np.empty_like(t.data)
        t.grad[...] = g
    else:
        t.grad += g


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)

    def backward_fn(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))

    _record((a, b), out, backward_fn)
    return out


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)

    def backward_fn(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape))

    _record((a, b), out, backward_fn)
    return out


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)

    def backward_fn(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    _record((a, b), out, backward_fn)
    return out


def power(a, exponent):
    """Elementwise a**exponent for a constant scalar exponent."""
    a = _as_tensor(a)
    e = float(exponent)
    out = Tensor(a.data**e)

    def backward_fn(g):
        return (g * e * a.data ** (e - 1.0),)

    _record((a,), out, backward_fn)
    return out


def log(a):
    a = _as_tensor(a)
    out = Tensor(np.log(a.data))
    _record((a,), out, lambda g: (g / a.data,))
    return out


def sigmoid(a):
    a = _as_tensor(a)
    with np.errstate(over="ignore"):  # exp overflows to inf below about -709; 1/(1+inf) = 0
        s = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(s)
    _record((a,), out, lambda g: (g * s * (1.0 - s),))
    return out


def relu(a):
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0))
    _record((a,), out, lambda g: (g * (a.data > 0.0),))
    return out


def clip(a, lo, hi):
    """Clamp values to [lo, hi]; gradient passes only through unclipped entries."""
    a = _as_tensor(a)
    out = Tensor(np.clip(a.data, lo, hi))
    inside = (a.data >= lo) & (a.data <= hi)
    _record((a,), out, lambda g: (g * inside,))
    return out


def matmul(a, b):
    """Matrix product; supports stacked (batched) leading dimensions."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def backward_fn(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return (_unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape))

    _record((a, b), out, backward_fn)
    return out


def reshape(a, shape):
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    _record((a,), out, lambda g: (g.reshape(a.data.shape),))
    return out


def transpose(a, axes):
    a = _as_tensor(a)
    out = Tensor(np.transpose(a.data, axes))
    inv = np.argsort(axes)
    _record((a,), out, lambda g: (np.transpose(g, inv),))
    return out


def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward_fn(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gx = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gx, a.data.shape).copy(),)

    _record((a,), out, backward_fn)
    return out


def tmean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


_TINY = np.finfo(np.float64).tiny
# Added to masked attention scores: exp of it underflows to 0 next to any
# real score, yet a fully masked row stays finite, all its scores shifted alike.
_MASK_OFFSET = -1e9


def _softmax_(x, axis):
    """Softmax of `x` along `axis`, written over `x` and returned.

    Outputs are in [0, 1] with slices summing to 1, and an exact 0 where exp
    underflows, never a (slow) subnormal."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    x[x < _TINY] = 0.0
    return x


def softmax(a, axis):
    """Numerically stabilized softmax along `axis` (see `_softmax_`)."""
    a = _as_tensor(a)
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.data.shape}")
    s = _softmax_(a.data.copy(order="K"), axis)
    out = Tensor(s)

    def backward_fn(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    _record((a,), out, backward_fn)
    return out


def attention(q, k, v, key_pad, causal):
    """softmax(q·kᵀ/√d_head + mask)·v over [batch, heads, len, d_head] stacks.

    The mask adds `_MASK_OFFSET` to the scores of keys where the boolean
    `key_pad` [batch, key_len] is set and, if `causal`, of keys after the
    query's position (twice where both hold). Causal queries are the last
    query_len of key_len positions, so a query block that continues a
    cached prefix sees that prefix. One tape entry keeps only the attention
    probabilities for the backward pass.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    key_pad = np.asarray(key_pad, dtype=bool)
    if q.data.ndim != 4 or k.data.ndim != 4 or v.data.ndim != 4:
        raise ShapeError(f"attention needs 4-d q, k and v, got {q.data.shape}, "
                         f"{k.data.shape} and {v.data.shape}")
    b, h, lq, d = q.data.shape
    lk = k.data.shape[2]
    if k.data.shape != (b, h, lk, d) or v.data.shape[:3] != (b, h, lk) or key_pad.shape != (b, lk):
        raise ShapeError(f"attention shapes disagree: q {q.data.shape}, k {k.data.shape}, "
                         f"v {v.data.shape}, key_pad {key_pad.shape}")
    if causal and lq > lk:
        raise ShapeError(f"causal attention needs no more queries than keys, got {lq} and {lk}")
    scale = 1.0 / np.sqrt(d)
    s = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    s *= scale
    if causal:
        later = np.triu(np.ones((lq, lk), dtype=bool), k=1 + lk - lq)
        np.add(s, _MASK_OFFSET, out=s, where=later)
    np.add(s, _MASK_OFFSET, out=s, where=key_pad[:, None, None, :])
    _softmax_(s, -1)
    out = Tensor(np.matmul(s, v.data))

    def backward_fn(g):
        gs = np.matmul(g, np.swapaxes(v.data, -1, -2))
        gv = np.matmul(np.swapaxes(s, -1, -2), g)
        gs -= (gs * s).sum(axis=-1, keepdims=True)
        gs *= s
        gs *= scale
        gq = np.matmul(gs, k.data)
        gk = np.swapaxes(np.matmul(np.swapaxes(q.data, -1, -2), gs), -1, -2)
        return (gq, gk, gv)

    _record((q, k, v), out, backward_fn)
    return out


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to mean 0 / variance 1, then scale and shift."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({d},), got {gain.data.shape} and {bias.data.shape}")
    mu = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    inv = power(add(var, eps), -0.5)
    return add(mul(mul(centered, inv), gain), bias)


def embedding(table, ids):
    """Row lookup: table[ids]. `ids` is a plain integer array."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"embedding id out of range for table with {table.data.shape[0]} rows")
    out = Tensor(table.data[ids])

    def backward_fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return (gt,)

    _record((table,), out, backward_fn)
    return out


def take_positions(x, batch_idx, pos_idx):
    """Gather rows x[b, t, :] at paired (batch, position) indices."""
    x = _as_tensor(x)
    batch_idx = np.asarray(batch_idx, dtype=np.intp)
    pos_idx = np.asarray(pos_idx, dtype=np.intp)
    out = Tensor(x.data[batch_idx, pos_idx])

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (batch_idx, pos_idx), g)
        return (gx,)

    _record((x,), out, backward_fn)
    return out


def cross_entropy(logits, targets, ignore_id=None):
    """Mean token-level negative log-likelihood.

    `logits` is [n, V]; `targets` an integer vector of length n. Positions
    whose target equals `ignore_id` contribute nothing. If every position is
    ignored, or there are none, the result is 0.0 with a zero gradient. The
    returned tensor also carries `token_count`, the number of positions
    averaged over.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects [n, V] logits, got {logits.data.shape}")
    n, v = logits.data.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} does not match {n} logit rows")
    valid = np.ones(n, dtype=bool) if ignore_id is None else targets != ignore_id
    count = int(valid.sum())
    if count and (targets[valid].min() < 0 or targets[valid].max() >= v):
        raise IndexError(f"target id out of range for {v} classes")
    if count == 0:
        out = Tensor(np.float64(0.0))
        out.token_count = 0
        _record((logits,), out, lambda g: (np.zeros_like(logits.data),))
        return out

    m = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - m
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - logz
    safe_targets = np.where(valid, targets, 0)
    nll = -log_probs[np.arange(n), safe_targets]
    loss = nll[valid].sum() / count
    out = Tensor(np.float64(loss))
    out.token_count = count

    def backward_fn(g):
        probs = np.exp(log_probs)
        grad = probs.copy()
        grad[np.arange(n), safe_targets] -= 1.0
        grad *= (valid[:, None] * (float(g) / count))
        return (grad,)

    _record((logits,), out, backward_fn)
    return out


def backward(loss, params=None):
    """Replay the active tape in reverse, accumulating gradients.

    `loss` must be a scalar produced while the tape was recording. Gradients
    land in `.grad` of every tensor that has `requires_grad` set and lies on a
    path to the loss; intermediate results drop theirs once used. If `params`
    is given, any listed tensor left untouched (unreachable from the loss)
    receives an explicit zero gradient.
    """
    if _ACTIVE_TAPE is None:
        raise RuntimeError("backward requires an active GradTape")
    if np.asarray(loss.data).size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    for entry in reversed(_ACTIVE_TAPE.entries):
        if entry.output.grad is None:
            continue
        gs = entry.backward_fn(entry.output.grad)
        for t, g in zip(entry.inputs, gs):
            if t.requires_grad:
                _accumulate(t, g)
        entry.output.grad = None  # intermediates are single-use
    if params is not None:
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)


def grad_check(f, x, eps=1e-6):
    """Max relative error between analytic and central-difference gradients.

    `f` must be a deterministic scalar-valued function of one Tensor.
    """
    x_check = Tensor(x.data.copy(), requires_grad=True)
    with GradTape():
        loss = f(x_check)
        backward(loss, params=[x_check])
    analytic = x_check.grad.copy()

    numeric = np.zeros_like(x_check.data)
    flat = x_check.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float(f(x_check).data)
        flat[i] = orig - eps
        dn = float(f(x_check).data)
        flat[i] = orig
        nflat[i] = (up - dn) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
