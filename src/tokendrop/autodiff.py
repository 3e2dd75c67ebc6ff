"""Reverse-mode automatic differentiation over dense float64 arrays.

Implements exactly the operation set the translation model needs: elementwise
arithmetic with broadcasting, matmul (optionally batched), softmax, log,
sigmoid, relu, dropout, reshape/transpose, reductions, embedding lookup,
position gathering, and three fused ops: masked multi-head attention, layer
norm's normalize-and-scale and a token-level cross entropy. Operations
executed while a GradTape is active are recorded; replaying the tape in
reverse accumulates gradients into every tensor that influenced the loss.

A tape entry holds the gradient slots (`_Node`) of its inputs and output,
not the tensors, and a backward closure over only the arrays that backward
reads. So a forward intermediate that no backward reads is freed as soon as
the model code drops it. What each op keeps:
- `add`, `sub`, `reshape`, `tsum`, `transpose`: shapes only.
- `mul`: each side keeps the other side's data only if that other side
  needs a gradient when the op is recorded; a side recorded without one
  gets `None`, which `backward` skips.
- `relu`: its output, not its input.
- `dropout`: its boolean keep mask and the scale.
- `log`, `clip`: their input or a mask of it; `sigmoid` and `softmax`
  their output; `matmul` both operands; `attention` the head views of
  q, k and v and the probabilities; `embedding` the table;
  `take_positions` its input; `cross_entropy` the log-probabilities.
- `layer_norm`: its centering keeps nothing; its fused normalize-and-scale
  keeps the centered input, two per-row factors and the gain, not the
  normalized output.
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


class _Node:
    """The gradient slot of one tensor: all that the tape and `backward` touch.

    It holds `grad`, `requires_grad`, and the shape and strides of the
    tensor's data, never the data itself. A first gradient that has to be
    copied is laid out as that data is (see `_accumulate`).
    """

    __slots__ = ("grad", "requires_grad", "shape", "strides")

    def __init__(self, data, requires_grad):
        self.grad = None
        self.requires_grad = requires_grad
        self.shape = data.shape
        self.strides = data.strides


class Tensor:
    """A dense float64 array plus a gradient slot (`_Node`).

    A tensor made with `requires_grad=True` gets its slot at once; any other
    gets one only when a tape records it, so untaped work (decoding) makes
    none. The slot takes the data's layout each time a tape records the
    tensor, so it follows an assignment to `data` (as `restore` makes).
    `grad` is populated (as a plain ndarray) by `backward`. `requires_grad`
    is the only gradient flag: the caller sets it on trainable leaves, and an
    op recorded on a tape sets it on its output when any input has it.
    `backward` reads it when it runs, so changing it between steps takes
    effect.
    """

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = _Node(self.data, True) if requires_grad else None

    @property
    def requires_grad(self):
        return self._node is not None and self._node.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag):
        self._slot().requires_grad = bool(flag)

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g):
        self._slot().grad = g

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def _slot(self):
        """The gradient slot, made on first use, with the data's current layout."""
        if self._node is None:
            self._node = _Node(self.data, False)
        else:
            self._node.shape, self._node.strides = self.data.shape, self.data.strides
        return self._node

    def zero_grad(self):
        if self._node is not None:
            self._node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class _TapeEntry:
    """One recorded op: the slots of its inputs and output, and a backward
    closure over the arrays that backward reads."""

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
    if _ACTIVE_TAPE is None or not any(t.requires_grad for t in inputs):
        return
    output._node = _Node(output.data, True)
    _ACTIVE_TAPE.entries.append(
        _TapeEntry(tuple(t._slot() for t in inputs), output._node, backward_fn))


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# What `_empty_like` lays a slot's layout over; no element of it is read.
_LAYOUT_BASE = np.empty(1)


def _empty_like(node):
    """`np.empty_like` of an array with the slot's shape and strides."""
    return np.empty_like(np.lib.stride_tricks.as_strided(
        _LAYOUT_BASE, node.shape, node.strides, writeable=False))


def _accumulate(node, g, kept):
    """Add `g` into the slot's gradient.

    A first gradient is kept as it is when it is writable, laid out as the
    tensor's data (a permuted layout, after `transpose`, would change how
    later matmuls round), and shares no memory with a gradient `kept` from
    the same tape entry (`add` and `sub` hand both inputs one `g`). Otherwise
    it is copied into a fresh array in the data's layout.
    """
    if node.grad is not None:
        node.grad += g
    elif (g.shape == node.shape and g.strides == node.strides and g.flags.writeable
          and not any(np.may_share_memory(g, k) for k in kept)):
        node.grad = g
        kept.append(g)
    else:
        node.grad = _empty_like(node)
        node.grad[...] = g


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
    sa, sb = a.data.shape, b.data.shape
    out = Tensor(a.data + b.data)
    _record((a, b), out, lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    out = Tensor(a.data - b.data)
    _record((a, b), out, lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))
    return out


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    x, y = a.data, b.data
    out = Tensor(x * y)
    if _ACTIVE_TAPE is None:  # nothing to record: spare decoding the checks below
        return out
    sa, sb = x.shape, y.shape
    # Each side keeps the other's data only if it needs a gradient itself.
    ya = y if a.requires_grad else None
    xb = x if b.requires_grad else None

    def backward_fn(g):
        return (None if ya is None else _unbroadcast(g * ya, sa),
                None if xb is None else _unbroadcast(g * xb, sb))

    _record((a, b), out, backward_fn)
    return out


def dropout(x, keep, p):
    """Inverted dropout: `x` where the boolean `keep` is set, else 0, scaled
    by 1/(1-p).

    Computed as `x * keep`, then `*= 1/(1-p)`, and the gradient likewise.
    Multiplying by 1.0 or 0.0 is exact, so this rounds as `x * (keep/(1-p))`
    does, signed zeros included. The tape keeps the mask as booleans, not as
    a float array the size of `x`.
    """
    x = _as_tensor(x)
    scale = 1.0 / (1.0 - p)
    y = x.data * keep
    y *= scale
    out = Tensor(y)

    def backward_fn(g):
        gx = g * keep
        gx *= scale
        return (gx,)

    _record((x,), out, backward_fn)
    return out


def log(a):
    a = _as_tensor(a)
    x = a.data
    out = Tensor(np.log(x))
    _record((a,), out, lambda g: (g / x,))
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
    y = np.maximum(a.data, 0.0)
    out = Tensor(y)
    # y > 0 exactly where a > 0 (NaN fails both), so the input can go.
    _record((a,), out, lambda g: (g * (y > 0.0),))
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
    x, y = a.data, b.data
    out = Tensor(np.matmul(x, y))

    def backward_fn(g):
        ga = np.matmul(g, np.swapaxes(y, -1, -2))
        gb = np.matmul(np.swapaxes(x, -1, -2), g)
        return (_unbroadcast(ga, x.shape), _unbroadcast(gb, y.shape))

    _record((a, b), out, backward_fn)
    return out


def reshape(a, shape):
    a = _as_tensor(a)
    sa = a.data.shape
    out = Tensor(a.data.reshape(shape))
    _record((a,), out, lambda g: (g.reshape(sa),))
    return out


def transpose(a, axes):
    a = _as_tensor(a)
    out = Tensor(np.transpose(a.data, axes))
    inv = np.argsort(axes)
    _record((a,), out, lambda g: (np.transpose(g, inv),))
    return out


def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    sa = a.data.shape
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward_fn(g):
        if axis is None:
            return (np.broadcast_to(g, sa).copy(),)
        gx = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gx, sa).copy(),)

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


def attention(q, k, v, key_pad, causal, heads):
    """softmax(q·kᵀ/√d_head + mask)·v over `heads` heads of [batch, len,
    d_model] projections, merged back to [batch, query_len, d_model].

    The mask adds `_MASK_OFFSET` to the scores of keys where the boolean
    `key_pad` [batch, key_len] is set and, if `causal`, of keys after the
    query's position (twice where both hold). Causal queries are the last
    query_len of key_len positions, so a query block that continues a
    cached prefix sees that prefix. One tape entry keeps the head views of
    q, k and v and the probabilities. Backward splits a contiguous copy of
    the gradient and hands out C-contiguous merged gradients, the layouts of
    the split, per-head op and merge chain, so it rounds as that chain does.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    key_pad = np.asarray(key_pad, dtype=bool)
    if q.data.ndim != 3 or k.data.ndim != 3 or v.data.ndim != 3:
        raise ShapeError(f"attention needs 3-d q, k and v, got {q.data.shape}, "
                         f"{k.data.shape} and {v.data.shape}")
    b, lq, dm = q.data.shape
    lk = k.data.shape[1]
    if k.data.shape != (b, lk, dm) or v.data.shape != (b, lk, dm) or key_pad.shape != (b, lk):
        raise ShapeError(f"attention shapes disagree: q {q.data.shape}, k {k.data.shape}, "
                         f"v {v.data.shape}, key_pad {key_pad.shape}")
    if dm % heads:
        raise ShapeError(f"attention needs d_model divisible by heads, got {dm} and {heads}")
    if causal and lq > lk:
        raise ShapeError(f"causal attention needs no more queries than keys, got {lq} and {lk}")
    d = dm // heads
    qd, kd, vd = (x.data.reshape(b, x.data.shape[1], heads, d).transpose(0, 2, 1, 3)
                  for x in (q, k, v))
    scale = 1.0 / np.sqrt(d)
    s = np.matmul(qd, np.swapaxes(kd, -1, -2))
    s *= scale
    if causal:
        later = np.triu(np.ones((lq, lk), dtype=bool), k=1 + lk - lq)
        np.add(s, _MASK_OFFSET, out=s, where=later)
    np.add(s, _MASK_OFFSET, out=s, where=key_pad[:, None, None, :])
    _softmax_(s, -1)
    out = Tensor(np.matmul(s, vd).transpose(0, 2, 1, 3).reshape(b, lq, dm))

    def backward_fn(g):
        g = np.ascontiguousarray(g.reshape(b, lq, heads, d).transpose(0, 2, 1, 3))
        gs = np.matmul(g, np.swapaxes(vd, -1, -2))
        gv = np.matmul(np.swapaxes(s, -1, -2), g)
        gs -= (gs * s).sum(axis=-1, keepdims=True)
        gs *= s
        gs *= scale
        gq = np.matmul(gs, kd)
        gk = np.swapaxes(np.matmul(np.swapaxes(qd, -1, -2), gs), -1, -2)
        return tuple(x.transpose(0, 2, 1, 3).reshape(b, x.shape[2], dm) for x in (gq, gk, gv))

    _record((q, k, v), out, backward_fn)
    return out


def _normalize_scale(c, gain, eps):
    """`c·(mean(c²) + eps)^-0.5·gain` over the last axis of a centered `c`.

    One tape entry for the chain `mul`, `tmean`, `add`, a -0.5 power, `mul`
    and `mul` that `layer_norm` would otherwise record, with the same
    arithmetic in the same order, forward and backward, so it rounds as that
    chain does. It keeps `c`, the row factors `inv` and `var + eps`, and
    `gain`; the normalized `c·inv` is made again in backward, not kept.
    """
    cd, gd = c.data, gain.data
    rn = 1.0 / cd.shape[-1]
    ve = (cd * cd).sum(axis=-1, keepdims=True) * rn + eps
    inv = ve**-0.5
    y = cd * inv
    y *= gd
    out = Tensor(y)
    want_c, want_gain = c.requires_grad, gain.requires_grad

    def backward_fn(g):
        gc = ggain = None
        if want_c:
            g_cn = g * gd
            gc = g_cn * inv
            g_inv = (g_cn * cd).sum(axis=-1, keepdims=True)
            g_sq = g_inv * -0.5 * ve**-1.5 * rn  # through the power, then the mean
            g_sq = g_sq * cd  # c·c hands this to each of its two sides
            gc += g_sq
            gc += g_sq
        if want_gain:
            ggain = _unbroadcast(g * (cd * inv), gd.shape)
        return (gc, ggain)

    _record((c, gain), out, backward_fn)
    return out


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to mean 0 / variance 1, then scale and shift.

    Five tape entries: the centering `sub(x, tmean(x))` (three), the fused
    `_normalize_scale` and the `add` of `bias`.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({d},), got {gain.data.shape} and {bias.data.shape}")
    centered = sub(x, tmean(x, axis=-1, keepdims=True))
    return add(_normalize_scale(centered, gain, eps), bias)


def embedding(table, ids):
    """Row lookup: table[ids]. `ids` is a plain integer array."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"embedding id out of range for table with {table.data.shape[0]} rows")
    rows = table.data
    out = Tensor(rows[ids])

    def backward_fn(g):
        gt = np.zeros_like(rows)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, rows.shape[1]))
        return (gt,)

    _record((table,), out, backward_fn)
    return out


def take_positions(x, batch_idx, pos_idx):
    """Gather rows x[b, t, :] at paired (batch, position) indices."""
    x = _as_tensor(x)
    xd = x.data
    batch_idx = np.asarray(batch_idx, dtype=np.intp)
    pos_idx = np.asarray(pos_idx, dtype=np.intp)
    out = Tensor(xd[batch_idx, pos_idx])

    def backward_fn(g):
        gx = np.zeros_like(xd)
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
        shape = logits.data.shape
        _record((logits,), out, lambda g: (np.zeros(shape),))
        return out

    m = logits.data.max(axis=1, keepdims=True)
    log_probs = logits.data - m
    log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
    safe_targets = np.where(valid, targets, 0)
    nll = -log_probs[np.arange(n), safe_targets]
    loss = nll[valid].sum() / count
    out = Tensor(np.float64(loss))
    out.token_count = count

    def backward_fn(g):
        grad = np.exp(log_probs)
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
        out = entry.output
        if out.grad is None:
            continue
        gs = entry.backward_fn(out.grad)
        out.grad = None  # intermediates are single-use
        kept = []
        for node, g in zip(entry.inputs, gs):
            if g is not None and node.requires_grad:
                _accumulate(node, g, kept)
    if params is not None:
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
