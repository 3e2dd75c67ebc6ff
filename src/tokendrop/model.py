"""Transformer encoder-decoder with drop-aware embedding and auxiliary heads.

The encoder doubles as the generator whose hidden states feed two extra
heads: a per-position linear discriminator that scores whether a token was
dropped, and a dropped-token prediction head whose output projection is the
transposed source embedding matrix (weight tying: one storage object).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .vocab import PAD_ID


@dataclass
class ModelConfig:
    d_model: int = 64
    d_ffn: int = 128
    n_layers: int = 2
    n_heads: int = 4
    src_vocab_size: int = 0
    tgt_vocab_size: int = 0
    p_dropout: float = 0.1
    max_len: int = 256
    tie_output: bool = False

    def __post_init__(self):
        for name in ("d_model", "d_ffn", "n_layers", "n_heads", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.p_dropout < 1.0:
            raise ValueError(f"p_dropout must lie in [0, 1), got {self.p_dropout}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")


@functools.lru_cache(maxsize=16)
def sinusoidal_encoding(max_len, d_model):
    """The [max_len, d_model] position table; cached, so it is read-only."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    dim = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (dim // 2) / d_model)
    enc = np.zeros((max_len, d_model))
    enc[:, 0::2] = np.sin(angle[:, 0::2])
    enc[:, 1::2] = np.cos(angle[:, 1::2])
    enc.flags.writeable = False
    return enc


def init_parameters(cfg, rng):
    """Build the parameter dict in a stable, serializable order.

    Each name maps to its own tensor; no two share memory. The tied heads
    read `src_emb` (DTP) and, with `tie_output`, `tgt_emb` (translation)
    by name, so neither has a parameter of its own.
    """
    params = {}

    def xavier(name, fan_in, fan_out):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        params[name] = ad.Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                                 requires_grad=True)

    def vector(name, n, value=0.0):
        params[name] = ad.Tensor(np.full(n, value, dtype=np.float64), requires_grad=True)

    scale = cfg.d_model**-0.5
    params["src_emb"] = ad.Tensor(rng.normal(0.0, scale, size=(cfg.src_vocab_size, cfg.d_model)),
                                  requires_grad=True)
    params["tgt_emb"] = ad.Tensor(rng.normal(0.0, scale, size=(cfg.tgt_vocab_size, cfg.d_model)),
                                  requires_grad=True)

    def attention_block(prefix):
        for w in ("wq", "wk", "wv", "wo"):
            xavier(f"{prefix}.{w}", cfg.d_model, cfg.d_model)

    def ffn_block(prefix):
        xavier(f"{prefix}.w1", cfg.d_model, cfg.d_ffn)
        vector(f"{prefix}.b1", cfg.d_ffn)
        xavier(f"{prefix}.w2", cfg.d_ffn, cfg.d_model)
        vector(f"{prefix}.b2", cfg.d_model)

    def ln_block(prefix):
        vector(f"{prefix}.gain", cfg.d_model, 1.0)
        vector(f"{prefix}.bias", cfg.d_model, 0.0)

    for i in range(cfg.n_layers):
        attention_block(f"enc{i}.attn")
        ln_block(f"enc{i}.ln1")
        ffn_block(f"enc{i}.ffn")
        ln_block(f"enc{i}.ln2")
    for i in range(cfg.n_layers):
        attention_block(f"dec{i}.self")
        ln_block(f"dec{i}.ln1")
        attention_block(f"dec{i}.cross")
        ln_block(f"dec{i}.ln2")
        ffn_block(f"dec{i}.ffn")
        ln_block(f"dec{i}.ln3")

    if not cfg.tie_output:
        xavier("out_proj", cfg.d_model, cfg.tgt_vocab_size)
    vector("out_bias", cfg.tgt_vocab_size)
    xavier("rtd.w", cfg.d_model, 1)
    vector("rtd.b", 1)
    return params


def parameter_count(params):
    return sum(t.data.size for t in params.values())


@dataclass
class EncodedBatch:
    hidden: ad.Tensor  # [batch, src_len, d_model]
    pad_mask: np.ndarray  # True at pad positions


def _dropout(x, p, train, rng):
    if not train or p <= 0.0:
        return x
    return ad.dropout(x, rng.random(x.data.shape) >= p, p)


def embed(table, batch, cfg, *, start=0, train=False, rng=None):
    """Embedding lookup of a CorruptedBatch's ids scaled by sqrt(d_model),
    plus sinusoidal positions counted from `start`.

    Rows where `batch.zeroed` is set are zeroed before the positional
    encoding is added, so position information survives.
    """
    ids = batch.corrupted_ids
    end = start + ids.shape[1]
    if end > cfg.max_len:
        raise ValueError(f"sequence length {end} exceeds max_len {cfg.max_len}")
    x = ad.mul(ad.embedding(table, ids), math.sqrt(cfg.d_model))
    if batch.zeroed is not None:
        x = ad.mul(x, 1.0 - np.asarray(batch.zeroed, dtype=np.float64)[:, :, None])
    x = ad.add(x, sinusoidal_encoding(cfg.max_len, cfg.d_model)[start:end])
    return _dropout(x, cfg.p_dropout, train, rng)


def _attention(params, prefix, q_in, kv_in, key_pad, causal, cfg, cache=None):
    q = ad.matmul(q_in, params[f"{prefix}.wq"])
    if cache is not None and not causal and prefix in cache.kv:
        k, v = cache.kv[prefix]
    else:
        k = ad.matmul(kv_in, params[f"{prefix}.wk"])
        v = ad.matmul(kv_in, params[f"{prefix}.wv"])
        if cache is not None:
            if prefix in cache.kv:  # causal: the new positions' keys follow the cached ones
                k, v = (ad.Tensor(np.concatenate([old.data, new.data], axis=1))
                        for old, new in zip(cache.kv[prefix], (k, v)))
            cache.kv[prefix] = (k, v)
    ctx = ad.attention(q, k, v, key_pad, causal, cfg.n_heads)
    return ad.matmul(ctx, params[f"{prefix}.wo"])


def _sublayer(params, prefix, x, fx, cfg, train, rng):
    # Post-norm residual: LN(x + dropout(sublayer(x)))
    y = ad.add(x, _dropout(fx, cfg.p_dropout, train, rng))
    return ad.layer_norm(y, params[f"{prefix}.gain"], params[f"{prefix}.bias"])


def _ffn(params, prefix, x):
    h = ad.relu(ad.add(ad.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    return ad.add(ad.matmul(h, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def encode(source, params, cfg, *, train=False, rng=None):
    """Run the encoder over a corrupted source batch."""
    pad_mask = source.original_ids == PAD_ID
    x = embed(params["src_emb"], source, cfg, train=train, rng=rng)
    for i in range(cfg.n_layers):
        attn = _attention(params, f"enc{i}.attn", x, x, pad_mask, False, cfg)
        x = _sublayer(params, f"enc{i}.ln1", x, attn, cfg, train, rng)
        x = _sublayer(params, f"enc{i}.ln2", x, _ffn(params, f"enc{i}.ffn", x), cfg, train, rng)
    return EncodedBatch(hidden=x, pad_mask=pad_mask)


@dataclass
class DecodeCache:
    """What `decode` keeps between calls that extend the same target prefix.

    `start` positions have been run so far and `pad_mask` [batch, start]
    marks the pads among them. `kv` maps an attention block's prefix to
    its key and value projections [batch, len, d_model], which
    `ad.attention` splits into heads: a causal block's grow along the
    length axis by the new positions at each call, a cross block's are
    projected from the encoder once and reused. Grown keys and values carry
    no gradient, so a cache is for inference only.
    """

    start: int = 0
    pad_mask: np.ndarray = None
    kv: dict = field(default_factory=dict)


def decode(target_input, enc, params, cfg, *, cache=None, train=False, rng=None):
    """Run the decoder; returns translation logits [batch, tgt_len, V_target].

    Without a cache, `target_input` is the whole prefix. With a
    `DecodeCache`, it holds only the positions that follow the cached
    ones, the logits cover those positions, and the cache takes them in.
    """
    tgt_pad = target_input.original_ids == PAD_ID
    start = 0 if cache is None else cache.start
    x = embed(params["tgt_emb"], target_input, cfg, start=start, train=train, rng=rng)
    if cache is not None:
        if start:
            tgt_pad = np.concatenate([cache.pad_mask, tgt_pad], axis=1)
        cache.start, cache.pad_mask = start + target_input.original_ids.shape[1], tgt_pad
    for i in range(cfg.n_layers):
        attn = _attention(params, f"dec{i}.self", x, x, tgt_pad, True, cfg, cache)
        x = _sublayer(params, f"dec{i}.ln1", x, attn, cfg, train, rng)
        cross = _attention(params, f"dec{i}.cross", x, enc.hidden, enc.pad_mask, False, cfg,
                           cache)
        x = _sublayer(params, f"dec{i}.ln2", x, cross, cfg, train, rng)
        x = _sublayer(params, f"dec{i}.ln3", x, _ffn(params, f"dec{i}.ffn", x), cfg, train, rng)
    if cfg.tie_output:
        proj = ad.transpose(params["tgt_emb"], (1, 0))
    else:
        proj = params["out_proj"]
    return ad.add(ad.matmul(x, proj), params["out_bias"])


def rtd_head(enc, params):
    """Per-position drop probability through a single linear map + logistic."""
    b, length = enc.hidden.data.shape[:2]
    logits = ad.add(ad.matmul(enc.hidden, params["rtd.w"]), params["rtd.b"])
    # clamp away exact 0/1 so downstream logs stay finite even when the
    # logistic saturates in double precision
    probs = ad.clip(ad.sigmoid(logits), 1e-12, 1.0 - 1e-12)
    return ad.reshape(probs, (b, length))


def dtp_head(enc, dropped_batch_idx, dropped_pos_idx, params):
    """Logits over the source vocabulary [n_dropped, V_source] at the dropped
    positions: hidden states times the transposed source embedding, so the
    DTP head adds no parameter and its gradient reaches `src_emb`."""
    h = ad.take_positions(enc.hidden, dropped_batch_idx, dropped_pos_idx)
    return ad.matmul(h, ad.transpose(params["src_emb"], (1, 0)))
