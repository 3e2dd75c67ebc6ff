"""Seeded training loop: corrupt, forward, joint loss, backward, Adam update.

Reproducibility contract: the seed fully determines the run. Three independent
rng streams are derived from it (parameter init, corruption, dropout), and the
per-epoch batch order depends only on (seed, epoch), so a run restored from a
mid-training checkpoint continues on the bitwise-identical trajectory.
"""

from __future__ import annotations

import json
import math
import os
import time
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .data import make_batches
from .dropping import DropConfig, corrupt, drop_records, no_drop
from .model import ModelConfig, decode, dtp_head, encode, init_parameters, rtd_head
from .objectives import ObjectiveConfig, dtp_loss, joint_loss, rtd_loss, translation_loss
from .vocab import PAD_ID

CHECKPOINT_FORMAT_VERSION = 4  # raised whenever the layout or a header config's fields change


@dataclass
class TrainConfig:
    max_steps: int = 2000
    batch_size: int = 32
    lr_factor: float = 1.0
    warmup_steps: int = 400
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-9
    clip_norm: float = 1.0
    validate_every: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.lr_factor < 0:
            raise ValueError("lr_factor must be >= 0")
        if self.warmup_steps < 1 or self.batch_size < 1 or self.max_steps < 1:
            raise ValueError("steps, warmup and batch size must be positive")
        if self.validate_every < 1:
            raise ValueError(f"validate_every must be >= 1, got {self.validate_every}")
        if not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.adam_eps > 0:
            raise ValueError(f"adam_eps must be > 0, got {self.adam_eps}")


def _spawn_rngs(seed, drop_seed):
    # Independent streams: the drop rates and the drop seed must not perturb init/dropout.
    return (np.random.default_rng([seed, 1]),
            np.random.default_rng([seed, 2, drop_seed]),
            np.random.default_rng([seed, 3]))


class TrainState:
    """Everything one training run mutates: parameters, Adam moments, step
    counter, and the live rng streams."""

    def __init__(self, model_cfg, drop_cfg, obj_cfg, train_cfg):
        self.model_cfg = model_cfg
        self.drop_cfg = drop_cfg
        self.obj_cfg = obj_cfg
        self.train_cfg = train_cfg
        init_rng, self.corrupt_rng, self.dropout_rng = _spawn_rngs(train_cfg.seed, drop_cfg.seed)
        self.params = init_parameters(model_cfg, init_rng)
        self.adam_m = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.adam_v = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.step = 0

    def learning_rate(self, step):
        return (self.train_cfg.lr_factor * self.model_cfg.d_model**-0.5
                * min(step**-0.5, step * self.train_cfg.warmup_steps**-1.5))


class NonFiniteGradientError(RuntimeError):
    """The global gradient norm is not finite; the step was not applied. The
    message names the refused step, counted from 1 as records count steps."""


def clip_gradients(grads, max_norm):
    """Scale all gradients so the global L2 norm is at most max_norm; return the
    norm before scaling. A non-finite norm leaves the gradients as they are."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if max_norm < total < math.inf:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


def _zero_loss():
    return ad.Tensor(np.float64(0.0))


def train_step(batch, state):
    """One corrupted forward pass, backward pass, and Adam update."""
    cfg, drop, obj, tc = state.model_cfg, state.drop_cfg, state.obj_cfg, state.train_cfg
    src, tgt_in = corrupt(batch, drop, state.corrupt_rng)

    with ad.GradTape():
        enc = encode(src, state.params, cfg, train=True, rng=state.dropout_rng)
        # the logits go with the call: the loss's tape entry keeps what it needs
        l_m = translation_loss(decode(tgt_in, enc, state.params, cfg, train=True,
                                      rng=state.dropout_rng),
                               batch.target_output, PAD_ID)
        if obj.alpha > 0:
            l_rtd = rtd_loss(rtd_head(enc, state.params), src.mask, src.droppable)
        else:
            l_rtd = _zero_loss()
        if obj.beta > 0:
            bi, pi, orig, _ = drop_records(src)
            l_dtp = dtp_loss(dtp_head(enc, bi, pi, state.params), orig)
        else:
            l_dtp = _zero_loss()
        joint, report = joint_loss(l_m, l_rtd, l_dtp, obj)
        report.target_tokens = l_m.token_count
        report.droppable_tokens = int(src.droppable.sum())
        report.dropped_tokens = int(src.mask.sum())
        ad.backward(joint, params=list(state.params.values()))

    report.grad_norm = clip_gradients([t.grad for t in state.params.values()], tc.clip_norm)
    if not math.isfinite(report.grad_norm):
        for t in state.params.values():  # a later step must not accumulate onto these
            t.zero_grad()
        raise NonFiniteGradientError(
            f"step {state.step + 1}: global gradient norm is non-finite: {report.grad_norm}")
    state.step += 1
    lr = state.learning_rate(state.step)
    b1, b2, eps = tc.beta1, tc.beta2, tc.adam_eps
    corr1 = 1.0 - b1**state.step
    corr2 = 1.0 - b2**state.step
    for name, t in state.params.items():
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= b1
        m += (1.0 - b1) * t.grad
        v *= b2
        v += (1.0 - b2) * t.grad**2
        t.data -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
        t.zero_grad()
    return report


def validate(valid_batches, state):
    """Perplexity on clean inputs in eval mode (no dropout, no token drop)."""
    total_nll = 0.0
    total_tokens = 0
    for batch in valid_batches:
        src, tgt_in = no_drop(batch.source), no_drop(batch.target_input)
        enc = encode(src, state.params, state.model_cfg)
        logits = decode(tgt_in, enc, state.params, state.model_cfg)
        loss = translation_loss(logits, batch.target_output, PAD_ID)
        total_nll += float(loss.data) * loss.token_count
        total_tokens += loss.token_count
    return math.exp(total_nll / max(total_tokens, 1))


@dataclass
class RunLog:
    records: list = field(default_factory=list)

    def append(self, record):
        if self.records and record["step"] <= self.records[-1]["step"]:
            raise ValueError("RunLog steps must be strictly increasing")
        self.records.append(record)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")

    @classmethod
    def read_jsonl(cls, path):
        log = cls()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                log.records.append(json.loads(line))
        return log


def _epoch_batches(pairs, epoch, train_cfg):
    rng = np.random.default_rng([train_cfg.seed, 7919, epoch])
    return make_batches(pairs, train_cfg.batch_size, rng)


def run_training(state, train_pairs, valid_pairs=None, log=None, on_record=None):
    """Train until max_steps, validating on the configured interval.

    `train_pairs`/`valid_pairs` are encoded splits (`data.SentencePairs`),
    or lists of (source ids, target ids); `make_batches` batches either.
    Appends MetricsRecords to `log` (a RunLog) and returns it. Resuming from
    a restored state continues exactly where the step counter points.

    A record's `l_m`, `l_rtd`, `l_dtp` and `joint` are means over the steps
    since the previous record, computed in training mode; they are not the
    loss at the record's step. So is `grad_norm`, the global gradient norm
    before clipping. `lr` is the rate the record's step used. `valid_ppl` is
    measured at the record's step on clean input (see `validate`), or is None
    without `valid_pairs`.
    """
    if not train_pairs:
        raise ValueError("cannot train: the training split is empty")
    tc = state.train_cfg
    log = log if log is not None else RunLog()
    valid_batches = None
    if valid_pairs:
        valid_batches = make_batches(valid_pairs, tc.batch_size, np.random.default_rng(0))
    batches_per_epoch = math.ceil(len(train_pairs) / tc.batch_size)
    start = time.monotonic()
    interval = []
    while state.step < tc.max_steps:
        epoch = state.step // batches_per_epoch
        batches = _epoch_batches(train_pairs, epoch, tc)
        for batch in batches[state.step - epoch * batches_per_epoch :]:
            report = train_step(batch, state)
            interval.append(report)
            if state.step % tc.validate_every == 0 or state.step == tc.max_steps:
                record = {
                    "step": state.step,
                    "l_m": float(np.mean([r.l_m for r in interval])),
                    "l_rtd": float(np.mean([r.l_rtd for r in interval])),
                    "l_dtp": float(np.mean([r.l_dtp for r in interval])),
                    "joint": float(np.mean([r.joint for r in interval])),
                    "grad_norm": float(np.mean([r.grad_norm for r in interval])),
                    "lr": state.learning_rate(state.step),
                    "valid_ppl": validate(valid_batches, state) if valid_batches else None,
                    "elapsed_s": time.monotonic() - start,
                }
                log.append(record)
                if on_record is not None:
                    on_record(record)
                interval = []
            if state.step >= tc.max_steps:
                break
    return log


# TrainState's config attributes, in constructor order: checkpoint header keys
_STATE_CONFIGS = (("model_cfg", ModelConfig), ("drop_cfg", DropConfig),
                  ("obj_cfg", ObjectiveConfig), ("train_cfg", TrainConfig))


def checkpoint(state, path):
    """Serialize the full training state as an `.npz` archive of four members.

    `header` is the JSON header as uint8 bytes: format version, configs,
    step, rng states, and `param_order`, each parameter's name and shape.
    `params`, `adam_m` and `adam_v` are float64 vectors, each the arrays of
    its kind raveled and concatenated in `param_order`.
    """
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        **{name: asdict(getattr(state, name)) for name, _ in _STATE_CONFIGS},
        "step": state.step,
        "param_order": [[name, list(t.data.shape)] for name, t in state.params.items()],
        "corrupt_rng": state.corrupt_rng.bit_generator.state,
        "dropout_rng": state.dropout_rng.bit_generator.state,
    }
    arrays = {
        "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        "params": np.concatenate([t.data for t in state.params.values()], axis=None),
        "adam_m": np.concatenate([state.adam_m[name] for name in state.params], axis=None),
        "adam_v": np.concatenate([state.adam_v[name] for name in state.params], axis=None),
    }
    # a failed write leaves the previous checkpoint in place
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class CheckpointError(RuntimeError):
    pass


def restore(path):
    """Rebuild a TrainState from a `checkpoint` archive.

    The header's format version, parameter names and shapes must match this
    program's model. Each vector must be stored as float64, with exactly the
    values `param_order` needs; nothing is cast. Each name's slice is copied
    into the array TrainState made for that name, a C-contiguous float64
    buffer of its own, so no two arrays share memory. A fault of any kind
    raises CheckpointError naming the file.
    """
    try:
        with np.load(path) as archive:
            header = json.loads(archive["header"].tobytes().decode("utf-8"))
            if not isinstance(header, dict):
                raise CheckpointError(f"checkpoint {path} has a header that is not a JSON object")
            version = header.get("format_version")
            if version != CHECKPOINT_FORMAT_VERSION:
                raise CheckpointError(f"checkpoint {path} has unsupported format version {version}; "
                                      f"this program reads {CHECKPOINT_FORMAT_VERSION}")
            vectors = {kind: archive[kind] for kind in ("params", "adam_m", "adam_v")}
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc

    try:
        state = TrainState(*(cls(**header[name]) for name, cls in _STATE_CONFIGS))
        order = [(name, tuple(shape)) for name, shape in header["param_order"]]
        missing = state.params.keys() - {name for name, _ in order}
        if missing:
            raise CheckpointError(f"checkpoint {path} lacks parameters {sorted(missing)}")
        for name, shape in order:
            if name not in state.params:
                raise CheckpointError(
                    f"checkpoint {path} parameter {name} unknown to this configuration")
            if state.params[name].data.shape != shape:
                raise CheckpointError(f"checkpoint {path} shape mismatch for {name}: "
                                      f"header {shape}, model {state.params[name].data.shape}")
        if len(order) != len(state.params):
            raise CheckpointError(f"checkpoint {path} lists a parameter twice")
        step = header["step"]
        if type(step) is not int or step < 0:
            raise CheckpointError(f"checkpoint {path} has step {step!r}, not a count")
        state.step = step
        state.corrupt_rng.bit_generator.state = header["corrupt_rng"]
        state.dropout_rng.bit_generator.state = header["dropout_rng"]
    except (KeyError, TypeError) as exc:
        # a missing header key, or a config key this version does not know
        raise CheckpointError(f"incomplete checkpoint {path}: {exc!r}") from exc
    except ValueError as exc:
        # a config value its __post_init__ refuses, a malformed entry, a foreign rng state
        raise CheckpointError(f"checkpoint {path} has a bad header value: {exc}") from exc

    names = [name for name, _ in order]
    size = sum(state.params[name].data.size for name in names)
    targets = {"params": {name: t.data for name, t in state.params.items()},
               "adam_m": state.adam_m, "adam_v": state.adam_v}
    for kind, vector in vectors.items():
        if vector.dtype != np.float64:
            raise CheckpointError(f"checkpoint {path} stores {kind} as {vector.dtype}, not float64")
        if vector.shape != (size,):
            raise CheckpointError(f"checkpoint {path} stores {kind} with shape {vector.shape}; "
                                  f"the header needs ({size},)")
        start = 0
        for name in names:
            a = targets[kind][name]
            a[...] = vector[start:start + a.size].reshape(a.shape)
            start += a.size
    return state
