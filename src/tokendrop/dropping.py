"""Token-drop corruption: Bernoulli masks plus three replacement strategies.

This is the only module that knows the strategies: a CorruptedBatch carries
the ids the model embeds and the positions whose embeddings it zeroes.
Corruption touches source sequences and decoder inputs only; teacher-forcing
labels are never rewritten. Structural tokens (PAD, BOS, EOS) are never
droppable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vocab import BOS_ID, DROPPED_ID, EOS_ID, PAD_ID, UNK_ID

ZERO_OUT = "zero_out"
DROP_TAG = "drop_tag"
UNK_TAG = "unk_tag"
STRATEGIES = (ZERO_OUT, DROP_TAG, UNK_TAG)

_NON_DROPPABLE = (PAD_ID, BOS_ID, EOS_ID)


@dataclass
class DropConfig:
    p_source: float = 0.15
    p_target: float = 0.3
    strategy: str = UNK_TAG
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_source <= 1.0 or not 0.0 <= self.p_target <= 1.0:
            raise ValueError("drop probabilities must lie in [0, 1]")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")


@dataclass
class CorruptedBatch:
    """One corrupted id matrix plus the mask and originals needed by the
    auxiliary objectives.

    `zeroed` marks the positions whose embeddings the model zeroes: the mask
    under the zero-out strategy, None when no embedding is zeroed.
    """

    corrupted_ids: np.ndarray
    mask: np.ndarray
    original_ids: np.ndarray
    droppable: np.ndarray
    zeroed: np.ndarray | None = None


def droppable_positions(ids):
    """Content positions: everything except PAD/BOS/EOS."""
    out = np.ones_like(ids, dtype=bool)
    for special in _NON_DROPPABLE:
        out &= ids != special
    return out


def sample_mask(droppable, p, rng):
    """Independent Bernoulli(p) on droppable positions, 0 elsewhere.

    Always consumes one uniform draw per matrix entry, so the rng stream
    advances identically for any p.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"drop probability must lie in [0, 1], got {p}")
    return (rng.random(droppable.shape) < p) & droppable


def _apply_strategy(ids, mask, strategy):
    if strategy == ZERO_OUT:
        return ids.copy()  # the model zeroes these embeddings (CorruptedBatch.zeroed)
    replacement = UNK_ID if strategy == UNK_TAG else DROPPED_ID
    return np.where(mask, replacement, ids)


def corrupt_ids(ids, p, strategy, rng):
    droppable = droppable_positions(ids)
    mask = sample_mask(droppable, p, rng)
    return CorruptedBatch(_apply_strategy(ids, mask, strategy), mask, ids.copy(), droppable,
                          zeroed=mask if strategy == ZERO_OUT else None)


def no_drop(ids):
    """An uncorrupted CorruptedBatch: identity ids, all-zero mask."""
    mask = np.zeros_like(ids, dtype=bool)
    return CorruptedBatch(ids.copy(), mask, ids.copy(), droppable_positions(ids))


def corrupt(batch, cfg, rng):
    """Corrupt a ParallelBatch on both sides; fresh masks on every call.

    Returns (source CorruptedBatch, target-input CorruptedBatch). The batch's
    target_output labels are left untouched.
    """
    src = corrupt_ids(batch.source, cfg.p_source, cfg.strategy, rng)
    tgt = corrupt_ids(batch.target_input, cfg.p_target, cfg.strategy, rng)
    return src, tgt


def drop_records(c):
    """Split a CorruptedBatch into dropped and kept position sets.

    Returns (dropped_batch_idx, dropped_pos_idx, original ids at those
    positions, kept position mask).
    """
    bi, pi = np.nonzero(c.mask)
    kept = c.droppable & ~c.mask
    return bi, pi, c.original_ids[bi, pi], kept
