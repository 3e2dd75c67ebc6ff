"""Synthetic parallel corpora, file ingestion, and deterministic batching."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .vocab import BOS_ID, EOS_ID, PAD_ID, tokenize


@dataclass
class SyntheticTaskSpec:
    """A seeded toy translation task: injective token relabeling plus a
    deterministic local reordering inside fixed-size windows."""

    source_vocab_size: int = 200
    target_vocab_size: int = 200
    mapping_seed: int = 1234
    reorder_window: int = 3
    n_train: int = 10000
    n_valid: int = 500
    n_test: int = 500
    len_min: int = 4
    len_max: int = 12
    seed: int = 0
    identity_mapping: bool = False

    def __post_init__(self):
        if self.target_vocab_size < self.source_vocab_size:
            raise ValueError("target vocabulary must be at least as large as the source "
                             "for the token mapping to be injective")
        if self.reorder_window < 1:
            raise ValueError("reorder window must be >= 1")
        if not 1 <= self.len_min <= self.len_max:
            raise ValueError("invalid sentence length range")


def _source_tokens(spec):
    return [f"a{i}" for i in range(spec.source_vocab_size)]


def _target_tokens(spec):
    if spec.identity_mapping:
        return _source_tokens(spec)
    return [f"b{i}" for i in range(spec.target_vocab_size)]


def token_mapping(spec):
    """The injective source-token -> target-token map."""
    src = _source_tokens(spec)
    tgt = _target_tokens(spec)
    if spec.identity_mapping:
        return dict(zip(src, src))
    rng = np.random.default_rng(spec.mapping_seed)
    perm = rng.permutation(len(tgt))
    return {s: tgt[perm[i]] for i, s in enumerate(src)}


def _window_rotate(tokens, window, offsets, inverse=False):
    out = list(tokens)
    for start in range(0, len(tokens), window):
        chunk = out[start:start + window]
        w = len(chunk)
        k = offsets[start // window] % w
        if inverse:
            k = (w - k) % w
        out[start:start + window] = chunk[k:] + chunk[:k]
    return out


def _rotation_offsets(source_ids, window):
    # Keyed by the window's id sum, which is invariant under rotation, so the
    # reorder can be undone from the target alone. Only windows whose sum is
    # divisible by the window size rotate; the rest pass through, which keeps
    # the task learnable at desk scale while still requiring attention.
    return [1 if sum(source_ids[s:s + window]) % window == 0 else 0
            for s in range(0, len(source_ids), window)]


def map_source_to_target(src_tokens, spec, mapping=None):
    mapping = mapping if mapping is not None else token_mapping(spec)
    mapped = [mapping[t] for t in src_tokens]
    ids = [int(t[1:]) for t in src_tokens]
    return _window_rotate(mapped, spec.reorder_window, _rotation_offsets(ids, spec.reorder_window))


def invert_target_to_source(tgt_tokens, spec, mapping=None):
    """Undo the relabeling and reordering; exact inverse of map_source_to_target."""
    mapping = mapping if mapping is not None else token_mapping(spec)
    inverse_map = {v: k for k, v in mapping.items()}
    rotated_src = [inverse_map[t] for t in tgt_tokens]
    ids = [int(t[1:]) for t in rotated_src]
    offsets = _rotation_offsets(ids, spec.reorder_window)
    return _window_rotate(rotated_src, spec.reorder_window, offsets, inverse=True)


def generate_synthetic_corpus(spec):
    """Generate {train, valid, test} lists of (source, target) token pairs.

    Source sentences are uniform over the content tokens with lengths drawn
    from the configured range; the same spec and seed always regenerate the
    identical corpus.
    """
    rng = np.random.default_rng(spec.seed)
    src_tokens = _source_tokens(spec)
    mapping = token_mapping(spec)
    splits = {}
    for name, count in (("train", spec.n_train), ("valid", spec.n_valid), ("test", spec.n_test)):
        pairs = []
        for _ in range(count):
            n = int(rng.integers(spec.len_min, spec.len_max + 1))
            src = [src_tokens[int(i)] for i in rng.integers(0, spec.source_vocab_size, size=n)]
            pairs.append((src, map_source_to_target(src, spec, mapping)))
        splits[name] = pairs
    return splits


def write_parallel(pairs, directory, name):
    """Write `<name>.src` / `<name>.tgt`: one sentence per line, space-separated."""
    os.makedirs(directory, exist_ok=True)
    src_path = os.path.join(directory, name + ".src")
    tgt_path = os.path.join(directory, name + ".tgt")
    with open(src_path, "w", encoding="utf-8") as fs, open(tgt_path, "w", encoding="utf-8") as ft:
        for src, tgt in pairs:
            fs.write(" ".join(src) + "\n")
            ft.write(" ".join(tgt) + "\n")
    return src_path, tgt_path


def load_parallel(src_path, tgt_path):
    """Read paired files; line i of each file forms one pair."""
    with open(src_path, encoding="utf-8") as fh:
        src_lines = fh.read().splitlines()
    with open(tgt_path, encoding="utf-8") as fh:
        tgt_lines = fh.read().splitlines()
    if len(src_lines) != len(tgt_lines):
        raise ValueError(f"line count mismatch: {src_path} has {len(src_lines)} lines, "
                         f"{tgt_path} has {len(tgt_lines)}")
    pairs = []
    for i, (s, t) in enumerate(zip(src_lines, tgt_lines), start=1):
        src, tgt = tokenize(s), tokenize(t)
        if not src or not tgt:
            raise ValueError(f"empty line {i} in parallel corpus")
        pairs.append((src, tgt))
    return pairs


def encode_pairs(pairs, src_vocab, tgt_vocab):
    return [(src_vocab.encode(s), tgt_vocab.encode(t)) for s, t in pairs]


class ParallelBatch:
    """A padded batch with teacher-forcing target streams.

    `target_input` is BOS-prefixed, `target_output` EOS-suffixed; shifting one
    against the other aligns every non-pad position. Padding is always a row
    suffix.
    """

    def __init__(self, src_ids, tgt_ids):
        b = len(src_ids)
        src_len = max(len(s) for s in src_ids)
        tgt_len = max(len(t) for t in tgt_ids) + 1  # room for BOS/EOS
        self.source = np.full((b, src_len), PAD_ID, dtype=np.int64)
        self.target_input = np.full((b, tgt_len), PAD_ID, dtype=np.int64)
        self.target_output = np.full((b, tgt_len), PAD_ID, dtype=np.int64)
        for i, (s, t) in enumerate(zip(src_ids, tgt_ids)):
            self.source[i, : len(s)] = s
            self.target_input[i, 0] = BOS_ID
            self.target_input[i, 1 : len(t) + 1] = t
            self.target_output[i, : len(t)] = t
            self.target_output[i, len(t)] = EOS_ID

    @property
    def size(self):
        return self.source.shape[0]


def make_batches(pairs, batch_size, rng):
    """Shuffle pairs with the given rng (or seed) and cut into padded batches."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    order = rng.permutation(len(pairs))
    batches = []
    for start in range(0, len(pairs), batch_size):
        chunk = [pairs[i] for i in order[start : start + batch_size]]
        batches.append(ParallelBatch([s for s, _ in chunk], [t for _, t in chunk]))
    return batches
