"""Synthetic parallel corpora, file ingestion, and deterministic batching.

A corpus is held as integer token codes (`CodedCorpus`, `Sentences`) and
encoded to vocabulary ids through one lookup table per side. Token strings
are made only where a corpus is written to disk (`CodedCorpus.token_pairs`).

Draw order of the synthetic corpus: `generate_synthetic_corpus` makes one
length draw and then one token draw per sentence, from one generator seeded
with `SyntheticTaskSpec.seed`, for all of train, then valid, then test. The
corpus is defined by that order. Changing it, or the number or kind of draws,
changes every later sentence, and with them every pinned bundle digest in
tests/test_pipeline.py and the trained fixture of the `robustness` benchmark
workload.
"""

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
        for name, least in (("n_train", 1), ("n_valid", 0), ("n_test", 0),
                            ("source_vocab_size", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.target_vocab_size < self.source_vocab_size:
            raise ValueError("target vocabulary must be at least as large as the source "
                             "for the token mapping to be injective")
        if self.reorder_window < 1:
            raise ValueError("reorder window must be >= 1")
        if not 1 <= self.len_min <= self.len_max:
            raise ValueError("invalid sentence length range")


def _names(prefix, count):
    return [f"{prefix}{i}" for i in range(count)]


def token_mapping(spec):
    """The injective source-code -> target-code map, as an array indexed by
    source code."""
    if spec.identity_mapping:
        return np.arange(spec.source_vocab_size)
    perm = np.random.default_rng(spec.mapping_seed).permutation(spec.target_vocab_size)
    return perm[: spec.source_vocab_size]


@dataclass
class Sentences:
    """Sentences as one flat array of integer token codes: sentence i is
    `codes[bounds[i]:bounds[i + 1]]`."""

    codes: np.ndarray
    bounds: np.ndarray

    @classmethod
    def join(cls, parts):
        """Sentences from a list of per-sentence code sequences (may be empty)."""
        lengths = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
        codes = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        return cls(codes.astype(np.int64, copy=False), np.concatenate(([0], np.cumsum(lengths))))

    def lists(self, table):
        """Each sentence as a Python list holding `table[code]` for its codes."""
        flat = table[self.codes].tolist()
        bounds = self.bounds.tolist()
        return [flat[s:e] for s, e in zip(bounds, bounds[1:])]


@dataclass
class CodedCorpus:
    """A parallel corpus as token codes.

    `splits[name]` is a (source, target) pair of `Sentences`; `source_names[c]`
    and `target_names[c]` are the token strings of code c on each side.
    """

    splits: dict
    source_names: list
    target_names: list

    def _pairs(self, split, src_table, tgt_table):
        src, tgt = self.splits[split]
        return list(zip(src.lists(src_table), tgt.lists(tgt_table)))

    def token_pairs(self, split):
        """(source tokens, target tokens) of every sentence pair of `split`."""
        return self._pairs(split, np.array(self.source_names, dtype=object),
                           np.array(self.target_names, dtype=object))

    def encode(self, src_vocab, tgt_vocab):
        """{split: [(source ids, target ids), ...]}. Each code's token is looked
        up once; tokens outside a vocabulary become UNK_ID."""
        src_table = np.array(src_vocab.encode(self.source_names), dtype=np.int64)
        tgt_table = np.array(tgt_vocab.encode(self.target_names), dtype=np.int64)
        return {name: self._pairs(name, src_table, tgt_table) for name in self.splits}


def _reorder_index(src, window):
    """Gather index that reorders every sentence of `src` inside windows of
    `window` tokens counted from the sentence start (the last may be shorter).

    A window rotates left by one when its code sum is divisible by `window`;
    the rest pass through. The sum is invariant under rotation, so the reorder
    can be undone from the target alone, and rotating only some windows keeps
    the task learnable at desk scale while still requiring attention.
    """
    n = len(src.codes)
    lengths = np.diff(src.bounds)
    pos = np.arange(n) - np.repeat(src.bounds[:-1], lengths)  # position in its sentence
    starts = np.flatnonzero(pos % window == 0)
    sizes = np.diff(starts, append=n)
    shift = np.add.reduceat(src.codes, starts) % window == 0
    offset = (pos % window + np.repeat(shift, sizes)) % np.repeat(sizes, sizes)
    return np.repeat(starts, sizes) + offset


def generate_synthetic_corpus(spec):
    """Generate the train, valid and test splits of the task as a CodedCorpus.

    Source sentences are uniform over the source codes with lengths drawn
    from the configured range. Each sentence takes one length draw and then
    one token draw from a generator seeded with `spec.seed`, train first,
    then valid, then test; the same spec always regenerates the identical
    corpus. Changing that order or the number of draws changes every later
    sentence (see the module docstring).
    """
    rng = np.random.default_rng(spec.seed)
    mapping = token_mapping(spec)
    splits = {}
    for name, count in (("train", spec.n_train), ("valid", spec.n_valid), ("test", spec.n_test)):
        parts = []
        for _ in range(count):
            length = rng.integers(spec.len_min, spec.len_max + 1)
            parts.append(rng.integers(0, spec.source_vocab_size, size=length))
        src = Sentences.join(parts)
        tgt = Sentences(mapping[src.codes[_reorder_index(src, spec.reorder_window)]], src.bounds)
        splits[name] = (src, tgt)
    source_names = _names("a", spec.source_vocab_size)
    target_names = source_names if spec.identity_mapping else _names("b", spec.target_vocab_size)
    return CodedCorpus(splits, source_names, target_names)


def intern_corpus(splits):
    """Code token-list pairs, given as {split: [(source tokens, target tokens)]}.

    Each side numbers its distinct tokens in order of first appearance.
    """
    tables = ({}, {})  # token -> code, per side
    coded = {}
    for name, pairs in splits.items():
        coded[name] = tuple(
            Sentences.join([[table.setdefault(tok, len(table)) for tok in pair[side]]
                            for pair in pairs])
            for side, table in enumerate(tables))
    return CodedCorpus(coded, list(tables[0]), list(tables[1]))


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


def _read_lines(path):
    # Lines end at "\n" alone, as write_parallel writes them: str.splitlines
    # would also split inside a line at U+2028, form feed or other separators
    # and misalign the two sides. A "\r" before the "\n" is whitespace to
    # tokenize, and a missing final newline is accepted.
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def load_parallel(src_path, tgt_path):
    """Read paired files; line i of each file forms one pair."""
    src_lines = _read_lines(src_path)
    tgt_lines = _read_lines(tgt_path)
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
