"""Synthetic parallel corpora, file ingestion, and deterministic batching.

A corpus is held as integer token codes (`CodedCorpus`, `Sentences`) and
encoded to vocabulary ids through one lookup table per side. An encoded split
(`SentencePairs`) keeps the ids as flat arrays, and `make_batches` pads each
batch from them when it is read; no sentence becomes a Python list on the way
to a batch.
Token strings are made only where a corpus is written to disk
(`CodedCorpus.token_pairs`).

Draw order of the synthetic corpus: `generate_synthetic_corpus` makes one
length draw and then one token draw per sentence, from one generator seeded
with `SyntheticTaskSpec.seed`, for all of train, then valid, then test. The
corpus is defined by that order. Changing it, or the number or kind of draws,
changes every later sentence, and with them every pinned bundle digest in
tests/test_pipeline.py and the trained fixture of the `robustness` benchmark
workload.

The draws are those of `rng.integers(len_min, len_max + 1)` and then
`rng.integers(0, source_vocab_size, size=length)` on
`rng = np.random.default_rng(seed)`, but they are computed from the bit
generator's stream itself (`_draw_sentences`): the 32-bit words of PCG64's
raw 64-bit outputs, low half first, each range drawn by Lemire's
multiply-and-reject rule, and a range of size 1 drawing no word. Numpy keeps
bit-generator streams stable across versions, but not how `Generator`
methods use them (NEP 19), so the corpus rests only on the stream. Numpy
draws from a range of 2**32 or more by another rule, and `SyntheticTaskSpec`
rejects such ranges.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .vocab import BOS_ID, EOS_ID, PAD_ID, SPECIAL_TOKENS, tokenize

_WORD = 1 << 32  # numpy draws an integer from a range below 2**32 from 32-bit words


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
        # the corpus is drawn by numpy's rule for ranges below 2**32 (module docstring)
        for name, size in (("source_vocab_size", self.source_vocab_size),
                           ("len_max - len_min + 1", self.len_max - self.len_min + 1)):
            if size >= _WORD:
                raise ValueError(f"{name} must be below 2**32, got {size}")
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


@dataclass(eq=False)
class Sentences:
    """Sentences as one flat array of integer token codes: sentence i is
    `codes[bounds[i]:bounds[i + 1]]`. Indexing and iteration give sentences
    as lists of ints."""

    codes: np.ndarray
    bounds: np.ndarray

    @classmethod
    def join(cls, parts):
        """Sentences from a list of per-sentence code sequences (may be empty)."""
        lengths = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
        codes = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        return cls(codes.astype(np.int64, copy=False), np.concatenate(([0], np.cumsum(lengths))))

    def __len__(self):
        return len(self.bounds) - 1

    def lengths(self):
        return self.bounds[1:] - self.bounds[:-1]

    def __getitem__(self, i):
        i = range(len(self))[i]  # a negative index counts from the end; out of range raises
        return self.codes[self.bounds[i] : self.bounds[i + 1]].tolist()

    def __iter__(self):
        flat = self.codes.tolist()
        bounds = self.bounds.tolist()
        return (flat[s:e] for s, e in zip(bounds, bounds[1:]))

    def lists(self, table):
        """Each sentence as a Python list holding `table[code]` for its codes."""
        return list(Sentences(table[self.codes], self.bounds))

    def take(self, rows):
        """The sentences at the integer array `rows`, in that order."""
        starts = self.bounds[rows]
        lengths = self.bounds[rows + 1] - starts
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        index = np.arange(bounds[-1]) + np.repeat(starts - bounds[:-1], lengths)
        return Sentences(self.codes[index], bounds)

    def padded(self, offset=0, extra=0):
        """Every sentence as a row of PAD_ID, `offset` + longest + `extra`
        wide, with the sentence's codes from column `offset` on."""
        lengths = self.lengths()
        cols = np.arange(offset + lengths.max(initial=0) + extra) - offset
        out = np.full((len(lengths), len(cols)), PAD_ID, dtype=np.int64)
        # a boolean mask fills row by row, left to right: the order of `codes`
        out[(cols >= 0) & (cols < lengths[:, None])] = self.codes
        return out


@dataclass(eq=False)
class SentencePairs:
    """An encoded split: pair i is sentence i of `source` and of `target`,
    two `Sentences` holding vocabulary ids in place of codes.

    `pairs[i]` is (source ids, target ids) as two lists of ints, a slice is
    a `SentencePairs`, and iteration gives every pair in order.
    """

    source: Sentences
    target: Sentences

    def __post_init__(self):
        if len(self.source) != len(self.target):
            raise ValueError(f"{len(self.source)} source sentences but "
                             f"{len(self.target)} target sentences")

    @classmethod
    def join(cls, pairs):
        """SentencePairs from a list of (source ids, target ids)."""
        return cls(Sentences.join([s for s, _ in pairs]), Sentences.join([t for _, t in pairs]))

    def __len__(self):
        return len(self.source)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(len(self))[i])
        return self.source[i], self.target[i]

    def take(self, rows):
        """The pairs at the integer array `rows`, in that order."""
        return SentencePairs(self.source.take(rows), self.target.take(rows))

    def __iter__(self):
        return zip(self.source, self.target)


@dataclass
class CodedCorpus:
    """A parallel corpus as token codes.

    `splits[name]` is a (source, target) pair of `Sentences`; `source_names[c]`
    and `target_names[c]` are the token strings of code c on each side.
    """

    splits: dict
    source_names: list
    target_names: list

    def token_pairs(self, split):
        """(source tokens, target tokens) of every sentence pair of `split`."""
        src, tgt = self.splits[split]
        return list(zip(src.lists(np.array(self.source_names, dtype=object)),
                        tgt.lists(np.array(self.target_names, dtype=object))))

    def encode(self, src_vocab, tgt_vocab):
        """{split: SentencePairs}. Each code's token is looked up once;
        tokens outside a vocabulary become UNK_ID."""
        src_table = np.array(src_vocab.encode(self.source_names), dtype=np.int64)
        tgt_table = np.array(tgt_vocab.encode(self.target_names), dtype=np.int64)
        return {name: SentencePairs(Sentences(src_table[src.codes], src.bounds),
                                    Sentences(tgt_table[tgt.codes], tgt.bounds))
                for name, (src, tgt) in self.splits.items()}


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
    turn = np.add.reduceat(src.codes, starts) % window == 0
    idx = np.arange(n) + np.repeat(turn, sizes)  # a turned window reads one ahead...
    idx[(starts + sizes - 1)[turn]] = starts[turn]  # ...and its last token reads its first
    return idx


def _lemire(words, r):
    """Numpy's draw from range(r), 1 <= r < 2**32, tried on every 32-bit word
    (Lemire, arXiv 1805.10941): (values, accepted). The value of word w is
    w*r >> 32; the word is rejected, and the next one tried, while
    w*r mod 2**32 < (2**32 - r) mod r."""
    m = words * np.uint64(r)
    accepted = m.astype(np.uint32) >= (_WORD - r) % r  # the cast keeps w*r mod 2**32
    m >>= 32
    return m.view(np.int64), accepted  # every value is below 2**32


def _sentences_in(raw, count, len_min, len_range, vocab_size):
    """(lengths, flat codes) of `count` sentences drawn from the raw 64-bit
    outputs `raw`, as `_draw_sentences` defines them, or None if the words
    run out first."""
    words = np.empty(2 * len(raw), dtype=np.uint64)
    words[0::2] = raw & (_WORD - 1)  # little-endian: the low half is drawn first
    words[1::2] = raw >> 32
    n = len(words)
    # the rejected words of each draw, in order, then a word no walk reaches
    len_rejected = [*np.flatnonzero(~_lemire(words, len_range)[1]).tolist(), math.inf]
    values, accepted = _lemire(words, vocab_size)
    tok_rejected = [*np.flatnonzero(~accepted).tolist(), math.inf]
    lengths, length_words = [], []  # length_words: every word a length draw took
    p = a = t = 0  # the next word, and the next rejected length and token words
    for _ in range(count):
        if len_range > 1:  # a range of size 1 takes no word
            while len_rejected[a] < p:
                a += 1
            while len_rejected[a] == p:
                length_words.append(p)
                a += 1
                p += 1
            if p == n:
                return None
            lengths.append(len_min + (words.item(p) * len_range >> 32))
            length_words.append(p)
            p += 1
        else:
            lengths.append(len_min)
        if vocab_size > 1:
            while tok_rejected[t] < p:
                t += 1
            end = p + lengths[-1]
            while tok_rejected[t] < end:
                end += 1
                t += 1
            if end > n:
                return None
            p = end
    lengths = np.array(lengths, dtype=np.int64)
    if vocab_size == 1:
        return lengths, np.zeros(lengths.sum(), dtype=np.int64)
    tokens = accepted[:p]  # the words before p that no length draw took
    tokens[length_words] = False
    return lengths, values[:p][tokens]


def _draw_sentences(bits, count, len_min, len_max, vocab_size):
    """(lengths, flat codes) of `count` sentences: exactly what the calls
    `rng.integers(len_min, len_max + 1)` and then
    `rng.integers(0, vocab_size, size=length)`, per sentence, give on
    `rng = np.random.Generator(bits)` for a fresh PCG64 `bits`.

    Numpy draws each of these integers from the next 32-bit words of the bit
    generator's raw 64-bit outputs, low half first, by Lemire's rule
    (`_lemire`); a range of size 1 takes no word. So the words are drawn in
    bulk, every rejection test and token value is computed for all of them
    at once, and the one loop walks the sentences: a length word after any
    rejected ones, then `length` accepted token words. Where the words run
    out, more are drawn and the walk starts again.
    """
    len_range = len_max - len_min + 1
    for name, r in (("length range", len_range), ("vocab_size", vocab_size)):
        if not 1 <= r < _WORD:
            raise ValueError(f"{name} must lie in [1, 2**32), got {r}")
    # words for the mean length (two to a raw output), plus a margin that the
    # sum of `count` lengths rarely exceeds
    per_sentence = (len_range > 1) + (vocab_size > 1) * (len_min + len_max) / 2
    raw = bits.random_raw(int(count * per_sentence / 2 + count ** 0.5 * len_range) + 32)
    while (drawn := _sentences_in(raw, count, len_min, len_range, vocab_size)) is None:
        raw = np.concatenate((raw, bits.random_raw(len(raw))))
    return drawn


def generate_synthetic_corpus(spec):
    """Generate the train, valid and test splits of the task as a CodedCorpus.

    Source sentences are uniform over the source codes with lengths drawn
    from the configured range. Each sentence takes one length draw and then
    one token draw from a generator seeded with `spec.seed`, train first,
    then valid, then test; the same spec always regenerates the identical
    corpus. Changing that order or the number of draws changes every later
    sentence (see the module docstring). The draws are computed in bulk from
    PCG64's 32-bit words, low half of each 64-bit output first, by Lemire's
    rule (`_draw_sentences`), and so equal those of `Generator.integers`
    without depending on how it is written.
    """
    counts = (("train", spec.n_train), ("valid", spec.n_valid), ("test", spec.n_test))
    lengths, codes = _draw_sentences(np.random.default_rng(spec.seed).bit_generator,
                                     sum(c for _, c in counts), spec.len_min, spec.len_max,
                                     spec.source_vocab_size)
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    mapping = token_mapping(spec)
    splits, first = {}, 0
    for name, count in counts:
        b = bounds[first : first + count + 1]
        src = Sentences(codes[b[0] : b[-1]], b - b[0])
        tgt = Sentences(mapping[src.codes[_reorder_index(src, spec.reorder_window)]], src.bounds)
        splits[name] = (src, tgt)
        first += count
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
    """Read paired files; line i of each file forms one pair.

    A token spelled like a reserved symbol (`<unk>`, `<pad>`, ...) is
    rejected: it would encode to that symbol's structural id."""
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
        for path, tokens in ((src_path, src), (tgt_path, tgt)):
            reserved = [tok for tok in tokens if tok in SPECIAL_TOKENS]
            if reserved:
                raise ValueError(f"line {i} of {path} holds the reserved token {reserved[0]}")
        pairs.append((src, tgt))
    return pairs


class ParallelBatch:
    """A padded batch with teacher-forcing target streams.

    `target_input` is BOS-prefixed, `target_output` EOS-suffixed; shifting one
    against the other aligns every non-pad position. Padding is always a row
    suffix. `ParallelBatch(src_ids, tgt_ids)` takes two lists of id
    sequences; `make_batches` takes rows of a `SentencePairs`.
    """

    def __init__(self, src_ids, tgt_ids):
        self._pad(SentencePairs(Sentences.join(src_ids), Sentences.join(tgt_ids)))

    @classmethod
    def take(cls, pairs, rows):
        """The batch of the pairs of a `SentencePairs` at the integer array `rows`."""
        batch = cls.__new__(cls)
        batch._pad(pairs.take(rows))
        return batch

    def _pad(self, pairs):
        tgt = pairs.target
        self.source = pairs.source.padded()
        self.target_input = tgt.padded(offset=1)  # room for BOS
        self.target_input[:, 0] = BOS_ID
        self.target_output = tgt.padded(extra=1)  # room for EOS
        self.target_output[np.arange(len(tgt)), tgt.lengths()] = EOS_ID

    @property
    def size(self):
        return self.source.shape[0]


class Batches:
    """The batches of one shuffled split, each padded only when it is read.

    Holds the split and the row block of each batch. `batches[k]` pads batch
    k through `ParallelBatch.take`, every time it is read; a slice is a
    `Batches` of those blocks, and iteration pads one batch at a time, as
    often as it is repeated.
    """

    def __init__(self, pairs, blocks):
        self.pairs = pairs
        self.blocks = blocks

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Batches(self.pairs, self.blocks[k])
        return ParallelBatch.take(self.pairs, self.blocks[k])

    def __iter__(self):
        return (ParallelBatch.take(self.pairs, rows) for rows in self.blocks)


def make_batches(pairs, batch_size, rng):
    """Shuffle the pairs of a split with the given rng (or seed) and cut them
    into batches, padded as they are read (see `Batches`).

    `pairs` is a `SentencePairs`, or a list of (source ids, target ids) that
    is joined into one. The order is `rng.permutation(len(pairs))`, cut into
    runs of `batch_size` (the last may be shorter); each batch is gathered
    and padded from the flat id arrays.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(rng)  # a Generator comes back unchanged
    if not isinstance(pairs, SentencePairs):
        pairs = SentencePairs.join(pairs)
    order = rng.permutation(len(pairs))
    return Batches(pairs, [order[start : start + batch_size]
                           for start in range(0, len(order), batch_size)])
