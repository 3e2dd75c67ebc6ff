"""Vocabulary with reserved special symbols and whitespace tokenization."""

from __future__ import annotations

from collections import Counter

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
DROPPED_ID = 4

SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>", "<dropped>")
NUM_SPECIALS = len(SPECIAL_TOKENS)


def tokenize(line):
    """Whitespace tokenization; runs of spaces collapse."""
    return line.split()


class Vocabulary:
    """Bijective token<->id map with PAD/BOS/EOS/UNK/DROPPED at ids 0-4."""

    def __init__(self, tokens):
        self.id_to_token = list(SPECIAL_TOKENS) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self):
        return len(self.id_to_token)

    def __contains__(self, token):
        return token in self.token_to_id

    def encode(self, tokens):
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]

    def decode(self, ids):
        return [self.id_to_token[i] for i in ids]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for token in self.id_to_token:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh]
        if tokens[:NUM_SPECIALS] != list(SPECIAL_TOKENS):
            raise ValueError(f"vocabulary file {path} does not start with the reserved specials")
        return cls(tokens[NUM_SPECIALS:])


def build_vocabulary(corpus, max_size):
    """Keep the most frequent tokens, ties broken by first occurrence.

    `corpus` is an iterable of token lists. The five specials are always
    present and count against `max_size`.
    """
    if max_size <= NUM_SPECIALS:
        raise ValueError(f"max_size must exceed {NUM_SPECIALS}, got {max_size}")
    counts = Counter()
    first_seen = {}
    n_tokens = 0
    for sent in corpus:
        for tok in sent:
            counts[tok] += 1
            if tok not in first_seen:
                first_seen[tok] = n_tokens
            n_tokens += 1
    if not counts:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    keep = ranked[: max_size - NUM_SPECIALS]
    return Vocabulary(keep)
