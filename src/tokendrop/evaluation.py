"""Greedy decoding, corpus BLEU, and the incomplete-input robustness protocol.

BLEU follows multi-bleu semantics: corpus-level modified n-gram precisions up
to 4-grams with clipping, a brevity penalty, case-sensitive over
already-tokenized input, and no smoothing (any zero precision zeroes the
score).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import Sentences
from .dropping import UNK_TAG, corrupt_ids, no_drop
from .model import DecodeCache, decode, encode
from .vocab import BOS_ID, EOS_ID, PAD_ID


def greedy_decode(source_ids, state, max_len):
    """Decode one sentence; argmax at every step, stop at EOS or max_len."""
    return greedy_decode_batch([source_ids], state, max_len)[0]


def greedy_decode_batch(sources, state, max_len):
    """Greedy-decode a list of source id sequences; order-stable output.

    Each step runs the decoder over the newest position only: one
    `DecodeCache` per call keeps the earlier positions' self-attention keys
    and values and the encoder's cross-attention ones. A row that has
    emitted EOS is fed PAD until every row has ended or `max_len` steps
    have run. Ties in the argmax break toward the lowest token id.
    """
    cfg = state.model_cfg
    if max_len > cfg.max_len:
        raise ValueError(f"decode length {max_len} exceeds the model's max_len {cfg.max_len}")
    if not sources:
        return []
    b = len(sources)
    enc = encode(no_drop(Sentences.join(sources).padded()), state.params, cfg)

    cache = DecodeCache()
    ys = np.full((b, 1), BOS_ID, dtype=np.int64)
    finished = np.zeros(b, dtype=bool)
    for _ in range(max_len):
        logits = decode(no_drop(ys[:, -1:]), enc, state.params, cfg, cache=cache)
        nxt = np.argmax(logits.data[:, -1, :], axis=-1)
        nxt = np.where(finished, PAD_ID, nxt)
        ys = np.concatenate([ys, nxt[:, None]], axis=1)
        finished |= nxt == EOS_ID
        if finished.all():
            break
    out = []
    for row in ys[:, 1:]:
        ids = []
        for t in row:
            if t == EOS_ID or t == PAD_ID:
                break
            ids.append(int(t))
        out.append(ids)
    return out


@dataclass
class BleuReport:
    bleu: float
    precisions: tuple
    brevity_penalty: float
    hyp_length: int
    ref_length: int

    def __str__(self):
        p = "/".join(f"{100 * x:.1f}" for x in self.precisions)
        return (f"BLEU = {self.bleu:.2f}, {p} (BP={self.brevity_penalty:.3f}, "
                f"hyp_len={self.hyp_length}, ref_len={self.ref_length})")


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hypotheses, references, max_order=4):
    """Corpus-level BLEU in [0, 100], single reference per hypothesis."""
    if len(hypotheses) != len(references):
        raise ValueError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise ValueError("empty corpus")
    clipped = [0] * max_order
    totals = [0] * max_order
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp, ref = list(hyp), list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_order + 1):
            hyp_counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            totals[n - 1] += max(len(hyp) - n + 1, 0)
            for gram, c in hyp_counts.items():
                clipped[n - 1] += min(c, ref_counts.get(gram, 0))
    precisions = tuple(c / t if t > 0 else 0.0 for c, t in zip(clipped, totals))
    if hyp_len == 0 or ref_len == 0:
        bp = 0.0
    elif hyp_len >= ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)
    if any(p == 0.0 for p in precisions) or bp == 0.0:
        bleu = 0.0
    else:
        bleu = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / max_order)
    return BleuReport(bleu, precisions, bp, hyp_len, ref_len)


@dataclass
class NoiseEvalSpec:
    """The robustness protocol; its defaults live in config.EvalConfig."""

    rates: tuple
    samples: int
    seed: int
    max_decode_len: int

    def __post_init__(self):
        if not self.rates or any(not 0.0 <= r <= 1.0 for r in self.rates):
            raise ValueError("noise rates must be given and lie in [0, 1]")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.max_decode_len < 1:
            raise ValueError("max_decode_len must be >= 1")


def _add_unk_noise(sources, rate, rng):
    """`sources` (`Sentences`) with content tokens made `<unk>` by the UNK-tag drop rule."""
    return Sentences(corrupt_ids(sources.codes, rate, UNK_TAG, rng).corrupted_ids, sources.bounds)


def noise_eval(test_pairs, state, spec):
    """BLEU under random test-time UNK replacement at each configured rate.

    `test_pairs` is a list of (source ids, reference ids). Each nonzero rate
    is measured over `spec.samples` independent noisings of the whole test
    set; rate 0 collapses to one deterministic evaluation. Returns a list of
    {rate, mean_bleu, std_bleu} rows in rate order.
    """
    sources = Sentences.join([s for s, _ in test_pairs])
    refs = [r for _, r in test_pairs]
    rows = []
    for ri, rate in enumerate(spec.rates):
        n_samples = 1 if rate == 0.0 else spec.samples
        scores = []
        for s in range(n_samples):
            rng = np.random.default_rng([spec.seed, ri, s])
            noisy = list(_add_unk_noise(sources, rate, rng))
            hyps = greedy_decode_batch(noisy, state, spec.max_decode_len)
            scores.append(corpus_bleu(hyps, refs).bleu)
        rows.append({
            "rate": float(rate),
            "mean_bleu": float(np.mean(scores)),
            "std_bleu": float(np.std(scores)),
        })
    return rows
