import math

import numpy as np
import pytest

from tokendrop import autodiff as ad
from tokendrop import evaluation
from tokendrop.config import load_config
from tokendrop.dropping import droppable_positions
from tokendrop.evaluation import (NoiseEvalSpec, corpus_bleu, greedy_decode, greedy_decode_batch,
                                  noise_eval)
from tokendrop.pipeline import build_state, evaluate_clean, prepare_data
from tokendrop.vocab import EOS_ID, UNK_ID


@pytest.fixture(scope="module")
def small():
    """An untrained small model and its test split."""
    cfg = load_config(None, ["task.n_train=16", "task.n_valid=2", "task.n_test=6",
                             "model.d_model=16", "model.d_ffn=32", "model.n_layers=1",
                             "model.n_heads=2"])
    bundle = prepare_data(cfg)
    return build_state(cfg, bundle), bundle.test


class ScriptedDecoder:
    """Stands in for `model.decode`: row i emits token 10 + i at each step
    until step `stops[i]` (1-based), where it emits EOS; None never stops.
    The step is the number of calls, since a cached decoder sees only the
    newest position."""

    def __init__(self, stops, vocab=20):
        self.stops, self.vocab, self.calls = stops, vocab, 0

    def __call__(self, target_input, enc, params, cfg, cache=None):
        self.calls += 1
        b, length = target_input.corrupted_ids.shape
        logits = np.zeros((b, length, self.vocab))
        for i, stop in enumerate(self.stops):
            logits[i, -1, EOS_ID if stop == self.calls else 10 + i] = 1.0
        return ad.Tensor(logits)


class TestGreedyDecode:
    def test_padded_batch_decodes_each_sentence_as_alone(self, small):
        state, test = small
        sources = [s for s, _ in test]
        assert len({len(s) for s in sources}) > 1  # the batch pads
        assert greedy_decode_batch(sources, state, 10) == [greedy_decode(s, state, 10)
                                                           for s in sources]

    def test_stops_at_eos_and_at_max_len(self, small, monkeypatch):
        state, test = small
        decoder = ScriptedDecoder([2, None, 1])
        monkeypatch.setattr(evaluation, "decode", decoder)
        hyps = greedy_decode_batch([s for s, _ in test[:3]], state, 5)
        assert hyps == [[10], [11] * 5, []]
        assert decoder.calls == 5

    def test_stops_once_every_sentence_has_ended(self, small, monkeypatch):
        state, test = small
        decoder = ScriptedDecoder([3, 1])
        monkeypatch.setattr(evaluation, "decode", decoder)
        assert greedy_decode_batch([s for s, _ in test[:2]], state, 9) == [[10, 10], []]
        assert decoder.calls == 3

    def test_decode_length_is_bounded_by_the_position_table(self, monkeypatch):
        cfg = load_config(None, ["task.n_train=16", "task.n_valid=2", "task.n_test=4",
                                 "task.len_max=6", "model.d_model=8", "model.d_ffn=16",
                                 "model.n_layers=1", "model.n_heads=2", "model.max_len=8",
                                 "eval.max_decode_len=8"])
        bundle = prepare_data(cfg)
        state = build_state(cfg, bundle)
        sources = [s for s, _ in bundle.test]
        hyps = greedy_decode_batch(sources, state, 8)  # the last step reads position 7
        assert len(hyps) == len(sources) and all(len(h) <= 8 for h in hyps)
        decoder = ScriptedDecoder([None] * len(sources))
        monkeypatch.setattr(evaluation, "decode", decoder)
        with pytest.raises(ValueError, match="decode length 9 exceeds the model's max_len 8"):
            greedy_decode_batch(sources, state, 9)
        assert decoder.calls == 0  # refused before the first step

    def test_no_sources_give_no_hypotheses(self, small):
        state, _ = small
        assert greedy_decode_batch([], state, 5) == []
        with pytest.raises(ValueError, match="empty corpus"):
            evaluate_clean(state, [], 5)

    def test_a_model_that_prefers_eos_emits_empty_hypotheses(self, small):
        state, test = small
        bias = state.params["out_bias"].data
        saved = bias.copy()
        bias[EOS_ID] = 1e3
        try:
            assert greedy_decode_batch([s for s, _ in test], state, 10) == [[]] * len(test)
        finally:
            bias[...] = saved


def noise_eval_by_sentence(test_pairs, spec):
    """Reference `noise_eval`: one uniform draw per token, sentence by sentence."""
    rows = []
    for ri, rate in enumerate(spec.rates):
        scores = []
        for s in range(1 if rate == 0.0 else spec.samples):
            rng = np.random.default_rng([spec.seed, ri, s])
            noisy = []
            for src, _ in test_pairs:
                ids = np.asarray(src, dtype=np.int64)
                hit = (rng.random(ids.shape) < rate) & droppable_positions(ids)
                noisy.append([int(i) for i in np.where(hit, UNK_ID, ids)])
            hyps = evaluation.greedy_decode_batch(noisy, None, spec.max_decode_len)
            scores.append(corpus_bleu(hyps, [r for _, r in test_pairs]).bleu)
        rows.append({"rate": float(rate), "mean_bleu": float(np.mean(scores)),
                     "std_bleu": float(np.std(scores))})
    return rows


class TestNoiseEval:
    def test_rows_match_noising_each_sentence_alone(self, small, monkeypatch):
        # decoding echoes the noisy source and each reference is the clean
        # source, so every <unk> the noise puts in costs BLEU
        _, test = small
        pairs = [(s, s) for s, _ in test]
        spec = NoiseEvalSpec(rates=(0.0, 0.05, 0.5), samples=4, seed=3, max_decode_len=6)
        calls = []

        def echoing(sources, state, max_len):
            calls.append([list(s) for s in sources])
            return calls[-1]

        monkeypatch.setattr(evaluation, "greedy_decode_batch", echoing)
        rows = noise_eval(pairs, None, spec)
        seen = calls.copy()
        calls.clear()
        assert rows == noise_eval_by_sentence(pairs, spec)
        assert seen == calls and len(seen) == 1 + 2 * 4
        assert rows[0]["mean_bleu"] == 100.0 and rows[2]["mean_bleu"] < rows[1]["mean_bleu"]
        assert rows[2]["std_bleu"] > 0.0

    def test_rate_zero_decodes_once(self, small, monkeypatch):
        state, test = small
        calls = []
        real = evaluation.greedy_decode_batch

        def counting(sources, state, max_len):
            calls.append([list(s) for s in sources])
            return real(sources, state, max_len)

        monkeypatch.setattr(evaluation, "greedy_decode_batch", counting)
        rows = noise_eval(test, state, NoiseEvalSpec(rates=(0.0, 0.5), samples=3, seed=1,
                                                     max_decode_len=6))
        assert [r["rate"] for r in rows] == [0.0, 0.5]
        assert len(calls) == 1 + 3
        assert calls[0] == [list(s) for s, _ in test]  # rate 0 adds no noise
        clean = corpus_bleu(real([s for s, _ in test], state, 6), [r for _, r in test]).bleu
        assert rows[0] == {"rate": 0.0, "mean_bleu": clean, "std_bleu": 0.0}


class TestCorpusBleu:
    def test_identical_corpus_scores_100(self):
        report = corpus_bleu([[1, 2, 3, 4, 5]], [[1, 2, 3, 4, 5]])
        assert report.bleu == pytest.approx(100.0)
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)
        assert report.brevity_penalty == 1.0

    def test_repeated_ngrams_are_clipped_to_their_reference_count(self):
        # "1" occurs twice in the hypothesis but once in the reference: p1 = 4/5, not 5/5
        # bigrams 12 23 34 41 -> 3/4; trigrams 123 234 341 -> 2/3; 4-grams 1234 2341 -> 1/2
        report = corpus_bleu([[1, 2, 3, 4, 1]], [[1, 2, 3, 4, 5]])
        assert report.precisions == (4 / 5, 3 / 4, 2 / 3, 1 / 2)
        assert report.brevity_penalty == 1.0
        assert report.bleu == pytest.approx(100.0 * (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25)

    def test_short_hypothesis_pays_the_brevity_penalty(self):
        report = corpus_bleu([[1, 2, 3, 4]], [[1, 2, 3, 4, 5, 6, 7, 8]])
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)
        assert report.brevity_penalty == pytest.approx(math.exp(1 - 8 / 4))
        assert report.bleu == pytest.approx(100.0 * math.exp(-1.0))

    def test_long_hypothesis_pays_no_brevity_penalty(self):
        report = corpus_bleu([[1, 2, 3, 4, 5, 6]], [[1, 2, 3, 4]])
        assert report.brevity_penalty == 1.0
        assert report.precisions == (4 / 6, 3 / 5, 2 / 4, 1 / 3)

    def test_a_zero_precision_zeroes_the_score(self):
        # every unigram matches, but no 4-gram does (no smoothing)
        report = corpus_bleu([[1, 2, 3, 5, 4]], [[1, 2, 3, 4, 5]])
        assert report.precisions == (1.0, 2 / 4, 1 / 3, 0.0)
        assert report.bleu == 0.0

    def test_counts_pool_over_the_corpus(self):
        # sentence 2 has no 4-gram of its own; pooled counts still give p4 = 1/1
        report = corpus_bleu([[1, 2, 3, 4], [5, 6, 7]], [[1, 2, 3, 4], [5, 6, 7]])
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)
        assert (report.hyp_length, report.ref_length) == (7, 7)
        assert report.bleu == pytest.approx(100.0)

    def test_empty_hypothesis(self):
        report = corpus_bleu([[]], [[1, 2, 3]])
        assert report.bleu == 0.0
        assert report.brevity_penalty == 0.0
        assert report.precisions == (0.0, 0.0, 0.0, 0.0)
        assert (report.hyp_length, report.ref_length) == (0, 3)

    def test_empty_hypothesis_among_others_only_shortens_the_corpus(self):
        report = corpus_bleu([[], [1, 2, 3, 4]], [[1, 2], [1, 2, 3, 4]])
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)
        assert report.brevity_penalty == pytest.approx(math.exp(1 - 6 / 4))
        assert report.bleu == pytest.approx(100.0 * math.exp(-0.5))

    @pytest.mark.parametrize("hyps, refs", [([], []), ([[1]], [[1], [2]])])
    def test_bad_corpus_rejected(self, hyps, refs):
        with pytest.raises(ValueError):
            corpus_bleu(hyps, refs)


class TestNoiseEvalSpec:
    @pytest.mark.parametrize("kw, message", [
        (dict(rates=(0.0, 1.5)), "rates"),
        (dict(rates=()), "rates"),
        (dict(samples=0), "samples"),
        (dict(max_decode_len=0), "max_decode_len"),
    ])
    def test_bad_values_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            NoiseEvalSpec(**{**dict(rates=(0.0,), samples=1, seed=0, max_decode_len=1), **kw})
