import math

import pytest

from tokendrop.evaluation import NoiseEvalSpec, corpus_bleu


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
