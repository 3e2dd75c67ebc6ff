import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokendrop import data as dt
from tokendrop import vocab as vb


class TestVocabulary:
    def test_specials_occupy_lowest_ids(self):
        v = vb.Vocabulary(["x", "y"])
        assert v.decode([0, 1, 2, 3, 4]) == list(vb.SPECIAL_TOKENS)
        assert (vb.PAD_ID, vb.BOS_ID, vb.EOS_ID, vb.UNK_ID, vb.DROPPED_ID) == (0, 1, 2, 3, 4)

    def test_encode_decode_roundtrip(self):
        v = vb.Vocabulary(["alpha", "beta", "gamma"])
        tokens = ["beta", "alpha", "gamma", "beta"]
        assert v.decode(v.encode(tokens)) == tokens

    def test_oov_encodes_to_unk(self):
        v = vb.Vocabulary(["a"])
        assert v.encode(["a", "zzz"]) == [5, vb.UNK_ID]

    def test_save_load_roundtrip(self, tmp_path):
        v = vb.Vocabulary(["a", "b"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        loaded = vb.Vocabulary.load(path)
        assert loaded.id_to_token == v.id_to_token

    def test_load_rejects_file_without_specials(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a\nb\n")
        with pytest.raises(ValueError):
            vb.Vocabulary.load(path)

    def test_load_names_the_file_and_the_repeated_token(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("<pad>\n<bos>\n<eos>\n<unk>\n<dropped>\na\n<unk>\n")
        message = f"vocabulary file {path}: duplicate token <unk> in vocabulary"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            vb.Vocabulary.load(path)


class TestBuildVocabulary:
    def test_all_tokens_fit(self):
        v = vb.build_vocabulary(np.array([0, 0, 1]), ["a", "b"], max_size=7)
        assert len(v) == 7
        assert "a" in v and "b" in v

    def test_frequency_cutoff(self):
        v = vb.build_vocabulary(np.array([0, 0, 1]), ["a", "b"], max_size=6)
        assert "a" in v and "b" not in v
        assert v.encode(["b"]) == [vb.UNK_ID]

    def test_tie_broken_by_first_occurrence(self):
        # "b" has the higher code but occurs first
        v = vb.build_vocabulary(np.array([1, 0, 1, 0]), ["a", "b"], max_size=6)
        assert "b" in v and "a" not in v

    def test_codes_that_never_occur_are_left_out(self):
        v = vb.build_vocabulary(np.array([2, 0, 2]), ["a", "b", "c"], max_size=10)
        assert v.id_to_token[vb.NUM_SPECIALS:] == ["c", "a"]

    def test_empty_corpus_rejected(self):
        for names in ([], ["a"]):
            with pytest.raises(ValueError, match="empty corpus"):
                vb.build_vocabulary(np.zeros(0, dtype=np.int64), names, max_size=10)

    def test_max_size_must_exceed_specials(self):
        with pytest.raises(ValueError):
            vb.build_vocabulary(np.array([0]), ["a"], max_size=5)


def reference_target(src, spec):
    """The task spelled out one sentence at a time: map each code, then rotate
    left by one every window whose source code sum is divisible by the window."""
    mapped = [int(dt.token_mapping(spec)[c]) for c in src]
    w = spec.reorder_window
    out = []
    for start in range(0, len(src), w):
        chunk = mapped[start:start + w]
        k = 1 if sum(src[start:start + w]) % w == 0 else 0
        out += chunk[k:] + chunk[:k]
    return out


def reference_source(tgt, spec):
    """Undo `reference_target` from the target alone: unmap, then rotate right
    the windows whose (rotation-invariant) code sum is divisible by the window."""
    inverse = {int(t): s for s, t in enumerate(dt.token_mapping(spec))}
    rotated = [inverse[c] for c in tgt]
    w = spec.reorder_window
    out = []
    for start in range(0, len(rotated), w):
        chunk = rotated[start:start + w]
        k = len(chunk) - 1 if sum(chunk) % w == 0 else 0
        out += chunk[k:] + chunk[:k]
    return out


def sentence_lists(corpus, split):
    src, tgt = corpus.splits[split]
    return (src.lists(np.arange(len(corpus.source_names))),
            tgt.lists(np.arange(len(corpus.target_names))))


class TestSyntheticCorpus:
    def spec(self, **kw):
        base = dict(source_vocab_size=20, target_vocab_size=20, n_train=50, n_valid=10,
                    n_test=10, len_min=3, len_max=7, seed=42)
        base.update(kw)
        return dt.SyntheticTaskSpec(**base)

    def test_window_one_is_pure_relabeling(self):
        spec = self.spec(reorder_window=1)
        mapping = dt.token_mapping(spec)
        for src, tgt in dt.generate_synthetic_corpus(spec).splits.values():
            np.testing.assert_array_equal(tgt.codes, mapping[src.codes])
            np.testing.assert_array_equal(tgt.bounds, src.bounds)

    def test_identity_mapping_window_one_is_copy_task(self):
        spec = self.spec(identity_mapping=True, reorder_window=1)
        corpus = dt.generate_synthetic_corpus(spec)
        assert corpus.source_names == corpus.target_names
        for src, tgt in corpus.token_pairs("train"):
            assert src == tgt

    def test_regeneration_is_identical(self, tmp_path):
        spec = self.spec(reorder_window=3)
        a = dt.generate_synthetic_corpus(spec)
        b = dt.generate_synthetic_corpus(spec)
        assert (a.source_names, a.target_names) == (b.source_names, b.target_names)
        for split in ("train", "valid", "test"):
            for x, y in zip(a.splits[split], b.splits[split]):
                np.testing.assert_array_equal(x.codes, y.codes)
                np.testing.assert_array_equal(x.bounds, y.bounds)
        pa = dt.write_parallel(a.token_pairs("train"), tmp_path / "one", "train")
        pb = dt.write_parallel(b.token_pairs("train"), tmp_path / "two", "train")
        assert open(pa[0]).read() == open(pb[0]).read()
        assert open(pa[1]).read() == open(pb[1]).read()

    def test_mapping_is_injective(self):
        for target_vocab_size in (20, 35):
            mapping = dt.token_mapping(self.spec(target_vocab_size=target_vocab_size)).tolist()
            assert len(mapping) == 20 and len(set(mapping)) == len(mapping)
            assert all(0 <= t < target_vocab_size for t in mapping)

    @pytest.mark.parametrize("window", [1, 2, 3, 5])
    def test_target_inverts_to_source(self, window):
        spec = self.spec(reorder_window=window)
        corpus = dt.generate_synthetic_corpus(spec)
        for split in corpus.splits:
            sources, targets = sentence_lists(corpus, split)
            for src, tgt in zip(sources, targets):
                assert tgt == reference_target(src, spec)
                assert reference_source(tgt, spec) == src

    def test_sentence_lengths_in_range(self):
        spec = self.spec(len_min=1, len_max=4)
        for src, _ in dt.generate_synthetic_corpus(spec).splits.values():
            lengths = np.diff(src.bounds)
            assert lengths.min() >= 1 and lengths.max() <= 4
            assert src.codes.max() < spec.source_vocab_size

    def test_empty_splits(self):
        corpus = dt.generate_synthetic_corpus(self.spec(n_valid=0, n_test=0))
        encoded = corpus.encode(vb.Vocabulary(corpus.source_names),
                                vb.Vocabulary(corpus.target_names))
        assert list(encoded["valid"]) == list(encoded["test"]) == []
        assert len(encoded["train"]) == 50
        assert corpus.token_pairs("valid") == []


def reference_draws(rng, count, len_min, len_max, vocab_size):
    """(lengths, flat codes) of `count` sentences drawn the way the corpus is
    defined: one `rng.integers` call for the length, then one for the tokens."""
    lengths, parts = [], [np.zeros(0, dtype=np.int64)]
    for _ in range(count):
        lengths.append(int(rng.integers(len_min, len_max + 1)))
        parts.append(rng.integers(0, vocab_size, size=lengths[-1]))
    return np.array(lengths, dtype=np.int64), np.concatenate(parts)


def reference_sources(spec):
    """{split: (codes, bounds)} of the source side, from `reference_draws`."""
    rng = np.random.default_rng(spec.seed)
    out = {}
    for name, count in (("train", spec.n_train), ("valid", spec.n_valid), ("test", spec.n_test)):
        lengths, codes = reference_draws(rng, count, spec.len_min, spec.len_max,
                                         spec.source_vocab_size)
        out[name] = codes, np.concatenate(([0], np.cumsum(lengths)))
    return out


def assert_same_draws(bits, ref_bits, count, len_min, len_max, vocab_size):
    lengths, codes = dt._draw_sentences(bits, count, len_min, len_max, vocab_size)
    ref_lengths, ref_codes = reference_draws(np.random.Generator(ref_bits), count, len_min,
                                             len_max, vocab_size)
    assert lengths.dtype == codes.dtype == np.int64
    assert lengths.tobytes() == ref_lengths.tobytes()
    assert codes.tobytes() == ref_codes.tobytes()


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_with_zero_output(index, inc=0xDA3E39CB94B95BDB):
    """A PCG64 whose raw output number `index` (from 0) is 0.

    PCG64 steps its 128-bit state s to s * multiplier + inc and then outputs
    the high and low halves of s XORed and rotated right by the top 6 bits of
    s. A state with equal halves and a top of 0 outputs 0; stepping back from
    it `index + 1` times gives the state to start from. A zero word fails
    Lemire's test for every range that is not a power of 2, so both 32-bit
    words of that output are rejected by whichever draw meets them.
    """
    state = 12345 << 64 | 12345
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(index + 1):
        state = (state - inc) * inverse % (1 << 128)
    bits = np.random.PCG64(0)
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}
    return bits


class CountingBits:
    """A PCG64 that counts the `random_raw` calls made on it."""

    def __init__(self, seed):
        self.bits = np.random.PCG64(seed)
        self.calls = 0

    def random_raw(self, size):
        self.calls += 1
        return self.bits.random_raw(size)


class TestBulkDraws:
    """`_draw_sentences` computes the corpus draws from the PCG64 stream; it
    must give exactly what the `rng.integers` calls give."""

    @pytest.mark.parametrize("kw", [
        {},
        dict(len_min=24, len_max=48),
        dict(len_min=7, len_max=7),
        dict(source_vocab_size=1),
        dict(len_min=5, len_max=5, source_vocab_size=1),
        dict(n_valid=0, n_test=0),
        dict(n_train=1),
    ], ids=["default", "24-48", "one-length", "one-token", "one-length-one-token",
            "no-valid-or-test", "one-train"])
    def test_corpus_equals_the_one_call_per_draw_reference(self, kw):
        spec = dt.SyntheticTaskSpec(**kw)
        corpus = dt.generate_synthetic_corpus(spec)
        for name, (codes, bounds) in reference_sources(spec).items():
            src = corpus.splits[name][0]
            assert src.codes.dtype == src.bounds.dtype == np.int64
            assert src.codes.tobytes() == codes.tobytes()
            assert src.bounds.tobytes() == bounds.tobytes()

    @pytest.mark.parametrize("vocab_size", [2, 3, 200, 2**31 + 1, 3 << 30, 2**32 - 1])
    @pytest.mark.parametrize("len_min, len_max", [(1, 5), (3, 3)])
    def test_token_ranges_up_to_2_32(self, vocab_size, len_min, len_max):
        assert_same_draws(np.random.PCG64(5), np.random.PCG64(5), 300, len_min, len_max,
                          vocab_size)

    def test_rejected_token_words_and_a_stream_extension(self):
        count, length, r = 400, 10, 3 << 30  # about a quarter of the words are rejected
        bits = CountingBits(9)
        assert_same_draws(bits, np.random.PCG64(9), count, length, length, r)
        # every word is a token word, and the draws take at least the first
        # count * length of them: one that fails the test was rejected
        raw = np.random.PCG64(9).random_raw(count * length // 2)
        words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
        assert np.count_nonzero((words * r) % 2**32 < (2**32 - r) % r) > count * length // 8
        assert bits.calls >= 2  # the first block of words ran short

    @pytest.mark.parametrize("index", [0, 1, 2, 5, 40])
    def test_rejected_length_and_token_words(self, index):
        # output 0 rejects the first two length draws; later ones fall on
        # length or token draws as the walk meets them
        assert_same_draws(pcg64_with_zero_output(index), pcg64_with_zero_output(index),
                          30, 4, 12, 200)

    def test_zero_output_state(self):
        bits = pcg64_with_zero_output(3)
        assert bits.random_raw(5)[3] == 0

    def test_ranges_of_2_32_are_refused(self):
        for len_max, vocab_size in ((2**32, 5), (3, 2**32)):
            with pytest.raises(ValueError, match=re.escape("[1, 2**32)")):
                dt._draw_sentences(np.random.PCG64(0), 1, 1, len_max, vocab_size)


@pytest.mark.parametrize("kw, field", [
    (dict(source_vocab_size=2**32, target_vocab_size=2**32), "source_vocab_size"),
    (dict(source_vocab_size=2**33), "source_vocab_size"),
    (dict(len_min=1, len_max=2**32), "len_max"),
    (dict(len_min=5, len_max=2**32 + 4), "len_max"),
])
def test_spec_refuses_draw_ranges_of_2_32_or_more(kw, field):
    with pytest.raises(ValueError, match=field):
        dt.SyntheticTaskSpec(**kw)


def test_spec_takes_draw_ranges_just_below_2_32():
    dt.SyntheticTaskSpec(source_vocab_size=2**32 - 1, target_vocab_size=2**32 - 1)
    dt.SyntheticTaskSpec(len_min=2, len_max=2**32)


class TestInternCorpus:
    PAIRS = {"train": [(["a", "b", "a"], ["x"]), (["c"], ["y", "x"])],
             "test": [(["d", "a"], ["z"])]}

    def test_codes_number_tokens_in_order_of_first_appearance(self):
        corpus = dt.intern_corpus(self.PAIRS)
        assert (corpus.source_names, corpus.target_names) == (["a", "b", "c", "d"], ["x", "y", "z"])
        src, tgt = corpus.splits["train"]
        assert src.codes.tolist() == [0, 1, 0, 2] and src.bounds.tolist() == [0, 3, 4]
        assert tgt.codes.tolist() == [0, 1, 0] and tgt.bounds.tolist() == [0, 1, 3]

    def test_token_pairs_give_back_the_input(self):
        corpus = dt.intern_corpus(self.PAIRS)
        assert {split: corpus.token_pairs(split) for split in corpus.splits} == self.PAIRS

    def test_encode_maps_unknown_tokens_to_unk(self):
        corpus = dt.intern_corpus(self.PAIRS)
        encoded = corpus.encode(vb.Vocabulary(["d", "a"]), vb.Vocabulary(["z", "x", "y"]))
        assert list(encoded["train"]) == [([6, vb.UNK_ID, 6], [6]), ([vb.UNK_ID], [7, 6])]
        assert list(encoded["test"]) == [([5, 6], [5])]
        assert all(type(i) is int for s, t in encoded["train"] for i in s + t)


class TestLoadParallel:
    def test_two_line_files(self, tmp_path):
        (tmp_path / "x.src").write_text("a b\nc\n")
        (tmp_path / "x.tgt").write_text("d\ne f\n")
        pairs = dt.load_parallel(tmp_path / "x.src", tmp_path / "x.tgt")
        assert pairs == [(["a", "b"], ["d"]), (["c"], ["e", "f"])]

    # Every line boundary of str.splitlines other than "\n" and "\r\n".
    @pytest.mark.parametrize("sep", ["\u2028", "\x0c", "\x1c", "\x85", "\r", "\x0b", "\x1d",
                                     "\x1e", "\u2029"])
    def test_only_newline_ends_a_line(self, tmp_path, sep):
        (tmp_path / "x.src").write_text(f"x{sep}y\nz\n", encoding="utf-8", newline="")
        (tmp_path / "x.tgt").write_text(f"x2{sep}y2\nz2\n", encoding="utf-8", newline="")
        pairs = dt.load_parallel(tmp_path / "x.src", tmp_path / "x.tgt")
        assert pairs == [(["x", "y"], ["x2", "y2"]), (["z"], ["z2"])]

    @pytest.mark.parametrize("src_text", ["a b\r\nc\r\n", "a b\nc", "a b\r\nc"])
    def test_crlf_and_missing_final_newline(self, tmp_path, src_text):
        (tmp_path / "x.src").write_text(src_text, encoding="utf-8", newline="")
        (tmp_path / "x.tgt").write_text("d\ne\n", encoding="utf-8", newline="")
        pairs = dt.load_parallel(tmp_path / "x.src", tmp_path / "x.tgt")
        assert pairs == [(["a", "b"], ["d"]), (["c"], ["e"])]

    def test_line_count_mismatch_names_counts(self, tmp_path):
        (tmp_path / "x.src").write_text("a\nb\nc\n")
        (tmp_path / "x.tgt").write_text("d\ne\n")
        with pytest.raises(ValueError, match="3.*2"):
            dt.load_parallel(tmp_path / "x.src", tmp_path / "x.tgt")

    def test_whitespace_collapse(self, tmp_path):
        (tmp_path / "x.src").write_text("a  b\n")
        (tmp_path / "x.tgt").write_text("c\n")
        pairs = dt.load_parallel(tmp_path / "x.src", tmp_path / "x.tgt")
        assert pairs[0][0] == ["a", "b"]

    def test_empty_line_rejected_with_number(self, tmp_path):
        (tmp_path / "x.src").write_text("a\n\nb\n")
        (tmp_path / "x.tgt").write_text("c\nd\ne\n")
        with pytest.raises(ValueError, match="line 2"):
            dt.load_parallel(tmp_path / "x.src", tmp_path / "x.tgt")

    @pytest.mark.parametrize("token", vb.SPECIAL_TOKENS)
    @pytest.mark.parametrize("side", ["src", "tgt"])
    def test_reserved_token_rejected_with_file_line_and_token(self, tmp_path, token, side):
        # <pad> encoded to PAD_ID and was masked as padding; in training,
        # any of them failed later as "duplicate tokens in vocabulary"
        lines = {"src": ["a b", "c d"], "tgt": ["e", "f g"]}
        lines[side][1] = f"f {token} g"
        for s, text in lines.items():
            (tmp_path / f"x.{s}").write_text("".join(t + "\n" for t in text))
        message = f"line 2 of {tmp_path / f'x.{side}'} holds the reserved token {token}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dt.load_parallel(tmp_path / "x.src", tmp_path / "x.tgt")


def reference_batch(src_ids, tgt_ids):
    """(source, target_input, target_output) padded one row at a time."""
    b = len(src_ids)
    src_len = max(len(s) for s in src_ids)
    tgt_len = max(len(t) for t in tgt_ids) + 1
    source = np.full((b, src_len), vb.PAD_ID, dtype=np.int64)
    target_input = np.full((b, tgt_len), vb.PAD_ID, dtype=np.int64)
    target_output = np.full((b, tgt_len), vb.PAD_ID, dtype=np.int64)
    for i, (s, t) in enumerate(zip(src_ids, tgt_ids)):
        source[i, : len(s)] = s
        target_input[i, 0] = vb.BOS_ID
        target_input[i, 1 : len(t) + 1] = t
        target_output[i, : len(t)] = t
        target_output[i, len(t)] = vb.EOS_ID
    return source, target_input, target_output


def assert_batch_is(batch, expected):
    for got, want in zip((batch.source, batch.target_input, batch.target_output), expected):
        assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


class TestSentencePairs:
    PAIRS = [([5, 6, 7], [8]), ([9], [10, 11]), ([12, 13], [14, 15, 16, 17])]

    def split(self):
        return dt.SentencePairs.join(self.PAIRS)

    def test_index_length_and_iteration(self):
        split = self.split()
        assert len(split) == 3 and split[1] == ([9], [10, 11]) and split[-1] == self.PAIRS[2]
        assert list(split) == self.PAIRS
        assert all(type(i) is int for s, t in split for i in s + t)
        with pytest.raises(IndexError):
            split[3]

    @pytest.mark.parametrize("cut", [slice(None, 2), slice(1, None), slice(None, None, -2),
                                     slice(2, 2)])
    def test_slice_is_a_split(self, cut):
        part = self.split()[cut]
        assert isinstance(part, dt.SentencePairs) and list(part) == self.PAIRS[cut]

    def test_sides_must_agree_in_length(self):
        with pytest.raises(ValueError, match="2 source sentences but 1 target sentences"):
            dt.SentencePairs(dt.Sentences.join([[5], [6]]), dt.Sentences.join([[7]]))

    def test_encode_gives_splits_of_ids(self):
        corpus = dt.intern_corpus({"train": [(["a", "b"], ["x"])]})
        split = corpus.encode(vb.Vocabulary(["b", "a"]), vb.Vocabulary(["x"]))["train"]
        assert isinstance(split, dt.SentencePairs) and split[0] == ([6, 5], [5])


class TestPaddingMatchesRowLoop:
    """`make_batches` and `ParallelBatch` pad through `Sentences.padded`; the
    row loop of `reference_batch` is the specification."""

    @staticmethod
    def ragged(n, seed):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 9, size=(n, 2))
        lengths[::4] = 1  # 1-token sentences on both sides
        return [(rng.integers(5, 50, size=a).tolist(), rng.integers(5, 50, size=b).tolist())
                for a, b in lengths]

    @pytest.mark.parametrize("n, batch_size", [(23, 5), (7, 7), (5, 16), (1, 1), (12, 4)])
    def test_make_batches_on_a_split(self, n, batch_size):
        pairs = self.ragged(n, n)
        batches = dt.make_batches(dt.SentencePairs.join(pairs), batch_size, 3)
        order = np.random.default_rng(3).permutation(n)
        assert [b.size for b in batches] == [len(order[i : i + batch_size])
                                             for i in range(0, n, batch_size)]
        for k, batch in enumerate(batches):
            rows = order[k * batch_size : (k + 1) * batch_size]
            assert_batch_is(batch, reference_batch([pairs[i][0] for i in rows],
                                                   [pairs[i][1] for i in rows]))

    def test_list_of_pairs_batches_as_its_split(self):
        pairs = self.ragged(17, 1)
        for a, b in zip(dt.make_batches(pairs, 4, 9),
                        dt.make_batches(dt.SentencePairs.join(pairs), 4, 9)):
            assert_batch_is(a, (b.source, b.target_input, b.target_output))

    def test_making_the_batches_pads_nothing(self, monkeypatch):
        padded = []
        real = dt.ParallelBatch.take
        monkeypatch.setattr(dt.ParallelBatch, "take",
                            staticmethod(lambda pairs, rows: padded.append(rows) or real(pairs, rows)))
        batches = dt.make_batches(dt.SentencePairs.join(self.ragged(23, 4)), 5, 3)
        tail = batches[2:]
        assert len(batches) == 5 and len(tail) == 3 and padded == []
        assert tail[0].size == 5 and len(padded) == 1

    def test_index_slice_and_repeated_iteration_pad_as_the_row_loop(self):
        n, batch_size = 23, 5
        pairs = self.ragged(n, 5)
        batches = dt.make_batches(dt.SentencePairs.join(pairs), batch_size, 3)
        order = np.random.default_rng(3).permutation(n)
        expected = [reference_batch([pairs[i][0] for i in rows], [pairs[i][1] for i in rows])
                    for rows in (order[k : k + batch_size] for k in range(0, n, batch_size))]
        assert len(batches) == len(expected) == 5
        assert_batch_is(batches[1], expected[1])
        assert_batch_is(batches[-1], expected[-1])
        tail = batches[1:4]
        assert isinstance(tail, type(batches)) and len(tail) == 3
        for got, want in zip(tail, expected[1:4]):
            assert_batch_is(got, want)
        assert_batch_is(tail[-1], expected[3])
        for _ in range(2):
            got = list(batches)
            assert len(got) == len(expected)
            for batch, want in zip(got, expected):
                assert_batch_is(batch, want)

    def test_parallel_batch_from_lists(self):
        pairs = self.ragged(9, 2)
        src, tgt = [s for s, _ in pairs], [t for _, t in pairs]
        assert_batch_is(dt.ParallelBatch(src, tgt), reference_batch(src, tgt))
        # numpy rows, as a caller may hold them
        rows = [np.asarray(s) for s in src]
        assert_batch_is(dt.ParallelBatch(rows, tgt), reference_batch(src, tgt))


class TestBatching:
    def pairs(self, n):
        rng = np.random.default_rng(0)
        return [(list(rng.integers(5, 20, size=rng.integers(2, 6))),
                 list(rng.integers(5, 20, size=rng.integers(2, 6)))) for _ in range(n)]

    def test_batch_sizes(self):
        batches = dt.make_batches(self.pairs(5), 2, 0)
        assert [b.size for b in batches] == [2, 2, 1]

    def test_same_seed_same_order(self):
        pairs = self.pairs(10)
        a = dt.make_batches(pairs, 3, 7)
        b = dt.make_batches(pairs, 3, 7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.source, y.source)

    def test_teacher_forcing_shift(self):
        batch = dt.ParallelBatch([[9, 8]], [[5, 6]])
        np.testing.assert_array_equal(batch.target_input[0], [vb.BOS_ID, 5, 6])
        np.testing.assert_array_equal(batch.target_output[0], [5, 6, vb.EOS_ID])

    def test_shift_alignment_on_padded_batch(self):
        batch = dt.ParallelBatch([[9], [8, 7]], [[5, 6, 7], [5]])
        nonpad = batch.target_input != vb.PAD_ID
        # input shifted left one position equals output on shared non-pad span
        np.testing.assert_array_equal(
            batch.target_input[0, 1:][nonpad[0, 1:]], batch.target_output[0, :-1][nonpad[0, 1:]])

    def test_padding_is_suffix_only(self):
        batch = dt.ParallelBatch([[9], [8, 7, 6]], [[5, 6], [5]])
        for row in np.vstack([batch.source, batch.target_input]):
            pad_positions = np.nonzero(row == vb.PAD_ID)[0]
            if pad_positions.size:
                assert (row[pad_positions[0] :] == vb.PAD_ID).all()

    @given(st.integers(1, 9), st.integers(1, 30), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_every_pair_covered_once(self, batch_size, n_pairs, seed):
        pairs = [([i + 10], [i + 10]) for i in range(n_pairs)]
        batches = dt.make_batches(pairs, batch_size, seed)
        seen = sorted(int(b.source[i, 0]) for b in batches for i in range(b.size))
        assert seen == [i + 10 for i in range(n_pairs)]

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            dt.make_batches(self.pairs(3), 0, 0)
