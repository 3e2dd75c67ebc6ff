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
        assert encoded["valid"] == encoded["test"] == [] and len(encoded["train"]) == 50
        assert corpus.token_pairs("valid") == []


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
        assert encoded["train"] == [([6, vb.UNK_ID, 6], [6]), ([vb.UNK_ID], [7, 6])]
        assert encoded["test"] == [([5, 6], [5])]
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
