import hashlib
import json
import os
import tracemalloc

import pytest

from tokendrop import pipeline
from tokendrop.config import load_config
from tokendrop.training import restore
from tokendrop.vocab import UNK_ID, Vocabulary

TINY = ("task.n_train=24", "task.n_valid=4", "task.n_test=3", "task.source_vocab_size=10",
        "task.target_vocab_size=10", "task.len_max=6", "model.d_model=8", "model.d_ffn=16",
        "model.n_layers=1", "model.n_heads=2", "train.max_steps=2", "train.batch_size=8",
        "train.warmup_steps=1", "train.validate_every=2", "eval.max_decode_len=4",
        "eval.sweep_rates=0,0.2,0.3")
CORPUS = {"train": [("a b c", "x y z"), ("b c", "y z"), ("c a", "z x")],
          "valid": [("b a", "y x")],
          "test": [("c b", "z y"), ("a d", "x w")]}


def parallel_files(tmp_path, with_vocabs):
    """Overrides for a corpus on disk; `with_vocabs` adds saved vocabulary files
    that know a token ("d"/"w") the training data never shows."""
    overrides = ["data.synthetic=false"]
    for split, pairs in CORPUS.items():
        for side, i in (("src", 0), ("tgt", 1)):
            path = tmp_path / f"{split}.{side}"
            path.write_text("".join(p[i] + "\n" for p in pairs), encoding="utf-8")
            overrides.append(f"data.{split}_{side}={path}")
    if with_vocabs:
        for side, tokens in (("src", ["c", "a", "d"]), ("tgt", ["w", "x", "y", "z"])):
            path = tmp_path / f"vocab.{side}"
            Vocabulary(tokens).save(path)
            overrides.append(f"data.vocab_{side}={path}")
    return overrides


def test_prepare_data_reads_parallel_files_and_saved_vocabularies(tmp_path):
    bundle = pipeline.prepare_data(load_config(None, parallel_files(tmp_path, True)))
    assert bundle.src_vocab.id_to_token[5:] == ["c", "a", "d"]
    assert bundle.tgt_vocab.id_to_token[5:] == ["w", "x", "y", "z"]
    assert bundle.corpus.token_pairs("test") == [(["c", "b"], ["z", "y"]), (["a", "d"], ["x", "w"])]
    src, tgt = bundle.src_vocab, bundle.tgt_vocab
    # "b" is in the data but not in the saved source vocabulary
    assert bundle.train[0] == ([src.token_to_id["a"], UNK_ID, src.token_to_id["c"]],
                               tgt.encode(["x", "y", "z"]))
    assert bundle.test[1] == (src.encode(["a", "d"]), tgt.encode(["x", "w"]))
    assert [len(bundle.train), len(bundle.valid), len(bundle.test)] == [3, 1, 2]


def test_prepare_data_builds_vocabularies_from_the_training_split(tmp_path):
    bundle = pipeline.prepare_data(load_config(None, parallel_files(tmp_path, False)))
    # most frequent first, ties by first occurrence; test-only tokens are unknown
    assert bundle.src_vocab.id_to_token[5:] == ["c", "a", "b"]
    assert bundle.test[1][0] == [bundle.src_vocab.token_to_id["a"], UNK_ID]


# sha256 (first 16 hex digits) of the JSON of src_vocab.id_to_token,
# tgt_vocab.id_to_token, and the pairs of train, valid and test as lists. A change to the generator's
# draw order (see the tokendrop.data docstring), the mapping, the reordering,
# the vocabulary ranking or the encoding changes them.
BUNDLE_DIGESTS = {
    (): ("fbdb391e7dd25694", "de917df0fc408f9b", "6cb4ca52e6e12f91", "01a3e2c25e568808",
         "08b2a73f5fd52b94"),
    ("task.len_min=24", "task.len_max=48"): (
        "a886cacd50e73a9e", "919f3eacd41aa830", "d023827da4a88f7c", "36538815514d6420",
        "a631de3d5fe42f51"),
    ("task.identity_mapping=true", "task.reorder_window=1"): (
        "fbdb391e7dd25694", "fbdb391e7dd25694", "60c2681575d5824f", "658fce454ed115a7",
        "42333ef4b185190d"),
    ("task.reorder_window=4", "task.len_min=1", "task.len_max=9"): (
        "6b684081cbfaa924", "5454f6c2497640f4", "66ef666a37c9b745", "49ba1403376d6e81",
        "338304adf3b3c1a6"),
    ("data.max_vocab=100",): (  # 95 of 200 source tokens kept, so <unk> ids occur
        "3d18d4bc3ae692c7", "05d810b00ba74f1f", "4169398ab46e382d", "301c27a92c7cba1c",
        "830f0a478a3e9d8e"),
}


def digest(obj):
    return hashlib.sha256(json.dumps(obj).encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("overrides", BUNDLE_DIGESTS, ids=lambda ov: " ".join(ov) or "default")
def test_synthetic_bundle_is_pinned(overrides):
    bundle = pipeline.prepare_data(load_config(None, overrides))
    parts = (bundle.src_vocab.id_to_token, bundle.tgt_vocab.id_to_token,
             list(bundle.train), list(bundle.valid), list(bundle.test))
    assert tuple(digest(p) for p in parts) == BUNDLE_DIGESTS[overrides]
    if overrides == ("data.max_vocab=100",):
        assert any(UNK_ID in src for src, _ in bundle.train)


# tracemalloc peak of a warm `prepare_data` at 24-48 tokens while the corpus
# was drawn by per-sentence `rng.integers` calls; the bulk draw's words and
# masks must not raise it (they measured 17,098,293 bytes)
PREPARE_PEAK_BYTES = 20_713_261


def test_prepare_data_peak_memory_does_not_rise():
    cfg = load_config(None, ["task.len_min=24", "task.len_max=48"])
    pipeline.prepare_data(cfg)  # one-time allocations stay out of the measure
    tracemalloc.start()
    try:
        pipeline.prepare_data(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PREPARE_PEAK_BYTES


def test_empty_valid_and_test_splits_still_prepare_and_train(tmp_path):
    out = tmp_path / "run"
    _, bundle, log = pipeline.train_run(
        load_config(None, [*TINY, "task.n_valid=0", "task.n_test=0"]), str(out))
    assert (len(bundle.train), len(bundle.valid), len(bundle.test)) == (24, 0, 0)
    assert log.records[-1]["valid_ppl"] is None
    assert (out / "data" / "valid.src").read_text() == (out / "data" / "test.tgt").read_text() == ""
    assert len((out / "data" / "train.src").read_text().splitlines()) == 24


def test_build_state_sets_vocab_sizes_without_mutating_the_config(tmp_path):
    cfg = load_config(None, parallel_files(tmp_path, True))
    before = (cfg.model.src_vocab_size, cfg.model.tgt_vocab_size)
    state = pipeline.build_state(cfg, pipeline.prepare_data(cfg))
    assert (state.model_cfg.src_vocab_size, state.model_cfg.tgt_vocab_size) == (8, 9)
    assert (cfg.model.src_vocab_size, cfg.model.tgt_vocab_size) == before
    assert state.model_cfg is not cfg.model
    assert [state.params[n].data.shape[0] for n in ("src_emb", "tgt_emb")] == [8, 9]


@pytest.mark.parametrize("synthetic", [True, False])
def test_train_run_layout(tmp_path, synthetic):
    overrides = [*TINY] if synthetic else [*TINY, *parallel_files(tmp_path, True)]
    out = tmp_path / "run"
    state, _, log = pipeline.train_run(load_config(None, overrides), str(out))
    expected = {"config.ini", "vocab.src", "vocab.tgt", "checkpoint.npz", "metrics.jsonl"}
    assert set(os.listdir(out)) == expected | ({"data"} if synthetic else set())
    if synthetic:
        assert sorted(os.listdir(out / "data")) == [f"{split}.{side}" for split in
                                                    ("test", "train", "valid")
                                                    for side in ("src", "tgt")]
    assert len((out / "metrics.jsonl").read_text().splitlines()) == len(log.records) == 1
    assert restore(out / "checkpoint.npz").step == state.step == 2
    assert "max_steps = 2" in (out / "config.ini").read_text()


def test_drop_rate_sweep_isolates_a_failing_rate(tmp_path, monkeypatch):
    real_run_training = pipeline.run_training

    def run_training(state, *args, **kwargs):
        if state.drop_cfg.p_source == 0.2:
            raise RuntimeError("diverged")
        return real_run_training(state, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_training", run_training)
    seen = []
    rows = pipeline.drop_rate_sweep(load_config(None, TINY), str(tmp_path), on_row=seen.append)
    assert seen == rows
    assert [r["p_s"] for r in rows] == [0.0, 0.2, 0.3]
    assert rows[1] == {"p_s": 0.2, "bleu": "", "error": "diverged"}
    for row in (rows[0], rows[2]):
        assert "error" not in row and 0.0 <= row["bleu"] <= 100.0
    assert sorted(os.listdir(tmp_path)) == ["ps_0", "ps_0.2", "ps_0.3"]
    assert os.path.exists(tmp_path / "ps_0.3" / "checkpoint.npz")
