import os

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
    assert bundle.raw["test"] == [(["c", "b"], ["z", "y"]), (["a", "d"], ["x", "w"])]
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
