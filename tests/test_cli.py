import csv
import os

import numpy as np
import pytest

from tokendrop import autodiff as ad
from tokendrop.cli import main
from tokendrop.vocab import Vocabulary

TINY = ("task.n_train=24", "task.n_valid=4", "task.n_test=3", "task.source_vocab_size=10",
        "task.target_vocab_size=10", "task.len_max=6", "model.d_model=8", "model.d_ffn=16",
        "model.n_layers=1", "model.n_heads=2", "train.max_steps=2", "train.batch_size=8",
        "train.warmup_steps=1", "train.validate_every=2", "eval.noise_rates=0,0.1",
        "eval.noise_samples=2", "eval.max_decode_len=8", "eval.sweep_rates=0,0.2")


def sets(overrides):
    return [arg for ov in overrides for arg in ("--set", ov)]


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli") / "run")
    assert main(["train", "--out", out, "--seed", "3", *sets(TINY)]) == 0
    return out


def test_train_writes_a_self_describing_run(run_dir):
    for name in ("config.ini", "checkpoint.npz", "metrics.jsonl", "vocab.src", "vocab.tgt"):
        assert os.path.exists(os.path.join(run_dir, name)), name
    with open(os.path.join(run_dir, "config.ini"), encoding="utf-8") as fh:
        assert "seed = 3" in fh.read()


def test_evaluate_uses_the_run_decode_length(run_dir, tmp_path):
    hyps = tmp_path / "hyps.txt"
    assert main(["evaluate", "--run", run_dir, "--hypotheses", str(hyps)]) == 0
    assert len(read_csv(os.path.join(run_dir, "bleu.csv"))) == 1
    # the two-step model never emits EOS, so every hypothesis runs to the decode length
    assert [len(line.split()) for line in hyps.read_text().splitlines()] == [8, 8, 8]
    assert main(["evaluate", "--run", run_dir, "--max-len", "1", "--hypotheses", str(hyps)]) == 0
    assert [len(line.split()) for line in hyps.read_text().splitlines()] == [1, 1, 1]


def test_robustness_reads_the_run_eval_section(run_dir):
    assert main(["robustness", "--run", run_dir]) == 0
    rows = read_csv(os.path.join(run_dir, "robustness.csv"))
    assert [float(r["rate"]) for r in rows] == [0.0, 0.1]


def test_robustness_flags_override_the_run(run_dir):
    assert main(["robustness", "--run", run_dir, "--rates", "0.2", "0.3", "--samples", "1",
                 "--eval-seed", "4", "--max-len", "2"]) == 0
    rows = read_csv(os.path.join(run_dir, "robustness.csv"))
    assert [float(r["rate"]) for r in rows] == [0.2, 0.3]
    assert all(float(r["std_bleu"]) == 0.0 for r in rows)  # one sample per rate


def test_evaluate_reads_the_test_files_of_a_parallel_corpus_run(tmp_path):
    corpus = {"train": ["a b c", "b c", "c a b", "a"], "valid": ["b a"], "test": ["c b", "a c a"]}
    files = []
    for split, lines in corpus.items():
        for side in ("src", "tgt"):
            path = tmp_path / f"{split}.{side}"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            files.append(f"data.{split}_{side}={path}")
    out = str(tmp_path / "run")
    assert main(["train", "--out", out, *sets([*TINY, "data.synthetic=false", *files])]) == 0
    assert not os.path.exists(os.path.join(out, "data"))
    hyps = tmp_path / "hyps.txt"
    assert main(["evaluate", "--run", out, "--hypotheses", str(hyps)]) == 0
    assert len(hyps.read_text().splitlines()) == 2


def test_train_on_an_empty_training_split_exits_2(tmp_path, capsys):
    # Saved vocabularies skip building one from the (empty) training split,
    # so the empty split reaches training itself.
    files = []
    for split, line in (("train", ""), ("valid", "a b\n"), ("test", "b a\n")):
        for side in ("src", "tgt"):
            path = tmp_path / f"{split}.{side}"
            path.write_text(line, encoding="utf-8")
            files.append(f"data.{split}_{side}={path}")
    for side in ("src", "tgt"):
        path = tmp_path / f"vocab.{side}"
        Vocabulary(["a", "b"]).save(path)
        files.append(f"data.vocab_{side}={path}")
    out = str(tmp_path / "run")
    assert main(["train", "--out", out, *sets([*TINY, "data.synthetic=false", *files])]) == 2
    assert "error: cannot train: the training split is empty" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["robustness", "--samples", "0"],
                                  ["robustness", "--rates", "1.5"],
                                  ["evaluate", "--max-len", "0"]])
def test_bad_eval_flag_exits_2(run_dir, argv, capsys):
    assert main([argv[0], "--run", run_dir, *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_rates_from_config_or_flag(tmp_path):
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--out", out, *sets(TINY)]) == 0
    assert [float(r["p_s"]) for r in read_csv(os.path.join(out, "sweep.csv"))] == [0.0, 0.2]
    assert main(["sweep", "--out", out, "--rates", "0.1", *sets(TINY)]) == 0
    assert [float(r["p_s"]) for r in read_csv(os.path.join(out, "sweep.csv"))] == [0.1]


def truncated(data):
    return data[: len(data) // 2]


def one_entry_short(data):
    return b"".join(data.splitlines(keepends=True)[:-1])


@pytest.mark.parametrize("name, damage, message", [
    ("checkpoint.npz", truncated, "cannot read checkpoint"),
    ("vocab.tgt", one_entry_short, "target vocabulary has"),
])
def test_damaged_run_exits_2(run_dir, tmp_path, capsys, name, damage, message):
    broken = tmp_path / "broken"
    broken.mkdir()
    for part in ("config.ini", "checkpoint.npz", "vocab.src", "vocab.tgt"):
        with open(os.path.join(run_dir, part), "rb") as fh:
            data = fh.read()
        (broken / part).write_bytes(damage(data) if part == name else data)
    assert main(["evaluate", "--run", str(broken)]) == 2
    assert message in capsys.readouterr().err


def test_non_finite_gradient_exits_2(tmp_path, monkeypatch, capsys):
    real_backward = ad.backward

    def backward(loss, params=None):
        real_backward(loss, params)
        params[0].grad.flat[0] = np.nan

    monkeypatch.setattr(ad, "backward", backward)
    assert main(["train", "--out", str(tmp_path / "run"), *sets(TINY)]) == 2
    assert "error: global gradient norm is non-finite: nan" in capsys.readouterr().err
