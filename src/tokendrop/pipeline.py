"""End-to-end runs: data preparation, training with artifacts on disk, and
the drop-rate sweep experiment."""

from __future__ import annotations

import copy
import csv
import os
from dataclasses import dataclass

from .config import dump_config
from .data import (CodedCorpus, generate_synthetic_corpus, intern_corpus, load_parallel,
                   write_parallel)
from .evaluation import corpus_bleu, greedy_decode_batch
from .training import TrainState, checkpoint, run_training
from .vocab import Vocabulary, build_vocabulary

CHECKPOINT_NAME = "checkpoint.npz"
METRICS_NAME = "metrics.jsonl"
CONFIG_SNAPSHOT_NAME = "config.ini"
VOCAB_SRC_NAME = "vocab.src"
VOCAB_TGT_NAME = "vocab.tgt"


@dataclass
class DataBundle:
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    train: list  # encoded (source ids, target ids) pairs
    valid: list
    test: list
    corpus: CodedCorpus  # every split as token codes, for writing corpus files


def prepare_data(cfg):
    """Generate or load the corpus and build (or load) the vocabularies."""
    d = cfg.data
    if d.synthetic:
        corpus = generate_synthetic_corpus(d.task)
    else:
        corpus = intern_corpus({
            "train": load_parallel(d.train_src, d.train_tgt),
            "valid": load_parallel(d.valid_src, d.valid_tgt),
            "test": load_parallel(d.test_src, d.test_tgt),
        })
    if d.vocab_src and d.vocab_tgt:
        src_vocab = Vocabulary.load(d.vocab_src)
        tgt_vocab = Vocabulary.load(d.vocab_tgt)
    else:
        src, tgt = corpus.splits["train"]
        src_vocab = build_vocabulary(src.codes, corpus.source_names, d.max_vocab)
        tgt_vocab = build_vocabulary(tgt.codes, corpus.target_names, d.max_vocab)
    encoded = corpus.encode(src_vocab, tgt_vocab)
    return DataBundle(
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        train=encoded["train"],
        valid=encoded["valid"],
        test=encoded["test"],
        corpus=corpus,
    )


def build_state(cfg, bundle):
    model_cfg = copy.deepcopy(cfg.model)
    model_cfg.src_vocab_size = len(bundle.src_vocab)
    model_cfg.tgt_vocab_size = len(bundle.tgt_vocab)
    return TrainState(model_cfg, cfg.drop, cfg.objective, cfg.train)


def train_run(cfg, out_dir, on_record=None):
    """Train one model and leave a self-describing run directory behind.

    Layout: config.ini (resolved snapshot), vocab.src/vocab.tgt,
    data/{train,valid,test}.{src,tgt} for synthetic tasks, checkpoint.npz,
    metrics.jsonl. Returns (state, bundle, log).
    """
    os.makedirs(out_dir, exist_ok=True)
    bundle = prepare_data(cfg)
    dump_config(cfg, os.path.join(out_dir, CONFIG_SNAPSHOT_NAME))
    bundle.src_vocab.save(os.path.join(out_dir, VOCAB_SRC_NAME))
    bundle.tgt_vocab.save(os.path.join(out_dir, VOCAB_TGT_NAME))
    if cfg.data.synthetic:
        for split in bundle.corpus.splits:
            write_parallel(bundle.corpus.token_pairs(split), os.path.join(out_dir, "data"), split)

    state = build_state(cfg, bundle)
    log = run_training(state, bundle.train, bundle.valid, on_record=on_record)
    checkpoint(state, os.path.join(out_dir, CHECKPOINT_NAME))
    log.write_jsonl(os.path.join(out_dir, METRICS_NAME))
    return state, bundle, log


def write_csv(path, fieldnames, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def evaluate_clean(state, test_pairs, max_decode_len):
    sources = [s for s, _ in test_pairs]
    refs = [r for _, r in test_pairs]
    hyps = greedy_decode_batch(sources, state, max_decode_len)
    return corpus_bleu(hyps, refs), hyps


def drop_rate_sweep(cfg, out_dir, on_row=None):
    """Train one model per source drop rate in cfg.eval.sweep_rates (everything
    else fixed) and record its clean test BLEU. Failures are reported per rate;
    remaining rates still run. Returns the row list."""
    rows = []
    for rate in cfg.eval.sweep_rates:
        run_cfg = copy.deepcopy(cfg)
        run_cfg.drop.p_source = float(rate)
        sub_dir = os.path.join(out_dir, f"ps_{rate:g}")
        try:
            state, bundle, _ = train_run(run_cfg, sub_dir)
            report, _ = evaluate_clean(state, bundle.test, cfg.eval.max_decode_len)
            row = {"p_s": float(rate), "bleu": report.bleu}
        except Exception as exc:  # per-rate isolation, remaining rows still produced
            row = {"p_s": float(rate), "bleu": "", "error": str(exc)}
        rows.append(row)
        if on_row is not None:
            on_row(row)
    return rows
