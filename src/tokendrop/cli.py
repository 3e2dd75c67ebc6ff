"""Command-line surface: train, evaluate, robustness, sweep."""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config
from .evaluation import noise_eval
from .objectives import NonFiniteLossError
from .pipeline import (CHECKPOINT_NAME, CONFIG_SNAPSHOT_NAME, VOCAB_SRC_NAME, VOCAB_TGT_NAME,
                       drop_rate_sweep, evaluate_clean, train_run, write_csv)
from .data import intern_corpus, load_parallel
from .training import CheckpointError, NonFiniteGradientError, restore
from .vocab import Vocabulary


def _add_common(p):
    p.add_argument("--config", default=None, help="ini-style run configuration")
    p.add_argument("--out", default="runs/default", help="output directory")
    p.add_argument("--seed", dest="train.seed", type=int, help="override train.seed")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.KEY=VALUE", help="config override (repeatable)")


def _add_run(p):
    p.add_argument("--run", required=True, help="run directory containing checkpoint + vocabs")
    p.add_argument("--src", default=None, help="test source file (default: the run's test set)")
    p.add_argument("--tgt", default=None, help="test reference file (default: the run's test set)")
    p.add_argument("--max-len", dest="eval.max_decode_len", type=int,
                   help="decode length (default: the run's eval.max_decode_len)")


def _resolved_config(args, path):
    """The config at `path` with the --set overrides, then each flag the user
    gave; a flag whose argparse dest is a dotted config key overrides that key."""
    overrides = list(getattr(args, "overrides", ()))
    for key, value in vars(args).items():
        if "." in key and value is not None:
            value = ",".join(map(str, value)) if isinstance(value, list) else value
            overrides.append(f"{key}={value}")
    return load_config(path, overrides)


def _load_run(args):
    """Open a completed run: its config snapshot with the flags applied, the
    checkpoint, the target vocabulary and the encoded test pairs."""
    cfg = _resolved_config(args, os.path.join(args.run, CONFIG_SNAPSHOT_NAME))
    state = restore(os.path.join(args.run, CHECKPOINT_NAME))
    src_vocab = Vocabulary.load(os.path.join(args.run, VOCAB_SRC_NAME))
    tgt_vocab = Vocabulary.load(os.path.join(args.run, VOCAB_TGT_NAME))
    for side, vocab, size in (("source", src_vocab, state.model_cfg.src_vocab_size),
                              ("target", tgt_vocab, state.model_cfg.tgt_vocab_size)):
        if len(vocab) != size:
            raise CheckpointError(f"{side} vocabulary has {len(vocab)} entries but the "
                                  f"checkpoint was trained with {size}")
    test_src, test_tgt = cfg.data.test_src, cfg.data.test_tgt
    if cfg.data.synthetic:  # train_run wrote the generated test split into the run
        test_src, test_tgt = (os.path.join(args.run, "data", "test." + e) for e in ("src", "tgt"))
    src, tgt = args.src or test_src, args.tgt or test_tgt
    test = intern_corpus({"test": load_parallel(src, tgt)}).encode(src_vocab, tgt_vocab)["test"]
    return cfg, state, tgt_vocab, test


def cmd_train(args):
    cfg = _resolved_config(args, args.config)

    def on_record(rec):
        ppl = f"  valid_ppl={rec['valid_ppl']:.3f}" if rec["valid_ppl"] is not None else ""
        print(f"step {rec['step']:>6}  joint={rec['joint']:.4f}  l_m={rec['l_m']:.4f}"
              f"  l_rtd={rec['l_rtd']:.4f}  l_dtp={rec['l_dtp']:.4f}{ppl}", flush=True)

    train_run(cfg, args.out, on_record=on_record)
    print(f"run artifacts written to {args.out}")
    return 0


def cmd_evaluate(args):
    cfg, state, tgt_vocab, pairs = _load_run(args)
    report, hyps = evaluate_clean(state, pairs, cfg.eval.max_decode_len)
    print(report)
    write_csv(os.path.join(args.run, "bleu.csv"),
              ["bleu", "p1", "p2", "p3", "p4", "brevity_penalty", "hyp_length", "ref_length"],
              [{"bleu": report.bleu, "p1": report.precisions[0], "p2": report.precisions[1],
                "p3": report.precisions[2], "p4": report.precisions[3],
                "brevity_penalty": report.brevity_penalty,
                "hyp_length": report.hyp_length, "ref_length": report.ref_length}])
    if args.hypotheses:
        with open(args.hypotheses, "w", encoding="utf-8") as fh:
            for hyp in hyps:
                fh.write(" ".join(tgt_vocab.decode(hyp)) + "\n")
    return 0


def cmd_robustness(args):
    cfg, state, _, pairs = _load_run(args)
    rows = noise_eval(pairs, state, cfg.eval.noise_spec())
    out_csv = os.path.join(args.run, "robustness.csv")
    write_csv(out_csv, ["rate", "mean_bleu", "std_bleu"], rows)
    for row in rows:
        print(f"rate={row['rate']:.2f}  mean_bleu={row['mean_bleu']:.2f}"
              f"  std_bleu={row['std_bleu']:.2f}")
    print(f"wrote {out_csv}")
    return 0


def cmd_sweep(args):
    cfg = _resolved_config(args, args.config)
    failures = []

    def on_row(row):
        if row.get("error"):
            failures.append(row)
            print(f"p_s={row['p_s']:.2f}  FAILED: {row['error']}", flush=True)
        else:
            print(f"p_s={row['p_s']:.2f}  bleu={row['bleu']:.2f}", flush=True)

    rows = drop_rate_sweep(cfg, args.out, on_row=on_row)
    out_csv = os.path.join(args.out, "sweep.csv")
    write_csv(out_csv, ["p_s", "bleu"],
              [{"p_s": r["p_s"], "bleu": r["bleu"]} for r in rows])
    print(f"wrote {out_csv}")
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(prog="tokendrop",
                                     description="Token-drop translation training kit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="greedy-decode a test set and report BLEU")
    _add_run(p)
    p.add_argument("--hypotheses", default=None, help="write decoded sentences here")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("robustness", help="BLEU under test-time unk noise")
    _add_run(p)
    p.add_argument("--rates", dest="eval.noise_rates", type=float, nargs="+", metavar="RATE",
                   help="noise rates (default: the run's eval.noise_rates)")
    p.add_argument("--samples", dest="eval.noise_samples", type=int,
                   help="noisings per nonzero rate (default: the run's eval.noise_samples)")
    p.add_argument("--eval-seed", dest="eval.seed", type=int,
                   help="noise seed (default: the run's eval.seed)")
    p.set_defaults(fn=cmd_robustness)

    p = sub.add_parser("sweep", help="train once per source drop rate, report BLEU")
    _add_common(p)
    p.add_argument("--rates", dest="eval.sweep_rates",
                   help="comma/space separated drop rates (default: eval.sweep_rates)")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, NonFiniteLossError, NonFiniteGradientError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
