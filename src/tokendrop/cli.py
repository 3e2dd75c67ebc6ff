"""Command-line surface: train, evaluate, robustness, sweep."""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config
from .evaluation import NoiseEvalSpec, noise_eval
from .objectives import NonFiniteLossError
from .pipeline import (CHECKPOINT_NAME, VOCAB_SRC_NAME, VOCAB_TGT_NAME, drop_rate_sweep,
                       evaluate_clean, train_run, write_csv)
from .data import encode_pairs, load_parallel
from .training import CheckpointError, restore
from .vocab import Vocabulary


def _add_common(p):
    p.add_argument("--config", default=None, help="ini-style run configuration")
    p.add_argument("--out", default="runs/default", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override train.seed")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.KEY=VALUE", help="config override (repeatable)")


def _resolved_config(args):
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"train.seed={args.seed}")
    return load_config(args.config, overrides)


def _load_run(run_dir):
    """Restore a completed run: checkpoint plus its vocabularies."""
    state = restore(os.path.join(run_dir, CHECKPOINT_NAME))
    src_vocab = Vocabulary.load(os.path.join(run_dir, VOCAB_SRC_NAME))
    tgt_vocab = Vocabulary.load(os.path.join(run_dir, VOCAB_TGT_NAME))
    if len(src_vocab) != state.model_cfg.src_vocab_size:
        raise CheckpointError(
            f"source vocabulary has {len(src_vocab)} entries but the checkpoint "
            f"was trained with {state.model_cfg.src_vocab_size}")
    if len(tgt_vocab) != state.model_cfg.tgt_vocab_size:
        raise CheckpointError(
            f"target vocabulary has {len(tgt_vocab)} entries but the checkpoint "
            f"was trained with {state.model_cfg.tgt_vocab_size}")
    return state, src_vocab, tgt_vocab


def _test_pairs(args, run_dir, src_vocab, tgt_vocab):
    src = args.src or os.path.join(run_dir, "data", "test.src")
    tgt = args.tgt or os.path.join(run_dir, "data", "test.tgt")
    return encode_pairs(load_parallel(src, tgt), src_vocab, tgt_vocab)


def cmd_train(args):
    cfg = _resolved_config(args)

    def on_record(rec):
        ppl = f"  valid_ppl={rec['valid_ppl']:.3f}" if rec["valid_ppl"] is not None else ""
        print(f"step {rec['step']:>6}  joint={rec['joint']:.4f}  l_m={rec['l_m']:.4f}"
              f"  l_rtd={rec['l_rtd']:.4f}  l_dtp={rec['l_dtp']:.4f}{ppl}", flush=True)

    train_run(cfg, args.out, on_record=on_record)
    print(f"run artifacts written to {args.out}")
    return 0


def cmd_evaluate(args):
    state, src_vocab, tgt_vocab = _load_run(args.run)
    pairs = _test_pairs(args, args.run, src_vocab, tgt_vocab)
    report, hyps = evaluate_clean(state, pairs, args.max_len)
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
    state, src_vocab, tgt_vocab = _load_run(args.run)
    pairs = _test_pairs(args, args.run, src_vocab, tgt_vocab)
    spec = NoiseEvalSpec(rates=tuple(args.rates), samples=args.samples,
                         seed=args.eval_seed, max_decode_len=args.max_len)
    rows = noise_eval(pairs, state, spec)
    out_csv = os.path.join(args.run, "robustness.csv")
    write_csv(out_csv, ["rate", "mean_bleu", "std_bleu"], rows)
    for row in rows:
        print(f"rate={row['rate']:.2f}  mean_bleu={row['mean_bleu']:.2f}"
              f"  std_bleu={row['std_bleu']:.2f}")
    print(f"wrote {out_csv}")
    return 0


def cmd_sweep(args):
    cfg = _resolved_config(args)
    rates = args.rates if args.rates else list(cfg.eval.sweep_rates)
    failures = []

    def on_row(row):
        if row.get("error"):
            failures.append(row)
            print(f"p_s={row['p_s']:.2f}  FAILED: {row['error']}", flush=True)
        else:
            print(f"p_s={row['p_s']:.2f}  bleu={row['bleu']:.2f}", flush=True)

    rows = drop_rate_sweep(cfg, rates, args.out, on_row=on_row)
    out_csv = os.path.join(args.out, "sweep.csv")
    write_csv(out_csv, ["p_s", "bleu"],
              [{"p_s": r["p_s"], "bleu": r["bleu"]} for r in rows])
    print(f"wrote {out_csv}")
    return 1 if failures else 0


def _float_items(s):
    return [float(x) for x in s.replace(",", " ").split()]


def build_parser():
    parser = argparse.ArgumentParser(prog="tokendrop",
                                     description="Token-drop translation training kit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="greedy-decode a test set and report BLEU")
    p.add_argument("--run", required=True, help="run directory containing checkpoint + vocabs")
    p.add_argument("--src", default=None, help="test source file (default: run data)")
    p.add_argument("--tgt", default=None, help="test reference file (default: run data)")
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--hypotheses", default=None, help="write decoded sentences here")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("robustness", help="BLEU under test-time unk noise")
    p.add_argument("--run", required=True)
    p.add_argument("--src", default=None)
    p.add_argument("--tgt", default=None)
    p.add_argument("--rates", type=float, nargs="+", default=[0.0, 0.05, 0.10, 0.15])
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--eval-seed", type=int, default=0)
    p.add_argument("--max-len", type=int, default=64)
    p.set_defaults(fn=cmd_robustness)

    p = sub.add_parser("sweep", help="train once per source drop rate, report BLEU")
    _add_common(p)
    p.add_argument("--rates", type=_float_items, default=None,
                   help="comma/space separated drop rates (default: eval.sweep_rates)")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, NonFiniteLossError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
