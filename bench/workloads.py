"""The benchmark's three workloads: set-up, timed loop, output checks, metrics.

Each workload is a closed loop: one caller in one process runs a fixed unit
of work through the package's public entry points, waits for it, and runs it
again until the time budget is spent. Every repetition starts from the same
state, so each does identical work and must give bitwise identical outputs.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import fixture
from tracer import Tracer, layer_metrics, patch

WORKLOADS = ("train_short", "train_long", "robustness")

@dataclass
class Plan:
    """Sizes of the workloads. Tests shrink them; the benchmark uses the defaults."""

    # Set-ups before the timed loop, then after each timed repetition. Machine
    # speed drifts over seconds, so set-up is sampled across the whole run.
    setup_reps: int = 5
    setup_reps_between: int = 4
    # Untimed steps taken before the timed window, then the window itself.
    warmup_steps: dict = field(default_factory=lambda: {"train_short": 4, "train_long": 2})
    window_steps: dict = field(default_factory=lambda: {"train_short": 48, "train_long": 12})
    # Overrides applied to the config of every train workload (tests shrink the model).
    train_base: tuple = ()
    long_lengths: tuple = ("task.len_min=24", "task.len_max=48")
    fixture_overrides: tuple = fixture.FIXTURE_OVERRIDES
    # Added to the fixture's config, which sets max_decode_len.
    noise: tuple = ("eval.noise_rates=0.0,0.05", "eval.noise_samples=8")


def load_modules():
    names = ("autodiff", "config", "data", "evaluation", "model", "pipeline", "training", "vocab")
    return {n: importlib.import_module(f"tokendrop.{n}") for n in names}


class Outcome:
    """What one run produced: counts, timings, digests and failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_s = []
        self.unit_s = {False: [], True: []}  # per train step or decode pass; key: traced
        self.calls = {False: [], True: []}  # (wall s, tokens, sentences) per timed call
        self.digests = {False: set(), True: set()}
        self.work = set()  # what one timed call did, in words; shows a changed fixture
        self.valid_ppl = None
        self.metrics = {}
        self.layers = {}
        self.tracer = None
        self.p_source = None

    def problem(self, text):
        if len(self.problems) < 20:
            self.problems.append(text)

    @property
    def correct(self):
        return not self.problems and self.failed == 0


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _recording(tracer, root):
    return tracer.recording(root) if tracer is not None else contextlib.nullcontext()


def _setups(build, reps, tracer, out):
    """Run the set-up `reps` times; keep the last result, record each wall time."""
    result = None
    for _ in range(reps):
        gc.collect()  # every set-up starts from the same collector state
        with _recording(tracer, "bench.setup"):
            t0 = time.perf_counter()
            result = build()
            out.setup_s.append(time.perf_counter() - t0)
    return result


def _loop(seconds, unit, tracer, between):
    """Repeat `unit(traced)`, then `between()`, while the repetitions, with one
    more as long as the last, still take at most `seconds`.

    The traced run alternates untraced and traced repetitions, so both see the
    same machine conditions; it needs at least one of each.
    """
    spent = 0.0
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        t0 = time.perf_counter()
        with _recording(tracer if traced else None, "bench.timed"):
            ok = unit(traced)
        took = time.perf_counter() - t0
        spent += took
        i += 1
        if not ok:
            return
        between()
        if i >= (1 if tracer is None else 2) and spent + took > seconds:
            return


def _train(workload, seed, seconds, plan, m, out, tracer):
    warm, window = plan.warmup_steps[workload], plan.window_steps[workload]
    overrides = [*plan.train_base, f"task.seed={seed}", f"train.seed={seed}", f"drop.seed={seed}",
                 f"train.max_steps={warm + window}", f"train.validate_every={warm + window}"]
    if workload == "train_long":
        overrides += plan.long_lengths
    training = m["training"]

    def build():
        cfg = m["config"].load_config(None, overrides)
        bundle = m["pipeline"].prepare_data(cfg)
        return bundle, m["pipeline"].build_state(cfg, bundle)

    bundle, state = _setups(build, plan.setup_reps, tracer, out)
    state.train_cfg.max_steps = warm  # warm-up: leave the initial point, untimed
    training.run_training(state, bundle.train)
    state.train_cfg.max_steps = warm + window
    out.p_source = state.drop_cfg.p_source
    start_state = copy.deepcopy(state)

    steps = []  # (seconds, LossReport, batch size, grad norm) of the current window
    norms = []  # grad norm returned by the clip inside the running step

    def timed_step(fn):
        def wrapper(batch, st):
            t0 = time.perf_counter()
            report = fn(batch, st)
            seconds = time.perf_counter() - t0
            steps.append((seconds, report, batch.size, norms.pop() if norms else math.nan))
            return report
        return wrapper

    def grad_norm(fn):
        def wrapper(grads, max_norm):
            norms.append(fn(grads, max_norm))
            return norms[-1]
        return wrapper


    def unit(traced):
        steps.clear()
        norms.clear()
        st = copy.deepcopy(start_state)
        t0 = time.perf_counter()
        try:
            log = training.run_training(st, bundle.train, bundle.valid)
        except Exception as exc:  # a step that raises is a failed operation
            out.attempted += len(steps) + 1
            out.failed += 1
            out.problem(f"train step {st.step + 1} raised {exc!r}")
            return False
        wall = time.perf_counter() - t0
        out.attempted += len(steps)
        losses = np.array([[r.l_m, r.l_rtd, r.l_dtp, r.joint, g] for _, r, _, g in steps])
        bad = int((~np.isfinite(losses).all(axis=1)).sum())
        if bad:
            out.failed += bad
            out.problem(f"{bad} train steps with a non-finite loss or grad norm")
        if len(steps) != window:
            out.problem(f"window ran {len(steps)} steps, expected {window}")
        ppl = log.records[-1]["valid_ppl"]
        if not (math.isfinite(ppl) and ppl >= 1.0):
            out.problem(f"validation perplexity {ppl} is not a finite value >= 1")
        out.valid_ppl = ppl
        out.digests[traced].add(_digest(losses, np.float64(ppl)))
        out.unit_s[traced] += [s for s, _, _, _ in steps]
        tokens = sum(r.target_tokens for _, r, _, _ in steps)
        out.calls[traced].append((wall, tokens, sum(b for _, _, b, _ in steps)))
        out.work.add(f"{len(steps)} train steps, {tokens} target tokens")
        return True

    with contextlib.ExitStack() as probes:
        patch(probes, training, "clip_gradients", grad_norm)
        patch(probes, training, "train_step", timed_step)
        _loop(seconds, unit, tracer,
              lambda: _setups(build, plan.setup_reps_between, tracer, out))


def _robustness(seed, seconds, plan, m, out, tracer, fixture_dir):
    overrides = [*plan.fixture_overrides, *plan.noise, f"eval.seed={seed}"]
    evaluation, training = m["evaluation"], m["training"]

    def build():
        cfg = m["config"].load_config(None, overrides)
        bundle = m["pipeline"].prepare_data(cfg)
        return cfg, bundle, training.restore(os.path.join(fixture_dir, fixture.CHECKPOINT))

    cfg, bundle, state = _setups(build, plan.setup_reps, tracer, out)
    vocab_size = state.model_cfg.tgt_vocab_size
    if len(bundle.tgt_vocab) != vocab_size:
        out.problem(f"fixture has {vocab_size} target ids, the data {len(bundle.tgt_vocab)}")
    with open(os.path.join(fixture_dir, fixture.SLICE), encoding="utf-8") as fh:
        pairs = [bundle.test[i] for i in json.load(fh)["test_indices"]]
    spec = evaluation.NoiseEvalSpec(rates=tuple(cfg.eval.noise_rates),
                                    samples=cfg.eval.noise_samples, seed=cfg.eval.seed,
                                    max_decode_len=cfg.eval.max_decode_len)
    ref_tokens = sum(len(ref) for _, ref in pairs)
    evaluation.greedy_decode(pairs[0][0], state, 2)  # warm-up, untimed

    passes = []  # (seconds, hypotheses) of the current noise_eval call

    def timed_pass(fn):
        def wrapper(sources, st, max_len):
            t0 = time.perf_counter()
            hyps = fn(sources, st, max_len)
            passes.append((time.perf_counter() - t0, hyps))
            return hyps
        return wrapper


    def unit(traced):
        passes.clear()
        t0 = time.perf_counter()
        try:
            rows = evaluation.noise_eval(pairs, state, spec)
        except Exception as exc:  # a pass that raises is a failed operation
            out.attempted += len(passes) + 1
            out.failed += 1
            out.problem(f"decode pass raised {exc!r}")
            return False
        wall = time.perf_counter() - t0
        out.attempted += len(passes)
        ids = []
        for _, hyps in passes:
            flat = [t for h in hyps for t in h]
            if (any(len(h) > spec.max_decode_len for h in hyps)
                    or any(not 0 <= t < vocab_size for t in flat)):
                out.failed += 1
                out.problem("a hypothesis is too long or holds an id outside the vocabulary")
            ids.append(np.array([len(h) for h in hyps] + flat, dtype=np.int64))
        bleu = np.array([[r["rate"], r["mean_bleu"], r["std_bleu"]] for r in rows])
        if not (np.isfinite(bleu).all() and ((bleu[:, 1] >= 0) & (bleu[:, 1] <= 100)).all()):
            out.problem(f"BLEU outside [0, 100]: {rows}")
        hyp_tokens = sum(len(h) for _, hyps in passes for h in hyps)
        if hyp_tokens == 0:
            out.problem("every hypothesis is empty: the fixture only emits EOS")
        # greedy_decode_batch runs the decoder until every hypothesis has its EOS
        steps = sum(min(max(len(h) for h in hyps) + 1, spec.max_decode_len) for _, hyps in passes)
        out.work.add(f"{len(passes)} decode passes, {steps} decoder steps, "
                     f"{hyp_tokens} hypothesis tokens")
        out.digests[traced].add(_digest(*ids, bleu))
        out.unit_s[traced] += [s for s, _ in passes]
        out.calls[traced].append((wall, ref_tokens * len(passes), len(pairs) * len(passes)))
        return True

    with contextlib.ExitStack() as probes:
        patch(probes, evaluation, "greedy_decode_batch", timed_pass)
        _loop(seconds, unit, tracer,
              lambda: _setups(build, plan.setup_reps_between, tracer, out))
    valid = m["data"].make_batches(bundle.valid, state.train_cfg.batch_size, 0)
    out.valid_ppl = training.validate(valid, state)


def run(workload, seed, seconds, trace, plan=None, fixture_dir=None, modules=None):
    """Run one workload; returns the Outcome with its metrics filled in."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    plan = plan or Plan()
    m = modules or load_modules()
    out = Outcome()
    tracer = Tracer(m) if trace else None
    if workload == "robustness":
        _robustness(seed, seconds, plan, m, out, tracer, fixture_dir)
    else:
        _train(workload, seed, seconds, plan, m, out, tracer)

    if len(out.digests[False]) > 1:
        out.problem("repetitions of the same work gave different outputs")
    if trace and out.digests[True] != out.digests[False]:
        out.problem("traced and untraced repetitions gave different outputs")
    if not out.unit_s[False]:
        out.problem("no untraced repetition completed")
        return out
    out.metrics = _end_to_end(out)
    if trace:
        out.layers = layer_metrics(tracer, len(out.unit_s[True]))
        out.layers["bench.trace_overhead_share"] = (
            statistics.median(out.unit_s[True]) / statistics.median(out.unit_s[False]) - 1.0)
        if workload != "robustness":
            _check_drop_rate(out, tracer)
        out.tracer = tracer
    return out


def _check_drop_rate(out, tracer):
    """The realised source drop rate must agree with p_source (5 sigma)."""
    n, p_source = tracer.counts["droppable"], out.p_source
    rate = out.layers["dropping.realised_drop_rate"]
    if n and abs(rate - p_source) > 5 * math.sqrt(p_source * (1 - p_source) / n):
        out.problem(f"realised drop rate {rate:.4f} over {n} tokens is far from {p_source}")


def _end_to_end(out):
    unit_ms = np.array(out.unit_s[False]) * 1e3
    walls = [w for w, _, _ in out.calls[False]]
    return {
        "setup_s": statistics.median(out.setup_s),
        "step_ms_p50": float(np.percentile(unit_ms, 50)),
        "step_ms_p90": float(np.percentile(unit_ms, 90)),
        "wall_s": statistics.median(walls),
        "tokens_per_s": statistics.median(t / w for w, t, _ in out.calls[False]),
        "sentences_per_s": statistics.median(s / w for w, _, s in out.calls[False]),
        "valid_ppl": out.valid_ppl,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
