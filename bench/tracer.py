"""Function patching and in-memory span tracing for the benchmark.

Everything here works from outside the package: a function is replaced at
the name its caller looks it up by (a module attribute), and the original is
put back when the run ends. Nothing in `tokendrop` knows it is traced.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from unittest import mock

import numpy as np


def patch(stack, owner, attr, make_wrapper):
    """Replace `owner.attr` by `make_wrapper(original)` until `stack` closes."""
    stack.enter_context(mock.patch.object(owner, attr, make_wrapper(getattr(owner, attr))))


class SpanLog:
    """Spans kept in memory: name, start and end (ns), parent index, tag."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.tags = []
        self._open = []

    def open(self, name, tag=None):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(None)
        self.parents.append(self._open[-1] if self._open else -1)
        self.tags.append(tag)
        self._open.append(idx)
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter_ns()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    @contextlib.contextmanager
    def span(self, name, tag=None):
        idx = self.open(name, tag)
        try:
            yield
        finally:
            self.close(idx)

    def __len__(self):
        return len(self.names)

    def roots(self):
        """Index of each span's top-level ancestor."""
        root = []
        for i, p in enumerate(self.parents):
            root.append(i if p < 0 else root[p])
        return root

    def self_times(self):
        """Duration of each span minus the part of it its children cover."""
        children = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append(i)
        out = []
        for i in range(len(self.names)):
            start, end = self.starts[i], self.ends[i]
            covered, reach = 0, start
            for c in sorted(children.get(i, ()), key=self.starts.__getitem__):
                lo, hi = max(self.starts[c], reach), min(self.ends[c], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "tag"],
                       "spans": list(zip(self.names, self.starts, self.ends,
                                         self.parents, self.tags))}, fh)


# Ops in tokendrop.autodiff that the model and the objectives call; each gets a
# forward span and each tape entry it records gets a backward span. `tmean` and
# `power` are left out: only `layer_norm` calls them, and it is charged with
# everything it calls.
OPS = ("matmul", "add", "sub", "mul", "tsum", "softmax", "layer_norm",
       "reshape", "transpose", "relu", "clip", "sigmoid", "log", "embedding",
       "take_positions", "cross_entropy")

# Model blocks reported per block; `out_proj` is the decoder's output projection.
BLOCKS = ("embed", "enc0.attn", "enc0.ffn", "enc1.attn", "enc1.ffn",
          "dec0.self", "dec0.cross", "dec0.ffn", "dec1.self", "dec1.cross", "dec1.ffn",
          "out_proj")

# (module, attribute, span name): plain spans around functions, installed at
# the name the calling module looks them up by.
_PLAIN = (
    ("training", "corrupt", "dropping.corrupt"),
    ("training", "rtd_head", "model.rtd_head"),
    ("training", "dtp_head", "model.dtp_head"),
    ("training", "translation_loss", "objectives.translation_loss"),
    ("training", "rtd_loss", "objectives.rtd_loss"),
    ("training", "dtp_loss", "objectives.dtp_loss"),
    ("training", "joint_loss", "objectives.joint_loss"),
    ("training", "clip_gradients", "training.clip_gradients"),
    ("training", "validate", "training.validate"),
    ("training", "train_step", "training.train_step"),
    ("training", "make_batches", "data.make_batches"),
    ("training", "restore", "training.restore"),
    ("evaluation", "greedy_decode_batch", "evaluation.greedy_decode_batch"),
    ("evaluation", "corpus_bleu", "evaluation.corpus_bleu"),
    ("evaluation", "_add_unk_noise", "evaluation.noise"),
    ("config", "load_config", "config.load_config"),
    ("pipeline", "prepare_data", "pipeline.prepare_data"),
    ("pipeline", "build_state", "pipeline.build_state"),
)


def _subnormal_count(a):
    a = np.abs(a)
    return int(np.count_nonzero((a > 0.0) & (a < np.finfo(np.float64).tiny)))


class Tracer:
    """Installs span wrappers on the tokendrop modules and records spans.

    Per-op backward spans come from wrapping the `backward_fn` of each tape
    entry an op records; each is tagged `op|block` with the outermost op and
    the innermost model block open when the entry was recorded.
    """

    def __init__(self, modules):
        self.m = modules  # name -> imported tokendrop module
        self.log = SpanLog()
        self.counts = Counter()
        self._blocks = []
        self._decode_depth = 0
        self._op_depth = 0
        self._head_ids = set()

    @contextlib.contextmanager
    def recording(self, root):
        """Install every wrapper, record spans under one `root` span, then
        put every original back."""
        with contextlib.ExitStack() as stack:
            self.install(stack)
            with self.log.span(root):
                yield

    def install(self, stack):
        m = self.m
        for mod, attr, name in _PLAIN:
            patch(stack, m[mod], attr, functools.partial(self._plain, name))
        for mod in ("training", "evaluation"):
            patch(stack, m[mod], "encode", functools.partial(self._plain, "model.encode"))
            patch(stack, m[mod], "decode", self._decode)
        patch(stack, m["model"], "embed", functools.partial(self._block, lambda a: "embed"))
        patch(stack, m["model"], "_attention", functools.partial(self._block, lambda a: a[1]))
        patch(stack, m["model"], "_ffn", functools.partial(self._block, lambda a: a[1]))
        patch(stack, m["autodiff"], "backward", self._backward)
        for op in OPS:
            patch(stack, m["autodiff"], op, functools.partial(self._op, op))

    # -- wrapper factories ---------------------------------------------------
    def _plain(self, name, fn):
        log, after = self.log, self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = log.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                log.close(idx)
            if after is not None:
                after(self, args, out)
            return out
        return wrapper

    def _block(self, block_of, fn):
        log = self.log

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            block = block_of(args)
            self._blocks.append(block)
            idx = log.open("model.block", block)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(idx)
                self._blocks.pop()
        return wrapper

    def _decode(self, fn):
        log = self.log

        @functools.wraps(fn)
        def wrapper(target_input, enc, params, cfg, *args, **kwargs):
            heads = {id(params["out_bias"])}
            heads.add(id(params["tgt_emb"] if cfg.tie_output else params["out_proj"]))
            outer, self._head_ids = self._head_ids, heads
            self._decode_depth += 1
            idx = log.open("model.decode", int(target_input.corrupted_ids.size))
            try:
                return fn(target_input, enc, params, cfg, *args, **kwargs)
            finally:
                log.close(idx)
                self._decode_depth -= 1
                self._head_ids = outer
        return wrapper

    def _backward(self, fn):
        log, ad = self.log, self.m["autodiff"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["tape_entries"] += len(ad._ACTIVE_TAPE.entries)
            idx = log.open("autodiff.backward")
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(idx)
        return wrapper

    def _op(self, op, fn):
        log, ad = self.log, self.m["autodiff"]
        fwd_name, bwd_name = f"autodiff.{op}", f"autodiff.{op}.backward"

        def wrap_backward(backward_fn, tag):
            def traced_backward(g):
                idx = log.open(bwd_name, tag)
                try:
                    return backward_fn(g)
                finally:
                    log.close(idx)
            return traced_backward

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # An op called by another op (layer_norm calls add, mul, ...) is
            # part of the outer one: its time and tape entries are charged there.
            if self._op_depth:
                return fn(*args, **kwargs)
            block = self._blocks[-1] if self._blocks else None
            out_proj = (block is None and self._decode_depth > 0
                        and any(id(a) in self._head_ids for a in args))
            if out_proj:
                block = "out_proj"
                self._blocks.append(block)
                bidx = log.open("model.block", block)
            tape = ad._ACTIVE_TAPE
            first = len(tape.entries) if tape is not None else 0
            self._op_depth += 1
            idx = log.open(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                log.close(idx)
                self._op_depth -= 1
                if out_proj:
                    log.close(bidx)
                    self._blocks.pop()
            if out_proj:
                self._head_ids.add(id(out))
            self.counts[f"calls.{op}"] += 1
            if tape is not None:
                for entry in tape.entries[first:]:
                    entry.backward_fn = wrap_backward(entry.backward_fn, f"{op}|{block}")
            if op == "softmax":
                with self.counting():
                    self.counts["softmax_entries"] += out.data.size
                    self.counts["softmax_subnormal"] += _subnormal_count(out.data)
            return out
        return wrapper

    # -- counters taken from call results -----------------------------------
    def counting(self):
        """Span around the tracer's own counting, so no layer is charged for it."""
        return self.log.span("bench.count")

    def _count_corrupt(self, args, out):
        src = out[0]
        self.counts["dropped"] += int(src.mask.sum())
        self.counts["droppable"] += int(src.droppable.sum())

    def _count_clip(self, args, out):
        with self.counting():
            for g in args[0]:
                self.counts["grad_entries"] += g.size
                self.counts["grad_subnormal"] += _subnormal_count(g)

    def _count_batches(self, args, out):
        for b in out:
            for ids in (b.source, b.target_output):
                self.counts["batch_entries"] += ids.size
                self.counts["batch_pad"] += int(np.count_nonzero(ids == self.m["vocab"].PAD_ID))

    def _count_decode(self, args, out):
        max_len = args[2]
        self.counts["hyp_tokens"] += sum(len(h) for h in out)
        # a hypothesis shorter than max_len also emitted its EOS
        self.counts["emitted_positions"] += sum(min(len(h) + 1, max_len) for h in out)

    _after = {
        "dropping.corrupt": _count_corrupt,
        "training.clip_gradients": _count_clip,
        "data.make_batches": _count_batches,
        "evaluation.greedy_decode_batch": _count_decode,
    }


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer, units):
    """Per-layer metrics from one traced run.

    Spans under a `bench.timed` root are charged per timed unit (`units` of
    them: train steps, or decode passes); spans under `bench.setup` roots per
    set-up. Times are self times in ms, except that a block's time covers
    everything run inside it and `training.validate_ms` is inclusive.
    """
    log, counts = tracer.log, tracer.counts
    roots = log.roots()
    self_ns = log.self_times()
    n_setup = sum(1 for i, p in enumerate(log.parents) if p < 0 and log.names[i] == "bench.setup")
    timed = defaultdict(int)
    setup = defaultdict(int)
    block_of = []
    block_fwd = defaultdict(int)
    block_bwd = defaultdict(int)
    greedy_positions = decode_steps = 0
    validate_ns = 0
    for i, name in enumerate(log.names):
        p = log.parents[i]
        block_of.append(log.tags[i] if name == "model.block" else
                        (block_of[p] if p >= 0 else None))
        phase = log.names[roots[i]]
        if phase == "bench.setup":
            setup[name] += self_ns[i]
            continue
        if phase != "bench.timed" or name.startswith("bench."):
            continue
        timed[name] += self_ns[i]
        if block_of[i] is not None:
            block_fwd[block_of[i]] += self_ns[i]
        if name.endswith(".backward") and name != "autodiff.backward":
            block_bwd[log.tags[i].split("|")[1]] += log.ends[i] - log.starts[i]
        elif name == "training.validate":
            validate_ns += log.ends[i] - log.starts[i]
        elif name == "model.decode" and p >= 0 and log.names[p] == "evaluation.greedy_decode_batch":
            decode_steps += 1
            greedy_positions += log.tags[i]

    per_unit = 1.0 / max(units, 1)
    per_setup = 1.0 / max(n_setup, 1)

    def ms(total_ns, scale=per_unit):
        return total_ns * 1e-6 * scale

    out = {"autodiff.tape_entries_per_step": counts["tape_entries"] * per_unit}
    for op in OPS:
        out[f"autodiff.calls.{op}"] = counts[f"calls.{op}"] * per_unit
        out[f"autodiff.fwd_ms.{op}"] = ms(timed[f"autodiff.{op}"])
        out[f"autodiff.bwd_ms.{op}"] = ms(timed[f"autodiff.{op}.backward"])
    out["autodiff.backward_ms"] = ms(timed["autodiff.backward"])
    out["autodiff.softmax_subnormal_share"] = _share(counts["softmax_subnormal"],
                                                     counts["softmax_entries"])
    out["autodiff.grad_subnormal_share"] = _share(counts["grad_subnormal"], counts["grad_entries"])
    for fn in ("encode", "decode", "rtd_head", "dtp_head"):
        out[f"model.{fn}_ms"] = ms(timed[f"model.{fn}"])
    for block in BLOCKS:
        out[f"model.block_fwd_ms.{block}"] = ms(block_fwd[block])
        out[f"model.block_bwd_ms.{block}"] = ms(block_bwd[block])
    decoder_positions = sum(log.tags[i] for i, name in enumerate(log.names)
                            if name == "model.decode" and log.names[roots[i]] == "bench.timed")
    out["model.decoder_positions"] = decoder_positions * per_unit
    out["evaluation.useful_position_share"] = _share(counts["emitted_positions"], greedy_positions)
    out["evaluation.decode_steps"] = decode_steps * per_unit
    out["evaluation.hyp_tokens"] = counts["hyp_tokens"] * per_unit
    out["evaluation.greedy_decode_batch_ms"] = ms(timed["evaluation.greedy_decode_batch"])
    out["evaluation.corpus_bleu_ms"] = ms(timed["evaluation.corpus_bleu"])
    out["evaluation.noise_ms"] = ms(timed["evaluation.noise"])
    for fn in ("translation_loss", "rtd_loss", "dtp_loss", "joint_loss"):
        out[f"objectives.{fn}_ms"] = ms(timed[f"objectives.{fn}"])
    out["dropping.corrupt_ms"] = ms(timed["dropping.corrupt"])
    out["dropping.realised_drop_rate"] = _share(counts["dropped"], counts["droppable"])
    out["training.update_ms"] = ms(timed["training.train_step"])
    out["training.clip_ms"] = ms(timed["training.clip_gradients"])
    out["training.validate_ms"] = ms(validate_ns)
    out["data.make_batches_ms"] = ms(timed["data.make_batches"])
    out["data.pad_share"] = _share(counts["batch_pad"], counts["batch_entries"])
    out["config.load_config_ms"] = ms(setup["config.load_config"], per_setup)
    out["pipeline.prepare_data_ms"] = ms(setup["pipeline.prepare_data"], per_setup)
    out["pipeline.build_state_ms"] = ms(setup["pipeline.build_state"], per_setup)
    out["training.restore_ms"] = ms(setup["training.restore"], per_setup)
    return out
