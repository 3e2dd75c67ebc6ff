"""No subnormal float on the hot path of a default-config run.

Subnormal operands make every product they reach many times slower. Masked
attention scores underflow in softmax, so softmax gives exact zeros there
(see `autodiff._softmax_`), and nothing downstream may bring subnormals back.
The fused attention op keeps its probabilities off the tape, so the tests
record what `_softmax_` returns. The tape keeps gradient slots, not arrays,
so the tests collect each recorded op's output as `_record` sees it. At
default scale no real score gap reaches the underflow range, so one test
sharpens the queries until some do.
"""

import numpy as np
import pytest

from tokendrop import autodiff as ad
from tokendrop import training
from tokendrop.config import load_config
from tokendrop.data import make_batches
from tokendrop.evaluation import greedy_decode_batch
from tokendrop.pipeline import build_state, prepare_data


TINY = np.finfo(np.float64).tiny
# exp(-gap) is a subnormal for a gap between these; beyond them it is 0 or normal
SUBNORMAL_GAPS = (-np.log(TINY), 745.14)


def subnormals(arrays):
    return sum(int(np.count_nonzero((np.abs(a) > 0.0) & (np.abs(a) < TINY))) for a in arrays)


class Probabilities(list):
    """The arrays `autodiff._softmax_` returned, and how many of its inputs lay
    a subnormal-giving gap below their slice's maximum."""

    underflowing = 0


@pytest.fixture
def probabilities(monkeypatch):
    seen = Probabilities()
    real = ad._softmax_

    def recording(x, axis):
        gap = x.max(axis=axis, keepdims=True) - x
        lo, hi = SUBNORMAL_GAPS
        seen.underflowing += int(np.count_nonzero((gap > lo) & (gap < hi)))
        seen.append(real(x, axis))
        return seen[-1]

    monkeypatch.setattr(ad, "_softmax_", recording)
    return seen


@pytest.fixture
def tape_outputs(monkeypatch):
    """The output arrays of every op a tape records."""
    seen = []
    real = ad._record

    def recording(inputs, output, backward_fn):
        real(inputs, output, backward_fn)
        if output.requires_grad:
            seen.append(output.data)

    monkeypatch.setattr(ad, "_record", recording)
    return seen


@pytest.fixture(scope="module")
def default_run():
    """The default config (model, drop, objectives, training) on a smaller corpus."""
    cfg = load_config(None, ["task.n_train=64", "task.n_valid=8", "task.n_test=8"])
    return cfg, prepare_data(cfg)


def train_step_subnormals(cfg, bundle, monkeypatch, probabilities, tape_outputs, query_scale):
    """Subnormals found in each part of one train step, the query projections
    of every attention block scaled by `query_scale` first."""
    state = build_state(cfg, bundle)
    for name, t in state.params.items():
        if name.endswith(".wq"):
            t.data *= query_scale
    tapes, backward_grads, param_grads = [], [], []

    class RecordingTape(ad.GradTape):
        def __enter__(self):
            tapes.append(self)
            return super().__enter__()

    def keeping_grads(fn):
        def wrapper(g):
            gs = fn(g)
            # copied: `backward` may keep one as a gradient and add into it
            backward_grads.extend(g.copy() for g in gs if g is not None)
            return gs
        return wrapper

    real_backward, real_clip = ad.backward, training.clip_gradients

    def backward(loss, params=None):
        for entry in ad._ACTIVE_TAPE.entries:
            entry.backward_fn = keeping_grads(entry.backward_fn)
        real_backward(loss, params)

    def clip_gradients(grads, max_norm):
        param_grads.extend(g.copy() for g in grads)
        return real_clip(grads, max_norm)

    monkeypatch.setattr(ad, "GradTape", RecordingTape)
    monkeypatch.setattr(ad, "backward", backward)
    monkeypatch.setattr(training, "clip_gradients", clip_gradients)
    batch = make_batches(bundle.train, cfg.train.batch_size, np.random.default_rng(0))[0]
    report = training.train_step(batch, state)

    [tape] = tapes
    assert report.dropped_tokens > 0 and report.l_rtd > 0 and report.l_dtp > 0
    # the count `test_autodiff.py::TestDefaultTrainStep` pins for the same step
    assert len(tape.entries) == len(tape_outputs) == 154 and param_grads and backward_grads
    assert len(probabilities) == 3 * cfg.model.n_layers  # encoder, decoder self and cross
    return {
        "attention probabilities": subnormals(probabilities),
        "tape outputs": subnormals(tape_outputs),
        "backward gradients": subnormals(backward_grads),
        "parameter gradients": subnormals(param_grads),
        "adam moments": subnormals([*state.adam_m.values(), *state.adam_v.values()]),
    }


def test_default_train_step_leaves_no_subnormal(default_run, monkeypatch, probabilities,
                                                tape_outputs):
    found = train_step_subnormals(*default_run, monkeypatch, probabilities, tape_outputs, 1.0)
    assert found == dict.fromkeys(found, 0)


def test_sharp_attention_train_step_leaves_no_subnormal(default_run, monkeypatch, probabilities,
                                                       tape_outputs):
    found = train_step_subnormals(*default_run, monkeypatch, probabilities, tape_outputs, 100.0)
    assert probabilities.underflowing > 0
    assert found == dict.fromkeys(found, 0)


def test_decode_pass_leaves_no_subnormal(default_run, probabilities, tape_outputs):
    cfg, bundle = default_run
    state = build_state(cfg, bundle)
    # parameters require gradients, so under a tape every decoder op is recorded
    with ad.GradTape() as tape:
        hyps = greedy_decode_batch([s for s, _ in bundle.test], state, 12)
    assert len(hyps) == len(bundle.test) and len(tape.entries) == len(tape_outputs) > 100
    assert probabilities and subnormals(probabilities) == 0
    assert subnormals(tape_outputs) == 0
