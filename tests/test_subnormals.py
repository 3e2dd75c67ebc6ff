"""No subnormal float on the hot path of a default-config run.

Subnormal operands make every product they reach many times slower. Masked
attention scores underflow in softmax, so softmax gives exact zeros there
(see `autodiff.softmax`), and nothing downstream may bring subnormals back.
"""

import numpy as np
import pytest

from tokendrop import autodiff as ad
from tokendrop import training
from tokendrop.config import load_config
from tokendrop.data import make_batches
from tokendrop.evaluation import greedy_decode_batch
from tokendrop.pipeline import build_state, prepare_data


def subnormals(arrays):
    tiny = np.finfo(np.float64).tiny
    return sum(int(np.count_nonzero((np.abs(a) > 0.0) & (np.abs(a) < tiny))) for a in arrays)


@pytest.fixture(scope="module")
def default_run():
    """The default config (model, drop, objectives, training) on a smaller corpus."""
    cfg = load_config(None, ["task.n_train=64", "task.n_valid=8", "task.n_test=8"])
    return cfg, prepare_data(cfg)


def test_default_train_step_leaves_no_subnormal(default_run, monkeypatch):
    cfg, bundle = default_run
    state = build_state(cfg, bundle)
    tapes, backward_grads, param_grads = [], [], []

    class RecordingTape(ad.GradTape):
        def __enter__(self):
            tapes.append(self)
            return super().__enter__()

    def keeping_grads(fn):
        def wrapper(g):
            gs = fn(g)
            backward_grads.extend(gs)
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
    assert len(tape.entries) > 200 and param_grads and backward_grads
    found = {
        "tape outputs": subnormals(e.output.data for e in tape.entries),
        "backward gradients": subnormals(backward_grads),
        "parameter gradients": subnormals(param_grads),
        "adam moments": subnormals([*state.adam_m.values(), *state.adam_v.values()]),
    }
    assert found == dict.fromkeys(found, 0)


def test_decode_pass_leaves_no_subnormal(default_run):
    cfg, bundle = default_run
    state = build_state(cfg, bundle)
    # parameters require gradients, so under a tape every decoder op is recorded
    with ad.GradTape() as tape:
        hyps = greedy_decode_batch([s for s, _ in bundle.test], state, 12)
    assert len(hyps) == len(bundle.test) and len(tape.entries) > 100
    assert subnormals(e.output.data for e in tape.entries) == 0
