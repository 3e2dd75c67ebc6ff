import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from tokendrop import autodiff as ad
from tokendrop import training
from tokendrop.config import load_config
from tokendrop.data import (ParallelBatch, SyntheticTaskSpec, generate_synthetic_corpus,
                            make_batches)
from tokendrop.dropping import DropConfig
from tokendrop.model import ModelConfig
from tokendrop.objectives import ObjectiveConfig
from tokendrop.pipeline import build_state, prepare_data
from tokendrop.training import (CheckpointError, NonFiniteGradientError, RunLog, TrainConfig,
                                TrainState, checkpoint, clip_gradients, restore, run_training,
                                train_step, validate)
from tokendrop.vocab import PAD_ID, Vocabulary


def baseline():
    """The paper's Transformer baseline: no token drop, no auxiliary losses."""
    return dict(drop=DropConfig(p_source=0.0, p_target=0.0),
                objective=ObjectiveConfig(alpha=0.0, beta=0.0))


def small_setup(seed=0, drop=None, objective=None, **train_kw):
    task = SyntheticTaskSpec(source_vocab_size=30, target_vocab_size=30,
                             n_train=200, n_valid=40, n_test=40,
                             reorder_window=2, len_min=3, len_max=8, seed=seed)
    corpus = generate_synthetic_corpus(task)
    src_vocab = Vocabulary(corpus.source_names)
    tgt_vocab = Vocabulary(corpus.target_names)
    encoded = corpus.encode(src_vocab, tgt_vocab)
    train, valid = encoded["train"], encoded["valid"]
    mc = ModelConfig(d_model=16, d_ffn=32, n_layers=1, n_heads=2,
                     src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab))
    tc = TrainConfig(max_steps=train_kw.pop("max_steps", 10), batch_size=16,
                     validate_every=train_kw.pop("validate_every", 5),
                     seed=seed, **train_kw)
    state = TrainState(mc, drop or DropConfig(), objective or ObjectiveConfig(), tc)
    return state, train, valid


def snapshot(state):
    return {name: t.data.copy() for name, t in state.params.items()}


def states_equal(a, b):
    sa, sb = snapshot(a), snapshot(b)
    if set(sa) != set(sb) or a.step != b.step:
        return False
    return all(np.array_equal(sa[n], sb[n]) for n in sa) and all(
        np.array_equal(a.adam_m[n], b.adam_m[n]) and np.array_equal(a.adam_v[n], b.adam_v[n])
        for n in a.adam_m)


def edited_checkpoint(tmp_path, edit):
    """A one-step checkpoint after `edit(arrays, header)` has changed it; an
    edit that stores its own arrays["header"] replaces the header bytes."""
    state, _, _ = small_setup(max_steps=1, validate_every=1)
    path = tmp_path / "ckpt.npz"
    checkpoint(state, path)
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    header = json.loads(arrays.pop("header").tobytes().decode("utf-8"))
    edit(arrays, header)
    arrays.setdefault("header", np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8))
    np.savez(path, **arrays)
    return path


class TestClipGradients:
    def test_small_gradients_untouched(self):
        g = np.array([0.3, 0.4])
        norm = clip_gradients([g], 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(g, [0.3, 0.4])

    def test_large_gradients_scaled_to_max_norm(self):
        g1, g2 = np.array([3.0, 0.0]), np.array([0.0, 4.0])
        clip_gradients([g1, g2], 1.0)
        total = np.sqrt((g1**2).sum() + (g2**2).sum())
        assert total <= 1.0 + 1e-9
        # direction preserved
        assert g1[0] / g2[1] == pytest.approx(3.0 / 4.0)

    def test_returns_pre_clip_norm(self):
        assert clip_gradients([np.array([6.0, 8.0])], 1.0) == pytest.approx(10.0)


class TestLearningRateSchedule:
    def test_linear_warmup_then_inverse_sqrt(self):
        state, *_ = small_setup()
        tc, mc = state.train_cfg, state.model_cfg
        w = tc.warmup_steps
        # peak at warmup boundary
        peak = state.learning_rate(w)
        assert peak == pytest.approx(tc.lr_factor * mc.d_model**-0.5 * w**-0.5)
        # linear during warmup
        assert state.learning_rate(w // 2) == pytest.approx(peak * 0.5, rel=1e-9)
        # inverse sqrt after
        assert state.learning_rate(4 * w) == pytest.approx(peak / 2, rel=1e-9)

    def test_monotone_increasing_during_warmup(self):
        state, *_ = small_setup()
        lrs = [state.learning_rate(s) for s in range(1, state.train_cfg.warmup_steps + 1)]
        assert all(b > a for a, b in zip(lrs, lrs[1:]))


class TestTrainStep:
    def test_step_counter_and_finite_losses(self):
        state, train, _ = small_setup()
        batch = make_batches(train, 8, np.random.default_rng(0))[0]
        report = train_step(batch, state)
        assert state.step == 1
        for v in (report.l_m, report.l_rtd, report.l_dtp, report.joint):
            assert np.isfinite(v)

    def test_zero_lr_factor_leaves_parameters_unchanged(self):
        state, train, _ = small_setup(lr_factor=0.0)
        before = snapshot(state)
        batch = make_batches(train, 8, np.random.default_rng(0))[0]
        train_step(batch, state)
        after = snapshot(state)
        assert all(np.array_equal(before[n], after[n]) for n in before)

    def test_parameters_change_with_positive_lr(self):
        state, train, _ = small_setup()
        before = snapshot(state)
        batch = make_batches(train, 8, np.random.default_rng(0))[0]
        train_step(batch, state)
        after = snapshot(state)
        changed = [n for n in before if not np.array_equal(before[n], after[n])]
        assert changed  # at least the embeddings and output layers move

    def test_all_parameters_receive_updates_within_100_steps(self):
        state, train, valid = small_setup(max_steps=100, validate_every=100)
        before = snapshot(state)
        run_training(state, train, None)
        after = snapshot(state)
        untouched = [n for n in before if np.array_equal(before[n], after[n])]
        assert untouched == []

    def test_without_token_drop_auxiliary_losses_are_zero(self):
        state, train, _ = small_setup(**baseline())
        batch = make_batches(train, 8, np.random.default_rng(0))[0]
        report = train_step(batch, state)
        assert report.dropped_tokens == 0
        assert report.l_rtd == 0.0 and report.l_dtp == 0.0
        assert report.joint == report.l_m  # bitwise

    def test_report_counts(self):
        state, train, _ = small_setup()
        batch = make_batches(train, 8, np.random.default_rng(0))[0]
        report = train_step(batch, state)
        # the source carries no BOS/EOS, so every non-pad source token is droppable
        assert report.droppable_tokens == int((batch.source != PAD_ID).sum())
        assert 0 <= report.dropped_tokens <= report.droppable_tokens


class TestNonFiniteGradient:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_raises_before_anything_changes(self, monkeypatch, bad):
        state, train, _ = small_setup()
        batch = make_batches(train, 16, np.random.default_rng(0))[0]
        real_backward = ad.backward

        def backward(loss, params=None):
            real_backward(loss, params)
            params[3].grad.flat[0] = bad

        monkeypatch.setattr(ad, "backward", backward)
        before = copy.deepcopy(state)
        with pytest.raises(NonFiniteGradientError, match="non-finite"):
            train_step(batch, state)
        assert states_equal(state, before)
        # nothing left behind for the next step's backward to accumulate onto
        assert all(t.grad is None for t in state.params.values())

    def test_error_names_the_refused_step(self, monkeypatch):
        state, train, _ = small_setup(max_steps=5)
        real_backward = ad.backward
        calls = []

        def backward(loss, params=None):
            real_backward(loss, params)
            calls.append(None)
            if len(calls) == 3:
                params[0].grad.flat[0] = np.nan

        monkeypatch.setattr(ad, "backward", backward)
        with pytest.raises(NonFiniteGradientError,
                           match=r"^step 3: global gradient norm is non-finite: nan$"):
            run_training(state, train)
        assert state.step == 2  # steps 1 and 2 were applied, step 3 was not


class TestValidate:
    def test_untrained_perplexity_near_vocab_size(self):
        state, _, valid = small_setup()
        batches = make_batches(valid, 16, np.random.default_rng(0))
        ppl = validate(batches, state)
        # The last decoder LayerNorm (gain 1, bias 0) gives each hidden vector unit
        # variance over its d entries, and Xavier-uniform out_proj has weight variance
        # 2/(d+V), so each logit has variance s2 = 2d/(d+V). For Gaussian logits
        # E[NLL] = E[logsumexp] - E[z_y] ~ ln V + s2/2, i.e. ppl ~ V * exp(d/(d+V)).
        d, v = state.model_cfg.d_model, state.model_cfg.tgt_vocab_size
        assert ppl == pytest.approx(v * math.exp(d / (d + v)), rel=0.2)

    def test_deterministic_across_calls(self):
        state, _, valid = small_setup()
        batches = make_batches(valid, 16, np.random.default_rng(0))
        assert validate(batches, state) == validate(batches, state)

    def test_validation_does_not_mutate_state(self):
        state, _, valid = small_setup()
        before = snapshot(state)
        rng_state = json.dumps(state.corrupt_rng.bit_generator.state)
        validate(make_batches(valid, 16, np.random.default_rng(0)), state)
        after = snapshot(state)
        assert all(np.array_equal(before[n], after[n]) for n in before)
        assert json.dumps(state.corrupt_rng.bit_generator.state) == rng_state
        assert state.step == 0


class TestCopyTaskLearning:
    def test_loss_drops_below_one_within_200_steps(self):
        # identity mapping, window 1: the model only has to copy tokens through.
        task = SyntheticTaskSpec(source_vocab_size=30, target_vocab_size=30,
                                 n_train=2000, n_valid=50, n_test=50,
                                 reorder_window=1, len_min=3, len_max=8,
                                 identity_mapping=True, seed=0)
        corpus = generate_synthetic_corpus(task)
        vocab = Vocabulary(corpus.source_names)
        encoded = corpus.encode(vocab, vocab)
        train, valid = encoded["train"], encoded["valid"]
        mc = ModelConfig(d_model=32, d_ffn=64, n_layers=1, n_heads=2, p_dropout=0.0,
                         src_vocab_size=len(vocab), tgt_vocab_size=len(vocab))
        # lr_factor 0.5 (as in bench/fixture.py) peaks at 0.0125. At 2.0 the peak is
        # 0.05 and this post-LN model stalls at the unigram loss, validation NLL
        # about 3.15 (post-LN at high LR: Xiong et al. 2020, arXiv 2002.04745).
        tc = TrainConfig(max_steps=200, batch_size=32, validate_every=200,
                         warmup_steps=50, lr_factor=0.5, seed=0)
        state = TrainState(mc, DropConfig(), ObjectiveConfig(), tc)
        log = run_training(state, train, valid)
        # Read the clean validation NLL at step 200, not the record's l_m: l_m is
        # the mean over all 200 steps, and token drop hides 15% of the source
        # tokens, which the model can only guess (about ln 30 nats each). With
        # about 85% of target tokens being content, l_m stays above 0.15*0.85*ln 30
        # = 0.43 however well the model copies.
        assert math.log(log.records[-1]["valid_ppl"]) < 1.0


class TestDefaultConfigLearns:
    def test_validation_nll_falls_within_30_steps(self):
        # Default model, drop, objectives and training, on a smaller corpus.
        cfg = load_config(None, ["task.n_train=2000", "task.n_valid=200", "train.max_steps=30"])
        bundle = prepare_data(cfg)
        state = build_state(cfg, bundle)
        valid = make_batches(bundle.valid, cfg.train.batch_size, np.random.default_rng(0))
        before = math.log(validate(valid, state))
        after = math.log(run_training(state, bundle.train, bundle.valid).records[-1]["valid_ppl"])
        # Over train.seed 0-4 the clean NLL fell by 0.30-0.47 nats (seed 0:
        # 5.63 -> 5.23); the margin is half the smallest fall.
        assert after < before - 0.15


class TestRunLog:
    def test_rejects_non_increasing_steps(self):
        log = RunLog()
        log.append({"step": 5})
        with pytest.raises(ValueError):
            log.append({"step": 5})

    def test_jsonl_roundtrip(self, tmp_path):
        log = RunLog()
        log.append({"step": 1, "l_m": 2.5})
        log.append({"step": 2, "l_m": 2.25})
        path = tmp_path / "metrics.jsonl"
        log.write_jsonl(path)
        back = RunLog.read_jsonl(path)
        assert back.records == log.records

    def test_run_training_record_schema(self):
        state, train, valid = small_setup(max_steps=6, validate_every=3)
        log = run_training(state, train, valid)
        assert [r["step"] for r in log.records] == [3, 6]
        for rec in log.records:
            assert set(rec) == {"step", "l_m", "l_rtd", "l_dtp", "joint", "grad_norm", "lr",
                                "valid_ppl", "elapsed_s"}
            assert rec["valid_ppl"] > 0

    def test_records_carry_mean_grad_norm_and_step_lr(self, monkeypatch):
        norms = []
        real_clip = training.clip_gradients

        def clip_gradients(grads, max_norm):
            norms.append(real_clip(grads, max_norm))
            return norms[-1]

        monkeypatch.setattr(training, "clip_gradients", clip_gradients)
        state, train, valid = small_setup(max_steps=6, validate_every=4)
        log = run_training(state, train, valid)
        assert [r["step"] for r in log.records] == [4, 6]
        for rec, interval in zip(log.records, (norms[:4], norms[4:])):
            assert rec["grad_norm"] == float(np.mean(interval)) and rec["grad_norm"] > 0
            assert rec["lr"] == state.learning_rate(rec["step"])

    def test_empty_training_split_is_rejected_before_any_step(self):
        state, _, valid = small_setup()
        before = snapshot(state)
        with pytest.raises(ValueError, match="training split is empty"):
            run_training(state, [], valid)
        after = snapshot(state)
        assert state.step == 0 and all(np.array_equal(before[n], after[n]) for n in before)


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        logs = []
        finals = []
        for _ in range(2):
            state, train, valid = small_setup(max_steps=8, validate_every=4)
            log = run_training(state, train, valid)
            logs.append([{k: v for k, v in r.items() if k != "elapsed_s"}
                         for r in log.records])
            finals.append(snapshot(state))
        assert logs[0] == logs[1]
        assert all(np.array_equal(finals[0][n], finals[1][n]) for n in finals[0])

    def test_different_seeds_differ(self):
        state_a, train, _ = small_setup(seed=0, max_steps=3, validate_every=3)
        run_training(state_a, train, None)
        state_b, train_b, _ = small_setup(seed=1, max_steps=3, validate_every=3)
        run_training(state_b, train_b, None)
        sa, sb = snapshot(state_a), snapshot(state_b)
        assert any(not np.array_equal(sa[n], sb[n]) for n in sa)


class TestCheckpoint:
    def test_roundtrip_restores_everything(self, tmp_path):
        state, train, _ = small_setup(max_steps=4, validate_every=4)
        run_training(state, train, None)
        path = tmp_path / "ckpt.npz"
        checkpoint(state, path)
        restored = restore(path)
        assert states_equal(state, restored)
        assert restored.train_cfg == state.train_cfg
        assert (json.dumps(restored.corrupt_rng.bit_generator.state)
                == json.dumps(state.corrupt_rng.bit_generator.state))

    def test_resume_matches_uninterrupted_run_bitwise(self, tmp_path):
        # run 10 steps straight through
        full, train, valid = small_setup(max_steps=10, validate_every=5)
        full_log = run_training(full, train, valid)

        # run 5, checkpoint, restore, run 5 more
        half, train2, valid2 = small_setup(max_steps=10, validate_every=5)
        half.train_cfg.max_steps = 5
        first_log = run_training(half, train2, valid2)
        path = tmp_path / "ckpt.npz"
        checkpoint(half, path)
        resumed = restore(path)
        resumed.train_cfg.max_steps = 10
        second_log = run_training(resumed, train2, valid2, log=copy.deepcopy(first_log))

        assert states_equal(full, resumed)
        strip = lambda recs: [{k: v for k, v in r.items() if k != "elapsed_s"} for r in recs]
        assert strip(full_log.records) == strip(second_log.records)

    def test_mid_epoch_resume(self, tmp_path):
        # 200 pairs / batch 16 = 13 batches per epoch; stop at step 7, mid-epoch
        full, train, _ = small_setup(max_steps=13, validate_every=13)
        run_training(full, train, None)

        half, train2, _ = small_setup(max_steps=13, validate_every=13)
        half.train_cfg.max_steps = 7
        run_training(half, train2, None)
        path = tmp_path / "ckpt.npz"
        checkpoint(half, path)
        resumed = restore(path)
        resumed.train_cfg.max_steps = 13
        run_training(resumed, train2, None)
        assert states_equal(full, resumed)

    def test_resumed_run_pads_only_the_batches_it_runs(self, monkeypatch):
        state, train, _ = small_setup(max_steps=3)  # 13 batches of 16 per epoch
        run_training(state, train)
        padded = []
        real = ParallelBatch.take
        monkeypatch.setattr(ParallelBatch, "take",
                            staticmethod(lambda pairs, rows: padded.append(rows) or real(pairs, rows)))
        state.train_cfg.max_steps = 5
        run_training(state, train)
        blocks = training._epoch_batches(train, 0, state.train_cfg).blocks
        assert len(blocks) == 13 and len(padded) == 2
        assert all(np.array_equal(a, b) for a, b in zip(padded, blocks[3:5]))

    def test_corrupted_header_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, header=np.frombuffer(b"not json", dtype=np.uint8))
        with pytest.raises(CheckpointError):
            restore(path)

    def test_wrong_format_version_rejected(self, tmp_path):
        # version 2 headers carried model.shared_embedding and model.tie_dtp;
        # version 3 stored one archive member per parameter and moment
        for version in (2, 3, 999):
            path = edited_checkpoint(tmp_path, lambda a, h: h.update(format_version=version))
            with pytest.raises(CheckpointError, match=f"version {version}"):
                restore(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        # the restored model no longer matches the arrays
        path = edited_checkpoint(tmp_path, lambda a, h: h["model_cfg"].update(d_model=8))
        with pytest.raises(CheckpointError):
            restore(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda a, h: a.pop("adam_m"), "adam_m"),
        (lambda a, h: h.pop("step"), "step"),
        (lambda a, h: h["train_cfg"].update(momentum=0.5), "momentum"),
        (lambda a, h: a.update(header=np.frombuffer(b"[1]", dtype=np.uint8)), "JSON object"),
        # it kept its fresh random init
        (lambda a, h: h.update(param_order=[e for e in h["param_order"] if e[0] != "src_emb"]),
         r"lacks parameters \['src_emb'\]"),
    ], ids=["missing_array", "missing_header_key", "unknown_config_key", "header_not_an_object",
            "missing_parameter"])
    def test_incomplete_checkpoint_rejected(self, tmp_path, edit, named):
        with pytest.raises(CheckpointError, match=named):
            restore(edited_checkpoint(tmp_path, edit))

    @pytest.mark.parametrize("edit", [
        lambda a, h: h["model_cfg"].update(d_model=0),
        lambda a, h: h["corrupt_rng"].update(bit_generator="MT19937"),
        lambda a, h: h.update(step="x"),
    ], ids=["config_value", "foreign_rng_state", "step_not_a_count"])
    def test_bad_header_value_rejected_naming_the_file(self, tmp_path, edit):
        path = edited_checkpoint(tmp_path, edit)
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            restore(path)

    @pytest.mark.parametrize("edit, named", [
        # a cast would parse the strings back, truncated
        (lambda a, h: a.update(params=a["params"].astype("U3")), "params as <U3, not float64"),
        (lambda a, h: a.update(adam_v=a["adam_v"].astype(np.float32)), "adam_v as float32"),
        (lambda a, h: a.update(params=a["params"][:-1]), "params with shape"),
        (lambda a, h: h["param_order"].append(h["param_order"][0]), "parameter twice"),
    ], ids=["strings", "float32", "one_value_short", "repeated_parameter"])
    def test_vectors_that_do_not_fit_the_header_rejected(self, tmp_path, edit, named):
        with pytest.raises(CheckpointError, match=named):
            restore(edited_checkpoint(tmp_path, edit))

    def test_corrupted_vector_fails_the_crc(self, tmp_path):
        state, _, _ = small_setup()
        path = tmp_path / "ckpt.npz"
        checkpoint(state, path)
        raw = bytearray(path.read_bytes())
        at = raw.index(state.params["src_emb"].data.tobytes()[:8])
        raw[at] ^= 1
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            restore(path)

    @pytest.mark.parametrize("n_layers", [1, 3])
    def test_archive_holds_one_vector_per_kind(self, tmp_path, n_layers):
        state, _, _ = small_setup()
        state = TrainState(dataclasses.replace(state.model_cfg, n_layers=n_layers),
                           state.drop_cfg, state.obj_cfg, state.train_cfg)
        path = tmp_path / "ckpt.npz"
        checkpoint(state, path)
        with np.load(path) as archive:
            assert sorted(archive.files) == ["adam_m", "adam_v", "header", "params"]
            size = sum(t.data.size for t in state.params.values())
            assert all(archive[k].shape == (size,) for k in ("params", "adam_m", "adam_v"))

    def test_rewrite_of_a_restored_checkpoint_is_byte_identical(self, tmp_path):
        state, train, _ = small_setup(max_steps=2, validate_every=2)
        run_training(state, train)
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        checkpoint(state, first)
        checkpoint(restore(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_restored_arrays_are_separate_writable_float64(self, tmp_path):
        state, train, _ = small_setup(max_steps=2, validate_every=2)
        run_training(state, train)
        path = tmp_path / "ckpt.npz"
        checkpoint(state, path)
        restored = restore(path)
        arrays = [t.data for t in restored.params.values()]
        arrays += list(restored.adam_m.values()) + list(restored.adam_v.values())
        assert len(arrays) == 3 * len(state.params)
        for a in arrays:
            assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable
            # owning its buffer, it shares memory with no other array
            assert a.flags.owndata

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        state, train, _ = small_setup(max_steps=2, validate_every=2)
        path = tmp_path / "ckpt.npz"
        checkpoint(state, path)
        before = path.read_bytes()
        run_training(state, train)

        def savez_then_fail(fh, **arrays):
            fh.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_then_fail)
        with pytest.raises(OSError, match="disk full"):
            checkpoint(state, path)
        assert path.read_bytes() == before
        assert restore(path).step == 0
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            restore(tmp_path / "nope.npz")


class TestBaselineIsolation:
    def test_disabling_token_drop_does_not_shift_init_or_dropout(self):
        # with and without corruption, identical seeds give identical init, and a
        # train step draws the same dropout masks
        a, train, _ = small_setup()
        b, *_ = small_setup(**baseline())
        sa, sb = snapshot(a), snapshot(b)
        assert all(np.array_equal(sa[n], sb[n]) for n in sa)
        batch = make_batches(train, 8, np.random.default_rng(0))[0]
        for state in (a, b):
            train_step(batch, state)
        assert (json.dumps(a.dropout_rng.bit_generator.state)
                == json.dumps(b.dropout_rng.bit_generator.state))
