import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokendrop import autodiff as ad
from tokendrop import objectives as ob
from tokendrop.vocab import PAD_ID

finite = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def t(x):
    return ad.Tensor(np.asarray(x, dtype=np.float64))


class TestTranslationLoss:
    def test_perfect_one_hot(self):
        logits = np.full((1, 2, 3), -1e4)
        logits[0, 0, 1] = 1e4
        logits[0, 1, 2] = 1e4
        loss = ob.translation_loss(t(logits), np.array([[1, 2]]), PAD_ID)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_logits_ln_v(self):
        v = 9
        loss = ob.translation_loss(t(np.zeros((2, 3, v))), np.full((2, 3), 5), PAD_ID)
        assert float(loss.data) == pytest.approx(math.log(v), abs=1e-12)
        assert math.exp(float(loss.data)) == pytest.approx(v, abs=1e-9)

    def test_hand_two_tokens(self):
        logits = np.zeros((1, 2, 3))
        logits[0, 0] = [0.0, 2.0, 0.0]
        logits[0, 1] = [0.0, 0.0, 1.0]
        p0 = math.exp(2) / (math.exp(2) + 2)
        p1 = math.exp(1) / (math.exp(1) + 2)
        expected = (-math.log(p0) - math.log(p1)) / 2
        loss = ob.translation_loss(t(logits), np.array([[1, 2]]), PAD_ID)
        assert float(loss.data) == pytest.approx(expected, abs=1e-12)

    def test_pad_ignored(self):
        logits = np.zeros((1, 2, 4))
        logits[0, 1] = [50.0, 0.0, 0.0, 0.0]  # pad position, would dominate if counted
        full = ob.translation_loss(t(logits), np.array([[2, PAD_ID]]), PAD_ID)
        assert float(full.data) == pytest.approx(math.log(4), abs=1e-12)


class TestRtdLoss:
    def test_half_probs_ln2(self):
        probs = t(np.full((2, 3), 0.5))
        mask = np.zeros((2, 3), dtype=bool)
        droppable = np.ones((2, 3), dtype=bool)
        loss = ob.rtd_loss(probs, mask, droppable)
        assert float(loss.data) == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_discriminator_near_zero(self):
        mask = np.array([[True, False, False]])
        droppable = np.ones((1, 3), dtype=bool)
        probs = np.where(mask, 1.0 - 1e-7, 1e-7)
        loss = ob.rtd_loss(t(probs), mask, droppable)
        assert float(loss.data) <= 1e-6

    def test_hand_computed_bce(self):
        labels = np.array([[True, False, False]])
        probs = np.array([[0.9, 0.2, 0.1]])
        droppable = np.ones((1, 3), dtype=bool)
        expected = -(math.log(0.9) + math.log(0.8) + math.log(0.9)) / 3
        loss = ob.rtd_loss(t(probs), labels, droppable)
        assert float(loss.data) == pytest.approx(expected, abs=1e-12)

    def test_non_droppable_excluded(self):
        labels = np.array([[True, False]])
        probs = np.array([[0.9, 0.001]])  # second position not droppable
        droppable = np.array([[True, False]])
        loss = ob.rtd_loss(t(probs), labels, droppable)
        assert float(loss.data) == pytest.approx(-math.log(0.9), abs=1e-12)

    def test_no_droppable_positions_give_zero_loss_and_gradient(self):
        probs = ad.Tensor(np.full((1, 2), 0.5), requires_grad=True)
        with ad.GradTape():
            loss = ob.rtd_loss(probs, np.zeros((1, 2), dtype=bool), np.zeros((1, 2), dtype=bool))
            ad.backward(loss, params=[probs])
        assert float(loss.data) == 0.0
        np.testing.assert_array_equal(probs.grad, np.zeros((1, 2)))

    def test_saturated_rtd_head_gives_finite_loss_and_gradients(self):
        from tokendrop import model as md

        cfg = md.ModelConfig(d_model=4, d_ffn=8, n_layers=1, n_heads=1,
                             src_vocab_size=11, tgt_vocab_size=11)
        params = md.init_parameters(cfg, np.random.default_rng(0))
        hidden = ad.Tensor(np.full((2, 3, cfg.d_model), 1e3), requires_grad=True)
        enc = md.EncodedBatch(hidden=hidden, pad_mask=np.zeros((2, 3), dtype=bool))
        mask = np.array([[True, False, False], [False, True, False]])
        with ad.GradTape():
            loss = ob.rtd_loss(md.rtd_head(enc, params), mask, np.ones((2, 3), dtype=bool))
            ad.backward(loss, params=[params["rtd.w"], params["rtd.b"]])
        assert np.isfinite(float(loss.data))
        for g in (hidden.grad, params["rtd.w"].grad, params["rtd.b"].grad):
            assert np.isfinite(g).all()

    def test_zero_drop_rate_reduces_to_all_clear_labels(self):
        probs = np.array([[0.25, 0.4]])
        droppable = np.ones((1, 2), dtype=bool)
        loss = ob.rtd_loss(t(probs), np.zeros((1, 2), dtype=bool), droppable)
        expected = -(math.log(0.75) + math.log(0.6)) / 2
        assert float(loss.data) == pytest.approx(expected, abs=1e-12)


class TestDtpLoss:
    def test_empty_dropped_set(self):
        proj = ad.Tensor(np.ones((3, 7)), requires_grad=True)
        with ad.GradTape():
            # no hidden states at dropped positions: [0, d] @ [d, V] logits
            loss = ob.dtp_loss(ad.matmul(t(np.zeros((0, 3))), proj), np.array([], dtype=int))
            ad.backward(loss, params=[proj])
        assert float(loss.data) == 0.0
        np.testing.assert_array_equal(proj.grad, np.zeros((3, 7)))

    def test_uniform_ln_v(self):
        loss = ob.dtp_loss(t(np.zeros((4, 11))), np.array([5, 6, 7, 8]))
        assert float(loss.data) == pytest.approx(math.log(11), abs=1e-12)

    def test_hand_single_token(self):
        logits = np.array([[1.0, 3.0, 0.0]])
        p = math.exp(3) / (math.exp(1) + math.exp(3) + 1)
        loss = ob.dtp_loss(t(logits), np.array([1]))
        assert float(loss.data) == pytest.approx(-math.log(p), abs=1e-12)


class TestJointLoss:
    def test_alpha_beta_zero_reduces_to_lm(self):
        joint, report = ob.joint_loss(t(2.5), t(1.0), t(0.7), ob.ObjectiveConfig(alpha=0, beta=0))
        assert float(joint.data) == 2.5
        assert report.joint == 2.5

    def test_unit_weights_sum(self):
        joint, _ = ob.joint_loss(t(2.0), t(0.5), t(0.3), ob.ObjectiveConfig())
        assert float(joint.data) == pytest.approx(2.8, abs=1e-15)

    def test_weighted_arithmetic(self):
        joint, _ = ob.joint_loss(t(1.0), t(1.0), t(1.0), ob.ObjectiveConfig(alpha=2.0, beta=0.5))
        assert float(joint.data) == 3.5

    def test_non_finite_identifies_component(self):
        with pytest.raises(ob.NonFiniteLossError, match="l_rtd"):
            ob.joint_loss(t(1.0), t(np.nan), t(0.0), ob.ObjectiveConfig())
        with pytest.raises(ob.NonFiniteLossError, match="l_dtp"):
            ob.joint_loss(t(1.0), t(0.0), t(np.inf), ob.ObjectiveConfig())

    def test_default_weights_are_one(self):
        cfg = ob.ObjectiveConfig()
        assert cfg.alpha == 1.0 and cfg.beta == 1.0

    @given(finite, finite, finite, st.floats(0, 4, allow_nan=False), st.floats(0, 4, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_decomposition_identity_bitwise(self, lm, lrtd, ldtp, alpha, beta):
        cfg = ob.ObjectiveConfig(alpha=alpha, beta=beta)
        joint, report = ob.joint_loss(t(lm), t(lrtd), t(ldtp), cfg)
        assert report.joint == lm + alpha * lrtd + beta * ldtp  # bitwise
        assert report.joint - (report.l_m + alpha * report.l_rtd + beta * report.l_dtp) == 0.0


class TestBatchPermutationInvariance:
    def test_losses_invariant_under_row_permutation(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 3, 8))
        targets = rng.integers(1, 8, size=(4, 3))
        perm = np.array([2, 0, 3, 1])
        a = ob.translation_loss(t(logits), targets, PAD_ID)
        b = ob.translation_loss(t(logits[perm]), targets[perm], PAD_ID)
        assert float(a.data) == pytest.approx(float(b.data), abs=1e-12)

        probs = rng.uniform(0.1, 0.9, size=(4, 5))
        mask = rng.random((4, 5)) < 0.3
        droppable = rng.random((4, 5)) < 0.8
        mask &= droppable
        x = ob.rtd_loss(t(probs), mask, droppable)
        y = ob.rtd_loss(t(probs[perm]), mask[perm], droppable[perm])
        assert float(x.data) == pytest.approx(float(y.data), abs=1e-12)


class TestPerObjectiveGradientScaling:
    def test_joint_gradient_is_weighted_sum_of_parts(self):
        from tokendrop.data import ParallelBatch
        from tokendrop.dropping import DropConfig, corrupt, drop_records
        from tokendrop import model as md

        cfg = md.ModelConfig(d_model=4, d_ffn=8, n_layers=1, n_heads=1,
                             src_vocab_size=11, tgt_vocab_size=11, p_dropout=0.0)
        params = md.init_parameters(cfg, np.random.default_rng(0))
        batch = ParallelBatch([[5, 6, 7]], [[6, 7]])
        src, tgt = corrupt(batch, DropConfig(p_source=0.5, p_target=0.3), np.random.default_rng(2))
        bi, pi, orig, _ = drop_records(src)
        alpha, beta = 1.7, 0.4

        def grads_of(which):
            for p in params.values():
                p.zero_grad()
            with ad.GradTape():
                enc = md.encode(src, params, cfg)
                logits = md.decode(tgt, enc, params, cfg)
                losses = {
                    "m": lambda: ob.translation_loss(logits, batch.target_output, PAD_ID),
                    "rtd": lambda: ob.rtd_loss(md.rtd_head(enc, params), src.mask, src.droppable),
                    "dtp": lambda: ob.dtp_loss(md.dtp_head(enc, bi, pi, params), orig),
                }
                if which == "joint":
                    joint, _ = ob.joint_loss(losses["m"](), losses["rtd"](), losses["dtp"](),
                                             ob.ObjectiveConfig(alpha=alpha, beta=beta))
                    ad.backward(joint, params=list(params.values()))
                else:
                    ad.backward(losses[which](), params=list(params.values()))
            return {n: p.grad.copy() for n, p in params.items()}

        g_joint = grads_of("joint")
        g_m, g_rtd, g_dtp = grads_of("m"), grads_of("rtd"), grads_of("dtp")
        for name in g_joint:
            np.testing.assert_allclose(
                g_joint[name], g_m[name] + alpha * g_rtd[name] + beta * g_dtp[name], atol=1e-12)
