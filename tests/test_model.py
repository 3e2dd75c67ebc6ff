import inspect
import itertools
import math
import warnings

import numpy as np
import pytest

from tokendrop import autodiff as ad
from tokendrop import model as md
from tokendrop.data import ParallelBatch
from tokendrop.dropping import (DROP_TAG, UNK_TAG, ZERO_OUT, CorruptedBatch, DropConfig, corrupt,
                                corrupt_ids, drop_records, no_drop)
from tokendrop.vocab import BOS_ID, EOS_ID, PAD_ID, UNK_ID

from gradcheck import grad_check


def tiny_cfg(**kw):
    base = dict(d_model=4, d_ffn=8, n_layers=1, n_heads=1,
                src_vocab_size=11, tgt_vocab_size=11, p_dropout=0.0, max_len=16)
    base.update(kw)
    return md.ModelConfig(**base)


def params_for(cfg, seed=0):
    return md.init_parameters(cfg, np.random.default_rng(seed))


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            md.ModelConfig(d_model=10, n_heads=3)

    def test_paper_scale_accepted(self):
        cfg = md.ModelConfig(d_model=512, d_ffn=2048, n_layers=6, n_heads=8,
                             src_vocab_size=100, tgt_vocab_size=100, p_dropout=0.3)
        assert cfg.d_model == 512

    @pytest.mark.parametrize("tie_output", [False, True])
    def test_each_parameter_name_has_its_own_array(self, tie_output):
        cfg = md.ModelConfig(src_vocab_size=11, tgt_vocab_size=13, tie_output=tie_output)
        params = params_for(cfg)
        assert ("out_proj" in params) is not tie_output
        for (a, x), (b, y) in itertools.combinations(params.items(), 2):
            assert x is not y and not np.shares_memory(x.data, y.data), (a, b)

    def test_parameter_count_is_config_function(self):
        a = md.parameter_count(params_for(tiny_cfg(), seed=1))
        b = md.parameter_count(params_for(tiny_cfg(), seed=99))
        assert a == b


class TestEmbed:
    def test_zero_out_zeroes_before_positions(self):
        cfg = tiny_cfg()
        params = params_for(cfg)
        ids = np.array([[5, 6, 7]])
        mask = np.array([[False, True, False]])
        out = md.embed(params["src_emb"], CorruptedBatch(ids, mask, ids, mask, zeroed=mask), cfg)
        pos = md.sinusoidal_encoding(cfg.max_len, cfg.d_model)
        np.testing.assert_allclose(out.data[0, 1], pos[1], atol=1e-12)
        expected = params["src_emb"].data[5] * math.sqrt(cfg.d_model) + pos[0]
        np.testing.assert_allclose(out.data[0, 0], expected, atol=1e-12)

    def test_strategies_agree_with_empty_mask(self):
        cfg = tiny_cfg()
        params = params_for(cfg)
        ids = np.array([[5, 6, 7]])
        outs = [md.embed(params["src_emb"], corrupt_ids(ids, 0.0, s, np.random.default_rng(0)),
                         cfg).data
                for s in (ZERO_OUT, DROP_TAG, UNK_TAG)]
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[1], outs[2])

    def test_unk_tag_row_is_unk_embedding(self):
        cfg = tiny_cfg()
        params = params_for(cfg)
        ids = np.array([[5, UNK_ID, 7]])  # corruption already in ids
        mask = np.array([[False, True, False]])
        out = md.embed(params["src_emb"], CorruptedBatch(ids, mask, np.array([[5, 6, 7]]), mask),
                       cfg)
        pos = md.sinusoidal_encoding(cfg.max_len, cfg.d_model)
        expected = params["src_emb"].data[UNK_ID] * math.sqrt(cfg.d_model) + pos[1]
        np.testing.assert_allclose(out.data[0, 1], expected, atol=1e-12)

    def test_out_of_range_id(self):
        cfg = tiny_cfg()
        with pytest.raises(IndexError):
            md.embed(params_for(cfg)["src_emb"], no_drop(np.array([[99]])), cfg)


def encode_ids(ids, params, cfg):
    return md.encode(no_drop(np.asarray(ids)), params, cfg)


class TestEncode:
    def test_output_shape(self):
        cfg = tiny_cfg(n_layers=2, n_heads=2)
        enc = encode_ids([[5, 6, 7], [8, 9, PAD_ID]], params_for(cfg), cfg)
        assert enc.hidden.data.shape == (2, 3, cfg.d_model)

    def test_eval_mode_deterministic(self):
        cfg = tiny_cfg(p_dropout=0.5)  # dropout configured but eval mode ignores it
        params = params_for(cfg)
        a = encode_ids([[5, 6]], params, cfg).hidden.data
        b = encode_ids([[5, 6]], params, cfg).hidden.data
        assert (a == b).all()

    def test_matches_single_layer_reference(self):
        # independent step-by-step computation of one encoder layer, d_model=2
        cfg = md.ModelConfig(d_model=2, d_ffn=3, n_layers=1, n_heads=1,
                             src_vocab_size=8, tgt_vocab_size=8, p_dropout=0.0, max_len=8)
        params = params_for(cfg, seed=3)
        ids = np.array([[5, 6]])
        enc = encode_ids(ids, params, cfg)

        def np_layer_norm(v, g, b, eps=1e-5):
            mu = v.mean(-1, keepdims=True)
            var = ((v - mu) ** 2).mean(-1, keepdims=True)
            return (v - mu) / np.sqrt(var + eps) * g + b

        p = {k: v.data for k, v in params.items()}
        x = p["src_emb"][ids[0]] * math.sqrt(2) + md.sinusoidal_encoding(8, 2)[:2]
        q, k, v = x @ p["enc0.attn.wq"], x @ p["enc0.attn.wk"], x @ p["enc0.attn.wv"]
        scores = q @ k.T / math.sqrt(2)
        attn = np.exp(scores - scores.max(-1, keepdims=True))
        attn /= attn.sum(-1, keepdims=True)
        x = np_layer_norm(x + (attn @ v) @ p["enc0.attn.wo"],
                          p["enc0.ln1.gain"], p["enc0.ln1.bias"])
        h = np.maximum(x @ p["enc0.ffn.w1"] + p["enc0.ffn.b1"], 0.0)
        x = np_layer_norm(x + h @ p["enc0.ffn.w2"] + p["enc0.ffn.b2"],
                          p["enc0.ln2.gain"], p["enc0.ln2.bias"])
        np.testing.assert_allclose(enc.hidden.data[0], x, atol=1e-10)

    def test_too_long_sequence(self):
        cfg = tiny_cfg(max_len=4)
        with pytest.raises(ValueError, match="max_len"):
            encode_ids([[5, 6, 7, 8, 9]], params_for(cfg), cfg)

    def test_pad_insensitivity(self):
        cfg = tiny_cfg(n_layers=2)
        params = params_for(cfg)
        short = encode_ids([[5, 6, 7]], params, cfg).hidden.data
        padded = encode_ids([[5, 6, 7, PAD_ID, PAD_ID]], params, cfg).hidden.data
        np.testing.assert_allclose(padded[:, :3], short, atol=1e-9)


class TestDecode:
    def run_decode(self, tgt_ids, params, cfg, src_ids=((5, 6),)):
        enc = encode_ids(np.asarray(src_ids), params, cfg)
        return md.decode(no_drop(np.asarray(tgt_ids)), enc, params, cfg)

    def test_logits_shape(self):
        cfg = tiny_cfg()
        out = self.run_decode([[1, 5, 6]], params_for(cfg), cfg)
        assert out.data.shape == (1, 3, cfg.tgt_vocab_size)

    def test_causality_exhaustive(self):
        cfg = tiny_cfg(n_layers=2)
        params = params_for(cfg)
        base_ids = [1, 5, 6, 7, 8]
        base = self.run_decode([base_ids], params, cfg).data
        for j in range(1, len(base_ids)):
            changed = list(base_ids)
            changed[j] = 9 if changed[j] != 9 else 10
            out = self.run_decode([changed], params, cfg).data
            np.testing.assert_allclose(out[0, :j], base[0, :j], atol=1e-12)
            assert not np.allclose(out[0, j:], base[0, j:], atol=1e-9)

    @pytest.mark.parametrize("chunks", [(1,) * 7, (3, 1, 2, 1)])
    def test_cached_decode_matches_one_full_decode_at_every_step(self, chunks):
        cfg = tiny_cfg(d_model=8, d_ffn=16, n_layers=2, n_heads=2)
        params = params_for(cfg, seed=5)
        enc = encode_ids([[5, 6, 7, 8], [9, 5, PAD_ID, PAD_ID], [6, PAD_ID, PAD_ID, PAD_ID]],
                         params, cfg)
        # row 1 has ended: greedy decoding feeds it PAD after its EOS
        tgt = np.array([[BOS_ID, 5, 6, 7, 8, 9, 10],
                        [BOS_ID, 7, EOS_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
                        [BOS_ID, 8, 8, 9, 10, 5, 5]])
        full = md.decode(no_drop(tgt), enc, params, cfg).data
        cache = md.DecodeCache()
        start = 0
        for n in chunks:
            new = md.decode(no_drop(tgt[:, start:start + n]), enc, params, cfg, cache=cache).data
            start += n
            assert cache.start == start and new.shape == (3, n, cfg.tgt_vocab_size)
            np.testing.assert_allclose(new, full[:, start - n:start], rtol=0,
                                       atol=1e-12 * np.abs(full).max())
        assert set(cache.kv) == {f"dec{i}.{b}" for i in range(2) for b in ("self", "cross")}

    def test_cached_decode_past_max_len_rejected(self):
        cfg = tiny_cfg(max_len=4)
        params = params_for(cfg)
        enc = encode_ids([[5, 6]], params, cfg)
        cache = md.DecodeCache()
        md.decode(no_drop(np.array([[BOS_ID, 5, 6]])), enc, params, cfg, cache=cache)
        md.decode(no_drop(np.array([[7]])), enc, params, cfg, cache=cache)  # the last position
        with pytest.raises(ValueError, match="sequence length 5 exceeds max_len 4"):
            md.decode(no_drop(np.array([[8]])), enc, params, cfg, cache=cache)
        assert cache.start == 4 and cache.pad_mask.shape == (1, 4)

    def test_tied_output_projection_option(self):
        cfg = tiny_cfg(tie_output=True)
        params = params_for(cfg)
        assert "out_proj" not in params
        out = self.run_decode([[1, 5]], params, cfg)
        assert out.data.shape == (1, 2, cfg.tgt_vocab_size)

    def test_tied_embedding_gets_lookup_plus_projection_gradient(self, monkeypatch):
        cfg = tiny_cfg(tie_output=True)
        target = no_drop(np.array([[BOS_ID, 5, 6, 5]]))
        weights = np.random.default_rng(1).normal(size=(1, 4, cfg.tgt_vocab_size))

        def tgt_emb_grads(separate_lookup):
            params = params_for(cfg)
            tied = params["tgt_emb"]
            lookup = ad.Tensor(tied.data.copy(), requires_grad=True) if separate_lookup else tied
            real_embed = md.embed
            monkeypatch.setattr(md, "embed", lambda table, *a, **kw: real_embed(
                lookup if table is tied else table, *a, **kw))
            enc = encode_ids([[5, 6]], params, cfg)
            with ad.GradTape():
                out = md.decode(target, enc, params, cfg)
                ad.backward(ad.tsum(ad.mul(out, weights)))
            return tied.grad, lookup.grad

        both, _ = tgt_emb_grads(False)
        projection, lookup = tgt_emb_grads(True)
        assert lookup.any() and projection.any()
        np.testing.assert_array_equal(both, projection + lookup)


def test_mode_arguments_are_keyword_only():
    # a stray positional, such as a strategy string, must not bind to `train`
    cfg = tiny_cfg()
    params = params_for(cfg)
    src, tgt = no_drop(np.array([[5, 6]])), no_drop(np.array([[1, 5]]))
    enc = md.encode(src, params, cfg)
    with pytest.raises(TypeError):
        md.encode(src, params, cfg, UNK_TAG)
    with pytest.raises(TypeError):
        md.decode(tgt, enc, params, cfg, UNK_TAG)
    with pytest.raises(TypeError):
        md.embed(params["src_emb"], src, cfg, UNK_TAG)


def test_attention_block_positional_parameters():
    # bench/tracer.py names each attention block by its second positional
    # argument and hands the cache on through *args; a reorder would silently
    # zero its per-block metrics
    params = inspect.signature(md._attention).parameters.values()
    assert [p.name for p in params] == ["params", "prefix", "q_in", "kv_in", "key_pad",
                                        "causal", "cfg", "cache"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


class TestHeads:
    def test_rtd_zero_weights_give_half(self):
        cfg = tiny_cfg()
        params = params_for(cfg)
        params["rtd.w"].data[:] = 0.0
        params["rtd.b"].data[:] = 0.0
        enc = encode_ids([[5, 6, 7]], params, cfg)
        np.testing.assert_allclose(md.rtd_head(enc, params).data, np.full((1, 3), 0.5), atol=1e-12)

    def test_rtd_bounded_for_huge_hidden(self):
        cfg = tiny_cfg()
        params = params_for(cfg)
        enc = md.EncodedBatch(hidden=ad.Tensor(np.full((1, 2, cfg.d_model), 1e3)),
                              pad_mask=np.zeros((1, 2), dtype=bool))
        probs = md.rtd_head(enc, params).data
        assert ((probs > 0) & (probs < 1)).all()

    def test_rtd_saturated_low_raises_no_warning(self):
        # these weights map a hidden state of -1e3 to logits near -1e3, where exp(-z) overflows
        cfg = tiny_cfg()
        params = params_for(cfg)
        enc = md.EncodedBatch(hidden=ad.Tensor(np.full((1, 2, cfg.d_model), -1e3)),
                              pad_mask=np.zeros((1, 2), dtype=bool))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = md.rtd_head(enc, params).data
        np.testing.assert_array_equal(probs, np.full((1, 2), 1e-12))

    def test_rtd_hand_computed_logistic(self):
        cfg = md.ModelConfig(d_model=2, d_ffn=2, n_layers=1, n_heads=1,
                             src_vocab_size=8, tgt_vocab_size=8, p_dropout=0.0)
        params = params_for(cfg)
        params["rtd.w"].data[:] = np.array([[0.3], [-0.8]])
        params["rtd.b"].data[:] = 0.1
        hidden = np.array([[[1.5, -2.0]]])
        enc = md.EncodedBatch(hidden=ad.Tensor(hidden), pad_mask=np.zeros((1, 1), dtype=bool))
        z = 1.5 * 0.3 + (-2.0) * (-0.8) + 0.1
        np.testing.assert_allclose(md.rtd_head(enc, params).data[0, 0],
                                   1 / (1 + math.exp(-z)), atol=1e-12)

    def test_dtp_empty_dropped_set(self):
        cfg = tiny_cfg()
        params = params_for(cfg)
        enc = encode_ids([[5, 6]], params, cfg)
        out = md.dtp_head(enc, np.array([], dtype=int), np.array([], dtype=int), params)
        assert out.data.shape == (0, cfg.src_vocab_size)

    def test_dtp_orthogonal_embedding_argmax(self):
        cfg = tiny_cfg(d_model=4, src_vocab_size=4, tgt_vocab_size=4)
        params = params_for(cfg)
        params["src_emb"].data = np.eye(4)
        hidden = ad.Tensor(np.eye(4)[2][None, None, :])  # equals embedding row 2
        enc = md.EncodedBatch(hidden=hidden, pad_mask=np.zeros((1, 1), dtype=bool))
        logits = md.dtp_head(enc, np.array([0]), np.array([0]), params)
        assert int(np.argmax(logits.data[0])) == 2

    def test_tying_is_single_storage(self):
        cfg = tiny_cfg()
        params = params_for(cfg)
        ids = np.array([[5, 6, 7]])
        enc = encode_ids(ids, params, cfg)
        with ad.GradTape():
            logits = md.dtp_head(enc, np.array([0]), np.array([1]), params)
            loss = ad.cross_entropy(logits, np.array([6]))
            # gradient flows into the embedding through the projection alias
            ad.backward(loss, params=[params["src_emb"]])
        assert params["src_emb"].grad is not None

        before = params["src_emb"].data.copy()
        params["src_emb"].data -= 0.1 * params["src_emb"].grad
        after_embed = md.embed(params["src_emb"], no_drop(ids), cfg)
        reference = md.embed  # same lookup path sees the mutation
        assert not np.allclose(
            after_embed.data,
            ad.embedding(ad.Tensor(before), ids).data * math.sqrt(cfg.d_model)
            + md.sinusoidal_encoding(cfg.max_len, cfg.d_model)[:3])
        params["src_emb"].zero_grad()


class TestFullLossGradient:
    def test_grad_check_joint_loss_tiny(self):
        # all three objectives, every parameter, central differences
        from tokendrop.objectives import (ObjectiveConfig, dtp_loss, joint_loss, rtd_loss,
                                          translation_loss)

        cfg = tiny_cfg()
        dc = DropConfig(p_source=0.3, p_target=0.3, strategy=UNK_TAG)
        oc = ObjectiveConfig()
        params = params_for(cfg, seed=11)
        batch = ParallelBatch([[5, 6, 7], [8, 9]], [[6, 7, 5], [9, 8]])
        src, tgt = corrupt(batch, dc, np.random.default_rng(4))
        bi, pi, orig, _ = drop_records(src)

        worst = 0.0
        for name, tensor in params.items():
            def f(x, name=name):
                saved = params[name]
                params[name] = x
                try:
                    enc = md.encode(src, params, cfg)
                    logits = md.decode(tgt, enc, params, cfg)
                    l_m = translation_loss(logits, batch.target_output, PAD_ID)
                    l_rtd = rtd_loss(md.rtd_head(enc, params), src.mask, src.droppable)
                    l_dtp = dtp_loss(md.dtp_head(enc, bi, pi, params), orig)
                    joint, _ = joint_loss(l_m, l_rtd, l_dtp, oc)
                    return joint
                finally:
                    params[name] = saved

            worst = max(worst, grad_check(f, tensor, eps=1e-6))
        assert worst < 1e-4
