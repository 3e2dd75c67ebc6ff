import ctypes
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from tokendrop import autodiff as ad
from tokendrop.config import load_config
from tokendrop.data import make_batches
from tokendrop.pipeline import build_state, prepare_data
from tokendrop.training import train_step

from gradcheck import grad_check


def t(data, grad=False):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(t(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_zero_annihilator(self):
        z = t(np.zeros((2, 2)))
        b = t(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(ad.matmul(z, b).data, np.zeros((2, 3)))

    def test_hand_product(self):
        out = ad.matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m, k, n = rng.integers(1, 17, size=3)
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            slow = np.zeros((m, n))
            for i in range(m):
                for j in range(n):
                    for l in range(k):
                        slow[i, j] += a[i, l] * b[l, j]
            np.testing.assert_allclose(ad.matmul(t(a), t(b)).data, slow, atol=1e-10)

    def test_batched_gradient(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(2, 3, 4))

        def f(x):
            return ad.tsum(ad.matmul(x, t(b)))

        err = grad_check(f, t(rng.normal(size=(2, 5, 3))))
        assert err < 1e-6


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(t([0.0, 0.0, 0.0]), 0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-12)

    def test_analytic(self):
        out = ad.softmax(t([0.0, np.log(2.0)]), 0)
        np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-12)

    def test_shift_invariance(self):
        x = np.array([0.3, -1.2, 2.5])
        base = ad.softmax(t(x), 0).data
        for c in (-1e4, -7.0, 123.0, 1e4):
            np.testing.assert_allclose(ad.softmax(t(x + c), 0).data, base, atol=1e-12)

    def test_sums_to_one_large_magnitude(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1e4, 1e4, size=(5, 9))
        s = ad.softmax(t(x), -1).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(5), atol=1e-9)
        assert (s >= 0).all()
        assert not ((s > 0) & (s < np.finfo(np.float64).tiny)).any()

    def test_underflow_is_an_exact_zero(self):
        # exp(-720) is a subnormal (about 1.3e-313); softmax must not pass it on
        x = t([[0.0, -720.0], [0.3, -0.2]])
        s = ad.softmax(x, -1).data
        assert s[0, 0] == 1.0 and s[0, 1] == 0.0
        assert not ((s > 0) & (s < np.finfo(np.float64).tiny)).any()
        w = np.array([[0.7, -1.3], [2.0, 0.5]])
        assert grad_check(lambda z: ad.tsum(ad.mul(ad.softmax(z, -1), w)), x) < 1e-6

    def test_invalid_axis(self):
        with pytest.raises(ad.ShapeError):
            ad.softmax(t([1.0, 2.0]), 3)


def projection(rng, b, length, d_model):
    """A [b, length, d_model] leaf, laid out as the model's projections are."""
    return t(rng.normal(size=(b, length, d_model)), grad=True)


def attention_chain(q, k, v, key_pad, causal, heads):
    """The primitive chain the fused op replaced: split into heads, the
    per-head chain with masks as float biases, then merge."""
    b, lq, d_model = q.shape
    lk, d = k.shape[1], d_model // heads

    def split(x, length):
        return ad.transpose(ad.reshape(x, (b, length, heads, d)), (0, 2, 1, 3))

    q, k, v = split(q, lq), split(k, lk), split(v, lk)
    bias = np.where(key_pad, -1e9, 0.0)[:, None, None, :]
    if causal:
        bias = np.triu(np.full((lq, lk), -1e9), k=1 + lk - lq) + bias
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(d))
    ctx = ad.matmul(ad.softmax(ad.add(scores, bias), -1), v)
    return ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, lq, d_model))


def fused_and_chain(rng, lq, lk, heads, d_head, causal):
    """Output and q, k, v gradients of the fused op and of the chain, on
    three batch rows: row 0 pads its last two keys, row 1 none, row 2 every
    key (fully masked)."""
    d_model = heads * d_head
    data = [rng.normal(size=(3, n, d_model)) for n in (lq, lk, lk)]
    key_pad = np.zeros((3, lk), dtype=bool)
    key_pad[0, -2:] = key_pad[2] = True
    w = rng.normal(size=(3, lq, d_model))
    results = []
    for op in (ad.attention, attention_chain):
        qkv = [t(x, grad=True) for x in data]
        with ad.GradTape():
            out = op(*qkv, key_pad, causal, heads)
            ad.backward(ad.tsum(ad.mul(out, w)))
        results.append([out.data, *(x.grad for x in qkv)])
    return results


class TestAttention:
    @pytest.mark.parametrize("d_head", [16, 12])
    @pytest.mark.parametrize("causal", [True, False])
    def test_bitwise_equal_to_the_primitive_chain(self, d_head, causal):
        lq, lk = (7, 7) if causal else (5, 7)
        for fused, chain in zip(*fused_and_chain(np.random.default_rng(d_head), lq, lk, 2,
                                                 d_head, causal)):
            assert fused.tobytes() == chain.tobytes()

    @pytest.mark.parametrize("causal", [True, False])
    def test_bitwise_equal_to_the_chain_with_one_head_and_fewer_queries(self, causal):
        for fused, chain in zip(*fused_and_chain(np.random.default_rng(1), 4, 7, 1, 16,
                                                 causal)):
            assert fused.tobytes() == chain.tobytes()

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_grad_check(self, which):
        rng = np.random.default_rng(which)
        qkv = [projection(rng, 2, 4, 6) for _ in range(3)]
        key_pad = np.array([[False, False, False, True], [False, False, False, False]])
        w = rng.normal(size=(2, 4, 6))

        def f(x):
            args = [x if i == which else a for i, a in enumerate(qkv)]
            return ad.tsum(ad.mul(ad.attention(*args, key_pad, True, 2), w))

        assert grad_check(f, qkv[which]) < 1e-6

    def test_masked_keys_get_no_weight_and_no_gradient(self):
        rng = np.random.default_rng(4)
        q, k, v = (projection(rng, 1, 5, 8) for _ in range(3))
        key_pad = np.array([[False, False, True, False, True]])
        with ad.GradTape():
            out = ad.attention(q, k, v, key_pad, False, 2)
            ad.backward(ad.tsum(ad.mul(out, rng.normal(size=out.shape))))
        alone = ad.attention(q.data, k.data[:, [0, 1, 3]], v.data[:, [0, 1, 3]],
                             np.zeros((1, 3), dtype=bool), False, 2)
        np.testing.assert_allclose(out.data, alone.data, rtol=1e-12)
        assert not k.grad[:, [2, 4]].any() and not v.grad[:, [2, 4]].any()

    def test_fully_masked_row_stays_finite(self):
        rng = np.random.default_rng(5)
        q, k, v = (projection(rng, 1, 3, 4) for _ in range(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with ad.GradTape():
                out = ad.attention(q, k, v, np.ones((1, 3), dtype=bool), False, 1)
                ad.backward(ad.tsum(out))
        assert np.isfinite(out.data).all()
        assert all(np.isfinite(x.grad).all() for x in (q, k, v))
        # every score carries the same offset, so the row attends over all its keys
        np.testing.assert_allclose(out.data, ad.attention(q, k, v, np.zeros((1, 3), bool),
                                                          False, 1).data, rtol=1e-6)

    def test_score_gap_of_720_gives_an_exact_zero(self, monkeypatch):
        # exp(-720) is a subnormal (about 1.3e-313); the op must not pass it on
        q = t(np.ones((1, 1, 1)), grad=True)
        k = t(np.array([0.0, -720.0]).reshape(1, 2, 1), grad=True)
        v = t(np.array([2.0, 3.0]).reshape(1, 2, 1), grad=True)
        captured = []
        real = ad._softmax_

        def keeping(x, axis):
            captured.append(real(x, axis))
            return captured[-1]

        monkeypatch.setattr(ad, "_softmax_", keeping)
        with ad.GradTape():
            out = ad.attention(q, k, v, np.zeros((1, 2), dtype=bool), False, 1)
            ad.backward(ad.tsum(out))
        [probs] = captured
        assert probs.ravel().tolist() == [1.0, 0.0] and out.data.item() == 2.0
        tiny = np.finfo(np.float64).tiny
        for a in (probs, out.data, q.grad, k.grad, v.grad):
            assert not ((a != 0) & (np.abs(a) < tiny)).any()

    @pytest.mark.parametrize("lq", [1, 3])
    def test_causal_queries_are_the_last_positions(self, lq):
        # a query block that continues a prefix of 6 - lq keys sees that prefix
        rng = np.random.default_rng(lq)
        q, k, v = (projection(rng, 2, 6, 8) for _ in range(3))
        key_pad = np.zeros((2, 6), dtype=bool)
        key_pad[1, 2] = True
        full = ad.attention(q, k, v, key_pad, True, 2).data
        tail = ad.attention(q.data[:, -lq:], k, v, key_pad, True, 2).data
        np.testing.assert_allclose(tail, full[:, -lq:], rtol=1e-12)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_grad_check_with_fewer_queries_than_keys(self, which):
        rng = np.random.default_rng(10 + which)
        qkv = [projection(rng, 2, 2, 6), projection(rng, 2, 5, 6), projection(rng, 2, 5, 6)]
        key_pad = np.array([[False, True, False, False, False], [False] * 5])
        w = rng.normal(size=(2, 2, 6))

        def f(x):
            args = [x if i == which else a for i, a in enumerate(qkv)]
            return ad.tsum(ad.mul(ad.attention(*args, key_pad, True, 2), w))

        assert grad_check(f, qkv[which]) < 1e-6

    def test_causal_with_more_queries_than_keys_rejected(self):
        rng = np.random.default_rng(0)
        q, k = projection(rng, 1, 3, 2), projection(rng, 1, 2, 2)
        with pytest.raises(ad.ShapeError, match="no more queries than keys"):
            ad.attention(q, k, k, np.zeros((1, 2), dtype=bool), True, 1)

    # q, k, v and key_pad shapes, with 2 heads; "three_d" passes 4-d stacks
    @pytest.mark.parametrize("shapes, pad", [
        (((1, 3, 4), (1, 3, 6), (1, 3, 4)), (1, 3)),
        (((1, 3, 4), (1, 3, 4), (1, 2, 4)), (1, 3)),
        (((1, 3, 4), (1, 3, 4), (1, 3, 4)), (1, 2)),
        (((1, 3, 5), (1, 3, 5), (1, 3, 5)), (1, 3)),
        (((1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4)), (1, 3)),
    ], ids=["d_head", "v_length", "key_pad", "heads", "three_d"])
    def test_shape_mismatch_rejected(self, shapes, pad):
        with pytest.raises(ad.ShapeError, match="attention"):
            ad.attention(*(t(np.zeros(s)) for s in shapes), np.zeros(pad, dtype=bool), False, 2)


HEAP_PROBE = """
import ctypes, numpy as np, tokendrop.autodiff
class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in ("arena", "ordblks", "smblks", "hblks",
                "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]
info = ctypes.CDLL(None).mallinfo2
info.restype = Mallinfo2
before = info()
arrays = [np.ones(1 << 17) for _ in range(100)]  # 100 arrays of 1 MiB
during = info()
del arrays
after = info()
# bytes in mappings of their own, and bytes the heap gave back
print(during.hblkhd - before.hblkhd, during.arena - after.arena)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallinfo2"), reason="needs glibc >= 2.33")
def test_freed_arrays_stay_in_the_heap():
    # a fresh process: the thresholds must come from importing autodiff
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", HEAP_PROBE], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    mapped, trimmed = map(int, out.split())
    assert (mapped, trimmed) == (0, 0)


def power(a, e):
    """The constant-exponent power op `layer_norm` once recorded: a**e, with
    the gradient g·e·a**(e - 1)."""
    x = a.data
    out = ad.Tensor(x**e)
    ad._record((a,), out, lambda g: (g * e * x ** (e - 1.0),))
    return out


def layer_norm_chain(x, gain, bias, eps=1e-5):
    """The 11-entry primitive chain `layer_norm` replaced."""
    mu = ad.tmean(x, axis=-1, keepdims=True)
    centered = ad.sub(x, mu)
    var = ad.tmean(ad.mul(centered, centered), axis=-1, keepdims=True)
    inv = power(ad.add(var, eps), -0.5)
    return ad.add(ad.mul(ad.mul(centered, inv), gain), bias)


# Fewer entries per layer_norm call fail a benchmark test: it counts the
# backward entries charged to layer_norm against every forward call, the
# untaped validation calls included.
BENCH_LAYER_NORM_ENTRIES = ("bench/test_bench.py::test_composite_op_is_charged_with_the_ops_it_calls"
                            " needs at least 4 tape entries per taped layer_norm call")


def layer_norm_rows(kind, rng):
    """[3, 5, 7] inputs whose rows are random, constant, scaled by 1e6, or laid
    out as a transposed view. Rows of 7, so the 1/7 of each mean rounds."""
    x = rng.normal(size=(3, 5, 7))
    if kind == "constant":
        x[...] = rng.normal(size=(3, 5, 1))  # variance 0: eps decides
        x[0, 0] = 0.1
    elif kind == "scaled":
        x *= 1e6
    elif kind == "transposed":
        x = np.transpose(rng.normal(size=(5, 3, 7)), (1, 0, 2))
    return x


class TestLayerNorm:
    def test_constant_vector_zero_output(self):
        out = ad.layer_norm(t([[4.0, 4.0, 4.0]]), t(np.ones(3)), t(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-6)

    def test_already_normalized(self):
        out = ad.layer_norm(t([1.0, -1.0]), t(np.ones(2)), t(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-5)

    def test_against_mean_variance_oracle(self):
        x = np.array([2.0, 4.0, 6.0])
        mu = x.mean()
        var = ((x - mu) ** 2).mean()
        expected = (x - mu) / np.sqrt(var + 1e-5)
        out = ad.layer_norm(t(x), t(np.ones(3)), t(np.zeros(3)))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_output_statistics(self):
        rng = np.random.default_rng(5)
        x = rng.normal(3.0, 10.0, size=(4, 6, 8))
        out = ad.layer_norm(t(x), t(np.ones(8)), t(np.zeros(8))).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros((4, 6)), atol=1e-6)
        np.testing.assert_allclose(out.var(axis=-1), np.ones((4, 6)), atol=1e-4)

    def test_bad_gain_shape(self):
        with pytest.raises(ad.ShapeError):
            ad.layer_norm(t(np.ones((2, 3))), t(np.ones(4)), t(np.zeros(3)))

    @pytest.mark.parametrize("kind", ["random", "constant", "scaled", "transposed"])
    def test_bitwise_equal_to_the_primitive_chain(self, kind):
        rng = np.random.default_rng(len(kind))
        x = layer_norm_rows(kind, rng)
        gain, bias = rng.normal(size=7), rng.normal(size=7)
        w = rng.normal(size=(3, 5, 7))
        results = []
        for op in (ad.layer_norm, layer_norm_chain):
            leaves = [t(a.copy(order="K"), grad=True) for a in (x, gain, bias)]
            with ad.GradTape():
                out = op(*leaves)
                ad.backward(ad.tsum(ad.mul(ad.add(out, leaves[0]), w)))  # a residual, as in the model
            results.append([out.data, *(leaf.grad for leaf in leaves)])
        for fused, chain in zip(*results):
            assert fused.strides == chain.strides
            assert fused.tobytes() == chain.tobytes()

    def test_records_five_entries(self):
        x, gain, bias = (t(np.ones(s), grad=True) for s in ((2, 3, 4), 4, 4))
        with ad.GradTape() as tape:
            ad.layer_norm(x, gain, bias)
        assert len(tape.entries) == 5, BENCH_LAYER_NORM_ENTRIES

    @pytest.mark.parametrize("which", ["centered", "gain"])
    def test_grad_check_of_the_fused_op(self, which):
        rng = np.random.default_rng(8)
        args = {"centered": t(rng.normal(size=(2, 3, 5))), "gain": t(rng.normal(size=5))}
        w = rng.normal(size=(2, 3, 5))

        def f(v):
            a = dict(args, **{which: v})
            return ad.tsum(ad.mul(ad._normalize_scale(a["centered"], a["gain"], 1e-5), w))

        assert grad_check(f, args[which]) < 1e-6


class TestCrossEntropy:
    def test_perfect_prediction(self):
        logits = np.full((1, 4), -1e4)
        logits[0, 2] = 1e4
        out = ad.cross_entropy(t(logits), np.array([2]))
        assert float(out.data) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_logits(self):
        v = 7
        out = ad.cross_entropy(t(np.zeros((3, v))), np.array([0, 3, 6]))
        assert float(out.data) == pytest.approx(np.log(v), abs=1e-12)

    def test_hand_two_positions(self):
        # row 0: logits [1, 0]; row 1: logits [0, 2]; targets [0, 0]
        logits = np.array([[1.0, 0.0], [0.0, 2.0]])
        p0 = np.exp(1.0) / (np.exp(1.0) + 1.0)
        p1 = 1.0 / (1.0 + np.exp(2.0))
        expected = (-np.log(p0) - np.log(p1)) / 2.0
        out = ad.cross_entropy(t(logits), np.array([0, 0]))
        assert float(out.data) == pytest.approx(expected, abs=1e-12)

    def test_ignored_positions_contribute_nothing(self):
        logits = np.array([[5.0, 0.0], [123.0, -7.0]])
        partial = ad.cross_entropy(t(logits), np.array([0, 9]), ignore_id=9)
        alone = ad.cross_entropy(t(logits[:1]), np.array([0]))
        assert float(partial.data) == pytest.approx(float(alone.data), abs=1e-12)
        assert partial.token_count == 1

    def test_all_ignored_is_zero_with_zero_gradient(self):
        logits = t(np.ones((2, 3)), grad=True)
        with ad.GradTape():
            out = ad.cross_entropy(logits, np.array([7, 7]), ignore_id=7)
            ad.backward(out, params=[logits])
        assert float(out.data) == 0.0
        assert out.token_count == 0
        np.testing.assert_array_equal(logits.grad, np.zeros((2, 3)))

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            ad.cross_entropy(t(np.zeros((1, 3))), np.array([5]))


class TestBackward:
    def test_sum_gives_ones(self):
        w = t(np.arange(6.0).reshape(2, 3), grad=True)
        with ad.GradTape():
            loss = ad.tsum(w)
            ad.backward(loss)
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_unused_parameter_gets_zero(self):
        w = t([1.0, 2.0], grad=True)
        unused = t([3.0], grad=True)
        with ad.GradTape():
            loss = ad.tsum(ad.mul(w, w))
            ad.backward(loss, params=[w, unused])
        np.testing.assert_array_equal(unused.grad, np.zeros(1))

    def test_least_squares_closed_form(self):
        x = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
        y = np.array([1.0, 2.0, 3.0])
        w = t([0.3, -0.7], grad=True)
        with ad.GradTape():
            pred = ad.matmul(t(x), ad.reshape(w, (2, 1)))
            resid = ad.sub(ad.reshape(pred, (3,)), t(y))
            loss = ad.tmean(ad.mul(resid, resid))
            ad.backward(loss)
        analytic = 2.0 / 3.0 * x.T @ (x @ w.data - y)
        np.testing.assert_allclose(w.grad, analytic, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        w = t([1.0, 2.0], grad=True)
        with ad.GradTape():
            out = ad.mul(w, 2.0)
            with pytest.raises(ValueError, match="scalar"):
                ad.backward(out)

    def test_gradient_accumulates_over_reuse(self):
        w = t([2.0], grad=True)
        with ad.GradTape():
            loss = ad.tsum(ad.add(ad.mul(w, 3.0), ad.mul(w, w)))
            ad.backward(loss)
        np.testing.assert_allclose(w.grad, [3.0 + 2.0 * 2.0], atol=1e-12)

    def test_frozen_after_first_use_gets_no_gradient(self):
        w = t([1.0, 2.0, 3.0], grad=True)
        other = t([1.0], grad=True)
        with ad.GradTape():
            ad.backward(ad.tsum(ad.mul(w, 5.0)))
        w.requires_grad = False
        w.zero_grad()
        with ad.GradTape():
            ad.backward(ad.tsum(ad.add(ad.mul(w, 5.0), other)))
        assert w.grad is None
        np.testing.assert_array_equal(other.grad, [3.0])

    def test_made_trainable_after_first_use_gets_gradient(self):
        w = t([1.0, 2.0, 3.0])
        with ad.GradTape():
            ad.mul(w, 5.0)
        w.requires_grad = True
        with ad.GradTape():
            assert ad.backward(ad.tsum(ad.mul(w, 5.0))) is None
        np.testing.assert_array_equal(w.grad, [5.0, 5.0, 5.0])

    def test_inputs_of_one_add_keep_separate_gradients(self):
        # add hands both inputs the same upstream array; accumulating into
        # one of them later must not reach the other
        a = t([1.0, 2.0], grad=True)
        b = t([3.0, 4.0], grad=True)
        with ad.GradTape():
            ad.backward(ad.tsum(ad.add(ad.mul(a, 2.0), ad.add(a, b))))
        np.testing.assert_array_equal(a.grad, [3.0, 3.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 4))

        def run():
            w = t(x, grad=True)
            with ad.GradTape():
                s = ad.softmax(ad.matmul(w, w), -1)
                loss = ad.tsum(ad.mul(s, s))
                ad.backward(loss)
            return w.grad

        g1, g2 = run(), run()
        assert (g1 == g2).all()


class TestFirstGradients:
    def test_add_of_a_tensor_to_itself_gives_twice_the_gradient(self):
        x = t([1.0, 2.0, 3.0], grad=True)
        g = np.array([0.5, -1.0, 2.0])
        with ad.GradTape():
            ad.backward(ad.tsum(ad.mul(ad.add(x, x), g)))
        np.testing.assert_array_equal(x.grad, 2.0 * g)

    def test_gradient_in_a_matching_layout_is_kept_not_copied(self):
        x = t([1.0, 2.0, 3.0], grad=True)
        handed = []
        with ad.GradTape() as tape:
            loss = ad.tsum(ad.mul(x, 2.0))
            entry = tape.entries[0]
            real = entry.backward_fn

            def handing_out(g):
                handed.extend(real(g))
                return handed

            entry.backward_fn = handing_out
            ad.backward(loss)
        assert x.grad is handed[0]
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_gradient_of_a_transposed_view_keeps_the_view_layout(self):
        base = np.arange(12.0).reshape(3, 4)
        c = np.arange(12.0).reshape(4, 3) - 5.0
        v = ad.Tensor(base.T, requires_grad=True)
        with ad.GradTape():
            ad.backward(ad.tsum(ad.mul(v, c)))
        assert v.grad.strides == v.data.strides != c.strides
        np.testing.assert_array_equal(v.grad, c)
        # the slot follows an assignment to `data`, as `restore` makes
        v.data = np.ascontiguousarray(v.data)
        v.zero_grad()
        with ad.GradTape():
            ad.backward(ad.tsum(ad.mul(v, c)))
        assert v.grad.strides == v.data.strides == c.strides
        np.testing.assert_array_equal(v.grad, c)


class TestTapeKeepsOnlyWhatBackwardReads:
    """A tape entry holds gradient slots, so an intermediate array lives only
    while the model code or some backward closure holds it."""

    @staticmethod
    def ffn_with_dropout(x, w, b, keep):
        """Residual relu layer with dropout; weakrefs to its dropout output
        and its pre-relu sum."""
        pre = ad.add(ad.matmul(x, w), b)
        dropped = ad.mul(ad.relu(pre), keep)
        y = ad.add(x, dropped)
        return ad.tsum(ad.mul(y, y)), weakref.ref(pre.data), weakref.ref(dropped.data)

    def test_dropout_output_and_pre_relu_sum_are_freed(self):
        rng = np.random.default_rng(0)
        x, w, b = t(rng.normal(size=(4, 3)), grad=True), t(rng.normal(size=(3, 3)), grad=True), \
            t(rng.normal(size=3), grad=True)
        keep = (rng.random((4, 3)) >= 0.5) / 0.5
        with ad.GradTape():
            loss, pre, dropped = self.ffn_with_dropout(x, w, b, keep)
            assert pre() is None and dropped() is None
            ad.backward(loss)
        # the same gradients, in closed form
        xd, wd, bd = x.data, w.data, b.data
        pre_d = xd @ wd + bd
        y = xd + np.maximum(pre_d, 0.0) * keep
        g_pre = 2.0 * y * keep * (pre_d > 0.0)
        np.testing.assert_allclose(w.grad, xd.T @ g_pre, rtol=1e-12)
        np.testing.assert_allclose(b.grad, g_pre.sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(x.grad, 2.0 * y + g_pre @ wd.T, rtol=1e-12)

    @pytest.mark.parametrize("constant_first", [False, True])
    def test_mul_by_a_constant_keeps_nothing_of_the_other_operand(self, constant_first):
        x = t([1.0, -2.0, 3.0], grad=True)
        c = np.array([2.0, 0.5, -1.0])
        with ad.GradTape():
            h = ad.add(x, x)
            ref = weakref.ref(h.data)
            out = ad.mul(c, h) if constant_first else ad.mul(h, c)
            del h
            assert ref() is None
            ad.backward(ad.tsum(out))
        np.testing.assert_array_equal(x.grad, 2.0 * c)

    def test_layer_norm_keeps_its_centered_input_not_its_normalized_output(self, monkeypatch):
        rng = np.random.default_rng(1)
        x, gain, bias = (t(rng.normal(size=s), grad=True) for s in ((4, 3, 8), 8, 8))
        refs = []
        real = ad._normalize_scale

        def spying(c, g, eps):
            out = real(c, g, eps)
            refs.append((weakref.ref(c.data), weakref.ref(out.data)))
            return out

        monkeypatch.setattr(ad, "_normalize_scale", spying)
        with ad.GradTape():
            y = ad.layer_norm(x, gain, bias)
            [(centered, normalized)] = refs
            assert normalized() is None and centered() is not None
            ad.backward(ad.tsum(ad.mul(y, y)))
        assert np.isfinite(x.grad).all()

    def test_cross_entropy_backward_makes_one_array_of_the_logits_size(self):
        rng = np.random.default_rng(2)
        logits = t(rng.normal(size=(512, 256)), grad=True)  # 1 MiB of float64
        with ad.GradTape():
            loss = ad.cross_entropy(logits, rng.integers(0, 256, size=512))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                ad.backward(loss)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        # the gradient itself, made in place from exp(log_probs), and no copy
        assert logits.data.nbytes <= peak < 1.5 * logits.data.nbytes


class TestDefaultTrainStep:
    """What one train step of the default model records and holds."""

    # tracemalloc peak of one warm train step on the batch below: 17,739,619
    # to 17,741,412 bytes over runs once the step kept only what backward
    # reads (20,474,624 to 20,474,847 before). The bound leaves about 9 kB for
    # Python objects whose sizes vary between runs.
    PEAK_BYTES = 17_750_000

    @pytest.fixture(scope="class")
    def setup(self):
        cfg = load_config(None, ["task.n_train=64", "task.n_valid=8", "task.n_test=8"])
        bundle = prepare_data(cfg)
        batch = make_batches(bundle.train, cfg.train.batch_size, np.random.default_rng(0))[0]
        return cfg, bundle, batch

    def test_records_154_tape_entries(self, setup, monkeypatch):
        cfg, bundle, batch = setup
        entries = []
        real = ad.backward

        def counting(loss, params=None):
            entries.append(len(ad._ACTIVE_TAPE.entries))
            real(loss, params)

        monkeypatch.setattr(ad, "backward", counting)
        train_step(batch, build_state(cfg, bundle))
        assert entries == [154], f"10 layer norms at 5 entries each; {BENCH_LAYER_NORM_ENTRIES}"

    def test_peak_traced_memory(self, setup):
        cfg, bundle, batch = setup
        train_step(batch, build_state(cfg, bundle))  # first calls make lasting caches
        state = build_state(cfg, bundle)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_step(batch, state)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_BYTES


class TestDropout:
    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_bitwise_equal_to_mul_by_the_scaled_mask(self, p):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(5, 7, 8))
        data[0, 0, :4] = [-1.5, -0.0, 0.0, -3e-300]  # negative inputs and signed zeros
        keep = rng.random(data.shape) >= p
        g = rng.normal(size=data.shape)
        g[0, 0, :2] = -2.0  # a negative gradient where the mask drops
        keep[0, 0, :2] = False
        outs, grads = [], []
        for op in (lambda x: ad.dropout(x, keep, p), lambda x: ad.mul(x, keep / (1 - p))):
            x = t(data.copy(), grad=True)
            with ad.GradTape():
                y = op(x)
                ad.backward(ad.tsum(ad.mul(y, g)))
            outs.append(y.data.tobytes())
            grads.append(x.grad.tobytes())
        assert outs[0] == outs[1] and grads[0] == grads[1]
        assert np.signbit(np.frombuffer(outs[0])[:2]).all()  # dropped -1.5 and -0.0 give -0.0

    def test_tape_keeps_the_boolean_mask_not_a_float_array(self):
        rng = np.random.default_rng(4)
        x = t(rng.normal(size=(64, 32, 64)), grad=True)  # 1 MiB of float64
        keep = rng.random(x.shape) >= 0.1
        tracemalloc.start()
        try:
            with ad.GradTape() as tape:
                y = ad.dropout(x, keep, 0.1)
                ref = weakref.ref(y.data)
                del y
                kept = tracemalloc.get_traced_memory()[0]
                assert ref() is None and len(tape.entries) == 1
        finally:
            tracemalloc.stop()
        # the output is freed and the closure holds the caller's mask: nothing
        # near the 1 MiB a float64 mask would take stays allocated
        assert kept < x.data.nbytes // 8
        cells = [c.cell_contents for c in tape.entries[0].backward_fn.__closure__]
        arrays = [c for c in cells if isinstance(c, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is keep


class TestGradCheck:
    def test_sum_of_squares(self):
        def f(x):
            return ad.tsum(ad.mul(x, x))

        err = grad_check(f, t(np.random.default_rng(1).normal(size=(3, 3))))
        assert err < 1e-7

    def test_constant_function(self):
        def f(x):
            return ad.tsum(ad.mul(x, 0.0))

        assert grad_check(f, t(np.ones(4))) == 0.0

    def test_one_layer_cross_entropy(self):
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(4, 3))
        targets = np.array([0, 1, 4, 2])

        def f(w):
            logits = ad.matmul(t(inputs), w)
            return ad.cross_entropy(logits, targets)

        err = grad_check(f, t(rng.normal(size=(3, 5))))
        assert err < 1e-4


GRAD_CHECK_OPS = ["add", "sub", "mul", "matmul", "softmax", "layer_norm", "relu", "sigmoid",
                  "log", "transpose", "embedding"]


@pytest.mark.parametrize("op_name", GRAD_CHECK_OPS)
def test_grad_check_every_op_small_shapes(op_name):
    rng = np.random.default_rng(GRAD_CHECK_OPS.index(op_name))  # the same inputs every run
    other = rng.normal(size=(5, 7))
    mat = rng.normal(size=(7, 4))
    gain = rng.normal(size=7)
    bias = rng.normal(size=7)

    builders = {
        "add": lambda x: ad.add(x, t(other)),
        "sub": lambda x: ad.sub(t(other), x),
        "mul": lambda x: ad.mul(x, t(other)),
        "matmul": lambda x: ad.matmul(x, t(mat)),
        "softmax": lambda x: ad.mul(ad.softmax(x, -1), t(other)),
        "layer_norm": lambda x: ad.layer_norm(x, t(gain), t(bias)),
        "relu": lambda x: ad.relu(x),
        "sigmoid": lambda x: ad.sigmoid(x),
        "log": lambda x: ad.log(ad.add(ad.mul(x, x), 1.0)),
        "transpose": lambda x: ad.mul(ad.transpose(x, (1, 0)), t(other.T)),
        "embedding": lambda x: ad.embedding(x, np.array([[0, 2], [4, 0]])),
    }

    def f(x):
        return ad.tsum(ad.mul(builders[op_name](x), 0.7))

    err = grad_check(f, t(rng.normal(size=(5, 7)) + 0.05))
    assert err < 1e-4, f"{op_name}: {err}"
