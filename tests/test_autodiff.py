import numpy as np
import pytest

from tokendrop import autodiff as ad


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

        err = ad.grad_check(f, t(rng.normal(size=(2, 5, 3))))
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
        assert (s > 0).all()

    def test_invalid_axis(self):
        with pytest.raises(ad.ShapeError):
            ad.softmax(t([1.0, 2.0]), 3)


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


class TestGradCheck:
    def test_sum_of_squares(self):
        def f(x):
            return ad.tsum(ad.mul(x, x))

        err = ad.grad_check(f, t(np.random.default_rng(1).normal(size=(3, 3))))
        assert err < 1e-7

    def test_constant_function(self):
        def f(x):
            return ad.tsum(ad.mul(x, 0.0))

        assert ad.grad_check(f, t(np.ones(4))) == 0.0

    def test_one_layer_cross_entropy(self):
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(4, 3))
        targets = np.array([0, 1, 4, 2])

        def f(w):
            logits = ad.matmul(t(inputs), w)
            return ad.cross_entropy(logits, targets)

        err = ad.grad_check(f, t(rng.normal(size=(3, 5))))
        assert err < 1e-4


@pytest.mark.parametrize("op_name", ["add", "sub", "mul", "matmul", "softmax",
                                     "layer_norm", "relu", "sigmoid", "log",
                                     "power", "transpose", "embedding"])
def test_grad_check_every_op_small_shapes(op_name):
    rng = np.random.default_rng(hash(op_name) % 2**32)
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
        "power": lambda x: ad.power(ad.add(ad.mul(x, x), 1.0), -0.5),
        "transpose": lambda x: ad.mul(ad.transpose(x, (1, 0)), t(other.T)),
        "embedding": lambda x: ad.embedding(x, np.array([[0, 2], [4, 0]])),
    }

    def f(x):
        return ad.tsum(ad.mul(builders[op_name](x), 0.7))

    err = ad.grad_check(f, t(rng.normal(size=(5, 7)) + 0.05))
    assert err < 1e-4, f"{op_name}: {err}"
