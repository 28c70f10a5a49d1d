import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sceneact import autodiff as ad
from sceneact.errors import ConfigError, ContractError, DimensionError
from sceneact.rng import RngStream
from testkit import grad_check, masked_sigmoid, two_softplus_focal


def rand(shape, seed=0, lo=-2.0, hi=2.0):
    return RngStream(seed).generator().uniform(lo, hi, size=shape)


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(ad.Tensor(np.eye(2)), a)
        assert np.array_equal(out.data, a.data)

    def test_projector_selects_row(self):
        p = ad.Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = ad.Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(ad.matmul(p, b).data, [[5.0, 6.0], [0.0, 0.0]])

    def test_matches_triple_loop_oracle(self):
        a, b = rand((3, 4), 1), rand((4, 2), 2)
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = ad.matmul(ad.Tensor(a), ad.Tensor(b))
        np.testing.assert_allclose(out.data, expected, rtol=1e-14)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


class TestLayerNorm:
    def test_constant_token_maps_to_zero(self):
        x = ad.Tensor(np.full((3, 5), 2.7))
        out = ad.layer_norm(x, ad.Tensor(np.ones(5)), ad.Tensor(np.zeros(5)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_two_point_normalization(self):
        # direct evaluation: mean 2, var 1 -> (x - 2) / sqrt(1 + eps)
        x = ad.Tensor(np.array([[1.0, 3.0]]))
        out = ad.layer_norm(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-9)

    def test_zero_gain_returns_bias(self):
        x = ad.Tensor(rand((4, 6), 3))
        bias = rand((6,), 4)
        out = ad.layer_norm(x, ad.Tensor(np.zeros(6)), ad.Tensor(bias))
        np.testing.assert_allclose(out.data, np.broadcast_to(bias, (4, 6)))

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            ad.layer_norm(ad.Tensor(np.ones((2, 0))), ad.Tensor(np.ones(0)), ad.Tensor(np.zeros(0)))


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(ad.Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_extreme_logits_stable(self):
        out = ad.softmax(ad.Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_direct_evaluation(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(ad.softmax(ad.Tensor(x)).data, expected, atol=1e-12)

    def test_rows_sum_to_one(self):
        x = rand((7, 11), 5, -50.0, 50.0)
        out = ad.softmax(ad.Tensor(x), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


class TestActivations:
    def test_gelu_zero(self):
        assert ad.gelu(ad.Tensor([0.0])).data[0] == 0.0

    def test_gelu_asymptote(self):
        np.testing.assert_allclose(ad.gelu(ad.Tensor([20.0])).data[0], 20.0, rtol=1e-12)

    def test_gelu_at_one(self):
        # x * Phi(x) at x = 1, Phi from the error function
        from scipy.special import erf

        expected = 1.0 * 0.5 * (1 + erf(1 / np.sqrt(2)))
        np.testing.assert_allclose(ad.gelu(ad.Tensor([1.0])).data[0], expected, atol=1e-15)
        np.testing.assert_allclose(expected, 0.8413447460685429, atol=1e-12)

    def test_sigmoid_values(self):
        assert ad._sigmoid(np.array([0.0]))[0] == 0.5
        assert ad._sigmoid(np.array([-1000.0]))[0] == 0.0
        np.testing.assert_allclose(ad._sigmoid(np.array([np.log(3.0)]))[0], 0.75, atol=1e-12)

    def test_logit_inverts_sigmoid_and_clamps(self):
        np.testing.assert_allclose(ad.logit(ad.Tensor([0.75])).data[0], np.log(3.0), atol=1e-12)
        edge = ad.logit(ad.Tensor([0.0, 1.0, 2.0]), eps=1e-9).data
        np.testing.assert_allclose(edge, [-np.log(1e9 - 1), np.log(1e9 - 1),
                                          np.log(1e9 - 1)], rtol=1e-6)


# signed zeros and infinities, NaNs of both signs and a signalling payload, exp's
# overflow and underflow edges, float64's extremes and subnormals
EDGE_LOGITS = np.concatenate([
    np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 36.7, -36.7, 745.0, -745.0,
              710.0, -710.0, 1e308, -1e308, 5e-324, -5e-324, 2.2e-308, -2.2e-308]),
    np.array([0x7FF0000000000001, 0xFFF4000000000000], dtype=np.uint64).view(np.float64),
])
logit_arrays = hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=12),
                          elements=st.floats(allow_subnormal=True, width=64))


def edge_cases(x):
    """``x`` with every edge logit appended."""
    return np.concatenate([x.reshape(-1), EDGE_LOGITS])


class TestElementwiseOracles:
    """``_sigmoid`` and ``_focal`` against the masked and two-logaddexp forms, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(logit_arrays)
    def test_sigmoid_equals_masked_form_bytewise(self, x):
        for z in (x, edge_cases(x)):
            with np.errstate(all="ignore"):
                assert ad._sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(logit_arrays, st.sampled_from([(0.25, 2.0), (0.5, 0.0), (0.9, 1.5)]))
    def test_focal_equals_two_logaddexp_form_bytewise(self, x, focal):
        alpha, gamma = focal
        for z in (x, edge_cases(x)):
            g = RngStream(z.size).generator()
            t = (g.uniform(size=z.shape) < 0.5).astype(float)
            upstream = g.uniform(-2.0, 2.0, size=z.shape)
            with np.errstate(all="ignore"):
                loss, p, sp_neg, sp_pos, grad = two_softplus_focal(z, t, alpha, gamma, upstream)
                new = ad._focal(z, t, alpha, gamma)
                out = ad.focal_from_logits(ad.Parameter("x", z).value, t, alpha, gamma)
                (new_grad,) = out._backward(upstream)
            for expected, got in ((loss, new[0]), (p, new[1]), (sp_neg, new[2]),
                                  (sp_pos, new[3]), (loss, out.data), (grad, new_grad)):
                assert got.tobytes() == expected.tobytes()

    def test_edge_values_cover_both_softplus_branches(self):
        with np.errstate(all="ignore"):
            _loss, p, sp_neg, sp_pos, *_ = ad._focal(EDGE_LOGITS, 1.0, 0.25, 2.0)
        assert p[0] == p[1] == 0.5 and sp_neg[0] == sp_pos[1] == np.log(2.0)
        assert (p[2], sp_neg[2], sp_pos[2]) == (1.0, 0.0, np.inf)
        assert (p[3], sp_neg[3], sp_pos[3]) == (0.0, np.inf, 0.0)
        assert np.isnan(p[4:6]).all() and np.isnan(sp_pos[4:6]).all()


class TestDropout:
    def test_rate_zero_is_input(self):
        x = ad.Tensor(rand((5, 5), 6))
        assert ad.dropout(x, 0.0, RngStream(1), training=True) is x

    def test_inference_identity_any_rate(self):
        x = ad.Tensor(rand((5, 5), 7))
        assert ad.dropout(x, 0.9, RngStream(1), training=False) is x

    def test_keep_fraction(self):
        x = ad.Tensor(np.ones(100_000))
        y = ad.dropout(x, 0.5, RngStream(42).child(3), training=True)
        kept = (y.data != 0).mean()
        assert 0.45 <= kept <= 0.55

    def test_mask_pure_function_of_stream(self):
        x = ad.Tensor(np.ones(64))
        a = ad.dropout(x, 0.3, RngStream(5).child(1), training=True)
        b = ad.dropout(x, 0.3, RngStream(5).child(1), training=True)
        assert np.array_equal(a.data, b.data)

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            ad.dropout(ad.Tensor([1.0]), 1.0, RngStream(0), training=True)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        p = ad.Parameter("p", rand((3, 4), 8))
        ad.backward(ad.reduce_sum(p.value))
        np.testing.assert_allclose(p.grad, np.ones((3, 4)))

    def test_inner_product_gradient(self):
        data = rand((6,), 9)
        p = ad.Parameter("p", data)
        x = ad.reshape(p.value, (1, 6))
        loss = ad.reduce_sum(ad.matmul(x, ad.transpose(x)))
        ad.backward(loss)
        np.testing.assert_allclose(p.grad, 2 * data, rtol=1e-12)

    def test_repeated_backward_accumulates(self):
        p = ad.Parameter("p", np.ones(3))
        ad.backward(ad.reduce_sum(p.value))
        ad.backward(ad.reduce_sum(p.value))
        np.testing.assert_allclose(p.grad, 2.0)

    def test_non_scalar_rejected(self):
        with pytest.raises(ContractError):
            ad.backward(ad.Tensor([1.0, 2.0]))

    def test_no_grad_blocks_recording(self):
        p = ad.Parameter("p", np.ones(3))
        with ad.no_grad():
            loss = ad.reduce_sum(ad.scale(p.value, 2.0))
        assert loss._parents == ()


class TestGradCheck:
    def test_quadratic(self):
        p = ad.Parameter("q", rand((4,), 10))

        def f():
            x = ad.reshape(p.value, (1, 4))
            return ad.reduce_sum(ad.matmul(x, ad.transpose(x)))

        report = grad_check(f, [p], step=1e-5, tol=1e-8)
        assert report.passed

    def test_linear_is_exact(self):
        # central differences of a linear map carry only rounding noise
        p = ad.Parameter("lin", rand((5,), 11))
        report = grad_check(lambda: ad.reduce_sum(ad.scale(p.value, 3.0)), [p], tol=1e-10)
        assert report.passed

    def test_composite_ops(self):
        g = RngStream(12).generator()
        w = ad.Parameter("w", g.uniform(-2, 2, size=(3, 4)))
        gain = ad.Parameter("gain", np.ones(4))
        bias = ad.Parameter("bias", np.zeros(4))
        x = ad.Tensor(g.uniform(-2, 2, size=(5, 3)))
        targets = np.zeros((5, 4))
        targets[0, 1] = 1.0
        targets[3, 2] = 1.0

        def f():
            h = ad.matmul(x, w.value)
            h = ad.layer_norm(h, gain.value, bias.value)
            h = ad.gelu(h)
            h = ad.softmax(h, axis=-1)
            h = ad.focal_from_logits(h, targets, 0.25, 2.0)
            return ad.reduce_sum(h)

        report = grad_check(f, [w, gain, bias], step=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err

    def test_structural_ops(self):
        g = RngStream(13).generator()
        a = ad.Parameter("a", g.uniform(-2, 2, size=(4, 3)))
        b = ad.Parameter("b", g.uniform(-2, 2, size=(2, 3)))
        v = ad.Parameter("v", g.uniform(-2, 2, size=(3,)))

        def f():
            cat = ad.concat([a.value, b.value], axis=0)
            cat = ad.add_rowvec(cat, v.value)
            cat = ad.mul_rowvec(cat, v.value)
            picked = ad.gather_rows(cat, [0, 0, 3, 5])
            sliced = ad.narrow(picked, 1, 0, 2)
            return ad.reduce_sum(ad.gelu(sliced))

        report = grad_check(f, [a, b, v], step=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err

    def test_logit_gradient_inside_and_at_clamp(self):
        data = np.array([0.0, 0.1, 0.5, 0.93, 1.2])
        p = ad.Parameter("p", data)

        def f():
            return ad.reduce_sum(ad.logit(p.value, eps=1e-3))

        report = grad_check(f, [p], step=1e-6, tol=1e-4)
        assert report.passed, report.max_rel_err
        # grad_check leaves a fresh leaf behind, so take the gradient anew:
        # the clamped entries (0 and 1.2) receive none, the others 1 / (p (1 - p))
        ad.backward(f())
        assert p.grad[0] == 0.0 and p.grad[4] == 0.0
        inside = data[1:4]
        np.testing.assert_allclose(p.grad[1:4], 1.0 / (inside * (1.0 - inside)), rtol=1e-12)


class TestTapeContract:
    """A leaf is a parameter or a constant; only parameter leaves keep a gradient."""

    def test_only_parameter_leaves_keep_gradients(self):
        w = ad.Parameter("w", rand((2, 3), 15))
        const = ad.Tensor(rand((3, 4), 16))
        offset = ad.Tensor(rand((2, 4), 17))
        h = ad.matmul(w.value, const)
        s = ad.add(h, offset)
        loss = ad.reduce_sum(s)
        ad.backward(loss)
        for t in (const, offset, h, s, loss):
            assert t.grad is None
        np.testing.assert_array_equal(w.grad, np.ones((2, 4)) @ const.data.T)
        walked = {id(t) for t in ad._topo_order(loss)}
        assert id(const) not in walked and id(offset) not in walked

    def test_op_on_constants_records_no_parents(self):
        a, b = ad.Tensor(rand((2, 3), 18)), ad.Tensor(rand((3, 2), 19))
        for out in (ad.matmul(a, b), ad.add(a, a), ad.mul_rowvec(a, ad.Tensor(np.ones(3)))):
            assert out._parents == () and not out.requires_grad

    def test_closures_skip_constant_operands(self):
        w = ad.Parameter("w", rand((2, 3), 20))
        v = ad.Parameter("v", rand((3,), 21))
        const = ad.Tensor(rand((3, 2), 22))
        assert ad.matmul(w.value, const)._backward(np.ones((2, 2)))[1] is None
        data = ad.Tensor(rand((4, 2), 24))
        assert ad.matmul(data, w.value)._backward(np.ones((4, 3)))[0] is None
        assert ad.mul_rowvec(ad.Tensor(rand((4, 3), 23)), v.value)._backward(
            np.ones((4, 3)))[0] is None


class TestTensorInvariants:
    def test_data_is_readonly(self):
        t = ad.Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_operations_finite_on_finite_input(self):
        x = ad.Tensor(rand((6, 8), 14, -50, 50))
        for out in [
            ad.softmax(x, axis=-1),
            ad.gelu(x),
            ad.layer_norm(x, ad.Tensor(np.ones(8)), ad.Tensor(np.zeros(8))),
            ad.focal_from_logits(x, np.zeros((6, 8)), 0.25, 2.0),
        ]:
            assert np.all(np.isfinite(out.data))


class TestRngStream:
    def test_same_stream_reproduces(self):
        a = RngStream(1, 2).generator().random(10)
        b = RngStream(1, 2).generator().random(10)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(1, 2).generator().random(10)
        b = RngStream(1, 3).generator().random(10)
        assert not np.array_equal(a, b)

    def test_child_order_independent(self):
        r = RngStream(5)
        assert r.child(1, 2) == RngStream(5).child(1, 2)
        assert r.child(1, 2) != r.child(2, 1)

    def test_named_children_stable(self):
        assert RngStream(3).child_named("x") == RngStream(3).child_named("x")
        assert RngStream(3).child_named("x") != RngStream(3).child_named("y")


class TestWindowSum:
    """``window_sum`` against the stacked reshape / mul_rowvec / reduce_sum expression."""

    @staticmethod
    def stacked(scores, w):
        n_clips, n_win, n_cls, k = scores.shape
        rows = ad.Tensor(scores.transpose(0, 3, 1, 2).reshape(n_clips, k, n_win * n_cls))
        weighted = ad.mul_rowvec(rows, ad.reshape(w, (n_win * n_cls,)))
        return ad.reduce_sum(ad.reshape(weighted, (n_clips, k, n_win, n_cls)), axis=2)

    @pytest.mark.parametrize("shape", [(1, 1, 2, 3), (5, 4, 3, 6), (40, 13, 12, 10)])
    def test_value_and_gradient_equal_stacked_expression_bitwise(self, shape):
        g = RngStream(14).generator()
        scores = g.uniform(0.0, 1.0, size=shape)
        upstream = g.uniform(-1.0, 1.0, size=(shape[0], shape[3], shape[2]))
        for start in (g.uniform(0.0, 1.0, size=shape[1:3]), np.ones(shape[1:3])):
            grads = []
            for build in (self.stacked, ad.window_sum):
                p = ad.Parameter("w", start)
                out = build(scores, p.value)
                grads.append((out.data, p))
                ad.backward(ad.reduce_sum(ad.mul_rowvec(
                    ad.reshape(out, (out.size,)), ad.Tensor(upstream.reshape(-1)))))
            (old, p_old), (new, p_new) = grads
            assert new.shape == (shape[0], shape[3], shape[2])
            assert np.array_equal(old, new)
            assert np.array_equal(p_old.grad, p_new.grad)

    @pytest.mark.parametrize("shape", [(7, 2, 3, 1), (1, 5, 2, 1)])
    def test_one_proposal_equals_stacked_expression_bitwise(self, shape):
        self.test_value_and_gradient_equal_stacked_expression_bitwise(shape)

    def test_grad_check(self):
        g = RngStream(15).generator()
        scores = g.uniform(0.0, 1.0, size=(3, 4, 2, 5))
        targets = (g.uniform(size=(3, 5, 2)) > 0.5).astype(float)
        w = ad.Parameter("w", g.uniform(0.1, 1.0, size=(4, 2)))

        def f():
            return ad.reduce_sum(ad.focal_from_logits(ad.window_sum(scores, w.value),
                                                      targets, 0.25, 2.0))

        report = grad_check(f, [w], step=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="window_sum"):
            ad.window_sum(np.ones((2, 3, 4, 5)), ad.Tensor(np.ones((4, 3))))


class TestLeafGradients:
    def test_writes_no_grad_and_accumulate_equals_backward(self):
        data = rand((3,), 16)
        p, q = ad.Parameter("p", data), ad.Parameter("q", data)
        parts = ad.leaf_gradients(ad.reduce_sum(ad.mul_rowvec(p.value, p.value)))
        assert p.value.grad is None
        assert len(parts[p.value]) == 2  # one contribution per use of p
        ad.accumulate([parts])
        ad.backward(ad.reduce_sum(ad.mul_rowvec(q.value, q.value)))
        assert np.array_equal(p.grad, q.grad)
        np.testing.assert_allclose(p.grad, 2 * data, rtol=1e-15)

    def test_seed_scales_every_contribution(self):
        p = ad.Parameter("p", rand((4,), 17))
        parts = ad.leaf_gradients(ad.reduce_sum(p.value), np.ones(()) * 0.25)
        assert np.array_equal(parts[p.value][0], np.full(4, 0.25))

    def test_parameter_itself_as_loss(self):
        p = ad.Parameter("p", [2.0])
        ad.backward(p.value)
        assert np.array_equal(p.grad, [1.0])


def composed_linear(x, w, b):
    """The primitive-op dense layer that ``ad.linear`` replaces."""
    return ad.add_rowvec(ad.matmul(x, ad.transpose(w)), b)


def composed_attention(q, k, v, heads, rate, rng, training, sink, layer):
    """The per-head primitive-op loop that ``ad.attention`` replaces."""
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        qh = ad.narrow(q, 1, h * dh, (h + 1) * dh)
        kh = ad.narrow(k, 1, h * dh, (h + 1) * dh)
        vh = ad.narrow(v, 1, h * dh, (h + 1) * dh)
        weights = ad.softmax(ad.matmul(qh, ad.transpose(kh)), axis=-1)
        if sink is not None:
            sink.append((layer, h, weights.data.copy()))
        weights = ad.dropout(weights, rate, rng.child(0, h), training)
        outs.append(ad.matmul(weights, vh))
    return ad.concat(outs, axis=1)


class TestFusedOps:
    """``linear`` and ``attention`` against the compositions they replace, bit for bit."""

    D = 8

    def sublayer(self, linear, attention, heads, training, cross, sink, rows=(5, 7)):
        """A pre-norm attention sublayer and a dense layer on top, as ``model`` builds them,
        over ``rows`` = (query rows, source rows)."""
        g = RngStream(20).generator()
        params = {name: ad.Parameter(name, g.uniform(-1.0, 1.0, size=shape)) for name, shape in [
            ("x", (rows[0], self.D)), ("src", (rows[1], self.D)), ("gain", (self.D,)),
            ("bias", (self.D,)),
            *[(f"w{n}", (self.D, self.D)) for n in "qkvo"],
            *[(f"b{n}", (self.D,)) for n in "qkvo"], ("w1", (3, self.D)), ("b1", (3,))]}
        v = {name: p.value for name, p in params.items()}
        x = ad.layer_norm(v["x"], v["gain"], v["bias"])
        kv = ad.layer_norm(v["src"], v["gain"], v["bias"]) if cross else x
        q = ad.scale(linear(x, v["wq"], v["bq"]), 1.0 / np.sqrt(self.D // heads))
        merged = attention(q, linear(kv, v["wk"], v["bk"]), linear(kv, v["wv"], v["bv"]),
                           heads, 0.3, RngStream(21), training, sink, 4)
        out = ad.add(v["x"], linear(merged, v["wo"], v["bo"]))
        loss = ad.reduce_sum(ad.gelu(linear(ad.gelu(out), v["w1"], v["b1"])))
        return merged, loss, params

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("cross", [False, True])
    # from 8 rows on, the order of a row sum follows the gradient's memory layout
    @pytest.mark.parametrize("rows", [(5, 7), (17, 20)])
    def test_values_gradient_terms_and_sink_equal_composition_bitwise(self, heads, training,
                                                                      cross, rows):
        runs = []
        for linear, attention in ((composed_linear, composed_attention),
                                  (ad.linear, ad.attention)):
            sink = []
            merged, loss, params = self.sublayer(linear, attention, heads, training, cross, sink,
                                                 rows)
            parts = ad.leaf_gradients(loss)
            terms = {p.name: [t.tobytes() for t in parts[p.value]]
                     for p in params.values() if p.value in parts}
            runs.append((merged.data.tobytes(), loss.data.tobytes(), terms,
                         [(layer, h, w.tobytes()) for layer, h, w in sink]))
        (merged_old, loss_old, terms_old, sink_old), (merged_new, loss_new, terms_new,
                                                      sink_new) = runs
        assert merged_new == merged_old
        assert loss_new == loss_old
        assert len(terms_new) == (14 if cross else 13)  # every parameter but src, or all
        assert terms_new == terms_old
        assert [entry[:2] for entry in sink_new] == [(4, h) for h in range(heads)]
        assert sink_new == sink_old

    def test_tape_holds_one_node_per_op(self):
        x = ad.Parameter("x", rand((3, 4), 22))
        q = ad.linear(x.value, ad.Tensor(rand((4, 4), 23)), ad.Tensor(rand((4,), 24)))
        assert q._parents[0] is x.value
        out = ad.attention(q, q, q, 2, 0.5, RngStream(25), True)
        assert out._parents == (q, q, q)

    def test_nothing_recorded_under_no_grad(self):
        x = ad.Parameter("x", rand((3, 4), 26))
        w, b = ad.Parameter("w", rand((4, 4), 27)), ad.Parameter("b", rand((4,), 28))
        sink = []
        with ad.no_grad():
            q = ad.linear(x.value, w.value, b.value)
            out = ad.attention(q, q, q, 2, 0.5, RngStream(29), True, sink)
        for t in (q, out):
            assert not t.requires_grad and t._parents == () and t._backward is None
        assert len(sink) == 2  # inference still exports the weights

    @pytest.mark.parametrize("training", [True, False])
    def test_grad_check(self, training):
        g = RngStream(30).generator()
        xq = ad.Parameter("xq", g.uniform(-1.0, 1.0, size=(3, 4)))
        xkv = ad.Parameter("xkv", g.uniform(-1.0, 1.0, size=(5, 4)))
        w = ad.Parameter("w", g.uniform(-1.0, 1.0, size=(4, 4)))
        b = ad.Parameter("b", g.uniform(-1.0, 1.0, size=(4,)))

        def f():
            k = ad.linear(xkv.value, w.value, b.value)
            out = ad.attention(xq.value, k, ad.gelu(xkv.value), 2, 0.5, RngStream(31), training)
            return ad.reduce_sum(ad.gelu(out))

        report = grad_check(f, [xq, xkv, w, b], step=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err

    def test_shapes_checked(self):
        t = ad.Tensor(np.ones((3, 4)))
        with pytest.raises(DimensionError, match="linear"):
            ad.linear(t, ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones(2)))
        with pytest.raises(DimensionError, match="heads"):
            ad.attention(t, t, t, 3, 0.0, RngStream(0), False)
        with pytest.raises(ConfigError):
            ad.attention(t, t, t, 2, 1.0, RngStream(0), True)

    @pytest.mark.parametrize("heads", [1, 3])
    @pytest.mark.parametrize("training", [True, False])
    def test_head_gradients_keep_the_signed_zeros_of_summed_padded_blocks(self, heads, training):
        """The composition sums zero-padded head blocks, which turns -0 into +0 unless one
        head is the whole width; ``attention``'s terms must follow, from a -0 upstream
        gradient block and an all-zero head block in q, k and v alike. (Whether a product
        of -0 terms returns -0 at all depends on the BLAS.)"""
        dh = 2

        def terms(attention):
            x = {}
            for name, rows, seed in (("q", 4, 60), ("k", 5, 61), ("v", 5, 62)):
                data = rand((rows, dh * heads), seed)
                data[:, :dh] = 0.0
                data[::2, :dh] = -0.0  # head 0 reads zeros of both signs
                x[name] = ad.Parameter(name, data)
            up = rand((4, dh * heads), 63)
            up[:, -dh:] = -0.0  # the last head's upstream gradient
            out = attention(*[ad.scale(p.value, 1.0) for p in x.values()], heads, 0.3,
                            RngStream(64), training, None, 0)
            loss = ad.reduce_sum(ad.mul_rowvec(ad.reshape(out, (1, out.size)),
                                               ad.Tensor(up.ravel())))  # d loss / d out = up
            parts = ad.leaf_gradients(loss)
            return [t for p in x.values() for t in parts[p.value]]

        old, new = terms(composed_attention), terms(ad.attention)
        assert len(new) == 3
        assert [(t.tobytes(), t.strides) for t in new] == [(t.tobytes(), t.strides) for t in old]
        assert all((t == 0.0).any() for t in new)  # each term has zeros whose sign is at stake


class TestWindowStacks:
    """Ops on a (B, m, n) stack equal their per-window or per-clip calls, recorded or not."""

    def test_linear_equals_per_window_calls_bitwise(self):
        x = rand((3, 5, 8), 40)
        w, b = ad.Tensor(rand((6, 8), 41)), ad.Tensor(rand((6,), 42))
        out = ad.linear(ad.Tensor(x), w, b)
        assert out.shape == (3, 5, 6)
        assert out.data.tobytes() == np.stack([ad.linear(ad.Tensor(xw), w, b).data
                                               for xw in x]).tobytes()

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_equals_per_window_calls_bitwise(self, heads):
        q, k, v = rand((3, 5, 8), 43), rand((3, 7, 8), 44), rand((3, 7, 8), 45)
        stack_sink, window_sink = [], []
        out = ad.attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), heads, 0.0, RngStream(0),
                           False, stack_sink, 2)
        single = [ad.attention(ad.Tensor(qw), ad.Tensor(kw), ad.Tensor(vw), heads, 0.0,
                               RngStream(0), False, window_sink, 2).data
                  for qw, kw, vw in zip(q, k, v)]
        assert out.data.tobytes() == np.stack(single).tobytes()
        assert [(layer, h, y.tobytes()) for layer, h, y in stack_sink] == \
            [(layer, h, y.tobytes()) for layer, h, y in window_sink]

    EXPRESSIONS = {  # each reaches the parameters through the op it is named after
        "linear": lambda x, p, rng: ad.linear(x, p["w"], p["b"]),
        "matmul": lambda x, p, rng: ad.matmul(p["left"], ad.matmul(x, p["w"])),
        "attention": lambda x, p, rng: ad.attention(
            ad.linear(x, p["w"], p["b"]), ad.matmul(x, p["w"]), ad.linear(x, p["w"], p["b"]),
            2, 0.3, rng, True),
        "transpose": lambda x, p, rng: ad.transpose(ad.linear(x, p["w"], p["b"])),
        "layer_norm": lambda x, p, rng: ad.layer_norm(ad.linear(x, p["w"], p["b"]), p["gain"],
                                                      p["b"]),
    }

    @pytest.mark.parametrize("op", sorted(EXPRESSIONS))
    @pytest.mark.parametrize("clips", [1, 2, 3])
    def test_recorded_stack_equals_per_clip_tapes_bitwise(self, op, clips):
        params = {name: ad.Parameter(name, rand(shape, 46 + i)) for i, (name, shape) in
                  enumerate([("w", (4, 4)), ("b", (4,)), ("left", (3, 5)), ("gain", (4,))])}
        leaves = {name: p.value for name, p in params.items()}
        streams = [RngStream(50).child(j) for j in range(clips)]

        def tape(x, rng):
            out = self.EXPRESSIONS[op](ad.Tensor(x), leaves, rng)
            return out.data, ad.leaf_gradients(ad.reduce_sum(ad.gelu(out)))

        x = rand((clips, 5, 4), 45)
        stacked, terms = tape(x, streams)
        single = [tape(xb, rng) for xb, rng in zip(x, streams)]
        assert stacked.tobytes() == np.stack([out for out, _ in single]).tobytes()
        assert terms.keys() == single[0][1].keys() and len(terms) >= 2
        for leaf, leaf_terms in terms.items():
            assert all(t.shape == (clips, *leaf.shape) for t in leaf_terms)
            assert [t[b].tobytes() for b in range(clips) for t in leaf_terms] == \
                [t.tobytes() for _, parts in single for t in parts[leaf]]
        grads = []
        for parts in ([terms], [parts for _, parts in single]):
            for p in params.values():
                p.zero_grad()
            ad.accumulate(parts)
            grads.append([p.grad.tobytes() for p in params.values()])
        assert grads[0] == grads[1]
        with ad.no_grad():
            assert not self.EXPRESSIONS[op](ad.Tensor(x), leaves, streams).requires_grad
