import numpy as np
import pytest
from scipy.special import erf

from sceneact import autodiff as ad
from sceneact import model as mdl
from sceneact import checkpoint
from sceneact.boxes import BoundingBox
from sceneact.checkpoint import load_checkpoint, save_checkpoint
from sceneact.errors import ConfigError, ContractError, ValidationError
from sceneact.rng import RngStream
from sceneact.synthdata import ActorProposal
from testkit import grad_check, zero_residual_projections


def tiny_cfg(**kw):
    base = dict(embed_dim=8, layers=2, heads=2, ffn_dim=16, dropout=0.0, num_classes=3)
    base.update(kw)
    return mdl.ModelConfig(**base)


def make_proposals(gen, k=3, c=5):
    out = []
    for i in range(k):
        x = 0.05 + 0.2 * i
        box = BoundingBox(x, 0.1, x + 0.15, 0.4)
        out.append(ActorProposal(box, 0.7, gen.standard_normal(c)))
    return out


def make_grid(gen, h=2, w=2, t=1, c=6):
    return gen.standard_normal((c, h * w * t))


def geometry(props):
    """(6, K) box columns: corners, then width and height."""
    return np.array([[p.box.x_lt, p.box.y_lt, p.box.x_rb, p.box.y_rb, p.box.width,
                      p.box.height] for p in props]).T


class TestConfig:
    def test_published_defaults(self):
        cfg = mdl.ModelConfig()
        assert (cfg.embed_dim, cfg.layers, cfg.heads, cfg.ffn_dim) == (256, 6, 8, 1024)
        assert cfg.dropout == 0.1

    def test_heads_must_divide(self):
        with pytest.raises(ConfigError):
            mdl.ModelConfig(embed_dim=10, heads=3)


class TestEmbeddings:
    def test_zero_weights_zero_embeddings(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, 5, 6, RngStream(1))
        params.actor_proj.assign(np.zeros(params.actor_proj.shape))
        params.geom_proj.assign(np.zeros(params.geom_proj.shape))
        props = make_proposals(RngStream(2).generator())
        out = mdl.embed_actors(props, params)
        assert np.all(out.data == 0.0)

    def test_linearity_in_features(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, 5, 6, RngStream(3))
        params.geom_proj.assign(np.zeros(params.geom_proj.shape))
        gen = RngStream(4).generator()
        props = make_proposals(gen)
        doubled = [
            ActorProposal(p.box, p.person_score, 2.0 * p.feature) for p in props
        ]
        a = mdl.embed_actors(props, params).data
        b = mdl.embed_actors(doubled, params).data
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)

    def test_matches_two_matmul_oracle(self):
        cfg = tiny_cfg(embed_dim=16, heads=2)
        params = mdl.init_params(cfg, 8, 6, RngStream(5))
        gen = RngStream(6).generator()
        props = make_proposals(gen, k=3, c=8)
        out = mdl.embed_actors(props, params).data
        f = np.stack([p.feature for p in props], axis=1)
        g = geometry(props)
        expected = params.actor_proj.value.data @ f + params.geom_proj.value.data @ g
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_geometry_columns_are_box_corners_width_height(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, 5, 6, RngStream(13))
        params.actor_proj.assign(np.zeros(params.actor_proj.shape))
        params.geom_proj.assign(np.eye(cfg.embed_dim, 6))
        props = [ActorProposal(box, 0.7, np.ones(5)) for box in
                 (BoundingBox(0, 0, 1, 1), BoundingBox(0.2, 0.3, 0.5, 0.9))]
        out = mdl.embed_actors(props, params).data
        assert out[:6, 0].tolist() == [0, 0, 1, 1, 1, 1]
        np.testing.assert_allclose(out[:6, 1], [0.2, 0.3, 0.5, 0.9, 0.3, 0.6])
        np.testing.assert_array_equal(out[:6], geometry(props))
        assert np.all(out[6:] == 0.0)

    def test_scene_zero_projection_leaves_pe(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, 5, 6, RngStream(7))
        params.scene_proj.assign(np.zeros(params.scene_proj.shape))
        grid = make_grid(RngStream(8).generator())
        out = mdl.embed_scene(grid, params).data
        np.testing.assert_allclose(out, mdl.sinusoidal_pe(4, cfg.embed_dim))

    def test_scene_single_token(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, 5, 6, RngStream(9))
        grid = make_grid(RngStream(10).generator(), h=1, w=1, t=1)
        out = mdl.embed_scene(grid, params).data
        expected = (params.scene_proj.value.data @ grid
                    + mdl.sinusoidal_pe(1, cfg.embed_dim))
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_scene_matmul_plus_pe_oracle(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, 5, 6, RngStream(11))
        grid = make_grid(RngStream(12).generator(), h=2, w=2, t=2)
        out = mdl.embed_scene(grid, params).data
        expected = params.scene_proj.value.data @ grid + mdl.sinusoidal_pe(
            8, cfg.embed_dim
        )
        np.testing.assert_allclose(out, expected, rtol=1e-12)


class TestSinusoidalPe:
    def test_position_zero(self):
        pe = mdl.sinusoidal_pe(4, 8)
        np.testing.assert_allclose(pe[0::2, 0], 0.0)
        np.testing.assert_allclose(pe[1::2, 0], 1.0)

    def test_column_norms(self):
        pe = mdl.sinusoidal_pe(16, 32)
        np.testing.assert_allclose((pe * pe).sum(axis=0), 16.0, rtol=1e-12)

    def test_positions_pairwise_distinct(self):
        pe = mdl.sinusoidal_pe(64, 256)
        dists = np.linalg.norm(pe[:, :, None] - pe[:, None, :], axis=0)
        dists[np.diag_indices(64)] = np.inf
        assert dists.min() > 0.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ConfigError):
            mdl.sinusoidal_pe(4, 7)


class TestEncode:
    def test_identity_with_zeroed_residual_outputs(self):
        gen = RngStream(13).generator()
        for variant in ("unified", "decoder_only", "encoder_decoder"):
            cfg = tiny_cfg(layers=3, variant=variant)
            params = mdl.init_params(cfg, 5, 6, RngStream(14))
            zero_residual_projections(params)
            a = ad.Tensor(gen.standard_normal((8, 4)))
            v = ad.Tensor(gen.standard_normal((8, 7)))
            encode = mdl.encode if variant == "unified" else mdl.encode_variant
            out = encode(a, v, params, cfg, RngStream(0)).data
            assert np.array_equal(out, a.data)

    def test_zero_layers_identity(self):
        cfg = tiny_cfg(layers=0)
        params = mdl.init_params(cfg, 5, 6, RngStream(15))
        x = RngStream(16).generator().standard_normal((8, 5))
        out = mdl.encode(ad.Tensor(x[:, :2]), ad.Tensor(x[:, 2:]), params, cfg, RngStream(0))
        assert np.array_equal(out.data, x[:, :2])

    def test_hand_rolled_attention_oracle(self):
        cfg = mdl.ModelConfig(embed_dim=4, layers=1, heads=1, ffn_dim=8, dropout=0.0,
                              num_classes=2)
        params = mdl.init_params(cfg, 3, 3, RngStream(17))
        x = RngStream(18).generator().standard_normal((4, 3))
        out = mdl.encode(ad.Tensor(x), None, params, cfg, RngStream(0)).data

        def ln(v, gain, bias, eps=1e-5):
            mu = v.mean()
            var = ((v - mu) ** 2).mean()
            return (v - mu) / np.sqrt(var + eps) * gain + bias

        W = lambda p: p.value.data
        blk = params.blocks[0]
        (ln1_gain, ln1_bias, attn), = blk.attns
        rows = x.T
        normed = np.stack([ln(r, W(ln1_gain), W(ln1_bias)) for r in rows])
        q = normed @ W(attn.wq).T + W(attn.bq)
        k = normed @ W(attn.wk).T + W(attn.bk)
        v = normed @ W(attn.wv).T + W(attn.bv)
        s = q @ k.T / 2.0
        a = np.exp(s - s.max(axis=1, keepdims=True))
        a /= a.sum(axis=1, keepdims=True)
        att = a @ v @ W(attn.wo).T + W(attn.bo)
        z = rows + att
        zn = np.stack([ln(r, W(blk.ln_mlp_gain), W(blk.ln_mlp_bias)) for r in z])
        gelu = lambda u: u * 0.5 * (1 + erf(u / np.sqrt(2)))
        mlp = gelu(zn @ W(blk.w1).T + W(blk.b1)) @ W(blk.w2).T + W(blk.b2)
        np.testing.assert_allclose(out, (z + mlp).T, atol=1e-10)

    def test_variant_routing_contract(self):
        cfg = tiny_cfg(variant="decoder_only")
        params = mdl.init_params(cfg, 5, 6, RngStream(19))
        gen = RngStream(20).generator()
        a = ad.Tensor(gen.standard_normal((8, 2)))
        v = ad.Tensor(gen.standard_normal((8, 3)))
        with pytest.raises(ContractError):
            mdl.encode(a, None, params, cfg, RngStream(0))
        uni = tiny_cfg()
        uni_params = mdl.init_params(uni, 5, 6, RngStream(21))
        with pytest.raises(ContractError):
            mdl.encode_variant(a, v, uni_params, uni, RngStream(0))
        blind = tiny_cfg(variant="actor_only")
        with pytest.raises(ContractError):
            mdl.encode_variant(a, v, mdl.init_params(blind, 5, 6, RngStream(21)), blind,
                               RngStream(0))

    @pytest.mark.parametrize("variant", mdl.VARIANTS)
    def test_forward_refuses_wrong_grid(self, variant):
        """Scene-reading variants need a grid; actor_only takes none."""
        cfg = tiny_cfg(variant=variant)
        params = mdl.init_params(cfg, 5, 6, RngStream(19))
        gen = RngStream(20).generator()
        props = make_proposals(gen)
        wrong = make_grid(gen) if variant == "actor_only" else None
        with pytest.raises(ContractError, match=variant):
            mdl.forward_actions(params, cfg, props, wrong, RngStream(0))

    def test_actor_only_is_the_unified_stack_on_actor_tokens(self):
        """Bit for bit, in logits and gradients, including live dropout."""
        logits, grads = [], []
        for variant in ("unified", "actor_only"):
            cfg = tiny_cfg(layers=2, dropout=0.3, variant=variant)
            params = mdl.init_params(cfg, 5, 6, RngStream(67))
            props = make_proposals(RngStream(68).generator())
            if variant == "unified":  # its stack on actor tokens alone, no scene projection
                actors = mdl.encode(mdl.embed_actors(props, params), None, params, cfg,
                                    RngStream(69), training=True)
                out = mdl.classify(actors, params)
            else:
                out = mdl.forward_actions(params, cfg, props, None, RngStream(69), training=True)
            ad.backward(ad.reduce_sum(out))
            logits.append(out.data)
            grads.append({p.name: p.grad for p in params.parameters()})
        assert np.array_equal(logits[0], logits[1])
        assert grads[0].keys() - {"embed.scene"} == grads[1].keys()
        for name, g in grads[1].items():
            assert np.array_equal(g, grads[0][name]), name

    def test_single_scene_token_cross_attention_passthrough(self):
        # softmax over one key is exactly 1 regardless of content
        cfg = tiny_cfg(variant="decoder_only", layers=1)
        params = mdl.init_params(cfg, 5, 6, RngStream(22))
        gen = RngStream(23).generator()
        a = ad.Tensor(gen.standard_normal((8, 3)))
        v1 = ad.Tensor(gen.standard_normal((8, 1)))
        sink = []
        mdl.encode_variant(a, v1, params, cfg, RngStream(0), attn_sink=sink)
        for _, _, w in sink:
            np.testing.assert_allclose(w, 1.0)

    def test_cross_attention_duplicate_keys_invariant(self):
        cfg = tiny_cfg(variant="decoder_only", layers=2)
        params = mdl.init_params(cfg, 5, 6, RngStream(24))
        gen = RngStream(25).generator()
        a = ad.Tensor(gen.standard_normal((8, 3)))
        token = gen.standard_normal((8, 1))
        one = mdl.encode_variant(a, ad.Tensor(token), params, cfg, RngStream(0)).data
        many = mdl.encode_variant(
            a, ad.Tensor(np.repeat(token, 5, axis=1)), params, cfg, RngStream(0)
        ).data
        np.testing.assert_allclose(one, many, atol=1e-12)

    def test_permutation_equivariance_over_actor_tokens(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, 5, 6, RngStream(26))
        gen = RngStream(27).generator()
        a = gen.standard_normal((8, 4))
        v = gen.standard_normal((8, 5))
        perm = [2, 0, 3, 1]
        base = mdl.encode(ad.Tensor(a), ad.Tensor(v), params, cfg, RngStream(0)).data
        out_p = mdl.encode(ad.Tensor(a[:, perm]), ad.Tensor(v), params, cfg, RngStream(0)).data
        np.testing.assert_allclose(out_p[:, :4], base[:, perm], atol=1e-10)

    def test_shape_contract(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, 5, 6, RngStream(28))
        gen = RngStream(29).generator()
        for k, n in [(1, 1), (3, 7), (5, 2)]:
            x = gen.standard_normal((8, k + n))
            out = mdl.encode(ad.Tensor(x[:, :k]), ad.Tensor(x[:, k:]), params, cfg, RngStream(0))
            assert out.shape == (8, k)
        logits = mdl.classify(ad.Tensor(gen.standard_normal((8, 4))), params)
        assert logits.shape == (3, 4)

    def test_attention_rows_sum_to_one(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, 5, 6, RngStream(30))
        gen = RngStream(31).generator()
        sink = []
        x = gen.standard_normal((8, 6))
        mdl.encode(ad.Tensor(x[:, :2]), ad.Tensor(x[:, 2:]), params, cfg, RngStream(0),
                   attn_sink=sink)
        assert len(sink) == cfg.layers * cfg.heads
        for _, _, w in sink:
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)


def full_stack_logits(params, cfg, props, grid, rng, training):
    """Reference unified forward: every block over all K + N rows, actor columns read last."""
    a = mdl.embed_actors(props, params)
    tokens = a if grid is None else ad.concat([a, mdl.embed_scene(grid, params)], axis=1)
    x = ad.transpose(tokens)
    for l, blk in enumerate(params.blocks):
        x = mdl._block(x, blk, [None], cfg, rng.child(l), training, None, l)
    return mdl.classify(ad.narrow(ad.transpose(x), 1, 0, len(props)), params)


class TestActorRowLastBlock:
    """The last unified block queries with the K actor rows only; the head sees
    the same logits and every parameter the same gradient as the full stack."""

    @pytest.mark.parametrize("scene", [True, False], ids=["scene", "scene_blind"])
    @pytest.mark.parametrize("layers", [0, 1, 3])
    def test_matches_full_stack_oracle(self, layers, scene):
        cfg = tiny_cfg(layers=layers, dropout=0.3, variant="unified" if scene else "actor_only")
        params = mdl.init_params(cfg, 5, 6, RngStream(50))
        gen = RngStream(51).generator()
        props = make_proposals(gen, k=3)
        grid = make_grid(gen, h=2, w=3) if scene else None
        loss_w = ad.Tensor(gen.standard_normal(3))
        rng = RngStream(52)

        def narrowed(training):
            return mdl.forward_actions(params, cfg, props, grid, rng, training)

        def oracle(training):
            return full_stack_logits(params, cfg, props, grid, rng, training)

        with ad.no_grad():
            eval_logits = narrowed(False).data
            np.testing.assert_allclose(eval_logits, oracle(False).data, rtol=0, atol=1e-12)

        runs = []
        for fwd in (narrowed, oracle):
            for p in params.parameters():
                p.zero_grad()
            logits = fwd(True)
            ad.backward(ad.reduce_sum(ad.mul_rowvec(logits, loss_w)))
            runs.append((logits.data, {p.name: p.grad.copy() for p in params.parameters()}))
        (logits, grads), (ref_logits, ref_grads) = runs
        if layers:
            assert not np.allclose(logits, eval_logits)  # dropout is live
        np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-12)
        for name, g in ref_grads.items():
            np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12, err_msg=name)

    def test_grad_check_through_actor_row_block(self):
        cfg = tiny_cfg(layers=1, dropout=0.3)
        params = mdl.init_params(cfg, 5, 6, RngStream(53))
        gen = RngStream(54).generator()
        props = make_proposals(gen, k=3)
        grid = make_grid(gen)
        loss_w = ad.Tensor(gen.standard_normal(3))

        def f():
            # a fixed dropout stream makes the training-mode forward deterministic
            logits = mdl.forward_actions(params, cfg, props, grid, RngStream(55), training=True)
            return ad.reduce_sum(ad.mul_rowvec(logits, loss_w))

        report = grad_check(f, params.parameters(), step=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err


def _np_ln(rows, gain, bias, eps=1e-5):
    mu = rows.mean(axis=1, keepdims=True)
    var = ((rows - mu) ** 2).mean(axis=1, keepdims=True)
    return (rows - mu) / np.sqrt(var + eps) * gain + bias


def _np_gelu(u):
    return u * 0.5 * (1 + erf(u / np.sqrt(2)))


def _np_mha(q_rows, kv_rows, attn, heads):
    W = lambda p: p.value.data
    q = q_rows @ W(attn.wq).T + W(attn.bq)
    k = kv_rows @ W(attn.wk).T + W(attn.bk)
    v = kv_rows @ W(attn.wv).T + W(attn.bv)
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        s = q[:, cols] @ k[:, cols].T / np.sqrt(dh)
        a = np.exp(s - s.max(axis=1, keepdims=True))
        outs.append(a / a.sum(axis=1, keepdims=True) @ v[:, cols])
    return np.concatenate(outs, axis=1) @ W(attn.wo).T + W(attn.bo)


class TestEncoderDecoder:
    """The scene encoder and the actor decoder (self-, then cross-attention)."""

    def test_one_layer_numpy_oracle(self):
        cfg = tiny_cfg(layers=1, variant="encoder_decoder")
        params = mdl.init_params(cfg, 5, 6, RngStream(60))
        gen = RngStream(61).generator()
        # non-trivial norms, so a wrongly shared LayerNorm shows
        for p in params.parameters():
            if p.name.endswith((".gain", ".bias")):
                p.assign(p.value.data + 0.3 * gen.standard_normal(p.shape))
        props = make_proposals(gen, k=3)
        grid = make_grid(gen, h=2, w=3)
        with ad.no_grad():
            out = mdl.forward_actions(params, cfg, props, grid, RngStream(0)).data

        W = lambda p: p.value.data
        named = {p.name: p.value.data for p in params.parameters()}
        ln = lambda rows, name: _np_ln(rows, named[f"{name}.gain"], named[f"{name}.bias"])

        def mlp(rows, blk):
            return _np_gelu(rows @ W(blk.w1).T + W(blk.b1)) @ W(blk.w2).T + W(blk.b2)

        f = np.stack([p.feature for p in props], axis=1)
        g = geometry(props)
        a = (W(params.actor_proj) @ f + W(params.geom_proj) @ g).T
        s = (W(params.scene_proj) @ grid + mdl.sinusoidal_pe(6, cfg.embed_dim)).T

        (_, _, scene_attn), = params.scene_blocks[0].attns
        sn = ln(s, "scene0.ln1")
        s = s + _np_mha(sn, sn, scene_attn, cfg.heads)
        s = s + mlp(ln(s, "scene0.ln2"), params.scene_blocks[0])

        dec = params.blocks[0]
        (_, _, self_attn), (_, _, cross_attn) = dec.attns
        an = ln(a, "dec0.ln_self")
        a = a + _np_mha(an, an, self_attn, cfg.heads)
        a = a + _np_mha(ln(a, "dec0.ln_cross"), ln(s, "dec0.ln_cross"), cross_attn, cfg.heads)
        a = a + mlp(ln(a, "dec0.ln_mlp"), dec)

        h = _np_gelu(a @ W(params.head_w1).T + W(params.head_b1))
        expected = (h @ W(params.head_w2).T + W(params.head_b2)).T
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-10)

    def test_grad_check_in_training_mode(self):
        cfg = tiny_cfg(layers=1, dropout=0.3, variant="encoder_decoder")
        params = mdl.init_params(cfg, 5, 6, RngStream(62))
        gen = RngStream(63).generator()
        props = make_proposals(gen, k=3)
        grid = make_grid(gen)
        loss_w = ad.Tensor(gen.standard_normal(3))

        def f():
            # a fixed dropout stream makes the training-mode forward deterministic
            logits = mdl.forward_actions(params, cfg, props, grid, RngStream(64), training=True)
            return ad.reduce_sum(ad.mul_rowvec(logits, loss_w))

        report = grad_check(f, params.parameters(), step=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err


def _block_names(prefix, attns, ln_mlp):
    names = []
    for ln, attn in attns:
        names += [f"{prefix}.{ln}.gain", f"{prefix}.{ln}.bias"]
        names += [f"{prefix}.{attn}.{m}.{wb}" for m in ("q", "k", "v", "out") for wb in "wb"]
    names += [f"{prefix}.{ln_mlp}.gain", f"{prefix}.{ln_mlp}.bias"]
    return names + [f"{prefix}.mlp.{fc}.{wb}" for fc in ("fc1", "fc2") for wb in "wb"]


EMBED_NAMES = ["embed.actor", "embed.geom", "embed.scene"]
HEAD_NAMES = ["head.fc1.w", "head.fc1.b", "head.fc2.w", "head.fc2.b"]
SELF_BLOCK = ([("ln1", "attn")], "ln2")
DECODER_BLOCK = ([("ln_self", "self"), ("ln_cross", "cross")], "ln_mlp")


class TestParameterNames:
    """Checkpoints store parameters by name and AdamW walks them in registration
    order; both must stay fixed for old checkpoints to load and resume."""

    def test_block_name_snapshot(self):
        assert _block_names("enc0", *SELF_BLOCK) == [
            "enc0.ln1.gain", "enc0.ln1.bias",
            "enc0.attn.q.w", "enc0.attn.q.b", "enc0.attn.k.w", "enc0.attn.k.b",
            "enc0.attn.v.w", "enc0.attn.v.b", "enc0.attn.out.w", "enc0.attn.out.b",
            "enc0.ln2.gain", "enc0.ln2.bias",
            "enc0.mlp.fc1.w", "enc0.mlp.fc1.b", "enc0.mlp.fc2.w", "enc0.mlp.fc2.b",
        ]
        assert _block_names("dec0", *DECODER_BLOCK) == [
            "dec0.ln_self.gain", "dec0.ln_self.bias",
            "dec0.self.q.w", "dec0.self.q.b", "dec0.self.k.w", "dec0.self.k.b",
            "dec0.self.v.w", "dec0.self.v.b", "dec0.self.out.w", "dec0.self.out.b",
            "dec0.ln_cross.gain", "dec0.ln_cross.bias",
            "dec0.cross.q.w", "dec0.cross.q.b", "dec0.cross.k.w", "dec0.cross.k.b",
            "dec0.cross.v.w", "dec0.cross.v.b", "dec0.cross.out.w", "dec0.cross.out.b",
            "dec0.ln_mlp.gain", "dec0.ln_mlp.bias",
            "dec0.mlp.fc1.w", "dec0.mlp.fc1.b", "dec0.mlp.fc2.w", "dec0.mlp.fc2.b",
        ]

    @pytest.mark.parametrize("variant,blocks", [
        ("unified", [("enc0", SELF_BLOCK), ("enc1", SELF_BLOCK)]),
        ("decoder_only", [("dec0", SELF_BLOCK), ("dec1", SELF_BLOCK)]),
        ("encoder_decoder", [("scene0", SELF_BLOCK), ("scene1", SELF_BLOCK),
                             ("dec0", DECODER_BLOCK), ("dec1", DECODER_BLOCK)]),
        ("actor_only", [("enc0", SELF_BLOCK), ("enc1", SELF_BLOCK)]),
    ])
    def test_registration_order(self, variant, blocks):
        params = mdl.init_params(tiny_cfg(variant=variant), 5, 6, RngStream(65))
        embed = [n for n in EMBED_NAMES if variant != "actor_only" or n != "embed.scene"]
        expected = embed + sum((_block_names(p, *b) for p, b in blocks), []) + HEAD_NAMES
        assert [p.name for p in params.parameters()] == expected

    def test_actor_only_parameters_equal_unified_ones(self):
        unified = mdl.init_params(tiny_cfg(), 5, 6, RngStream(66))
        blind = mdl.init_params(tiny_cfg(variant="actor_only"), 5, 6, RngStream(66))
        assert blind.scene_proj is None
        shared = {p.name: p.value.data for p in unified.parameters()}
        for p in blind.parameters():
            assert np.array_equal(p.value.data, shared[p.name]), p.name


class TestClassify:
    def test_zero_weights_give_half_scores(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, 5, 6, RngStream(32))
        for p in (params.head_w1, params.head_b1, params.head_w2, params.head_b2):
            p.assign(np.zeros(p.shape))
        logits = mdl.classify(ad.Tensor(np.ones((8, 4))), params)
        assert np.all(logits.data == 0.0)
        np.testing.assert_allclose(ad._sigmoid(logits.data), 0.5)

    def test_pass_through_construction(self):
        cfg = tiny_cfg(embed_dim=4, heads=2, num_classes=4)
        params = mdl.init_params(cfg, 5, 6, RngStream(34))
        params.head_w1.assign(np.zeros((4, 4)))
        params.head_b1.assign(np.full(4, 3.0))  # gelu(3) ~ 2.9960
        params.head_w2.assign(np.eye(4))
        params.head_b2.assign(np.zeros(4))
        token = np.ones((4, 1))
        out = mdl.classify(ad.Tensor(token), params).data
        gelu3 = 3.0 * 0.5 * (1 + erf(3.0 / np.sqrt(2)))
        np.testing.assert_allclose(out, gelu3, rtol=1e-12)

    def test_composed_matmul_oracle(self):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, 5, 6, RngStream(35))
        x = RngStream(36).generator().standard_normal((8, 3))
        out = mdl.classify(ad.Tensor(x), params).data
        W = lambda p: p.value.data
        h = x.T @ W(params.head_w1).T + W(params.head_b1)
        h = h * 0.5 * (1 + erf(h / np.sqrt(2)))
        expected = (h @ W(params.head_w2).T + W(params.head_b2)).T
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, 5, 6, RngStream(40))
        arrays = {p.name: p.value.data for p in params.parameters()}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"model": arrays}, {"note": "test"})
        sections, meta = load_checkpoint(path)
        assert meta == {"note": "test"}
        assert set(sections["model"]) == set(arrays)
        for name, arr in arrays.items():
            assert np.array_equal(sections["model"][name], arr)

    def test_identical_state_identical_bytes(self, tmp_path):
        cfg = tiny_cfg()
        params = mdl.init_params(cfg, 5, 6, RngStream(41))
        arrays = {p.name: p.value.data for p in params.parameters()}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, {"model": arrays}, {"x": 1})
        save_checkpoint(p2, {"model": dict(reversed(list(arrays.items())))}, {"x": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_past_the_entries_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"model": {"w": np.ones(3)}})
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValidationError, match="8 bytes past its entries"):
            load_checkpoint(path)

    def test_interrupted_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "last.ckpt"
        save_checkpoint(path, {"model": {"w": np.ones(3)}})
        before = path.read_bytes()

        def killed(*_a):
            raise KeyboardInterrupt

        monkeypatch.setattr(checkpoint.os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(path, {"model": {"w": np.zeros(3)}})
        assert path.read_bytes() == before


class TestFullForwardGradient:
    def test_pipeline_grad_check(self):
        from sceneact.matching import GroundTruthSet, LossConfig, matched_targets, set_loss

        cfg = tiny_cfg()
        params = mdl.init_params(cfg, 5, 6, RngStream(42))
        gen = RngStream(43).generator()
        props = make_proposals(gen)
        grid = make_grid(gen)
        gts = GroundTruthSet.build(
            [props[0].box, props[2].box], np.array([[1.0, 0, 0], [0, 1.0, 1.0]]), 3
        )
        lcfg = LossConfig()

        def f():
            logits = mdl.forward_actions(params, cfg, props, grid, RngStream(0))
            sigma, targets = matched_targets(gts, props, lcfg)
            return set_loss(logits, sigma, targets, lcfg)

        report = grad_check(f, params.parameters(), step=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err

    @pytest.mark.parametrize("variant", mdl.VARIANTS)
    def test_only_parameter_leaves_hold_gradients(self, variant):
        from sceneact.matching import GroundTruthSet, LossConfig, matched_targets, set_loss

        cfg = tiny_cfg(variant=variant, dropout=0.3)
        params = mdl.init_params(cfg, 5, 6, RngStream(44))
        gen = RngStream(45).generator()
        props = make_proposals(gen)
        gts = GroundTruthSet.build([props[1].box], np.array([[0, 1.0, 0]]), 3)
        grid = None if variant == "actor_only" else make_grid(gen)
        logits = mdl.forward_actions(params, cfg, props, grid, RngStream(46), training=True)
        sigma, targets = matched_targets(gts, props, LossConfig())
        loss = set_loss(logits, sigma, targets, LossConfig())
        ad.backward(loss)
        seen, stack, holders = {id(loss)}, [loss], []
        while stack:
            node = stack.pop()
            if node.grad is not None:
                holders.append(id(node))
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        leaves = {id(p.value) for p in params.parameters()}
        assert holders and set(holders) <= leaves


class TestWindowStacks:
    """B proposal sets on a (B, C', N) grid stack score like B single forwards; a recorded
    stack of B clips gives each clip its own tape's loss and gradient terms."""

    @pytest.mark.parametrize("variant", mdl.VARIANTS)
    @pytest.mark.parametrize("windows", [1, 2, 3])
    def test_stack_equals_per_window_forwards_bitwise(self, variant, windows):
        cfg = tiny_cfg(variant=variant, dropout=0.3)
        params = mdl.init_params(cfg, 5, 6, RngStream(70))
        gen = RngStream(71).generator()
        props = [make_proposals(gen, k=4) for _ in range(windows)]
        grids = [None if variant == "actor_only" else make_grid(gen, h=3, w=3, t=2)
                 for _ in range(windows)]
        with ad.no_grad():
            single = [mdl.forward_actions(params, cfg, p, g, RngStream(0)).data
                      for p, g in zip(props, grids)]
            stacked = mdl.forward_actions(params, cfg, props,
                                          None if variant == "actor_only" else np.stack(grids),
                                          RngStream(0))
        assert stacked.shape == (windows, 3, 4)
        assert stacked.data.tobytes() == np.stack(single).tobytes()

    @pytest.mark.parametrize("variant", mdl.VARIANTS)
    @pytest.mark.parametrize("clips", [1, 2, 3])
    def test_recorded_clip_stack_equals_per_clip_tapes_bitwise(self, variant, clips):
        from sceneact.matching import GroundTruthSet, LossConfig, matched_targets, set_loss

        cfg, lcfg = tiny_cfg(variant=variant, dropout=0.3), LossConfig()
        params = mdl.init_params(cfg, 5, 6, RngStream(72))
        gen = RngStream(73).generator()
        props = [make_proposals(gen, k=4) for _ in range(clips)]
        grids = [None if variant == "actor_only" else make_grid(gen, h=3, w=3, t=2)
                 for _ in range(clips)]
        targets = [matched_targets(GroundTruthSet.build([p[j % 4].box], np.eye(3)[[j % 3]], 4),
                                   p, lcfg) for j, p in enumerate(props)]
        streams = [RngStream(74).child(j) for j in range(clips)]
        single = []
        for p, grid, target, rng in zip(props, grids, targets, streams):
            loss = set_loss(mdl.forward_actions(params, cfg, p, grid, rng, training=True),
                            *target, lcfg)
            single.append((loss.data, ad.leaf_gradients(loss)))
        logits = mdl.forward_actions(params, cfg, props,
                                     None if variant == "actor_only" else np.stack(grids),
                                     streams, training=True)
        sigmas, labels = zip(*targets)
        losses = set_loss(logits, sigmas, np.stack(labels), lcfg)
        terms = ad.leaf_gradients(ad.reduce_sum(losses))
        assert logits.shape == (clips, 3, 4)
        assert losses.data.tobytes() == np.stack([loss for loss, _ in single]).tobytes()
        assert terms.keys() == {p.value for p in params.parameters()}
        for p in params.parameters():
            assert [t[b].tobytes() for b in range(clips) for t in terms[p.value]] == \
                [t.tobytes() for _, parts in single for t in parts[p.value]], p.name

    @pytest.mark.parametrize("variant", mdl.VARIANTS)
    def test_inference_derives_no_dropout_stream(self, variant, monkeypatch):
        cfg = tiny_cfg(variant=variant, dropout=0.3)
        params = mdl.init_params(cfg, 5, 6, RngStream(74))
        gen = RngStream(75).generator()
        props = make_proposals(gen)
        grid = None if variant == "actor_only" else make_grid(gen)
        monkeypatch.setattr(RngStream, "child", lambda *a: pytest.fail("derived a stream"))
        mdl.forward_actions(params, cfg, props, grid, RngStream(0))
