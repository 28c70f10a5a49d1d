"""Actor-scene relation model.

Actor detector features and their box geometry are linearly embedded;
scene grid tokens are embedded and tagged with a fixed sinusoidal
positional code. Four relation architectures share the embedding and
classification head:

* unified      -- one self-attention stack over the concatenation of
                  actor and scene tokens (every token attends to all),
* actor_only   -- the same stack over the actor tokens alone: the
                  scene-blind ablation, built without a scene projection,
* decoder_only -- actor tokens cross-attend into the raw scene tokens,
* encoder_decoder -- scene tokens are self-encoded first, then actor
                  tokens run self-attention plus cross-attention blocks.

Every variant uses one pre-norm residual block: attention sublayers
x = Attn(LN(x), LN(kv)) + x, with kv = x (self) or a key/value source
(cross), then x = MLP(LN(x)) + x with GELU. The encoder-decoder's actor
blocks have two sublayers (self, then cross); the rest have one. Only the
last sublayer exports to ``attn_sink``: the self-attention stack's
attention, or the other variants' actor-to-scene cross-attention.

An attention sublayer records five tape nodes besides the query scale and
the output dropout: three ``ad.linear`` projections (queries, keys,
values), one ``ad.attention`` node that computes every head of every
stacked clip in one numpy call per step (head h's softmax weights, dropout
from ``rng.child(0, h)`` and value mix on its own column block), and the
output ``ad.linear``. It holds one (B, heads, m, n) array per product. Every
dense layer is one ``ad.linear`` node.

The unified stack's last block queries with the K actor rows, the only
rows the head reads; its keys and values still cover all K + N tokens.
This is exact: all but keys and values is row-wise, and a keep mask reads one
raw Philox word per entry in C order, so a (K, ...) dropout mask is the first
K rows of the (K + N, ...) one.
Dropout streams are derived from the forward's ``rng`` only when training.
``forward_actions`` also runs B clips through each op at once (``autodiff``'s
stacks), in training as at inference, each clip's masks from its own stream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ConfigError, ContractError, DimensionError
from .rng import RngStream

LAYER_NORM_EPS = 1e-5

Streams = RngStream | list[RngStream]  # dropout streams: one, or one per clip of a stack

VARIANTS = ("unified", "decoder_only", "encoder_decoder", "actor_only")
SELF_STACK = ("unified", "actor_only")  # the variants encode() runs, blocks named enc{l}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters (published defaults)."""

    embed_dim: int = 256
    layers: int = 6
    heads: int = 8
    ffn_dim: int = 1024
    dropout: float = 0.1
    variant: str = "unified"
    num_classes: int = 12

    def __post_init__(self):
        for name in ("embed_dim", "ffn_dim", "num_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.heads < 1 or self.embed_dim % self.heads != 0:
            raise ConfigError(f"heads {self.heads} must be at least 1 and divide "
                              f"embed_dim {self.embed_dim}")
        if self.embed_dim % 2 and self.variant != "actor_only":  # sin/cos pairs: sinusoidal_pe
            raise ConfigError(f"embed_dim must be even for variant {self.variant!r}, whose "
                              f"scene tokens carry a positional code; got {self.embed_dim}")
        if self.layers < 0:
            raise ConfigError(f"layers must be non-negative, got {self.layers}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


@dataclass
class AttentionParams:
    wq: Parameter
    bq: Parameter
    wk: Parameter
    bk: Parameter
    wv: Parameter
    bv: Parameter
    wo: Parameter
    bo: Parameter


@dataclass
class BlockParams:
    """Attention sublayers as (LayerNorm gain, LayerNorm bias, attention), then the MLP."""

    attns: list[tuple[Parameter, Parameter, AttentionParams]]
    ln_mlp_gain: Parameter
    ln_mlp_bias: Parameter
    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter


@dataclass
class ModelParams:
    """All trainable parameters; ``named`` holds each under its name, in creation order."""

    actor_proj: Parameter
    geom_proj: Parameter
    scene_proj: Parameter | None  # None for actor_only
    blocks: list
    scene_blocks: list
    head_w1: Parameter
    head_b1: Parameter
    head_w2: Parameter
    head_b2: Parameter
    named: dict[str, Parameter]

    def parameters(self) -> list[Parameter]:
        return list(self.named.values())


def _glorot(rng: RngStream, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.generator().uniform(-limit, limit, size=(out_dim, in_dim))


def init_params(
    cfg: ModelConfig, actor_dim: int, scene_dim: int, rng: RngStream
) -> ModelParams:
    """Variance-preserving uniform init for projections; LN gain 1, biases 0."""
    d = cfg.embed_dim

    made: dict[str, Parameter] = {}

    def make(name: str, data) -> Parameter:
        p = Parameter(name, data)
        made[name] = p
        return p

    def linear(name: str, out_dim: int, in_dim: int) -> tuple[Parameter, Parameter]:
        w = make(f"{name}.w", _glorot(rng.child_named(name), out_dim, in_dim))
        b = make(f"{name}.b", np.zeros(out_dim))
        return w, b

    def attention(prefix: str) -> AttentionParams:
        wq, bq = linear(f"{prefix}.q", d, d)
        wk, bk = linear(f"{prefix}.k", d, d)
        wv, bv = linear(f"{prefix}.v", d, d)
        wo, bo = linear(f"{prefix}.out", d, d)
        return AttentionParams(wq, bq, wk, bk, wv, bv, wo, bo)

    def norm(name: str) -> tuple[Parameter, Parameter]:
        return make(f"{name}.gain", np.ones(d)), make(f"{name}.bias", np.zeros(d))

    def block(prefix: str, attns: list[tuple[str, str]], ln_mlp: str) -> BlockParams:
        sublayers = [(*norm(f"{prefix}.{ln}"), attention(f"{prefix}.{name}"))
                     for ln, name in attns]
        g, b = norm(f"{prefix}.{ln_mlp}")
        w1, b1 = linear(f"{prefix}.mlp.fc1", cfg.ffn_dim, d)
        w2, b2 = linear(f"{prefix}.mlp.fc2", d, cfg.ffn_dim)
        return BlockParams(sublayers, g, b, w1, b1, w2, b2)

    one_attn = ([("ln1", "attn")], "ln2")

    actor_proj = make("embed.actor", _glorot(rng.child_named("embed.actor"), d, actor_dim))
    geom_proj = make("embed.geom", _glorot(rng.child_named("embed.geom"), d, 6))
    scene_proj = (None if cfg.variant == "actor_only" else
                  make("embed.scene", _glorot(rng.child_named("embed.scene"), d, scene_dim)))

    scene_blocks = []
    if cfg.variant in SELF_STACK:
        blocks = [block(f"enc{l}", *one_attn) for l in range(cfg.layers)]
    elif cfg.variant == "decoder_only":
        blocks = [block(f"dec{l}", *one_attn) for l in range(cfg.layers)]
    else:
        scene_blocks = [block(f"scene{l}", *one_attn) for l in range(cfg.layers)]
        blocks = [
            block(f"dec{l}", [("ln_self", "self"), ("ln_cross", "cross")], "ln_mlp")
            for l in range(cfg.layers)
        ]

    head_w1, head_b1 = linear("head.fc1", d, d)
    head_w2, head_b2 = linear("head.fc2", cfg.num_classes, d)
    return ModelParams(actor_proj, geom_proj, scene_proj, blocks, scene_blocks,
                       head_w1, head_b1, head_w2, head_b2, made)


# ---------------------------------------------------------------------------
# embeddings


@functools.lru_cache(maxsize=8)
def sinusoidal_pe(n: int, d: int) -> np.ndarray:
    """Read-only (d, n) positional code: (sin, cos) channel pairs at geometric frequencies."""
    if d % 2 != 0:
        raise ConfigError(f"positional encoding needs an even dimension, got {d}")
    pos = np.arange(n)
    freq = np.power(10000.0, -np.arange(d // 2) * 2.0 / d)
    angles = np.outer(freq, pos)  # (d/2, n)
    pe = np.empty((d, n))
    pe[0::2] = np.sin(angles)
    pe[1::2] = np.cos(angles)
    pe.setflags(write=False)
    return pe


def _actor_inputs(proposals, c: int) -> tuple[np.ndarray, np.ndarray]:
    """One proposal set's (C, K) features and (6, K) geometry: box corners, width, height."""
    feats, geoms = [], []
    for p in proposals:
        f = np.asarray(p.feature, dtype=np.float64)
        if f.shape != (c,):
            raise DimensionError(f"actor feature shape {f.shape}, expected ({c},)")
        feats.append(f)
        geoms.append([*p.box.corners(), p.box.width, p.box.height])
    return np.stack(feats, axis=1), np.array(geoms).T


def embed_actors(proposals, params: ModelParams) -> Tensor:
    """Columns E_a f + E_g g per proposal, in order, (D, K); B proposal sets give (B, D, K)."""
    c = params.actor_proj.shape[1]
    if isinstance(proposals[0], (list, tuple)):  # B clips' proposal sets
        f_a, g = (np.stack(x) for x in zip(*(_actor_inputs(p, c) for p in proposals)))
    else:
        f_a, g = _actor_inputs(proposals, c)
    return ad.add(ad.matmul(params.actor_proj.value, Tensor(f_a)),
                  ad.matmul(params.geom_proj.value, Tensor(g)))


def embed_scene(grid: np.ndarray, params: ModelParams) -> Tensor:
    """Project the (C', N) scene token matrix (or each of a stack); add the positional code."""
    f_v = np.asarray(grid, dtype=np.float64)
    d, c = params.scene_proj.shape
    if f_v.ndim not in (2, 3) or f_v.shape[-2] != c:
        raise DimensionError(f"scene tokens of shape {f_v.shape}, expected ({c}, N)")
    proj = ad.matmul(params.scene_proj.value, Tensor(f_v))
    pe = Tensor(np.broadcast_to(sinusoidal_pe(f_v.shape[-1], d), proj.shape))
    return ad.add(proj, pe)


# ---------------------------------------------------------------------------
# attention stacks (row-token layout internally: (tokens, D), or (B, tokens, D))


def _child(rng: Streams, training: bool, *indices: int) -> Streams:
    """``rng.child(*indices)``, or each clip's stream's, when training; inference draws no
    dropout, so it derives nothing."""
    if not training:
        return rng
    return rng.child(*indices) if isinstance(rng, RngStream) else [r.child(*indices) for r in rng]


def _mha(
    q_rows: Tensor,
    kv_rows: Tensor,
    attn: AttentionParams,
    cfg: ModelConfig,
    rng: Streams,
    training: bool,
    sink: list | None,
    layer: int,
) -> Tensor:
    q = ad.scale(ad.linear(q_rows, attn.wq.value, attn.bq.value),
                 1.0 / np.sqrt(cfg.embed_dim // cfg.heads))
    k = ad.linear(kv_rows, attn.wk.value, attn.bk.value)
    v = ad.linear(kv_rows, attn.wv.value, attn.bv.value)
    merged = ad.attention(q, k, v, cfg.heads, cfg.dropout, rng, training, sink, layer)
    out = ad.linear(merged, attn.wo.value, attn.bo.value)
    return ad.dropout(out, cfg.dropout, _child(rng, training, 1), training)


def _mlp(x: Tensor, blk, cfg: ModelConfig, rng: Streams, training: bool) -> Tensor:
    h = ad.gelu(ad.linear(x, blk.w1.value, blk.b1.value))
    out = ad.linear(h, blk.w2.value, blk.b2.value)
    return ad.dropout(out, cfg.dropout, _child(rng, training, 2), training)


def _block(
    x: Tensor,
    blk: BlockParams,
    sources: list[Tensor | None],
    cfg: ModelConfig,
    rng: Streams,
    training: bool,
    sink: list | None,
    layer: int,
) -> Tensor:
    """Pre-norm residual block with one key/value source per attention sublayer.

    A ``None`` source is self-attention. The last sublayer draws dropout from
    ``rng`` and writes to ``sink``; an earlier sublayer i draws from
    ``rng.child(10 + i)`` and exports nothing.
    """
    last = len(blk.attns) - 1
    for i, ((gain, bias, attn), src) in enumerate(zip(blk.attns, sources, strict=True)):
        normed = ad.layer_norm(x, gain.value, bias.value, LAYER_NORM_EPS)
        kv = normed if src is None else ad.layer_norm(src, gain.value, bias.value, LAYER_NORM_EPS)
        own = i == last
        x = ad.add(x, _mha(normed, kv, attn, cfg, rng if own else _child(rng, training, 10 + i),
                           training, sink if own else None, layer))
    normed = ad.layer_norm(x, blk.ln_mlp_gain.value, blk.ln_mlp_bias.value, LAYER_NORM_EPS)
    return ad.add(x, _mlp(normed, blk, cfg, rng, training))


def encode(
    actor_tokens: Tensor,
    scene_tokens: Tensor | None,
    params: ModelParams,
    cfg: ModelConfig,
    rng: Streams,
    training: bool = False,
    attn_sink: list | None = None,
) -> Tensor:
    """Run the self-attention stack over all K + N tokens; returns refined actor tokens (D, K)."""
    if cfg.variant not in SELF_STACK:
        raise ContractError(f"encode handles the {SELF_STACK} variants, not {cfg.variant!r}")
    x = actor_tokens if scene_tokens is None else ad.concat([actor_tokens, scene_tokens], axis=-1)
    x = ad.transpose(x)  # (K+N, D)
    last = len(params.blocks) - 1
    for l, blk in enumerate(params.blocks[:last]):
        x = _block(x, blk, [None], cfg, _child(rng, training, l), training, attn_sink, l)
    actors = ad.narrow(x, -2, 0, actor_tokens.shape[-1])
    if last >= 0:
        actors = _block(actors, params.blocks[last], [x], cfg, _child(rng, training, last),
                        training, attn_sink, last)
    return ad.transpose(actors)


def encode_variant(
    actor_tokens: Tensor,
    scene_tokens: Tensor,
    params: ModelParams,
    cfg: ModelConfig,
    rng: Streams,
    training: bool = False,
    attn_sink: list | None = None,
) -> Tensor:
    """Run a non-unified stack; returns the refined actor tokens (D, K)."""
    if cfg.variant in SELF_STACK:
        raise ContractError(f"variant {cfg.variant!r} is handled by encode()")
    a = ad.transpose(actor_tokens)
    s = ad.transpose(scene_tokens)
    for l, blk in enumerate(params.scene_blocks):  # encoder_decoder only
        s = _block(s, blk, [None], cfg, _child(rng, training, 100 + l), training, None, l)
    sources = [s] if cfg.variant == "decoder_only" else [None, s]
    for l, blk in enumerate(params.blocks):
        a = _block(a, blk, sources, cfg, _child(rng, training, l), training, attn_sink, l)
    return ad.transpose(a)


def classify(actor_tokens: Tensor, params: ModelParams) -> Tensor:
    """Two-layer perceptron per actor token; returns (num_classes, K) logits."""
    x = ad.transpose(actor_tokens)  # (K, D)
    h = ad.gelu(ad.linear(x, params.head_w1.value, params.head_b1.value))
    logits = ad.linear(h, params.head_w2.value, params.head_b2.value)
    return ad.transpose(logits)


def forward_actions(
    params: ModelParams,
    cfg: ModelConfig,
    proposals,
    grid: np.ndarray | None,
    rng: Streams,
    training: bool = False,
    attn_sink: list | None = None,
) -> Tensor:
    """Embed, relate and classify; returns (num_classes, K) logits on the tape.

    ``grid`` is ``synthdata.window_grid``'s (C', N) token matrix for the
    scene-reading variants, and None for ``actor_only``, whose stack then
    sees only the K actor columns; any other pairing is a ``ContractError``.
    B clips (B proposal sets, a (B, C', N) grid stack or None, B streams in
    ``rng``, or one stream at inference) give (B, num_classes, K) logits, each
    clip's logits and gradient terms its own forward's bit for bit.
    """
    if (grid is None) != (cfg.variant == "actor_only"):
        raise ContractError(
            f"variant {cfg.variant!r} takes {'a' if grid is None else 'no'} scene grid")
    a = embed_actors(proposals, params)
    v = embed_scene(grid, params) if grid is not None else None
    if cfg.variant in SELF_STACK:
        actors = encode(a, v, params, cfg, rng, training, attn_sink)
    else:
        actors = encode_variant(a, v, params, cfg, rng, training, attn_sink)
    return classify(actors, params)
