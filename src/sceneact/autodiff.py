"""Reverse-mode automatic differentiation over dense float64 tensors.

A leaf is either a parameter or a constant. An operation is recorded,
with its parents and a closure mapping the upstream gradient to parent
gradients, only when a parent is a parameter leaf or a recorded
operation; closures skip the work for constant parents.
``leaf_gradients`` walks the recorded graph once in reverse topological
order, drops each intermediate gradient once its node is processed, and
returns each parameter leaf's gradient terms, so threads may walk graphs
that share parameters. ``backward`` adds the terms to ``.grad``, where
they accumulate across backward calls until ``zero_grad``.

Tensors are immutable values: the numpy buffer is marked read-only.

Operations: ``matmul``, ``add``, ``scale``, ``add_rowvec``, ``mul_rowvec``,
``transpose``, ``reshape``, ``concat``, ``narrow``, ``gather_rows`` and
``reduce_sum`` move and combine values; ``layer_norm``, ``softmax``,
``gelu``, ``logit``, ``dropout`` and ``focal_from_logits`` are the
nonlinear maps. Three fused ops each record one node for what would be
many: ``linear`` (a dense layer), ``attention`` (all heads of one
attention sublayer) and ``window_sum`` (the phase-2 weighted window sum).
Each equals its primitive composition bit for bit, values and gradient
terms alike, and shares its formulas with the primitives through private
helpers. Fewer nodes mean fewer Python round trips per clip, which is
what limits the worker threads: they hold the interpreter lock between
numpy calls.

Stacks cut them further: ``matmul``, ``linear``, ``attention``, ``transpose``
(of the last two axes) and ``gather_rows`` also take a (B, m, n) stack of B
clips' or windows' matrices (the elementwise ops and ``layer_norm`` take any
shape), each one's values and gradient terms equal to its own call's bit for
bit. A parameter's terms from a stack keep a leading clip axis, which
``accumulate`` folds clip by clip, the order of one tape per clip.

A phase-2 fit epoch is ``window_sum``, ``logit`` and ``focal_from_logits`` over
constant scores: ``window_sum`` reads window-major scores contiguously, ``_sigmoid``
is branch-free and ``_focal`` shares one ``logaddexp`` between its softplus terms,
each with the bits of the slower form it replaced (see their docstrings).
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ContractError, DimensionError
from .rng import RngStream

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

_recording = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (inference paths).

    The flag is process-wide, not per thread: enter the context once in the
    calling thread around work it hands to worker threads, never inside a
    worker, where its exit would re-enable recording under the others.
    Inference and training jobs therefore never overlap: each caller
    waits for all of its jobs before it returns.
    """
    global _recording
    prev, _recording = _recording, False
    try:
        yield
    finally:
        _recording = prev


class Tensor:
    """Dense float64 array with optional gradient tape bookkeeping.

    ``data`` is a C-contiguous (row-major) read-only numpy array.
    ``requires_grad`` marks parameter leaves and recorded operations.
    ``grad`` is populated by ``backward`` on parameter leaves only and is
    writable.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        arr.setflags(write=False)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward: Callable | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _wrap(arr: np.ndarray, parents: tuple, backward: Callable) -> Tensor:
    # Fast path for operation outputs: we own ``arr``, no defensive copy.
    t = Tensor.__new__(Tensor)
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    t.data = arr
    t.grad = None
    t.requires_grad = _recording and any(p.requires_grad for p in parents)
    t._parents = parents if t.requires_grad else ()
    t._backward = backward if t.requires_grad else None
    return t


class Parameter:
    """Named trainable leaf with a persistent gradient buffer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, data):
        self.name = name
        self.value = Tensor(data, requires_grad=True)

    @property
    def shape(self) -> tuple:
        return self.value.shape

    @property
    def grad(self) -> np.ndarray:
        if self.value.grad is None:
            return np.zeros(self.value.shape)
        return self.value.grad

    def zero_grad(self):
        self.value.grad = None

    def assign(self, data):
        """Replace the value with a fresh leaf (clears the gradient)."""
        new = Tensor(data, requires_grad=True)
        if new.shape != self.value.shape:
            raise DimensionError(
                f"parameter {self.name}: assign shape {new.shape} != {self.value.shape}"
            )
        self.value = new

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.shape})"


# ---------------------------------------------------------------------------
# operations


def _matrices(op: str, *ts: Tensor):
    """Refuse operands other than matrices and stacks."""
    for t in ts:
        if t.data.ndim not in (2, 3):
            raise DimensionError(f"{op} expects 2-D tensors or stacks, got "
                                 f"{' and '.join(str(t.shape) for t in ts)}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [m,k] and b [k,n]; either may be a stack."""
    _matrices("matmul", a, b)
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def bwd(g):
        return (g @ b.data.swapaxes(-1, -2) if a.requires_grad else None,
                a.data.swapaxes(-1, -2) @ g if b.requires_grad else None)

    return _wrap(out, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer over the rows of x [m, k] or of each matrix of a stack x [B, m, k]:
    x wᵀ + b, with w [n, k] and b [n].

    One node, equal bit for bit to ``add_rowvec(matmul(x, transpose(w)), b)``.
    """
    if (x.data.ndim not in (2, 3) or w.data.ndim != 2 or x.shape[-1] != w.shape[1]
            or b.data.shape != (w.shape[0],)):
        raise DimensionError(f"linear: rows {x.shape}, weight {w.shape}, bias {b.shape}")
    wt = w.data.T.copy()
    out = x.data @ wt
    out += b.data

    def bwd(g):
        return (g @ wt.T if x.requires_grad else None,
                (x.data.swapaxes(-1, -2) @ g).swapaxes(-1, -2) if w.requires_grad else None,
                g.sum(axis=-2) if b.requires_grad else None)  # each clip's own rows

    return _wrap(out, (x, w, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")
    return _wrap(a.data + b.data, (a, b), lambda g: (g, g))


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return _wrap(x.data * s, (x,), lambda g: (g * s,))


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a length-d vector to every row of x [..., d]."""
    if v.data.shape != (x.data.shape[-1],):
        raise DimensionError(f"add_rowvec: vector {v.shape} vs rows of {x.shape}")

    def bwd(g):
        axes = tuple(range(g.ndim - 1))
        return g, g.sum(axis=axes)

    return _wrap(x.data + v.data, (x, v), bwd)


def mul_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Multiply every row of x [..., d] elementwise by a length-d vector."""
    if v.data.shape != (x.data.shape[-1],):
        raise DimensionError(f"mul_rowvec: vector {v.shape} vs rows of {x.shape}")

    def bwd(g):
        axes = tuple(range(g.ndim - 1))
        return (g * v.data if x.requires_grad else None,
                (g * x.data).sum(axis=axes) if v.requires_grad else None)

    return _wrap(x.data * v.data, (x, v), bwd)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes of a matrix or stack."""
    _matrices("transpose", x)
    return _wrap(x.data.swapaxes(-1, -2).copy(), (x,), lambda g: (g.swapaxes(-1, -2),))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = x.data.shape
    return _wrap(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ContractError("concat of zero tensors")
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _wrap(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bwd)


def narrow(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along one axis."""
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def bwd(g):
        full = np.zeros(x.data.shape)
        full[idx] = g
        return (full,)

    return _wrap(x.data[idx].copy(), (x,), bwd)


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor, or of each matrix of a stack by its own row of a
    (B, r) index array; duplicate indices sum in the backward."""
    idx = np.asarray(indices, dtype=np.int64)
    idx = (np.arange(len(idx))[:, None], idx) if idx.ndim == 2 else idx

    def bwd(g):
        full = np.zeros(x.data.shape)
        np.add.at(full, idx, g)
        return (full,)

    return _wrap(x.data[idx], (x,), bwd)


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        out = x.data.sum()

        def bwd(g):
            return (np.broadcast_to(g, x.data.shape).copy(),)

    else:
        out = x.data.sum(axis=axis)

        def bwd(g):
            return (np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy(),)

    return _wrap(out, (x,), bwd)


def window_sum(scores: np.ndarray, weights: Tensor) -> Tensor:
    """out[c, k, j] = sum_n scores[c, n, j, k] * weights[n, j], over constant ``scores``.

    Windows n are added one at a time into one buffer, so there is no
    (clips, K, windows, classes) temporary. Given two or more classes (one
    makes numpy sum the windows and rows pairwise), the value and gradient
    equal ``reduce_sum`` over the stacked product bit for bit, for any strides:
    ``einsum`` adds each window's (c, k) rows in order into a zeroed row, as
    ``sum(axis=(0, 1))`` does at three times the cost, so only which NaN two
    NaNs give may differ. Window-major storage (each
    ``scores[:, n].transpose(0, 2, 1)`` C-contiguous) makes every multiply contiguous.
    """
    if scores.ndim != 4 or weights.data.shape != scores.shape[1:3]:
        raise DimensionError(f"window_sum: weights {weights.shape} vs scores {scores.shape}")
    rows = [scores[:, n].transpose(0, 2, 1) for n in range(scores.shape[1])]  # (clips, K, cls)
    out = np.multiply(rows[0], weights.data[0], out=np.empty(rows[0].shape))
    tmp = np.empty_like(out)
    for r, w in zip(rows[1:], weights.data[1:]):
        out += np.multiply(r, w, out=tmp)
    return _wrap(out, (weights,), lambda g: (np.stack(
        [np.einsum("ckj->j", np.multiply(g, r, out=tmp)) for r in rows]),))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1] if x.data.ndim else 0
    if d == 0:
        raise DimensionError("layer_norm over an empty last axis")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} vs feature dim {d}"
        )
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def bwd(g):
        rows = tuple(range(g.ndim - 1))[-1:]  # a stack's clips sum their own rows
        dgain = (g * xhat).sum(axis=rows)
        dbias = g.sum(axis=rows)
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgain, dbias

    return _wrap(out, (x, gain, bias), bwd)


def _softmax(s: np.ndarray, axis: int) -> np.ndarray:
    """Stabilized softmax along one axis, computed in place in ``s``, which the caller owns."""
    s -= s.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)
    return s


def _softmax_grad(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Gradient through a softmax of output ``y``, computed in place in its gradient ``g``."""
    g -= (g * y).sum(axis=axis, keepdims=True)
    g *= y
    return g


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stabilized softmax along one axis."""
    y = _softmax(x.data.copy(), axis)
    return _wrap(y, (x,), lambda g: (_softmax_grad(y, g.copy(), axis),))


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF form: x * Phi(x)."""
    phi_cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = x.data * phi_cdf

    def bwd(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        return (g * (phi_cdf + x.data * pdf),)

    return _wrap(out, (x,), bwd)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) where z >= 0, else e^z / (1 + e^z), branch-free: one exp of -|z|
    (of z where z >= 0 fails, so a NaN keeps its bits) serves both, each element with
    the bits of its masked branch, +-0, +-inf and NaN included."""
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1.0, e) / (1.0 + e)


def _logit(p: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Inverse sigmoid of p clamped to [eps, 1 - eps]; returns it with the clamped p."""
    q = np.clip(p, eps, 1.0 - eps)
    return np.log(q / (1.0 - q)), q


def logit(x: Tensor, eps: float = 1e-9) -> Tensor:
    """Inverse sigmoid of probabilities, clamped to [eps, 1 - eps].

    The gradient is 1 / (q (1 - q)) inside the clamp and zero where the
    clamp holds.
    """
    out, q = _logit(x.data, eps)
    inside = (x.data > eps) & (x.data < 1.0 - eps)
    return _wrap(out, (x,), lambda g: (np.where(inside, g / (q * (1.0 - q)), 0.0),))


def dropout(x: Tensor, rate: float, rng: RngStream | Sequence[RngStream],
            training: bool) -> Tensor:
    """Zero entries with probability ``rate`` and rescale survivors.

    The mask is a pure function of ``rng``: one stream, or one per clip of a
    stack. Inference mode returns the input unchanged (bit-identical).
    """
    if not _drops(rate, training):
        return x
    mask = _dropout_mask(x.data.shape, rate, rng)
    return _wrap(x.data * mask, (x,), lambda g: (g * mask,))


def _drops(rate: float, training: bool) -> bool:
    """Whether dropout at ``rate`` changes anything; refuses a rate outside [0, 1)."""
    if rate >= 1.0 or rate < 0.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    return training and rate != 0.0


def _dropout_mask(shape: tuple, rate: float, rng: RngStream | Sequence[RngStream]) -> np.ndarray:
    """Survivors 1 / (1 - rate), dropped entries 0; a pure function of ``rng``: one stream,
    or a sequence of one per clip of a (B, ...) stack, each clip's mask its own."""
    if isinstance(rng, RngStream):
        return (rng.generator().random(shape) >= rate) * (1.0 / (1.0 - rate))
    mask = np.empty(shape)
    for out, r in zip(mask, rng):  # each clip's draws fill its slice, then become its mask
        r.generator().random(out=out)
        np.multiply(out >= rate, 1.0 / (1.0 - rate), out=out)
    return mask


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, rate: float,
              rng: RngStream | Sequence[RngStream], training: bool, sink: list | None = None,
              layer: int = 0) -> Tensor:
    """Multi-head dot-product attention of query rows q [m, d] over key/value rows k, v [n, d].

    Head h reads columns [h d/heads, (h + 1) d/heads). Its weights are
    softmax(q_h k_hᵀ), with q already scaled; ``sink`` receives them as
    (layer, h, weights); dropout draws from ``rng.child(0, h)``; the head
    returns weights · v_h. The heads come back side by side, [m, d], as one
    node equal bit for bit to the narrow / transpose / matmul / softmax /
    dropout / concat composition. A stack q [B, m, d], k, v [B, n, d] gives each
    matrix what its own call gives, matrix b drawing from ``rng[b]`` if ``rng``
    holds one stream per clip.

    Each step is one numpy call over every matrix and head, on (B, heads, rows,
    d/heads) views and a (B, heads, d/heads, n) copy of kᵀ, so each 2-D block is
    the composition's own product. It holds one (B, heads, m, n) array per
    product where a loop over heads held one (m, n); the tape keeps the softmax
    output and the mask, not their product.
    """
    _matrices("attention", q, k, v)
    if k.shape != v.shape or q.shape[:-2] != k.shape[:-2] or k.shape[-1] != q.shape[-1]:
        raise DimensionError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}")
    if heads < 1 or q.shape[-1] % heads:
        raise DimensionError(f"attention: {heads} heads do not divide width {q.shape[-1]}")
    drops = _drops(rate, training)
    m, n, dh = q.shape[-2], k.shape[-2], q.shape[-1] // heads

    def split(x: np.ndarray, rows: int) -> np.ndarray:  # (B, heads, rows, dh) view
        return x.reshape(-1, rows, heads, dh).swapaxes(1, 2)

    def join(x: np.ndarray, t: Tensor) -> np.ndarray:
        """(B, heads, rows, dh) blocks as t's C-ordered (..., rows, d), so later row sums
        add in the composition's order; several heads add +0, as its padded sum does."""
        x = np.ascontiguousarray(x.swapaxes(1, 2)).reshape(t.shape)
        if heads > 1:
            x += 0.0
        return x

    qh, vh = split(q.data, m), split(v.data, n)
    kt = split(k.data, n).swapaxes(-1, -2).copy()
    y = _softmax(qh @ kt, -1)
    if sink is not None:
        sink.extend((layer, h, yh.copy()) for yb in y for h, yh in enumerate(yb))
    mask = None
    if drops:  # one mask per (matrix, head), in that order
        streams = [rng] * len(y) if isinstance(rng, RngStream) else rng
        mask = _dropout_mask((len(y) * heads, m, n), rate, [
            r.child(0, h) for r in streams for h in range(heads)]).reshape(y.shape)
    out = np.empty(q.shape)
    np.matmul(y * mask if drops else y, vh, out=split(out, m))

    def bwd(g):
        gh = split(g, m)
        dq = dk = dv = None
        if v.requires_grad:
            dv = join((y if mask is None else y * mask).swapaxes(-1, -2) @ gh, v)
        if q.requires_grad or k.requires_grad:
            dw = gh @ vh.swapaxes(-1, -2)
            if mask is not None:
                dw *= mask
            ds = _softmax_grad(y, dw, -1)
            if q.requires_grad:
                dq = join(ds @ kt.swapaxes(-1, -2), q)
            if k.requires_grad:
                dk = join((qh.swapaxes(-1, -2) @ ds).swapaxes(-1, -2), k)
        return dq, dk, dv

    return _wrap(out, (q, k, v), bwd)


def _focal(x: np.ndarray, t: np.ndarray, alpha: float, gamma: float):
    """Sigmoid focal loss of logits ``x`` against 0/1 targets ``t``.

    Returns the loss with p, -log p, -log(1-p), 1-p, (1-p)^gamma and p^gamma,
    which the gradient reuses; the positive term is alpha * (1-p)^gamma * -log p.
    numpy's ``logaddexp(0, y)`` is ``log1p(exp(y))`` for y < 0, ``y + log1p(exp(-y))``
    for y > 0 and log 2 at +-0, so with ``tail = logaddexp(0, -|x|)`` softplus(+-x)
    is ``tail`` where +-x <= 0, else ``+-x + tail``: bit for bit, NaNs included.
    """
    p = _sigmoid(x)
    tail = np.logaddexp(0.0, np.where(x >= 0, -x, x))  # -|x|, or x itself where x is NaN
    sp_neg = np.where(x >= 0, tail, -(x - tail))  # -log p; -(x - tail) is -x + tail, -x's NaN
    sp_pos = np.where(x <= 0, tail, x + tail)  # softplus(x) = -log (1-p)
    q = 1.0 - p
    q_gamma, p_gamma = np.power(q, gamma), np.power(p, gamma)
    loss = alpha * q_gamma  # t * pos + (1 - t) * neg, built in place
    loss *= sp_neg
    loss *= t
    neg = (1.0 - alpha) * p_gamma
    neg *= sp_pos
    neg *= 1.0 - t
    loss += neg
    return loss, p, sp_neg, sp_pos, q, q_gamma, p_gamma


def focal_from_logits(logits: Tensor, targets, alpha: float, gamma: float) -> Tensor:
    """Elementwise sigmoid focal loss against binary targets.

    targets is a constant 0/1 array of the same shape.
    """
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.data.shape:
        raise DimensionError(f"focal targets {t.shape} vs logits {logits.shape}")
    out, p, sp_neg, sp_pos, q, q_gamma, p_gamma = _focal(logits.data, t, alpha, gamma)

    def bwd(g):
        # g * (t * dpos + (1 - t) * dneg) in place, with
        # dpos = -alpha * (1-p)^gamma * (gamma * p * -log p + (1-p)) and
        # dneg = (1 - alpha) * p^gamma * (gamma * (1-p) * -log(1-p) + p)
        grad = gamma * p
        grad *= sp_neg
        grad += q
        grad *= -alpha * q_gamma
        grad *= t
        dneg = gamma * q
        dneg *= sp_pos
        dneg += p
        dneg *= (1.0 - alpha) * p_gamma
        dneg *= 1.0 - t
        grad += dneg
        grad *= g
        return (grad,)

    return _wrap(out, (logits,), bwd)


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Tensor) -> list:
    """Nodes that need a gradient, parents before children; constants are not walked."""
    order = []
    seen = set()
    stack = [(root, False)] if root.requires_grad else []
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def leaf_gradients(loss: Tensor, seed=None) -> dict:
    """Each parameter leaf's gradient terms, in the order ``backward`` adds them.

    ``seed`` is the gradient of the loss itself, ones by default. No ``.grad`` is written.
    A leaf read by a stack's op gets (B, *leaf shape) terms, one slice per clip.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    grads = {id(loss): [np.ones(loss.data.shape) if seed is None else seed]}  # terms per node
    parts = {}
    for node in reversed(_topo_order(loss)):
        terms = grads.pop(id(node))
        if node._backward is None:  # parameter leaf
            parts[node] = terms
            continue
        for parent, pg in zip(node._parents, node._backward(functools.reduce(np.add, terms))):
            if parent.requires_grad:
                grads.setdefault(id(parent), []).append(pg)
    return parts


def accumulate(parts: Sequence[dict]):
    """Add ``leaf_gradients`` results to ``.grad``, each leaf's terms summed in the order given,
    a stack's clip by clip, then term by term, as one part per clip would add them."""
    terms: dict = {}
    for part in parts:
        for leaf, leaf_terms in part.items():
            if np.ndim(leaf_terms[0]) > leaf.data.ndim:  # a stack's: one slice per clip
                leaf_terms = [t[b] for b in range(len(leaf_terms[0])) for t in leaf_terms]
            terms.setdefault(leaf, []).extend(leaf_terms)
    for leaf, leaf_terms in terms.items():
        g = functools.reduce(np.add, leaf_terms)
        leaf.grad = np.array(g) if leaf.grad is None else leaf.grad + g  # own it: views may alias


def backward(loss: Tensor):
    """Accumulate d(loss)/d(parameter) into every reachable parameter leaf's grad."""
    accumulate([leaf_gradients(loss)])

