"""Reverse-mode automatic differentiation over dense float64 tensors.

The graph is recorded dynamically: every operation returns a new Tensor
holding its parents and a closure that maps the upstream gradient to
parent gradients. ``backward`` walks the recorded graph once, in reverse
topological order, accumulating gradients on leaves. Parameters wrap a
leaf tensor whose gradient buffer persists across backward calls, so
repeated backward passes accumulate until ``zero_grad``.

Tensors are immutable values (the underlying numpy buffer is marked
read-only) and safe to share across threads; a recorded graph belongs to
the single thread that built it.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ContractError, DimensionError
from .rng import RngStream

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (inference paths)."""
    prev = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class Tensor:
    """Dense float64 array with optional gradient tape bookkeeping.

    ``data`` is a C-contiguous (row-major) read-only numpy array. ``grad``
    is populated by ``backward`` and is writable.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C")
        arr.setflags(write=False)
        self.data = arr
        self.grad = None
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


def _wrap(arr: np.ndarray, parents: tuple = (), backward: Callable | None = None) -> Tensor:
    # Fast path for operation outputs: we own ``arr``, no defensive copy.
    t = Tensor.__new__(Tensor)
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    t.data = arr
    t.grad = None
    if parents and _grad_enabled():
        t._parents = parents
        t._backward = backward
    else:
        t._parents = ()
        t._backward = None
    return t


def tensor(data) -> Tensor:
    """Create a leaf tensor from array-like data."""
    return Tensor(data)


class Parameter:
    """Named trainable leaf with a persistent gradient buffer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, data):
        self.name = name
        self.value = Tensor(data)

    @property
    def shape(self) -> tuple:
        return self.value.shape

    @property
    def grad(self) -> np.ndarray:
        if self.value.grad is None:
            return np.zeros(self.value.shape)
        return self.value.grad

    @property
    def gradient(self) -> Tensor:
        return Tensor(self.grad)

    def zero_grad(self):
        self.value.grad = None

    def assign(self, data):
        """Replace the value with a fresh leaf (clears the gradient)."""
        new = Tensor(data)
        if new.shape != self.value.shape:
            raise DimensionError(
                f"parameter {self.name}: assign shape {new.shape} != {self.value.shape}"
            )
        self.value = new

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.shape})"


# ---------------------------------------------------------------------------
# operations


def _check_2d(a: Tensor, b: Tensor, op: str):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"{op} expects 2-D tensors, got {a.shape} and {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [m,k] and b [k,n]."""
    _check_2d(a, b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return _wrap(out, (a, b), bwd)


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
        return g * v.data, (g * x.data).sum(axis=axes)

    return _wrap(x.data * v.data, (x, v), bwd)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError(f"transpose expects a 2-D tensor, got {x.shape}")
    return _wrap(x.data.T.copy(), (x,), lambda g: (g.T,))


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
    """Select rows of a 2-D tensor; duplicate indices sum in the backward."""
    idx = np.asarray(indices, dtype=np.int64)

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
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead)
        dbias = g.sum(axis=lead)
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgain, dbias

    return _wrap(out, (x, gain, bias), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stabilized softmax along one axis."""
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _wrap(y, (x,), bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF form: x * Phi(x)."""
    phi_cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = x.data * phi_cdf

    def bwd(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        return (g * (phi_cdf + x.data * pdf),)

    return _wrap(out, (x,), bwd)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    return _wrap(y, (x,), lambda g: (g * y * (1.0 - y),))


def dropout(x: Tensor, rate: float, rng: RngStream, training: bool) -> Tensor:
    """Zero entries with probability ``rate`` and rescale survivors.

    The mask is a pure function of ``rng``. Inference mode returns the
    input unchanged (bit-identical).
    """
    if rate >= 1.0 or rate < 0.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.generator().random(x.data.shape) >= rate) / keep
    return _wrap(x.data * mask, (x,), lambda g: (g * mask,))


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _focal(x: np.ndarray, t: np.ndarray, alpha: float, gamma: float):
    """Sigmoid focal loss of logits ``x`` against 0/1 targets ``t``.

    Returns the loss with p, -log p and -log(1-p), which the gradient
    reuses. Stable at extreme logits through softplus; the positive term
    is alpha * (1-p)^gamma * -log p.
    """
    p = _sigmoid(x)
    sp_neg = _softplus(-x)  # -log p
    sp_pos = _softplus(x)  # -log (1-p)
    pos = alpha * np.power(1.0 - p, gamma) * sp_neg
    neg = (1.0 - alpha) * np.power(p, gamma) * sp_pos
    return t * pos + (1.0 - t) * neg, p, sp_neg, sp_pos


def focal_from_logits(logits: Tensor, targets, alpha: float, gamma: float) -> Tensor:
    """Elementwise sigmoid focal loss against binary targets.

    targets is a constant 0/1 array of the same shape.
    """
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.data.shape:
        raise DimensionError(f"focal targets {t.shape} vs logits {logits.shape}")
    out, p, sp_neg, sp_pos = _focal(logits.data, t, alpha, gamma)

    def bwd(g):
        dpos = -alpha * np.power(1.0 - p, gamma) * (gamma * p * sp_neg + (1.0 - p))
        dneg = (1.0 - alpha) * np.power(p, gamma) * (gamma * (1.0 - p) * sp_pos + p)
        return (g * (t * dpos + (1.0 - t) * dneg),)

    return _wrap(out, (logits,), bwd)


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Tensor) -> list:
    order = []
    seen = set()
    stack = [(root, False)]
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
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into every reachable leaf's grad buffer."""
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    loss.grad = np.ones(loss.data.shape)
    for node in reversed(order):
        if node._backward is None:
            continue
        grads = node._backward(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None:
                continue
            if parent.grad is None:
                parent.grad = np.array(g, dtype=np.float64)
            else:
                np.add(parent.grad, g, out=parent.grad)


# ---------------------------------------------------------------------------
# gradient verification


class GradCheckReport:
    """Per-parameter maximum relative error between tape and central differences."""

    def __init__(self, max_rel_err: dict[str, float], tol: float):
        self.max_rel_err = max_rel_err
        self.tol = tol

    @property
    def failures(self) -> list[str]:
        return [n for n, e in self.max_rel_err.items() if e > self.tol]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def worst(self) -> float:
        return max(self.max_rel_err.values(), default=0.0)

    def __repr__(self):
        return f"GradCheckReport(worst={self.worst:.3e}, failures={self.failures})"


def grad_check(
    f: Callable[[], Tensor],
    params: Iterable[Parameter],
    step: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare tape gradients of a scalar function against central differences.

    Relative error uses a scale floor of 1e-3 so that finite-difference
    noise on near-zero entries does not register as failure.
    """
    if step <= 0:
        raise ConfigError(f"grad_check step must be positive, got {step}")
    params = list(params)
    for p in params:
        p.zero_grad()
    backward(f())
    analytic = {p.name: p.grad.copy() for p in params}

    report = {}
    for p in params:
        base = p.value.data.copy()
        numeric = np.zeros_like(base)
        flat = base.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            p.assign(base)
            f_plus = f().item()
            flat[i] = saved - step
            p.assign(base)
            f_minus = f().item()
            flat[i] = saved
            num_flat[i] = (f_plus - f_minus) / (2.0 * step)
        p.assign(base)
        a = analytic[p.name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-3)
        report[p.name] = float(np.max(np.abs(a - numeric) / denom)) if a.size else 0.0
    return GradCheckReport(report, tol)
