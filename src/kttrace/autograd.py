"""Reverse-mode automatic differentiation over dense numpy arrays.

The engine is deliberately small: it provides exactly the forward
operations the knowledge-tracing model calls (add, mul, matmul,
plain and weighted embedding lookup, the one-step shift along time,
sigmoid, layer norm, dropout, mean over an axis, causal attention, gate
application and the masked BCE loss), records them on an explicit tape,
and replays the tape once per backward pass (:meth:`Tape.backward`). A
tape node keeps only the arrays its backward reads, never an input
``Tensor``, so an activation no backward needs is freed as soon as the
forward drops it; gradients are routed by the node that produced each
input. Causal attention keeps each query inside its own segment, so
segments packed into one row do not see each other, and runs in query
tiles of at most ``ATTN_TILE`` rows: each tile scores only its causal
key prefix, in the forward and in the backward, so neither pass builds
a [batch, heads, T, T] array and the tape keeps only the tiles'
probabilities. This is the tiling of FlashAttention (Dao et al. 2022)
over queries instead of keys, so each
tile's plain softmax is exact and needs no online rescaling. A test
fails if any public function here goes unused by a gated training step,
so dead ops do not accumulate. Gates are plain all-ones
leaf tensors multiplied into a layer's output, so their gradients can be
read off ``Tensor.grad`` without ever being applied as an update.

Float32 is the working precision; float64 exists for verification
(finite-difference checks are unreliable at 32-bit). Over every finite
float32 input (NumPy 2.4), a float32 ``sigmoid`` is within 6.0e-8
absolute of the exact logistic, and the tests hold it to 1.2e-7. It
steps down once as its input grows, by 2**-25: float32 ``tanh(-1.5)`` is
one unit in the last place too high, so ``sigmoid(-3)`` lies above
``sigmoid`` of the next float32 up.
"""

from __future__ import annotations

import numpy as np

LN_EPS = 1e-5
PROB_CLAMP = 1e-7
MASK_FILL = -1e9  # additive pre-softmax fill; underflows to exactly 0 after exp
ATTN_TILE = 64    # most query rows per causal_attention tile


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class NumericalError(ArithmeticError):
    """A forward operation produced non-finite values."""


class GraphError(RuntimeError):
    """Backward was requested for a loss the tape never produced."""


class Tensor:
    """Dense row-major array with optional gradient tracking.

    A tensor built with ``requires_grad`` owns its gradient from
    construction: ``grad``, when given, is the array it accumulates into
    (a model binds a view of its flat gradient), and zeros of ``data``'s
    shape otherwise. :meth:`Tape.backward` only adds into it, across
    repeated calls, until :meth:`zero_grad` zeroes it in place. ``node``
    is the tape node that produced a non-leaf tensor; a leaf has none.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "node")

    def __init__(self, data, requires_grad=False, name=None, dtype=None, grad=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        if grad is None and self.requires_grad:
            grad = np.zeros_like(arr)
        self.grad = grad
        self.name = name
        self.node = None

    @property
    def is_leaf(self):
        return self.node is None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        if self.grad is not None:   # in place: a model's .grad is a view of its flat gradient
            self.grad[...] = 0

    def item(self):
        return float(self.data.item())

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"


def _as_tensor(x, dtype=None):
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=dtype)


def _check_finite(op, arr):
    if not np.isfinite(arr).all():
        raise NumericalError(f"{op}: non-finite values in output")


def _reduce_to(grad, shape):
    """Sum a gradient down to ``shape`` (undo numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class _Node:
    """One recorded op: ``bwd`` maps the output's gradient to one gradient
    (or ``None``) per input, and ``sources`` says where each one goes: the
    leaf ``Tensor`` whose ``.grad`` accumulates it, the ``_Node`` that
    produced a non-leaf input, or ``None`` for an input that needs none."""

    __slots__ = ("sources", "bwd")

    def __init__(self, sources, bwd):
        self.sources = sources
        self.bwd = bwd


_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of executed operations for one reverse pass.

    Operations executed inside a ``with tape:`` block are appended in
    execution order, which is by construction a topological order; a
    backward pass walks the list once in reverse. Tapes are confined to a
    single worker; tensor values may be shared read-only once the tape is
    dropped.
    """

    def __init__(self):
        self._nodes = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self
        return False

    def backward(self, loss):
        """Run one reverse pass from a scalar loss, adding each leaf's
        gradient into its ``Tensor.grad`` in place; a leaf off the path to
        the loss is left as it was. Returns nothing."""
        if not isinstance(loss, Tensor) or loss.data.size != 1:
            shape = getattr(loss, "shape", None)
            raise GraphError(f"backward requires a scalar loss, got shape {shape}")
        if loss.node is None or loss.node not in self._nodes:
            raise GraphError("loss was not produced on this tape (detached graph)")
        # keyed by producing node; the nodes stay in _nodes, so their ids are stable
        flow = {id(loss.node): np.ones_like(loss.data)}
        for node in reversed(self._nodes):
            g = flow.pop(id(node), None)
            if g is None:
                continue
            for src, gi in zip(node.sources, node.bwd(g)):
                if gi is None or src is None:
                    continue
                if isinstance(src, Tensor):
                    src.grad += gi
                else:
                    prev = flow.get(id(src))
                    flow[id(src)] = gi if prev is None else prev + gi


def _record(out, inputs, bwd):
    """Put ``out`` on the active tape when an input needs a gradient.

    ``bwd`` must capture only the arrays it reads, never an input tensor,
    or the tape would keep every input alive until the backward ends.
    """
    if not _TAPES or not any(t.requires_grad for t in inputs):
        return out
    # a leaf's gradient goes to its .grad, a non-leaf's to the node that made it
    sources = tuple((t.node or t) if t.requires_grad else None for t in inputs)
    out.requires_grad = True
    out.node = _Node(sources, bwd)
    _TAPES[-1]._nodes.append(out.node)
    return out


# ---------------------------------------------------------------------------
# forward operations


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None
    _check_finite("add", data)
    out = Tensor(data)
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _reduce_to(g, a_shape), _reduce_to(g, b_shape)

    return _record(out, (a, b), bwd)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None
    _check_finite("mul", data)
    out = Tensor(data)
    # each operand is kept only if the other one's gradient reads it; an
    # operand that needs no gradient (a constant mask) gets none
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def bwd(g):
        return (None if b_data is None else _reduce_to(g * b_data, a_shape),
                None if a_data is None else _reduce_to(g * a_data, b_shape))

    return _record(out, (a, b), bwd)


def matmul(a, b, transpose_b=False):
    """``a @ b``, or ``a @ b.T`` when ``transpose_b``.

    ``b`` is a 2-D weight shared across the leading axes of ``a``, which
    is at least 2-D.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError(f"matmul: a must be at least 2-D and b 2-D, "
                         f"got {a.shape} and {b.shape}")
    b_eff = b.data.T if transpose_b else b.data
    if a.shape[-1] != b_eff.shape[0]:
        raise ShapeError(f"matmul: inner dimensions of {a.shape} and {b.shape} do not match"
                         + (" (transpose_b)" if transpose_b else ""))
    with np.errstate(over="ignore", invalid="ignore"):
        data = np.matmul(a.data, b_eff)
    _check_finite("matmul", data)
    out = Tensor(data)
    a2 = a.data.reshape(-1, a.shape[-1]) if b.requires_grad else None

    def bwd(g):
        ga = np.matmul(g, b_eff.T)
        if a2 is None:   # the weight needs no gradient
            return ga, None
        g2 = g.reshape(-1, g.shape[-1])
        gb = g2.T @ a2 if transpose_b else a2.T @ g2
        return ga, gb

    return _record(out, (a, b), bwd)


def embedding_lookup(table, ids, weights=None):
    """Gather ``table[ids]``; with ``weights`` of ``ids``' shape, each
    gathered row is scaled by its weight."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding_lookup: index out of range [0, {table.shape[0]}), "
            f"got min={ids.min()} max={ids.max()}")
    data = table.data[ids]
    if weights is not None:
        weights = np.asarray(weights, dtype=table.dtype)[..., None]
        if weights.shape[:-1] != ids.shape:
            raise ShapeError(f"embedding_lookup: weights {weights.shape[:-1]} must "
                             f"match ids {ids.shape}")
        data *= weights
    out = Tensor(data)
    shape, dtype = table.shape, table.dtype

    def bwd(g):
        if weights is not None:
            g = g * weights
        # sort the rows of g by id, stably, and sum each id's run in one pass
        order = np.argsort(ids, axis=None, kind="stable")
        rows, starts = np.unique(ids.reshape(-1)[order], return_index=True)
        gt = np.zeros(shape, dtype=dtype)
        gt[rows] = np.add.reduceat(g.reshape(-1, shape[1])[order], starts, axis=0)
        return (gt,)

    return _record(out, (table,), bwd)


def next_step(x):
    """Shift ``x`` one step back along axis 1: ``out[:, t] = x[:, t+1]``.

    The last step, which has no successor, is zero.
    """
    x = _as_tensor(x)
    data = np.zeros_like(x.data)
    data[:, :-1] = x.data[:, 1:]
    out = Tensor(data)

    def bwd(g):
        gx = np.zeros_like(g)
        gx[:, 1:] = g[:, :-1]
        return (gx,)

    return _record(out, (x,), bwd)


def sigmoid(x):
    """``1/(1+exp(-x))`` as ``0.5 + 0.5*tanh(x/2)``, in ``x``'s dtype.

    tanh saturates to +-1 instead of overflowing, so no input needs a
    separate branch.
    """
    x = _as_tensor(x)
    data = np.tanh(x.data * 0.5)
    data *= 0.5
    data += 0.5
    _check_finite("sigmoid", data)
    out = Tensor(data)

    def bwd(g):
        gx = 1.0 - data
        gx *= data
        gx *= g
        return (gx,)

    return _record(out, (x,), bwd)


def layer_norm(x, gain, bias, eps=LN_EPS):
    """Normalize the last axis to zero mean / unit variance, then affine.

    A constant row has zero variance; with the epsilon inside the square
    root its normalized output is exactly zero rather than a blow-up.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    width = x.shape[-1]
    if gain.shape != (width,) or bias.shape != (width,):
        raise ShapeError(f"layer_norm: gain/bias {gain.shape}/{bias.shape} "
                         f"must match feature width {width}")
    # np.add.reduce(...) / width is what ndarray.mean computes, bit for bit,
    # without its Python-level dispatch
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / width
    centered = x.data - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / width
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    data = xhat * gain.data + bias.data
    _check_finite("layer_norm", data)
    out = Tensor(data)
    gamma = gain.data

    def bwd(g):
        dxhat = g * gamma
        dx = inv * (dxhat
                    - np.add.reduce(dxhat, axis=-1, keepdims=True) / width
                    - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / width))
        dgain = _reduce_to(g * xhat, gamma.shape)
        dbias = _reduce_to(g, gamma.shape)
        return dx, dgain, dbias

    return _record(out, (x, gain, bias), bwd)


def dropout(x, p, rng):
    """Inverted dropout: zero units with probability ``p``, scale the rest
    by 1/(1-p).

    At ``p == 0`` it returns ``x`` itself, so evaluation needs no
    correction. ``rng`` must be a seeded numpy Generator; the drawn mask
    is what makes two same-seed runs bit-identical.
    """
    x = _as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: a rate above 0 needs a seeded rng")
    # the tape keeps the one-byte mask; both passes rebuild the same factors
    kept = rng.random(x.shape) >= p
    dtype = x.dtype.type

    def factors():
        return kept.astype(dtype) / dtype(1.0 - p)

    out = Tensor(x.data * factors())

    def bwd(g):
        return (g * factors(),)

    return _record(out, (x,), bwd)


def mean_over_axis(x, axis):
    x = _as_tensor(x)
    n = x.shape[axis]
    data = x.data.mean(axis=axis)
    _check_finite("mean_over_axis", data)
    out = Tensor(data)
    shape = x.shape

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape) / n,)

    return _record(out, (x,), bwd)


def causal_attention(q, k, v, n_head, starts=None):
    """Multi-head scaled dot-product attention inside causal segments.

    Inputs are [batch, time, d_model]; ``starts`` [batch, time] gives the
    column where each position's segment begins (all zero by default), and
    position t attends to keys ``[starts[t], t]`` only, itself included,
    so several segments can share a row without seeing each other. The
    queries are cut into ``ceil(T / ATTN_TILE)`` equal tiles (the last may
    be shorter). Tile ``[s, e)`` scores only keys ``[0, e)``, its whole
    causal prefix, so a plain softmax per tile is exact. Keys past each
    query get a large negative constant, added to the tile's diagonal
    block only; a tile in which some query's segment starts after column
    0 adds it over all its keys instead, to the keys before that start as
    well. The constant underflows to exactly zero probability, so
    gradients through masked keys are exactly zero too. The tape keeps
    the tiles' probabilities, sum(tile * e) cells instead of T*T (62.5 %
    at T = 200); the backward walks the same tiles, so no array of
    [B, H, T, T] cells is ever built.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if not (q.shape == k.shape == v.shape) or q.ndim != 3:
        raise ShapeError(f"causal_attention: q/k/v must share a [B,T,D] shape, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    B, T, D = q.shape
    if D % n_head != 0:
        raise ShapeError(f"causal_attention: d_model {D} not divisible by n_head {n_head}")
    if starts is not None and np.shape(starts) != (B, T):
        raise ShapeError(f"causal_attention: starts {np.shape(starts)} must be [B, T] = "
                         f"{(B, T)}")
    dh = D // n_head
    # a float64 scalar would promote float32 scores to float64
    scale = q.dtype.type(1.0 / np.sqrt(dh))
    n_tiles = -(-T // ATTN_TILE)
    size = -(-T // n_tiles)   # ceil(T / n_tiles) rows, so the tiles are near equal
    tiles = [(s, min(s + size, T)) for s in range(0, T, size)]
    mask = np.triu(np.full((size, size), MASK_FILL, dtype=q.dtype), k=1)

    def heads(x):   # a [B, H, T, dh] view of a [B, T, D] array
        return x.reshape(B, T, n_head, dh).transpose(0, 2, 1, 3)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    data = np.empty((B, T, D), dtype=q.dtype)
    ctx = heads(data)
    probs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for s, e in tiles:
            # a tile's scores become its probabilities in place
            p = np.matmul(qh[:, :, s:e], np.swapaxes(kh[:, :, :e], -1, -2))
            p *= scale
            if starts is not None and starts[:, s:e].any():
                keys = np.arange(e)
                outside = (keys < starts[:, s:e, None]) | (keys > np.arange(s, e)[:, None])
                p += np.where(outside, q.dtype.type(MASK_FILL), 0)[:, None]
            else:
                p[..., s:] += mask[:e - s, :e - s]
            p -= p.max(axis=-1, keepdims=True)
            np.exp(p, out=p)
            p /= p.sum(axis=-1, keepdims=True)
            np.matmul(p, vh[:, :, :e], out=ctx[:, :, s:e])
            probs.append(p)
    _check_finite("causal_attention", data)
    out = Tensor(data)

    def bwd(g):
        go = heads(g)
        # sum_j dP_ij P_ij = go_i . ctx_i, since dP_ij = go_i . v_j; ctx is
        # a view of the output, which the output projection keeps anyway
        inner = np.einsum("bhtd,bhtd->bht", go, ctx)[..., None]
        gq, gk, gv = (np.empty((B, T, D), dtype=g.dtype) for _ in range(3))
        gqh, gkh, gvh = heads(gq), heads(gk), heads(gv)
        # last tile first: it reaches every key, so it sets gk and gv, and
        # each earlier tile adds into its key prefix
        for (s, e), p in reversed(list(zip(tiles, probs))):
            gs = go[:, :, s:e]
            g_scores = np.matmul(gs, np.swapaxes(vh[:, :, :e], -1, -2))
            g_scores -= inner[:, :, s:e]
            g_scores *= p   # now the gradient of the scaled scores
            np.matmul(g_scores, kh[:, :, :e], out=gqh[:, :, s:e])
            if e == T:
                np.matmul(np.swapaxes(p, -1, -2), gs, out=gvh)
                np.matmul(np.swapaxes(g_scores, -1, -2), qh[:, :, s:e], out=gkh)
            else:
                gvh[:, :, :e] += np.matmul(np.swapaxes(p, -1, -2), gs)
                gkh[:, :, :e] += np.matmul(np.swapaxes(g_scores, -1, -2), qh[:, :, s:e])
        gq *= scale
        gk *= scale
        return gq, gk, gv

    return _record(out, (q, k, v), bwd)


def gate_apply(layer_output, gate):
    """Multiply a [*, width] layer output by an all-ones gate tensor.

    Numerically the identity; its purpose is putting the gate, a leaf
    with ``requires_grad``, on the tape so backward leaves
    d(loss)/d(gate) per output unit in ``gate.grad``.
    """
    x = _as_tensor(layer_output)
    if gate.shape[-1] != x.shape[-1]:
        raise ShapeError(f"gate_apply: gate width {gate.shape[-1]} does not match "
                         f"output feature width {x.shape[-1]}")
    if not np.all(gate.data == 1.0):
        raise ValueError("gate_apply: gate values must all be 1")
    return mul(x, gate)


def bce_loss(probs, targets, mask, total=None):
    """Masked binary cross-entropy over probabilities, summed and divided
    by ``total``.

    Probabilities are clamped to [1e-7, 1-1e-7] before the logs. By
    default ``total`` is the mask's sum, the mean over unmasked elements;
    a batch run in parts passes the whole batch's count to every part, so
    the parts' losses and gradients add up to the whole batch's.
    """
    probs = _as_tensor(probs)
    t = np.asarray(targets.data if isinstance(targets, Tensor) else targets,
                   dtype=probs.dtype)
    m = np.asarray(mask.data if isinstance(mask, Tensor) else mask, dtype=probs.dtype)
    if t.shape != probs.shape or m.shape != probs.shape:
        raise ShapeError(f"bce_loss: probs {probs.shape}, targets {t.shape}, "
                         f"mask {m.shape} must share one shape")
    scored = m.sum()
    if total is None:
        if scored == 0:
            raise ValueError("bce_loss: all elements masked out")
        total = scored
    elif not (total > 0 and total >= scored):
        raise ValueError(f"bce_loss: total must be positive and at least the mask's "
                         f"sum {scored:g}, got {total!r}")
    total = probs.dtype.type(total)
    lo, hi = PROB_CLAMP, 1.0 - PROB_CLAMP
    pc = np.clip(probs.data, lo, hi)
    per = t * np.log(pc) + (1.0 - t) * np.log1p(-pc)
    data = np.asarray(-(m * per).sum() / total, dtype=probs.dtype)
    _check_finite("bce_loss", data)
    out = Tensor(data)
    p = probs.data

    def bwd(g):
        inside = ((p >= lo) & (p <= hi)).astype(p.dtype)
        dp = m * (pc - t) / (pc * (1.0 - pc)) / total * inside
        return (g * dp,)

    return _record(out, (probs,), bwd)
