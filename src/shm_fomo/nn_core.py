"""Dense transformer layer primitives with explicit backward passes.

All functions operate on plain numpy arrays with shapes (batch, tokens,
features) and return gradient dictionaries keyed by parameter name, so the
whole model stays a flat dict of arrays. Forward passes are deterministic and
dtype-preserving (float32 for training, float64 for gradient checks).

The elementwise steps run in place on arrays the function itself has just
created, in the same operation order as the plain formulas, so results are
bit-identical to them; no function writes into an array it was given or into
one a cache holds, so a cache can go through backward any number of times.
Means are a ``np.add.reduce`` divided in place by the row length:
``ndarray.mean`` divides a float32 sum by an integer count in float64 and
rounds back, which gives the same correctly rounded quotient
(53 >= 2 * 24 + 2 bits) without numpy's Python-level wrapper, whose cost
dominates at the stream's batch-1 shapes.

A cache holds only what its backward reads. What backward can rebuild bit
for bit with two elementwise operations, it rebuilds instead:

- layer norm: ``(xhat, inv)``, the normalized input and 1/std per row;
- GELU: ``(x, c)``, the input and ``erf(x / sqrt 2)``;
- attention: ``(x, q, k, v, attn, ctx, scale)``. Past SCORE_CHUNK
  elements, the softmax runs in place on the fresh score array, and backward
  holds one score-sized array of its own, into which the softmax backward is
  written; both go SCORE_CHUNK elements at a time;
- block: ``(ln1, attn, ln2, gelu)``, the caches of its four sublayers.
  ``block_bwd`` rebuilds the MLP input from the LN2 cache and the GELU
  output from the GELU cache, with the forward's own operations.
"""

from __future__ import annotations

import ctypes
import functools
import math

import numpy as np
from scipy.special import erf

LN_EPS = 1e-6
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD

# elements of a score array one softmax pass covers at a time; bounds the
# temporaries of the row-wise passes, whose rows do not depend on it
SCORE_CHUNK = 1 << 18


def _pin_allocator() -> None:
    """Keep freed activation memory mapped between passes.

    At glibc's defaults each forward and backward pass hands its activations
    back to the kernel and faults them in again on the next pass. Both
    thresholds are set: setting only the trim threshold would also freeze
    the mmap threshold at its 128 KiB start, and every activation above that
    would still be mapped and unmapped per pass. 32 MiB is the ceiling of
    glibc's own dynamic mmap threshold, and glibc keeps the trim threshold at
    twice it. A C library without ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_pin_allocator()


@functools.lru_cache(maxsize=64)
def _const(value: float, dtype: np.dtype) -> np.ndarray:
    """Read-only 0-d array of ``value`` in ``dtype``, built once per pair."""
    c = np.asarray(value, dtype=dtype)
    c.setflags(write=False)
    return c


def linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    y = x @ w
    y += b
    return y


def linear_param_grads(dy: np.ndarray, x: np.ndarray):
    """Returns (dw, db) of ``linear_fwd``, summed over all leading axes."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    return x2.T @ dy2, dy2.sum(axis=0)


def linear_bwd(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Returns (dx, dw, db); sums the parameter gradients over all leading axes."""
    dw, db = linear_param_grads(dy, x)
    dx = (dy.reshape(-1, dy.shape[-1]) @ w.T).reshape(x.shape)
    return dx, dw, db


def layernorm_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    xhat = x - mu
    y = xhat * xhat   # the squares' buffer is reused for the output
    inv = np.add.reduce(y, axis=-1, keepdims=True)   # var, then 1/sqrt(var + eps)
    inv /= n
    inv += _const(LN_EPS, x.dtype)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    return _scale_shift(xhat, g, b, out=y), (xhat, inv)


def _scale_shift(xhat: np.ndarray, g: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Layer norm's output from its cached ``xhat``."""
    y = np.multiply(xhat, g, out=out)
    y += b
    return y


def layernorm_bwd(dy: np.ndarray, cache, g: np.ndarray):
    xhat, inv = cache
    lead = tuple(range(dy.ndim - 1))
    n = dy.shape[-1]
    tmp = dy * xhat
    dg = np.add.reduce(tmp, axis=lead)
    db = np.add.reduce(dy, axis=lead)
    dx = dy * g
    m1 = np.add.reduce(dx, axis=-1, keepdims=True)
    m1 /= n
    np.multiply(dx, xhat, out=tmp)
    m2 = np.add.reduce(tmp, axis=-1, keepdims=True)
    m2 /= n
    np.multiply(xhat, m2, out=tmp)
    dx -= m1
    dx -= tmp
    dx *= inv
    return dx, dg, db


def gelu_fwd(x: np.ndarray):
    c = x * _const(_INV_SQRT2, x.dtype)
    erf(c, out=c)
    return _gelu_out(x, c), (x, c)


def _gelu_out(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """GELU's output from its cache ``(x, c)``."""
    y = 0.5 * x
    y *= 1.0 + c
    return y


def gelu_bwd(dy: np.ndarray, cache):
    x, c = cache
    xpdf = -0.5 * x
    xpdf *= x
    np.exp(xpdf, out=xpdf)
    xpdf *= _const(_INV_SQRT2PI, x.dtype)
    xpdf *= x
    dx = 1.0 + c
    dx *= 0.5
    dx += xpdf
    dx *= dy
    return dx


def softmax_last(x: np.ndarray) -> np.ndarray:
    e = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def softmax_bwd(dy: np.ndarray, a: np.ndarray) -> np.ndarray:
    dx = dy * a
    np.subtract(dy, np.add.reduce(dx, axis=-1, keepdims=True), out=dx)
    dx *= a
    return dx


def _by_rows(fn, a: np.ndarray, *others: np.ndarray) -> np.ndarray:
    """``fn(a, *others)`` for a ``fn`` that works row by row. An ``a`` of
    more than SCORE_CHUNK elements, which must be an array the caller itself
    created, is overwritten with the result, run by run of its leading index,
    each run at most SCORE_CHUNK elements; the result does not depend on
    the runs."""
    if a.size <= SCORE_CHUNK:
        return fn(a, *others)
    step = max(1, SCORE_CHUNK // math.prod(a.shape[1:]))
    for i in range(0, len(a), step):
        s = slice(i, i + step)
        a[s] = fn(a[s], *(o[s] for o in others))
    return a


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, n, d = x.shape
    return x.reshape(b, n, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * dh)


def attention_fwd(x: np.ndarray, p: dict, prefix: str, n_heads: int):
    """Multi-head self-attention over (batch, tokens, dim)."""
    q = _split_heads(linear_fwd(x, p[f"{prefix}.wq"], p[f"{prefix}.bq"]), n_heads)
    k = _split_heads(linear_fwd(x, p[f"{prefix}.wk"], p[f"{prefix}.bk"]), n_heads)
    v = _split_heads(linear_fwd(x, p[f"{prefix}.wv"], p[f"{prefix}.bv"]), n_heads)
    scale = _const(1.0 / math.sqrt(q.shape[-1]), x.dtype)
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= scale
    attn = _by_rows(softmax_last, scores)
    ctx = _merge_heads(attn @ v)
    out = linear_fwd(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])
    return out, (x, q, k, v, attn, ctx, scale)


def attention_bwd(dy: np.ndarray, cache, p: dict, prefix: str, n_heads: int):
    x, q, k, v, attn, ctx, scale = cache
    grads = {}
    dctx, grads[f"{prefix}.wo"], grads[f"{prefix}.bo"] = linear_bwd(
        dy, ctx, p[f"{prefix}.wo"])
    dctx = _split_heads(dctx, n_heads)
    ds = dctx @ v.transpose(0, 1, 3, 2)   # d(attn), then d(scores)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    del dctx
    ds = _by_rows(softmax_bwd, ds, attn)
    ds *= scale
    dq = ds @ k
    dk = ds.transpose(0, 1, 3, 2) @ q
    del ds
    dx = None
    for name, dproj in (("q", dq), ("k", dk), ("v", dv)):
        dxi, dw, db = linear_bwd(_merge_heads(dproj), x, p[f"{prefix}.w{name}"])
        grads[f"{prefix}.w{name}"] = dw
        grads[f"{prefix}.b{name}"] = db
        dx = dxi if dx is None else np.add(dx, dxi, out=dx)
    return dx, grads


def block_fwd(x: np.ndarray, p: dict, prefix: str, n_heads: int):
    """Pre-norm transformer block: x + MHSA(LN(x)), then x + MLP(LN(x))."""
    h1, c_ln1 = layernorm_fwd(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    a_out, c_attn = attention_fwd(h1, p, f"{prefix}.attn", n_heads)
    x2 = a_out
    x2 += x
    h2, c_ln2 = layernorm_fwd(x2, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
    m1 = linear_fwd(h2, p[f"{prefix}.mlp.w1"], p[f"{prefix}.mlp.b1"])
    act, c_gelu = gelu_fwd(m1)
    m2 = linear_fwd(act, p[f"{prefix}.mlp.w2"], p[f"{prefix}.mlp.b2"])
    m2 += x2
    return m2, (c_ln1, c_attn, c_ln2, c_gelu)


def block_bwd(dy: np.ndarray, cache, p: dict, prefix: str, n_heads: int):
    c_ln1, c_attn, c_ln2, c_gelu = cache
    grads = {}
    dact, grads[f"{prefix}.mlp.w2"], grads[f"{prefix}.mlp.b2"] = linear_bwd(
        dy, _gelu_out(*c_gelu), p[f"{prefix}.mlp.w2"])
    dm1 = gelu_bwd(dact, c_gelu)
    del dact
    h2 = _scale_shift(c_ln2[0], p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
    dh2, grads[f"{prefix}.mlp.w1"], grads[f"{prefix}.mlp.b1"] = linear_bwd(
        dm1, h2, p[f"{prefix}.mlp.w1"])
    del dm1, h2
    dx2, grads[f"{prefix}.ln2.g"], grads[f"{prefix}.ln2.b"] = layernorm_bwd(
        dh2, c_ln2, p[f"{prefix}.ln2.g"])
    dx2 += dy
    dh1, attn_grads = attention_bwd(dx2, c_attn, p, f"{prefix}.attn", n_heads)
    grads.update(attn_grads)
    dx, grads[f"{prefix}.ln1.g"], grads[f"{prefix}.ln1.b"] = layernorm_bwd(
        dh1, c_ln1, p[f"{prefix}.ln1.g"])
    dx += dx2
    return dx, grads


def stack_fwd(x: np.ndarray, p: dict, side: str, n_blocks: int, n_heads: int):
    """n_blocks pre-norm blocks followed by a final layer norm."""
    caches = []
    for i in range(n_blocks):
        x, cache = block_fwd(x, p, f"{side}.{i}", n_heads)
        caches.append(cache)
    y, c_norm = layernorm_fwd(x, p[f"{side}.norm.g"], p[f"{side}.norm.b"])
    return y, (caches, c_norm)


def stack_bwd(dy: np.ndarray, cache, p: dict, side: str, n_blocks: int, n_heads: int):
    caches, c_norm = cache
    grads = {}
    dx, grads[f"{side}.norm.g"], grads[f"{side}.norm.b"] = layernorm_bwd(
        dy, c_norm, p[f"{side}.norm.g"])
    for i in reversed(range(n_blocks)):
        dx, block_grads = block_bwd(dx, caches[i], p, f"{side}.{i}", n_heads)
        grads.update(block_grads)
    return dx, grads


def sincos_table_1d(positions: np.ndarray, dim: int) -> np.ndarray:
    """Fixed sinusoidal table: half sine / half cosine channels."""
    assert dim % 2 == 0
    omega = 1.0 / (10000.0 ** (np.arange(dim // 2, dtype=np.float64) / (dim // 2)))
    args = np.outer(positions.astype(np.float64), omega)
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


def sincos_table_2d(grid: int, dim: int) -> np.ndarray:
    """2-D sinusoidal positions for a grid x grid patch layout (row-major)."""
    assert dim % 4 == 0
    rows, cols = np.meshgrid(np.arange(grid), np.arange(grid), indexing="ij")
    row_emb = sincos_table_1d(rows.reshape(-1), dim // 2)
    col_emb = sincos_table_1d(cols.reshape(-1), dim // 2)
    return np.concatenate([row_emb, col_emb], axis=1)
