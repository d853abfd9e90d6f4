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
for bit with the forward's own operations, at the cost of two elementwise
operations or, for the GELU input, one product, it rebuilds instead:

- layer norm: ``(xhat, inv)``, the normalized input and 1/std per row;
- GELU: ``(x, c)``, the input and ``1 + erf(x / sqrt 2)``, which both the
  output and the derivative read;
- attention: ``(x, q, k, v, attn, ctx, scale)``. The score work (q·kᵀ,
  scale, softmax, ·v, and their backward) goes over runs of the leading
  window axis, each at most SCORE_CHUNK score elements or one window.
  When all scores fit one run, ``attn`` holds the probabilities. Otherwise
  it is None, and backward recomputes each run's probabilities with the
  forward's own calls just before it reads them, so no score array of the
  whole batch exists in forward or backward;
- block: ``(ln1, attn, ln2, c)``: the two layer-norm caches, the attention
  cache without its input, and GELU's ``c``. ``block_bwd`` rebuilds the
  attention input from the LN1 cache and the MLP input from the LN2 cache
  (two elementwise operations each), the GELU input from the MLP input
  (the fc1 product, one more GEMM per block) and the GELU output from the
  GELU input and ``c``.

GELU's ``erf`` is scipy's own ufunc, loaded from the one compiled module of
``scipy.special`` that defines it: importing the whole package cost every
process about 20 MB and 0.2-0.3 s of start-up for this one ufunc.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

LN_EPS = 1e-6
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD

# attention score elements one run of windows covers; bounds the score-sized
# arrays of forward and backward, whose values do not depend on it
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

    It also leaves 16 free blocks of each size to 1 KiB, 16 bytes apart as
    glibc's small bins are, below any activation, kept apart by blocks that
    are never freed. A small request that finds no free block of its size is
    split off a large free run, which during a pass is a freed activation,
    and numpy keeps freed data blocks under 1 KiB for reuse. A run split that
    way may no longer fit a later pass's array, and the heap then grows into
    fresh pages.
    """
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc, free = libc.mallopt, libc.malloc, libc.free
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    malloc.argtypes = [ctypes.c_size_t]
    malloc.restype = ctypes.c_void_p
    free.argtypes = [ctypes.c_void_p]
    free.restype = None
    blocks = [malloc(m) for n in range(16, 1025, 16) for _ in range(16) for m in (n, 16)]
    for block in blocks[::2]:
        free(block)


_pin_allocator()


def _load_erf(special_dir: str) -> np.ufunc:
    """scipy's ``erf`` ufunc, from ``special_dir``'s ``_special_ufuncs``
    extension when it is there, not yet loaded and defines it, else from
    ``scipy.special``.

    It is the very object ``scipy.special.erf`` binds, so the same compiled
    loops run. The module's ``sys.modules`` entry is dropped once ``erf`` is
    bound: a later ``import scipy.special`` must import the module itself,
    which also binds it as the package attribute ``errstate`` and ``seterr``
    read.
    """
    name = "scipy.special._special_ufuncs"
    finder = importlib.machinery.FileFinder(
        special_dir,
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is not None and name not in sys.modules:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(name, None)
        erf = getattr(module, "erf", None)
        if isinstance(erf, np.ufunc):
            return erf
    from scipy.special import erf
    return erf


erf = _load_erf(os.path.join(
    importlib.util.find_spec("scipy").submodule_search_locations[0], "special"))


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
    c += 1.0
    return _gelu_out(x, c), (x, c)


def _gelu_out(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """GELU's output from its cache ``(x, c)``."""
    y = 0.5 * x
    y *= c
    return y


def gelu_bwd(dy: np.ndarray, cache):
    x, c = cache
    xpdf = -0.5 * x
    xpdf *= x
    np.exp(xpdf, out=xpdf)
    xpdf *= _const(_INV_SQRT2PI, x.dtype)
    xpdf *= x
    dx = 0.5 * c
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


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, n, d = x.shape
    return x.reshape(b, n, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _runs(q: np.ndarray) -> list[slice]:
    """Runs of the window axis of q (window, head, token, width) whose
    scores hold at most SCORE_CHUNK elements, or one window each."""
    b, h, n, _ = q.shape
    step = max(1, SCORE_CHUNK // (h * n * n))
    return [slice(i, i + step) for i in range(0, b, step)]


def _probs(q: np.ndarray, k: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Attention probabilities of one run of windows."""
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= scale
    return softmax_last(scores)


def attention_fwd(x: np.ndarray, p: dict, prefix: str, n_heads: int):
    """Multi-head self-attention over (batch, tokens, dim)."""
    q = _split_heads(linear_fwd(x, p[f"{prefix}.wq"], p[f"{prefix}.bq"]), n_heads)
    k = _split_heads(linear_fwd(x, p[f"{prefix}.wk"], p[f"{prefix}.bk"]), n_heads)
    v = _split_heads(linear_fwd(x, p[f"{prefix}.wv"], p[f"{prefix}.bv"]), n_heads)
    scale = _const(1.0 / math.sqrt(q.shape[-1]), x.dtype)
    ctx = np.empty(x.shape[:-1] + (p[f"{prefix}.wo"].shape[0],), x.dtype)
    ctx4 = _split_heads(ctx, n_heads)
    runs = _runs(q)
    for s in runs:
        attn = _probs(q[s], k[s], scale)
        ctx4[s] = attn @ v[s]
    if len(runs) != 1:   # backward recomputes them
        attn = None
    out = linear_fwd(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])
    return out, (x, q, k, v, attn, ctx, scale)


def attention_bwd(dy: np.ndarray, cache, p: dict, prefix: str, n_heads: int):
    x, q, k, v, attn, ctx, scale = cache
    grads = {}
    # dctx's buffer becomes dq: each run's dq goes over the dctx it has read
    dq, grads[f"{prefix}.wo"], grads[f"{prefix}.bo"] = linear_bwd(
        dy, ctx, p[f"{prefix}.wo"])
    dk, dv = np.empty_like(dq), np.empty_like(dq)
    dctx = dq4 = _split_heads(dq, n_heads)
    dk4, dv4 = _split_heads(dk, n_heads), _split_heads(dv, n_heads)
    for s in _runs(q):
        a = _probs(q[s], k[s], scale) if attn is None else attn
        ds = dctx[s] @ v[s].transpose(0, 1, 3, 2)   # d(attn), then d(scores)
        dv4[s] = a.transpose(0, 1, 3, 2) @ dctx[s]
        ds = softmax_bwd(ds, a)
        del a
        ds *= scale
        dq4[s] = ds @ k[s]
        dk4[s] = ds.transpose(0, 1, 3, 2) @ q[s]
        del ds
    dx = None
    for name, dproj in (("q", dq), ("k", dk), ("v", dv)):
        dxi, dw, db = linear_bwd(dproj, x, p[f"{prefix}.w{name}"])
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
    act, (_, c) = gelu_fwd(m1)
    m2 = linear_fwd(act, p[f"{prefix}.mlp.w2"], p[f"{prefix}.mlp.b2"])
    m2 += x2
    return m2, (c_ln1, c_attn[1:], c_ln2, c)


def block_bwd(dy: np.ndarray, cache, p: dict, prefix: str, n_heads: int):
    c_ln1, c_attn, c_ln2, c = cache
    grads = {}
    h2 = _scale_shift(c_ln2[0], p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
    m1 = linear_fwd(h2, p[f"{prefix}.mlp.w1"], p[f"{prefix}.mlp.b1"])
    dact, grads[f"{prefix}.mlp.w2"], grads[f"{prefix}.mlp.b2"] = linear_bwd(
        dy, _gelu_out(m1, c), p[f"{prefix}.mlp.w2"])
    dm1 = gelu_bwd(dact, (m1, c))
    del dact, m1
    dh2, grads[f"{prefix}.mlp.w1"], grads[f"{prefix}.mlp.b1"] = linear_bwd(
        dm1, h2, p[f"{prefix}.mlp.w1"])
    del dm1, h2
    dx2, grads[f"{prefix}.ln2.g"], grads[f"{prefix}.ln2.b"] = layernorm_bwd(
        dh2, c_ln2, p[f"{prefix}.ln2.g"])
    dx2 += dy
    h1 = _scale_shift(c_ln1[0], p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    dh1, attn_grads = attention_bwd(dx2, (h1,) + c_attn, p, f"{prefix}.attn", n_heads)
    del h1
    grads.update(attn_grads)
    dx, grads[f"{prefix}.ln1.g"], grads[f"{prefix}.ln1.b"] = layernorm_bwd(
        dh1, c_ln1, p[f"{prefix}.ln1.g"])
    dx += dx2
    return dx, grads


def stack_fwd(x: np.ndarray, p: dict, side: str, n_blocks: int, n_heads: int,
              keep_cache: bool = True):
    """n_blocks pre-norm blocks followed by a final layer norm. Without
    ``keep_cache`` the cache is None: each block's activations, which only
    backward reads, are dropped before the next block starts."""
    caches = []
    for i in range(n_blocks):
        x, cache = block_fwd(x, p, f"{side}.{i}", n_heads)
        if keep_cache:
            caches.append(cache)
        del cache
    y, c_norm = layernorm_fwd(x, p[f"{side}.norm.g"], p[f"{side}.norm.b"])
    return y, ((caches, c_norm) if keep_cache else None)


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
