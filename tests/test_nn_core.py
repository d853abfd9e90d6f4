"""Finite-difference gradient oracle for the hand-written backward passes,
and bit-for-bit checks of every primitive against reference formulas.

The gradchecks run in float64 with central differences. The reference
functions below are the plain textbook formulas, one fresh array per
operation; ``nn_core`` reuses buffers it owns, and must agree with them
exactly on outputs, caches and gradients, in float32 and float64, without
writing into any array it was given.
"""

import copy
import ctypes
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erf

from shm_fomo import mae_model, nn_core
from shm_fomo.mae_model import ModelConfig

FD_EPS = 1e-6
FD_RTOL = 1e-5
FD_ATOL = 1e-8

DIM = 8
HEADS = 2
HIDDEN = 16


# ---------------------------------------------------------------------------
# reference formulas


def ref_linear_fwd(x, w, b):
    return x @ w + b


def ref_linear_bwd(dy, x, w):
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    return (dy2 @ w.T).reshape(x.shape), x2.T @ dy2, dy2.sum(axis=0)


def ref_layernorm_fwd(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(nn_core.LN_EPS, dtype=x.dtype))
    xhat = xc * inv
    return xhat * g + b, (xhat, inv)


def ref_layernorm_bwd(dy, cache, g):
    xhat, inv = cache
    lead = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axis=lead)
    db = dy.sum(axis=lead)
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dg, db


def ref_gelu_fwd(x):
    c = erf(x * np.asarray(1.0 / np.sqrt(2.0), dtype=x.dtype))
    return 0.5 * x * (1.0 + c), (x, c)


def ref_gelu_bwd(dy, cache):
    x, c = cache
    pdf = np.exp(-0.5 * x * x) * np.asarray(1.0 / np.sqrt(2.0 * np.pi), dtype=x.dtype)
    return dy * (0.5 * (1.0 + c) + x * pdf)


def ref_softmax_last(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def ref_softmax_bwd(dy, a):
    return a * (dy - (dy * a).sum(axis=-1, keepdims=True))


def _split(x, n_heads):
    b, n, d = x.shape
    return x.reshape(b, n, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge(x):
    b, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * dh)


def ref_attention_fwd(x, p, prefix, n_heads):
    q = _split(ref_linear_fwd(x, p[f"{prefix}.wq"], p[f"{prefix}.bq"]), n_heads)
    k = _split(ref_linear_fwd(x, p[f"{prefix}.wk"], p[f"{prefix}.bk"]), n_heads)
    v = _split(ref_linear_fwd(x, p[f"{prefix}.wv"], p[f"{prefix}.bv"]), n_heads)
    scale = np.asarray(1.0 / np.sqrt(q.shape[-1]), dtype=x.dtype)
    attn = ref_softmax_last((q @ k.transpose(0, 1, 3, 2)) * scale)
    ctx = _merge(attn @ v)
    out = ref_linear_fwd(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])
    return out, (x, q, k, v, attn, ctx, scale)


def ref_attention_bwd(dy, cache, p, prefix, n_heads):
    x, q, k, v, attn, ctx, scale = cache
    grads = {}
    dctx, grads[f"{prefix}.wo"], grads[f"{prefix}.bo"] = ref_linear_bwd(
        dy, ctx, p[f"{prefix}.wo"])
    dctx = _split(dctx, n_heads)
    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    ds = ref_softmax_bwd(dattn, attn) * scale
    dq = ds @ k
    dk = ds.transpose(0, 1, 3, 2) @ q
    dx = np.zeros_like(x)
    for name, dproj in (("q", dq), ("k", dk), ("v", dv)):
        dxi, dw, db = ref_linear_bwd(_merge(dproj), x, p[f"{prefix}.w{name}"])
        grads[f"{prefix}.w{name}"] = dw
        grads[f"{prefix}.b{name}"] = db
        dx += dxi
    return dx, grads


def ref_block_fwd(x, p, prefix, n_heads):
    h1, c_ln1 = ref_layernorm_fwd(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    a_out, c_attn = ref_attention_fwd(h1, p, f"{prefix}.attn", n_heads)
    x2 = x + a_out
    h2, c_ln2 = ref_layernorm_fwd(x2, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
    m1 = ref_linear_fwd(h2, p[f"{prefix}.mlp.w1"], p[f"{prefix}.mlp.b1"])
    act, c_gelu = ref_gelu_fwd(m1)
    m2 = ref_linear_fwd(act, p[f"{prefix}.mlp.w2"], p[f"{prefix}.mlp.b2"])
    return x2 + m2, (c_ln1, c_attn, c_ln2, c_gelu)


def ref_block_bwd(dy, cache, p, prefix, n_heads):
    """The MLP's input and hidden activation are rebuilt from the LN2 and
    GELU caches by the forward formulas."""
    c_ln1, c_attn, c_ln2, c_gelu = cache
    (xhat2, _), (m1, c) = c_ln2, c_gelu
    h2 = xhat2 * p[f"{prefix}.ln2.g"] + p[f"{prefix}.ln2.b"]
    act = 0.5 * m1 * (1.0 + c)
    grads = {}
    dact, grads[f"{prefix}.mlp.w2"], grads[f"{prefix}.mlp.b2"] = ref_linear_bwd(
        dy, act, p[f"{prefix}.mlp.w2"])
    dm1 = ref_gelu_bwd(dact, c_gelu)
    dh2, grads[f"{prefix}.mlp.w1"], grads[f"{prefix}.mlp.b1"] = ref_linear_bwd(
        dm1, h2, p[f"{prefix}.mlp.w1"])
    dx2, grads[f"{prefix}.ln2.g"], grads[f"{prefix}.ln2.b"] = ref_layernorm_bwd(
        dh2, c_ln2, p[f"{prefix}.ln2.g"])
    dx2 = dx2 + dy
    dh1, attn_grads = ref_attention_bwd(dx2, c_attn, p, f"{prefix}.attn", n_heads)
    grads.update(attn_grads)
    dx, grads[f"{prefix}.ln1.g"], grads[f"{prefix}.ln1.b"] = ref_layernorm_bwd(
        dh1, c_ln1, p[f"{prefix}.ln1.g"])
    return dx + dx2, grads


def ref_stack_fwd(x, p, side, n_blocks, n_heads):
    caches = []
    for i in range(n_blocks):
        x, cache = ref_block_fwd(x, p, f"{side}.{i}", n_heads)
        caches.append(cache)
    y, c_norm = ref_layernorm_fwd(x, p[f"{side}.norm.g"], p[f"{side}.norm.b"])
    return y, (caches, c_norm)


def ref_stack_bwd(dy, cache, p, side, n_blocks, n_heads):
    caches, c_norm = cache
    grads = {}
    dx, grads[f"{side}.norm.g"], grads[f"{side}.norm.b"] = ref_layernorm_bwd(
        dy, c_norm, p[f"{side}.norm.g"])
    for i in reversed(range(n_blocks)):
        dx, block_grads = ref_block_bwd(dx, caches[i], p, f"{side}.{i}", n_heads)
        grads.update(block_grads)
    return dx, grads


# ---------------------------------------------------------------------------
# inputs


def _attn_params(rng, prefix, dim, dtype):
    p = {}
    for name in "qkvo":
        p[f"{prefix}.w{name}"] = rng.normal(0, 0.3, (dim, dim)).astype(dtype)
        p[f"{prefix}.b{name}"] = rng.normal(0, 0.1, (dim,)).astype(dtype)
    return p


def _block_params(rng, prefix, dim, hidden, dtype):
    p = _attn_params(rng, f"{prefix}.attn", dim, dtype)
    for ln in ("ln1", "ln2"):
        p[f"{prefix}.{ln}.g"] = (1.0 + rng.normal(0, 0.1, (dim,))).astype(dtype)
        p[f"{prefix}.{ln}.b"] = rng.normal(0, 0.1, (dim,)).astype(dtype)
    p[f"{prefix}.mlp.w1"] = rng.normal(0, 0.3, (dim, hidden)).astype(dtype)
    p[f"{prefix}.mlp.b1"] = rng.normal(0, 0.1, (hidden,)).astype(dtype)
    p[f"{prefix}.mlp.w2"] = rng.normal(0, 0.3, (hidden, dim)).astype(dtype)
    p[f"{prefix}.mlp.b2"] = rng.normal(0, 0.1, (dim,)).astype(dtype)
    return p


def _stack_params(rng, side, n_blocks, dim, hidden, dtype):
    p = {}
    for i in range(n_blocks):
        p.update(_block_params(rng, f"{side}.{i}", dim, hidden, dtype))
    p[f"{side}.norm.g"] = (1.0 + rng.normal(0, 0.1, (dim,))).astype(dtype)
    p[f"{side}.norm.b"] = rng.normal(0, 0.1, (dim,)).astype(dtype)
    return p


def _arr(rng, shape, dtype, scale=1.0):
    return (scale * rng.normal(size=shape)).astype(dtype)


# ---------------------------------------------------------------------------
# gradcheck


def _numeric_grad(loss, arr, indices):
    """Central differences of the scalar ``loss()`` at ``arr[indices]``."""
    out = []
    for idx in indices:
        old = arr[idx]
        arr[idx] = old + FD_EPS
        up = loss()
        arr[idx] = old - FD_EPS
        down = loss()
        arr[idx] = old
        out.append((up - down) / (2 * FD_EPS))
    return np.array(out)


def _all_indices(arr):
    return list(np.ndindex(arr.shape))


def _sample_indices(arr, rng, k):
    if arr.size <= k:
        return _all_indices(arr)
    flat = rng.choice(arr.size, size=k, replace=False)
    return [np.unravel_index(i, arr.shape) for i in flat]


def _check(loss, arr, analytic, indices):
    numeric = _numeric_grad(loss, arr, indices)
    got = np.array([analytic[idx] for idx in indices])
    np.testing.assert_allclose(got, numeric, rtol=FD_RTOL, atol=FD_ATOL)


class TestGradcheck:
    """Analytic gradients of L = sum(out * r) against central differences."""

    def test_linear(self):
        rng = np.random.default_rng(0)
        x, w, b = _arr(rng, (2, 3, 4), np.float64), _arr(rng, (4, 5), np.float64), \
            _arr(rng, (5,), np.float64)
        r = _arr(rng, (2, 3, 5), np.float64)
        dx, dw, db = nn_core.linear_bwd(r, x, w)

        def loss():
            return float(np.sum(nn_core.linear_fwd(x, w, b) * r))

        for arr, grad in ((x, dx), (w, dw), (b, db)):
            _check(loss, arr, grad, _all_indices(arr))

    def test_layernorm(self):
        rng = np.random.default_rng(1)
        x = _arr(rng, (2, 3, 6), np.float64)
        g = 1.0 + _arr(rng, (6,), np.float64, 0.1)
        b = _arr(rng, (6,), np.float64, 0.1)
        r = _arr(rng, (2, 3, 6), np.float64)
        _, cache = nn_core.layernorm_fwd(x, g, b)
        dx, dg, db = nn_core.layernorm_bwd(r, cache, g)

        def loss():
            return float(np.sum(nn_core.layernorm_fwd(x, g, b)[0] * r))

        for arr, grad in ((x, dx), (g, dg), (b, db)):
            _check(loss, arr, grad, _all_indices(arr))

    def test_gelu(self):
        rng = np.random.default_rng(2)
        x = _arr(rng, (3, 7), np.float64, 2.0)
        r = _arr(rng, (3, 7), np.float64)
        _, cache = nn_core.gelu_fwd(x)
        dx = nn_core.gelu_bwd(r, cache)

        def loss():
            return float(np.sum(nn_core.gelu_fwd(x)[0] * r))

        _check(loss, x, dx, _all_indices(x))

    def test_softmax(self):
        rng = np.random.default_rng(3)
        x = _arr(rng, (2, 3, 5), np.float64, 2.0)
        r = _arr(rng, (2, 3, 5), np.float64)
        dx = nn_core.softmax_bwd(r, nn_core.softmax_last(x))

        def loss():
            return float(np.sum(nn_core.softmax_last(x) * r))

        _check(loss, x, dx, _all_indices(x))

    def test_attention(self):
        rng = np.random.default_rng(4)
        x = _arr(rng, (2, 4, DIM), np.float64)
        p = _attn_params(rng, "a", DIM, np.float64)
        r = _arr(rng, (2, 4, DIM), np.float64)
        _, cache = nn_core.attention_fwd(x, p, "a", HEADS)
        dx, grads = nn_core.attention_bwd(r, cache, p, "a", HEADS)
        assert set(grads) == set(p)

        def loss():
            return float(np.sum(nn_core.attention_fwd(x, p, "a", HEADS)[0] * r))

        _check(loss, x, dx, _all_indices(x))
        for name, arr in p.items():
            _check(loss, arr, grads[name], _all_indices(arr))

    def test_block(self):
        rng = np.random.default_rng(5)
        x = _arr(rng, (2, 4, DIM), np.float64)
        p = _block_params(rng, "blk", DIM, HIDDEN, np.float64)
        r = _arr(rng, (2, 4, DIM), np.float64)
        _, cache = nn_core.block_fwd(x, p, "blk", HEADS)
        dx, grads = nn_core.block_bwd(r, cache, p, "blk", HEADS)
        assert set(grads) == set(p)

        def loss():
            return float(np.sum(nn_core.block_fwd(x, p, "blk", HEADS)[0] * r))

        _check(loss, x, dx, _all_indices(x))
        for name, arr in p.items():
            _check(loss, arr, grads[name], _all_indices(arr))

    def test_stack(self):
        rng = np.random.default_rng(6)
        x = _arr(rng, (2, 4, DIM), np.float64)
        p = _stack_params(rng, "enc", 2, DIM, HIDDEN, np.float64)
        r = _arr(rng, (2, 4, DIM), np.float64)
        _, cache = nn_core.stack_fwd(x, p, "enc", 2, HEADS)
        dx, grads = nn_core.stack_bwd(r, cache, p, "enc", 2, HEADS)
        assert set(grads) == set(p)

        def loss():
            return float(np.sum(nn_core.stack_fwd(x, p, "enc", 2, HEADS)[0] * r))

        _check(loss, x, dx, _all_indices(x))
        pick = np.random.default_rng(60)
        for name, arr in p.items():
            _check(loss, arr, grads[name], _sample_indices(arr, pick, 24))


# the smallest family member at full depth: 3 blocks a side, 3/2 heads,
# 100 patches, as deployed
SMALLEST = ModelConfig(e_dim=24, d_dim=16, mask_ratio=0.8)


def _perturbed(model, seed):
    """Random biases and gains, so no gradient is checked only at zero."""
    rng = np.random.default_rng(seed)
    for arr in model.params.values():
        arr += rng.normal(0.0, 0.05, arr.shape)
    return model


class TestModelGradcheck:
    def test_pretrain(self):
        model = _perturbed(mae_model.build_model(SMALLEST, seed=0, dtype=np.float64), 1)
        rng = np.random.default_rng(2)
        images = rng.normal(size=(2, 100, 100))
        masked, visible = mae_model.sample_mask_batch(
            mae_model.NUM_PATCHES, SMALLEST.mask_ratio, 2, rng)
        _, cache = mae_model.pretrain_forward_batch(model, images, masked, visible)
        grads = mae_model.pretrain_backward(model, cache)
        assert set(grads) == set(model.params)

        def loss():
            return mae_model.pretrain_forward_batch(model, images, masked, visible)[0]

        pick = np.random.default_rng(3)
        for name, arr in model.params.items():
            _check(loss, arr, grads[name], _sample_indices(arr, pick, 12))

    def test_regress(self):
        base = mae_model.build_model(SMALLEST, seed=0, dtype=np.float64)
        model = _perturbed(mae_model.attach_regression_head(base, seed=1), 2)
        rng = np.random.default_rng(3)
        images = rng.normal(size=(3, 100, 100))
        r = rng.normal(size=3)
        _, cache = mae_model.regress_forward_batch(model, images)
        grads = mae_model.regress_backward(model, cache, r)
        assert set(grads) == set(model.params)

        def loss():
            return float(np.sum(mae_model.regress_forward_batch(model, images)[0] * r))

        pick = np.random.default_rng(4)
        for name, arr in model.params.items():
            _check(loss, arr, grads[name], _sample_indices(arr, pick, 12))


# ---------------------------------------------------------------------------
# bit-for-bit against the reference formulas


def _assert_same(got, want):
    """Equal structure, dtypes and values, array by array."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, dict):
        assert set(got) == set(want)
        for key in want:
            _assert_same(got[key], want[key])
    else:
        assert got == want


def _same_as_reference(fn, ref, *args):
    """``fn(*args)`` equals ``ref`` on the same inputs and writes into none of them."""
    before = copy.deepcopy(args)
    got = fn(*args)
    _assert_same(args, before)
    _assert_same(got, ref(*copy.deepcopy(before)))
    return got


DTYPES = [np.float32, np.float64]


@pytest.mark.parametrize("dtype", DTYPES)
class TestMatchesReference:
    def test_linear(self, dtype):
        rng = np.random.default_rng(10)
        x, w, b = _arr(rng, (2, 5, 6), dtype), _arr(rng, (6, 7), dtype), _arr(rng, (7,), dtype)
        y = _same_as_reference(nn_core.linear_fwd, ref_linear_fwd, x, w, b)
        _same_as_reference(nn_core.linear_bwd, ref_linear_bwd, _arr(rng, y.shape, dtype), x, w)

    def test_layernorm(self, dtype):
        rng = np.random.default_rng(11)
        x = _arr(rng, (2, 5, 6), dtype, 3.0)
        g, b = 1.0 + _arr(rng, (6,), dtype, 0.1), _arr(rng, (6,), dtype, 0.1)
        _, cache = _same_as_reference(nn_core.layernorm_fwd, ref_layernorm_fwd, x, g, b)
        _same_as_reference(nn_core.layernorm_bwd, ref_layernorm_bwd,
                           _arr(rng, x.shape, dtype), cache, g)

    def test_gelu(self, dtype):
        rng = np.random.default_rng(12)
        x = _arr(rng, (4, 9), dtype, 3.0)
        _, cache = _same_as_reference(nn_core.gelu_fwd, ref_gelu_fwd, x)
        _same_as_reference(nn_core.gelu_bwd, ref_gelu_bwd, _arr(rng, x.shape, dtype), cache)

    def test_softmax(self, dtype):
        rng = np.random.default_rng(13)
        x = _arr(rng, (2, 3, 5, 5), dtype, 3.0)
        a = _same_as_reference(nn_core.softmax_last, ref_softmax_last, x)
        _same_as_reference(nn_core.softmax_bwd, ref_softmax_bwd, _arr(rng, x.shape, dtype), a)

    def test_attention(self, dtype):
        rng = np.random.default_rng(14)
        x = _arr(rng, (2, 5, DIM), dtype)
        p = _attn_params(rng, "a", DIM, dtype)
        _, cache = _same_as_reference(nn_core.attention_fwd, ref_attention_fwd, x, p, "a", HEADS)
        _same_as_reference(nn_core.attention_bwd, ref_attention_bwd,
                           _arr(rng, x.shape, dtype), cache, p, "a", HEADS)

    def test_attention_in_score_chunks(self, dtype, monkeypatch):
        # two windows' scores a chunk: the softmax passes run over 2, 2 and 1
        monkeypatch.setattr(nn_core, "SCORE_CHUNK", 2 * HEADS * 5 * 5)
        rng = np.random.default_rng(18)
        x = _arr(rng, (5, 5, DIM), dtype)
        p = _attn_params(rng, "a", DIM, dtype)
        _, cache = _same_as_reference(nn_core.attention_fwd, ref_attention_fwd, x, p, "a", HEADS)
        _same_as_reference(nn_core.attention_bwd, ref_attention_bwd,
                           _arr(rng, x.shape, dtype), cache, p, "a", HEADS)

    def test_block(self, dtype):
        rng = np.random.default_rng(15)
        x = _arr(rng, (2, 5, DIM), dtype)
        p = _block_params(rng, "blk", DIM, HIDDEN, dtype)
        _, cache = _same_as_reference(nn_core.block_fwd, ref_block_fwd, x, p, "blk", HEADS)
        _same_as_reference(nn_core.block_bwd, ref_block_bwd,
                           _arr(rng, x.shape, dtype), cache, p, "blk", HEADS)

    def test_stack(self, dtype):
        rng = np.random.default_rng(16)
        x = _arr(rng, (2, 5, DIM), dtype)
        p = _stack_params(rng, "enc", 2, DIM, HIDDEN, dtype)
        _, cache = _same_as_reference(nn_core.stack_fwd, ref_stack_fwd, x, p, "enc", 2, HEADS)
        _same_as_reference(nn_core.stack_bwd, ref_stack_bwd,
                           _arr(rng, x.shape, dtype), cache, p, "enc", 2, HEADS)


# Row reductions at the widths the model family runs at, and around them:
# nn_core reduces with np.add/np.maximum.reduce and divides by the row length
# itself; the reference formulas go through ndarray.mean/max/sum.
WIDTHS = st.one_of(st.sampled_from([1, 16, 24, 64, 96, 100, 130]), st.integers(1, 130))
LEADS = st.sampled_from([(1,), (3,), (2, 3)])
MAGNITUDES = st.sampled_from([1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4])
ROWS = dict(dtype=st.sampled_from(DTYPES), lead=LEADS, width=WIDTHS, scale=MAGNITUDES,
            seed=st.integers(0, 2**32 - 1))


def _row_examples(**extra):
    """Always run the family's widths, whatever hypothesis draws."""
    def add(test):
        for i, width in enumerate((16, 24, 64, 96, 100)):
            test = example(dtype=DTYPES[i % 2], lead=((1,), (3,), (2, 3))[i % 3],
                           width=width, scale=(1e-6, 1.0, 1e4)[i % 3], seed=i,
                           **extra)(test)
        return test
    return add


@settings(max_examples=80, deadline=None)
@given(**ROWS, offset=st.sampled_from([0.0, 1.0, -50.0]))
@_row_examples(offset=1.0)
def test_layernorm_rows_bit_for_bit(dtype, lead, width, scale, seed, offset):
    rng = np.random.default_rng(seed)
    x = (offset * scale + _arr(rng, lead + (width,), np.float64, scale)).astype(dtype)
    g, b = 1.0 + _arr(rng, (width,), dtype, 0.1), _arr(rng, (width,), dtype, 0.1)
    _, cache = _same_as_reference(nn_core.layernorm_fwd, ref_layernorm_fwd, x, g, b)
    _same_as_reference(nn_core.layernorm_bwd, ref_layernorm_bwd,
                       _arr(rng, x.shape, dtype, scale), cache, g)


@settings(max_examples=80, deadline=None)
@given(**ROWS)
@_row_examples()
def test_softmax_rows_bit_for_bit(dtype, lead, width, scale, seed):
    rng = np.random.default_rng(seed)
    x = _arr(rng, lead + (width,), dtype, scale)
    a = _same_as_reference(nn_core.softmax_last, ref_softmax_last, x)
    _same_as_reference(nn_core.softmax_bwd, ref_softmax_bwd,
                       _arr(rng, x.shape, dtype, scale), a)


def test_constants_are_shared_and_read_only():
    for dtype in DTYPES:
        c = nn_core._const(nn_core.LN_EPS, np.dtype(dtype))
        assert c is nn_core._const(nn_core.LN_EPS, np.dtype(dtype))
        assert c.dtype == dtype and c.shape == () and c == np.asarray(nn_core.LN_EPS, dtype)
        assert not c.flags.writeable


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k,n", [(96, 24), (100, 24), (16, 100), (24, 96)])
def test_linear_fwd_batch_invariant(dtype, k, n):
    # batched and one-window scoring agree bit for bit only if each window's
    # product does not depend on the batch around it. One GEMM over the
    # flattened rows does depend on it, at (96, 24) and (100, 24) in float32
    # and at (16, 100) in float64 (OpenBLAS 0.3.31, Haswell kernels)
    rng = np.random.default_rng(17)
    x, w, b = _arr(rng, (16, 100, k), dtype), _arr(rng, (k, n), dtype), _arr(rng, (n,), dtype)
    whole = nn_core.linear_fwd(x, w, b)
    assert np.array_equal(whole, np.stack([nn_core.linear_fwd(x[i:i + 1], w, b)[0]
                                           for i in range(len(x))]))


# ---------------------------------------------------------------------------
# allocator


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


FAULT_SCRIPT = """
import resource
import numpy as np
from shm_fomo import mae_model

cfg = mae_model.ModelConfig(e_dim=96, d_dim=64)
model = mae_model.attach_regression_head(mae_model.build_model(cfg, seed=0), seed=1)
images = np.random.default_rng(0).normal(size=(8, 100, 100)).astype(np.float32)
dyhat = np.ones(8)

def step():
    _, cache = mae_model.regress_forward_batch(model, images)
    mae_model.regress_backward(model, cache, dyhat)

for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="C library has no mallopt")
def test_training_steps_keep_activation_memory_mapped():
    """Once warm, 96/64 batch-8 steps reuse freed activations instead of
    faulting them in again (about 8k minor faults per step otherwise)."""
    proc = subprocess.run([sys.executable, "-c", FAULT_SCRIPT],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100
