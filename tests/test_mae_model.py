import json
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from shm_fomo import nn_core
from shm_fomo.errors import ConfigError, DataError, FormatError
from shm_fomo.io_formats import read_container, write_container
from shm_fomo.signal_pipeline import SpectrogramWindow
from shm_fomo.mae_model import (
    CHECKPOINT_MAGIC,
    EVAL_BATCH,
    MLP_RATIO,
    N_BLOCKS,
    NUM_PATCHES,
    PATCH_DIM,
    PATCH_SIZE,
    SIZE_FAMILY,
    ModelConfig,
    _decode_batch,
    _encode_batch,
    _masked_diff,
    attach_regression_head,
    build_model,
    forward_regress,
    load_model,
    param_shapes,
    patchify,
    pretrain_backward,
    pretrain_forward_batch,
    reconstruction_error,
    reconstruction_errors,
    regress_backward,
    regress_forward_batch,
    regress_predictions,
    sample_mask,
    sample_mask_batch,
    save_model,
)

TINY = ModelConfig(e_dim=24, d_dim=16)


def param_count(cfg: ModelConfig, with_decoder: bool = True,
                with_reg_head: bool = False) -> int:
    """Trainable scalars from the shape table alone (fixed positional
    tables excluded): the oracle for ``MaeModel.n_params``."""
    return sum(int(np.prod(s)) for s in
               param_shapes(cfg, with_decoder, with_reg_head).values())


def depatchify(patches):
    """Inverse of patchify: the oracle for its round trip."""
    b, n, _ = patches.shape
    g = int(round(np.sqrt(n)))
    return (patches.reshape(b, g, g, PATCH_SIZE, PATCH_SIZE)
            .transpose(0, 1, 3, 2, 4)
            .reshape(b, g * PATCH_SIZE, g * PATCH_SIZE))


def patches_of(model, images):
    """The encoder's input: the images' patches in the model's dtype."""
    return patchify(images).astype(model.dtype)


def reconstruct(model, image, masked, visible):
    """One image through the batched encoder and decoder, as an image."""
    latents, _ = _encode_batch(model, patches_of(model, image[None]), visible[None])
    pred, _ = _decode_batch(model, latents, masked[None], visible[None])
    return depatchify(pred)[0]


def masked_mse(pred_image, true_image, masked_idx):
    """The training loss of one image pair, through the production masked
    difference and the loss's float64 mean."""
    pred = patchify(np.asarray(pred_image)[None])
    true = patchify(np.asarray(true_image)[None])
    diff = _masked_diff(pred, true, masked_idx[None])
    return float(np.mean(diff.astype(np.float64) ** 2))


@pytest.fixture(scope="module")
def tiny_model():
    return build_model(TINY, seed=0)


def rand_image(seed=0):
    return np.random.default_rng(seed).normal(size=(100, 100))


class TestPatchify:
    def test_patch_count_and_size(self):
        patches = patchify(rand_image()[None])
        assert patches.shape == (1, 100, 100)

    def test_constant_image(self):
        patches = patchify(np.full((1, 100, 100), 3.5))
        assert patches.shape == (1, NUM_PATCHES, PATCH_DIM)
        assert (patches == 3.5).all()

    def test_round_trip_bit_exact_50_images(self):
        for seed in range(50):
            img = rand_image(seed)[None]
            assert np.array_equal(depatchify(patchify(img)), img)

    @settings(max_examples=30, deadline=None)
    @given(batch=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_round_trip_property(self, batch, seed):
        images = np.random.default_rng(seed).normal(size=(batch, 100, 100))
        patches = patchify(images)
        assert patches.shape == (batch, NUM_PATCHES, PATCH_DIM)
        assert np.array_equal(depatchify(patches), images)

    def test_off_size_image_rejected(self):
        # a 50x50 image got past a divisibility check into an IndexError
        for shape in [(1, 70, 70), (1, 50, 50), (1, 100, 70), (100, 100)]:
            with pytest.raises(DataError, match="not 100x100 spectrograms"):
                patchify(np.zeros(shape))

    def test_row_major_grid_order(self):
        img = np.arange(10000, dtype=float).reshape(1, 100, 100)
        patches = patchify(img)
        # patch 1 is the grid cell at row 0, columns 10..19
        assert np.array_equal(patches[0, 1], img[0, 0:10, 10:20].reshape(-1))


class TestMasking:
    def test_exact_masked_count(self):
        for seed in range(20):
            masked, visible = sample_mask(0.8, seed)
            assert masked.shape[0] == 80
            assert visible.shape[0] == 20

    def test_zero_ratio(self):
        masked, visible = sample_mask(0.0, 1)
        assert masked.shape[0] == 0
        assert np.array_equal(visible, np.arange(100))

    def test_partition_property(self):
        masked, visible = sample_mask(0.8, 7)
        union = np.union1d(masked, visible)
        assert np.array_equal(union, np.arange(100))
        assert np.intersect1d(masked, visible).size == 0

    def test_same_seed_identical(self):
        a, b = sample_mask(0.8, 42), sample_mask(0.8, 42)
        assert np.array_equal(a[0], b[0])

    def test_different_seeds_differ(self):
        masks = {tuple(sample_mask(0.8, s)[0]) for s in range(50)}
        assert len(masks) == 50

    def test_uniformity_chi_square(self):
        # inclusion frequency per index over 1e4 draws of 50-of-100 subsets,
        # 1e6 random numbers in all
        rng = np.random.default_rng(123)
        masked, _ = sample_mask_batch(0.5, 10_000, rng)
        counts = np.bincount(masked.reshape(-1), minlength=NUM_PATCHES)
        expected = masked.size / NUM_PATCHES
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert chi2.sf(stat, df=NUM_PATCHES - 1) > 0.001

    def test_invalid_ratio(self):
        with pytest.raises(ConfigError):
            sample_mask(1.0, 0)


class TestEncodeDecode:
    def test_encode_all_patches(self, tiny_model):
        latents, _ = _encode_batch(tiny_model, patches_of(tiny_model, rand_image()[None]), None)
        assert latents.shape == (1, 100, TINY.e_dim)

    def test_encode_masked(self, tiny_model):
        _, visible = sample_mask(0.8, 5)
        latents, _ = _encode_batch(tiny_model, patches_of(tiny_model, rand_image()[None]),
                                   visible[None])
        assert latents.shape == (1, 20, TINY.e_dim)

    def test_permutation_equivariance_with_zero_pos(self):
        model = build_model(ModelConfig(e_dim=24, d_dim=16), seed=3).astype(np.float64)
        model.enc_pos = np.zeros_like(model.enc_pos)
        rng = np.random.default_rng(0)
        tokens = rng.normal(size=(1, 12, 24))
        out, _ = nn_core.stack_fwd(tokens, model.params, "enc",
                                   N_BLOCKS, model.config.e_heads)
        perm = rng.permutation(12)
        out_perm, _ = nn_core.stack_fwd(tokens[:, perm], model.params, "enc",
                                        N_BLOCKS, model.config.e_heads)
        assert np.allclose(out[:, perm], out_perm, atol=1e-10)

    def test_decode_shape(self, tiny_model):
        masked, visible = sample_mask(0.8, 2)
        recon = reconstruct(tiny_model, rand_image(), masked, visible)
        assert recon.shape == (100, 100)

    def test_decode_deterministic(self, tiny_model):
        masked, visible = sample_mask(0.0, 2)
        img = rand_image(4)
        r1 = reconstruct(tiny_model, img, masked, visible)
        r2 = reconstruct(tiny_model, img, masked, visible)
        assert np.array_equal(r1, r2)


class TestPretrainLoss:
    def test_zero_for_perfect_prediction(self):
        img = rand_image(1)
        masked, _ = sample_mask(0.8, 0)
        assert masked_mse(img, img, masked) == 0.0

    def test_constant_offset_closed_form(self):
        img = rand_image(2)
        masked, _ = sample_mask(0.8, 1)
        patches = patchify(img[None])
        patches[0, masked] += 0.3
        pred = depatchify(patches)[0]
        assert masked_mse(pred, img, masked) == pytest.approx(0.09, rel=1e-12)

    def test_visible_perturbation_invariance_exact(self):
        img = rand_image(3)
        masked, visible = sample_mask(0.8, 2)
        pred = img + 0.1
        base = masked_mse(pred, img, masked)
        patches = patchify(pred[None])
        patches[0, visible] += np.random.default_rng(0).normal(
            size=(20, 100)) * 100
        perturbed = depatchify(patches)[0]
        assert masked_mse(perturbed, img, masked) == base

    def test_empty_masked_set_rejected(self):
        # a ratio that rounds to no masked patch leaves the loss undefined, and
        # one that rounds to every patch leaves the encoder no token
        for ratio in (0.0, 0.004, 0.995, 0.996):
            with pytest.raises(ConfigError, match="mask_ratio"):
                ModelConfig(e_dim=24, d_dim=16, mask_ratio=ratio)
        for ratio in (0.006, 0.994):
            assert ModelConfig(e_dim=24, d_dim=16, mask_ratio=ratio).mask_ratio == ratio

    def test_batch_loss_matches_single(self, tiny_model):
        img = rand_image(5)
        masked, visible = sample_mask(0.8, 3)
        loss_batch, _ = pretrain_forward_batch(
            tiny_model, img[None], masked[None], visible[None])
        recon = reconstruct(tiny_model, img, masked, visible)
        loss_single = masked_mse(recon, img.astype(np.float32), masked)
        assert loss_batch == pytest.approx(loss_single, rel=1e-5)


# ---------------------------------------------------------------------------
# reference formulas for the masked path: every gather and scatter of masked
# or visible patch rows spelled with take_along_axis/put_along_axis


def ref_pretrain_forward(model, images, masked_idx, visible_idx):
    """(loss, diff, cache) of one masked reconstruction batch."""
    cfg, p = model.config, model.params
    patches = patchify(np.asarray(images)).astype(model.dtype)
    vis = np.take_along_axis(patches, visible_idx[:, :, None], axis=1)
    tokens = (nn_core.linear_fwd(vis, p["patch_embed.w"], p["patch_embed.b"])
              + model.enc_pos[visible_idx])
    latents, enc_stack = nn_core.stack_fwd(tokens, p, "enc", N_BLOCKS, cfg.e_heads)
    z = nn_core.linear_fwd(latents, p["enc_to_dec.w"], p["enc_to_dec.b"])
    dec_in = np.broadcast_to(p["mask_token"], (len(z), NUM_PATCHES, cfg.d_dim)).copy()
    np.put_along_axis(dec_in, visible_idx[:, :, None], z, axis=1)
    hidden, dec_stack = nn_core.stack_fwd(dec_in + model.dec_pos[None], p, "dec",
                                          N_BLOCKS, cfg.d_heads)
    pred = nn_core.linear_fwd(hidden, p["recon_head.w"], p["recon_head.b"])
    idx = masked_idx[:, :, None]
    diff = np.take_along_axis(pred, idx, axis=1) - np.take_along_axis(patches, idx, axis=1)
    loss = float(np.mean(diff.astype(np.float64) ** 2))
    return loss, diff, (vis, enc_stack, latents, hidden, dec_stack, pred.shape)


def ref_pretrain_backward(model, masked_idx, visible_idx, diff, cache):
    cfg, p = model.config, model.params
    vis, enc_stack, latents, hidden, dec_stack, pred_shape = cache
    dpred = np.zeros(pred_shape, dtype=model.dtype)
    np.put_along_axis(dpred, masked_idx[:, :, None],
                      diff * np.asarray(2.0 / diff.size, dtype=model.dtype), axis=1)
    grads = {}
    dhidden, grads["recon_head.w"], grads["recon_head.b"] = nn_core.linear_bwd(
        dpred, hidden, p["recon_head.w"])
    dtokens, dec_grads = nn_core.stack_bwd(dhidden, dec_stack, p, "dec",
                                           N_BLOCKS, cfg.d_heads)
    grads.update(dec_grads)
    dz = np.take_along_axis(dtokens, visible_idx[:, :, None], axis=1)
    grads["mask_token"] = np.take_along_axis(
        dtokens, masked_idx[:, :, None], axis=1).sum(axis=(0, 1))
    dlatents, grads["enc_to_dec.w"], grads["enc_to_dec.b"] = nn_core.linear_bwd(
        dz, latents, p["enc_to_dec.w"])
    dvis_tokens, enc_grads = nn_core.stack_bwd(dlatents, enc_stack, p, "enc",
                                               N_BLOCKS, cfg.e_heads)
    grads.update(enc_grads)
    _, grads["patch_embed.w"], grads["patch_embed.b"] = nn_core.linear_bwd(
        dvis_tokens, vis, p["patch_embed.w"])
    return grads


def ref_reconstruction_errors(model, images, base_seed):
    cfg = model.config
    masks = [sample_mask(cfg.mask_ratio, base_seed ^ i)
             for i in range(len(images))]
    masked_idx, visible_idx = (np.stack(idx) for idx in zip(*masks))
    _, diff, _ = ref_pretrain_forward(model, images, masked_idx, visible_idx)
    return np.mean((diff.astype(np.float64) ** 2).reshape(len(images), -1), axis=1)


def _same_bits(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch,mask_ratio", [(1, 0.8), (3, 0.8), (3, 0.99)])
class TestMaskedPathMatchesReference:
    """Bit for bit against the reference formulas; a mask ratio of 0.99
    leaves a single visible patch per image."""

    @staticmethod
    def model(dtype, mask_ratio):
        cfg = ModelConfig(e_dim=24, d_dim=16, mask_ratio=mask_ratio)
        return build_model(cfg, seed=0).astype(dtype)

    @staticmethod
    def images(batch):
        return np.stack([rand_image(s) for s in range(batch)])

    def test_pretrain_forward_and_backward(self, dtype, batch, mask_ratio):
        model = self.model(dtype, mask_ratio)
        images = self.images(batch)
        masked, visible = sample_mask_batch(mask_ratio, batch, np.random.default_rng(batch))
        loss, cache = pretrain_forward_batch(model, images, masked, visible)
        grads = pretrain_backward(model, cache)
        want_loss, want_diff, ref_cache = ref_pretrain_forward(model, images, masked, visible)
        want_grads = ref_pretrain_backward(model, masked, visible, want_diff, ref_cache)
        assert loss == want_loss
        _same_bits(cache[2], want_diff)
        assert set(grads) == set(want_grads) == set(model.params)
        for name, g in grads.items():
            _same_bits(g, want_grads[name])

    def test_reconstruction_errors(self, dtype, batch, mask_ratio):
        model = self.model(dtype, mask_ratio)
        images = self.images(batch)
        windows = [SpectrogramWindow(image=img) for img in images]
        _same_bits(reconstruction_errors(model, windows, base_seed=0x5EED),
                   ref_reconstruction_errors(model, images, 0x5EED))


# ---------------------------------------------------------------------------
# what a training step holds


def score_run(b, n, heads):
    """Elements of one run of attention scores over (b, heads, n, n), and
    whether there is just one run, in which case the cache keeps the
    probabilities."""
    per_window = heads * n * n
    step = max(1, nn_core.SCORE_CHUNK // per_window)
    return min(b, step) * per_window, b <= step


def stack_cache_elements(b, n, d, heads):
    """Elements of one stack's caches for a (b, n, d) input. Per block: the
    two layer norms' normalized inputs, q, k, v and context (6 of width d),
    1 + the GELU input's erf (1 of width MLP_RATIO * d), two per-row 1/std
    and, when they fit one run, the attention probabilities; then the final
    norm's normalized output and 1/std. Neither the attention input nor the
    GELU input is cached: backward rebuilds both."""
    run, kept = score_run(b, n, heads)
    per_block = (6 + MLP_RATIO) * b * n * d + 2 * b * n + (run if kept else 0)
    return N_BLOCKS * per_block + b * n * d + b * n


def step_budget_bytes(cfg, b, n_visible, pretrain):
    """Bytes one forward+backward step may hold at its peak: the caches
    backward reads, the gradients, and a working set. That set is the MLP
    backward's, four MLP-wide activations (the rebuilt GELU input, the GELU
    output and then its gradient, and the two temporaries of GELU's
    derivative) and three of the stack's width (the gradients into the
    stack and into the block, and the rebuilt MLP input), plus the
    score-sized arrays of attention backward: two (d(attn) and the softmax
    backward's output) beside cached probabilities, three (with the
    recomputed probabilities) otherwise, each of one run. Attention
    backward's own activations are fewer than the MLP's, so the sum bounds
    both."""
    e, d = cfg.e_dim, cfg.d_dim

    def scores(n, heads):
        run, kept = score_run(b, n, heads)
        return (2 if kept else 3) * run

    held = stack_cache_elements(b, n_visible, e, cfg.e_heads) + b * n_visible * PATCH_DIM
    widest, working = b * n_visible * e, scores(n_visible, cfg.e_heads)
    if pretrain:   # latents, decoder caches and output, and the masked-patch diff
        n_masked = NUM_PATCHES - n_visible
        held += (b * n_visible * e + stack_cache_elements(b, NUM_PATCHES, d, cfg.d_heads)
                 + b * NUM_PATCHES * d + b * n_masked * PATCH_DIM)
        widest = max(widest, b * NUM_PATCHES * d)
        working = max(working, scores(NUM_PATCHES, cfg.d_heads))
    else:          # latents
        held += b * n_visible * e
    shapes = param_shapes(cfg, with_decoder=pretrain, with_reg_head=not pretrain)
    grads = sum(int(np.prod(shape)) for shape in shapes.values())
    return 4 * (held + grads + (4 * MLP_RATIO + 3) * widest + working)


def traced_peak(step) -> int:
    """Peak bytes allocated during ``step()``, after one warm-up call."""
    step()
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pretrain_step_peak(cfg, b):
    """``traced_peak`` of one batch-``b`` pretrain step, and its budget."""
    model = build_model(cfg, seed=0)
    rng = np.random.default_rng(0)
    images = rng.normal(size=(b, 100, 100)).astype(np.float32)
    masked, visible = sample_mask_batch(cfg.mask_ratio, b, rng)

    def step():
        _, cache = pretrain_forward_batch(model, images, masked, visible)
        pretrain_backward(model, cache)

    return traced_peak(step), step_budget_bytes(cfg, b, visible.shape[1], pretrain=True)


class TestStepMemory:
    """Budgets derived from the shapes. Blocks that cache their attention
    input and GELU input go over every budget, at 18.2, 65.8, 124.5 and
    22.0 MiB; caches that also hold each block's residual sum, MLP input
    and GELU output, and attention that caches every block's probabilities,
    go over them by more. At batch 128 the step peaks in the MLP backward
    of the decoder's last block."""

    def test_pretrain_step_24_16_batch_32(self):
        peak, budget = pretrain_step_peak(ModelConfig(e_dim=24, d_dim=16), 32)
        assert peak <= budget   # 14.5 of 16.7 MiB

    def test_pretrain_step_24_16_batch_128(self):
        # the paper's batch: the decoder's scores span 10 runs of up to 13 windows
        cfg = ModelConfig(e_dim=24, d_dim=16)
        assert score_run(128, NUM_PATCHES, cfg.d_heads) == (13 * 2 * NUM_PATCHES ** 2, False)
        peak, budget = pretrain_step_peak(cfg, 128)
        assert peak <= budget   # 54.5 of 57.5 MiB

    def test_pretrain_step_48_32_batch_128(self):
        # four decoder heads: the scores span 22 runs of up to 6 windows
        cfg = ModelConfig(e_dim=48, d_dim=32)
        assert score_run(128, NUM_PATCHES, cfg.d_heads) == (6 * 4 * NUM_PATCHES ** 2, False)
        peak, budget = pretrain_step_peak(cfg, 128)
        assert peak <= budget   # 101.9 of 105.0 MiB

    def test_regress_step_96_64_batch_8(self):
        cfg = ModelConfig(e_dim=96, d_dim=64)
        model = attach_regression_head(build_model(cfg, seed=0), seed=1)
        images = np.random.default_rng(0).normal(size=(8, 100, 100)).astype(np.float32)

        def step():
            _, cache = regress_forward_batch(model, images)
            regress_backward(model, cache, np.ones(8))

        budget = step_budget_bytes(cfg, 8, NUM_PATCHES, pretrain=False)
        assert traced_peak(step) <= budget   # 19.0 of 21.2 MiB


class TestBackwardReadsItsCache:
    """Backward reads its cache and consumes nothing: a second backward over
    the same cache gives the same gradients."""

    @staticmethod
    def assert_same_grads(a, b):
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_pretrain(self, tiny_model):
        masked, visible = sample_mask_batch(0.8, 3, np.random.default_rng(0))
        images = np.stack([rand_image(s) for s in range(3)])
        _, cache = pretrain_forward_batch(tiny_model, images, masked, visible)
        self.assert_same_grads(pretrain_backward(tiny_model, cache),
                               pretrain_backward(tiny_model, cache))

    def test_regress(self, tiny_model):
        model = attach_regression_head(tiny_model, seed=1)
        _, cache = regress_forward_batch(model, np.stack([rand_image(s) for s in range(3)]))
        dyhat = np.array([0.5, -1.0, 2.0])
        self.assert_same_grads(regress_backward(model, cache, dyhat),
                               regress_backward(model, cache, dyhat))

    def test_pretrain_recomputing_probabilities(self, tiny_model, monkeypatch):
        # one window a run: no cache holds probabilities, and each backward
        # recomputes the ones it reads, to the bit of the cached ones
        masked, visible = sample_mask_batch(0.8, 3, np.random.default_rng(0))
        images = np.stack([rand_image(s) for s in range(3)])
        _, cache = pretrain_forward_batch(tiny_model, images, masked, visible)
        kept = pretrain_backward(tiny_model, cache)
        monkeypatch.setattr(nn_core, "SCORE_CHUNK", 1)
        _, cache = pretrain_forward_batch(tiny_model, images, masked, visible)
        recomputed = pretrain_backward(tiny_model, cache)
        self.assert_same_grads(recomputed, pretrain_backward(tiny_model, cache))
        self.assert_same_grads(recomputed, kept)


class TestRegression:
    def test_zero_weights_give_bias(self, tiny_model):
        model = attach_regression_head(tiny_model, seed=1)
        model.params["reg_head.w"][:] = 0.0
        model.params["reg_head.b"][:] = 2.5
        assert forward_regress(model, rand_image(6)) == pytest.approx(2.5, abs=1e-6)

    def test_deterministic(self, tiny_model):
        model = attach_regression_head(tiny_model, seed=1)
        img = rand_image(7)
        assert forward_regress(model, img) == forward_regress(model, img)

    def test_missing_head_rejected(self, tiny_model):
        with pytest.raises(ConfigError):
            forward_regress(tiny_model, rand_image())

    def test_head_swap_param_arithmetic(self, tiny_model):
        model = attach_regression_head(tiny_model, seed=1)
        expected = param_count(TINY, with_decoder=False) + TINY.e_dim + 1
        assert model.n_params() == expected
        assert not model.has_decoder


class TestReconstructionError:
    def test_bit_reproducible(self, tiny_model):
        img = rand_image(8)
        a = reconstruction_error(tiny_model, img, eval_seed=99)
        b = reconstruction_error(tiny_model, img, eval_seed=99)
        assert a == b

    def test_seed_changes_mask(self, tiny_model):
        img = rand_image(8)
        errs = {reconstruction_error(tiny_model, img, eval_seed=s) for s in range(5)}
        assert len(errs) > 1

    def test_equals_training_loss_under_same_mask(self, tiny_model):
        # scoring drops the backward caches; the training forward is the reference
        img = rand_image(8)
        masked, visible = sample_mask(TINY.mask_ratio, 99)
        loss, _ = pretrain_forward_batch(tiny_model, img[None],
                                         masked[None], visible[None])
        assert reconstruction_error(tiny_model, img, eval_seed=99) == loss


class TestReconstructionErrors:
    BASE = 0x5EED

    @staticmethod
    def windows(n):
        return [SpectrogramWindow(image=rand_image(s).astype(np.float32))
                for s in range(n)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equal_to_single_window_bit_for_bit(self, dtype):
        # crosses a chunk boundary and ends on a partial chunk
        model = build_model(TINY, seed=0).astype(dtype)
        ws = self.windows(2 * EVAL_BATCH + 3)
        batched = reconstruction_errors(model, ws, base_seed=self.BASE)
        single = [reconstruction_error(model, w.image, self.BASE ^ i)
                  for i, w in enumerate(ws)]
        assert batched.dtype == np.float64
        assert np.array_equal(batched, single)

    def test_empty(self, tiny_model):
        assert reconstruction_errors(tiny_model, [], base_seed=self.BASE).shape == (0,)

    def test_decoderless_rejected_on_both_paths(self, tiny_model):
        model = attach_regression_head(tiny_model, seed=1)
        ws = self.windows(2)
        with pytest.raises(ConfigError):
            reconstruction_errors(model, ws)
        with pytest.raises(ConfigError):
            reconstruction_error(model, ws[0].image, 0)


class TestRegressPredictions:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equal_to_one_batch_bit_for_bit(self, dtype):
        # crosses a chunk boundary and ends on a partial chunk
        model = attach_regression_head(build_model(TINY, seed=0).astype(dtype), seed=1)
        windows = TestReconstructionErrors.windows(2 * EVAL_BATCH + 3)
        chunked = regress_predictions(model, windows)
        whole, _ = regress_forward_batch(model, np.stack([w.image for w in windows]))
        assert chunked.dtype == dtype
        assert np.array_equal(chunked, whole)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equal_to_one_window_bit_for_bit(self, dtype):
        # a window's prediction must not depend on the batch it is scored in
        model = attach_regression_head(build_model(TINY, seed=0).astype(dtype), seed=1)
        windows = TestReconstructionErrors.windows(2 * EVAL_BATCH + 3)
        batched = regress_predictions(model, windows)
        alone = [forward_regress(model, w.image) for w in windows]
        assert batched.tolist() == alone

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equal_to_mean_pooled_reference_bit_for_bit(self, dtype):
        model = attach_regression_head(build_model(TINY, seed=0).astype(dtype), seed=1)
        windows = TestReconstructionErrors.windows(3)
        latents, _ = _encode_batch(model, patches_of(model, np.stack([w.image for w in windows])),
                                   None)
        pooled = latents.mean(axis=1)
        want = (pooled[:, None, :] @ model.params["reg_head.w"]
                + model.params["reg_head.b"])[:, 0, 0]
        assert np.array_equal(regress_predictions(model, windows), want)

    def test_empty(self, tiny_model):
        model = attach_regression_head(tiny_model, seed=1)
        assert regress_predictions(model, []).shape == (0,)

    def test_missing_head_rejected(self, tiny_model):
        with pytest.raises(ConfigError):
            regress_predictions(tiny_model, TestReconstructionErrors.windows(1))
        with pytest.raises(ConfigError):
            regress_predictions(tiny_model, [])
        with pytest.raises(ConfigError):
            forward_regress(tiny_model, rand_image())


class TestScoringMemory:
    """Scoring takes EVAL_BATCH windows at a time, holds nothing of one chunk
    while it scores the next, and frees each block's activations as the next
    block starts. At 96/64 one chunk peaks at 14.9 MiB for reconstruction
    errors and 21.2 MiB for predictions. Stacks that keep their caches peak
    at 22.7 and 27.1 MiB, and predictions that hold the previous chunk's
    images and latents grow by 1.2 MiB from one chunk to four."""

    @pytest.mark.parametrize("scoring, one_chunk_mib", [("errors", 18), ("predictions", 24)])
    def test_peak_bounded_by_one_chunk(self, scoring, one_chunk_mib):
        model = build_model(ModelConfig(e_dim=96, d_dim=64), seed=0)
        windows = TestReconstructionErrors.windows(4 * EVAL_BATCH)
        if scoring == "errors":
            def score(n):
                reconstruction_errors(model, windows[:n])
        else:
            model = attach_regression_head(model, seed=1)

            def score(n):
                regress_predictions(model, windows[:n])
        one = traced_peak(lambda: score(EVAL_BATCH))
        four = traced_peak(lambda: score(4 * EVAL_BATCH))
        assert four - one < 2 ** 18
        assert one < one_chunk_mib * 2 ** 20


class TestParamCount:
    def test_monotone_in_family(self):
        counts = [param_count(ModelConfig(e_dim=e, d_dim=d)) for e, d in SIZE_FAMILY]
        assert counts == sorted(counts, reverse=True)
        assert len(set(counts)) == len(counts)

    def test_matches_allocated_params(self, tiny_model):
        assert tiny_model.n_params() == param_count(TINY)

    def test_shapes_cover_reg_head(self):
        shapes = param_shapes(TINY, with_decoder=False, with_reg_head=True)
        assert shapes["reg_head.w"] == (TINY.e_dim, 1)
        assert "mask_token" not in shapes

    def test_family_ratio_in_paper_band(self):
        big = param_count(ModelConfig(e_dim=768, d_dim=512))
        small = param_count(ModelConfig(e_dim=48, d_dim=32))
        assert 150 <= big / small <= 250

    def test_head_divisibility_family(self):
        for e, d in SIZE_FAMILY:
            cfg = ModelConfig(e_dim=e, d_dim=d)
            assert e % cfg.e_heads == 0 and e // cfg.e_heads >= 8
            assert d % cfg.d_heads == 0 and d // cfg.d_heads >= 8 or d == 16


class TestFamily:
    def test_config_is_a_member_and_its_mask_ratio(self):
        assert [f.name for f in fields(ModelConfig)] == ["e_dim", "d_dim", "mask_ratio"]

    @pytest.mark.parametrize("e_dim, d_dim", [(24, 32), (8, 8), (32, 24), (768, 256)])
    def test_non_family_pair_rejected(self, e_dim, d_dim):
        with pytest.raises(ConfigError, match="family"):
            ModelConfig(e_dim=e_dim, d_dim=d_dim)

    @pytest.mark.parametrize("ratio", [-0.1, 1.0, float("nan")])
    def test_mask_ratio_outside_unit_interval_rejected(self, ratio):
        with pytest.raises(ConfigError, match="mask_ratio"):
            ModelConfig(e_dim=24, d_dim=16, mask_ratio=ratio)

    def test_every_member_builds_at_the_shared_architecture(self):
        # 3 blocks a side, 10-px patches, MLPs 4 times as wide
        for e, d in SIZE_FAMILY:
            shapes = param_shapes(ModelConfig(e_dim=e, d_dim=d))
            assert shapes["patch_embed.w"] == (100, e)
            assert shapes["enc.2.mlp.w1"] == (e, 4 * e)
            assert shapes["dec.2.mlp.w2"] == (4 * d, d)
            assert "enc.3.ln1.g" not in shapes and "dec.3.ln1.g" not in shapes
            assert shapes["recon_head.w"] == (d, 100)


DROP = object()   # a header key to delete


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, tiny_model):
        path = tmp_path / "model.ckpt"
        save_model(tiny_model, path, provenance="abc123")
        back = load_model(path)
        assert back.config == tiny_model.config
        assert back.provenance == "abc123"
        assert set(back.params) == set(tiny_model.params)
        for name, tensor in tiny_model.params.items():
            assert np.array_equal(back.params[name], tensor), name

    def test_copies_keep_provenance(self, tmp_path, tiny_model):
        path = tmp_path / "model.ckpt"
        save_model(tiny_model, path, provenance="abc123")
        back = load_model(path)
        assert back.copy().provenance == "abc123"
        assert back.astype(np.float64).provenance == "abc123"

    def test_round_trip_with_reg_head(self, tmp_path, tiny_model):
        model = attach_regression_head(tiny_model, seed=2)
        path = tmp_path / "reg.ckpt"
        save_model(model, path)
        back = load_model(path)
        assert back.has_reg_head and not back.has_decoder
        img = rand_image(9)
        assert forward_regress(back, img) == forward_regress(model, img)

    def test_corrupted_magic(self, tmp_path, tiny_model):
        path = tmp_path / "model.ckpt"
        save_model(tiny_model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_model(path)

    def test_tampered_tensor_detected(self, tmp_path, tiny_model):
        path = tmp_path / "model.ckpt"
        save_model(tiny_model, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x55
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize("key, value, match", [
        ("e_dim", "x", "bad config value"),
        ("mask_ratio", None, "bad config value"),
        ("n_blocks", [3], "bad config value"),
        ("e_dim", DROP, "missing config field 'e_dim'"),
        ("has_decoder", DROP, "missing config field 'has_decoder'"),
        ("n_blocks", 2, "n_blocks = 2, not 3"),
        ("e_heads", 6, "e_heads = 6, not 3"),
        ("d_heads", 4, "d_heads = 4, not 2"),
        ("patch_size", 20, "patch_size = 20, not 10"),
        ("mlp_ratio", 2, "mlp_ratio = 2, not 4"),
        ("d_dim", 32, "no family member"),
    ])
    def test_bad_config_header_rejected(self, tmp_path, tiny_model, key, value, match):
        path = tmp_path / "model.ckpt"
        save_model(tiny_model, path)
        meta, tensors = read_container(path, CHECKPOINT_MAGIC)
        if value is DROP:
            del meta[key]
        else:
            meta[key] = value
        write_container(path, CHECKPOINT_MAGIC, meta, tensors)
        with pytest.raises(FormatError, match=match):
            load_model(path)

    @pytest.mark.parametrize("spoil, match", [
        (lambda meta, t: t.pop("patch_embed.w"), r"tensor set mismatch near \['patch_embed.w'\]"),
        (lambda meta, t: t.update(extra=np.zeros(3)), r"tensor set mismatch near \['extra'\]"),
        (lambda meta, t: meta.update(has_reg_head=True), "tensor set mismatch near"),
        (lambda meta, t: t.update({"patch_embed.b": np.zeros(25)}),
         r"tensor patch_embed.b has shape \(25,\), expected \(24,\)"),
        (lambda meta, t: t.update({"patch_embed.w": t["patch_embed.w"].T}),
         "tensor patch_embed.w has shape"),
    ], ids=["missing", "extra", "head-without-tensors", "length", "transposed"])
    def test_bad_tensors_rejected(self, tmp_path, tiny_model, spoil, match):
        # written with a valid CRC, so only the tensor check can refuse it
        path = tmp_path / "model.ckpt"
        save_model(tiny_model, path)
        meta, tensors = read_container(path, CHECKPOINT_MAGIC)
        spoil(meta, tensors)
        write_container(path, CHECKPOINT_MAGIC, meta, tensors)
        with pytest.raises(FormatError, match=match):
            load_model(path)

    def test_header_spells_out_the_architecture(self, tmp_path, tiny_model):
        path = tmp_path / "model.ckpt"
        save_model(tiny_model, path, provenance="abc123")
        meta, _ = read_container(path, CHECKPOINT_MAGIC)
        want = {"e_dim": 24, "d_dim": 16, "n_blocks": 3, "patch_size": 10,
                "mask_ratio": 0.8, "e_heads": 3, "d_heads": 2, "mlp_ratio": 4,
                "has_decoder": True, "has_reg_head": False, "provenance": "abc123"}
        # as JSON text, so that an integer written as a float would show
        assert json.dumps(meta, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_checkpoint_48_32_under_0p7_mb(self, tmp_path):
        model = build_model(ModelConfig(e_dim=48, d_dim=32), seed=0)
        path = tmp_path / "m48.ckpt"
        save_model(model, path)
        assert path.stat().st_size < 0.7 * 1e6
