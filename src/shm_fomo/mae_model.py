"""Masked autoencoder over spectrogram patches, plus its regression variant.

The model is a flat dict of named numpy arrays: a linear patch embedding, an
``N_BLOCKS``-block pre-norm transformer encoder, a trainable mask token, a
decoder of as many blocks reconstructing masked patches, and (after the head
swap for traffic estimation) a single linear output neuron on the mean-pooled
latents. Positional tables are fixed 2-D sinusoids and are not trained or
persisted. A model is a member of ``SIZE_FAMILY``, which sets its widths and
head counts; every member cuts ``PATCH_SIZE``-pixel patches (``NUM_PATCHES``
on a ``GRID`` x ``GRID`` grid, ``PATCH_DIM`` values each) and has MLPs
``MLP_RATIO`` times as wide as their block.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import nn_core
from .errors import ConfigError, FormatError
from .io_formats import read_container, write_container
from .signal_pipeline import SPEC_SIZE

CHECKPOINT_MAGIC = b"MAEC"

# (encoder width, decoder width) of each member, halving from the largest,
# to its (encoder heads, decoder heads); per-head width is at least 8
SIZE_FAMILY = {(768, 512): (12, 8), (384, 256): (6, 8), (192, 128): (3, 4),
               (96, 64): (3, 4), (48, 32): (3, 4), (24, 16): (3, 2)}

N_BLOCKS = 3
PATCH_SIZE = 10
MLP_RATIO = 4
GRID = SPEC_SIZE // PATCH_SIZE
NUM_PATCHES = GRID ** 2
PATCH_DIM = PATCH_SIZE ** 2

INIT_STD = 0.02

# windows per forward pass when scoring many windows; bounds the activations
# held at once, which the scoring pass frees block by block
EVAL_BATCH = 16


@dataclass(frozen=True)
class ModelConfig:
    """One member of the size family and the ratio it masks patches at."""

    e_dim: int = 768
    d_dim: int = 512
    mask_ratio: float = 0.8

    def __post_init__(self):
        if (self.e_dim, self.d_dim) not in SIZE_FAMILY:
            raise ConfigError(f"(e_dim, d_dim) = ({self.e_dim}, {self.d_dim}) is no "
                              f"family member; pick one of {list(SIZE_FAMILY)}")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ConfigError(f"mask_ratio must be in [0,1), got {self.mask_ratio}")

    @property
    def e_heads(self) -> int:
        return SIZE_FAMILY[self.e_dim, self.d_dim][0]

    @property
    def d_heads(self) -> int:
        return SIZE_FAMILY[self.e_dim, self.d_dim][1]


def param_shapes(cfg: ModelConfig, with_decoder: bool = True,
                 with_reg_head: bool = False) -> dict[str, tuple]:
    """Shape table for every trainable tensor."""
    shapes = {
        "patch_embed.w": (PATCH_DIM, cfg.e_dim),
        "patch_embed.b": (cfg.e_dim,),
    }

    def add_side(side: str, dim: int):
        hidden = dim * MLP_RATIO
        for i in range(N_BLOCKS):
            pre = f"{side}.{i}"
            shapes.update({
                f"{pre}.ln1.g": (dim,), f"{pre}.ln1.b": (dim,),
                f"{pre}.attn.wq": (dim, dim), f"{pre}.attn.bq": (dim,),
                f"{pre}.attn.wk": (dim, dim), f"{pre}.attn.bk": (dim,),
                f"{pre}.attn.wv": (dim, dim), f"{pre}.attn.bv": (dim,),
                f"{pre}.attn.wo": (dim, dim), f"{pre}.attn.bo": (dim,),
                f"{pre}.ln2.g": (dim,), f"{pre}.ln2.b": (dim,),
                f"{pre}.mlp.w1": (dim, hidden), f"{pre}.mlp.b1": (hidden,),
                f"{pre}.mlp.w2": (hidden, dim), f"{pre}.mlp.b2": (dim,),
            })
        shapes[f"{side}.norm.g"] = (dim,)
        shapes[f"{side}.norm.b"] = (dim,)

    add_side("enc", cfg.e_dim)
    if with_decoder:
        add_side("dec", cfg.d_dim)
        shapes.update({
            "enc_to_dec.w": (cfg.e_dim, cfg.d_dim), "enc_to_dec.b": (cfg.d_dim,),
            "mask_token": (cfg.d_dim,),
            "recon_head.w": (cfg.d_dim, PATCH_DIM), "recon_head.b": (PATCH_DIM,),
        })
    if with_reg_head:
        shapes.update({"reg_head.w": (cfg.e_dim, 1), "reg_head.b": (1,)})
    return shapes


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) resampled until within +-2 std, like standard ViT init."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x


@dataclass
class MaeModel:
    """Parameter set plus fixed positional tables for one configuration;
    ``provenance`` is that of the checkpoint it was loaded from."""

    config: ModelConfig
    params: dict[str, np.ndarray]
    enc_pos: np.ndarray = field(repr=False, default=None)
    dec_pos: np.ndarray = field(repr=False, default=None)
    provenance: str = ""

    def __post_init__(self):
        dtype = self.dtype
        if self.enc_pos is None:
            self.enc_pos = nn_core.sincos_table_2d(GRID, self.config.e_dim).astype(dtype)
        if self.dec_pos is None and self.has_decoder:
            self.dec_pos = nn_core.sincos_table_2d(GRID, self.config.d_dim).astype(dtype)

    @property
    def dtype(self):
        return self.params["patch_embed.w"].dtype

    @property
    def has_decoder(self) -> bool:
        return "mask_token" in self.params

    @property
    def has_reg_head(self) -> bool:
        return "reg_head.w" in self.params

    def n_params(self) -> int:
        return sum(int(p.size) for p in self.params.values())

    def copy(self) -> "MaeModel":
        return MaeModel(config=self.config,
                        params={k: v.copy() for k, v in self.params.items()},
                        enc_pos=self.enc_pos, dec_pos=self.dec_pos)

    def astype(self, dtype) -> "MaeModel":
        return MaeModel(config=self.config,
                        params={k: v.astype(dtype) for k, v in self.params.items()})


def build_model(cfg: ModelConfig, seed: int, dtype=np.float32) -> MaeModel:
    """A freshly initialized encoder-decoder, its tensors drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(cfg).items():
        if name == "mask_token":
            arr = rng.normal(0.0, INIT_STD, size=shape)
        elif name.endswith(".g"):
            arr = np.ones(shape)
        elif name.endswith((".b", ".bq", ".bk", ".bv", ".bo")):
            arr = np.zeros(shape)
        else:
            arr = _trunc_normal(rng, shape, INIT_STD)
        params[name] = arr.astype(dtype)
    return MaeModel(config=cfg, params=params)


def attach_regression_head(model: MaeModel, seed: int) -> MaeModel:
    """Drop the decoder and append the single-output linear head."""
    cfg = model.config
    params = {k: v.copy() for k, v in model.params.items()
              if k.startswith(("patch_embed", "enc."))}
    rng = np.random.default_rng(seed)
    params["reg_head.w"] = _trunc_normal(rng, (cfg.e_dim, 1), INIT_STD).astype(model.dtype)
    params["reg_head.b"] = np.zeros((1,), dtype=model.dtype)
    return MaeModel(config=cfg, params=params)


# ---------------------------------------------------------------------------
# patches and masking


def patchify(images: np.ndarray, patch_size: int) -> np.ndarray:
    """Split each square image of a (b, h, w) batch into a row-major grid of
    flattened patches: (b, patches, patch_size ** 2)."""
    b, h, w = images.shape
    if h % patch_size or w % patch_size:
        raise ConfigError(f"patch_size {patch_size} does not divide image {h}x{w}")
    g = h // patch_size
    return (images.reshape(b, g, patch_size, g, patch_size)
            .transpose(0, 1, 3, 2, 4)
            .reshape(b, g * g, patch_size * patch_size))


def sample_mask(num_patches: int, p: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(masked_idx, visible_idx): a uniformly random subset of exactly
    round(p * num_patches) masked indices, drawn from ``seed``."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"mask ratio must be in [0,1), got {p}")
    n_mask = int(round(p * num_patches))
    perm = np.random.default_rng(seed).permutation(num_patches)
    return np.sort(perm[:n_mask]), np.sort(perm[n_mask:])


def sample_mask_batch(num_patches: int, p: float, batch: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Batch masking: (masked_idx, visible_idx) arrays of shape (batch, ...)."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"mask ratio must be in [0,1), got {p}")
    n_mask = int(round(p * num_patches))
    order = np.argsort(rng.random((batch, num_patches)), axis=1, kind="stable")
    return np.sort(order[:, :n_mask], axis=1), np.sort(order[:, n_mask:], axis=1)


# ---------------------------------------------------------------------------
# forward / backward


def _stack(x: np.ndarray, p: dict, side: str, n_heads: int, keep_cache: bool):
    """``nn_core.stack_fwd``; without ``keep_cache`` each block's activations,
    which only backward reads, are freed as soon as the next block starts."""
    if keep_cache:
        return nn_core.stack_fwd(x, p, side, N_BLOCKS, n_heads)
    for i in range(N_BLOCKS):
        x, _ = nn_core.block_fwd(x, p, f"{side}.{i}", n_heads)
    y, _ = nn_core.layernorm_fwd(x, p[f"{side}.norm.g"], p[f"{side}.norm.b"])
    return y, None


def _rows(idx: np.ndarray) -> np.ndarray:
    """Row index that pairs with per-row patch indices ``idx`` of shape (b, k):
    ``a[_rows(idx), idx]`` gathers whole patch rows, shape (b, k, d)."""
    return np.arange(idx.shape[0])[:, None]


def _patches(model: MaeModel, images: np.ndarray) -> np.ndarray:
    return patchify(np.asarray(images), PATCH_SIZE).astype(model.dtype, copy=False)


def _encode_batch(model: MaeModel, patches: np.ndarray,
                  visible_idx: Optional[np.ndarray], keep_cache: bool = True):
    cfg = model.config
    p = model.params
    if visible_idx is None:
        vis_patches = patches
        pos = model.enc_pos[None, :, :]
    else:
        vis_patches = patches[_rows(visible_idx), visible_idx]
        pos = model.enc_pos[visible_idx]
    tokens = nn_core.linear_fwd(vis_patches, p["patch_embed.w"], p["patch_embed.b"])
    tokens += pos
    latents, stack_cache = _stack(tokens, p, "enc", cfg.e_heads, keep_cache)
    return latents, (vis_patches, stack_cache)


def _encode_backward(model: MaeModel, dlatents: np.ndarray, cache) -> dict:
    cfg = model.config
    vis_patches, stack_cache = cache
    dtokens, grads = nn_core.stack_bwd(dlatents, stack_cache, model.params,
                                       "enc", N_BLOCKS, cfg.e_heads)
    grads["patch_embed.w"], grads["patch_embed.b"] = nn_core.linear_param_grads(
        dtokens, vis_patches)
    return grads


def _decode_batch(model: MaeModel, latents: np.ndarray, masked_idx: np.ndarray,
                  visible_idx: np.ndarray, keep_cache: bool = True):
    cfg = model.config
    p = model.params
    b = latents.shape[0]
    z = nn_core.linear_fwd(latents, p["enc_to_dec.w"], p["enc_to_dec.b"])
    tokens = np.empty((b, NUM_PATCHES, cfg.d_dim), dtype=p["mask_token"].dtype)
    tokens[...] = p["mask_token"]
    tokens[_rows(visible_idx), visible_idx] = z
    tokens += model.dec_pos
    hidden, stack_cache = _stack(tokens, p, "dec", cfg.d_heads, keep_cache)
    pred_patches = nn_core.linear_fwd(hidden, p["recon_head.w"], p["recon_head.b"])
    return pred_patches, (latents, hidden, stack_cache, masked_idx, visible_idx)


def _decode_backward(model: MaeModel, dmasked: np.ndarray, cache):
    """Backward from ``dmasked``, the loss gradient at each row's masked patches."""
    cfg = model.config
    p = model.params
    latents, hidden, stack_cache, masked_idx, visible_idx = cache
    grads = {}
    dpred = np.zeros(hidden.shape[:2] + (PATCH_DIM,), dtype=model.dtype)
    dpred[_rows(masked_idx), masked_idx] = dmasked
    del dmasked
    dhidden, grads["recon_head.w"], grads["recon_head.b"] = nn_core.linear_bwd(
        dpred, hidden, p["recon_head.w"])
    del dpred
    dtokens, stack_grads = nn_core.stack_bwd(dhidden, stack_cache, p,
                                             "dec", N_BLOCKS, cfg.d_heads)
    grads.update(stack_grads)
    rows = _rows(visible_idx)
    dz = dtokens[rows, visible_idx]
    dmasked = dtokens[rows, masked_idx]
    grads["mask_token"] = dmasked.sum(axis=(0, 1))
    dlatents, grads["enc_to_dec.w"], grads["enc_to_dec.b"] = nn_core.linear_bwd(
        dz, latents, p["enc_to_dec.w"])
    return dlatents, grads


def _masked_diff(pred_patches: np.ndarray, true_patches: np.ndarray,
                 masked_idx: np.ndarray) -> np.ndarray:
    """Predicted minus true patches at each row's masked positions."""
    if masked_idx.shape[1] == 0:
        raise ConfigError("masked-patch error is undefined: the mask ratio "
                          "leaves no patch masked")
    rows = _rows(masked_idx)
    diff = pred_patches[rows, masked_idx]
    diff -= true_patches[rows, masked_idx]
    return diff


def pretrain_forward_batch(model: MaeModel, images: np.ndarray,
                           masked_idx: np.ndarray, visible_idx: np.ndarray):
    """Batched masked reconstruction; returns (loss, cache for backward)."""
    patches = _patches(model, images)
    latents, enc_cache = _encode_batch(model, patches, visible_idx)
    pred_patches, dec_cache = _decode_batch(model, latents, masked_idx, visible_idx)
    diff = _masked_diff(pred_patches, patches, masked_idx)
    del patches, pred_patches   # not held while the loss is taken
    d2 = diff.astype(np.float64)
    d2 *= d2
    loss = float(np.mean(d2))
    return loss, (enc_cache, dec_cache, diff)


def pretrain_backward(model: MaeModel, cache) -> dict:
    enc_cache, dec_cache, diff = cache
    scale = np.asarray(2.0 / diff.size, dtype=model.dtype)
    dlatents, grads = _decode_backward(model, diff * scale, dec_cache)
    grads.update(_encode_backward(model, dlatents, enc_cache))
    return grads


def _require_reg_head(model: MaeModel) -> None:
    if not model.has_reg_head:
        raise ConfigError("model has no regression head; attach one first")


def _pooled_head(model: MaeModel, latents: np.ndarray):
    """(pooled latents, predictions): the linear head on mean-pooled latents.

    The head runs one product per window, as the encoder does, so a window's
    prediction does not depend on the batch around it.
    """
    pooled = np.add.reduce(latents, axis=1)
    pooled /= latents.shape[1]
    yhat = nn_core.linear_fwd(pooled[:, None, :], model.params["reg_head.w"],
                              model.params["reg_head.b"])[:, 0, 0]
    return pooled, yhat


def regress_forward_batch(model: MaeModel, images: np.ndarray):
    """Predictions for a batch: linear head on mean-pooled full-image latents."""
    _require_reg_head(model)
    latents, enc_cache = _encode_batch(model, _patches(model, images), None)
    pooled, yhat = _pooled_head(model, latents)
    return yhat, (enc_cache, latents, pooled)


def regress_backward(model: MaeModel, cache, dyhat: np.ndarray) -> dict:
    enc_cache, latents, pooled = cache
    dy = dyhat[:, None].astype(model.dtype)
    dpooled, dw, db = nn_core.linear_bwd(dy, pooled, model.params["reg_head.w"])
    dlatents = np.repeat(dpooled[:, None, :], latents.shape[1], axis=1) / latents.shape[1]
    grads = _encode_backward(model, dlatents.astype(model.dtype, copy=False), enc_cache)
    grads["reg_head.w"] = dw
    grads["reg_head.b"] = db
    return grads


def regress_predictions(model: MaeModel, images) -> np.ndarray:
    """Predictions for a sequence of images, of the model's dtype and shape (n,).

    EVAL_BATCH images at a time are stacked and go through the model without
    backward caches, so memory is bounded by one chunk whatever the number of
    images. Each prediction is bit-identical to ``forward_regress`` of its
    image alone.
    """
    _require_reg_head(model)
    yhat = np.empty(len(images), dtype=model.dtype)
    for start in range(0, len(images), EVAL_BATCH):
        chunk = np.stack(images[start:start + EVAL_BATCH])
        latents, _ = _encode_batch(model, _patches(model, chunk), None, keep_cache=False)
        yhat[start:start + EVAL_BATCH] = _pooled_head(model, latents)[1]
    return yhat


def forward_regress(model: MaeModel, image: np.ndarray) -> float:
    """Scalar traffic prediction for one spectrogram."""
    return float(regress_predictions(model, image[None])[0])


def _masked_errors(model: MaeModel, images: np.ndarray, seeds) -> np.ndarray:
    """Masked-patch MSE of each image under the evaluation mask of its seed,
    all images in one forward pass."""
    if not model.has_decoder:
        raise ConfigError("reconstruction error needs the decoder")
    cfg = model.config
    masks = [sample_mask(NUM_PATCHES, cfg.mask_ratio, seed) for seed in seeds]
    masked_idx, visible_idx = (np.stack(idx) for idx in zip(*masks))
    patches = _patches(model, images)
    latents, _ = _encode_batch(model, patches, visible_idx, keep_cache=False)
    pred_patches, _ = _decode_batch(model, latents, masked_idx, visible_idx,
                                    keep_cache=False)
    d2 = _masked_diff(pred_patches, patches, masked_idx).astype(np.float64)
    d2 = d2.reshape(len(masks), -1)
    d2 *= d2
    errors = np.add.reduce(d2, axis=1)
    errors /= d2.shape[1]
    return errors


def reconstruction_error(model: MaeModel, image: np.ndarray, eval_seed: int) -> float:
    """Masked-patch MSE under a deterministic evaluation mask.

    The mask is drawn with the model's training ratio from ``eval_seed`` so the
    error for a given window is bit-reproducible.
    """
    return float(_masked_errors(model, image[None], [eval_seed])[0])


def reconstruction_errors(model: MaeModel, windows, base_seed: int = 0) -> np.ndarray:
    """Reconstruction errors of a sequence of windows, as float64 of shape (n,).

    Window ``i`` is scored under the evaluation mask of seed ``base_seed ^ i``.
    Windows go through the model EVAL_BATCH at a time, so memory is bounded
    by one chunk whatever the number of windows, and each error is bit-identical
    to ``reconstruction_error(model, windows[i].image, base_seed ^ i)``.
    """
    errors = np.empty(len(windows))
    for start in range(0, len(windows), EVAL_BATCH):
        stop = min(start + EVAL_BATCH, len(windows))
        errors[start:stop] = _masked_errors(
            model, np.stack([w.image for w in windows[start:stop]]),
            [base_seed ^ i for i in range(start, stop)])
    return errors


# ---------------------------------------------------------------------------
# persistence


def _architecture(cfg: ModelConfig) -> dict:
    """The checkpoint header's model keys: the config, and the constants and
    head counts of its family member, so readers need no family table."""
    return {"e_dim": cfg.e_dim, "d_dim": cfg.d_dim, "mask_ratio": cfg.mask_ratio,
            "n_blocks": N_BLOCKS, "patch_size": PATCH_SIZE, "mlp_ratio": MLP_RATIO,
            "e_heads": cfg.e_heads, "d_heads": cfg.d_heads}


def save_model(model: MaeModel, path, provenance: str = "") -> None:
    """Self-describing checkpoint: architecture header + named f32 tensors."""
    meta = {**_architecture(model.config), "has_decoder": model.has_decoder,
            "has_reg_head": model.has_reg_head, "provenance": provenance}
    write_container(path, CHECKPOINT_MAGIC, meta, model.params)


def load_model(path) -> MaeModel:
    """The model of a checkpoint. Every architecture value in its header must
    be the one its (e_dim, d_dim) family member has: tensors of the right
    shapes under other head counts would load and compute something else."""
    meta, tensors = read_container(path, CHECKPOINT_MAGIC)
    try:
        cfg = ModelConfig(**{f.name: type(f.default)(meta[f.name])
                             for f in fields(ModelConfig)})
        wrong = [f"{key} = {meta[key]!r}, not {value!r}"
                 for key, value in _architecture(cfg).items() if meta[key] != value]
        expected = param_shapes(cfg, with_decoder=bool(meta["has_decoder"]),
                                with_reg_head=bool(meta["has_reg_head"]))
    except KeyError as exc:
        raise FormatError(f"{path}: missing config field {exc}") from exc
    except (TypeError, ValueError, ConfigError) as exc:
        raise FormatError(f"{path}: bad config value ({exc})") from exc
    if wrong:
        raise FormatError(f"{path}: bad config value ({'; '.join(wrong)}) for the "
                          f"{cfg.e_dim}/{cfg.d_dim} family member")
    if set(expected) != set(tensors):
        missing = sorted(set(expected) ^ set(tensors))
        raise FormatError(f"{path}: tensor set mismatch near {missing[:4]}")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise FormatError(
                f"{path}: tensor {name} has shape {tensors[name].shape}, "
                f"expected {shape}")
    return MaeModel(config=cfg, params=tensors, provenance=meta.get("provenance", ""))
