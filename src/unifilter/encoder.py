"""Image side of the model: frozen patch embedding, pooling, projection.

Pixels are cut into non-overlapping P x P patches and mapped to d_v-dim
vectors by a linear layer whose weights are derived from the encoder seed and
never trained (the stand-in for a frozen pretrained vision tower).  The patch
grid is then reduced to t x t cells by 2-D adaptive average pooling and each
pooled vector runs through a trainable 2-layer GELU MLP into the model width.
Every image therefore contributes exactly t*t tokens regardless of its size.

Pooling cell (i, j) averages grid rows [floor(i*H/t), ceil((i+1)*H/t)) and the
analogous column span, so cells tile the grid, overlap at fractional
boundaries, and reduce to plain block averaging whenever t divides H and W.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .common import DataError, check_counts, check_field, child_rng
from .nn import gelu, gelu_backward, linear, linear_backward
from .records import ImagePayload


@dataclass
class EncoderConfig:
    patch_size: int = 4
    d_v: int = 8       # patch vector width
    t: int = 4         # pooled grid side; t*t tokens per image
    d: int = 64        # projector output width, must match the model width
    seed: int = 0

    def __post_init__(self):
        check_counts(self, "patch_size", "d_v", "t", "d")
        check_field(self, "seed", lambda v: isinstance(v, int) and v >= 0, "an integer >= 0")

    def tokens_per_image(self) -> int:
        return self.t * self.t


@dataclass
class PatchGrid:
    h: int
    w: int
    vecs: np.ndarray  # (h, w, d_v)


@cache
def _frozen_embed_weights(seed: int, patch_size: int, d_v: int, channels: int):
    rng = child_rng(seed, "patch_embed", channels)
    d_in = channels * patch_size * patch_size
    w = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_v))
    b = rng.normal(0.0, 0.5, size=(d_v,))
    return w, b


def patch_embed_weights(cfg: EncoderConfig, channels: int):
    """Frozen patch-embedding weights, a pure function of (seed, patch, d_v, channels)."""
    return _frozen_embed_weights(cfg.seed, cfg.patch_size, cfg.d_v, channels)


def patchify_embed(payload: ImagePayload, cfg: EncoderConfig) -> PatchGrid:
    """Pixels -> frozen patch vectors; precomputed grids pass through.

    Raises DataError when image dims are not divisible by the patch size, or
    when a precomputed grid's vector width disagrees with cfg.d_v.
    """
    if payload.patches is not None:
        h, w, dv = payload.patches.shape
        if dv != cfg.d_v:
            raise DataError(f"precomputed patch grid has dim {dv}, encoder expects {cfg.d_v}")
        return PatchGrid(h=h, w=w, vecs=payload.patches)

    pix = payload.pixels
    c, hh, ww = pix.shape
    p = cfg.patch_size
    if hh % p or ww % p:
        raise DataError(f"image {hh}x{ww} not divisible by patch size {p}")
    gh, gw = hh // p, ww // p
    w_emb, b_emb = patch_embed_weights(cfg, c)
    # (gh, gw, c*p*p) with channel-major patch flattening
    blocks = pix.reshape(c, gh, p, gw, p).transpose(1, 3, 0, 2, 4).reshape(gh, gw, c * p * p)
    vecs = blocks @ w_emb + b_emb
    return PatchGrid(h=gh, w=gw, vecs=vecs)


def adaptive_avg_pool_2d(grid: PatchGrid, t: int) -> np.ndarray:
    """Pool an (h, w, d_v) grid down to (t, t, d_v) with adaptive cells."""
    h, w = grid.h, grid.w
    if h < t or w < t:
        raise DataError(f"grid {h}x{w} smaller than pooled side {t}")
    out = np.empty((t, t, grid.vecs.shape[2]), dtype=grid.vecs.dtype)
    for i in range(t):
        r0 = (i * h) // t
        r1 = -((-(i + 1) * h) // t)  # ceil((i+1)*h / t)
        for j in range(t):
            c0 = (j * w) // t
            c1 = -((-(j + 1) * w) // t)
            out[i, j] = grid.vecs[r0:r1, c0:c1].mean(axis=(0, 1))
    return out


def projector_shapes(cfg: EncoderConfig):
    """(name, shape, init) of each trainable d_v -> d -> d MLP tensor (prefix-free names)."""
    yield "proj_w1", (cfg.d_v, cfg.d), "normal"
    yield "proj_b1", (cfg.d,), "zeros"
    yield "proj_w2", (cfg.d, cfg.d), "normal"
    yield "proj_b2", (cfg.d,), "zeros"


def init_tensors(layout, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """One tensor per (name, shape, init) of layout: N(0, 0.02) draws, in
    layout order, for "normal"; ones for "ones"; zeros otherwise."""
    return {name: rng.normal(0.0, 0.02, size=shape) if init == "normal"
            else (np.ones if init == "ones" else np.zeros)(shape)
            for name, shape, init in layout}


def init_projector(cfg: EncoderConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Trainable d_v -> d -> d MLP parameters (prefix-free names)."""
    return init_tensors(projector_shapes(cfg), rng)


def project(pooled: np.ndarray, params) -> tuple[np.ndarray, tuple]:
    """Pooled (t, t, d_v) -> (t*t, d) image tokens in row-major cell order."""
    t2 = pooled.shape[0] * pooled.shape[1]
    x = pooled.reshape(t2, -1)
    h1 = linear(x, params["proj_w1"], params["proj_b1"])
    g, cdf = gelu(h1)
    out = linear(g, params["proj_w2"], params["proj_b2"])
    return out, (x, h1, g, cdf, params)


def project_backward(dy, cache):
    """Gradients for the projector MLP; the pooled input is a frozen constant."""
    x, h1, g, cdf, params = cache
    dg, dw2, db2 = linear_backward(dy, g, params["proj_w2"])
    dh1 = gelu_backward(dg, h1, cdf)
    _, dw1, db1 = linear_backward(dh1, x, params["proj_w1"])
    return {"proj_w1": dw1, "proj_b1": db1, "proj_w2": dw2, "proj_b2": db2}


def image_tokens(payload: ImagePayload, cfg: EncoderConfig, proj_params):
    """Full image pipeline: patchify -> pool -> project.  Returns (tokens, cache)."""
    grid = patchify_embed(payload, cfg)
    pooled = adaptive_avg_pool_2d(grid, cfg.t)
    return project(pooled, proj_params)
