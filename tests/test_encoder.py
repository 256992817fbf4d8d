"""Patch embedding, adaptive average pooling, and the image token path."""

import numpy as np
import pytest

from unifilter.classifier import ModelConfig, assemble, init_params
from unifilter.common import DataError, child_rng
from unifilter.encoder import (
    EncoderConfig,
    PatchGrid,
    adaptive_avg_pool_2d,
    image_tokens,
    init_projector,
    patch_embed_weights,
    patchify_embed,
    project,
)
from unifilter.packing import Vocab
from unifilter.records import CaptionSample, ImagePayload


def test_pool_4x4_to_2x2_oracle():
    grid = np.arange(1.0, 17.0).reshape(4, 4)
    vecs = grid[:, :, None]  # single feature dim
    pooled = adaptive_avg_pool_2d(PatchGrid(h=4, w=4, vecs=vecs), t=2)
    assert np.array_equal(pooled[:, :, 0], np.array([[3.5, 5.5], [11.5, 13.5]]))


def test_pool_identity_when_grid_matches_t():
    rng = child_rng(0, "pool-id")
    vecs = rng.normal(size=(3, 3, 5))
    pooled = adaptive_avg_pool_2d(PatchGrid(h=3, w=3, vecs=vecs), t=3)
    assert np.array_equal(pooled, vecs)


def test_pool_conserves_mean_on_divisible_grids():
    rng = child_rng(0, "pool-mean")
    for h, w, t in [(8, 8, 2), (12, 12, 4), (6, 9, 3), (16, 16, 4)]:
        vecs = rng.normal(size=(h, w, 4))
        pooled = adaptive_avg_pool_2d(PatchGrid(h=h, w=w, vecs=vecs), t=t)
        assert abs(pooled.mean() - vecs.mean()) < 1e-9


def _pool_by_loop(vecs, t):
    """Reference pooling, cell by cell: the mean over rows
    [floor(i*h/t), ceil((i+1)*h/t)) and the same span of columns."""
    h, w, _ = vecs.shape
    out = np.empty((t, t, vecs.shape[2]))
    for i in range(t):
        for j in range(t):
            cell = vecs[i * h // t:-(-(i + 1) * h // t), j * w // t:-(-(j + 1) * w // t)]
            out[i, j] = cell.mean(axis=(0, 1))
    return out


def test_pool_matches_the_per_cell_loop():
    # the same sums in another order: equal within the rounding of the largest cell's sum
    rng = child_rng(0, "pool-loop")
    for h, w, t in [(16, 16, 4), (8, 12, 4), (5, 7, 3), (7, 5, 4), (13, 9, 6), (20, 11, 7),
                    (9, 9, 2), (3, 10, 3)]:
        vecs = 1e3 * rng.normal(size=(h, w, 3))
        pooled = adaptive_avg_pool_2d(PatchGrid(h=h, w=w, vecs=vecs), t=t)
        largest = (-(-h // t) + 1) * (-(-w // t) + 1)     # entries in a cell, at most
        bound = largest * np.finfo(np.float64).eps * np.abs(vecs).max()
        assert np.abs(pooled - _pool_by_loop(vecs, t)).max() <= bound, (h, w, t)


def test_pool_handles_non_divisible_grids():
    rng = child_rng(0, "pool-odd")
    vecs = rng.normal(size=(5, 7, 2))
    pooled = adaptive_avg_pool_2d(PatchGrid(h=5, w=7, vecs=vecs), t=3)
    assert pooled.shape == (3, 3, 2)
    # every pooled cell is a mean of inputs, so it stays inside their range
    assert pooled.min() >= vecs.min() - 1e-12
    assert pooled.max() <= vecs.max() + 1e-12


def test_pool_rejects_grids_smaller_than_t():
    vecs = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
    with pytest.raises(DataError):
        adaptive_avg_pool_2d(PatchGrid(h=2, w=2, vecs=vecs), t=4)


def test_pool_constant_grid_stays_constant():
    vecs = np.full((7, 5, 3), 2.25)
    pooled = adaptive_avg_pool_2d(PatchGrid(h=7, w=5, vecs=vecs), t=4)
    assert np.allclose(pooled, 2.25, atol=1e-12)


def test_t12_yields_144_tokens():
    cfg = EncoderConfig(patch_size=4, d_v=8, t=12, d=32, seed=0)
    assert cfg.tokens_per_image() == 144
    rng = child_rng(0, "t12")
    payload = ImagePayload(pixels=rng.uniform(size=(3, 48, 48)))
    params = init_projector(cfg, child_rng(0, "proj"))
    tokens, _ = image_tokens(payload, cfg, params)
    assert tokens.shape == (144, 32)


def test_patchify_channel_major_flatten_oracle():
    cfg = EncoderConfig(patch_size=2, d_v=4, t=2, d=8, seed=5)
    pixels = np.arange(2 * 4 * 4, dtype=float).reshape(2, 4, 4)
    grid = patchify_embed(ImagePayload(pixels=pixels), cfg)
    assert (grid.h, grid.w) == (2, 2)
    w, b = patch_embed_weights(cfg, channels=2)
    # top-left patch: channel 0 block then channel 1 block, row-major
    flat = np.concatenate([pixels[0, :2, :2].ravel(), pixels[1, :2, :2].ravel()])
    assert np.allclose(grid.vecs[0, 0], flat @ w + b, atol=1e-12)


def test_patch_embed_weights_are_deterministic_per_seed():
    cfg = EncoderConfig(patch_size=4, d_v=8, t=4, d=16, seed=3)
    w1, b1 = patch_embed_weights(cfg, channels=1)
    w2, b2 = patch_embed_weights(cfg, channels=1)
    assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
    other = EncoderConfig(patch_size=4, d_v=8, t=4, d=16, seed=4)
    w3, _ = patch_embed_weights(other, channels=1)
    assert not np.array_equal(w1, w3)


def test_patch_grid_payload_passes_through():
    cfg = EncoderConfig(patch_size=4, d_v=6, t=2, d=8, seed=0)
    rng = child_rng(0, "pg")
    for width in (6, 7):        # any width; only assembly, which projects, needs d_v
        patches = rng.normal(size=(3, 5, width))
        grid = patchify_embed(ImagePayload(patches=patches), cfg)
        assert np.array_equal(grid.vecs, patches)
    mcfg = ModelConfig(d=8, n_layers=1, n_heads=2, max_seq_len=32, encoder=cfg)
    vocab = Vocab(words=["fox"])
    params = init_params(mcfg, len(vocab), child_rng(0, "init"))
    wide = CaptionSample(id="w", image=ImagePayload(patches=patches), text="fox")
    with pytest.raises(DataError, match="precomputed patch grid has dim 7, encoder expects 6"):
        assemble(wide, mcfg, vocab, params)


def test_pixels_must_divide_by_patch_size():
    cfg = EncoderConfig(patch_size=4, d_v=8, t=2, d=8, seed=0)
    with pytest.raises(DataError):
        patchify_embed(ImagePayload(pixels=np.zeros((1, 10, 12))), cfg)


def test_projector_output_shape_and_determinism():
    cfg = EncoderConfig(patch_size=4, d_v=8, t=4, d=32, seed=1)
    params = init_projector(cfg, child_rng(1, "proj"))
    rng = child_rng(0, "img")
    payload = ImagePayload(pixels=rng.uniform(size=(1, 16, 16)))
    t1, _ = image_tokens(payload, cfg, params)
    t2, _ = image_tokens(payload, cfg, params)
    assert t1.shape == (16, 32)
    assert np.array_equal(t1, t2)


def test_project_backward_matches_finite_differences():
    from unifilter.encoder import project_backward
    from unifilter.nn import grad_check

    cfg = EncoderConfig(patch_size=2, d_v=4, t=2, d=6, seed=0)
    rng = child_rng(2, "projgrad")
    pooled = rng.normal(size=(cfg.t, cfg.t, cfg.d_v))
    params = init_projector(cfg, rng)

    def f(p):
        y, cache = project(pooled, p)
        loss = float((y ** 2).sum())
        return loss, project_backward(2.0 * y, cache)

    assert grad_check(f, params) < 1e-4
