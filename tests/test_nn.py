"""Gradient checks per operation, optimizer recurrence, checkpoint format."""

import numpy as np
import pytest
from scipy.special import erf

from unifilter import nn
from unifilter.common import NumericError
from unifilter.nn import (
    LN_EPS,
    AdamConfig,
    adam_init,
    adam_step,
    causal_self_attention,
    causal_self_attention_backward,
    gelu,
    gelu_backward,
    grad_check,
    layer_norm,
    layer_norm_backward,
    linear,
    linear_backward,
    load_tensors,
    lr_at,
    save_tensors,
    softmax_rows,
    transformer_block,
    transformer_block_backward,
)

GRAD_TOL = 1e-4


def _rng(seed):
    return np.random.default_rng(seed)


def test_gelu_matches_erf_formula():
    x = np.concatenate([np.linspace(-4, 4, 41), _rng(12).normal(0.0, 3.0, size=1000)])
    # the argument is scaled by 1/sqrt(2), as the forward computes it;
    # x / sqrt(2) rounds differently in some entries
    erf_x = erf(x * (1.0 / np.sqrt(2.0)))
    y, cdf = gelu(x)
    assert np.array_equal(cdf, 0.5 * (1.0 + erf_x))
    assert np.array_equal(y, 0.5 * x * (1.0 + erf_x))


def test_gelu_gradient():
    rng = _rng(0)
    x0 = rng.normal(size=(3, 5))

    def f(params):
        y, cdf = gelu(params["x"])
        loss = float((y ** 2).sum())
        dx = gelu_backward(2.0 * y, params["x"], cdf)
        return loss, {"x": dx}

    assert grad_check(f, {"x": x0}) < GRAD_TOL


def test_linear_gradients():
    rng = _rng(1)
    x0 = rng.normal(size=(4, 3))
    params = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(2,)), "x": x0}

    def f(p):
        y = linear(p["x"], p["w"], p["b"])
        loss = float((y ** 2).sum())
        dx, dw, db = linear_backward(2.0 * y, p["x"], p["w"])
        return loss, {"w": dw, "b": db, "x": dx}

    assert grad_check(f, params) < GRAD_TOL


def test_layer_norm_output_is_standardized():
    rng = _rng(2)
    x = rng.normal(3.0, 10.0, size=(6, 16))
    y, _ = layer_norm(x, np.ones(16), np.zeros(16))
    assert np.abs(y.mean(axis=1)).max() < 1e-9
    # biased variance; eps keeps it just under 1
    assert np.abs(y.var(axis=1) - 1.0).max() < 1e-5


def test_layer_norm_gradients():
    rng = _rng(3)
    params = {"x": rng.normal(size=(4, 8)), "g": rng.normal(size=(8,)),
              "b": rng.normal(size=(8,))}

    def f(p):
        y, cache = layer_norm(p["x"], p["g"], p["b"])
        loss = float((y ** 3).sum())
        dx, dg, db = layer_norm_backward(3.0 * y ** 2, cache)
        return loss, {"x": dx, "g": dg, "b": db}

    assert grad_check(f, params) < GRAD_TOL


def test_softmax_rows_sum_to_one_and_handle_large_logits():
    rng = _rng(4)
    x = rng.normal(size=(5, 7)) * 500.0
    shifted = np.exp(x - x.max(axis=-1, keepdims=True))
    expected = shifted / shifted.sum(axis=-1, keepdims=True)
    p = softmax_rows(x)
    assert p is x  # overwritten in place
    assert np.array_equal(p, expected)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.isfinite(p).all()


def _attn_params(rng, d):
    p = {}
    for name in ("wq", "wk", "wv", "wo"):
        p[name] = rng.normal(0.0, 0.2, size=(d, d))
    for name in ("bq", "bk", "bv", "bo"):
        p[name] = rng.normal(0.0, 0.2, size=(d,))
    return p


def _attention_matrix(tiles, n):
    """The (heads, rows, n) attention that the cache's tiles hold, zeros above the diagonal."""
    m = sum(tile.shape[1] for tile in tiles)
    attn = np.zeros((tiles[0].shape[0], m, n))
    a = 0
    for tile in tiles:
        b = a + tile.shape[1]
        attn[:, a:b, :tile.shape[2]] = tile
        a = b
    return attn


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item)


def test_attention_is_causal():
    rng = _rng(5)
    d, n = 8, 150
    p = _attn_params(rng, d)
    x = rng.normal(size=(n, d))
    y1, _ = causal_self_attention(x, p, n_heads=2)
    x2 = x.copy()
    x2[100:] += 100.0  # only future positions move, in the second and third tiles
    y2, _ = causal_self_attention(x2, p, n_heads=2)
    assert np.array_equal(y1[:100], y2[:100])
    assert not np.array_equal(y1[100:], y2[100:])


@pytest.mark.parametrize("n", [1, 2, 9, 300])
def test_attention_matches_boolean_mask_reference(n):
    rng = _rng(13)
    d, n_heads = 8, 2
    p = _attn_params(rng, d)
    x = rng.normal(size=(n, d))
    out, cache = causal_self_attention(x, p, n_heads=n_heads)
    last, last_cache = causal_self_attention(x, p, n_heads=n_heads, last_only=True)

    # straight-line reference: separate arrays, boolean-mask assignment
    dh = d // n_heads
    qh, kh, vh = (linear(x, p["w" + c], p["b" + c]).reshape(n, n_heads, dh).transpose(1, 0, 2)
                  for c in "qkv")
    scores = (qh @ kh.transpose(0, 2, 1)) * (1.0 / np.sqrt(dh))
    scores[:, np.triu(np.ones((n, n), dtype=bool), k=1)] = -np.inf
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    expected = linear((attn @ vh).transpose(1, 0, 2).reshape(n, d), p["wo"], p["bo"])

    if n <= nn.ATTN_TILE:  # one tile does the reference's arithmetic exactly
        assert np.array_equal(_attention_matrix(cache[6], n), attn)
        assert np.array_equal(out, expected)
    else:  # softmax sums over rows of :b keys, not :n, round differently
        assert np.allclose(_attention_matrix(cache[6], n), attn, rtol=0.0, atol=1e-12)
        assert np.allclose(out, expected, rtol=0.0, atol=1e-12)
    # the last row alone needs no mask; it equals the reference up to rounding
    assert last.shape == (1, d)
    assert np.allclose(_attention_matrix(last_cache[6], n), attn[:, -1:], rtol=0.0, atol=1e-12)
    assert np.allclose(last, expected[-1:], rtol=0.0, atol=1e-12)


def test_attention_builds_no_n_by_n_array(monkeypatch):
    rng = _rng(15)
    d, n, n_heads = 8, 300, 2
    p = _attn_params(rng, d)
    x = rng.normal(size=(n, d))
    softmax_shapes = []

    def recording_softmax(s):
        softmax_shapes.append(s.shape)
        return softmax_rows(s)

    monkeypatch.setattr(nn, "softmax_rows", recording_softmax)
    _, cache = causal_self_attention(x, p, n_heads=n_heads)
    limit = n_heads * nn.ATTN_TILE * n  # (heads, ATTN_TILE, n)
    assert max(a.size for a in _arrays(cache)) <= limit
    # each tile's softmax sees only the keys its rows can see
    assert softmax_shapes == [(n_heads, min(nn.ATTN_TILE, n - a), min(a + nn.ATTN_TILE, n))
                              for a in range(0, n, nn.ATTN_TILE)]


def test_attention_gradients(monkeypatch):
    monkeypatch.setattr(nn, "ATTN_TILE", 2)  # n = 5 runs as tiles of 2, 2 and 1 rows
    rng = _rng(6)
    d, n = 8, 5
    params = _attn_params(rng, d)
    params["x"] = rng.normal(size=(n, d))

    def f(p):
        attn_p = {k: v for k, v in p.items() if k != "x"}
        y, cache = causal_self_attention(p["x"], attn_p, n_heads=2)
        loss = float((y ** 2).sum())
        dx, grads = causal_self_attention_backward(2.0 * y, cache)
        grads["x"] = dx
        return loss, grads

    assert grad_check(f, params) < GRAD_TOL


def _block_params(rng, d):
    p = _attn_params(rng, d)
    p.update({
        "ln1_g": np.ones(d) + 0.1 * rng.normal(size=d), "ln1_b": rng.normal(size=d) * 0.1,
        "ln2_g": np.ones(d) + 0.1 * rng.normal(size=d), "ln2_b": rng.normal(size=d) * 0.1,
        "w1": rng.normal(0.0, 0.2, size=(d, 4 * d)), "b1": rng.normal(size=(4 * d,)) * 0.1,
        "w2": rng.normal(0.0, 0.2, size=(4 * d, d)), "b2": rng.normal(size=(d,)) * 0.1,
    })
    return p


def _block_grad_error(rng, n, last_only):
    """Grad-check error of the block (all rows or the last row) on n rows."""
    d = 8
    params = _block_params(rng, d)
    params["x"] = rng.normal(size=(n, d))

    def f(p):
        block_p = {k: v for k, v in p.items() if k != "x"}
        y, cache = transformer_block(p["x"], block_p, n_heads=2, last_only=last_only)
        loss = float((y ** 2).sum())
        dx, grads = transformer_block_backward(2.0 * y, cache)
        assert dx.shape == (n, d)
        grads["x"] = dx
        return loss, grads

    return grad_check(f, params)


def test_transformer_block_gradients(monkeypatch):
    monkeypatch.setattr(nn, "ATTN_TILE", 2)  # n = 4 runs as two tiles
    assert _block_grad_error(_rng(7), 4, last_only=False) < GRAD_TOL


@pytest.mark.parametrize("n", [1, 2, 9])
def test_transformer_block_last_row_matches_the_training_block(n):
    rng = _rng(11)
    d = 8
    p = _block_params(rng, d)
    x = rng.normal(size=(n, d))
    full, _ = transformer_block(x, p, n_heads=2)
    last, _ = transformer_block(x, p, n_heads=2, last_only=True)
    assert last.shape == (1, d)
    assert np.allclose(last[0], full[-1], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_transformer_block_last_row_gradients(n):
    assert _block_grad_error(_rng(14), n, last_only=True) < GRAD_TOL


def test_grad_check_detects_a_corrupted_gradient():
    rng = _rng(8)
    params = {"w": rng.normal(size=(3, 3))}

    def f(p):
        loss = float((p["w"] ** 2).sum())
        dw = 2.0 * p["w"]
        dw[1, 1] += 0.05  # deliberate analytic error
        return loss, {"w": dw}

    assert grad_check(f, params) > GRAD_TOL


def test_lr_schedule_endpoints():
    cfg = AdamConfig(peak_lr=1e-3, warmup_frac=0.1, total_steps=200)
    warmup = int(round(0.1 * 200))
    assert lr_at(warmup, cfg) == pytest.approx(1e-3)
    assert lr_at(200, cfg) == 0.0
    assert lr_at(0, cfg) < lr_at(warmup // 2, cfg) < lr_at(warmup, cfg)
    # cosine section decreases monotonically
    lrs = [lr_at(s, cfg) for s in range(warmup, 201)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_adam_matches_hand_stepped_recurrence():
    rng = _rng(9)
    p0 = rng.normal(size=(4,))
    cfg = AdamConfig(peak_lr=0.01, warmup_frac=0.0, beta1=0.9, beta2=0.98,
                     weight_decay=0.01, total_steps=5)
    params = {"p": p0.copy()}
    state = adam_init(params, cfg)
    grads_per_step = [rng.normal(size=(4,)) for _ in range(5)]
    for g in grads_per_step:
        adam_step(params, {"p": g.copy()}, state)

    # independent reimplementation of the update rule
    p, m, v = p0.copy(), np.zeros(4), np.zeros(4)
    for step, g in enumerate(grads_per_step, start=1):
        lr = lr_at(step - 1, cfg)
        m = 0.9 * m + 0.1 * g
        v = 0.98 * v + 0.02 * g * g
        mhat = m / (1.0 - 0.9 ** step)
        vhat = v / (1.0 - 0.98 ** step)
        p -= lr * (mhat / (np.sqrt(vhat) + cfg.eps) + cfg.weight_decay * p)
    assert np.allclose(params["p"], p, atol=1e-12)


def test_adam_weight_decay_is_decoupled():
    # zero gradient still shrinks the weight, and by exactly lr*wd*p
    cfg = AdamConfig(peak_lr=0.1, warmup_frac=0.0, weight_decay=0.5, total_steps=1)
    params = {"p": np.array([2.0])}
    state = adam_init(params, cfg)
    adam_step(params, {"p": np.zeros(1)}, state)
    assert params["p"][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def test_adam_rejects_nonfinite_gradient_by_name():
    cfg = AdamConfig(total_steps=2)
    params = {"fine": np.ones(2), "broken": np.ones(2)}
    state = adam_init(params, cfg)
    bad = {"fine": np.zeros(2), "broken": np.array([1.0, np.inf])}
    with pytest.raises(NumericError, match="broken"):
        adam_step(params, bad, state)


def test_adam_refuses_steps_past_schedule_end():
    cfg = AdamConfig(total_steps=1)
    params = {"p": np.ones(1)}
    state = adam_init(params, cfg)
    adam_step(params, {"p": np.zeros(1)}, state)
    with pytest.raises(NumericError):
        adam_step(params, {"p": np.zeros(1)}, state)


def test_tensor_roundtrip_is_exact(tmp_path):
    rng = _rng(10)
    tiny = np.finfo(np.float64).smallest_subnormal
    tensors = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(7,)),
               "c": np.array([-0.0, 0.0, tiny, -tiny, 3 * tiny, np.finfo(np.float64).tiny / 3,
                              np.finfo(np.float64).max, -1e-300])}
    path = tmp_path / "ckpt.json"
    save_tensors(path, tensors, meta={"note": "test"})
    assert path.read_text(encoding="utf-8").count("\n") == 1  # one compact line
    back, meta = load_tensors(path)
    assert meta["note"] == "test"
    for name in tensors:
        assert back[name].shape == tensors[name].shape
        assert back[name].tobytes() == tensors[name].tobytes()  # bitwise, sign of zero too


def test_tensor_loader_refuses_unknown_format(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else", "tensors": {}}')
    with pytest.raises(Exception):
        load_tensors(path)
