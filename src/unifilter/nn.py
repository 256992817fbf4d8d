"""Minimal transformer building blocks with hand-derived gradients.

There is no autodiff here.  The architecture is fixed (pre-LN blocks, causal
multi-head attention, GELU MLP), so every op ships a forward that returns a
cache and a backward that consumes it.  Attention and the block have one
forward and one backward each, with one choice of query rows: all n rows
under the causal mask, or the last row only (last_only), which attends to
every row.  Attention runs its query rows in tiles of ATTN_TILE rows, each
scored against only the keys it can see, so its largest buffer is
(heads, ATTN_TILE, n), never (heads, n, n).  All math is plain numpy on
(seq, dim) matrices; parameters live in a flat dict of named float arrays,
which keeps the optimizer, the checkpoint format and the finite-difference
harness trivially generic.

Gradient correctness is enforced by grad_check, a central-difference probe
over every parameter entry.  Anything new added here must pass it before use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .common import DataError, NumericError, atomic_write, dump_json_line, read_json_file

Params = dict[str, np.ndarray]

LN_EPS = 1e-6
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# --- elementwise and linear ----------------------------------------------------


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w + b


def linear_backward(dy, x, w):
    """Returns (dx, dw, db) for y = x @ w + b with x of shape (n, d_in)."""
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact erf-based GELU.  Returns (y, cdf) with y = x * cdf.

    cdf is the normal CDF at x, which gelu_backward reuses so erf runs once
    per activation.  Scaling by 0.5 is exact, so y is bitwise equal to
    0.5 * x * (1 + erf) over the same erf values.
    """
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return x * cdf, cdf


def gelu_backward(dy, x, cdf):
    """dy * GELU'(x), with cdf the second value gelu(x) returned."""
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return dy * (cdf + x * pdf)


def softmax_rows(s: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stable for large magnitudes.

    Overwrites s with the result and returns it.
    """
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def layer_norm(x, gamma, beta):
    """Normalizes each row to zero mean / unit variance, then applies affine."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * gamma + beta, (xhat, inv, gamma)


def layer_norm_backward(dy, cache):
    xhat, inv, gamma = cache
    d = xhat.shape[-1]
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dxhat = dy * gamma
    # standard LN backward: remove the mean and the xhat-projected component
    dx = inv / d * (d * dxhat - dxhat.sum(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
    return dx, dgamma, dbeta


# --- attention ------------------------------------------------------------------

ATTN_TILE = 64  # query rows per attention tile
# -inf above the diagonal; a tile's diagonal block adds its top-left corner
_CAUSAL_MASK = np.triu(np.full((ATTN_TILE, ATTN_TILE), -np.inf), k=1)
_CAUSAL_MASK.flags.writeable = False


def causal_self_attention(x: np.ndarray, p: Params, n_heads: int, last_only: bool = False):
    """Multi-head causal self-attention on a single (n, d) sequence.

    p holds wq,bq,wk,bk,wv,bv,wo,bo.  Keys and values cover all n rows.
    Queries cover all n rows, where position i attends to positions <= i,
    or with last_only the last row alone, which attends to every position.
    Returns (out, cache) with out of shape (n, d) or (1, d).

    Query rows run in tiles of ATTN_TILE rows: tile rows a:b score against
    keys :b only, the keys they can see, and only the tile's diagonal
    (b-a, b-a) block is masked.  n <= ATTN_TILE is the one-tile case, and
    last_only the one-row tile a = n-1, whose one diagonal cell is unmasked.
    The cache keeps each tile's (heads, b-a, b) attention, so no (heads, n, n)
    array is built.
    """
    n, d = x.shape
    dh = d // n_heads
    first = n - 1 if last_only else 0
    m = n - first
    q = linear(x[first:], p["wq"], p["bq"])
    k = linear(x, p["wk"], p["bk"])
    v = linear(x, p["wv"], p["bv"])
    # (heads, rows, dh)
    qh = q.reshape(m, n_heads, dh).transpose(1, 0, 2)
    kh = k.reshape(n, n_heads, dh).transpose(1, 0, 2)
    vh = v.reshape(n, n_heads, dh).transpose(1, 0, 2)
    scale = 1.0 / math.sqrt(dh)
    concat = np.empty((m, d))
    outh = concat.reshape(m, n_heads, dh).transpose(1, 0, 2)  # a view that fills concat
    tiles = []
    for a in range(first, n, ATTN_TILE):
        b = min(a + ATTN_TILE, n)
        rows = slice(a - first, b - first)
        # one (heads, b-a, b) buffer: scores, then masked scores, then attention
        tile = qh[:, rows] @ kh[:, :b].transpose(0, 2, 1)
        tile *= scale
        tile[:, :, a:] += _CAUSAL_MASK[:b - a, :b - a]
        softmax_rows(tile)
        outh[:, rows] = tile @ vh[:, :b]
        tiles.append(tile)
    out = linear(concat, p["wo"], p["bo"])
    cache = (x, p, n_heads, qh, kh, vh, tiles, concat, scale)
    return out, cache


def causal_self_attention_backward(dy, cache):
    """Returns (dx, grads) matching the parameter names used in the forward.

    dy has the forward output's shape; dx always has shape (n, d), since
    keys and values read every row.  It walks the forward's tiles: a tile of
    rows a:b writes those rows of dq and adds into the first b rows of dk
    and dv.
    """
    x, p, n_heads, qh, kh, vh, tiles, concat, scale = cache
    n, d = x.shape
    m = qh.shape[1]  # query rows: n, or 1 for the last row only
    dh = d // n_heads

    dconcat, dwo, dbo = linear_backward(dy, concat, p["wo"])
    doh = dconcat.reshape(m, n_heads, dh).transpose(1, 0, 2)
    dqh = np.empty_like(qh)
    dkh = np.zeros_like(kh)
    dvh = np.zeros_like(vh)
    r = 0  # the tile's first query row
    for tile in tiles:
        rows, b = slice(r, r + tile.shape[1]), tile.shape[2]  # the rows see keys :b
        dattn = doh[:, rows] @ vh[:, :b].transpose(0, 2, 1)
        dvh[:, :b] += tile.transpose(0, 2, 1) @ doh[:, rows]
        # softmax backward; masked cells have attn == 0 so they contribute nothing
        dscores = tile * (dattn - (dattn * tile).sum(axis=-1, keepdims=True))
        dqh[:, rows] = dscores @ kh[:, :b]
        dkh[:, :b] += dscores.transpose(0, 2, 1) @ qh[:, rows]
        r = rows.stop
    dqh *= scale
    dkh *= scale

    dq = dqh.transpose(1, 0, 2).reshape(m, d)
    dk = dkh.transpose(1, 0, 2).reshape(n, d)
    dv = dvh.transpose(1, 0, 2).reshape(n, d)

    dx_q, dwq, dbq = linear_backward(dq, x[n - m:], p["wq"])
    dx, dwk, dbk = linear_backward(dk, x, p["wk"])
    dx_v, dwv, dbv = linear_backward(dv, x, p["wv"])
    dx[n - m:] += dx_q
    dx += dx_v
    grads = {"wq": dwq, "bq": dbq, "wk": dwk, "bk": dbk,
             "wv": dwv, "bv": dbv, "wo": dwo, "bo": dbo}
    return dx, grads


# --- transformer block ------------------------------------------------------------


def _mlp_sublayer(x1: np.ndarray, p: Params):
    """x1 + MLP(LN2(x1)) with GELU, the second half of a block.  Returns (out, cache)."""
    h2, ln2_cache = layer_norm(x1, p["ln2_g"], p["ln2_b"])
    m1 = linear(h2, p["w1"], p["b1"])
    g, cdf = gelu(m1)
    m2 = linear(g, p["w2"], p["b2"])
    return x1 + m2, (ln2_cache, h2, m1, g, cdf, p)


def _mlp_sublayer_backward(dy, cache):
    """Returns (dx1, grads) for _mlp_sublayer, the residual included."""
    ln2_cache, h2, m1, g, cdf, p = cache
    dg, dw2, db2 = linear_backward(dy, g, p["w2"])
    dm1 = gelu_backward(dg, m1, cdf)
    dh2, dw1, db1 = linear_backward(dm1, h2, p["w1"])
    dx1, dln2_g, dln2_b = layer_norm_backward(dh2, ln2_cache)
    dx1 = dx1 + dy  # residual
    return dx1, {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2,
                 "ln2_g": dln2_g, "ln2_b": dln2_b}


def transformer_block(x: np.ndarray, p: Params, n_heads: int, last_only: bool = False):
    """Pre-LN block: x + Attn(LN(x)), then x + MLP(LN(x)) with GELU.

    With last_only the block returns its last row alone, (1, d): LN1, keys
    and values still cover every row, while the query, attention, residual
    and MLP run on the last row.  A block whose output feeds only the last
    position's head needs no other row.
    """
    h1, ln1_cache = layer_norm(x, p["ln1_g"], p["ln1_b"])
    a, attn_cache = causal_self_attention(h1, p, n_heads, last_only)
    out, mlp_cache = _mlp_sublayer((x[-1:] if last_only else x) + a, p)
    return out, (ln1_cache, attn_cache, mlp_cache)


def transformer_block_backward(dy, cache):
    """Returns (dx, grads); dx has the block input's shape (n, d) in both cases."""
    ln1_cache, attn_cache, mlp_cache = cache
    dx1, grads = _mlp_sublayer_backward(dy, mlp_cache)
    dh1, attn_grads = causal_self_attention_backward(dx1, attn_cache)
    dx, dln1_g, dln1_b = layer_norm_backward(dh1, ln1_cache)
    dx[len(dx) - len(dx1):] += dx1  # residual

    grads.update(attn_grads)
    grads.update({"ln1_g": dln1_g, "ln1_b": dln1_b})
    return dx, grads


# --- optimizer --------------------------------------------------------------------


@dataclass
class AdamConfig:
    peak_lr: float = 3e-5
    warmup_frac: float = 0.03
    beta1: float = 0.9
    beta2: float = 0.98
    weight_decay: float = 0.01
    total_steps: int = 1
    eps: float = 1e-8


@dataclass
class AdamState:
    cfg: AdamConfig
    m: Params = field(default_factory=dict)
    v: Params = field(default_factory=dict)
    step: int = 0


def lr_at(step: int, cfg: AdamConfig) -> float:
    """Linear warmup to peak, then cosine decay to exactly 0 at total_steps."""
    warmup = int(round(cfg.warmup_frac * cfg.total_steps))
    if warmup > 0 and step < warmup:
        return cfg.peak_lr * step / warmup
    span = max(1, cfg.total_steps - warmup)
    progress = (step - warmup) / span
    return cfg.peak_lr * 0.5 * (1.0 + math.cos(math.pi * min(1.0, progress)))


def adam_init(params: Params, cfg: AdamConfig) -> AdamState:
    state = AdamState(cfg=cfg)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros_like(p)
    return state


def adam_step(params: Params, grads: Params, state: AdamState) -> float:
    """One decoupled-weight-decay Adam update, in place.  Returns the lr used."""
    cfg = state.cfg
    if state.step >= cfg.total_steps:
        raise NumericError(f"optimizer stepped past total_steps={cfg.total_steps}")
    lr = lr_at(state.step, cfg)
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name!r} at step {t}")
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        if cfg.weight_decay:
            update = update + cfg.weight_decay * p
        p -= lr * update
    return lr


# --- gradient checking ---------------------------------------------------------------


def grad_check(f, params: Params, eps: float = 1e-5, param_names=None):
    """Central-difference check of analytic gradients.

    f(params) must return (loss, grads) with grads keyed like params.  Every
    entry of every checked parameter is perturbed by +/- eps.  Returns the
    worst relative error, |analytic - numeric| / max(|analytic|, |numeric|,
    1e-6).  Use float64 parameters; float32 cannot pass a 1e-4 gate.
    """
    loss0, grads = f(params)
    if not np.isfinite(loss0):
        raise NumericError("loss is not finite at the probe point")
    names = list(params) if param_names is None else list(param_names)
    worst = 0.0
    for name in names:
        p = params[name]
        g = np.asarray(grads[name], dtype=np.float64)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = f(params)
            flat[i] = orig - eps
            lm, _ = f(params)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            analytic = gflat[i]
            denom = max(abs(analytic), abs(numeric), 1e-6)
            err = abs(analytic - numeric) / denom
            if err > worst:
                worst = err
    return worst


# --- named-tensor checkpoints ----------------------------------------------------------

TENSOR_FORMAT = "unifilter-tensors-v1"


def save_tensors(path, tensors: Params, meta: dict | None = None) -> None:
    """JSON checkpoint of named arrays; floats keep full repr precision.

    Written as one compact line, which the C JSON encoder handles; indented
    output would fall back to the much slower pure-Python encoder.
    """
    obj = {
        "format": TENSOR_FORMAT,
        "meta": meta or {},
        "tensors": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in tensors.items()
        },
    }
    with atomic_write(path) as fh:
        fh.write(dump_json_line(obj) + "\n")


def load_tensors(path):
    """Returns (tensors, meta).  Refuses files with an unknown format header."""
    obj = read_json_file(path)
    if obj.get("format") != TENSOR_FORMAT:
        raise DataError(f"{path}: unknown checkpoint format {obj.get('format')!r}")
    specs, meta = obj.get("tensors"), obj.get("meta", {})
    if not (isinstance(specs, dict) and isinstance(meta, dict)):
        raise DataError(f"{path}: checkpoint needs a 'tensors' object and a 'meta' object")
    tensors = {}
    for name, spec in specs.items():
        try:
            tensors[name] = np.asarray(spec["data"], dtype=np.float64).reshape(spec["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: tensor {name!r} needs a 'shape' and matching 'data' "
                            f"({exc})") from None
    return tensors, meta
