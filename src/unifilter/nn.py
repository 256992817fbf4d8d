"""Minimal transformer building blocks with hand-derived gradients.

There is no autodiff here.  The architecture is fixed (pre-LN blocks, causal
multi-head attention, GELU MLP), so every op ships a forward that returns a
cache and a backward that consumes it; with keep_cache=False, for a forward
that no backward follows, the block keeps nothing.  Attention and the block
have one forward and one backward each, with one choice of query rows: all n
rows under the causal mask, or the last row only (last_only), which attends
to every row.  Attention runs its query rows in tiles of ATTN_TILE rows, each
scored against only the keys it can see, so its largest buffer is
(heads, ATTN_TILE, n), never (heads, n, n).  All math is plain numpy on
(seq, dim) matrices; parameters live in a flat dict of named float arrays,
which keeps the optimizer, the checkpoint format and the finite-difference
harness trivially generic.  A checkpoint is one JSON line holding each
tensor's shape and the base64 of its little-endian float64 bytes, so a
loaded tensor is bitwise the saved one.  GELU's erf is a numpy port of
the Cephes erf that scipy.special.erf runs, so nothing here needs scipy.

Gradient correctness is enforced by grad_check, a central-difference probe
over every parameter entry.  Anything new added here must pass it before use.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field

import numpy as np

from .common import DataError, NumericError, atomic_write, dump_json_line, read_json_file

Params = dict[str, np.ndarray]

LN_EPS = 1e-6
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# --- elementwise and linear ----------------------------------------------------


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    y = x @ w
    y += b
    return y


def linear_backward(dy, x, w):
    """Returns (dx, dw, db) for y = x @ w + b with x of shape (n, d_in)."""
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


# Cephes erf (ndtr.c), the coefficients scipy.special.erf evaluates, highest
# degree first: T/U for |x| <= 1 and erfc's P/Q above.  U and Q are monic;
# their leading 1 is implied, as in Cephes' p1evl.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERF_ONE_FROM = 6.5  # erfc(6.5) < 2**-54, so erf is 1.0 from here on
ERF_BLOCK = 65536    # entries per block: erf's two scratch buffers take 1 MB


def _horner(z, coefs, out, monic=False):
    """Writes the polynomial at z into out, by Horner's rule in the order of
    Cephes' polevl (p1evl when monic), so each step rounds as scipy's does."""
    if monic:
        np.add(z, coefs[0], out=out)
    else:
        np.multiply(z, coefs[0], out=out)
        out += coefs[1]
        coefs = coefs[1:]
    for c in coefs[1:]:
        out *= z
        out += c
    return out


def _erf_tail(x):
    """erf of entries with |x| > 1 or NaN: 1 - exp(-x^2) P(|x|)/Q(|x|), with
    the sign of x, as a new array."""
    c = np.abs(x)
    np.minimum(c, _ERF_ONE_FROM, out=c)
    p = _horner(c, _ERFC_P, np.empty_like(c))
    q = _horner(c, _ERFC_Q, np.empty_like(c), monic=True)
    c *= c
    np.negative(c, out=c)
    np.exp(c, out=c)
    c *= p
    c /= q
    np.subtract(1.0, c, out=c)
    return np.copysign(c, x, out=c)


def erf(x, out=None):
    """The error function, elementwise, of a float64 array.

    A numpy port of the Cephes erf that scipy.special.erf runs, with its
    coefficients and order of operations: x*T(x^2)/U(x^2) for |x| <= 1, and
    1 - exp(-x^2)*P(|x|)/Q(|x|) above, with the sign of x, where |x| is
    clamped to 6.5 (the result is 1.0 already).  It is bitwise scipy's for
    |x| <= 1 and within 1 ulp above, where numpy's exp and libm's can differ
    by 1 ulp.  Signed zeros keep their sign and NaN stays NaN.

    The array is worked through ERF_BLOCK entries at a time.  The |x| <= 1
    formula runs on every entry of a block, with x clipped to [-1, 1], and
    the few others are gathered, computed apart and scattered back.  Memory
    beyond out stays bounded: two block-sized scratch buffers and the
    gathered entries.  out, C-contiguous, may be x itself.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    elif not out.flags.c_contiguous:
        raise ValueError("erf needs a C-contiguous out")
    src, dst = x.reshape(-1), out.reshape(-1)
    w, z = np.empty((2, min(src.size, ERF_BLOCK)))
    for s in range(0, src.size, ERF_BLOCK):
        xb, ob = src[s:s + ERF_BLOCK], dst[s:s + ERF_BLOCK]
        wb, zb = w[:xb.size], z[:xb.size]
        np.clip(xb, -1.0, 1.0, out=wb)
        tail = np.flatnonzero(wb != xb)  # |x| > 1 or NaN
        tail_erf = _erf_tail(xb[tail]) if tail.size else None
        np.multiply(wb, wb, out=zb)
        _horner(zb, _ERF_T, ob)  # ob may be xb, which is not read from here on
        ob *= wb
        ob /= _horner(zb, _ERF_U, wb, monic=True)
        if tail_erf is not None:
            ob[tail] = tail_erf
    return out


def gelu(x: np.ndarray, keep_cdf: bool = True):
    """Exact erf-based GELU.  Returns (y, cdf) with y = x * cdf.

    cdf is the normal CDF at x, which gelu_backward reuses so erf runs once
    per activation.  Scaling by 0.5 is exact, so y is bitwise equal to
    0.5 * x * (1 + erf) over the same erf values.  Without keep_cdf, y is
    written over the CDF's buffer and cdf is None: one array beside x, not two.
    """
    cdf = x * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    if keep_cdf:
        return x * cdf, cdf
    cdf *= x
    return cdf, None


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


def causal_self_attention(x: np.ndarray, p: Params, n_heads: int, last_only: bool = False,
                          keep_cache: bool = True):
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
    array is built.  Without keep_cache the cache is None and each tile is
    freed before the next is built, so one (heads, ATTN_TILE, n) tile is the
    largest buffer.
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
        if keep_cache:
            tiles.append(tile)
        del tile
    out = linear(concat, p["wo"], p["bo"])
    if not keep_cache:
        return out, None
    return out, (x, p, n_heads, qh, kh, vh, tiles, concat, scale)


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


def _mlp_sublayer(x1: np.ndarray, p: Params, keep_cache: bool = True):
    """x1 + MLP(LN2(x1)) with GELU, the second half of a block.  Returns
    (out, cache).  keep_cache only chooses what the cache holds: without
    it the cache is None, and each intermediate is dropped once the next
    op has read it."""
    h2, ln2_cache = layer_norm(x1, p["ln2_g"], p["ln2_b"])
    m1 = linear(h2, p["w1"], p["b1"])
    cache = (ln2_cache, h2, m1) if keep_cache else None
    del h2, ln2_cache
    g, cdf = gelu(m1, keep_cdf=keep_cache)
    del m1
    out = linear(g, p["w2"], p["b2"])
    if keep_cache:
        cache += (g, cdf, p)
    del g
    out += x1    # x1 + out: addition commutes bitwise
    return out, cache


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


def transformer_block(x: np.ndarray, p: Params, n_heads: int, last_only: bool = False,
                      keep_cache: bool = True):
    """Pre-LN block: x + Attn(LN(x)), then x + MLP(LN(x)) with GELU.

    With last_only the block returns its last row alone, (1, d): LN1, keys
    and values still cover every row, while the query, attention, residual
    and MLP run on the last row.  A block whose output feeds only the last
    position's head needs no other row.  Without keep_cache, for a forward
    that no backward follows, the cache is None and no activation outlives
    the op that reads it; the output is bitwise the same.
    """
    h1, ln1_cache = layer_norm(x, p["ln1_g"], p["ln1_b"])
    if not keep_cache:
        ln1_cache = None
    a, attn_cache = causal_self_attention(h1, p, n_heads, last_only, keep_cache)
    del h1
    x1 = (x[-1:] if last_only else x) + a
    del a
    out, mlp_cache = _mlp_sublayer(x1, p, keep_cache)
    return out, ((ln1_cache, attn_cache, mlp_cache) if keep_cache else None)


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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01


@dataclass
class AdamConfig:
    peak_lr: float = 3e-5
    warmup_frac: float = 0.03
    total_steps: int = 1


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
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name!r} at step {t}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        update += WEIGHT_DECAY * p
        p -= lr * update
    return lr


# --- gradient checking ---------------------------------------------------------------


def grad_check(f, params: Params, eps: float = 1e-5):
    """Central-difference check of analytic gradients.

    f(params) must return (loss, grads) with grads keyed like params.  Every
    entry of every parameter is perturbed by +/- eps.  Returns the worst
    relative error, |analytic - numeric| / max(|analytic|, |numeric|, 1e-6).
    Use float64 parameters; float32 cannot pass a 1e-4 gate.
    """
    loss0, grads = f(params)
    if not np.isfinite(loss0):
        raise NumericError("loss is not finite at the probe point")
    worst = 0.0
    for name in list(params):
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

TENSOR_FORMAT = "unifilter-tensors-v2"
SAVE_FLOATS = 3 * 4096  # floats save_tensors encodes at a time


def save_tensors(path, tensors: Params, meta: dict | None = None) -> None:
    """JSON checkpoint of named arrays, each {"shape", "b64"}: the base64 of
    its little-endian float64 bytes, so every value, NaN payloads and the
    sign of zero included, comes back bit for bit.

    Written as one compact line, SAVE_FLOATS floats at a time, so no
    tensor's bytes or text exists whole.  A multiple of 3 floats is a
    multiple of 3 bytes, which base64 encodes without padding, so the
    pieces join into the base64 of the whole tensor.
    """
    head = dump_json_line({"format": TENSOR_FORMAT, "meta": meta or {}})
    with atomic_write(path) as fh:
        fh.write(head[:-1] + ',"tensors":{')
        for i, (name, arr) in enumerate(tensors.items()):
            shape = dump_json_line(list(arr.shape))
            fh.write(f'{"," if i else ""}{dump_json_line(name)}:{{"shape":{shape},"b64":"')
            flat = arr.ravel()
            for j in range(0, flat.size, SAVE_FLOATS):
                piece = np.asarray(flat[j:j + SAVE_FLOATS], dtype="<f8").tobytes()
                fh.write(base64.b64encode(piece).decode("ascii"))
            fh.write('"}')
        fh.write("}}\n")


def load_tensors(path):
    """Returns (tensors, meta), each tensor a writable native float64 array
    of its declared shape.  Refuses files with an unknown format header, and
    a shape that is not a list of integers >= 0 (a -1 is never inferred)."""
    obj = read_json_file(path)
    if obj.get("format") != TENSOR_FORMAT:
        raise DataError(f"{path}: unknown checkpoint format {obj.get('format')!r}")
    specs, meta = obj.get("tensors"), obj.get("meta", {})
    if not (isinstance(specs, dict) and isinstance(meta, dict)):
        raise DataError(f"{path}: checkpoint needs a 'tensors' object and a 'meta' object")
    tensors = {}
    for name, spec in specs.items():
        try:
            shape = spec["shape"]
            if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
                raise ValueError(f"shape {shape!r} is not a list of integers >= 0")
            raw = base64.b64decode(spec["b64"], validate=True)
            tensors[name] = np.frombuffer(raw, "<f8").astype(np.float64).reshape(shape)
        except (KeyError, TypeError, ValueError) as exc:   # binascii.Error is a ValueError
            raise DataError(f"{path}: tensor {name!r} needs a 'shape' and matching 'b64' "
                            f"({exc})") from None
    return tensors, meta
