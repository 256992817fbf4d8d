"""Unified quality regressor over captions and interleaved documents.

One model scores both modalities.  A record is assembled into a single
embedding sequence: image payloads run through the frozen patch encoder,
adaptive pooling and the trainable projector (t*t tokens each); text runs
through the token embedding table.  One assembler keeps item order for
both modalities: a caption is the one-image document [image, text].  A
causal transformer reads the sequence and a d x 1 head on the last position
emits one raw quality score (no language-model head anywhere).  Training
minimizes MSE against the 0..3 level labels and keeps the epoch checkpoint
with the best validation accuracy.

The head reads one position and training fits one scalar, so the last
block runs transformer_block's last-row case: keys and values cover every
position, its query, attention and MLP the last row only.  forward_score
and backward_score are the one forward and backward: training,
validation, eval, score and bench all run them.

Over-length policy: image tokens are never dropped.  Text is truncated from
the right until the sequence fits max_seq_len; a record whose image tokens
alone exceed max_seq_len is rejected with a DataError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .common import DataError, NumericError, check_counts, check_field, child_rng, config_from
from .encoder import (EncoderConfig, adaptive_avg_pool_2d, init_projector, patchify_embed,
                      project, project_backward)
from .nn import (AdamConfig, Params, adam_init, adam_step, layer_norm, layer_norm_backward,
                 save_tensors, load_tensors, transformer_block, transformer_block_backward)
from .packing import Vocab, build_vocab, tokenize
from .metrics import evaluate, quantize_score
from .records import LabeledSample, as_document

CHECKPOINT_KIND = "quality-model"


@dataclass
class ModelConfig:
    d: int = 64
    n_layers: int = 2
    n_heads: int = 4
    max_seq_len: int = 4096
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self):
        if not isinstance(self.encoder, EncoderConfig):
            self.encoder = config_from(EncoderConfig, self.encoder, "encoder config")
        check_counts(self, "d", "n_layers", "n_heads", "max_seq_len")
        if self.d % self.n_heads:
            raise DataError(f"d={self.d} not divisible by n_heads={self.n_heads}")
        if self.encoder.d != self.d:
            raise DataError(f"projector width {self.encoder.d} != model width {self.d}")


@dataclass
class TrainConfig:
    """Every other optimizer constant is an nn.AdamConfig default."""
    epochs: int = 10
    batch_size: int = 16
    peak_lr: float = 3e-5

    def __post_init__(self):
        check_counts(self, "epochs", "batch_size")
        check_field(self, "peak_lr", lambda v: v > 0, "a finite number > 0")


def init_params(cfg: ModelConfig, vocab_size: int, rng: np.random.Generator) -> Params:
    """Fresh trainable parameters.  The frozen patch embedding is not among them."""
    d = cfg.d
    p: Params = {
        "tok_emb": rng.normal(0.0, 0.02, size=(vocab_size, d)),
        "pos_emb": rng.normal(0.0, 0.02, size=(cfg.max_seq_len, d)),
    }
    for i in range(cfg.n_layers):
        pre = f"blocks.{i}."
        for name in ("wq", "wk", "wv", "wo"):
            p[pre + name] = rng.normal(0.0, 0.02, size=(d, d))
        for name in ("bq", "bk", "bv", "bo"):
            p[pre + name] = np.zeros(d)
        p[pre + "ln1_g"] = np.ones(d)
        p[pre + "ln1_b"] = np.zeros(d)
        p[pre + "ln2_g"] = np.ones(d)
        p[pre + "ln2_b"] = np.zeros(d)
        p[pre + "w1"] = rng.normal(0.0, 0.02, size=(d, 4 * d))
        p[pre + "b1"] = np.zeros(4 * d)
        p[pre + "w2"] = rng.normal(0.0, 0.02, size=(4 * d, d))
        p[pre + "b2"] = np.zeros(d)
    p["ln_f_g"] = np.ones(d)
    p["ln_f_b"] = np.zeros(d)
    p["head_w"] = rng.normal(0.0, 0.02, size=(d, 1))
    p["head_b"] = np.zeros(1)
    p.update(init_projector(cfg.encoder, rng))  # trainable, on top of the frozen encoder
    return p


def _subparams(params: Params, prefix: str) -> Params:
    n = len(prefix)
    return {k[n:]: v for k, v in params.items() if k.startswith(prefix)}


# --- assembly -------------------------------------------------------------------


@dataclass
class AssembledSequence:
    """Embedding matrix plus the provenance needed for the backward pass."""
    emb: np.ndarray                    # (n, d)
    text_positions: list[int]
    text_ids: list[int]
    image_blocks: list[tuple]          # (start position, projector cache)

    def __len__(self):
        return self.emb.shape[0]


def _pooled_vectors(payload, enc_cfg: EncoderConfig, pooled_cache):
    """Pooled patch vectors of one image, cached by payload object.

    Record ids need not be unique across splits, so the key is the payload
    itself: the caller keeps every cached payload alive while the cache is.
    """
    if pooled_cache is not None and id(payload) in pooled_cache:
        return pooled_cache[id(payload)]
    pooled = adaptive_avg_pool_2d(patchify_embed(payload, enc_cfg), enc_cfg.t)
    if pooled_cache is not None:
        pooled_cache[id(payload)] = pooled
    return pooled


def assemble(record, cfg: ModelConfig, vocab: Vocab, params: Params,
             pooled_cache=None) -> AssembledSequence:
    """Original item order, one projector run per image, no separator tokens.

    A caption is the one-image document [image, text].  Text is truncated
    from the right, document-wide, until the sequence fits max_seq_len.
    """
    record = as_document(record)
    if record.modality == "caption" and not record.text.strip():
        raise DataError(f"caption {record.id!r} has empty text")
    items = record.items
    t2 = cfg.encoder.tokens_per_image()
    n_images = sum(1 for item in items if item.kind == "image")
    if n_images * t2 > cfg.max_seq_len:
        raise DataError(
            f"record {record.id!r}: {n_images * t2} image tokens exceed max_seq_len {cfg.max_seq_len}")

    # token ids per text item (None for an image), cut from the last text backwards
    item_ids = [tokenize(item.text, vocab) if item.kind == "text" else None for item in items]
    drop = sum(len(ids) for ids in item_ids if ids is not None) - (cfg.max_seq_len - n_images * t2)
    for i in range(len(item_ids) - 1, -1, -1):
        if drop <= 0:
            break
        ids = item_ids[i]
        if ids is not None:
            cut = min(drop, len(ids))
            item_ids[i] = ids[: len(ids) - cut]
            drop -= cut

    chunks, text_positions, text_ids, image_blocks = [], [], [], []
    pos = 0
    for item, ids in zip(items, item_ids):
        if ids is None:
            img_emb, proj_cache = project(
                _pooled_vectors(item.image, cfg.encoder, pooled_cache), params)
            chunks.append(img_emb)
            image_blocks.append((pos, proj_cache))
            pos += t2
        elif ids:
            chunks.append(params["tok_emb"][ids])
            text_positions.extend(range(pos, pos + len(ids)))
            text_ids.extend(ids)
            pos += len(ids)
    emb = np.concatenate(chunks) if chunks else np.zeros((0, cfg.d))
    return AssembledSequence(emb=emb, text_positions=text_positions, text_ids=text_ids,
                             image_blocks=image_blocks)


# --- forward / backward ----------------------------------------------------------


def _embed(asm: AssembledSequence, params: Params) -> np.ndarray:
    n = len(asm)
    if n == 0:
        raise DataError("cannot score an empty sequence")
    return asm.emb + params["pos_emb"][:n]


def _head(h_last: np.ndarray, params: Params) -> float:
    return float(h_last @ params["head_w"][:, 0] + params["head_b"][0])


def forward_score(asm: AssembledSequence, cfg: ModelConfig, params: Params,
                  keep_cache: bool = False):
    """Raw scalar score from the last position.  Returns (score, cache).

    Every block but the last runs on every position; the last block runs
    its query, attention and MLP for the last row only, and the final LN
    and head see that row.
    """
    x = _embed(asm, params)
    block_caches = []
    for i in range(cfg.n_layers):
        x, cache = transformer_block(x, _subparams(params, f"blocks.{i}."), cfg.n_heads,
                                     last_only=i == cfg.n_layers - 1)
        block_caches.append(cache)
    h, ln_cache = layer_norm(x, params["ln_f_g"], params["ln_f_b"])
    score = _head(h[0], params)
    cache = (asm, h, ln_cache, block_caches) if keep_cache else None
    return score, cache


def backward_score(dscore: float, cfg: ModelConfig, params: Params, cache, grads: Params):
    """Accumulate d(score * dscore)/d(params) into grads, in place."""
    asm, h, ln_cache, block_caches = cache
    n = len(asm)
    grads["head_w"][:, 0] += dscore * h[0]
    grads["head_b"][0] += dscore
    dx, dg, db = layer_norm_backward(dscore * params["head_w"].T, ln_cache)
    grads["ln_f_g"] += dg
    grads["ln_f_b"] += db
    for i in range(cfg.n_layers - 1, -1, -1):
        dx, bgrads = transformer_block_backward(dx, block_caches[i])
        pre = f"blocks.{i}."
        for name, g in bgrads.items():
            grads[pre + name] += g
    grads["pos_emb"][:n] += dx
    if asm.text_positions:
        np.add.at(grads["tok_emb"], asm.text_ids, dx[asm.text_positions])
    t2 = cfg.encoder.tokens_per_image()
    for start, proj_cache in asm.image_blocks:
        pg = project_backward(dx[start:start + t2], proj_cache)
        for name, g in pg.items():
            grads[name] += g


def mse_loss(pred: float, target: float):
    """Squared error and d/dpred."""
    diff = pred - target
    return diff * diff, 2.0 * diff


def zero_grads(params: Params) -> Params:
    return {k: np.zeros_like(v) for k, v in params.items()}


# --- model bundle ------------------------------------------------------------------


@dataclass
class QualityModel:
    config: ModelConfig
    vocab: Vocab
    params: Params

    def score_record(self, record, pooled_cache=None) -> float:
        asm = assemble(record, self.config, self.vocab, self.params, pooled_cache)
        return forward_score(asm, self.config, self.params)[0]


def save_model(path, model: QualityModel, extra_meta: dict | None = None) -> None:
    meta = {
        "kind": CHECKPOINT_KIND,
        "config": asdict(model.config),
        "vocab_words": model.vocab.words,
    }
    if extra_meta:
        meta.update(extra_meta)
    save_tensors(path, model.params, meta)


def load_model(path) -> QualityModel:
    params, meta = load_tensors(path)
    if meta.get("kind") != CHECKPOINT_KIND:
        raise DataError(f"{path}: not a quality-model checkpoint")
    try:
        cfg = config_from(ModelConfig, meta.get("config"), "model config")
        vocab = Vocab(words=meta.get("vocab_words"))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return QualityModel(config=cfg, vocab=vocab, params=params)


# --- training ----------------------------------------------------------------------


def validation_accuracy(model: QualityModel, samples: list[LabeledSample], pooled_cache=None):
    """Quantized accuracy and macro F1 on labeled samples."""
    pairs = []
    for s in samples:
        pred = quantize_score(model.score_record(s, pooled_cache))
        pairs.append((s.label, pred))
    report = evaluate(pairs)
    return report.accuracy, report.macro_f1


def train(train_samples: list[LabeledSample], val_samples: list[LabeledSample],
          cfg: ModelConfig, tcfg: TrainConfig, seed: int):
    """Train the unified regressor; returns (QualityModel, history).

    The returned model holds the parameters of the epoch with the highest
    validation accuracy (earliest epoch wins ties).  history has one entry
    per epoch: train_loss, val_accuracy, val_macro_f1, lr_end.
    """
    if not train_samples or not val_samples:
        raise DataError("need non-empty train and validation splits")

    vocab = build_vocab(t for s in train_samples for t in s.record.texts())
    rng = child_rng(seed, "train-init")
    params = init_params(cfg, len(vocab), rng)

    n = len(train_samples)
    steps_per_epoch = math.ceil(n / tcfg.batch_size)
    acfg = AdamConfig(peak_lr=tcfg.peak_lr, total_steps=tcfg.epochs * steps_per_epoch)
    state = adam_init(params, acfg)

    pooled_cache: dict = {}
    model = QualityModel(config=cfg, vocab=vocab, params=params)
    best_params = None
    best_acc = -1.0
    history = []

    for epoch in range(tcfg.epochs):
        order = child_rng(seed, "shuffle", epoch).permutation(n)
        epoch_loss = 0.0
        lr = 0.0
        for b0 in range(0, n, tcfg.batch_size):
            batch = [train_samples[i] for i in order[b0:b0 + tcfg.batch_size]]
            grads = zero_grads(params)
            batch_loss = 0.0
            for s in batch:
                asm = assemble(s, cfg, vocab, params, pooled_cache)
                pred, cache = forward_score(asm, cfg, params, keep_cache=True)
                loss, dpred = mse_loss(pred, float(s.label))
                batch_loss += loss
                backward_score(dpred / len(batch), cfg, params, cache, grads)
            batch_loss /= len(batch)
            if not np.isfinite(batch_loss):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch} step {b0 // tcfg.batch_size}")
            lr = adam_step(params, grads, state)
            epoch_loss += batch_loss
        val_acc, val_f1 = validation_accuracy(model, val_samples, pooled_cache)
        history.append({
            "epoch": epoch,
            "train_loss": epoch_loss / steps_per_epoch,
            "val_accuracy": val_acc,
            "val_macro_f1": val_f1,
            "lr_end": lr,
        })
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = {k: v.copy() for k, v in params.items()}

    model.params = best_params
    return model, history
