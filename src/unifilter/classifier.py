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
import mmap
import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict

import numpy as np

from .common import DataError, NumericError, check_counts, check_field, child_rng, config_from
from .encoder import (EncoderConfig, adaptive_avg_pool_2d, init_tensors, patchify_embed,
                      project, project_backward, projector_shapes)
from .nn import (AdamConfig, Params, adam_init, adam_step, layer_norm, layer_norm_backward,
                 save_tensors, load_tensors, transformer_block, transformer_block_backward)
from .packing import Vocab, build_vocab, tokenize, tokenize_words
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


def param_shapes(cfg: ModelConfig, vocab_size: int):
    """(name, shape, init) of every trainable parameter, in checkpoint order.

    The frozen patch embedding is not among them.  A generator, so a
    config's sizes cost nothing until init_params allocates them.
    """
    d = cfg.d
    yield "tok_emb", (vocab_size, d), "normal"
    yield "pos_emb", (cfg.max_seq_len, d), "normal"
    for i in range(cfg.n_layers):
        pre = f"blocks.{i}."
        for name in ("wq", "wk", "wv", "wo"):
            yield pre + name, (d, d), "normal"
        for name in ("bq", "bk", "bv", "bo"):
            yield pre + name, (d,), "zeros"
        for ln in ("ln1", "ln2"):
            yield pre + ln + "_g", (d,), "ones"
            yield pre + ln + "_b", (d,), "zeros"
        yield pre + "w1", (d, 4 * d), "normal"
        yield pre + "b1", (4 * d,), "zeros"
        yield pre + "w2", (4 * d, d), "normal"
        yield pre + "b2", (d,), "zeros"
    yield "ln_f_g", (d,), "ones"
    yield "ln_f_b", (d,), "zeros"
    yield "head_w", (d, 1), "normal"
    yield "head_b", (1,), "zeros"
    yield from projector_shapes(cfg.encoder)  # trainable, on top of the frozen encoder


def init_params(cfg: ModelConfig, vocab_size: int, rng: np.random.Generator) -> Params:
    """Fresh trainable parameters."""
    return init_tensors(param_shapes(cfg, vocab_size), rng)


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
    # shapes only, stopping at the first mismatch: a config's sizes are never allocated
    expected = set()
    for name, shape, _ in param_shapes(cfg, len(vocab)):
        if name not in params:
            raise DataError(f"{path}: checkpoint has no tensor {name!r}")
        if params[name].shape != shape:
            raise DataError(f"{path}: tensor {name!r} has shape {list(params[name].shape)}, "
                            f"the config needs {list(shape)}")
        expected.add(name)
    unknown = sorted(set(params) - expected)
    if unknown:
        raise DataError(f"{path}: tensors the config does not use: {unknown}")
    return QualityModel(config=cfg, vocab=vocab, params=params)


# --- training ----------------------------------------------------------------------

TRAIN_GROUPS = 2              # gradient groups per batch, one per process of _task_runner
# A batch loss over this many times the first batch's is divergence.  The first
# loss counts as at least 1, so a near-perfect first batch (one label-0 sample,
# say) cannot make an ordinary loss look divergent.
DIVERGED_LOSS_FACTOR = 1e4


def _accuracy(samples: list[LabeledSample], scores) -> tuple[float, float]:
    report = evaluate([(s.label, quantize_score(x)) for s, x in zip(samples, scores)])
    return report.accuracy, report.macro_f1


def validation_accuracy(model: QualityModel, samples: list[LabeledSample], pooled_cache=None):
    """Quantized accuracy and macro F1 on labeled samples."""
    return _accuracy(samples, [model.score_record(s, pooled_cache) for s in samples])


def _cost(sample, cfg: ModelConfig) -> int:
    """Estimated forward and backward cost, (n + 2d)^2 for the n positions
    assemble gives the sample: its words plus t*t per image, capped at
    max_seq_len.  The 4d^2 term stands for the fixed per-sample cost, which
    dominates short samples: on perfbench's train data the time per sample
    fit 1.9 + 0.044 n + 0.00015 n^2 ms at d = 64.
    """
    t2 = cfg.encoder.tokens_per_image()
    n = min(cfg.max_seq_len, sum(t2 if item.kind == "image" else len(tokenize_words(item.text))
                                 for item in as_document(sample).items))
    return (n + 2 * cfg.d) ** 2


def balanced_groups(costs: list[int], n_groups: int) -> list[list[int]]:
    """Positions 0..len(costs)-1 in n_groups of near-equal total cost.

    Costliest first, each to the lightest group (the lowest index on a tie),
    so the split depends on the costs alone.  Each group is in ascending order.
    """
    loads, groups = [0] * n_groups, [[] for _ in range(n_groups)]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        g = loads.index(min(loads))
        groups[g].append(i)
        loads[g] += costs[i]
    return [sorted(group) for group in groups]


def _views(flat: np.ndarray, like: Params) -> Params:
    """like's names and shapes as consecutive views into flat."""
    out, offset = {}, 0
    for name, arr in like.items():
        out[name] = flat[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return out


def _serve(conn, parent_end, run_task):
    """The worker's loop: run each task received and send back (True,
    result) or (False, the exception).  Returns at end of file, when the
    parent's end of the pipe closes, so the worker never outlives its parent,
    and when the parent stopped listening after an error of its own."""
    parent_end.close()          # an inherited copy would keep the pipe open
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, run_task(task))
        except Exception as exc:    # re-raised in the parent with its own type
            reply = (False, exc)
        try:
            conn.send(reply)
        except (BrokenPipeError, ConnectionResetError):
            return


@contextmanager
def _task_runner(run_task, fork: bool):
    """Yields run_pair([first, second]) -> [run_task(first), run_task(second)].

    With fork, a worker forked here, once, runs `second` while this process
    runs `first`; the worker shares whatever this process mapped shared
    before the fork.  An exception raised in the worker is raised again
    here with its own type; the worker is joined on the way out, after its
    pipe closes.  Without fork, this process runs both in turn.
    """
    if not fork:
        yield lambda tasks: [run_task(task) for task in tasks]
        return
    ctx = multiprocessing.get_context("fork")
    conn, child_end = ctx.Pipe()
    proc = ctx.Process(target=_serve, args=(child_end, conn, run_task), daemon=True)
    proc.start()
    child_end.close()

    def run_pair(tasks: list) -> list:
        first, second = tasks
        conn.send(second)
        result = run_task(first)
        ok, value = conn.recv()
        if not ok:
            raise value
        return [result, value]

    try:
        yield run_pair
    finally:
        conn.close()
        proc.join()


def train(train_samples: list[LabeledSample], val_samples: list[LabeledSample],
          cfg: ModelConfig, tcfg: TrainConfig, seed: int):
    """Train the unified regressor; returns (QualityModel, history).

    The returned model holds the parameters of the epoch with the highest
    validation accuracy (earliest epoch wins ties).  history has one entry
    per epoch: train_loss, val_accuracy, val_macro_f1, lr_end.

    Each batch splits into TRAIN_GROUPS groups of balanced cost; each group
    adds its samples' gradients, in batch order, into its own slot, and the
    slots are summed in group order before the Adam step.  Parameters, slots
    and validation scores live in one shared mapping, so with two usable
    CPUs a forked worker runs the second group, and the bytes do not depend
    on the process count.  A batch loss over DIVERGED_LOSS_FACTOR times the
    first batch's (or 1, if more) raises NumericError.
    """
    if not train_samples or not val_samples:
        raise DataError("need non-empty train and validation splits")

    vocab = build_vocab(t for s in train_samples for t in s.record.texts())
    rng = child_rng(seed, "train-init")
    init = init_params(cfg, len(vocab), rng)
    size = sum(arr.size for arr in init.values())
    n_val = len(val_samples)
    shared = np.frombuffer(mmap.mmap(-1, 8 * ((1 + TRAIN_GROUPS) * size + n_val)),
                           dtype=np.float64)
    params = _views(shared[:size], init)
    for name, arr in init.items():
        params[name][...] = arr
    slots = shared[size:-n_val].reshape(TRAIN_GROUPS, size)
    slot_grads = [_views(slot, init) for slot in slots]
    val_scores = shared[-n_val:]

    n = len(train_samples)
    steps_per_epoch = math.ceil(n / tcfg.batch_size)
    acfg = AdamConfig(peak_lr=tcfg.peak_lr, total_steps=tcfg.epochs * steps_per_epoch)
    state = adam_init(params, acfg)
    grad_sum = np.empty(size)
    grads = _views(grad_sum, init)

    pooled_cache: dict = {}
    model = QualityModel(config=cfg, vocab=vocab, params=params)
    costs = [_cost(s, cfg) for s in train_samples]
    val_tasks = [("val", group) for group in
                 balanced_groups([_cost(s, cfg) for s in val_samples], TRAIN_GROUPS)]

    def run_task(task):
        """("val", indices) fills val_scores at those indices.  ("grad", g,
        indices, batch size) fills slot g with the group's gradients and
        returns its summed loss."""
        if task[0] == "val":
            for i in task[1]:
                val_scores[i] = model.score_record(val_samples[i], pooled_cache)
            return 0.0
        _, g, members, batch_len = task
        slots[g].fill(0.0)
        group_loss = 0.0
        for i in members:
            s = train_samples[i]
            asm = assemble(s, cfg, vocab, params, pooled_cache)
            pred, cache = forward_score(asm, cfg, params, keep_cache=True)
            loss, dpred = mse_loss(pred, float(s.label))
            group_loss += loss
            backward_score(dpred / batch_len, cfg, params, cache, slot_grads[g])
        return group_loss

    best_params = None
    best_acc = -1.0
    first_loss = None
    history = []
    with _task_runner(run_task, fork=len(os.sched_getaffinity(0)) > 1) as run_pair:
        for epoch in range(tcfg.epochs):
            order = child_rng(seed, "shuffle", epoch).permutation(n)
            epoch_loss = 0.0
            lr = 0.0
            for b0 in range(0, n, tcfg.batch_size):
                batch = [int(i) for i in order[b0:b0 + tcfg.batch_size]]
                groups = balanced_groups([costs[i] for i in batch], TRAIN_GROUPS)
                losses = run_pair([("grad", g, [batch[p] for p in group], len(batch))
                                   for g, group in enumerate(groups)])
                np.add(slots[0], slots[1], out=grad_sum)
                batch_loss = sum(losses) / len(batch)
                step = f"epoch {epoch} step {b0 // tcfg.batch_size}"
                if not np.isfinite(batch_loss):
                    raise NumericError(f"non-finite training loss at {step}")
                if first_loss is None:
                    first_loss = batch_loss
                limit = DIVERGED_LOSS_FACTOR * max(first_loss, 1.0)
                if batch_loss > limit:
                    raise NumericError(f"training diverged at {step}: batch loss "
                                       f"{batch_loss:.3g} exceeds {limit:.3g}")
                lr = adam_step(params, grads, state)
                epoch_loss += batch_loss
            run_pair(val_tasks)
            val_acc, val_f1 = _accuracy(val_samples, val_scores)
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
