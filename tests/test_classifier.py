"""Sequence assembly, the unified forward pass, and the training loop."""

import hashlib
import math
import multiprocessing
import os
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from unifilter import classifier
from unifilter.classifier import (
    AssembledSequence,
    ModelConfig,
    QualityModel,
    TrainConfig,
    assemble,
    backward_score,
    forward_score,
    init_params,
    load_model,
    save_model,
    train,
    zero_grads,
)
from unifilter.common import DataError, NumericError, child_rng
from unifilter.encoder import EncoderConfig, adaptive_avg_pool_2d, patchify_embed, project
from unifilter.nn import layer_norm, transformer_block
from unifilter.packing import build_vocab, tokenize
from unifilter.records import (
    CaptionSample,
    DocItem,
    ImagePayload,
    InterleavedDoc,
    LabeledSample,
)
from unifilter.runner import balanced_groups
from unifilter.synthgen import make_mock_benchmark

TINY = ModelConfig(d=8, n_layers=1, n_heads=2, max_seq_len=32,
                   encoder=EncoderConfig(patch_size=2, d_v=4, t=2, d=8, seed=0))


def _pixels(seed, hw=8):
    return ImagePayload(pixels=child_rng(seed, "img").uniform(size=(1, hw, hw)))


def _caption(text="a fox rests by the kettle", seed=0):
    return CaptionSample(id=f"cap-{seed}", image=_pixels(seed), text=text)


def _doc(seed=0):
    return InterleavedDoc(id=f"doc-{seed}", items=[
        DocItem(kind="text", text="an opening line"),
        DocItem(kind="image", image=_pixels(seed)),
        DocItem(kind="text", text="a closing line"),
        DocItem(kind="image", image=_pixels(seed + 100)),
    ])


def _model(vocab_texts=("a fox rests by the kettle an opening line a closing line",)):
    vocab = build_vocab(vocab_texts)
    params = init_params(TINY, len(vocab), child_rng(0, "init"))
    return QualityModel(config=TINY, vocab=vocab, params=params)


def _image_rows(model, seed):
    """The projected tokens of image _pixels(seed), as assembly places them."""
    pooled = adaptive_avg_pool_2d(patchify_embed(_pixels(seed), TINY.encoder), TINY.encoder.t)
    return project(pooled, model.params)[0]


def test_caption_layout_image_tokens_then_text():
    model = _model()
    asm = assemble(_caption(), TINY, model.vocab, model.params)
    t2 = TINY.encoder.tokens_per_image()
    ids = tokenize("a fox rests by the kettle", model.vocab)
    assert [start for start, _ in asm.image_blocks] == [0]
    assert asm.text_positions == list(range(t2, t2 + len(ids)))
    assert asm.text_ids == ids
    assert len(asm) == t2 + len(ids)


def test_interleaved_layout_preserves_item_order():
    model = _model()
    asm = assemble(_doc(), TINY, model.vocab, model.params)
    t2 = TINY.encoder.tokens_per_image()
    open_ids = tokenize("an opening line", model.vocab)
    close_ids = tokenize("a closing line", model.vocab)
    n_open, n_close = len(open_ids), len(close_ids)
    second = n_open + t2 + n_close
    assert [start for start, _ in asm.image_blocks] == [n_open, second]
    assert asm.text_positions == (list(range(n_open))
                                  + list(range(n_open + t2, n_open + t2 + n_close)))
    assert asm.text_ids == open_ids + close_ids
    assert len(asm) == second + t2
    # each block holds its own image, in item order
    for (start, _), seed in zip(asm.image_blocks, (0, 100)):
        assert np.array_equal(asm.emb[start:start + t2], _image_rows(model, seed))


def test_caption_truncates_text_to_fit():
    model = _model()
    long_text = " ".join(["word"] * 100)
    asm = assemble(CaptionSample(id="c", image=_pixels(1), text=long_text),
                   TINY, model.vocab, model.params)
    assert len(asm) == TINY.max_seq_len


def test_interleaved_drops_trailing_text_first_keeps_all_images():
    model = _model()
    items = [DocItem(kind="text", text=" ".join(["early"] * 10)),
             DocItem(kind="image", image=_pixels(2)),
             DocItem(kind="text", text=" ".join(["late"] * 100)),
             DocItem(kind="image", image=_pixels(3))]
    asm = assemble(InterleavedDoc(id="d", items=items), TINY, model.vocab, model.params)
    t2 = TINY.encoder.tokens_per_image()
    n_late = TINY.max_seq_len - 2 * t2 - 10
    assert len(asm) == TINY.max_seq_len
    # images never dropped
    assert [start for start, _ in asm.image_blocks] == [10, 10 + t2 + n_late]
    # the early text survives in full; the cut lands on the trailing text
    assert asm.text_positions == list(range(10)) + list(range(10 + t2, 10 + t2 + n_late))


def test_too_many_image_tokens_is_an_error():
    model = _model()
    items = [DocItem(kind="text", text="x")] + [
        DocItem(kind="image", image=_pixels(i)) for i in range(9)]
    with pytest.raises(DataError, match="image tokens"):
        assemble(InterleavedDoc(id="d", items=items), TINY, model.vocab, model.params)


def test_forward_matches_straight_line_recompute():
    """Independent reassembly of the caption path from the primitives."""
    model = _model()
    sample = _caption(seed=7)
    score, _ = forward_score(assemble(sample, TINY, model.vocab, model.params),
                             TINY, model.params)

    p = model.params
    pooled = adaptive_avg_pool_2d(patchify_embed(sample.image, TINY.encoder), TINY.encoder.t)
    img_emb, _ = project(pooled, p)
    ids = tokenize(sample.text, model.vocab)
    x = np.concatenate([img_emb, p["tok_emb"][ids]])
    x = x + p["pos_emb"][: x.shape[0]]
    bp = {k[len("blocks.0."):]: v for k, v in p.items() if k.startswith("blocks.0.")}
    x, _ = transformer_block(x, bp, TINY.n_heads, last_only=True)  # the last block
    h, _ = layer_norm(x, p["ln_f_g"], p["ln_f_b"])
    expected = float(h[-1] @ p["head_w"][:, 0] + p["head_b"][0])
    assert score == expected


TWO_LAYERS = ModelConfig(d=8, n_layers=2, n_heads=2, max_seq_len=32, encoder=TINY.encoder)


@pytest.mark.parametrize("cfg", [TINY, TWO_LAYERS], ids=["one-layer", "two-layers"])
@pytest.mark.parametrize("record", [
    _caption(seed=4),
    _doc(seed=5),
    InterleavedDoc(id="one-token", items=[DocItem(kind="text", text="fox")]),
    CaptionSample(id="full", image=_pixels(6), text=" ".join(["kettle"] * 100)),
], ids=["caption", "document", "one-token", "max-seq-len"])
def test_inference_path_matches_full_forward(cfg, record):
    """forward_score against a straight-line stack of full blocks on every row."""
    vocab = build_vocab(["a fox rests by the kettle an opening line a closing line"])
    params = init_params(cfg, len(vocab), child_rng(1, "init"))
    # larger weights than init so that rounding differences have room to show
    params = {k: v * 20.0 if v.ndim == 2 else v for k, v in params.items()}
    asm = assemble(record, cfg, vocab, params)
    score, _ = forward_score(asm, cfg, params)

    x = asm.emb + params["pos_emb"][:len(asm)]
    for i in range(cfg.n_layers):
        pre = f"blocks.{i}."
        bp = {k[len(pre):]: v for k, v in params.items() if k.startswith(pre)}
        x, _ = transformer_block(x, bp, cfg.n_heads)
    h, _ = layer_norm(x, params["ln_f_g"], params["ln_f_b"])
    full = float(h[-1] @ params["head_w"][:, 0] + params["head_b"][0])
    assert abs(score - full) <= 1e-12
    if record.id == "full":
        assert len(asm) == cfg.max_seq_len
    if record.id == "one-token":
        assert len(asm) == 1


@pytest.mark.parametrize("record", [_caption(seed=4), _doc(seed=5)], ids=["caption", "document"])
def test_score_record_is_forward_score(record):
    model = _model()
    asm = assemble(record, TINY, model.vocab, model.params)
    assert model.score_record(record) == forward_score(asm, TINY, model.params)[0]


def test_one_model_scores_both_modalities():
    model = _model()
    s_cap = model.score_record(_caption())
    s_doc = model.score_record(_doc())
    assert np.isfinite(s_cap) and np.isfinite(s_doc)
    # same parameter tensors drive both paths; scores are reproducible
    assert model.score_record(_caption()) == s_cap
    assert model.score_record(_doc()) == s_doc


def test_score_depends_only_on_content_not_id():
    model = _model()
    a = CaptionSample(id="first", image=_pixels(5), text="a fox rests")
    b = CaptionSample(id="second", image=_pixels(5), text="a fox rests")
    assert model.score_record(a) == model.score_record(b)


def test_full_model_gradients_against_finite_differences():
    from unifilter.nn import grad_check

    model = _model()
    sample = _caption(seed=3)

    def f(params):
        asm = assemble(sample, TINY, model.vocab, params)
        score, cache = forward_score(asm, TINY, params, keep_cache=True)
        loss = (score - 2.0) ** 2
        grads = zero_grads(params)
        backward_score(2.0 * (score - 2.0), TINY, params, cache, grads)
        return loss, grads

    assert grad_check(f, model.params) < 1e-4


def test_overfit_single_sample():
    """50 raw optimizer steps on one sample drive the error under 0.1."""
    from unifilter.classifier import mse_loss
    from unifilter.nn import AdamConfig, adam_init, adam_step

    model = _model()
    sample = _caption(seed=9)
    params = model.params
    state = adam_init(params, AdamConfig(peak_lr=0.05, warmup_frac=0.0, total_steps=50))
    losses = []
    for _ in range(50):
        asm = assemble(sample, TINY, model.vocab, params)
        pred, cache = forward_score(asm, TINY, params, keep_cache=True)
        loss, dpred = mse_loss(pred, 3.0)
        grads = zero_grads(params)
        backward_score(dpred, TINY, params, cache, grads)
        adam_step(params, grads, state)
        losses.append(loss)
    assert abs(model.score_record(sample) - 3.0) < 0.1
    assert losses[-1] < losses[0]


def test_train_returns_best_validation_epoch():
    rng = child_rng(0, "labels")
    train_s = [LabeledSample(record=_caption(text=f"sample {i} text", seed=i),
                             label=int(rng.integers(4)),
                             level_name=["easy_negative", "medium_negative",
                                         "hard_negative", "positive"][0])
               for i in range(6)]
    for s in train_s:
        s.level_name = ["easy_negative", "medium_negative", "hard_negative",
                        "positive"][s.label]
    val_s = train_s[:3]
    model, history = train(train_s, val_s, TINY,
                           TrainConfig(epochs=3, batch_size=2, peak_lr=1e-3), seed=1)
    best = max(h["val_accuracy"] for h in history)
    acc, _ = __import__("unifilter.classifier", fromlist=["validation_accuracy"]
                        ).validation_accuracy(model, val_s)
    assert acc == best


def test_a_forward_only_pass_keeps_no_activations():
    """Traced allocation of one forward_score without a cache, at the default
    model sizes: it grows with one attention tile and the (n, 4d) MLP
    buffers, linear in n.  Keeping every tile for a backward would peak at
    about 92 MB at 2,048 positions and grow with n^2."""
    cfg = ModelConfig()
    params = init_params(cfg, 5, child_rng(0, "init"))
    rng = child_rng(0, "positions")
    peak_mb = {}
    for n in (2048, 4096):
        asm = AssembledSequence(emb=rng.normal(size=(n, cfg.d)), text_positions=[],
                                text_ids=[], image_blocks=[])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            forward_score(asm, cfg, params, keep_cache=False)
            peak_mb[n] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
    assert peak_mb[2048] < 24
    assert peak_mb[4096] <= 2.2 * peak_mb[2048]


def test_checkpoint_roundtrip_preserves_scores(tmp_path):
    model = _model()
    # init_params(TINY, 14, child_rng(0, "init")): keys, order and draws are pinned
    digest = hashlib.sha256()
    for key, value in model.params.items():
        digest.update(key.encode())
        digest.update(value.tobytes())
    assert digest.hexdigest() == (
        "88b5bd62132482bc1344d31bbde98e8bfeb145406e1a2af413fe0f698be8e2fe")
    sample = _doc(seed=2)
    path = tmp_path / "model.json"
    save_model(path, model)
    back = load_model(path)
    assert back.score_record(sample) == model.score_record(sample)
    assert back.config == model.config


def test_model_config_needs_a_block():
    with pytest.raises(DataError, match="n_layers"):
        ModelConfig(d=8, n_layers=0, n_heads=2, max_seq_len=32, encoder=TINY.encoder)


def test_load_model_rejects_non_checkpoint(tmp_path):
    from unifilter.nn import save_tensors

    path = tmp_path / "other.json"
    save_tensors(path, {"w": np.ones(2)}, meta={"kind": "something-else"})
    with pytest.raises(DataError):
        load_model(path)


def test_train_history_schema():
    sample = LabeledSample(record=_caption(seed=1), label=0, level_name="easy_negative")
    _, history = train([sample], [sample], TINY,
                       TrainConfig(epochs=2, batch_size=1, peak_lr=1e-3), seed=0)
    assert len(history) == 2
    assert {"epoch", "train_loss", "val_accuracy", "val_macro_f1", "lr_end"} <= set(history[0])


SMALL = ModelConfig(d=16, n_layers=1, n_heads=2, max_seq_len=192,
                    encoder=EncoderConfig(patch_size=4, d_v=8, t=4, d=16, seed=0))
SMALL_TRAIN = TrainConfig(epochs=2, batch_size=7, peak_lr=1e-3)


def test_balanced_groups_split_by_cost_alone():
    # costliest first, each to the lightest group, the lower index on a tie
    assert balanced_groups([5, 1, 4, 2, 3], 2) == [[0, 1, 3], [2, 4]]
    assert balanced_groups([3], 2) == [[0], []]
    assert balanced_groups([], 2) == [[], []]


@contextmanager
def cpus(count):
    """This thread, and so the processes train forks, on `count` of its CPUs:
    train runs one process on one CPU and two on two."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(before)[:count])
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")


@two_cpus
def test_train_bytes_do_not_depend_on_the_worker_count():
    train_s, val_s = make_mock_benchmark(3, 1, seed=4)   # batches of 7, 7, 7 and 3
    with cpus(1):
        one, history_one = train(train_s, val_s, SMALL, SMALL_TRAIN, seed=2)
    with cpus(2):
        two, history_two = train(train_s, val_s, SMALL, SMALL_TRAIN, seed=2)
    assert history_one == history_two
    assert list(one.params) == list(two.params)
    for name in one.params:
        assert one.params[name].tobytes() == two.params[name].tobytes(), name
    assert multiprocessing.active_children() == []


@two_cpus
def test_worker_errors_reach_the_caller_with_their_type(monkeypatch):
    train_s, val_s = make_mock_benchmark(2, 1, seed=4)
    # 13 images of 16 tokens exceed max_seq_len 192
    too_long = LabeledSample(record=InterleavedDoc(id="too-long", items=[
        DocItem(kind="image", image=_pixels(i)) for i in range(13)]),
        label=0, level_name="easy_negative")
    with pytest.raises(DataError, match="too-long"):
        train(train_s + [too_long], val_s, SMALL, SMALL_TRAIN, seed=0)
    assert multiprocessing.active_children() == []

    # the same failures raised only in the forked worker, never in this process
    caller = os.getpid()
    real_assemble, real_loss = classifier.assemble, classifier.mse_loss

    def assemble(record, *args):
        if os.getpid() != caller:
            raise DataError(f"record {record.record.id!r} fails in the worker")
        return real_assemble(record, *args)

    monkeypatch.setattr(classifier, "assemble", assemble)
    with pytest.raises(DataError, match="fails in the worker"):
        train(train_s, val_s, SMALL, SMALL_TRAIN, seed=0)
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(classifier, "assemble", real_assemble)
    monkeypatch.setattr(classifier, "mse_loss", lambda pred, target: (
        (math.nan, 0.0) if os.getpid() != caller else real_loss(pred, target)))
    with pytest.raises(NumericError, match="non-finite training loss"):
        train(train_s, val_s, SMALL, SMALL_TRAIN, seed=0)
    assert multiprocessing.active_children() == []
