"""Seeded benchmark inputs, written through the program's public API.

The shape of each corpus is fixed and only its content depends on the seed:
sequence lengths, image counts and paragraph counts are stratified over the
corpus and then shuffled.  Every seed therefore asks for nearly the same
amount of work, and the spread between seeds measures the program, not the
draw.  The scoring checkpoint is drawn here too, from the benchmark's own
generator, so no change to training can alter the score workload's inputs.
"""

from __future__ import annotations

import numpy as np

from unifilter.classifier import ModelConfig, QualityModel, save_model
from unifilter.encoder import EncoderConfig
from unifilter.packing import Vocab
from unifilter.records import CaptionSample, DocItem, ImagePayload, InterleavedDoc, write_records

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
# 1,500 in-vocabulary words; three-syllable words never are, so they map to unk
WORDS = [a + b for a in _SYLLABLES for b in _SYLLABLES][:1500]
OOV_SHARE = 0.03
SENTENCE_LEN = 12

# scoring model: ROADMAP's baseline width with room for the longest documents
SCORE_MODEL = ModelConfig(d=64, n_layers=2, n_heads=4, max_seq_len=512,
                          encoder=EncoderConfig(patch_size=4, d_v=8, t=4, d=64, seed=0))


def _rng(seed: int, purpose: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, purpose)), len(purpose)])


def vocab() -> Vocab:
    return Vocab(words=list(WORDS))


def _tokens(rng: np.random.Generator, k: int) -> str:
    """Exactly k tokens for the program's tokenizer (words and full stops)."""
    out = []
    for i in range(k):
        if i % SENTENCE_LEN == SENTENCE_LEN - 1:
            out.append(".")
        elif rng.random() < OOV_SHARE:
            out.append("".join(rng.choice(_SYLLABLES, size=3)))
        else:
            out.append(WORDS[int(rng.integers(len(WORDS)))])
    return " ".join(out)


def _image(rng: np.random.Generator) -> ImagePayload:
    """A 1x16x16 image: a base level, a smooth rank-one pattern and noise, so
    image embeddings differ between images."""
    pattern = np.outer(rng.random(16), rng.random(16))[None]
    return ImagePayload(pixels=0.4 * rng.random() + 0.3 * pattern
                        + 0.3 * rng.random((1, 16, 16)))


def _split(rng: np.random.Generator, total: int, parts: int) -> list[int]:
    """Random split of total tokens into parts, each at least one token."""
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [total]])).astype(int).tolist()


def _doc(rng, doc_id: str, n_images: int, text_tokens: int, n_paras: int) -> InterleavedDoc:
    paras = [DocItem(kind="text", text=_tokens(rng, k))
             for k in _split(rng, text_tokens, n_paras)]
    images = [DocItem(kind="image", image=_image(rng)) for _ in range(n_images)]
    # interleave: paragraphs and images alternate, starting with either
    items, first_text = [], bool(rng.integers(2))
    while paras or images:
        take_text = (first_text and paras) or not images
        items.append(paras.pop(0) if take_text else images.pop(0))
        first_text = not first_text
    return InterleavedDoc(id=doc_id, items=items)


def score_corpus(seed: int, n: int) -> list:
    """n records, half captions and half documents.

    Captions hold one 1x16x16 image and 24..96 tokens (40..112 positions).
    Documents hold 1..6 such images and 2..6 paragraphs; their lengths run
    from 60 to 512 positions, skewed so that a quarter exceed 200, because
    attention cost grows with the square of the length.
    """
    rng = _rng(seed, "score-corpus")
    half = n // 2
    shapes = []
    for i in range(half):
        frac = (i + 0.5) / half
        shapes.append(("caption", 24 + round(72 * frac), 1, 1))
        n_images = 1 + i % 6
        length = 60 + round(452 * frac ** 4)
        shapes.append(("doc", max(length - 16 * n_images, 12), n_images, 2 + i % 5))
    order = rng.permutation(len(shapes))
    records = []
    for pos, j in enumerate(order):
        kind, text_tokens, n_images, n_paras = shapes[j]
        rid = f"r{pos:05d}"
        if kind == "caption":
            records.append(CaptionSample(id=rid, image=_image(rng),
                                         text=_tokens(rng, text_tokens)))
        else:
            records.append(_doc(rng, rid, n_images, text_tokens, n_paras))
    return records


def score_model(seed: int) -> QualityModel:
    """Random weights in the checkpoint layout, drawn by the benchmark."""
    rng = _rng(seed, "score-model")
    cfg = SCORE_MODEL
    d, d_v = cfg.d, cfg.encoder.d_v

    def weight(*shape):
        return rng.normal(0.0, 0.08, size=shape)

    def gain():
        return 1.0 + rng.normal(0.0, 0.1, size=d)

    def bias(size=d):
        return rng.normal(0.0, 0.02, size=size)

    params = {"tok_emb": weight(len(vocab()), d), "pos_emb": weight(cfg.max_seq_len, d)}
    for i in range(cfg.n_layers):
        pre = f"blocks.{i}."
        for name in ("wq", "wk", "wv", "wo"):
            params[pre + name] = weight(d, d)
        for name in ("bq", "bk", "bv", "bo"):
            params[pre + name] = bias()
        params.update({pre + "ln1_g": gain(), pre + "ln1_b": bias(),
                       pre + "ln2_g": gain(), pre + "ln2_b": bias(),
                       pre + "w1": weight(d, 4 * d), pre + "b1": bias(4 * d),
                       pre + "w2": weight(4 * d, d), pre + "b2": bias()})
    params.update({"ln_f_g": gain(), "ln_f_b": bias(), "head_w": weight(d, 1),
                   "head_b": bias(1), "proj_w1": weight(d_v, d), "proj_b1": bias(),
                   "proj_w2": weight(d, d), "proj_b2": bias()})
    return QualityModel(config=cfg, vocab=vocab(), params=params)


def write_score_inputs(directory, seed: int, n: int) -> None:
    """The corpus, its documents alone (for dfn-filter), a checkpoint, a vocab."""
    records = score_corpus(seed, n)
    write_records(directory / "corpus.jsonl", records)
    write_records(directory / "docs.jsonl", [r for r in records if isinstance(r, InterleavedDoc)])
    save_model(directory / "model.json", score_model(seed))
    vocab().save(directory / "vocab.json")
