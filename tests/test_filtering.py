"""Top-fraction selection, DFN baseline, corpus stats, scoring plumbing."""

import numpy as np
import pytest

from unifilter.classifier import ModelConfig, QualityModel, init_params
from unifilter.common import DataError, child_rng
from unifilter.encoder import EncoderConfig
from unifilter.filtering import (
    CorpusStats,
    FilterConfig,
    corpus_stats,
    dfn_filter_corpus,
    dfn_filter_doc,
    dfn_image_embedding,
    hashed_text_embedding,
    score_corpus,
    select_top_fraction,
    threshold_for_fraction,
)
from unifilter.packing import Vocab
from unifilter.records import (
    CaptionSample,
    DocItem,
    ImagePayload,
    InterleavedDoc,
    ScoredRecord,
)


def _scores(values, prefix="r"):
    return [ScoredRecord(id=f"{prefix}{i:04d}", score=float(v), modality="caption")
            for i, v in enumerate(values)]


def _records_for(scores):
    img = ImagePayload(pixels=np.full((1, 4, 4), 0.5))
    return [CaptionSample(id=s.id, image=img, text="x") for s in scores]


def _sort_oracle(scores, fraction):
    """Independent full-sort selection used to cross-check the library."""
    import math

    n = len(scores)
    raw = fraction * n
    m = round(raw) if abs(raw - round(raw)) < 1e-9 else math.ceil(raw)
    ranked = sorted(scores, key=lambda s: (-s.score, s.id))
    return {s.id for s in ranked[:m]}


def test_select_exact_count_n1000_f030():
    rng = child_rng(0, "f030")
    scores = _scores(rng.uniform(size=1000))
    records = _records_for(scores)
    kept = select_top_fraction(scores, records, 0.30)
    assert len(kept) == 300


def test_select_fraction_one_is_identity():
    rng = child_rng(1, "f1")
    scores = _scores(rng.uniform(size=57))
    records = _records_for(scores)
    kept = select_top_fraction(scores, records, 1.0)
    assert [r.id for r in kept] == [r.id for r in records]


def test_select_forced_ordering():
    scores = _scores([0.9, 0.1, 0.5, 0.7])
    records = _records_for(scores)
    kept = select_top_fraction(scores, records, 0.5)
    assert {r.id for r in kept} == {"r0000", "r0003"}


def test_select_all_ties_keeps_lowest_ids():
    scores = _scores([0.5] * 10)
    records = _records_for(scores)
    kept = select_top_fraction(scores, records, 0.5)
    assert [r.id for r in kept] == [f"r{i:04d}" for i in range(5)]


def test_select_output_preserves_corpus_order():
    scores = _scores([0.1, 0.9, 0.2, 0.8, 0.3])
    records = _records_for(scores)
    kept = select_top_fraction(scores, records, 0.6)
    ids = [r.id for r in kept]
    assert ids == sorted(ids, key=lambda rid: [r.id for r in records].index(rid))
    assert ids == ["r0001", "r0003", "r0004"]


def test_select_matches_sort_oracle_with_heavy_ties():
    rng = child_rng(2, "oracle")
    for trial in range(200):
        n = int(rng.integers(1, 60))
        # quantized scores force ties; at least ~10% of instances are all-tied
        levels = int(rng.integers(1, 6))
        values = rng.integers(levels, size=n) / max(levels - 1, 1)
        fraction = float(rng.uniform(0.05, 1.0))
        scores = _scores(values)
        records = _records_for(scores)
        kept = {r.id for r in select_top_fraction(scores, records, fraction)}
        assert kept == _sort_oracle(scores, fraction), (trial, n, fraction)


def test_select_is_order_independent():
    rng = child_rng(3, "perm")
    scores = _scores(rng.integers(3, size=40) / 2.0)
    records = _records_for(scores)
    kept_a = {r.id for r in select_top_fraction(scores, records, 0.4)}
    perm = rng.permutation(len(scores))
    scores_p = [scores[i] for i in perm]
    records_p = [records[i] for i in perm]
    kept_b = {r.id for r in select_top_fraction(scores_p, records_p, 0.4)}
    assert kept_a == kept_b


def test_select_validates_id_correspondence():
    scores = _scores([0.1, 0.2])
    records = _records_for(_scores([0.1, 0.2, 0.3]))
    with pytest.raises(DataError, match="no score"):
        select_top_fraction(scores, records, 0.5)
    with pytest.raises(DataError, match="unknown record"):
        select_top_fraction(_scores([0.1, 0.2, 0.3]), records[:2], 0.5)
    with pytest.raises(DataError, match="duplicate score"):
        select_top_fraction(scores + scores[:1], records[:2], 0.5)
    with pytest.raises(DataError, match="duplicate record id 'r0000'"):
        select_top_fraction(scores, records[:2] + records[:1], 0.5)


def test_threshold_for_fraction_examples():
    scores = _scores([1.0, 2.0, 3.0, 4.0])
    assert threshold_for_fraction(scores, 0.25) == 4.0
    assert threshold_for_fraction(scores, 1.0) == 1.0
    with pytest.raises(DataError):
        threshold_for_fraction([], 0.5)


def test_threshold_matches_sort_oracle():
    rng = child_rng(4, "thr")
    values = rng.integers(20, size=10_000) / 19.0
    scores = _scores(values)
    for fraction in (0.05, 0.15, 0.30, 0.5, 0.77, 1.0):
        thr = threshold_for_fraction(scores, fraction)
        ordered = sorted(values, reverse=True)
        m = round(fraction * len(values))
        assert thr == ordered[m - 1]
        # selection == thresholding + stable-by-id tie policy
        kept = {r.id for r in select_top_fraction(scores, _records_for(scores), fraction)}
        above = {s.id for s in scores if s.score > thr}
        at = sorted(s.id for s in scores if s.score == thr)
        expected = above | set(at[: m - len(above)])
        assert kept == expected


# --- DFN baseline ------------------------------------------------------------------


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_dfn_keeps_image_when_max_sim_reaches_threshold():
    # sims to the two paragraphs: 0.2 and 0.05 -> max 0.2 >= 0.15 keeps
    e1 = _unit([1.0, 0.0])
    paras = {"p0": _unit([0.2, np.sqrt(1 - 0.04)]), "p1": _unit([0.05, np.sqrt(1 - 0.0025)])}
    doc = InterleavedDoc(id="d", items=[
        DocItem(kind="text", text="p0"),
        DocItem(kind="text", text="p1"),
        DocItem(kind="image", image=ImagePayload(patches=np.ones((1, 1, 2)))),
    ])
    kept = dfn_filter_doc(doc, lambda t: paras[t], lambda img: e1, 0.15)
    assert kept is not None
    assert len(kept.images()) == 1


def test_dfn_drops_image_below_threshold_and_doc_without_images():
    e1 = _unit([1.0, 0.0])
    low = _unit([0.1, np.sqrt(1 - 0.01)])
    doc = InterleavedDoc(id="d", items=[
        DocItem(kind="text", text="p"),
        DocItem(kind="image", image=ImagePayload(patches=np.ones((1, 1, 2)))),
    ])
    kept = dfn_filter_doc(doc, lambda t: low, lambda img: e1, 0.15)
    assert kept is None  # sims [0.1] -> image removed -> no image left


def test_dfn_reads_a_caption_as_its_one_image_document():
    e1 = _unit([1.0, 0.0])
    paras = {"near": _unit([0.5, np.sqrt(0.75)]), "far": _unit([0.1, np.sqrt(0.99)])}
    image = ImagePayload(patches=np.ones((1, 1, 2)))
    near = CaptionSample(id="near", image=image, text="near")
    far = CaptionSample(id="far", image=image, text="far")
    assert dfn_filter_doc(near, paras.__getitem__, lambda img: e1, 0.15) is near
    assert dfn_filter_doc(far, paras.__getitem__, lambda img: e1, 0.15) is None
    kept, rejects = dfn_filter_corpus([far, near], 0.15, paras.__getitem__, lambda img: e1)
    assert kept == [near] and [r["id"] for r in rejects] == ["far"]


def test_dfn_five_doc_corpus_exact_keep_drop():
    """Hand-built corpus with prescribed unit vectors; checked per image."""
    basis = np.eye(3)
    para_emb = {}
    img_emb = {}

    def text_fn(text):
        return para_emb[text]

    def img_fn(payload):
        return img_emb[float(payload.patches[0, 0, 0])]

    def doc(doc_id, imgs, paras):
        items = [DocItem(kind="text", text=p) for p in paras]
        items += [DocItem(kind="image",
                          image=ImagePayload(patches=np.full((1, 1, 3), v)))
                  for v in imgs]
        return InterleavedDoc(id=doc_id, items=items)

    # doc A: image aligned with its paragraph -> kept
    para_emb["a0"] = basis[0]
    img_emb[1.0] = basis[0]
    # doc B: orthogonal image -> dropped, doc rejected
    para_emb["b0"] = basis[1]
    img_emb[2.0] = basis[0]
    # doc C: two images, one at exactly the threshold (kept), one below
    para_emb["c0"] = basis[0]
    img_emb[3.0] = _unit([0.15, np.sqrt(1 - 0.15 ** 2), 0.0] @ np.eye(3))
    # cosine(img3, c0) = 0.15 exactly
    img_emb[4.0] = _unit([0.149, np.sqrt(1 - 0.149 ** 2), 0.0])
    # doc D: second paragraph rescues the image (max over paragraphs)
    para_emb["d0"] = basis[1]
    para_emb["d1"] = basis[2]
    img_emb[5.0] = basis[2]
    # doc E: negative similarity -> dropped
    para_emb["e0"] = basis[0]
    img_emb[6.0] = -basis[0]

    corpus = [
        doc("A", [1.0], ["a0"]),
        doc("B", [2.0], ["b0"]),
        doc("C", [3.0, 4.0], ["c0"]),
        doc("D", [5.0], ["d0", "d1"]),
        doc("E", [6.0], ["e0"]),
    ]
    kept, rejects = dfn_filter_corpus(corpus, threshold=0.15,
                                      text_embed_fn=text_fn, image_embed_fn=img_fn)
    assert [d.id for d in kept] == ["A", "C", "D"]
    assert [r["id"] for r in rejects] == ["B", "E"]
    c = next(d for d in kept if d.id == "C")
    assert len(c.images()) == 1  # 0.149 image dropped, 0.15 image kept
    assert float(c.images()[0].patches[0, 0, 0]) == 3.0
    # text is never removed, even from rejected-image docs
    assert [it.text for it in c.items if it.kind == "text"] == ["c0"]
    d = next(x for x in kept if x.id == "D")
    assert len(d.texts()) == 2


def test_dfn_threshold_minus_one_is_identity():
    rng = child_rng(5, "dfnid")
    corpus = []
    for i in range(10):
        n_img = int(rng.integers(1, 4))
        items = [DocItem(kind="text", text=f"doc {i} text")]
        items += [DocItem(kind="image",
                          image=ImagePayload(pixels=rng.uniform(size=(1, 4, 4))))
                  for _ in range(n_img)]
        corpus.append(InterleavedDoc(id=f"d{i}", items=items))
    kept, rejects = dfn_filter_corpus(corpus, threshold=-1.0)
    assert not rejects
    assert [d.id for d in kept] == [d.id for d in corpus]
    assert all(len(a.items) == len(b.items) for a, b in zip(kept, corpus))


@pytest.mark.filterwarnings("error")
def test_dfn_image_embedding_is_none_when_finite_pixels_overflow():
    huge = ImagePayload(pixels=np.full((3, 8, 8), 1e308))
    assert dfn_image_embedding(huge) is None
    doc = InterleavedDoc(id="d", items=[DocItem(kind="text", text="the fox"),
                                        DocItem(kind="image", image=huge)])
    # without an embedding the image scores -1: only threshold -1 keeps it
    assert dfn_filter_corpus([doc], threshold=-1.0)[0] == [doc]
    assert dfn_filter_corpus([doc], threshold=-0.5) == (
        [], [{"id": "d", "error": "no image met the similarity threshold"}])


def test_dfn_never_removes_text_never_adds_images():
    rng = child_rng(6, "dfninv")
    for trial in range(20):
        items = [DocItem(kind="text", text=f"alpha beta {trial}")]
        for j in range(int(rng.integers(1, 4))):
            items.append(DocItem(kind="image",
                                 image=ImagePayload(pixels=rng.uniform(size=(1, 4, 4)))))
            items.append(DocItem(kind="text", text=f"gamma delta {j}"))
        doc = InterleavedDoc(id=f"t{trial}", items=items)
        out = dfn_filter_doc(doc, hashed_text_embedding,
                             lambda img: hashed_text_embedding("proxy words"),
                             threshold=float(rng.uniform(-1, 1)))
        if out is None:
            continue
        assert out.texts() == doc.texts()
        assert len(out.images()) <= len(doc.images())


def test_hashed_text_embedding_properties():
    emb = hashed_text_embedding("the quick brown fox")
    assert abs(np.linalg.norm(emb) - 1.0) < 1e-12
    assert np.array_equal(emb, hashed_text_embedding("the quick brown fox"))
    assert hashed_text_embedding("") is None
    assert hashed_text_embedding("   ") is None
    # token order does not matter for a bag embedding
    assert np.allclose(hashed_text_embedding("alpha beta"),
                       hashed_text_embedding("beta alpha"))


# --- stats ------------------------------------------------------------------------


def _stat_doc(doc_id, n_images, words):
    rng = child_rng(int(doc_id[-1]), "stat")
    items = [DocItem(kind="text", text=" ".join(["word"] * words))]
    items += [DocItem(kind="image", image=ImagePayload(pixels=rng.uniform(size=(1, 4, 4))))
              for _ in range(n_images)]
    return InterleavedDoc(id=doc_id, items=items)


def test_corpus_stats_two_doc_example():
    docs = [_stat_doc("d1", 2, 100), _stat_doc("d2", 4, 300)]
    stats = corpus_stats(docs, image_token_equiv=0)
    assert stats.avg_images_per_doc == 3.0
    assert stats.avg_text_len == 200.0
    assert stats.avg_doc_len == 200.0


def test_corpus_stats_image_token_equiv_counts_in_doc_len():
    docs = [_stat_doc("d1", 2, 10)]
    stats = corpus_stats(docs, image_token_equiv=144)
    assert stats.avg_doc_len == 10 + 2 * 144
    assert stats.n_records == 1


def test_corpus_stats_single_doc_equals_that_doc():
    docs = [_stat_doc("d3", 3, 42)]
    stats = corpus_stats(docs, image_token_equiv=5, retained_fraction=0.25)
    assert stats.avg_images_per_doc == 3.0
    assert stats.avg_text_len == 42.0
    assert stats.retained_fraction == 0.25


def test_corpus_stats_counts_captions_as_one_image():
    caps = [CaptionSample(id="c", image=ImagePayload(pixels=np.zeros((1, 2, 2))),
                          text="five words are right here")]
    stats = corpus_stats(caps, image_token_equiv=10)
    assert stats.avg_images_per_doc == 1.0
    assert stats.avg_text_len == 5.0
    assert stats.avg_doc_len == 15.0


def test_corpus_stats_rejects_empty_and_bad_fraction():
    with pytest.raises(DataError):
        corpus_stats([], image_token_equiv=0)
    with pytest.raises(DataError):
        CorpusStats(n_records=1, avg_images_per_doc=1, avg_text_len=1,
                    avg_doc_len=1, retained_fraction=1.5)


# --- scoring plumbing ---------------------------------------------------------------


class _StubModel:
    """Scores by id digits; over-length ids raise like the real model."""

    def score_record(self, record):
        if record.id.endswith("bad"):
            raise DataError(f"record {record.id!r}: too long")
        if record.id.endswith(("nan", "inf")):
            return float(record.id[-3:])
        return float(int(record.id[-1])) / 10.0


def test_score_corpus_orders_and_rejects():
    img = ImagePayload(pixels=np.zeros((1, 2, 2)))
    records = [CaptionSample(id=f"s{i}", image=img, text="t") for i in range(5)]
    records.insert(2, CaptionSample(id="sbad", image=img, text="t"))
    scored, rejects = score_corpus(records, _StubModel(), FilterConfig(batch_size=2))
    assert [s.id for s in scored] == ["s0", "s1", "s2", "s3", "s4"]
    assert [r["id"] for r in rejects] == ["sbad"]
    assert "too long" in rejects[0]["error"]


def test_score_corpus_rejects_non_finite_scores():
    img = ImagePayload(pixels=np.zeros((1, 2, 2)))
    records = [CaptionSample(id=rid, image=img, text="t") for rid in ("s1", "snan", "sinf", "s2")]
    scored, rejects = score_corpus(records, _StubModel(), FilterConfig(batch_size=3))
    assert [(s.id, s.score) for s in scored] == [("s1", 0.1), ("s2", 0.2)]
    assert rejects == [{"id": "snan", "error": "non-finite score"},
                       {"id": "sinf", "error": "non-finite score"}]


def test_score_corpus_refuses_duplicate_ids():
    """The repeat is found when its result arrives, in record order, before
    a later record's error, on one process and on two."""
    img = ImagePayload(pixels=np.zeros((1, 2, 2)))
    records = [CaptionSample(id=rid, image=img, text="t") for rid in ("s1", "s2", "s1", "s4")]
    records.append("not a record")
    for workers in (1, 2):
        with pytest.raises(DataError, match="duplicate record id 's1'"):
            score_corpus(records, _StubModel(), FilterConfig(batch_size=2, workers=workers))


def test_score_corpus_empty_input():
    scored, rejects = score_corpus([], _StubModel(), FilterConfig())
    assert scored == [] and rejects == []


def test_score_corpus_batch_and_worker_invariance():
    img = ImagePayload(pixels=np.zeros((1, 2, 2)))
    records = [CaptionSample(id=f"s{i}", image=img, text="t") for i in range(17)]
    base, _ = score_corpus(records, _StubModel(), FilterConfig(batch_size=1))
    for batch_size, workers in [(4, 1), (17, 1), (3, 4)]:
        out, _ = score_corpus(records, _StubModel(),
                              FilterConfig(batch_size=batch_size, workers=workers))
        assert [(s.id, s.score) for s in out] == [(s.id, s.score) for s in base]


def test_score_corpus_rejects_from_both_processes():
    """The worker's first chunk holds an over-length record and an image too
    small to pool, and this process's first record is over-length; two
    processes give one process's scores and rejects."""
    cfg = ModelConfig(d=16, n_layers=1, n_heads=2, max_seq_len=96, encoder=EncoderConfig(d=16))
    model = QualityModel(cfg, Vocab(words=["fox"]), init_params(cfg, 5, child_rng(0)))
    rng = child_rng(0, "both-processes")

    def image(side=16):
        return ImagePayload(pixels=rng.uniform(size=(1, side, side)))

    records = [CaptionSample(id=f"c{i}", image=image(), text="the fox runs") for i in range(8)]
    for slot, rid in ((1, "long0"), (2, "small0"), (3, "long1"), (9, "small1")):
        if rid.startswith("long"):      # 7 x 16 image tokens exceed max_seq_len 96
            items = [DocItem(kind="image", image=image()) for _ in range(7)]
            items.append(DocItem(kind="text", text="fox"))
            records.insert(slot, InterleavedDoc(id=rid, items=items))
        else:                           # a 2 x 2 patch grid cannot pool to 4 x 4
            records.insert(slot, CaptionSample(id=rid, image=image(side=8), text="fox"))

    # the worker takes records 0-2, this process record 3 and then either may go on
    one = score_corpus(records, model, FilterConfig(batch_size=3, workers=1))
    two = score_corpus(records, model, FilterConfig(batch_size=3, workers=2))
    assert two == one
    scored, rejects = one
    assert [s.id for s in scored] == [f"c{i}" for i in range(8)]
    assert [r["id"] for r in rejects] == ["long0", "small0", "long1", "small1"]
    assert "exceed max_seq_len" in rejects[0]["error"] and "smaller than" in rejects[1]["error"]


def test_filter_config_validation():
    scores = _scores([0.1, 0.2, 0.3])
    with pytest.raises(DataError, match="fraction"):
        select_top_fraction(scores, _records_for(scores), 0.0)
    with pytest.raises(DataError, match="fraction"):
        select_top_fraction(scores, _records_for(scores), 1.2)
    with pytest.raises(DataError):
        FilterConfig(batch_size=0)
    with pytest.raises(DataError):
        FilterConfig(workers=0)
