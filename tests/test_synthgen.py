"""Mock generation, response parsing, dataset assembly."""

import hashlib

import numpy as np
import pytest

from unifilter.common import DataError, child_rng
from unifilter.records import (CaptionSample, DocItem, ImagePayload, InterleavedDoc,
                               write_records)
from unifilter.synthgen import (
    N_BUCKETS,
    build_dataset,
    derive_buckets,
    derive_keywords,
    keyword_overlap_label,
    make_mock_benchmark,
    make_mock_sources,
    mock_generate_caption,
    mock_generate_document,
    parse_caption_response,
    parse_interleaved_response,
    render_mock_image,
)

LEVELS = [0, 1, 2, 3]


# --- mock generation ---------------------------------------------------------------


def _image(buckets, seed=0):
    return render_mock_image(buckets, child_rng(seed, "test-img"))


def test_rendered_image_recovers_its_buckets():
    for seed, buckets in enumerate([[0, 1, 2, 3], [7, 6, 5, 4], [3, 3, 3, 3]]):
        assert derive_buckets(_image(buckets, seed=seed)) == buckets


def test_caption_levels_encode_keyword_overlap():
    img = _image([1, 4, 2, 7])
    donor = _image([5, 0, 6, 3])
    kws = set(derive_keywords(img))
    for level, expected_overlap in [(0, 0), (1, 1), (2, 3), (3, 4)]:
        resp = mock_generate_caption(img, level, seed=11, donor=donor)
        caption = parse_caption_response(resp, level)
        words = set(caption.replace(".", " ").replace(",", " ").lower().split())
        assert len(kws & words) == expected_overlap, (level, caption)


def test_keyword_overlap_label_inverts_generation():
    rng = child_rng(3, "roundtrip")
    for level in LEVELS:
        for trial in range(5):
            buckets = [int(b) for b in rng.integers(N_BUCKETS, size=4)]
            donor_buckets = [(b + 3) % N_BUCKETS for b in buckets]
            img = _image(buckets, seed=trial)
            donor = _image(donor_buckets, seed=trial + 50)
            resp = mock_generate_caption(img, level, seed=trial * 7 + level, donor=donor)
            sample = CaptionSample(id="c", image=img,
                                   text=parse_caption_response(resp, level))
            assert keyword_overlap_label(sample) == level


def test_document_levels_encode_mean_overlap():
    rng = child_rng(4, "docs")
    for level in LEVELS:
        per_slot = [rng.choice(N_BUCKETS, size=2, replace=False) for _ in range(4)]
        images = [_image([int(per_slot[q][i]) for q in range(4)], seed=20 + i)
                  for i in range(2)]
        resp = mock_generate_document(images, level, seed=level * 13)
        items = parse_interleaved_response(resp, images)
        doc = InterleavedDoc(id="d", items=items)
        assert keyword_overlap_label(doc) == level


def test_mock_generation_is_deterministic():
    img = _image([2, 5, 1, 6])
    a = mock_generate_caption(img, 3, seed=9)
    b = mock_generate_caption(img, 3, seed=9)
    assert a == b
    c = mock_generate_caption(img, 3, seed=10)
    assert c != a  # seed moves the filler/detail choices


def test_mock_document_response_schema():
    images = [_image([0, 2, 4, 6], seed=1), _image([1, 3, 5, 7], seed=2)]
    resp = mock_generate_document(images, 3, seed=3)
    assert set(resp) == {"image_tags", "document"}
    assert len(resp["image_tags"]) == 2
    assert resp["document"].count("<img>") == 2


# --- response parsing --------------------------------------------------------------


def test_parse_caption_picks_level_matching_key():
    resp = {"topic": "x", "positive_caption": "good text", "negative_caption": "bad text"}
    assert parse_caption_response(resp, 3) == "good text"
    for level in (0, 1, 2):
        assert parse_caption_response(resp, level) == "bad text"


def test_parse_caption_rejects_missing_or_empty():
    with pytest.raises(DataError):
        parse_caption_response({"positive_caption": "x"}, 0)
    with pytest.raises(DataError):
        parse_caption_response({"positive_caption": " ", "negative_caption": "y"}, 3)


def test_parse_interleaved_roundtrip_order():
    images = [_image([0, 1, 2, 3], seed=4), _image([4, 5, 6, 7], seed=5)]
    resp = {"image_tags": ["first tag", "second tag"],
            "document": "Intro text.\n<img>second tag</img>\nMiddle.\n<img>first tag</img>\nEnd."}
    items = parse_interleaved_response(resp, images)
    kinds = [it.kind for it in items]
    assert kinds == ["text", "image", "text", "image", "text"]
    assert items[1].image == images[1]  # "second tag" is position 1
    assert items[3].image == images[0]


def test_parse_interleaved_rejects_bad_tag_usage():
    images = [_image([0, 1, 2, 3], seed=6)]
    with pytest.raises(DataError, match="unknown"):
        parse_interleaved_response(
            {"image_tags": ["a"], "document": "x <img>b</img> y"}, images)
    with pytest.raises(DataError, match="more than once"):
        parse_interleaved_response(
            {"image_tags": ["a"], "document": "<img>a</img> mid <img>a</img>"}, images)
    with pytest.raises(DataError, match="never used"):
        parse_interleaved_response(
            {"image_tags": ["a"], "document": "no tags at all"}, images)
    with pytest.raises(DataError, match="not unique"):
        parse_interleaved_response(
            {"image_tags": ["a", "a"], "document": "<img>a</img>"}, images + images)


# --- dataset assembly ----------------------------------------------------------------


def test_build_dataset_counts_split_and_labels():
    images, docs = make_mock_sources(20, 20, seed=2)
    counts = {0: 4, 1: 4, 2: 4, 3: 4}
    train, val, report = build_dataset(images, docs, counts, val_fraction=0.1, seed=5)
    total = 2 * sum(counts.values())  # both modalities
    assert len(train) + len(val) == total
    assert len(val) == int(0.1 * total)
    by_level = {lvl: 0 for lvl in LEVELS}
    for s in train + val:
        by_level[s.label] += 1
        assert s.level_name == ["easy_negative", "medium_negative",
                                "hard_negative", "positive"][s.label]
    assert by_level == {0: 8, 1: 8, 2: 8, 3: 8}
    assert report.n_train == len(train) and report.n_val == len(val)


def test_build_dataset_is_deterministic():
    images, docs = make_mock_sources(12, 12, seed=1)
    a_train, a_val, _ = build_dataset(images, docs, {0: 3, 3: 3}, seed=9)
    b_train, b_val, _ = build_dataset(images, docs, {0: 3, 3: 3}, seed=9)
    assert [s.record.id for s in a_train] == [s.record.id for s in b_train]
    assert [s.record.to_obj() for s in a_val] == [s.record.to_obj() for s in b_val]


def test_build_dataset_labels_are_recoverable():
    images, docs = make_mock_sources(16, 16, seed=3)
    train, val, _ = build_dataset(images, docs, {0: 4, 1: 4, 2: 4, 3: 4}, seed=3)
    for s in train + val:
        assert keyword_overlap_label(s.record) == s.label


def test_build_dataset_injects_nonsynthetic_positives():
    images, docs = make_mock_sources(8, 8, seed=4)
    curated = [CaptionSample(id=f"real-{i}", image=_image([0, 1, 2, 3], seed=30 + i),
                             text="curated caption text")
               for i in range(3)]
    train, val, report = build_dataset(images, docs, {0: 2}, nonsyn_positives=curated,
                                       val_fraction=0.0, seed=0)
    injected = [s for s in train + val if s.provenance == "nonsynthetic_positive"]
    assert len(injected) == 3
    assert all(s.label == 3 and s.level_name == "positive" for s in injected)
    assert report.nonsynthetic_positives == 3


def test_build_dataset_needs_enough_sources():
    images, docs = make_mock_sources(2, 2, seed=0)
    with pytest.raises(DataError, match="caption images"):
        build_dataset(images, docs, {0: 5}, seed=0)


def test_mock_sources_doc_images_have_distinct_keywords():
    _, docs = make_mock_sources(0, 10, seed=7)
    for group in docs:
        kw_sets = [set(derive_keywords(img)) for img in group]
        for i in range(len(kw_sets)):
            for j in range(i + 1, len(kw_sets)):
                assert not kw_sets[i] & kw_sets[j]


def test_mock_benchmark_is_balanced_and_deterministic():
    train, val = make_mock_benchmark(4, 2, seed=11)
    assert len(train) == 4 * 8 and len(val) == 2 * 8  # level x modality cells
    cells = {}
    for s in train:
        cells[(s.label, s.modality)] = cells.get((s.label, s.modality), 0) + 1
    assert set(cells.values()) == {4}
    train2, val2 = make_mock_benchmark(4, 2, seed=11)
    assert [s.record.id for s in train] == [s.record.id for s in train2]


def _jsonl_sha256(tmp_path, samples) -> str:
    path = tmp_path / "split.jsonl"
    write_records(path, samples)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generation_bytes_are_pinned(tmp_path):
    # criterion 2 trains on make_mock_benchmark(250, 25, seed=11): its bytes must not move
    train, val = make_mock_benchmark(250, 25, seed=11)
    assert _jsonl_sha256(tmp_path, train) == (
        "bb7c14fe9836aeed1a909e321ee9374a2158870b8df84931c34bedceb037b35a")
    assert _jsonl_sha256(tmp_path, val) == (
        "f11250fb9f2f62aa239749e93992351cad8f8666bb8a8bc8ed67b51495ac4dfb")
    images, docs = make_mock_sources(10, 10, seed=7)
    train, val, _ = build_dataset(images, docs, {0: 2, 1: 2, 2: 3, 3: 3},
                                  val_fraction=0.25, seed=5)
    assert _jsonl_sha256(tmp_path, train) == (
        "dd84ecd8d0a3852ed5092d06982685a0c58f981541b1742bac122fb16361c4c3")
    assert _jsonl_sha256(tmp_path, val) == (
        "445e950b489ecdc501d6276caa1f6afd785c3b9ce6ad42e4cce2797e354c80b0")
