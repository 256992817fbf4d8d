"""Record schema round-trips and malformed-line policy."""

import json

import numpy as np
import pytest

from unifilter.cli import _write_rejects
from unifilter.common import SchemaError, write_json_file
from unifilter.nn import save_tensors
from unifilter.packing import write_packed
from unifilter.records import (
    CaptionSample,
    DocItem,
    ImagePayload,
    InterleavedDoc,
    LabeledSample,
    ScoredRecord,
    decode_record,
    read_records,
    sniff_kind,
    write_records,
)


def _pixels(seed=0, shape=(1, 8, 8)):
    return ImagePayload(pixels=np.random.default_rng(seed).uniform(size=shape))


def _doc(doc_id="doc-0"):
    return InterleavedDoc(id=doc_id, items=[
        DocItem(kind="text", text="first paragraph"),
        DocItem(kind="image", image=_pixels(1)),
        DocItem(kind="text", text="second paragraph"),
    ])


def test_image_payload_requires_exactly_one_form():
    with pytest.raises(SchemaError):
        ImagePayload()
    with pytest.raises(SchemaError):
        ImagePayload(pixels=np.zeros((1, 4, 4)), patches=np.zeros((2, 2, 3)))


def test_image_payload_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(SchemaError):
        ImagePayload(pixels=np.zeros((4, 4)))  # needs channel axis
    bad = np.zeros((1, 4, 4))
    bad[0, 0, 0] = np.nan
    with pytest.raises(SchemaError):
        ImagePayload(pixels=bad)


def test_caption_roundtrip(tmp_path):
    sample = CaptionSample(id="cap-1", image=_pixels(), text="a fox by the kettle")
    path = tmp_path / "caps.jsonl"
    assert write_records(path, [sample]) == 1
    back = list(read_records(path, "caption"))
    assert len(back) == 1
    assert back[0].id == sample.id
    assert back[0].text == sample.text
    assert back[0].image == sample.image


def test_interleaved_roundtrip_preserves_item_order(tmp_path):
    doc = _doc()
    path = tmp_path / "docs.jsonl"
    write_records(path, [doc])
    back = next(read_records(path, "interleaved"))
    assert [it.kind for it in back.items] == ["text", "image", "text"]
    assert back.texts() == ["first paragraph", "second paragraph"]
    assert back.images()[0] == doc.items[1].image


def test_interleaved_requires_both_modalities():
    with pytest.raises(SchemaError):
        InterleavedDoc(id="d", items=[DocItem(kind="text", text="only text")]).validate()
    with pytest.raises(SchemaError):
        InterleavedDoc(id="d", items=[DocItem(kind="image", image=_pixels())]).validate()


def test_labeled_and_scored_roundtrip(tmp_path):
    labeled = LabeledSample(record=_doc("doc-5"), label=2, level_name="hard_negative")
    scored = ScoredRecord(id="doc-5", score=1.75, modality="interleaved")
    path_l, path_s = tmp_path / "l.jsonl", tmp_path / "s.jsonl"
    write_records(path_l, [labeled])
    write_records(path_s, [scored])
    back_l = next(read_records(path_l, "labeled"))
    back_s = next(read_records(path_s, "scored"))
    assert back_l.label == 2 and back_l.modality == "interleaved"
    assert back_s.score == 1.75


def test_label_level_name_consistency():
    with pytest.raises(SchemaError):
        LabeledSample(record=_doc(), label=3, level_name="easy_negative").validate()
    for label in (True, 1.0):  # equal to 1 but not an integer label
        with pytest.raises(SchemaError, match="label out of range"):
            LabeledSample(record=_doc(), label=label, level_name="medium_negative").validate()


def test_sniff_kind():
    assert sniff_kind({"id": "x", "items": []}) == "interleaved"
    assert sniff_kind({"record": {}, "label": 1}) == "labeled"
    assert sniff_kind({"id": "x", "score": 0.5}) == "scored"
    assert sniff_kind({"id": "x", "text": "t", "image": {}}) == "caption"


def test_auto_kind_reads_mixed_file(tmp_path):
    path = tmp_path / "mixed.jsonl"
    write_records(path, [
        CaptionSample(id="c", image=_pixels(), text="words"),
        _doc(),
        ScoredRecord(id="c", score=0.1, modality="caption"),
    ])
    kinds = [type(r).__name__ for r in read_records(path, "auto")]
    assert kinds == ["CaptionSample", "InterleavedDoc", "ScoredRecord"]


def test_strict_mode_raises_on_first_bad_line(tmp_path):
    good = json.dumps(CaptionSample(id="ok", image=_pixels(), text="fine").to_obj())
    no_text = '{"id": "no-text", "image": {"pixels": {"shape": [1,1,1], "data": [0.0]}}}'
    nan_pixels = '{"id": "nan", "text": "t", "image": {"pixels": {"shape": [1,1,1], "data": [NaN]}}}'
    inf_grid = ('{"id": "inf", "text": "t", '
                '"image": {"patch_grid": {"h": 1, "w": 1, "dim": 1, "data": [Infinity]}}}')
    item_not_object = '{"id": "d", "items": [5]}'
    huge_score = '{"id": "s", "score": 1' + "0" * 400 + ', "modality": "caption"}'
    deep = '{"id": "deep", "text": "t", "image": ' + "[" * 100_000 + "]" * 100_000 + "}"
    empty_grid = '{"id": "e", "text": "t", "image": {"patch_grid": {"h": 0, "w": 0, "dim": 8, "data": []}}}'
    empty_pixels = '{"id": "e", "text": "t", "image": {"pixels": {"shape": [1, 0, 16], "data": []}}}'
    surrogate_text = good.replace('"fine"', '"fine \\ud800"')
    surrogate_id = '{"id": "\\udc00", "score": 1.0, "modality": "caption"}'
    cases = [
        (['{"id": 42}'], 1),
        (["{not json", good], 1),          # invalid JSON
        ([good, "[1, 2]"], 2),             # valid JSON, not an object
        ([good, good, no_text, good], 3),  # missing key after good lines
        ([good, nan_pixels], 2),           # non-finite pixels
        ([good, good, inf_grid], 3),       # non-finite patch grid
        ([good, item_not_object], 2),      # a document item that is not an object
        ([huge_score], 1),                 # an integer too large for a float
        ([good, deep], 2),                 # nested past the recursion limit
        ([empty_grid], 1),                 # a 0 x 0 patch grid
        ([good, empty_pixels], 2),         # pixels with a zero dimension
        ([good, surrogate_text], 2),       # a lone surrogate cannot be written as UTF-8
        ([surrogate_id], 1),
    ]
    path = tmp_path / "bad.jsonl"
    for lines, line_no in cases:
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(SchemaError, match=f"^line {line_no}:"):
            list(read_records(path, "auto"))


def test_pixels_shape_must_match_data_length():
    obj = {"id": "x", "text": "t",
           "image": {"pixels": {"shape": [1, 2, 2], "data": [0.0, 0.0, 0.0]}}}
    with pytest.raises(SchemaError):
        decode_record(obj, "caption")


def test_patch_grid_roundtrip(tmp_path):
    patches = np.arange(24, dtype=float).reshape(2, 3, 4)
    sample = CaptionSample(id="p", image=ImagePayload(patches=patches), text="t")
    path = tmp_path / "p.jsonl"
    write_records(path, [sample])
    back = next(read_records(path, "caption"))
    assert back.image.kind == "patch_grid"
    assert np.array_equal(back.image.patches, patches)


class _FailsToSerialize:
    def to_obj(self):
        raise RuntimeError("the write fails partway")


_ONE = ScoredRecord(id="a", score=1.0, modality="caption")


@pytest.mark.parametrize("write", [
    lambda path: write_records(path, [_ONE, _FailsToSerialize()]),
    lambda path: write_packed(path, [_ONE, _FailsToSerialize()]),
    lambda path: _write_rejects(path, [{"id": "a"}, {"id": object()}]),
    lambda path: write_json_file(path, {"a": 1, "b": object()}),
    lambda path: save_tensors(path, {"w": np.ones(2)}, meta={"b": object()}),
], ids=["write_records", "write_packed", "write_rejects", "write_json_file", "save_tensors"])
def test_a_write_that_fails_partway_leaves_no_file(tmp_path, write):
    path = tmp_path / "out.jsonl"
    with pytest.raises((RuntimeError, TypeError)):
        write(path)
    assert list(tmp_path.iterdir()) == []       # no partial output, no temporary
    path.write_text("earlier output\n")
    with pytest.raises((RuntimeError, TypeError)):
        write(path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "earlier output\n"
