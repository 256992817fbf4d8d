"""Property tests over random captions and documents with small images.

A JSONL round trip is byte-stable, and a score reads the record's content
alone: ids repeat across splits, so a record under another id, or a copy
read back from disk, must score bitwise equal to the original.  A
forward-only pass, which keeps no activations, scores bitwise equal to the
pass that keeps them for training.  Packing fills every sequence, keeps
every non-pad id in order and never splits an image run.  A checkpoint
gives back its tensors bit for bit, and saving what it loads rewrites it
byte for byte.  balanced_groups places every position once, in near-equal
loads, and select_top_fraction keeps the ceiling share that a sort picks.
"""

import dataclasses
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from unifilter.classifier import ModelConfig, QualityModel, assemble, forward_score, init_params
from unifilter.common import child_rng
from unifilter.encoder import EncoderConfig
from unifilter.filtering import select_top_fraction
from unifilter.nn import SAVE_FLOATS, load_tensors, save_tensors
from unifilter.packing import (END_OF_CHUNK_ID, IMAGE_PLACEHOLDER_ID, PAD_ID, build_vocab,
                               flatten_doc, pack)
from unifilter.records import (CaptionSample, DocItem, ImagePayload, InterleavedDoc,
                               ScoredRecord, as_document, read_records, write_records)
from unifilter.runner import balanced_groups

CFG = ModelConfig(d=8, n_layers=1, n_heads=2, max_seq_len=48,
                  encoder=EncoderConfig(patch_size=2, d_v=4, t=2, d=8, seed=0))
WORDS = ["a", "fox", "rests", "by", "the", "kettle"]
VOCAB = build_vocab([" ".join(WORDS)])
MODEL = QualityModel(CFG, VOCAB, init_params(CFG, len(VOCAB), child_rng(0)))
SETTINGS = settings(max_examples=60, deadline=None, database=None)

values = st.floats(-1e3, 1e3, allow_nan=False)
sides = st.sampled_from([4, 6, 8])        # a whole number of 2x2 patches, at least t per axis
pixels = st.tuples(st.integers(1, 3), sides, sides).flatmap(
    lambda shape: arrays(np.float64, shape, elements=values)).map(
    lambda a: ImagePayload(pixels=a))
patch_grids = st.tuples(st.integers(2, 4), st.integers(2, 4)).flatmap(
    lambda hw: arrays(np.float64, (*hw, CFG.encoder.d_v), elements=values)).map(
    lambda a: ImagePayload(patches=a))
images = pixels | patch_grids
unicode = st.text(st.characters(codec="utf-8"), min_size=1, max_size=6)
texts = st.lists(st.sampled_from(WORDS) | unicode, min_size=1, max_size=12).map(
    " ".join).filter(str.strip)
ids = st.text(st.characters(codec="utf-8"), min_size=1, max_size=8)
image_items = images.map(lambda image: DocItem(kind="image", image=image))
text_items = texts.map(lambda text: DocItem(kind="text", text=text))
captions = st.builds(CaptionSample, id=ids, image=images, text=texts)
documents = st.builds(
    InterleavedDoc, id=ids,
    items=st.tuples(image_items, text_items, st.lists(image_items | text_items, max_size=3))
    .flatmap(lambda t: st.permutations([t[0], t[1], *t[2]])))
records = captions | documents


def _bits(score: float) -> bytes:
    return struct.pack("<d", score)


def _round_trip(recs, workdir: Path):
    first, second = workdir / "first.jsonl", workdir / "second.jsonl"
    write_records(first, recs)
    back = list(read_records(first, "auto"))
    write_records(second, back)
    return first.read_bytes(), second.read_bytes(), back


@SETTINGS
@given(st.lists(records, min_size=1, max_size=4))
def test_jsonl_write_read_write_is_byte_stable(recs):
    with tempfile.TemporaryDirectory() as workdir:
        first, second, back = _round_trip(recs, Path(workdir))
    assert first == second
    assert [r.id for r in back] == [r.id for r in recs]


@SETTINGS
@given(records, ids)
def test_a_record_read_back_under_another_id_scores_bitwise_equal(record, other_id):
    with tempfile.TemporaryDirectory() as workdir:
        _, _, (back,) = _round_trip([record], Path(workdir))
    renamed = dataclasses.replace(back, id=other_id)
    original = _bits(MODEL.score_record(record))
    assert _bits(MODEL.score_record(renamed)) == original
    assert _bits(MODEL.score_record(back)) == original


@SETTINGS
@given(records)
def test_a_forward_without_cache_scores_bitwise_equal_to_one_with_it(record):
    asm = assemble(record, CFG, VOCAB, MODEL.params)
    plain, none = forward_score(asm, CFG, MODEL.params, keep_cache=False)
    kept, cache = forward_score(asm, CFG, MODEL.params, keep_cache=True)
    assert none is None and cache is not None
    assert _bits(plain) == _bits(kept)


@SETTINGS
@given(st.lists(records, min_size=1, max_size=4), st.integers(1, 3), st.integers(2, 24))
def test_pack_fills_sequences_keeps_ids_in_order_and_never_splits_an_image(recs, t, above):
    t2 = t * t
    context_len = t2 + above            # pack needs more than one image run, t*t + 1
    seqs = pack(recs, context_len, VOCAB, t)
    assert all(len(s.tokens) == context_len for s in seqs)
    flat = [i for rec in recs for i in flatten_doc(rec, VOCAB, t).ids]
    assert [i for s in seqs for i in s.tokens if i != PAD_ID] == flat
    assert sum(len(s.slots) for s in seqs) == sum(len(as_document(r).images()) for r in recs)
    for s in seqs:      # each slot's whole run, and its marker, sit inside its sequence
        runs = {i for slot in s.slots for i in range(slot["pos"], slot["pos"] + t2)}
        assert len(runs) == t2 * len(s.slots) and max(runs, default=0) < context_len
        assert runs == {i for i, tok in enumerate(s.tokens) if tok == IMAGE_PLACEHOLDER_ID}
        starts = {slot["pos"] for slot in s.slots}
        assert all(i + 1 in starts for i, tok in enumerate(s.tokens) if tok == END_OF_CHUNK_ID)


# NaNs with payload and sign bits, a signalling NaN, +-inf, +-0.0, subnormals
SPECIAL_BITS = [0x7FF8000000000000, 0xFFF8000000000001, 0x7FF4000000000000,
                0x7FF0000000000001, 0x7FF0000000000000, 0xFFF0000000000000,
                0x0000000000000000, 0x8000000000000000, 0x0000000000000001,
                0x800FFFFFFFFFFFFF]
sizes = st.integers(0, 7) | st.builds(lambda k, d: k * SAVE_FLOATS + d,
                                      st.integers(1, 2), st.integers(-2, 2))
shapes = st.just(()) | st.just((0, 3)) | sizes.map(lambda n: (n,)) | sizes.map(lambda n: (n, 2))


@st.composite
def tensors(draw):
    """Random float64 bit patterns of a drawn shape, with special values set."""
    shape = draw(shapes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    bits = rng.integers(0, 2**64 - 1, size=shape, dtype=np.uint64, endpoint=True)
    if bits.size:
        where = st.integers(0, bits.size - 1)
        for i, b in draw(st.lists(st.tuples(where, st.sampled_from(SPECIAL_BITS)), max_size=12)):
            bits.reshape(-1)[i] = b
    return bits.view(np.float64)


@settings(max_examples=40, deadline=None, database=None)
@given(st.dictionaries(ids, tensors(), max_size=3))
def test_checkpoint_tensors_load_bitwise_and_resave_byte_identical(named):
    with tempfile.TemporaryDirectory() as workdir:
        first, second = Path(workdir) / "first.json", Path(workdir) / "second.json"
        save_tensors(first, named, meta={"note": "property"})
        back, meta = load_tensors(first)
        save_tensors(second, back, meta)
        assert first.read_bytes() == second.read_bytes()
    assert list(back) == list(named)
    for name, arr in named.items():
        assert back[name].dtype == np.float64 and back[name].flags.writeable
        assert back[name].shape == arr.shape and back[name].tobytes() == arr.tobytes()


@SETTINGS
@given(st.lists(st.integers(0, 10**6), max_size=40), st.integers(1, 4))
def test_balanced_groups_place_every_position_once_in_near_equal_loads(costs, n_groups):
    groups = balanced_groups(costs, n_groups)
    assert len(groups) == n_groups
    assert sorted(i for group in groups for i in group) == list(range(len(costs)))
    assert all(group == sorted(group) for group in groups)
    loads = [sum(costs[i] for i in group) for group in groups]
    assert max(loads) - min(loads) <= max(costs, default=0)


@SETTINGS
@given(st.lists(st.tuples(ids, st.integers(-2, 2)), min_size=1, max_size=30,
                unique_by=lambda pair: pair[0]),
       st.integers(1, 40).flatmap(lambda d: st.tuples(st.integers(1, d), st.just(d))))
def test_select_top_fraction_keeps_what_a_sort_keeps_in_corpus_order(pairs, ratio):
    """Few distinct scores force ties.  The fraction is k/d, so ceil(k*N/d)
    is exact in integers and never a float product within fuzz of a whole."""
    k, d = ratio
    image = ImagePayload(pixels=np.zeros((1, 4, 4)))
    recs = [CaptionSample(id=rid, image=image, text="fox") for rid, _ in pairs]
    scores = [ScoredRecord(id=rid, score=float(score), modality="caption")
              for rid, score in reversed(pairs)]
    kept = select_top_fraction(scores, recs, k / d)
    m = -(-k * len(pairs) // d)
    keep = {rid for rid, _ in sorted(pairs, key=lambda pair: (-pair[1], pair[0]))[:m]}
    assert len(kept) == m
    assert [r.id for r in kept] == [rid for rid, _ in pairs if rid in keep]
