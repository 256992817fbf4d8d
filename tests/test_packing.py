"""Vocab, tokenize round-trips, and sequence packing conservation."""

from collections import Counter

import numpy as np
import pytest

from unifilter.common import DataError, child_rng
from unifilter.packing import (
    END_OF_CHUNK_ID,
    IMAGE_PLACEHOLDER_ID,
    N_RESERVED,
    PAD_ID,
    UNK_ID,
    Vocab,
    build_vocab,
    flatten_doc,
    pack,
    tokenize,
    tokenize_words,
    write_packed,
)
from unifilter.records import CaptionSample, DocItem, ImagePayload, InterleavedDoc


def _img(seed=0):
    return ImagePayload(pixels=child_rng(seed, "pk").uniform(size=(1, 4, 4)))


def _caption(text, cid="c0"):
    return CaptionSample(id=cid, image=_img(), text=text)


def _doc(did, texts, n_images):
    items = []
    for i, text in enumerate(texts):
        items.append(DocItem(kind="text", text=text))
        if i < n_images:
            items.append(DocItem(kind="image", image=_img(i)))
    while n_images > len(texts):
        items.append(DocItem(kind="image", image=_img(n_images)))
        n_images -= 1
    return InterleavedDoc(id=did, items=items)


def test_tokenize_words_splits_words_and_punctuation():
    assert tokenize_words("A fox, quick-witted.") == [
        "A", "fox", ",", "quick", "-", "witted", "."]


def test_vocab_reserved_ids_are_stable():
    vocab = build_vocab(["alpha beta alpha"])
    assert (PAD_ID, UNK_ID, END_OF_CHUNK_ID, IMAGE_PLACEHOLDER_ID) == (0, 1, 2, 3)
    assert vocab.id_of("alpha") >= N_RESERVED
    assert vocab.id_of("never-seen") == UNK_ID


def test_vocab_orders_by_frequency_then_word():
    vocab = build_vocab(["b b a a c"])
    # a and b tie on count 2; lexicographic break, then c
    assert vocab.id_of("a") == N_RESERVED
    assert vocab.id_of("b") == N_RESERVED + 1
    assert vocab.id_of("c") == N_RESERVED + 2


def test_vocab_roundtrip_through_file(tmp_path):
    vocab = build_vocab(["alpha beta gamma alpha"])
    path = tmp_path / "vocab.json"
    vocab.save(path)
    back = Vocab.load(path)
    assert back.words == vocab.words
    assert back.id_of("beta") == vocab.id_of("beta")


def test_flatten_caption_image_then_text():
    vocab = build_vocab(["a short caption"])
    flat = flatten_doc(_caption("a short caption"), vocab, t=2)
    ids = flat.ids
    assert ids[:4] == [IMAGE_PLACEHOLDER_ID] * 4  # a caption image has no chunk marker
    assert len(ids) == 4 + 3


def test_flatten_interleaved_marks_every_image():
    vocab = build_vocab(["one two three"])
    doc = _doc("d0", ["one two", "three"], n_images=2)
    flat = flatten_doc(doc, vocab, t=2)
    ids = flat.ids
    assert ids.count(END_OF_CHUNK_ID) == 2
    # every chunk marker is immediately followed by t*t placeholders
    for pos, tid in enumerate(ids):
        if tid == END_OF_CHUNK_ID:
            assert ids[pos + 1:pos + 5] == [IMAGE_PLACEHOLDER_ID] * 4


def test_pack_slots_point_at_each_image_run():
    vocab = build_vocab(["a short caption one two three"])
    records = [_caption("a short caption"), _doc("d0", ["one two", "three"], n_images=2)]
    seqs = pack(records, 64, vocab, t=2)
    slots = [slot for s in seqs for slot in s.slots]
    assert [slot["image_id"] for slot in slots] == ["c0#0", "d0#0", "d0#1"]
    tokens = seqs[0].tokens
    # caption: image at 0, 3 words; doc: 2 words, marker, image at 10, 1 word, marker, image
    assert [slot["pos"] for slot in slots] == [0, 10, 16]
    for slot in slots:
        assert tokens[slot["pos"]] == IMAGE_PLACEHOLDER_ID
        assert slot["pos"] == 0 or tokens[slot["pos"] - 1] != IMAGE_PLACEHOLDER_ID


def test_pack_exact_length_and_conservation():
    rng = child_rng(0, "pack")
    vocab = build_vocab(["filler words for the packer to chew on"])
    docs = []
    for i in range(100):
        n_texts = int(rng.integers(1, 4))
        texts = [" ".join(rng.choice(
            ["filler", "words", "for", "the", "packer"],
            size=int(rng.integers(3, 30)))) for _ in range(n_texts)]
        docs.append(_doc(f"d{i}", texts, n_images=int(rng.integers(1, 3))))
    context_len = 64
    seqs = pack(docs, context_len, vocab, t=2)

    assert all(len(s.tokens) == context_len for s in seqs)

    # non-pad multiset is conserved between the flat streams and the packed output
    flat_ids = []
    for doc in docs:
        flat_ids.extend(flatten_doc(doc, vocab, t=2).ids)
    packed_ids = [tid for s in seqs for tid in s.tokens if tid != PAD_ID]
    assert Counter(packed_ids) == Counter(tid for tid in flat_ids if tid != PAD_ID)

    # every chunk marker is followed by a full placeholder run
    for s in seqs:
        for pos, tid in enumerate(s.tokens):
            if tid == END_OF_CHUNK_ID:
                run = s.tokens[pos + 1:pos + 5]
                assert run == [IMAGE_PLACEHOLDER_ID] * 4, (pos, run)

    # one slot per placeholder run, pointing at its first id
    for s in seqs:
        starts = [pos for pos, tid in enumerate(s.tokens)
                  if tid == IMAGE_PLACEHOLDER_ID
                  and (pos == 0 or s.tokens[pos - 1] != IMAGE_PLACEHOLDER_ID)]
        assert [slot["pos"] for slot in s.slots] == starts


def test_pack_never_splits_image_runs():
    vocab = build_vocab(["x"])
    # text length tuned so an image run would straddle the boundary
    doc_items = [DocItem(kind="text", text=" ".join(["x"] * 10)),
                 DocItem(kind="image", image=_img(0)),
                 DocItem(kind="text", text=" ".join(["x"] * 3))]
    docs = [InterleavedDoc(id="d", items=doc_items)]
    seqs = pack(docs, 12, vocab, t=3)  # run = 1 + 9 ids, 10 text ids first
    for s in seqs:
        in_run = [i for i, tid in enumerate(s.tokens) if tid == IMAGE_PLACEHOLDER_ID]
        if in_run:
            assert in_run == list(range(in_run[0], in_run[0] + 9))


def test_pack_pads_final_partial_sequence():
    vocab = build_vocab(["tail words"])
    seqs = pack([_caption("tail words")], 32, vocab, t=2)
    assert len(seqs) == 1
    tokens = seqs[0].tokens
    assert len(tokens) == 32
    assert tokens[-1] == PAD_ID
    n_content = 4 + 2
    assert tokens[n_content:] == [PAD_ID] * (32 - n_content)


def test_pack_rejects_tiny_context():
    vocab = build_vocab(["x"])
    with pytest.raises(DataError):
        pack([_caption("x")], 4, vocab, t=2)  # needs > t*t + 1


def test_write_packed_emits_jsonl(tmp_path):
    import json

    vocab = build_vocab(["alpha beta"])
    seqs = pack([_caption("alpha beta")], 16, vocab, t=2)
    path = tmp_path / "packed.jsonl"
    assert write_packed(path, seqs) == len(seqs)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(seqs)
    obj = json.loads(lines[0])
    assert set(obj) == {"tokens", "slots"}
    assert len(obj["tokens"]) == 16


def test_unknown_words_map_to_unk():
    vocab = build_vocab(["known words only"])
    ids = tokenize("known mystery", vocab)
    assert ids[0] == vocab.id_of("known")
    assert ids[1] == UNK_ID
