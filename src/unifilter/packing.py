"""Word-level tokenization, vocab, and fixed-context sequence packing.

The tokenizer is deliberately small: words and punctuation marks split on
whitespace, nothing else.  Four ids are reserved and stable across runs:

  0 pad, 1 unk, 2 end_of_chunk, 3 image_placeholder

Flattening turns a record into one id stream.  Inside an interleaved document
every image becomes one end_of_chunk marker followed by t*t image placeholder
ids, in reading order; caption records flatten image-first and carry no
marker.  The packer then concatenates flattened streams and cuts them into
sequences of exactly context_len ids.  An image run is atomic: when it would
straddle a boundary the current sequence is padded out and the run starts
the next one.  Non-pad ids are conserved exactly, in order.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from .common import DataError, atomic_write, dump_json_line, read_json_file, write_json_file
from .records import as_document

PAD_ID = 0
UNK_ID = 1
END_OF_CHUNK_ID = 2
IMAGE_PLACEHOLDER_ID = 3
RESERVED = {"pad": PAD_ID, "unk": UNK_ID, "end_of_chunk": END_OF_CHUNK_ID,
            "image_placeholder": IMAGE_PLACEHOLDER_ID}
N_RESERVED = 4

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)

VOCAB_FORMAT = "unifilter-vocab-v1"


def tokenize_words(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


@dataclass
class Vocab:
    words: list[str]  # ids N_RESERVED..; index i maps to id i + N_RESERVED
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not (isinstance(self.words, list) and all(isinstance(w, str) for w in self.words)):
            raise DataError("vocab words must be a list of strings")
        self._index = {w: i + N_RESERVED for i, w in enumerate(self.words)}

    def __len__(self):
        return N_RESERVED + len(self.words)

    def id_of(self, word: str) -> int:
        return self._index.get(word, UNK_ID)

    def save(self, path):
        write_json_file(path, {"format": VOCAB_FORMAT, "reserved": RESERVED, "words": self.words})

    @staticmethod
    def load(path) -> "Vocab":
        obj = read_json_file(path)
        if obj.get("format") != VOCAB_FORMAT:
            raise DataError(f"{path}: unknown vocab format {obj.get('format')!r}")
        if obj.get("reserved") != RESERVED:
            raise DataError(f"{path}: reserved id table does not match this build")
        try:
            return Vocab(words=obj.get("words"))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def build_vocab(texts) -> Vocab:
    """Frequency-sorted vocab (count desc, then word) from an iterable of texts."""
    counts = Counter()
    for text in texts:
        counts.update(tokenize_words(text))
    return Vocab(words=sorted(counts, key=lambda w: (-counts[w], w)))


def tokenize(text: str, vocab: Vocab) -> list[int]:
    return [vocab.id_of(w) for w in tokenize_words(text)]


# --- flattening -----------------------------------------------------------------


@dataclass
class FlatDoc:
    """One record as the segments the packer places.

    segments: ("text", ids) or ("image", ref, ids) where an image segment's
    ids are the atomic unit ([end_of_chunk?] + t*t placeholders).
    """
    segments: list[tuple]

    @property
    def ids(self) -> list[int]:
        out = []
        for seg in self.segments:
            out.extend(seg[-1])
        return out


def flatten_doc(record, vocab: Vocab, t: int) -> FlatDoc:
    """Flatten a caption or interleaved record into a FlatDoc.

    A caption is the document [image, text].  t is the pooled grid side, so
    each image occupies t*t placeholder ids.  Interleaved images are
    preceded by end_of_chunk; caption images are not.
    """
    record = as_document(record)
    marker = record.modality == "interleaved"
    image_unit = ([END_OF_CHUNK_ID] if marker else []) + [IMAGE_PLACEHOLDER_ID] * (t * t)
    segments: list[tuple] = []
    n_images = 0
    for item in record.items:
        if item.kind == "text":
            segments.append(("text", tokenize(item.text, vocab)))
        else:
            segments.append(("image", f"{record.id}#{n_images}", image_unit))
            n_images += 1
    return FlatDoc(segments=segments)


# --- packing --------------------------------------------------------------------


@dataclass
class PackedSequence:
    tokens: list[int]
    slots: list[dict]  # {"pos": first placeholder index, "image_id": ref}

    def to_obj(self) -> dict:
        return {"tokens": self.tokens, "slots": self.slots}


def pack(records, context_len: int, vocab: Vocab, t: int) -> list[PackedSequence]:
    """Pack records into sequences of exactly context_len ids.

    Image runs never split across sequences; the tail of a sequence is padded
    when a run does not fit, and the final partial sequence is padded too.
    """
    if t < 1:
        raise DataError(f"t={t}: must be an integer >= 1")
    t2 = t * t
    if context_len <= t2 + 1:
        raise DataError(f"context_len {context_len} must exceed image run size {t2 + 1}")

    seqs: list[PackedSequence] = []
    cur: list[int] = []
    cur_slots: list[dict] = []

    def flush(pad: bool):
        if not cur:
            return
        if pad:
            cur.extend([PAD_ID] * (context_len - len(cur)))
        seqs.append(PackedSequence(tokens=list(cur), slots=list(cur_slots)))
        cur.clear()
        cur_slots.clear()

    for record in records:
        for seg in flatten_doc(record, vocab, t).segments:
            ids = seg[-1]
            if seg[0] == "image":
                if len(cur) + len(ids) > context_len:
                    flush(pad=True)
                cur_slots.append({"pos": len(cur) + ids.index(IMAGE_PLACEHOLDER_ID),
                                  "image_id": seg[1]})
                cur.extend(ids)
                if len(cur) == context_len:
                    flush(pad=False)
            else:
                offset = 0
                while offset < len(ids):
                    space = context_len - len(cur)
                    take = min(space, len(ids) - offset)
                    cur.extend(ids[offset:offset + take])
                    offset += take
                    if len(cur) == context_len:
                        flush(pad=False)
    flush(pad=True)
    return seqs


def write_packed(path, seqs: list[PackedSequence]) -> int:
    with atomic_write(path) as fh:
        for s in seqs:
            fh.write(dump_json_line(s.to_obj()))
            fh.write("\n")
    return len(seqs)
