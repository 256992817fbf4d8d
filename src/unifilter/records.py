"""Record types and JSONL serialization for multimodal corpora.

Four record kinds travel through the pipeline:

  caption      {"id", "image": <payload>, "text"}
  interleaved  {"id", "items": [{"kind": "text", "text"} | {"kind": "image", "image": <payload>}]}
  labeled      {"kind", "record", "label", "level_name", "provenance"}
  scored       {"id", "score", "modality"}

An image payload is either raw pixels (channels x height x width, row-major)
or a precomputed patch grid (h x w cells of dim-wide vectors), exactly one of
the two:

  {"pixels": {"shape": [c,h,w], "data": [...]}}
  {"patch_grid": {"h": H, "w": W, "dim": D, "data": [...]}}

A caption reads as the one-image document [image, text] everywhere: it has
the same items, images() and texts() as an interleaved document, and
as_document is the one check that a record is either.  Stages that read both
kinds use that interface, and the few caption rules that differ (packing's
optional chunk marker, say) read the modality attribute, not the type.

Floats are written with repr precision, so write -> read -> write is byte
stable.  The reader validates each line and raises SchemaError, with the
line number, on the first malformed one: bytes that are not UTF-8, text that
is not a JSON object, or an object that is not a valid record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .common import DataError, SchemaError, atomic_write, dump_json_line
from .runner import MAP_CHUNK, ordered_map

LEVEL_NAMES = {0: "easy_negative", 1: "medium_negative", 2: "hard_negative", 3: "positive"}


def _check_utf8(*strings: str) -> None:
    """UnicodeEncodeError (a ValueError) for a lone surrogate, which JSON
    can escape but a UTF-8 output file cannot hold."""
    for text in strings:
        text.encode("utf-8")


# --- payloads ----------------------------------------------------------------


class ImagePayload:
    """Raw pixels or a precomputed patch grid; exactly one is set."""

    def __init__(self, pixels: np.ndarray | None = None, patches: np.ndarray | None = None):
        if (pixels is None) == (patches is None):
            raise SchemaError("image payload needs exactly one of pixels / patch_grid")
        if pixels is not None:
            pixels = np.asarray(pixels, dtype=np.float64)
            if pixels.ndim != 3 or pixels.size == 0:
                raise SchemaError(f"pixels must be a non-empty channels x height x width array, "
                                  f"got shape {pixels.shape}")
            if not np.isfinite(pixels).all():
                raise SchemaError("pixels contain non-finite values")
        if patches is not None:
            patches = np.asarray(patches, dtype=np.float64)
            if patches.ndim != 3 or patches.size == 0:
                raise SchemaError(f"patch_grid must be a non-empty h x w x dim array, "
                                  f"got shape {patches.shape}")
            if not np.isfinite(patches).all():
                raise SchemaError("patch_grid contains non-finite values")
        self.pixels = pixels
        self.patches = patches

    @property
    def kind(self) -> str:
        return "pixels" if self.pixels is not None else "patch_grid"

    def __eq__(self, other):
        if not isinstance(other, ImagePayload):
            return NotImplemented
        if self.kind != other.kind:
            return False
        a = self.pixels if self.kind == "pixels" else self.patches
        b = other.pixels if other.kind == "pixels" else other.patches
        return a.shape == b.shape and np.array_equal(a, b)

    def __repr__(self):
        arr = self.pixels if self.pixels is not None else self.patches
        return f"ImagePayload({self.kind}, shape={arr.shape})"

    def to_obj(self) -> dict:
        if self.pixels is not None:
            return {"pixels": {"shape": list(self.pixels.shape), "data": self.pixels.ravel().tolist()}}
        h, w, d = self.patches.shape
        return {"patch_grid": {"h": h, "w": w, "dim": d, "data": self.patches.ravel().tolist()}}

    @staticmethod
    def from_obj(obj) -> "ImagePayload":
        if not isinstance(obj, dict):
            raise SchemaError("image payload must be an object")
        has_px = "pixels" in obj
        if has_px == ("patch_grid" in obj):
            raise SchemaError("image payload needs exactly one of pixels / patch_grid")
        if has_px:
            spec = obj["pixels"]
            shape = tuple(spec["shape"])
            data = np.asarray(spec["data"], dtype=np.float64)
            if len(shape) != 3 or data.size != int(np.prod(shape)):
                raise SchemaError(f"pixels declared shape {shape} does not match {data.size} values")
            return ImagePayload(pixels=data.reshape(shape))
        spec = obj["patch_grid"]
        h, w, d = int(spec["h"]), int(spec["w"]), int(spec["dim"])
        data = np.asarray(spec["data"], dtype=np.float64)
        if data.size != h * w * d:
            raise SchemaError(f"patch_grid declared {h}x{w}x{d} does not match {data.size} values")
        return ImagePayload(patches=data.reshape(h, w, d))


# --- records -----------------------------------------------------------------


@dataclass
class DocItem:
    kind: str  # "text" | "image"
    text: str | None = None
    image: ImagePayload | None = None


@dataclass
class CaptionSample:
    """One image and its text: the document [image, text]."""

    id: str
    image: ImagePayload
    text: str
    modality = "caption"

    @property
    def items(self) -> list[DocItem]:
        return [DocItem(kind="image", image=self.image), DocItem(kind="text", text=self.text)]

    def images(self) -> list[ImagePayload]:
        return [self.image]

    def texts(self) -> list[str]:
        return [self.text]

    def validate(self):
        if not self.id:
            raise SchemaError("caption record has empty id")
        if not self.text.strip():
            raise SchemaError(f"caption {self.id!r} has empty text")
        _check_utf8(self.id, self.text)

    def to_obj(self) -> dict:
        return {"id": self.id, "image": self.image.to_obj(), "text": self.text}


@dataclass
class InterleavedDoc:
    id: str
    items: list[DocItem] = field(default_factory=list)
    modality = "interleaved"

    def validate(self):
        if not self.id:
            raise SchemaError("interleaved record has empty id")
        n_img = sum(1 for it in self.items if it.kind == "image")
        n_txt = sum(1 for it in self.items if it.kind == "text")
        if n_img < 1 or n_txt < 1:
            raise SchemaError(
                f"doc {self.id!r} needs at least one image and one text item "
                f"(got {n_img} images, {n_txt} texts)")
        for it in self.items:
            if it.kind == "text" and not (it.text or "").strip():
                raise SchemaError(f"doc {self.id!r} has an empty text item")
        _check_utf8(self.id, *self.texts())

    def images(self) -> list[ImagePayload]:
        return [it.image for it in self.items if it.kind == "image"]

    def texts(self) -> list[str]:
        return [it.text for it in self.items if it.kind == "text"]

    def to_obj(self) -> dict:
        items = []
        for it in self.items:
            if it.kind == "text":
                items.append({"kind": "text", "text": it.text})
            else:
                items.append({"kind": "image", "image": it.image.to_obj()})
        return {"id": self.id, "items": items}


@dataclass
class LabeledSample:
    record: CaptionSample | InterleavedDoc
    label: int
    level_name: str
    provenance: str = "synthetic"

    @property
    def modality(self) -> str:
        return self.record.modality

    def validate(self):
        if type(self.label) is not int or self.label not in LEVEL_NAMES:   # no bool, no float
            raise SchemaError(f"label out of range: {self.label!r}")
        if LEVEL_NAMES[self.label] != self.level_name:
            raise SchemaError(f"label {self.label} does not match level_name {self.level_name!r}")
        _check_utf8(self.provenance)
        self.record.validate()

    def to_obj(self) -> dict:
        return {
            "kind": self.modality,
            "record": self.record.to_obj(),
            "label": self.label,
            "level_name": self.level_name,
            "provenance": self.provenance,
        }


def as_document(record) -> CaptionSample | InterleavedDoc:
    """The caption or document a record is, unwrapping a LabeledSample.

    Every stage that reads captions and documents alike calls this, so any
    other record (a scored one, say) fails here with a DataError.
    """
    if isinstance(record, LabeledSample):
        record = record.record
    if not isinstance(record, (CaptionSample, InterleavedDoc)):
        raise DataError(f"expected a caption or an interleaved document, "
                        f"got a {type(record).__name__}")
    return record


@dataclass
class ScoredRecord:
    id: str
    score: float
    modality: str

    def validate(self):
        if not self.id:
            raise SchemaError("scored record has empty id")
        _check_utf8(self.id)
        if self.modality not in ("caption", "interleaved"):
            raise SchemaError(f"bad modality {self.modality!r}")
        if not np.isfinite(self.score):
            raise SchemaError(f"score for {self.id!r} is not finite")

    def to_obj(self) -> dict:
        return {"id": self.id, "score": float(self.score), "modality": self.modality}


# --- decoding ----------------------------------------------------------------
# The decoders build records and raise SchemaError or let KeyError, TypeError,
# ValueError or OverflowError escape; decode_record validates and attaches the
# line number.


def _decode_caption(obj) -> CaptionSample:
    return CaptionSample(id=str(obj["id"]), image=ImagePayload.from_obj(obj["image"]),
                         text=str(obj["text"]))


def _decode_interleaved(obj) -> InterleavedDoc:
    items = []
    for it in obj["items"]:
        if not isinstance(it, dict):
            raise SchemaError(f"doc item must be an object, got {type(it).__name__}")
        kind = it.get("kind")
        if kind == "text":
            items.append(DocItem(kind="text", text=str(it["text"])))
        elif kind == "image":
            items.append(DocItem(kind="image", image=ImagePayload.from_obj(it["image"])))
        else:
            raise SchemaError(f"bad item kind {kind!r}")
    return InterleavedDoc(id=str(obj["id"]), items=items)


def _decode_labeled(obj) -> LabeledSample:
    kind = obj["kind"]
    if kind not in ("caption", "interleaved"):
        raise SchemaError(f"bad record kind {kind!r}")
    return LabeledSample(
        record=_DECODERS[kind](obj["record"]),
        label=obj["label"],
        level_name=str(obj["level_name"]),
        provenance=str(obj.get("provenance", "synthetic")),
    )


def _decode_scored(obj) -> ScoredRecord:
    return ScoredRecord(id=str(obj["id"]), score=float(obj["score"]), modality=str(obj["modality"]))


_DECODERS = {
    "caption": _decode_caption,
    "interleaved": _decode_interleaved,
    "labeled": _decode_labeled,
    "scored": _decode_scored,
}


def decode_record(obj, kind: str, line_no: int | None = None):
    """Decode and validate one JSON object as a record of the given kind.

    Any SchemaError on the way is raised again with line_no attached; a
    missing key, a value of the wrong type or an integer too large for a
    float becomes a SchemaError naming the record kind.
    """
    if kind not in _DECODERS:
        raise ValueError(f"unknown record kind {kind!r}")
    try:
        rec = _DECODERS[kind](obj)
        rec.validate()
    except SchemaError as exc:
        raise SchemaError(str(exc), line_no) from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise SchemaError(f"{kind} record malformed: {detail}", line_no) from exc
    return rec


def sniff_kind(obj) -> str:
    """Guess the record kind of one decoded JSON object."""
    if "items" in obj:
        return "interleaved"
    if "record" in obj and "label" in obj:
        return "labeled"
    if "score" in obj:
        return "scored"
    return "caption"


# --- streams -----------------------------------------------------------------


def _numbered_lines(fh):
    """(line number, text) for each line of a binary file that is not blank;
    a line that is not UTF-8 raises SchemaError with its number."""
    for line_no, raw in enumerate(fh, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not UTF-8: {exc.reason} at byte {exc.start}", line_no) from None
        if line.strip():
            yield line_no, line


def decode_line(numbered, kind: str):
    """The record on one (line number, text) line; kind as for read_records."""
    line_no, line = numbered
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", line_no) from exc
    except RecursionError as exc:
        raise SchemaError("invalid JSON: nested too deeply", line_no) from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a JSON object, got {type(obj).__name__}", line_no)
    return decode_record(obj, sniff_kind(obj) if kind == "auto" else kind, line_no)


def read_records(path, kind: str, fn=None, chunk: int = MAP_CHUNK, fork: bool | None = None):
    """Yield records from a JSONL file in file order, or fn(record, line)
    for each.

    kind is one of caption / interleaved / labeled / scored, or "auto" to
    sniff each line.  The first malformed line, a line that is not UTF-8
    among them, raises SchemaError with its line number.  Lines are read and
    checked for UTF-8 here.  Without fn each is decoded here too.  With fn
    the lines go through runner.ordered_map(chunk, fork): each line is
    decoded, and fn run on its record and on the line as read (with its
    newline, if it had one), in the process that takes the line, so only
    fn's results come back over the pipe, and the first error in file order
    is raised whichever process hit it.  A stage that keeps a record as it
    came writes that line back, so its bytes pass through unchanged.
    """
    with open(path, "rb") as fh:
        lines = _numbered_lines(fh)
        if fn is None:
            for numbered in lines:
                yield decode_line(numbered, kind)
        else:
            yield from ordered_map(
                lines, lambda numbered: fn(decode_line(numbered, kind), numbered[1]), chunk, fork)


def encode_record(rec) -> str:
    """One record's JSONL line, without its newline."""
    return dump_json_line(rec.to_obj())


def write_records(path, records) -> int:
    """Write records (anything with .to_obj(), or a JSONL line without its
    newline, such as encode_record's or one read_records passed to fn) as
    JSONL; returns the count."""
    n = 0
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(rec if isinstance(rec, str) else encode_record(rec))
            fh.write("\n")
            n += 1
    return n
