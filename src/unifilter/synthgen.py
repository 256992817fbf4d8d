"""Semi-synthetic labeled data: real images, generated text at four quality levels.

Levels are 0 easy_negative, 1 medium_negative, 2 hard_negative, 3 positive.
A generator answers with a JSON object: {topic, positive_caption,
negative_caption} for a caption, {image_tags, document} for an interleaved
document, whose text places each image once as an <img>description</img>
tag.  The two response parsers enforce those shapes, and they are the whole
contract a real generator must meet; every mock response passes through them.

The mock generator needs no network: it derives K = 4 pseudo-keywords per
image from patch statistics (quadrant mean intensities bucketed into
per-slot word banks) and writes template text whose keyword overlap with the
image encodes the level exactly:

  positive        all K keywords present
  hard_negative   exactly one keyword swapped for a near neighbor
  medium_negative all but one keyword swapped
  easy_negative   keywords from a different image, none shared

Writing quality also degrades with the level (the filler banks below), so a
trained model has both surface-fluency and image-text-overlap signal to
work with.  keyword_overlap_label inverts the overlap construction and is
the independent check that generated labels are recoverable from the text
alone.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from functools import cache

import numpy as np

from .common import DataError, child_rng, child_seed
from .packing import tokenize_words
from .records import (CaptionSample, DocItem, ImagePayload, InterleavedDoc, LabeledSample,
                      LEVEL_NAMES, as_document)

EASY, MEDIUM, HARD, POSITIVE = 0, 1, 2, 3

# --- keyword machinery ---------------------------------------------------------------
#
# Slot q of an image is the mean intensity of quadrant q (TL, TR, BL, BR),
# bucketed into N_BUCKETS bins; bucket b of slot q names word SLOT_BANKS[q][b].
# Banks are disjoint from each other and from all template filler text, so a
# word's presence in generated text is unambiguous.

SLOT_BANKS = [
    ["fox", "heron", "otter", "lynx", "ibis", "toad", "crane", "mole"],
    ["lantern", "kettle", "anvil", "basket", "ladder", "mirror", "barrel", "spool"],
    ["copper", "ivory", "crimson", "olive", "amber", "slate", "indigo", "pearl"],
    ["harbor", "meadow", "attic", "canyon", "plaza", "orchard", "tundra", "cellar"],
]
KEYWORDS_PER_IMAGE = len(SLOT_BANKS)
N_BUCKETS = 8
IMAGE_HW = 16                 # mock images are 1 x IMAGE_HW x IMAGE_HW pixels
JITTER = 0.004
TEXTURE_TILE = 4              # patch-aligned tile size
FILLER_CONTAMINATION = 0.08   # chance a filler borrows a neighbor level's style
MAX_IMAGES_PER_DOC = 3


@cache
def bucket_textures() -> np.ndarray:
    """Fixed zero-mean +/-1 texture per bucket, shape (N_BUCKETS, IMAGE_HW/2, IMAGE_HW/2).

    Rendered quadrants carry base intensity plus this pattern.  Each texture
    is a TEXTURE_TILE-square sign pattern repeated across the quadrant, so
    with a matching patch size every patch of a quadrant embeds to the same
    bucket-specific vector.  The pattern averages to exactly zero, which
    keeps quadrant means (the statistic keywords are derived from) at their
    bucket centers while making buckets linearly separable instead of
    collinear.
    """
    rng = child_rng(0, "bucket-texture", N_BUCKETS, TEXTURE_TILE)
    n = TEXTURE_TILE * TEXTURE_TILE
    quad_hw = IMAGE_HW // 2
    reps = quad_hw // TEXTURE_TILE
    pats = np.empty((N_BUCKETS, quad_hw, quad_hw))
    for b in range(N_BUCKETS):
        flat = np.concatenate([np.ones(n // 2), -np.ones(n - n // 2)])
        rng.shuffle(flat)
        pats[b] = np.tile(flat.reshape(TEXTURE_TILE, TEXTURE_TILE), (reps, reps))
    return pats


def quadrant_means(pixels: np.ndarray) -> list[float]:
    """Mean intensity of each quadrant (TL, TR, BL, BR) over all channels."""
    _, h, w = pixels.shape
    hh, hw = h // 2, w // 2
    return [
        float(pixels[:, :hh, :hw].mean()), float(pixels[:, :hh, hw:].mean()),
        float(pixels[:, hh:, :hw].mean()), float(pixels[:, hh:, hw:].mean()),
    ]


def derive_buckets(payload: ImagePayload) -> list[int]:
    """Per-slot buckets from patch statistics; byte-hash fallback for grids."""
    if payload.pixels is not None:
        return [min(N_BUCKETS - 1, max(0, int(m * N_BUCKETS)))
                for m in quadrant_means(payload.pixels)]
    digest = hashlib.sha256(payload.patches.tobytes()).digest()
    return [digest[q] % N_BUCKETS for q in range(KEYWORDS_PER_IMAGE)]


def _words(buckets) -> list[str]:
    return [SLOT_BANKS[q][bk] for q, bk in enumerate(buckets)]


def derive_keywords(payload: ImagePayload) -> list[str]:
    """One pseudo-keyword per slot for an image, fully deterministic."""
    return _words(derive_buckets(payload))


def label_from_overlap(overlap: int, k: int) -> int:
    """Invert the generation profile: k -> 3, k-1 -> 2, 1..k-2 -> 1, 0 -> 0."""
    if overlap >= k:
        return POSITIVE
    if overlap == k - 1:
        return HARD
    if overlap >= 1:
        return MEDIUM
    return EASY


def keyword_overlap_label(record) -> int:
    """Recover the quality label of a mock record from keyword overlap alone."""
    record = as_document(record)
    tokens = set(tokenize_words(" ".join(record.texts())))
    per_image = [sum(1 for w in derive_keywords(img) if w in tokens) for img in record.images()]
    mean = sum(per_image) / len(per_image)
    return label_from_overlap(int(round(mean)), KEYWORDS_PER_IMAGE)


# --- mock text rendering ---------------------------------------------------------------

# one frame, keywords in fixed slot order; variety comes from the filler tail
_CAPTION_TEMPLATE = "A {0} rests by the {1} in {2} tones near the {3}."
_DOC_SENTENCE_TEMPLATE = "Here a {0} waits by the {1} in {2} tones near the {3}."

# level-graded filler: the lower the quality level, the rougher the writing,
# mirroring the paper's per-level requirements (easy text is disfluent, medium
# is readable with slips, hard is clean, positive is clean and detail-enriched)
_EASY_FILLERS = [
    "the the notes notes is wrten very bad and and it make no sense sense.",
    "this part part is wrting gone wrong wrong and the the words drift off.",
    "bad wrting here here and and the line line does not not read well.",
    "is is broken all over over and the the page page reads like noise.",
]

_MEDIUM_FILLERS = [
    "this sectionn reads mostly fine but but a few parts feel rough.",
    "the writting here is passable though though some lines wobble.",
    "most of it it reads fine aside from a few rough spotts.",
    "the notes are usable but but the wording slips in placess.",
]

_CLEAN_FILLERS = [
    "The colors stay soft and the edges read clearly.",
    "Fine texture is visible across the whole surface.",
    "The background stays plain so the subject stands out.",
    "Nothing else crowds the frame and the light is even.",
]

_DETAIL_TAILS = [
    "Every marking stays sharp and the full scene is caught in rich detail.",
    "Each surface keeps its grain and the depth of the scene reads clearly.",
    "Small touches remain visible, from stray fibers to faint shadows.",
]


def _level_filler(level: int, rng) -> str:
    """Filler sentence in the level's writing style.

    With probability FILLER_CONTAMINATION the style of an adjacent level is
    used instead, so surface fluency alone does not fully determine the label
    and the keyword-overlap signal keeps marginal value.
    """
    style = level
    if rng.uniform() < FILLER_CONTAMINATION:
        style = min(POSITIVE, max(EASY, level + (1 if rng.integers(2) else -1)))
    if style == EASY:
        pool = _EASY_FILLERS
    elif style == MEDIUM:
        pool = _MEDIUM_FILLERS
    else:
        pool = _CLEAN_FILLERS
    out = pool[int(rng.integers(len(pool)))]
    if style == POSITIVE:
        out = f"{out} {_DETAIL_TAILS[int(rng.integers(len(_DETAIL_TAILS)))]}"
    return out


_DOC_INTRO = "The following notes walk through each picture in turn."
_DOC_OUTRO = "That closes out this set of pictures and remarks."


def _swap_slot(buckets, slot, rng, banned_buckets, near=False):
    """Pick a wrong bucket for one slot, avoiding banned ones for that slot."""
    cur = buckets[slot]
    banned = set(banned_buckets.get(slot, ())) | {cur}
    if near:
        for cand in rng.permutation([(cur - 1) % N_BUCKETS, (cur + 1) % N_BUCKETS]):
            if cand not in banned:
                return int(cand)
    choices = [x for x in range(N_BUCKETS) if x not in banned]
    if not choices:
        raise DataError("no free bucket left for keyword swap; lower images per doc")
    return int(rng.choice(choices))


def _level_keywords(buckets, level: int, rng, banned_buckets) -> list[str]:
    """Keyword list actually written into the text for one image at one level."""
    k = KEYWORDS_PER_IMAGE
    out = list(buckets)
    if level == POSITIVE:
        pass
    elif level == HARD:
        slot = int(rng.integers(k))
        out[slot] = _swap_slot(buckets, slot, rng, banned_buckets, near=True)
    elif level == MEDIUM:
        keep = int(rng.integers(k))
        for slot in range(k):
            if slot != keep:
                out[slot] = _swap_slot(buckets, slot, rng, banned_buckets)
    elif level == EASY:
        for slot in range(k):
            out[slot] = _swap_slot(buckets, slot, rng, banned_buckets)
    else:
        raise DataError(f"unknown quality level {level}")
    return _words(out)


def mock_generate_caption(payload: ImagePayload, level: int, seed: int,
                          donor: ImagePayload | None = None) -> dict:
    """Caption-modality mock response: {topic, positive_caption, negative_caption}.

    The negative caption follows the requested level's overlap profile.  For
    easy negatives the replacement keywords come from the donor image when one
    is supplied, with collisions against this image's keywords bumped away.
    """
    rng = child_rng(seed, "mock-caption", level)
    buckets = derive_buckets(payload)
    true_kws = _words(buckets)
    neg_level = level if level != POSITIVE else EASY

    if level == EASY and donor is not None:
        neg_kws = _words(db if db != tb else (db + 1) % N_BUCKETS
                         for db, tb in zip(derive_buckets(donor), buckets))
    else:
        neg_kws = _level_keywords(buckets, neg_level, rng, banned_buckets={})

    def render(kws, lvl):
        return f"{_CAPTION_TEMPLATE.format(*kws)} {_level_filler(lvl, rng)}"

    return {
        "topic": f"{true_kws[0]} by the {true_kws[-1]}",
        "positive_caption": render(true_kws, POSITIVE),
        "negative_caption": render(neg_kws, neg_level),
    }


def mock_generate_document(images: list[ImagePayload], level: int, seed: int) -> dict:
    """Interleaved-modality mock response: {image_tags, document}.

    Every image appears exactly once as an <img>tag</img> placeholder between
    sentences; each image's paragraph carries its level-profile keywords, and
    swapped-in words never collide with any image's true keywords in the doc.
    """
    if not images:
        raise DataError("interleaved generation needs at least one image")
    rng = child_rng(seed, "mock-doc", level)

    all_buckets = [derive_buckets(img) for img in images]
    banned = {slot: {b[slot] for b in all_buckets} for slot in range(KEYWORDS_PER_IMAGE)}

    tags = []
    for buckets in all_buckets:
        kws = _words(buckets)
        tags.append(f"{kws[2]} {kws[0]} near {kws[1]}")
    if len(set(tags)) != len(tags):  # same-keyword images in one doc
        raise DataError("mock doc images must have distinct keyword sets")

    parts = [_DOC_INTRO]
    for tag, buckets in zip(tags, all_buckets):
        sentence = _DOC_SENTENCE_TEMPLATE.format(*_level_keywords(buckets, level, rng, banned))
        parts.append(f"<img>{tag}</img>")
        parts.append(f"{sentence} {_level_filler(level, rng)}")
    parts.append(_DOC_OUTRO)
    return {"image_tags": tags, "document": "\n\n".join(parts)}


# --- response parsing --------------------------------------------------------------------

_IMG_TAG_RE = re.compile(r"<img>(.*?)</img>", re.DOTALL)


def parse_caption_response(resp: dict, level: int) -> str:
    """Extract the caption matching the requested level from a response object."""
    for key in ("positive_caption", "negative_caption"):
        if key not in resp or not isinstance(resp[key], str):
            raise DataError(f"caption response missing key {key!r}")
    text = resp["positive_caption"] if level == POSITIVE else resp["negative_caption"]
    text = text.strip()
    if not text:
        raise DataError("caption response has empty text")
    return text


def parse_interleaved_response(resp: dict, images: list[ImagePayload]) -> list[DocItem]:
    """Rebuild interleaved items from {image_tags, document}.

    Tags map 1:1 onto the supplied images by list position; the document must
    use each tag exactly once, between sentences.  Returns items in document
    order.
    """
    try:
        tags = list(resp["image_tags"])
        document = str(resp["document"])
    except (KeyError, TypeError) as exc:
        raise DataError(f"interleaved response missing key: {exc}") from exc
    if len(tags) != len(images):
        raise DataError(f"{len(tags)} image tags for {len(images)} images")
    if len(set(tags)) != len(tags):
        raise DataError("image tags are not unique")

    tag_to_idx = {tag: i for i, tag in enumerate(tags)}
    items: list[DocItem] = []
    used: set[int] = set()
    pos = 0
    for m in _IMG_TAG_RE.finditer(document):
        chunk = document[pos:m.start()].strip()
        if chunk:
            items.append(DocItem(kind="text", text=chunk))
        tag = m.group(1)
        if tag not in tag_to_idx:
            raise DataError(f"document uses unknown image tag {tag!r}")
        idx = tag_to_idx[tag]
        if idx in used:
            raise DataError(f"document uses image tag {tag!r} more than once")
        used.add(idx)
        items.append(DocItem(kind="image", image=images[idx]))
        pos = m.end()
    tail = document[pos:].strip()
    if tail:
        items.append(DocItem(kind="text", text=tail))
    if len(used) != len(images):
        missing = [tags[i] for i in range(len(tags)) if i not in used]
        raise DataError(f"document never used image tags: {missing}")
    return items


# --- mock sources ------------------------------------------------------------------------


def render_mock_image(buckets, rng: np.random.Generator) -> ImagePayload:
    """One quadrant per slot: bucket-center intensity, bucket texture, tiny jitter."""
    hh = IMAGE_HW // 2
    img = np.empty((1, IMAGE_HW, IMAGE_HW))
    textures = bucket_textures()
    for q, b in enumerate(buckets):
        r, c = divmod(q, 2)
        img[:, r * hh:(r + 1) * hh, c * hh:(c + 1) * hh] = (b + 0.5) / N_BUCKETS + textures[b]
    img += JITTER * rng.uniform(-1.0, 1.0, size=img.shape)
    return ImagePayload(pixels=img)


def make_mock_sources(n_caption_images: int, n_docs: int, seed: int):
    """Seeded source corpus: caption images plus image groups for documents.

    Images inside one document get distinct buckets in every slot so their
    keyword sets never collide (a collision would make overlap labels
    ambiguous).
    """
    k = KEYWORDS_PER_IMAGE
    rng = child_rng(seed, "mock-sources")
    images = [
        render_mock_image(rng.integers(N_BUCKETS, size=k), rng)
        for _ in range(n_caption_images)
    ]
    docs = []
    for _ in range(n_docs):
        m = int(rng.integers(1, MAX_IMAGES_PER_DOC + 1))
        per_slot = [rng.choice(N_BUCKETS, size=m, replace=False) for _ in range(k)]
        docs.append([
            render_mock_image([int(per_slot[q][i]) for q in range(k)], rng)
            for i in range(m)
        ])
    return images, docs


# --- dataset assembly ---------------------------------------------------------------------


def _caption_sample(id: str, payload: ImagePayload, donor: ImagePayload, level: int,
                    seed: int) -> LabeledSample:
    resp = mock_generate_caption(payload, level, seed, donor=donor)
    rec = CaptionSample(id=id, image=payload, text=parse_caption_response(resp, level))
    return LabeledSample(record=rec, label=level, level_name=LEVEL_NAMES[level])


def _doc_sample(id: str, group: list[ImagePayload], level: int, seed: int) -> LabeledSample:
    resp = mock_generate_document(group, level, seed)
    rec = InterleavedDoc(id=id, items=parse_interleaved_response(resp, group))
    return LabeledSample(record=rec, label=level, level_name=LEVEL_NAMES[level])


@dataclass
class GenReport:
    requested: dict
    nonsynthetic_positives: int
    n_train: int
    n_val: int
    val_fraction: float
    seed: int

    def to_obj(self) -> dict:
        return dict(self.__dict__)


def build_dataset(images_caption: list[ImagePayload],
                  docs_interleaved: list[list[ImagePayload]],
                  counts_per_level: dict[int, int],
                  nonsyn_positives: list[CaptionSample] | None = None,
                  val_fraction: float = 0.05,
                  seed: int = 0):
    """Generate, label and split a semi-synthetic quality dataset.

    counts_per_level applies to each modality separately: level L consumes
    counts_per_level[L] caption images and as many document image groups.
    Non-synthetic positives are appended with label 3.  Returns
    (train, val, GenReport); the split is a seeded shuffle with
    floor(val_fraction * n) validation samples, no stratification.
    """
    if not 0 <= val_fraction < 1:
        raise DataError(f"val_fraction={val_fraction!r}: must be a number in [0, 1)")
    for level, count in counts_per_level.items():
        if level not in LEVEL_NAMES:
            raise DataError(f"unknown quality level {level}")
        if count < 0:
            raise DataError(f"count for level {level} is {count}: must be >= 0")
    need = sum(counts_per_level.values())
    if need > len(images_caption):
        raise DataError(f"need {need} caption images, have {len(images_caption)}")
    if need > len(docs_interleaved):
        raise DataError(f"need {need} doc image groups, have {len(docs_interleaved)}")

    levels = [level for level in sorted(counts_per_level)
              for _ in range(counts_per_level[level])]
    samples: list[LabeledSample] = []
    for i, level in enumerate(levels):
        sub_seed = int(child_seed(seed, "gen-cap", level, i).generate_state(1)[0])
        samples.append(_caption_sample(
            f"cap-{len(samples):06d}", images_caption[i],
            images_caption[(i + 1) % len(images_caption)], level, sub_seed))
    for i, level in enumerate(levels):
        sub_seed = int(child_seed(seed, "gen-doc", level, i).generate_state(1)[0])
        samples.append(_doc_sample(f"doc-{len(samples):06d}", list(docs_interleaved[i]),
                                   level, sub_seed))
    for cap in nonsyn_positives or []:
        samples.append(LabeledSample(record=cap, label=POSITIVE,
                                     level_name=LEVEL_NAMES[POSITIVE],
                                     provenance="nonsynthetic_positive"))

    order = child_rng(seed, "split").permutation(len(samples))
    n_val = int(math.floor(val_fraction * len(samples)))
    val = [samples[i] for i in order[:n_val]]
    train = [samples[i] for i in order[n_val:]]
    report = GenReport(
        requested={LEVEL_NAMES[k]: v for k, v in sorted(counts_per_level.items())},
        nonsynthetic_positives=len(nonsyn_positives or []),
        n_train=len(train),
        n_val=len(val),
        val_fraction=val_fraction,
        seed=seed,
    )
    return train, val, report


def make_mock_benchmark(train_per_cell: int, val_per_cell: int, seed: int):
    """Balanced mock dataset: (level x modality) cells of equal size.

    Returns (train, val) with train_per_cell and val_per_cell samples in each
    of the 8 cells, shuffled within each split.  Sources are generated
    internally from the seed.
    """
    per_cell = train_per_cell + val_per_cell
    images, docs = make_mock_sources(per_cell * 4, per_cell * 4, seed)

    train: list[LabeledSample] = []
    val: list[LabeledSample] = []
    counter = 0
    for level in sorted(LEVEL_NAMES):
        for i in range(per_cell):
            j = level * per_cell + i
            sample = _caption_sample(f"cap-{counter:06d}", images[j],
                                     images[(j + 1) % len(images)], level,
                                     seed * 1000003 + counter)
            (val if i < val_per_cell else train).append(sample)
            counter += 1
        for i in range(per_cell):
            sample = _doc_sample(f"doc-{counter:06d}", list(docs[level * per_cell + i]),
                                 level, seed * 1000003 + counter)
            (val if i < val_per_cell else train).append(sample)
            counter += 1
    child_rng(seed, "bench-shuffle-train").shuffle(train)
    child_rng(seed, "bench-shuffle-val").shuffle(val)
    return train, val
