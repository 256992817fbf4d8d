"""Corpus scoring, top-fraction selection, DFN-style baseline, stats, bench.

The production path after training: score every record with the quality
model, keep the top fraction by score, or run the similarity-threshold
baseline that drops images instead of documents.  Everything here is exact
two-pass work at desk scale.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
from dataclasses import asdict, dataclass
from functools import cache
from itertools import chain, islice

import numpy as np

from .classifier import TASK_GROUPS, _cost, _task_runner, balanced_groups
from .common import DataError, check_counts, child_rng, unit_vector
from .encoder import EncoderConfig, patchify_embed
from .packing import tokenize_words
from .records import CaptionSample, ImagePayload, InterleavedDoc, ScoredRecord, as_document


@dataclass
class FilterConfig:
    batch_size: int = 256
    workers: int = 1

    def __post_init__(self):
        check_counts(self, "batch_size", "workers")


def score_corpus(records, model, cfg: FilterConfig | None = None,
                 ) -> tuple[list[ScoredRecord], list[dict]]:
    """Score records in corpus order with a model's score_record.

    records is any iterable, a reader's generator among them: it is read
    cfg.batch_size records at a time, so only one batch of records is held.
    Returns (scored, rejects).  Records the model cannot assemble (over
    length, say) or whose score is not finite become reject entries instead
    of aborting the run.  A duplicate record id is a DataError, raised
    before the batch it arrives in is scored.  With cfg.workers > 1 one
    worker is forked before the first batch (train's task runner), and each
    batch splits record by record into TASK_GROUPS groups of balanced
    _cost(doc, model.config), as train splits a batch of samples; the
    worker scores the second group, which it receives and returns over the
    runner's pipe.  Each record is forwarded on its own, so scores are
    bitwise independent of batch size and worker count.
    """
    cfg = cfg or FilterConfig()

    def score_one(doc):
        try:
            score = model.score_record(doc)
        except DataError as exc:
            return None, {"id": doc.id, "error": str(exc)}
        if not math.isfinite(score):
            return None, {"id": doc.id, "error": "non-finite score"}
        return ScoredRecord(id=doc.id, score=score, modality=doc.modality), None

    fork = cfg.workers > 1      # one process scores every batch in order, unsplit
    seen: set[str] = set()
    scored, rejects = [], []
    records = iter(records)
    with _task_runner(lambda docs: [score_one(doc) for doc in docs], fork=fork) as run_pair:
        while batch := [as_document(rec) for rec in islice(records, cfg.batch_size)]:
            for doc in batch:
                if doc.id in seen:
                    raise DataError(f"duplicate record id {doc.id!r}")
                seen.add(doc.id)
            groups = (balanced_groups([_cost(doc, model.config) for doc in batch], TASK_GROUPS)
                      if fork else [range(len(batch))])
            results = run_pair([[batch[i] for i in group] for group in groups])
            # back in record order; the indices differ, so no two results are compared
            for _, (rec, rej) in sorted(zip(chain(*groups), chain(*results))):
                if rej is None:
                    scored.append(rec)
                else:
                    rejects.append(rej)
    return scored, rejects


def _retain_count(n: int, fraction: float) -> int:
    """ceil(fraction * n) with guard against float fuzz on integral products."""
    raw = fraction * n
    nearest = round(raw)
    m = nearest if abs(raw - nearest) < 1e-9 else math.ceil(raw)
    return max(1, min(n, m)) if n > 0 else 0


def _ranked_ids(scores: list[ScoredRecord]) -> list[str]:
    return [s.id for s in sorted(scores, key=lambda s: (-s.score, s.id))]


def select_top_fraction(scores: list[ScoredRecord], records: list,
                        fraction: float) -> list:
    """Keep exactly ceil(fraction * N) records, ties broken by ascending id.

    Output preserves the original corpus order.  Every record must have
    exactly one score and vice versa.
    """
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"fraction must be in (0, 1], got {fraction}")
    by_id: dict[str, float] = {}
    for s in scores:
        if s.id in by_id:
            raise DataError(f"duplicate score for id {s.id!r}")
        by_id[s.id] = s.score
    record_ids = [as_document(r).id for r in records]
    missing = [rid for rid in record_ids if rid not in by_id]
    if missing:
        raise DataError(f"no score for record id {missing[0]!r}")
    extra = set(by_id) - set(record_ids)
    if extra:
        raise DataError(f"score for unknown record id {sorted(extra)[0]!r}")

    m = _retain_count(len(records), fraction)
    keep = set(_ranked_ids(scores)[:m])
    return [r for r, rid in zip(records, record_ids) if rid in keep]


def threshold_for_fraction(scores: list[ScoredRecord], fraction: float) -> float:
    """Score of the ceil(fraction * N)-th largest element.

    Thresholding at this value plus the stable-by-id tie policy reproduces
    select_top_fraction exactly.
    """
    if not scores:
        raise DataError("cannot compute a threshold over zero scores")
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"fraction must be in (0, 1], got {fraction}")
    m = _retain_count(len(scores), fraction)
    ordered = sorted((s.score for s in scores), reverse=True)
    return ordered[m - 1]


# ---------------------------------------------------------------------------
# DFN-style baseline: image-paragraph similarity thresholding

DFN_DIM = 64  # the one width of text and image embeddings, so they can be compared


def hashed_text_embedding(text: str):
    """L2-normalized signed hashed bag-of-tokens; None if the text has no
    tokens.  A deterministic toy stand-in for a real text encoder."""
    vec = np.zeros(DFN_DIM)
    for tok in tokenize_words(text.lower()):
        h = hashlib.sha256(tok.encode("utf-8")).digest()
        idx = int.from_bytes(h[:8], "big") % DFN_DIM
        sign = 1.0 if h[8] % 2 == 0 else -1.0
        vec[idx] += sign
    return unit_vector(vec)


@cache
def _dfn_projection(d_in: int) -> np.ndarray:
    return child_rng(0, "dfn-image-proj", d_in, DFN_DIM).normal(0.0, 1.0, size=(d_in, DFN_DIM))


def dfn_image_embedding(payload: ImagePayload):
    """Mean patch vector pushed through a fixed random projection into the
    text embedding space, L2 normalized; None for a zero or non-finite vector
    (huge finite pixels can overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        grid = patchify_embed(payload, EncoderConfig())
        mean_vec = grid.vecs.reshape(-1, grid.vecs.shape[2]).mean(axis=0)
        vec = mean_vec @ _dfn_projection(mean_vec.shape[0])
    return unit_vector(vec)


def dfn_filter_doc(doc: CaptionSample | InterleavedDoc, text_embed_fn, image_embed_fn,
                   threshold: float):
    """Keep an image iff its max cosine similarity against the same
    document's paragraphs reaches the threshold; text items are never
    removed.  Returns doc itself when every image survives, None when none
    does, else a new InterleavedDoc, so a caption comes back as it is or None.

    Each contiguous text item counts as one paragraph.  An image (or a doc)
    without a usable embedding scores -1, so only threshold <= -1 keeps it.
    """
    items = doc.items
    paragraphs = [p for p in (text_embed_fn(item.text) for item in items
                              if item.kind == "text") if p is not None]
    kept_items = []
    for item in items:
        if item.kind == "text":
            kept_items.append(item)
            continue
        emb = image_embed_fn(item.image)
        if emb is None or not paragraphs:
            max_sim = -1.0
        else:
            max_sim = max(float(np.dot(emb, p)) for p in paragraphs)
        if max_sim >= threshold:
            kept_items.append(item)
    if len(kept_items) == len(items):
        return doc
    if not any(item.kind == "image" for item in kept_items):
        return None
    return InterleavedDoc(id=doc.id, items=kept_items)


def dfn_filter_corpus(docs: list, threshold: float = 0.15,
                      text_embed_fn=None, image_embed_fn=None) -> tuple[list, list[dict]]:
    """Apply dfn_filter_doc across captions and documents.  Records that lose
    every image are returned as reject entries."""
    text_embed_fn = text_embed_fn or hashed_text_embedding
    image_embed_fn = image_embed_fn or dfn_image_embedding
    kept: list = []
    rejects: list[dict] = []
    for doc in docs:
        filtered = dfn_filter_doc(doc, text_embed_fn, image_embed_fn, threshold)
        if filtered is None:
            rejects.append({"id": doc.id, "error": "no image met the similarity threshold"})
        else:
            kept.append(filtered)
    return kept, rejects


# ---------------------------------------------------------------------------
# Corpus statistics and throughput benchmarking


@dataclass
class CorpusStats:
    n_records: int
    avg_images_per_doc: float
    avg_text_len: float       # words per record
    avg_doc_len: float        # words + image token equivalents per record
    retained_fraction: float

    def __post_init__(self):
        if not 0.0 <= self.retained_fraction <= 1.0:
            raise DataError(f"retained_fraction must be in [0, 1], got {self.retained_fraction}")

    def to_obj(self) -> dict:
        return asdict(self)


def _record_counts(record) -> tuple[int, int]:
    """(n_images, n_words) for a caption sample or interleaved doc."""
    doc = as_document(record)
    return len(doc.images()), sum(len(t.split()) for t in doc.texts())


def corpus_stats(records: list, image_token_equiv: int = 144,
                 retained_fraction: float = 1.0) -> CorpusStats:
    """Per-record averages; doc length counts each image as
    image_token_equiv tokens.  retained_fraction is supplied by the caller
    (this function cannot know what the corpus was filtered from)."""
    if not records:
        raise DataError("cannot compute stats over an empty corpus")
    counts = [_record_counts(r) for r in records]
    n = len(counts)
    total_images = sum(c[0] for c in counts)
    total_words = sum(c[1] for c in counts)
    return CorpusStats(
        n_records=n,
        avg_images_per_doc=total_images / n,
        avg_text_len=total_words / n,
        avg_doc_len=(total_words + image_token_equiv * total_images) / n,
        retained_fraction=retained_fraction,
    )


def format_stats(stats: CorpusStats) -> str:
    """One fixed-width row: image count, text length, combined length, fraction."""
    header = f"{'Records':>8}  {'Avg. #Img.':>10}  {'Avg. Text Len.':>14}  {'Avg. Doc Len.':>13}  {'Retained':>8}"
    row = (f"{stats.n_records:>8d}  {stats.avg_images_per_doc:>10.2f}  "
           f"{stats.avg_text_len:>14.1f}  {stats.avg_doc_len:>13.1f}  "
           f"{stats.retained_fraction:>7.1%}")
    return header + "\n" + row


def _bench_corpus(size: int, seed: int) -> list[CaptionSample]:
    rng = child_rng(seed, "bench-corpus", size)
    samples = []
    for i in range(size):
        pixels = rng.uniform(0.0, 1.0, size=(1, 16, 16))
        samples.append(CaptionSample(
            id=f"bench-{i:05d}",
            image=ImagePayload(pixels=pixels),
            text=f"benchmark sample {i} shows a fox resting by the kettle",
        ))
    return samples


# Shortest timed repeat of the bench.  One pass over a small corpus lasts
# tens of milliseconds, shorter than the speed swings of a shared machine, so
# small corpora are timed over several passes per repeat.
_MIN_REPEAT_S = 2.0


def throughput_bench(model, sizes: list[int], batch_sizes: list[int],
                     seed: int = 0, repeats: int = 3) -> dict:
    """Wall-clock samples/s for each (corpus size, batch size) pair.

    Times the scoring path on synthetic caption corpora.  Each repeat scores
    every corpus with every batch size in turn, `passes` times over, and
    records each pair's mean pass time; a row reports the median over
    repeats.  Taking the pairs in turn lets a slow spell of the machine fall
    on all of them alike.  `passes` is the fewest that make a repeat last
    _MIN_REPEAT_S, judged from one untimed warm-up round.  The garbage
    collector is off inside each timed pass, as in `timeit`.  Absolute
    numbers are hardware-specific; the report exists for relative
    comparisons on one machine.
    """
    if repeats < 1:
        raise DataError(f"repeats must be >= 1, got {repeats}")
    corpora = {size: _bench_corpus(size, seed) for size in set(sizes)}
    pairs = [(size, batch_size) for size in sorted(sizes) for batch_size in batch_sizes]

    def timed_pass(size: int, batch_size: int) -> float:
        cfg = FilterConfig(batch_size=batch_size)
        gc.disable()
        try:
            start = time.perf_counter()
            scored, rejects = score_corpus(corpora[size], model, cfg)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        if rejects:
            raise DataError(f"bench corpus produced {len(rejects)} rejects")
        if len(scored) != size:
            raise DataError(f"bench scored {len(scored)} of {size} records")
        return elapsed

    warm_round_s = sum(timed_pass(*pair) for pair in pairs)
    passes = max(1, math.ceil(_MIN_REPEAT_S / max(warm_round_s, 1e-3)))
    times: list[list[float]] = [[] for _ in pairs]
    for _ in range(repeats):
        totals = [0.0] * len(pairs)
        for _ in range(passes):
            for i, pair in enumerate(pairs):
                totals[i] += timed_pass(*pair)
        for pair_times, total in zip(times, totals):
            pair_times.append(total / passes)
    rows = []
    for (size, batch_size), pair_times in zip(pairs, times):
        median_t = float(np.median(pair_times))
        rows.append({
            "corpus_size": size,
            "batch_size": batch_size,
            "wall_time_s": median_t,
            "samples_per_s": size / median_t,
            "repeats": repeats,
            "passes": passes,
        })
    return {
        "precision": "float64",
        "model_config": asdict(model.config),
        "rows": rows,
    }
