"""Toy image embeddings, seeded k-means, and per-cluster sampling.

Source images for caption generation are clustered first so the sampled
subset covers the corpus instead of the densest region.  Embeddings are the
mean of an image's frozen patch vectors, L2 normalized; documents average
their image embeddings.  k-means is written out by hand because its policy
details matter for reproducibility: k-means++ seeding, Lloyd updates,
distance ties resolved to the lowest centroid index, empty clusters reseeded
from the point farthest from its assigned centroid, and the inertia history
recorded after every assignment step (it must never increase).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .common import DataError, check_counts, check_field, child_rng, unit_vector
from .encoder import EncoderConfig, patchify_embed
from .records import ImagePayload, InterleavedDoc

MAX_ITERS = 100  # Lloyd iteration cap


def _unit_or_raise(vec: np.ndarray, what: str) -> np.ndarray:
    unit = unit_vector(vec)
    if unit is None:
        raise DataError(f"{what} {'has a non-finite norm' if vec.any() else 'is all zeros'}; "
                        f"cannot normalize")
    return unit


def image_embedding(payload: ImagePayload, cfg: EncoderConfig) -> np.ndarray:
    """Mean patch vector, L2 normalized.  Errors on an all-zero or non-finite
    embedding (huge finite pixels can overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        grid = patchify_embed(payload, cfg)
        vec = grid.vecs.reshape(-1, grid.vecs.shape[2]).mean(axis=0)
    return _unit_or_raise(vec, "image embedding")


def stack_same_width(vecs: list[np.ndarray], what: str) -> np.ndarray:
    """Embeddings as rows.  Pixels embed at cfg.d_v and a patch grid at its
    own width; widths that differ share no space, a DataError naming what."""
    widths = sorted({v.shape[0] for v in vecs})
    if len(widths) > 1:
        raise DataError(f"{what} mixes image embedding widths {widths}")
    return np.stack(vecs)


def doc_embedding(doc: InterleavedDoc, cfg: EncoderConfig) -> np.ndarray:
    """Mean of the document's image embeddings, L2 normalized."""
    images = doc.images()
    if not images:
        raise DataError(f"doc {doc.id!r} has no images to embed")
    vec = stack_same_width([image_embedding(img, cfg) for img in images],
                           f"doc {doc.id!r}").mean(axis=0)
    return _unit_or_raise(vec, f"doc {doc.id!r} embedding")


@dataclass
class EmbeddingMatrix:
    ids: list[str]
    vecs: np.ndarray  # (n, d_e)

    def __post_init__(self):
        if len(self.ids) != self.vecs.shape[0]:
            raise DataError(f"{len(self.ids)} ids for {self.vecs.shape[0]} embedding rows")


def _check_seed(cfg) -> None:
    check_field(cfg, "seed", lambda v: isinstance(v, int) and v >= 0, "an integer >= 0")


@dataclass
class KMeansConfig:
    k: int
    seed: int = 0

    def __post_init__(self):
        check_counts(self, "k")
        _check_seed(self)


@dataclass
class KMeansResult:
    assignments: np.ndarray          # (n,) cluster index per row
    centroids: np.ndarray            # (k, d_e)
    inertia_history: list[float] = field(default_factory=list)
    n_iters: int = 0


def _sq_dists(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(n, k) squared euclidean distances, clipped at zero for roundoff."""
    d2 = (x * x).sum(axis=1)[:, None] + (c * c).sum(axis=1)[None, :] - 2.0 * (x @ c.T)
    return np.maximum(d2, 0.0)


def _plus_plus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[int(rng.integers(n))]
    d2 = _sq_dists(x, centroids[:1]).min(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total == 0.0:  # all points identical to chosen centroids
            centroids[j] = x[int(rng.integers(n))]
        else:
            centroids[j] = x[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, _sq_dists(x, centroids[j:j + 1])[:, 0])
    return centroids


def kmeans(matrix: EmbeddingMatrix, cfg: KMeansConfig) -> KMeansResult:
    """Seeded k-means++ plus Lloyd iterations.

    Assignment ties go to the lowest centroid index (argmin).  A cluster left
    empty after assignment is reseeded from the point farthest from its own
    centroid.  Stops when assignments no longer change or after MAX_ITERS
    iterations.
    """
    x = np.asarray(matrix.vecs, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= cfg.k <= n:
        raise DataError(f"k={cfg.k} must be in 1..{n}")
    rng = child_rng(cfg.seed, "kmeans")
    centroids = _plus_plus_init(x, cfg.k, rng)

    assignments = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    for _ in range(MAX_ITERS):
        d2 = _sq_dists(x, centroids)
        new_assign = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), new_assign].sum()))
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign

        # means of non-empty clusters, then farthest-point reseed for empties
        counts = np.bincount(assignments, minlength=cfg.k)
        for j in range(cfg.k):
            if counts[j] > 0:
                centroids[j] = x[assignments == j].mean(axis=0)
        if (counts == 0).any():
            point_d2 = _sq_dists(x, centroids)[np.arange(n), assignments]
            taken: set[int] = set()
            for j in range(cfg.k):
                if counts[j] > 0:
                    continue
                order = np.argsort(-point_d2, kind="stable")
                pick = next(int(i) for i in order if int(i) not in taken)
                taken.add(pick)
                centroids[j] = x[pick]
    return KMeansResult(assignments=assignments, centroids=centroids,
                        inertia_history=history, n_iters=len(history))


@dataclass
class SampleConfig:
    per_cluster: int = 4
    seed: int = 0

    def __post_init__(self):
        check_counts(self, "per_cluster")
        _check_seed(self)


def sample_per_cluster(ids: list[str], assignments: np.ndarray, cfg: SampleConfig) -> list[str]:
    """Seeded draw of up to per_cluster ids from each cluster, without
    replacement; smaller clusters contribute everything.  Output is sorted by
    id for stable downstream joins."""
    if len(ids) != len(assignments):
        raise DataError(f"{len(ids)} ids for {len(assignments)} assignments")
    by_cluster: dict[int, list[str]] = {}
    for rid, c in zip(ids, assignments):
        by_cluster.setdefault(int(c), []).append(rid)
    selected: list[str] = []
    for c in sorted(by_cluster):
        members = sorted(by_cluster[c])
        rng = child_rng(cfg.seed, "cluster-sample", c)
        if len(members) <= cfg.per_cluster:
            selected.extend(members)
        else:
            idx = rng.choice(len(members), size=cfg.per_cluster, replace=False)
            selected.extend(members[i] for i in sorted(idx))
    return sorted(selected)
