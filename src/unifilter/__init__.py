"""Unified quality filtering for multimodal pretraining corpora.

Build labeled semi-synthetic quality data over four levels, train a single
regressor that scores both image-text captions and interleaved documents,
then filter, pack, and report on a corpus with it.  Pure numpy; every step
is seeded and byte-reproducible.
"""

import os
import sys

# One OpenBLAS thread per process: the model's matmuls are too small to gain
# from BLAS threading, the cores go to train and score processes instead, and
# scores do not depend on the host's core count.  A value the user set wins.
# OpenBLAS reads the variable when numpy loads it, so when numpy came first and
# nothing set it, BLAS_THREADS (a manifest's blas_threads) is None.
BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")
if BLAS_THREADS is None:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if "numpy" not in sys.modules:
        BLAS_THREADS = "1"

from .classifier import (  # noqa: E402  (after the thread policy)
    ModelConfig,
    QualityModel,
    TrainConfig,
    load_model,
    save_model,
    train,
)
from .clustering import (
    EmbeddingMatrix,
    KMeansConfig,
    KMeansResult,
    SampleConfig,
    doc_embedding,
    image_embedding,
    kmeans,
    sample_per_cluster,
)
from .common import DataError, NumericError, SchemaError, __version__, child_rng
from .encoder import EncoderConfig, adaptive_avg_pool_2d, image_tokens
from .filtering import (
    CorpusStats,
    FilterConfig,
    corpus_stats,
    dfn_filter_corpus,
    dfn_filter_doc,
    score_corpus,
    select_top_fraction,
    threshold_for_fraction,
    throughput_bench,
)
from .metrics import EvalReport, evaluate, quantize_score
from .packing import Vocab, build_vocab, flatten_doc, pack, tokenize, write_packed
from .records import (
    CaptionSample,
    DocItem,
    ImagePayload,
    InterleavedDoc,
    LabeledSample,
    ScoredRecord,
    read_records,
    write_records,
)
from .synthgen import (
    build_dataset,
    keyword_overlap_label,
    make_mock_benchmark,
    make_mock_sources,
)
