"""Unified quality filtering for multimodal pretraining corpora.

Build labeled semi-synthetic quality data over four levels, train a single
regressor that scores both image-text captions and interleaved documents,
then filter, pack, and report on a corpus with it.  Pure numpy; every step
is seeded and byte-reproducible.

The package root holds only the BLAS thread policy and loads no numpy; every
name comes from its module, e.g. unifilter.filtering.score_corpus.
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
