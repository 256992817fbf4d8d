"""Run the tests under the same BLAS thread policy as the command line.

Importing unifilter sets OPENBLAS_NUM_THREADS=1 unless the user set it, but
a test module that imports numpy first would load OpenBLAS with its default
thread count.  Setting the variable here, before any test module is
imported, makes every test run the production policy.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
