"""Test-session setup, loaded by pytest before any test module imports
numpy.

scipy's OpenBLAS starts one thread per CPU unless told otherwise; the
suite's small solves and products run faster on one, as the benchmark
runs them (perfbench/run.py). A value set by the caller is kept, and no
test depends on it.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
