import os

# One BLAS thread, as the benchmark pins it. OpenBLAS reads these once, when
# numpy first loads, so they are set before anything imports numpy; with a
# thread per core, a test run beside any busy process slows many-fold.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from hypothesis import settings  # noqa: E402

# Derandomized: every run of the suite draws the same examples, so a failure
# reproduces and a pass is not a lucky draw. Example counts are unchanged.
settings.register_profile("flowprune", derandomize=True)
settings.load_profile("flowprune")
