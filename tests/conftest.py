import os

# Pin BLAS/OpenMP to one thread before anything imports numpy: some printed
# numerical zeros (a kernel singular value of 2e-15) change their digits with
# the thread count, and the golden files are captured with one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import multiprocessing  # noqa: E402

import hypothesis  # noqa: E402
import pytest  # noqa: E402

hypothesis.settings.register_profile("ci", deadline=None, max_examples=50)
hypothesis.settings.load_profile("ci")


@pytest.fixture(autouse=True)
def no_leftover_processes():
    """Fail a test after which a child process is still running: a pool that
    phase-diagram (or a test) starts must be joined before it returns."""
    yield
    leftover = multiprocessing.active_children()
    for child in leftover:
        child.terminate()
        child.join()
    assert not leftover, f"child processes left running: {leftover}"
