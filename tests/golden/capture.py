"""Golden CLI outputs: the invocations, how to run one, and a capture script.

Each invocation's stdout, exit code and the files it writes through
--out/--curve-out/--csv-out are stored under tests/golden/<name>/.
tests/test_golden.py reruns every invocation in-process through cli.main and
compares the bytes, so a refactor that must not change any output is checked
against files captured before it.

To re-capture at the commit a refactor starts from, run from the repository
root:

    PYTHONPATH=src python3 tests/golden/capture.py

Each invocation then runs as its own `python -m chiraledge` process with
BLAS and OpenMP pinned to one thread, as tests/conftest.py pins them for the
comparison: some printed values are numerical zeros, such as a kernel singular
value of 2e-15, and their digits change with OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
INPUTS = GOLDEN_DIR / "inputs"
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# (name, argv).  "{inputs}" is the committed input directory; "{out}/FILE"
# names an output file, stored in the golden directory as FILE.
INVOCATIONS = [
    ("spectrum-ssh", ["spectrum", "--fixture", "ssh:t1=1,t2=2", "--samples", "64", "--out", "{out}/bands.csv"]),
    ("winding-defective", [
        "winding", "--fixture", "defective:theta=0.5", "--samples", "64", "--curve-out", "{out}/curve.csv",
    ]),
    ("winding-ssh", ["winding", "--fixture", "ssh:t1=0.7,t2=1.3", "--out", "{out}/winding.json"]),
    ("edge-dimerized-plus", ["edge", "--fixture", "dimerized-plus"]),
    ("edge-dimerized-minus", ["edge", "--fixture", "dimerized-minus"]),
    ("edge-dimerized-trivial", ["edge", "--fixture", "dimerized-trivial"]),
    ("edge-defective", ["edge", "--fixture", "defective:theta=0.5"]),
    ("edge-ssh", ["edge", "--fixture", "ssh:t1=1,t2=2"]),
    ("edge-ssh-slow-decay", ["edge", "--fixture", "ssh:t1=0.97,t2=1"]),
    ("scan-ssh", ["scan", "--fixture", "ssh:t1=1,t2=2", "--cells", "40"]),
    ("modes-defective", [
        "modes", "--fixture", "defective:theta=0.5", "--energy", "0.5", "--initial", "1,0,0.5,0",
        "--out", "{out}/modes.csv",
    ]),
    ("deform-defective", [
        "deform", "--fixture", "defective:theta=0.5", "--out", "{out}/path.json", "--csv-out", "{out}/surface.csv",
    ]),
    ("deform-ssh", ["deform", "--fixture", "ssh:t1=1,t2=2"]),
    ("verify-dimerized-all", ["verify", "--fixture", "dimerized-all"]),
    ("verify-ensemble-4-2", ["verify", "--ensemble", "dim_v=4,range=2,count=3,seed=1"]),
    ("verify-ensemble-2-3", ["verify", "--ensemble", "dim_v=2,range=3,count=3,seed=5"]),
    ("phase-diagram-ssh", ["phase-diagram", "{inputs}/ssh_family.json", "--grid", "6x6"]),
    ("phase-diagram-defective", ["phase-diagram", "{inputs}/defective_family.json", "--grid", "4x4"]),
]


def _expand(argv, out_dir: Path):
    return [a.replace("{inputs}", str(INPUTS)).replace("{out}", str(out_dir)) for a in argv]


def _collect(argv, out_dir: Path, stdout: bytes, code: int) -> dict:
    result = {"stdout": stdout, "exit_code": f"{code}\n".encode()}
    for name in (a.split("/", 1)[1] for a in argv if a.startswith("{out}/")):
        if (out_dir / name).exists():
            result[name] = (out_dir / name).read_bytes()
    return result


def run_in_process(argv) -> dict:
    """Run one invocation through cli.main; returns {file name: bytes}."""
    from chiraledge.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(_expand(argv, Path(tmp)))
        return _collect(argv, Path(tmp), stdout.getvalue().encode(), code)


def _run_subprocess(argv) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "chiraledge", *_expand(argv, Path(tmp))],
            stdout=subprocess.PIPE,
            env={**os.environ, **ONE_THREAD},
            check=False,
        )
        return _collect(argv, Path(tmp), proc.stdout, proc.returncode)


def capture() -> None:
    for name, argv in INVOCATIONS:
        target = GOLDEN_DIR / name
        if target.exists():
            shutil.rmtree(target)
        target.mkdir()
        for fname, data in _run_subprocess(argv).items():
            (target / fname).write_bytes(data)
        print(f"captured {name}")


if __name__ == "__main__":
    capture()
