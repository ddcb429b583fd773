"""The benchmark's span tracer installs over the package and comes off cleanly.

perfbench/spans.py wraps the package's functions at the module attributes
their callers look up.  A name it wraps that the package no longer imports
would make `perfbench/run.py --trace 1` fail; this test fails first.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = load_spans().build_tracer()
    patches = list(tracer._patches)
    assert patches
    tracer.install()
    try:
        for owner, attr, _, wrapper in patches:
            assert getattr(owner, attr) is wrapper, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr, original, _ in patches:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
