"""CLI outputs stay byte-identical to the committed golden files.

The goldens under tests/golden/ were captured by tests/golden/capture.py; see
its docstring for when and how to re-capture them.
"""

import pytest

from golden.capture import GOLDEN_DIR, INVOCATIONS, run_in_process


@pytest.mark.parametrize("name,argv", INVOCATIONS, ids=[name for name, _ in INVOCATIONS])
def test_output_matches_golden(name, argv):
    expected = {p.name: p.read_bytes() for p in (GOLDEN_DIR / name).iterdir()}
    actual = run_in_process(argv)
    assert sorted(actual) == sorted(expected)
    for fname, data in expected.items():
        assert actual[fname] == data, f"{name}/{fname} differs from its golden file"
