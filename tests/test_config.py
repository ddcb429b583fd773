import ast
import dataclasses
from pathlib import Path

import chiraledge
from chiraledge.config import Tolerances


def test_every_tolerance_is_read():
    # A knob that nothing reads still shows in every report's tolerance block
    # and is still accepted as --tol.NAME, but changes nothing.  A read is an
    # attribute access on a name ending in "tol" (tol.kernel, DEFAULT_TOL.kernel)
    # anywhere in the package but config.py.
    read = set()
    for path in Path(chiraledge.__file__).parent.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value).lower().endswith("tol"):
                read.add(node.attr)
    unread = [f.name for f in dataclasses.fields(Tolerances) if f.name not in read]
    assert not unread, f"Tolerances fields never read outside config.py: {unread}"
