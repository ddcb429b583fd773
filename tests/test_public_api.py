import ast
from pathlib import Path

import chiraledge

PACKAGE = Path(chiraledge.__file__).parent
SCRIPTS = PACKAGE.parents[1] / "scripts"

# Exported names that no module or script calls, each with the reason it stays.
ALLOWED_UNREFERENCED = {
    "char_poly_residual": "acceptance criterion 7 checks the companion matrix against det(H - E)",
    "duality_check": "acceptance criterion 7 checks the lambda -> 1/conj(lambda) symmetry",
    "save_model": "the writer paired with load_model",
}


def _references(tree: ast.AST) -> set:
    """Names and attributes read anywhere in a module, except inside the definition of that name."""
    found = set()
    stack = [(tree, frozenset())]
    while stack:
        node, owners = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, ast.Name) and node.id not in owners:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in owners:
            found.add(node.attr)
        stack.extend((child, owners) for child in ast.iter_child_nodes(node))
    return found


def test_every_export_has_a_production_caller():
    # A public helper that only tests call is surface without a user.  A
    # reference is a use in src/ or scripts/ outside the name's own
    # definition; the export in __init__.py is an import, not a use.
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {a.asname or a.name for n in init.body if isinstance(n, ast.ImportFrom) for a in n.names}
    used = set()
    for path in [*PACKAGE.glob("*.py"), *SCRIPTS.glob("*.py")]:
        if path.name != "__init__.py":
            used |= _references(ast.parse(path.read_text()))
    unused = sorted(exported - used - set(ALLOWED_UNREFERENCED))
    assert not unused, f"exported but used only by tests: {unused}"
    assert set(ALLOWED_UNREFERENCED) <= exported
