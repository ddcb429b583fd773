import ast
from pathlib import Path

import chiraledge

PACKAGE = Path(chiraledge.__file__).parent
SCRIPTS = PACKAGE.parents[1] / "scripts"
PERFBENCH = PACKAGE.parents[1] / "perfbench"

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


# Defaulted parameters that no call in src/, scripts/ or perfbench/ passes,
# each with the reason it stays.
ALLOWED_UNSET = {
    "save_model.grading": "the writer's counterpart of the grading load_model reads back",
    "defective.scale": "fixture parameters are passed by name through fixture() and the phase-diagram families",
}


def _public_defaults(tree: ast.Module):
    """(qualified name, callee name, parameter, positional index or None, default) per defaulted parameter.

    Module-level functions and the methods of module-level classes, both
    public; the index counts call arguments, so a method's self is skipped.
    The default is its expression node.
    """
    functions = [(n.name, n, 0) for n in tree.body if isinstance(n, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            for n in cls.body:
                if isinstance(n, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in n.decorator_list)
                    functions.append((f"{cls.name}.{n.name}", n, 0 if static else 1))
    for qualified, fn, skip in functions:
        if fn.name.startswith("_"):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for index, (arg, default) in enumerate(zip(positional[first:], fn.args.defaults), start=first):
            yield qualified, fn.name, arg.arg, index - skip, default
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield qualified, fn.name, arg.arg, None, default


def _calls_by_name(paths) -> dict:
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


_NOT_A_LITERAL = object()


def _literal(node: ast.AST):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _NOT_A_LITERAL


def _passes(call: ast.Call, parameter: str, index, default: ast.AST) -> bool:
    """Whether the call sets the parameter to anything but a literal equal to its default."""
    if any(k.arg is None for k in call.keywords):
        return True
    if index is not None and any(isinstance(a, ast.Starred) for a in call.args):
        return True
    passed = [k.value for k in call.keywords if k.arg == parameter]
    if index is not None:
        passed += call.args[index : index + 1]
    for node in passed:
        value = _literal(node)
        if value is _NOT_A_LITERAL or value != _literal(default):
            return True
    return False


def test_every_defaulted_parameter_has_a_production_setter():
    # An option that no caller sets is a configuration nobody runs.  A call
    # sets a parameter by keyword, by position, or through ** (which counts
    # for every name); calls are matched by the callee's name.  Passing a
    # literal equal to the default sets nothing.  tol is exempt: every
    # Tolerances field is overridable from the CLI.
    calls = _calls_by_name([*PACKAGE.glob("*.py"), *SCRIPTS.glob("*.py"), *PERFBENCH.glob("*.py")])
    defaults = [d for path in PACKAGE.glob("*.py") for d in _public_defaults(ast.parse(path.read_text()))]
    unset = {
        f"{qualified}.{parameter}"
        for qualified, callee, parameter, index, default in defaults
        if parameter != "tol" and not any(_passes(c, parameter, index, default) for c in calls.get(callee, []))
    }
    unused = sorted(unset - set(ALLOWED_UNSET))
    assert not unused, f"defaulted but set only by tests: {unused}"
    assert set(ALLOWED_UNSET) <= unset
