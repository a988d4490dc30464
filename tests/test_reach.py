"""Every function in src/irmlab backs a verdict.

A top-level function or a non-dunder method must be referenced by name
somewhere other than its own body: in src/irmlab, in the acceptance suite or
in the benchmark's workloads.  Code that only its own unit test reaches is
deleted, not kept.  The exemptions are listed below with what each does.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# reference implementations that unit tests compare verdict code against
ORACLES = {
    "mp_moment_quadrature": "Gauss-Legendre quadrature of the Marchenko-Pastur "
                            "density; cross-checks chebyshev.mp_moments",
    "BandDensity.mass": "radial quadrature of a band density; cross-checks the "
                        "closed-form normalization constants",
}
# overrides that the standard library calls, never by name
CALLBACKS = {
    "_Parser.error": "argparse calls it on a malformed command line",
}
EXEMPT = ORACLES.keys() | CALLBACKS.keys()


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _definitions(tree):
    """(qualified name, node) of each top-level function and non-dunder method."""
    for node in tree.body:
        if _is_def(node):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if _is_def(sub) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub


def _references(tree):
    """(name, enclosing function nodes) of each Name and Attribute."""
    out = []

    def visit(node, enclosing):
        if isinstance(node, ast.Name):
            out.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, enclosing))
        if _is_def(node):
            enclosing = enclosing | {node}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def _scan():
    src = sorted((ROOT / "src" / "irmlab").glob("*.py"))
    users = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in src + users}
    refs = [ref for tree in trees.values() for ref in _references(tree)]
    defined = {}
    for path in src:
        for qual, node in _definitions(trees[path]):
            defined[f"{path.stem}.{qual}"] = (qual, node)
    return defined, refs


def test_every_function_is_reached():
    defined, refs = _scan()
    unreached = sorted(
        name for name, (qual, node) in defined.items()
        if qual not in EXEMPT
        and not any(ref == node.name and node not in enclosing for ref, enclosing in refs))
    assert not unreached, f"reached only by their own unit tests: {unreached}"


def test_exemptions_name_existing_code():
    defined, _ = _scan()
    quals = {qual for qual, _ in defined.values()}
    assert not EXEMPT - quals
