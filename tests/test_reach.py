"""Every function in src/irmlab backs a verdict, and every knob is set.

A top-level function or a non-dunder method must be referenced by name
somewhere other than its own body: in src/irmlab, in the acceptance suite or
in the benchmark's workloads.  Each defaulted parameter of one must be
passed, by keyword or by position, by a call from the same places
(`__init__` and dataclass fields are not scanned).  Code that only its own
unit test reaches is deleted, and a knob that no caller sets becomes a
constant.  The exemptions are listed below with what each does.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# reference implementations that unit tests compare verdict code against
ORACLES = {
    "mp_moment_quadrature": "Gauss-Legendre quadrature of the Marchenko-Pastur "
                            "density; cross-checks chebyshev.mp_moments",
    "density_mass": "radial quadrature of a band density; cross-checks the "
                    "closed-form normalization constants",
}
# overrides that the standard library calls, never by name
CALLBACKS = {
    "_Parser.error": "argparse calls it on a malformed command line",
}
EXEMPT = ORACLES.keys() | CALLBACKS.keys()
# defaulted parameters that only unit tests set: each selects or tunes a
# reference computation that unit tests compare verdict code against
ORACLE_PARAMETERS = {
    "nb_powers(method)": "selects the brute-force oracle for the pair-state transfer",
    "mp_moment_quadrature(n_nodes)": "node count of the quadrature oracle",
    "density_mass(n_nodes)": "node count of the quadrature oracle",
}


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


def _walk(tree):
    """(node, enclosing function nodes) of each node of the tree."""
    out = []

    def visit(node, enclosing):
        out.append((node, enclosing))
        if _is_def(node):
            enclosing = enclosing | {node}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def _name(node):
    """The name a Name or Attribute node refers to; None for other nodes."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _scan():
    src = sorted((ROOT / "src" / "irmlab").glob("*.py"))
    users = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in src + users}
    nodes = [pair for tree in trees.values() for pair in _walk(tree)]
    # (name, enclosing) of each reference, (called name, call, enclosing) of each call
    refs = [(_name(node), enclosing) for node, enclosing in nodes
            if isinstance(node, (ast.Name, ast.Attribute))]
    calls = [(_name(node.func), node, enclosing) for node, enclosing in nodes
             if isinstance(node, ast.Call)]
    defined = {}
    for path in src:
        for qual, node in _definitions(trees[path]):
            defined[f"{path.stem}.{qual}"] = (qual, node)
    return defined, refs, calls


def _defaulted(qual, node):
    """(position or None, name) of each defaulted parameter; the position
    counts from the first argument a caller writes (after self or cls)."""
    args = node.args
    positional = args.posonlyargs + args.args
    if "." in qual and not any(getattr(d, "id", None) == "staticmethod"
                               for d in node.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _passes(call, position, name):
    """Whether a call passes the parameter, by keyword, position, *args or **kwargs."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return position is not None and (starred or len(call.args) > position)


def test_every_function_is_reached():
    defined, refs, _ = _scan()
    unreached = sorted(
        name for name, (qual, node) in defined.items()
        if qual not in EXEMPT
        and not any(ref == node.name and node not in enclosing for ref, enclosing in refs))
    assert not unreached, f"reached only by their own unit tests: {unreached}"


def test_every_defaulted_parameter_is_set():
    defined, _, calls = _scan()
    unset = sorted(
        f"{qual}({name})" for qual, node in defined.values()
        for position, name in _defaulted(qual, node)
        if f"{qual}({name})" not in ORACLE_PARAMETERS
        and not any(called == node.name and node not in enclosing
                    and _passes(call, position, name) for called, call, enclosing in calls))
    assert not unset, f"defaulted parameters no caller sets: {unset}"


def test_exemptions_name_existing_code():
    defined, _, _ = _scan()
    quals = {qual for qual, _ in defined.values()}
    assert not EXEMPT - quals
    params = {f"{qual}({name})" for qual, node in defined.values()
              for _, name in _defaulted(qual, node)}
    assert not ORACLE_PARAMETERS.keys() - params
