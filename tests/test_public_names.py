"""Every public name of the package has a caller in the package."""

import ast
from pathlib import Path

import portcanyon

SRC = Path(portcanyon.__file__).parent

# Public names that nothing in src uses, each kept for a reason.
USED_OUTSIDE_SRC = {
    ("stats", "ks_gap"): "the acceptance tests' KS-distance oracle",
    ("synth", "fullspread_gain_distribution"): "criterion 10 and the benchmark's traced call",
}


def _exports(tree):
    """The names a module's `__all__` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _uses(tree):
    """The names a module reads, bare or as an attribute: not the names it
    defines, assigns or imports, nor the strings of its `__all__`."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def unused_exports(sources):
    """(module, name) of each `__all__` name that no module of sources reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*map(_uses, trees.values()))
    return {(module, name) for module, tree in trees.items()
            for name in _exports(tree) if name not in used}


def test_every_public_name_is_used_in_src():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unused_exports(sources) == set(USED_OUTSIDE_SRC)


def test_a_definition_import_or_listing_is_not_a_use():
    sources = {
        "a": '__all__ = ["f", "g", "K", "h"]\nK = 1\ndef f():\n    return K\n'
             "def g():\n    pass\ndef h():\n    pass\n",
        "b": "from .a import g, h\nimport a\nx = a.h\n",
    }
    # f is only defined, g only imported; K is read in f, h as an attribute.
    assert unused_exports(sources) == {("a", "f"), ("a", "g")}
