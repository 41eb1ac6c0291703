"""Every public function and class of the package has a caller in it.

A public top-level function or class that no module of the package names
serves only the tests (or nothing), and such a hook belongs in the tests.
The check reads each module's syntax tree with the standard library's
``ast``: a definition counts as named where some module of the package
uses its name as a name, an attribute or an import. The benchmark tracer's
patch targets (``FUNCTION_PATCHES`` in ``perfbench/tracer.py``) are exempt:
the benchmark names them.
"""

import ast

from test_imports import PACKAGE
from test_tracer_targets import load_tracer


def unnamed_definitions(sources: dict[str, str], exempt: set[tuple[str, str]]) -> list[str]:
    """``module.name`` of each public top-level function or class in
    ``sources`` (module name: source) that no source names, other than the
    (module, name) pairs in ``exempt``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in named
        and (module, node.name) not in exempt
    )


def test_the_check_finds_an_unnamed_definition():
    sources = {
        "a": "def used(): pass\ndef hook(): pass\ndef traced(): pass\nclass _Private: pass\n",
        "b": "from a import used\nimport a\na.used()\n",
    }
    assert unnamed_definitions(sources, {("a", "traced")}) == ["a.hook"]


def test_every_public_definition_is_named_in_the_package():
    sources = {f"o2olab.{p.stem}": p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    exempt = {(module, attr) for module, attr, _ in load_tracer().FUNCTION_PATCHES}
    assert unnamed_definitions(sources, exempt) == []
