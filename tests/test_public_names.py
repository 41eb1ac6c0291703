"""Every public function, class and method of the package has a caller in it.

A public top-level function or class, or a public method of a top-level
class, that no module of the package names serves only the tests (or
nothing), and such a hook belongs in the tests. The check reads each
module's syntax tree with the standard library's ``ast``: a definition
counts as named where some module of the package uses its name as a name,
an attribute or an import. Two kinds of definition are exempt, since code
outside the package names them: the benchmark tracer's patch targets
(``FUNCTION_PATCHES`` and ``METHOD_PATCHES`` in ``perfbench/tracer.py``),
and a method that overrides one of a base class from outside the package,
which that base's code calls (``argparse.ArgumentParser.error``, say).
"""

import ast
import importlib

from test_imports import PACKAGE
from test_tracer_targets import load_tracer

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unnamed_definitions(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """``module.name`` of each public top-level function or class, and
    ``module.Class.name`` of each public method of a top-level class, in
    ``sources`` (module name: source) that no source names, other than
    those in ``exempt``."""
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
    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                definitions.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, FUNCTIONS)
                ]
    return sorted(
        path
        for path, name in definitions
        if not name.startswith("_") and name not in named and path not in exempt
    )


def outside_overrides(modules) -> set[str]:
    """``module.Class.name`` of each public method of a class of
    ``modules`` that overrides an attribute of a base class from outside
    the package."""
    found = set()
    for module in modules:
        for cls in vars(importlib.import_module(module)).values():
            if not isinstance(cls, type) or cls.__module__ != module:
                continue
            outside = [base for base in cls.__mro__[1:] if not base.__module__.startswith("o2olab")]
            found.update(
                f"{module}.{cls.__name__}.{name}"
                for name in vars(cls)
                if not name.startswith("_") and any(hasattr(base, name) for base in outside)
            )
    return found


def test_the_check_finds_an_unnamed_definition():
    sources = {
        "a": (
            "def used(): pass\ndef hook(): pass\ndef traced(): pass\nclass _Private: pass\n"
            "class _Env:\n    def step(self): pass\n    def peek(self): pass\n"
            "    def _own(self): pass\n    def error(self): pass\n"
        ),
        "b": "from a import used\nimport a\na.used()\na._Env().step()\n",
    }
    assert unnamed_definitions(sources, {"a.traced", "a._Env.error"}) == ["a._Env.peek", "a.hook"]


def test_a_method_that_overrides_an_outside_base_is_found():
    assert outside_overrides(["o2olab.cli", "o2olab.envs"]) == {"o2olab.cli._Parser.error"}


def test_every_public_definition_is_named_in_the_package():
    sources = {f"o2olab.{p.stem}": p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    tracer = load_tracer()
    exempt = {f"{module}.{attr}" for module, attr, _ in tracer.FUNCTION_PATCHES}
    exempt |= {f"{module}.{cls}.{attr}" for module, cls, attr, _ in tracer.METHOD_PATCHES}
    assert unnamed_definitions(sources, exempt | outside_overrides(sources)) == []
