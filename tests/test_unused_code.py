"""Every function, method and module constant the package defines is used.

The scan reads each ``def`` under ``src/repro``, and each UPPER_CASE name
(``_PRIVATE`` ones too) assigned at the top level of a module there, and
counts how often the name is written anywhere in the package, the tests,
the benchmarks, the examples or the docs (README, DESIGN, EXPERIMENTS and
the benchmark suite's README).  A name written no more often than it is
defined has no caller and no reader: it is dead, and goes.  Dunders are
reached by the interpreter, not by name, and are skipped.

The change logs (CHANGES, ROADMAP) do not count: they name deleted code.

A second scan reads every module of the package, the tests, the
benchmarks and the examples: a name a module imports and never names in
its code (a string annotation counts) is a dead import, and goes too.  A
package ``__init__.py`` re-exports what it imports, and a name in a
module's ``__all__`` is exported, so neither counts as dead.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "benchmarks/suite/README.md")

#: Names the scan may flag and that stay: protocol methods that no caller
#: in the repository reaches yet, and names reached only through a string
#: (``getattr``, a registry key).  Each entry says why it stays.
ALLOWED = {}

#: ``"path:name"`` imports the import scan may flag and that stay (an import
#: made for its side effect, say), each with its reason.
ALLOWED_IMPORTS = {}


#: a module constant's name
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def package_definitions():
    """``(name, path)`` of every function, method and module constant under
    ``src/repro``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.name, path
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id):
                        yield name.id, path


def written_names():
    """How often each identifier is written, outside this file."""
    files = [
        path
        for top in ("src", "tests", "benchmarks", "examples")
        for path in (ROOT / top).rglob("*.py")
        if path.resolve() != Path(__file__).resolve()
    ]
    files += [ROOT / doc for doc in DOCS]
    words = Counter()
    for path in files:
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return words


def unused_definitions():
    definitions = list(package_definitions())
    defined = Counter(name for name, _ in definitions)
    words = written_names()
    return {
        name: str(path.relative_to(ROOT))
        for name, path in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and words[name] <= defined[name]
    }


def test_the_scan_reads_module_constants():
    definitions = set(package_definitions())
    paper = PACKAGE / "experiments" / "paper.py"
    assert ("INTEGRATION_LOC", paper) in definitions  # plain assignment
    assert ("FIG2_LENET_SECONDS", paper) in definitions  # annotated
    assert ("_SKIPPABLE", PACKAGE / "core" / "control" / "kernel.py") in definitions
    assert not any(name == "__version__" for name, _ in definitions)


def test_every_function_the_package_defines_is_used():
    unused = unused_definitions()
    dead = {name: path for name, path in unused.items() if name not in ALLOWED}
    assert dead == {}, f"defined but never used (delete, or allow with a reason): {dead}"
    # An allowed name that found a caller, or was deleted, leaves the list.
    assert set(ALLOWED) <= set(unused)


def annotation_names(node):
    """Every name an annotation uses, inside quoted annotations too."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(path):
    """``{name: line}`` of the names ``path`` imports and never names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            named |= annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            named |= annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            named |= annotation_names(node.annotation)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            named |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return {name: line for name, line in imported.items() if name not in named}


def dead_imports():
    return {
        f"{path.relative_to(ROOT)}:{name}": line
        for top in ("src", "tests", "benchmarks", "examples")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for name, line in unused_imports(path).items()
    }


def test_the_import_scan_reads_quoted_annotations_and_all(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from typing import TYPE_CHECKING, Optional\n"
        "from os import path, sep\n"
        "import collections.abc\n"
        "if TYPE_CHECKING:\n"
        "    from x import Sim\n"
        "__all__ = ['sep']\n"
        "def f(sim: 'Optional[Sim]') -> None:\n"
        "    return collections.abc\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == {"path": 2}


def test_every_import_is_used():
    dead = {key: line for key, line in dead_imports().items() if key not in ALLOWED_IMPORTS}
    assert dead == {}, f"imported but never named (delete, or allow with a reason): {dead}"
    assert set(ALLOWED_IMPORTS) <= set(dead_imports())
