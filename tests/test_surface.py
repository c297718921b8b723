"""The library keeps only what the pipeline or the benchmark calls.

Every top-level function and class in src/lfk, and every method, must be
named somewhere in src/lfk outside its own definition and the package's
re-exports, or in bench/*.py.  A definition only the tests use belongs in
tests/conftest.py, beside the other second routes.  Protocol methods
(dunders) are called by Python itself and are not checked.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lfk"

# Public API kept although only the tests call it today.
ALLOWED = {"unknot_profile", "records_from_csv"}


def _definitions(tree):
    """Top-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, ast.FunctionDef))


def test_every_library_definition_has_a_caller():
    sources = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = "\n".join(path.read_text()
                      for path in sorted((ROOT / "bench").glob("*.py")))
    unused = []
    for path, text in sources.items():
        lines = text.splitlines()
        # a re-export in __init__.py is not a call
        others = [t for p, t in sources.items()
                  if p not in (path, SRC / "__init__.py")]
        for node in _definitions(ast.parse(text)):
            name = node.name
            if name in ALLOWED or (name.startswith("__")
                                   and name.endswith("__")):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            # the module without the definition's own lines
            outside = "\n".join(lines[:node.lineno - 1]
                                + lines[node.end_lineno:])
            if not any(word.search(t) for t in [outside, *others, bench]):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "defined in src/lfk but called only by tests: " \
        + ", ".join(unused)
