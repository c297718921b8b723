"""The library keeps only what the pipeline or the benchmark calls.

Every top-level function and class in src/lfk, and every method, must be
named in src/lfk outside its own definition and the package's re-exports,
or in bench/*.py.  A name counts only where the code reads it, never as a
word in a comment, a docstring or another identifier: a function or class
as a Name or as the attribute of an Attribute node, a method only as the
attribute, so a local variable of the same name does not count.  In
bench/*.py a string constant equal to the name, or ending in ".name",
counts as well: the tracer looks its targets up by such strings.  A definition only the tests use belongs in
tests/conftest.py, beside the other second routes.  Protocol methods
(dunders), and methods that a library calls, are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lfk"

# Public API kept although only the tests call it today; the README
# documents MultiLaurent.coeff.
ALLOWED = {"unknot_profile", "records_from_csv", "MultiLaurent.coeff"}

# Methods a library calls by name: argparse reports usage errors through
# ArgumentParser.error.
CALLED_BY_LIBRARIES = {"_Parser.error"}


def _definitions(tree):
    """Top-level functions and classes, and the methods of those classes,
    each with its qualified name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((item, f"{node.name}.{item.name}")
                        for item in node.body
                        if isinstance(item, ast.FunctionDef))


def _reads(tree):
    """(name, line, is_attribute) of each Name and each attribute of an
    Attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def _strings(tree):
    """The string constants outside f-strings, whose parts and format specs
    (the "g" of {x:g}) name nothing."""
    formatted = {id(part) for node in ast.walk(tree)
                 if isinstance(node, ast.JoinedStr) for part in ast.walk(node)}
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in formatted}


def test_every_library_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    # a re-export in __init__.py is not a call
    reads = {path: list(_reads(tree)) for path, tree in trees.items()
             if path.name != "__init__.py"}
    bench = [ast.parse(path.read_text())
             for path in sorted((ROOT / "bench").glob("*.py"))]
    bench_reads = [read for tree in bench for read in _reads(tree)]
    bench_strings = set().union(*map(_strings, bench))
    unused = []
    for path, tree in trees.items():
        for node, qualname in _definitions(tree):
            name = node.name
            if (qualname in ALLOWED | CALLED_BY_LIBRARIES
                    or (name.startswith("__") and name.endswith("__"))):
                continue
            method = "." in qualname
            own = range(node.lineno, node.end_lineno + 1)
            if not (any(n == name and attr >= method
                        for n, _, attr in bench_reads)
                    or any(s == name or s.endswith("." + name)
                           for s in bench_strings)
                    or any(n == name and attr >= method
                           and (p != path or line not in own)
                           for p, found in reads.items()
                           for n, line, attr in found)):
                unused.append(f"{path.name}:{node.lineno} {qualname}")
    assert not unused, "defined in src/lfk but called only by tests: " \
        + ", ".join(unused)
