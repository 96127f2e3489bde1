"""No module of fbpinn but __init__.py (which re-exports) imports a name it
never reads, and every module-level function or class of fbpinn is read by
the package, its tests, its scripts or its benchmark. Deleting code tends
to leave such imports and definitions behind."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fbpinn"


def unused_imports(source):
    """The names that source's imports bind and nothing in it reads, in
    order of first import; __future__ imports bind no name."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in dict.fromkeys(bound) if name not in read]


def test_unused_imports_finds_what_is_never_read():
    source = ("from __future__ import annotations\n"
              "import contextlib\nimport dataclasses\nimport os.path\n"
              "from json import dumps as to_json, loads\n"
              "def f(x: os.PathLike) -> str:\n"
              "    with contextlib.suppress(OSError):\n"
              "        return to_json(x)\n")
    assert unused_imports(source) == ["dataclasses", "loads"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((SRC / module).read_text()) == []


def names_read(source):
    """Every name source reads or imports: names, attributes, imported
    names, and the parts of dotted-path strings such as
    "training._stale_breakdown". A def or class statement binds its name
    without reading it, and prose strings (docstrings) are skipped."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[\w.]+", node.value):
            read.update(node.value.split("."))
    return read


def dead_definitions(modules, readers):
    """(module, name) of each module-level function or class in modules,
    a {name: source} dict, that no source in readers reads."""
    read = set().union(*(names_read(source) for source in readers))
    return [(module, node.name) for module, source in modules.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read]


def test_dead_definitions_finds_what_nothing_reads():
    module = ("class Kept:\n    pass\n\n"
              "class Left:\n    '''Left behind.'''\n\n"
              "def used():\n    return Kept()\n\n"
              "def spanned():\n    pass\n")
    reader = ('# a comment that names Left reads nothing\n'
              'LAYERS = {"m.spanned": ["m.spanned"]}\nused()\n')
    assert dead_definitions({"m.py": module}, [module, reader]) == [("m.py", "Left")]


def test_every_module_level_definition_is_read_somewhere():
    readers = [p.read_text() for d in ("src", "tests", "scripts", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_definitions(modules, readers) == []
