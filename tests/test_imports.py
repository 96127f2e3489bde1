"""No module of fbpinn but __init__.py (which re-exports) imports a name it
never reads. Deleting code tends to leave such imports behind."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fbpinn"


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
