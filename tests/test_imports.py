"""Import hygiene: every name a `swarmport` module imports is used in it,
and every definition in the package is reached by the program."""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "swarmport").glob("*.py"))
# The program: the package, the benchmark and the tools, but not their tests.
PROGRAM = sorted(
    path for folder in ("src", "perfbench", "tools") for path in (ROOT / folder).rglob("*.py")
    if not path.name.startswith("test_")
)


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def read_names(source: str) -> set[str]:
    """The names that the source reads as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@cache
def program_reads() -> frozenset[str]:
    return frozenset().union(*(read_names(path.read_text(encoding="utf-8")) for path in PROGRAM))


def unreached_definitions(source: str, reads: frozenset[str]) -> list[str]:
    """The module's top-level functions and classes, and its classes'
    non-dunder methods, whose names are not in ``reads``.

    The check goes by name alone, so a namesake hides a definition: any
    attribute read of the same name counts as a read of it, as the
    telemetry record's `speed_m_s` field would hide a `speed_m_s` method.
    """
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name not in reads:
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and item.name not in reads
                ):
                    out.append(f"{node.name}.{item.name}")
    return out


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"cli.py", "rfnet.py", "sim.py"}
    assert {path.name for path in PROGRAM} >= {"cli.py", "measure.py", "identity.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_named():
    source = "from functools import cache, partial\nfrom typing import Callable\n\n@cache\ndef f(): pass\n"
    assert unused_imports(source) == ["partial", "Callable"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_definition_is_reached_by_the_program(path):
    """Code that only tests reach belongs in the tests."""
    assert unreached_definitions(path.read_text(encoding="utf-8"), program_reads()) == []


def test_an_unreached_definition_is_named():
    source = (
        "class Table:\n"
        "    def __len__(self): return 0\n"
        "    def reserve(self): pass\n"
        "    def snapshot(self): pass\n"
        "def helper(): pass\n"
        "def oracle(): pass\n"
        "Table().reserve(helper())\n"
    )
    assert unreached_definitions(source, frozenset(read_names(source))) == ["Table.snapshot", "oracle"]
