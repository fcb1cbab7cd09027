"""Static checks on the package source: no import a module never uses, no
private module-level name or private method that nothing in ``src/``
references, so the leftovers of a removal show up here, no public
definition that only the tests run, one reader of the strategy tables
and one reader of the score sheet code tables and class-key fields."""
import ast
from collections import Counter
from pathlib import Path

import pytest

import scoregames

PACKAGE = Path(scoregames.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
BENCH = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


def _reads(tree) -> Counter:
    """How often ``tree`` reads each name, and each attribute off anything."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        or isinstance(node, ast.Attribute)
    )


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


@pytest.mark.parametrize("module", [name for name in TREES if name != "__init__.py"])
def test_every_import_is_used(module):
    # the package's __init__ imports to re-export, so it is not checked
    tree = TREES[module]
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = _reads(tree)
    assert [name for name in imported if name not in used] == []


def test_every_private_name_is_referenced():
    # a private name counts as referenced when any module of the package
    # reads it or imports it by name
    referenced = set()
    for tree in TREES.values():
        referenced.update(_reads(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(a.name for a in node.names)
    defined = []
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (module, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
    unused = [
        (module, name)
        for module, name in defined
        if _is_private(name.split(".")[-1]) and name.split(".")[-1] not in referenced
    ]
    assert unused == []


def _line_strings(tree) -> set:
    """The source lines of the str constants and f-strings under ``tree``
    whose text begins with ``line ``."""
    out = set()
    for node in ast.walk(tree):
        first = node.values[0] if isinstance(node, ast.JoinedStr) and node.values else node
        if isinstance(first, ast.Constant) and str(first.value).startswith("line "):
            out.add(node.lineno)
    return out


def test_only_the_parse_loops_add_line_numbers():
    # a directive's error gets its "line N: " from the one handler around
    # its parser's loop over _tokens; a message that wrote the prefix itself
    # would print it twice
    tree = TREES["cli.py"]
    handlers = {}
    for func in tree.body:
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Try)
                and len(node.body) == 1
                and isinstance(loop := node.body[0], ast.For)
                and isinstance(loop.iter, ast.Call)
                and getattr(loop.iter.func, "id", None) == "_tokens"
            ):
                for handler in node.handlers:
                    handlers.setdefault(func.name, set()).update(_line_strings(handler))
    assert sorted(handlers) == ["parse_game", "parse_strategy"]
    assert all(len(lines) == 1 for lines in handlers.values())
    assert _line_strings(tree) == set.union(*handlers.values())


def test_only_the_strategy_module_reads_the_strategy_tables():
    # FiniteStateStrategy's table layout has one reader module, so a change
    # of layout changes strategy.py alone
    readers = {
        module
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("init", "next_move")
    }
    assert readers == {"strategy.py"}


def test_only_the_scoring_module_reads_the_code_tables():
    # a CodeTable's rows and code list, and a PackedKernel's field masks,
    # have one reader module, so a change of either layout changes
    # scoring.py alone; the others step sheets with entries_step, test
    # crossings with AT_CAP and compare class keys with sheet_le and rank
    fields = ("rows", "codes", "_accm", "_slo", "_score", "_guard", "_masks")
    readers = {
        module
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in fields
    }
    assert readers == {"scoring.py"}


def _bench_names() -> set:
    """The names the benchmark's sources import, read as attributes or
    spell as identifier strings, such as the tracer's ``"attractor"``."""
    out = set()
    for path in BENCH:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                out.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and str(node.value).isidentifier():
                out.add(node.value)
    return out


def test_every_public_definition_is_run():
    # a public function, class or method counts as run when the package
    # reads it outside its own body, or the benchmark names it; the tests'
    # reference definitions live in tests/reference.py, not here
    assert BENCH, "perfbench/ not found next to tests/"
    exempt = {"cli.main"}  # the console script's entry point
    modules = {name: tree for name, tree in TREES.items() if name != "__init__.py"}
    reads = sum(map(_reads, modules.values()), Counter())
    bench = _bench_names()
    unread = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
            for name, body in defs:
                short, name = name.split(".")[-1], f"{module[:-3]}.{name}"
                if short.startswith("_") or short in bench or name in exempt:
                    continue
                if reads[short] == _reads(body)[short]:
                    unread.append(name)
    assert unread == []
