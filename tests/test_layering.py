"""The modules of src/numsem import one another in one direction only."""

import ast
from pathlib import Path

import numsem

# Each module may import, at any depth, only the modules listed before it.
# The package's entry points, __init__ and __main__, come after all of them.
ORDER = (
    "errors",
    "_bitset",
    "core",
    "grading",
    "filtration",
    "combinatorics",
    "corpus",
    "structure",
    "search",
    "cli",
)
ENTRY_POINTS = ("__init__", "__main__")


def _relative_imports(path):
    """(line, module) of every relative import in ``path``, at any depth."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1, (path.name, node.lineno)
            names = [node.module] if node.module else [alias.name for alias in node.names]
            for name in names:
                yield node.lineno, name.split(".")[0]


def test_relative_imports_follow_the_module_order():
    rank = {name: i for i, name in enumerate(ORDER + ENTRY_POINTS)}
    paths = sorted(Path(numsem.__file__).parent.glob("*.py"))
    assert {path.stem for path in paths} == set(rank)
    for path in paths:
        for line, target in _relative_imports(path):
            assert rank[target] < rank[path.stem], "%s:%d imports %s" % (path.name, line, target)
