"""Every oracle is made by a builder of `groups`.

Reads src/solvint/*.py as source (nothing is imported or executed): the
constructor `OracleGroup(...)` is called only in `groups.py`, whose
builders (explicit tables, element objects, split tables) fill the law
and the inverses, and in `cli._fresh_oracles`, which copies an oracle
built there with empty memos.  A group given by its elements goes through
`groups.from_elements`, not a builder of its own.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "solvint"


def constructor_calls():
    """(module, enclosing function or None) for every call of `OracleGroup`,
    by name or as an attribute."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(fn):
                    owner.setdefault(sub, fn)  # walk order: the outermost function first
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "OracleGroup":
                    fn = owner.get(node)
                    yield path.name, fn.name if fn else None


def test_only_groups_and_the_cold_copies_build_oracles():
    calls = list(constructor_calls())
    assert ("cli.py", "_fresh_oracles") in calls
    assert [call for call in calls
            if call[0] != "groups.py" and call != ("cli.py", "_fresh_oracles")] == []
