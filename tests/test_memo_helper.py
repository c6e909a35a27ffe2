"""Every memo of a group object goes through its one helper, `_memo`.

Reads src/solvint/*.py as source (nothing is imported or executed): the
attribute `_cache` is read only by the helper, and written only by the
`__init__`s that create it, so no module reaches into another object's
memos and every table enters `_cache` the one way.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "solvint"


def cache_touches():
    """(module, enclosing function or None, node) for every `._cache` attribute."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(fn):
                    owner.setdefault(sub, fn)  # walk order: the outermost function first
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_cache":
                fn = owner.get(node)
                yield path.name, fn.name if fn else None, node


def test_only_the_helper_and_the_inits_touch_cache():
    touches = list(cache_touches())
    helper = [(module, fn) for module, fn, _ in touches if fn == "_memo"]
    assert helper and {module for module, _ in helper} == {"groups.py"}
    inits = [(module, node) for module, fn, node in touches if fn == "__init__"]
    assert sorted(module for module, _ in inits) == ["groups.py", "sdp.py", "tower.py"]
    # an __init__ only creates the dict, as `self._cache = {}`
    for module, node in inits:
        assert isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name), module
    others = [(module, fn, node.lineno) for module, fn, node in touches
              if fn not in ("_memo", "__init__")]
    assert others == []
