"""The error contract of the CLI: one exception type per outcome.

Reads src/solvint/*.py as source (nothing is imported or executed).
`cli.main` has one `except` handler per outcome, each printing one line
with its own prefix and returning its exit code; every error type of
`errors.py` but the base class is caught by exactly one of them, and no
module raises the base class itself, which no handler catches.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "solvint"

# handler type -> (exit code, stderr prefix)
OUTCOMES = {
    "SchemaError": (2, "schema error: "),
    "MalformedInput": (2, "invalid input: "),
    "ResourceCapExceeded": (3, "resource cap: "),
    "AssertionError": (1, "internal invariant violated: "),
}
BASE = "SolvintError"


def parse(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def error_classes() -> dict:
    """Class name -> the names of its bases, for the classes of errors.py."""
    return {node.name: [ast.unparse(b) for b in node.bases]
            for node in parse("errors.py").body if isinstance(node, ast.ClassDef)}


def main_handlers() -> list:
    """(caught type names, exit code, stderr prefix) per `except` of cli.main."""
    main = next(node for node in parse("cli.py").body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    (outer,) = [node for node in main.body if isinstance(node, ast.Try)]
    handlers = []
    for handler in outer.handlers:
        caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        (ret,) = [node for node in handler.body if isinstance(node, ast.Return)]
        (printed,) = [node.value for node in handler.body if isinstance(node, ast.Expr)]
        prefix = printed.args[0].values[0].value  # print(f"<prefix>{e}", ...)
        handlers.append(([ast.unparse(t).split(".")[-1] for t in caught], ret.value.value, prefix))
    return handlers


def test_cli_main_has_one_handler_per_outcome():
    handlers = main_handlers()
    assert all(len(caught) == 1 for caught, _code, _prefix in handlers), handlers
    assert {caught[0]: (code, prefix) for caught, code, prefix in handlers} == OUTCOMES
    assert len(handlers) == len(OUTCOMES)


def test_every_error_type_is_caught_by_exactly_one_handler():
    classes = error_classes()
    assert classes[BASE] == ["Exception"]

    def lineage(name):
        while name in classes:
            yield name
            (name,) = classes[name]

    caught = [set(names) for names, _code, _prefix in main_handlers()]
    for name in classes.keys() - {BASE}:
        assert BASE in lineage(name), name
        assert sum(bool(set(lineage(name)) & names) for names in caught) == 1, name


def test_no_module_raises_the_base_class_itself():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert ast.unparse(exc).split(".")[-1] != BASE, (path.name, node.lineno)
