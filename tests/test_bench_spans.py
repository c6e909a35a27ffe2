"""The per-layer metrics of bench/run.py name spans of the package.

The benchmark's traced run wraps the public functions and methods of each
layer module and raises a KeyError for a metric span it did not wrap.  This
test finds a renamed or deleted function without running the benchmark: it
reads the span tables of bench/run.py and bench/tracer.py as source (neither
is imported or executed) and resolves every name against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPAN_TABLES = ("SELF_TIME", "INCLUSIVE_TIME", "CALL_COUNTS")


def module_constants(path, names):
    """The values of the named top-level assignments, evaluated in order
    with only the earlier ones in scope."""
    scope: dict = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                code = compile(ast.Expression(node.value), str(path), "eval")
                scope[target.id] = eval(code, {"__builtins__": {}}, scope)
    assert set(scope) == set(names), path
    return scope


def wrapped_names(layers, per_element):
    """Every span name the tracer can record: the public functions a layer
    module defines and the public methods (plus __init__ and __post_init__)
    of the classes it defines, without generators and per-element helpers."""
    names = set()
    for layer in layers:
        mod = importlib.import_module(f"solvint.{layer}")
        skip = per_element.get(layer, set())

        def add(short, fn):
            if (inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__
                    and not inspect.isgeneratorfunction(fn) and short not in skip):
                names.add(f"{layer}.{short}")

        for attr, value in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value):
                add(attr, value)
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for meth, raw in vars(value).items():
                    if meth.startswith("_") and meth not in ("__init__", "__post_init__"):
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        raw = raw.__func__
                    add(f"{value.__name__}.{meth}", raw)
    return names


def test_every_benchmark_span_names_a_wrapped_function():
    tables = module_constants(BENCH / "run.py", SPAN_TABLES)
    tracer = module_constants(BENCH / "tracer.py", ("LAYERS", "PER_ELEMENT"))
    names = wrapped_names(tracer["LAYERS"], tracer["PER_ELEMENT"])
    patterns = {p for table in tables.values() for spans in table.values() for p in spans}
    assert patterns
    exact = sorted(p for p in patterns if not p.endswith("."))
    prefixes = sorted(p for p in patterns if p.endswith("."))
    assert [p for p in exact if p not in names] == []
    assert [p for p in prefixes if not any(n.startswith(p) for n in names)] == []
