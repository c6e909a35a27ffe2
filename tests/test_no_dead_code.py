"""No package code that only tests use.

Reads src/solvint/*.py as source (nothing is imported or executed) and
checks that every function and method is named somewhere in the package
outside its own body, as a variable or an attribute.  A public one may
instead stand in KEEP with the reason it stays; a private helper may not,
so one that a consolidation leaves behind is caught.  KEEP is the union of
one named set per reason, and the bench-span set is checked against the
span tables of bench/run.py.  A function that only tests call belongs in
the tests, as a reference.
"""

import ast
from collections import Counter
from pathlib import Path

from test_bench_spans import BENCH, SPAN_TABLES, module_constants

SRC = Path(__file__).resolve().parents[1] / "src" / "solvint"

# the paper's results, reached only from tests: they are the reproduction
PAPER_RESULTS = {
    "realize_intersection", "crown_module_check", "subgroup_equal",
    "is_gamma_module", "has_eta_property", "is_maximal_intersection",
}
# named by the span tables of bench/run.py, whose traced run raises on a
# span it cannot wrap; a name the tables drop must leave the package too
BENCH_SPANS = {
    "mobius", "overgroups", "express_in_rows", "maximal_descriptors",
    "intersect_case_spanning", "intersect_case_nested", "find_corona_crown",
    "subgroup_closure", "conjugate_mask",
}
# entry points of the public API that the tests and the benchmark call
PUBLIC_API = {
    "rref",  # the canonical span of row vectors
    "corpus_group",  # one corpus group by name
    "inverse", "order_of",  # element arithmetic of SdGroup and OracleGroup
    "apply",  # the map that module_isomorphism returns
}
KEEP = PAPER_RESULTS | BENCH_SPANS | PUBLIC_API


def names_in(node):
    """Every identifier under `node`, as a variable or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def defs(tree):
    """The module's functions and the methods of its classes, except the
    dunder methods that Python calls."""
    for node in tree.body:
        for sub in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                yield sub


def unnamed_defs():
    """The names of the functions and methods that the package names
    nowhere outside their own bodies.  Names are compared, not bindings, so
    a method counts as named when any attribute of that name is read."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    named = Counter(name for tree in trees for name in names_in(tree))
    return {node.name for tree in trees for node in defs(tree)
            if named[node.name] == Counter(names_in(node))[node.name]}


def test_every_public_function_is_named_in_the_package_or_kept():
    assert sorted(n for n in unnamed_defs() - KEEP if not n.startswith("_")) == []


def test_every_private_helper_is_named_in_the_package():
    assert sorted(n for n in unnamed_defs() if n.startswith("_")) == []


def test_keep_holds_only_functions_the_package_does_not_name():
    # a KEEP entry that is gone, or that the package now calls, is stale
    assert sorted(KEEP - unnamed_defs()) == []


def test_bench_spans_keep_only_names_the_span_tables_hold():
    tables = module_constants(BENCH / "run.py", SPAN_TABLES)
    spans = {span.rsplit(".", 1)[-1] for table in tables.values()
             for names in table.values() for span in names}
    assert sorted(BENCH_SPANS - spans) == []
