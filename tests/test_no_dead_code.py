"""No package code that only tests use.

Reads src/solvint/*.py as source (nothing is imported or executed) and
checks that every function and method is named somewhere in the package
outside its own body: a function as a variable or an attribute, a method
as an attribute only, so a local variable of the same name does not keep
a method that only tests call.  A public one may instead stand in KEEP
with the reason it stays; a private helper may not, so one that a
consolidation leaves behind is caught.  KEEP is the union of one named
set per reason, and the bench-span set is checked against the span
tables of bench/run.py.  A function that only tests call belongs in the
tests, as a reference.

Being named is not enough: code that only dead code names is dead too.  So
every function and method must also be reached by name from a root: the
CLI's `main`, the statements that run at import (module level and class
bodies), the dunder methods that Python calls, the standard-library
methods that the package overrides and the library calls, the paper's
results, and every name in the span tables of bench/run.py.  A reached
function's body reaches the names it holds, until nothing new is reached.

A field of a record, a `namedtuple` or a `@dataclass`, is dead too when
the package never reads it as an attribute.
"""

import ast
from collections import Counter
from pathlib import Path

from test_bench_spans import BENCH, SPAN_TABLES, module_constants

SRC = Path(__file__).resolve().parents[1] / "src" / "solvint"

# the paper's results, reached only from tests: they are the reproduction
PAPER_RESULTS = {
    "realize_intersection": "t* + d maximal supplements meeting in U * C_H(Z)",
    "crown_module_check": "C/R is G-isomorphic to V^delta",
    "subgroup_equal": "canonical triples are equal exactly when their subgroups are",
    "is_gamma_module": "the gamma condition on the centralizers of H in V",
    "has_eta_property": "the eta bound on intersections of maximal subgroups",
}
# named by the span tables of bench/run.py, whose traced run raises on a
# span it cannot wrap; a name the tables drop must leave the package too
BENCH_SPANS = {
    "mobius", "overgroups", "express_in_rows", "maximal_descriptors",
    "intersect_case_spanning", "intersect_case_nested", "find_corona_crown",
    "subgroup_closure", "conjugate_mask", "rref",
    "fvectors_of_submodule", "fixed_space_over",
    # also the reference that tests check sdp.chief_factor_classes against
    "core_and_socle",
    # ffla.module_iso_s names it with module_isomorphism, which no longer calls it
    "induced_action",
}
# methods that override a standard-library method the library calls
LIBRARY_HOOKS = {
    "error": "argparse reports a usage error through ArgumentParser.error (cli._Parser)",
}
KEEP = PAPER_RESULTS.keys() | BENCH_SPANS | LIBRARY_HOOKS.keys()


def names_in(node):
    """Every identifier under `node`: a variable as its name, an attribute
    as its name after a dot."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield "." + sub.attr


def reads(name: str, method: bool) -> set:
    """The identifiers of `names_in` that name a function, or a method."""
    return {"." + name} if method else {name, "." + name}


def defs(tree):
    """(node, reads) for the module's functions and the methods of its
    classes, except the dunder methods that Python calls."""
    for node in tree.body:
        method = isinstance(node, ast.ClassDef)
        for sub in node.body if method else [node]:
            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                yield sub, reads(sub.name, method)


def package_trees():
    return [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]


def unnamed_defs():
    """The names of the functions and methods that the package names
    nowhere outside their own bodies.  Names are compared, not bindings, so
    a method counts as named when any attribute of that name is read."""
    trees = package_trees()
    named = Counter(name for tree in trees for name in names_in(tree))
    return {node.name for tree in trees for node, node_reads in defs(tree)
            if all(named[r] == Counter(names_in(node))[r] for r in node_reads)}


def reached_names(trees, span_names):
    """Every identifier reached from the roots: the bodies of `main` and of
    the dunder methods, what runs at import, PAPER_RESULTS, LIBRARY_HOOKS
    and `span_names`, then the body of every function or method that a reached
    identifier names."""
    bodies: dict = {}
    names = set().union(*(reads(name, False)
                          for name in {*PAPER_RESULTS, *LIBRARY_HOOKS, *span_names, "main"}))
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                at_import, members = node.bases + node.decorator_list, node.body
            else:
                at_import, members = [], [node]
            for sub in members:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    for r in reads(sub.name, isinstance(node, ast.ClassDef)):
                        bodies.setdefault(r, []).append(sub)
                    # decorators and defaults run at import
                    at_import += sub.decorator_list + sub.args.defaults + sub.args.kw_defaults
                else:
                    at_import.append(sub)
            names.update(n for e in at_import if e is not None for n in names_in(e))
    todo = list(names)
    while todo:
        for node in bodies.pop(todo.pop(), ()):
            new = set(names_in(node)) - names
            names |= new
            todo += new
    return names


def record_fields(trees):
    """(record, field) for every field of the records that the package
    defines: a `namedtuple` given as a name and a string of field names, and
    a class under `@dataclass` with its annotated class attributes."""
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "namedtuple"):
                record, fields = (arg.value for arg in node.args)
                for field in fields.replace(",", " ").split():
                    yield record, field
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in names_in(d) for d in node.decorator_list):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield node.name, stmt.target.id


def test_every_record_field_is_read_in_the_package():
    trees = package_trees()
    named = {name for tree in trees for name in names_in(tree)}
    assert sorted((record, field) for record, field in record_fields(trees)
                  if "." + field not in named) == []


def test_every_function_is_reached_from_a_root():
    trees = package_trees()
    tables = module_constants(BENCH / "run.py", SPAN_TABLES)
    # "ffla.rref" names rref; the prefix "ffla.FpSubspace." names its class
    spans = {span.rstrip(".").rsplit(".", 1)[-1] for table in tables.values()
             for names in table.values() for span in names}
    reached = reached_names(trees, spans)
    assert sorted(node.name for tree in trees for node, node_reads in defs(tree)
                  if not node_reads & reached) == []


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
