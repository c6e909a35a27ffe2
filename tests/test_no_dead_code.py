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

Stored state is dead too when nothing reads it for its own class: a
field of a record (a `namedtuple`, or a class whose base is one) or a
`self.x` that a method assigns.  A read of `.x` counts for class C when
its object is `self` in a method of C or of a base of C, a parameter
annotated with C, or a local bound from `C(...)` or `C.create(...)`.
When only one class stores x, any read of `.x` counts, as then it can
only be that one's; when several do, a field read only from objects the
check cannot resolve stands in COLLIDING with the package function that
reads it.  A read in the method that assigns the attribute does not
count.  No module may import `dataclasses`, whose fields the check does
not read.
"""

import ast
import textwrap
from collections import Counter
from pathlib import Path

import pytest

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
# fields that two or more classes store and that the package reads only
# from objects the check cannot resolve, each with the package function
# (`f` or `Class.method`) that reads it
COLLIDING = {
    # read off `fops = endomorphism_field(...)`, a call's result
    ("FieldOps", "basis"): "HModule.create",
    # read off `self.module.fops`, an attribute's attribute
    ("FieldOps", "elements"): "SdGroup.submodule_from_fvectors",
}


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


def _methods(cls):
    return (stmt for stmt in cls.body if isinstance(stmt, ast.FunctionDef))


def _self_name(method):
    """The name of a method's instance parameter, or None for a static or
    class method."""
    args = method.args.posonlyargs + method.args.args
    bound = not any({"staticmethod", "classmethod"} & set(names_in(d))
                    for d in method.decorator_list)
    return args[0].arg if bound and args else None


def _own_nodes(node):
    """The nodes under `node`, not descending into nested scopes."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            yield from _own_nodes(child)


def _is_namedtuple(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "namedtuple")


def package_classes(trees):
    """{class: the last names of its bases} for every class the package
    defines, a `namedtuple` record (with no bases) included.  The record
    `class X(namedtuple("X", ...))` is X, and its `namedtuple` base is no
    package base."""
    classes = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = {b.attr if isinstance(b, ast.Attribute) else b.id
                                      for b in node.bases if not _is_namedtuple(b)}
            elif _is_namedtuple(node):
                classes.setdefault(node.args[0].value, set())
    return classes


def stored_state(trees):
    """{field: {class: the methods that assign it}}: each field of a
    `namedtuple`, which no method assigns, and each `self.x` that a method
    of a package class assigns.  A `@dataclass` would store fields that
    this check does not read, so no module may import `dataclasses`."""
    stored: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [node.module] if isinstance(node, ast.ImportFrom) else [
                    alias.name for alias in node.names]
                assert "dataclasses" not in modules, "records are namedtuples, not dataclasses"
            elif _is_namedtuple(node):
                record, fields = (arg.value for arg in node.args)
                for field in fields.replace(",", " ").split():
                    stored.setdefault(field, {}).setdefault(record, set())
            elif isinstance(node, ast.ClassDef):
                for method in _methods(node):
                    me = _self_name(method)
                    for sub in ast.walk(method):
                        if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                                and isinstance(sub.value, ast.Name) and sub.value.id == me):
                            stored.setdefault(sub.attr, {}).setdefault(node.name, set()).add(method)
    return stored


def _named_class(expr, classes):
    """The package class an annotation or a callee names: `C`, `mod.C`,
    `"C"` or `C | None`; else None."""
    if isinstance(expr, ast.BinOp):
        return _named_class(expr.left, classes) or _named_class(expr.right, classes)
    name = (expr.value if isinstance(expr, ast.Constant) else
            expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", None))
    return name if name in classes else None


def _constructed(value, classes):
    """The class C of a value `C(...)` or `C.create(...)`, else None."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Attribute) and func.attr == "create":
        func = func.value
    return _named_class(func, classes)


def attribute_reads(trees, classes):
    """(attribute, owners, function) for every attribute the package reads:
    `owners` is the set of classes that the object read from resolves to,
    or None, and `function` is the innermost def around the read (None at
    import).  A name resolves to C when it is `self` in a method of C or
    of a base of C (then to every class below that one), a parameter
    annotated with C, or a local that only `C(...)` or `C.create(...)`
    binds."""
    def ancestors(c):
        return {c}.union(*(ancestors(b) for b in classes.get(c, ()) if b in classes))

    below = {c: {d for d in classes if c in ancestors(d)} for c in classes}

    def scope(fn, env, cls):
        env = dict(env)
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs:
            env.pop(arg.arg, None)
            owner = _named_class(arg.annotation, classes)
            if owner:
                env[arg.arg] = {owner}
        me = _self_name(fn) if cls else None
        if me:
            env[me] = below[cls]
        built = {id(sub.targets[0]): _constructed(sub.value, classes) for sub in _own_nodes(fn)
                 if isinstance(sub, ast.Assign) and len(sub.targets) == 1}
        binds: dict = {}
        for sub in _own_nodes(fn):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                binds.setdefault(sub.id, set()).add(built.get(id(sub)))
        for name, owners in binds.items():
            env.pop(name, None)
            if None not in owners:
                env[name] = owners
        return env

    def visit(node, env, func, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, env, func, child.name)
            elif isinstance(child, ast.FunctionDef):
                yield from visit(child, scope(child, env, cls), child, None)
            else:
                if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                    value = child.value
                    owners = env.get(value.id) if isinstance(value, ast.Name) else None
                    yield child.attr, owners, func
                yield from visit(child, env, func, cls)

    for tree in trees:
        yield from visit(tree, {}, None, None)


def dead_state(trees, colliding):
    """(class, field) for each stored field of `stored_state` that no read
    counts for.  A read of `.x` outside the methods that assign it counts
    for the one class that stores x, or, when several classes do, for the
    classes its object resolves to (`attribute_reads`).  A field of
    `colliding` counts as read when the package function it names reads
    `.x` itself."""
    classes = package_classes(trees)
    reads: dict = {}
    for attr, owners, func in attribute_reads(trees, classes):
        reads.setdefault(attr, []).append((owners, func))
    functions = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                functions.update((f"{node.name}.{m.name}", m) for m in _methods(node))
    dead = []
    for field, storers in stored_state(trees).items():
        for cls, setters in storers.items():
            if any(func not in setters and (len(storers) == 1 or cls in (owners or ()))
                   for owners, func in reads.get(field, ())):
                continue
            reader = functions.get(colliding.get((cls, field)))
            if len(storers) > 1 and reader and any(
                    isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
                    and sub.attr == field for sub in ast.walk(reader)):
                continue
            dead.append((cls, field))
    return sorted(dead)


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


def test_every_stored_field_is_read_for_its_own_class():
    assert dead_state(package_trees(), COLLIDING) == []


def test_colliding_holds_only_fields_the_check_cannot_resolve():
    # an entry whose field is gone, or now read for its own class, is stale
    assert sorted(COLLIDING.keys() - set(dead_state(package_trees(), {}))) == []


# two classes store x; B reads its own, `unresolved` reads an unknown one's
TWO_STORERS = """
class A:
    def __init__(self):
        self.x = 1

class B:
    def __init__(self):
        self.x = 2

    def get(self):
        return self.x

def unresolved(obj):
    return obj.x
"""


def dead_in(*sources, colliding=None):
    return dead_state([ast.parse(textwrap.dedent(s)) for s in sources], colliding or {})


def test_the_check_fails_a_colliding_field_read_only_from_an_unresolved_object():
    assert dead_in(TWO_STORERS) == [("A", "x")]
    # a COLLIDING entry whose function does not read `.x` keeps no field
    assert dead_in(TWO_STORERS, colliding={("A", "x"): "A.__init__"}) == [("A", "x")]
    assert dead_in(TWO_STORERS, colliding={("A", "x"): "unresolved"}) == []


def test_the_check_passes_a_colliding_field_read_for_its_own_class():
    own_method = "\n\n    def get(self):\n        return self.x"
    assert dead_in(TWO_STORERS.replace("self.x = 1", "self.x = 1" + own_method)) == []
    base = "class Base:\n    def get(self):\n        return self.x\n"
    assert dead_in(TWO_STORERS.replace("class A:", "class A(Base):"), base) == []
    for reader in ["def f(a: A):\n    return a.x\n",
                   "def f(a: 'A'):\n    return a.x\n",
                   "def f(a: mod.A | None):\n    return a.x\n",
                   "def f():\n    a = A()\n    return a.x\n",
                   "def f():\n    a = mod.A.create()\n    return a.x\n"]:
        assert dead_in(TWO_STORERS, reader) == [], reader


def test_the_check_resolves_no_read_to_a_class_it_does_not_name():
    for reader in [
            # self in a subclass's method is the subclass, not A
            "class C(A):\n    def get(self):\n        return self.x\n",
            # a local bound from A(...) and from something else
            "def f(b):\n    a = A()\n    a = b\n    return a.x\n",
            # an annotated parameter that a nested function shadows
            "def f(a: A):\n    def g(a):\n        return a.x\n    return g\n"]:
        assert dead_in(TWO_STORERS, reader) == [("A", "x")], reader


def test_the_check_fails_an_attribute_read_only_in_the_method_that_stores_it():
    source = """
    class A:
        def __init__(self, n):
            self.x = n
            self.y = self.x + 1

    def f(a: A):
        return a.y
    """
    assert dead_in(source) == [("A", "x")]
    assert dead_in(source, "def g(a):\n    return a.x\n") == []


def test_the_check_fails_a_record_field_that_nothing_reads():
    source = """
    P = namedtuple("P", "x y")

    class R(namedtuple("R", "u v")):
        __slots__ = ()

        def total(self):
            return self.v

    def f(p):
        return p.x
    """
    assert dead_in(source) == [("P", "y"), ("R", "u")]
    # A stores u too, so only a read that resolves to R counts for R: self
    # in a method of the subclass is R
    other = "class A:\n    def __init__(self):\n        self.u = 1\n\n    def get(self):\n" \
            "        return self.u\n"
    assert dead_in(source, other) == [("P", "y"), ("R", "u")]
    read = source.replace("return self.v", "return self.u + self.v")
    assert dead_in(read, other) == [("P", "y")]


def test_the_check_refuses_a_module_that_imports_dataclasses():
    for line in ("import dataclasses", "from dataclasses import dataclass"):
        with pytest.raises(AssertionError, match="not dataclasses"):
            dead_in(line)
