"""The interKM brute force and the closed form it checks share no code.

`sdp.descriptor_elements` builds the element set of a descriptor subgroup
from the basis rows of U's F_p span and H's matrices alone; the
equivalence suites compare it with the closed-form calculus.  These tests
read src/solvint/sdp.py as source (nothing is imported or executed), with
the memo helper `_memo` that sdp's groups share from src/solvint/groups.py.
The checker and every function or method of the module it reaches, the span
of U's F-rows included, name none of the closed-form, splitting or
subspace-reduction entry points, nor the F-coordinate frame and F's row
arithmetic.  The calculus in turn reaches neither the checker nor an F_p
span: it reduces and compares in F-coordinates only.  A spec's oracle is
built with no module and no endomorphism field.  Likewise the gamma
reference of tests/references.py tests H's matrices itself and meets the
maximals by its own loop, naming none of the stabiliser or meet code that
props.gamma_min runs, and the derived series and normal closure
references close by their own walk over the law, naming none of the
closure code of groups.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "solvint"
SDP = SRC / "sdp.py"
GROUPS = SRC / "groups.py"
REFERENCES = Path(__file__).resolve().parent / "references.py"
CHECKER = "descriptor_elements"
FORBIDDEN = {
    "intersect_case_spanning", "intersect_case_nested", "intersect_supplement",
    "canonicalize_intersection", "realize_intersection", "_split", "split_over",
    "_f_nullspace", "_annihilator", "_rows", "_add_row", "_solution", "_pair_step",
    "reduce", "decompose", "intersect",
    "fcoords", "vector_of", "centralizer_in_h", "_add_multiple",
}
CALCULUS = ("canonicalize_intersection", "intersect_supplement", "realize_intersection",
            "subgroup_equal")
CHECKER_ONLY = {
    "descriptor_elements", "_span_mask", "_move", "_digit_moves", "_shift_groups",
    "submodule_from_fvectors", "FpSubspace", "reduce", "contains",
}


def functions(tree):
    """Every function of the module by name: top-level ones and methods."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            out.setdefault(node.name, []).append(node)
    return out


def names_in(node):
    """Every identifier the function's body names, as a variable or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def reached_from(defs, root):
    """The root and the functions and methods of the module it names,
    transitively: a name is followed to every definition of that name."""
    seen = {root}
    todo = [root]
    while todo:
        for node in defs[todo.pop()]:
            for name in names_in(node):
                if name in defs and name not in seen:
                    seen.add(name)
                    todo.append(name)
    return seen


def named_from(defs, reached, names):
    """The (function, name) pairs of the reached functions that name one of `names`."""
    return {(fn, name) for fn in reached for node in defs[fn]
            for name in names_in(node) if name in names}


def sdp_functions():
    """The functions of sdp.py, and the memo helper its groups inherit from groups.py."""
    defs = functions(ast.parse(SDP.read_text()))
    defs["_memo"] = functions(ast.parse(GROUPS.read_text()))["_memo"]
    return defs


def test_checker_names_no_closed_form_code():
    defs = sdp_functions()
    reached = reached_from(defs, CHECKER)
    # the memo helpers and the span of U's F-rows are reached, so the walk
    # follows the checker's calls
    assert {"_digit_moves", "_span_mask", "_move", "_shift_groups", "_memo"} <= reached
    assert {"submodule_from_fvectors", "_f_rref_pivots"} <= reached
    assert named_from(defs, reached, FORBIDDEN) == set()


def test_calculus_names_no_checker_or_span_code():
    defs = sdp_functions()
    reached = set().union(*(reached_from(defs, root) for root in CALCULUS))
    # the row arithmetic and the F-coordinate frame are reached
    assert {"_solution", "_rows", "_add_row", "centralizer_of", "vector_of"} <= reached
    assert named_from(defs, reached, CHECKER_ONLY) == set()


def test_spec_ingestion_names_no_module_or_field_code():
    defs = sdp_functions()
    reached = reached_from(defs, "oracle_from_spec")
    # the matrix group and the embedding are reached
    assert {"_matrix_group", "_embed"} <= reached
    assert named_from(defs, reached, {"endomorphism_field", "FieldOps", "HModule", "SdGroup",
                                      "fops", "frame"}) == set()


def test_gamma_reference_names_no_gamma_code():
    defs = functions(ast.parse(REFERENCES.read_text()))
    reached = reached_from(defs, "reference_gamma_min")
    # C_H(W) comes from the reference's own scan of the matrices
    assert "centralizer" in reached
    assert named_from(defs, reached, {"fixing_mask", "centralizer_of", "gamma_min",
                                      "_meet_above", "_maximals_above", "_above_and_meet",
                                      "is_maximal_intersection"}) == set()


def test_derived_series_and_normal_closure_references_name_no_closure_code():
    defs = functions(ast.parse(REFERENCES.read_text()))
    reached = (reached_from(defs, "reference_derived_series")
               | reached_from(defs, "reference_normal_closure"))
    # both close by the reference's own walk over G.mul
    assert "reference_closure" in reached
    assert named_from(defs, reached, {"_closures", "closure_mask", "normal_closure_mask",
                                      "derived_mask", "derived_series",
                                      "greedy_generators"}) == set()
