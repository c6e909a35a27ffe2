"""Reference implementations shared by the tests.

The package no longer needs these: subspace sums, meets, decompositions
and containment, the lower central series test, the enumeration of every
F-subspace of F^t and scaling a vector.  The tests keep them to build
independent references and test data.
"""

from solvint import groups as gr
from solvint.errors import MalformedInput
from solvint.ffla import FpSubspace, _rref, express_in_rows, vec_sub


def vec_scale(u, c, p):
    return tuple((a * c) % p for a in u)


def check_compatible(a: FpSubspace, b: FpSubspace) -> None:
    if a.p != b.p or a.ambient_dim != b.ambient_dim:
        raise MalformedInput("subspaces live in different ambient spaces")


def is_subspace_of(a: FpSubspace, b: FpSubspace) -> bool:
    check_compatible(a, b)
    return all(b.contains(row) for row in a.basis)


def sum_with(a: FpSubspace, b: FpSubspace) -> FpSubspace:
    check_compatible(a, b)
    return FpSubspace.from_vectors(a.p, a.ambient_dim, a.basis + b.basis)


def intersect(a: FpSubspace, b: FpSubspace) -> FpSubspace:
    """Zassenhaus intersection; exact and canonical."""
    check_compatible(a, b)
    n = a.ambient_dim
    stacked = [tuple(row) + tuple(row) for row in a.basis]
    stacked += [tuple(row) + (0,) * n for row in b.basis]
    red, pivots = _rref(stacked, a.p, 2 * n)
    # the rows pivoting in the right half come last and are already in
    # reduced echelon form there
    inter = tuple(row[n:] for row, c in zip(red, pivots) if c >= n)
    return FpSubspace(a.p, n, inter, tuple(c - n for c in pivots if c >= n))


def decompose(a: FpSubspace, v, b: FpSubspace):
    """Split v = x + y with x in a, y in b; None if impossible."""
    check_compatible(a, b)
    combo = express_in_rows(a.basis + b.basis, v, a.p)
    if combo is None:
        return None
    p, n = a.p, a.ambient_dim
    x = [0] * n
    for c, row in zip(combo[: a.dim], a.basis):
        for j in range(n):
            x[j] = (x[j] + c * row[j]) % p
    x = tuple(x)
    return x, vec_sub(v, x, p)


def all_subspaces(fops, t: int):
    """Every F-subspace of F^t as its F-RREF rows, by dimension."""
    for d in range(t + 1):
        yield from fops.subspaces(t, d)


def is_nilpotent_mask(G, mask: int) -> bool:
    """Lower central series test for the subgroup given by `mask`."""
    s_gens = gr.greedy_generators(G, mask)
    cur = mask
    while cur != 1:
        k_gens = gr.greedy_generators(G, cur)
        comms = {G.commutator(a, b) for a in k_gens for b in s_gens}
        nxt = gr.normal_closure_mask(G, comms, s_gens)
        if nxt == cur:
            return False
        cur = nxt
    return True
