"""Brute-force oracle for finite groups.

Groups are multiplication laws `G.mul(a, b)` over dense element ids
0..n-1 with the identity at id 0: a split product W x| H multiplies from
its split tables, an explicit group reads its n x n table, and a group of
element objects (matrices, permutations) multiplies two objects and looks
the product up, with no table.  A subgroup is
an int mask over element ids, bit x set exactly when element x is in it;
every subgroup argument and result here is such a mask, so
|H| = h.bit_count() and |G:H| = G.n // h.bit_count().
Everything here is exact: subgroup lattices by cyclic extension,
conjugacy classes of subgroups, Moebius values, and the index-counting
tables built on them.

The lattice and its conjugacy classes come from one pass of cyclic
extension (Neubueser 1960) run up to conjugacy, as GAP's
`LatticeByCyclicExtension` does: only one member of each class is
extended, and each new extension brings in its whole orbit.  Conjugation
carries extensions to extensions: if T = <S, g> with S normal of prime
index in T and S = R^x, then T^(x^-1) = <R, g^(x^-1)> extends R.  So every
class is reached from the extended member of the class below it.  The
orbit pass also gives the normaliser (orbit-stabiliser, Schreier
generators), and the candidates are read off it with no test.  The walk
grows the normaliser N from each Schreier generator as it meets it and
stops once (conjugates found) x |N| = |G|, which N <= N_G(T) makes
exact.  The candidates are p-elements only, as the p-part of any g that
extends S gives the same extension.  An extension whose generators every
G-gen conjugates into it is normal: it is its own orbit, with no orbit
walk.  A split product reads its generators' conjugation tables off its
split tables with no law call, so a cold order-2040 tower lattice takes
9,377 law calls, and 17,537 on a copy that has only the law.  Reaching G
certifies that G is solvable, so the pass takes no derived series first.

Conjugation by g is an automorphism of the lattice that fixes G, so
Moebius values, maximality and being a maximal intersection are the same
on every member of a class: `mobius_all` sums over overgroups once per
class, and `maximal_subgroups` and `counts` test one member per class.
The maximal-intersection test reads one memoised record per subgroup h,
`_maximals_above`: the maximals above h and their meet, which `frattini`
and props' eta read too.
Every closure, normal closure and chief-factor basis grows by right
cosets in one walk, `_closures` (Dimino's algorithm): adjoining x to
H = <gens> fills one coset Hr per new representative r, one law call per
new element, instead of closing <gens, x> again from scratch.  The
lattice pass reads the p-th roots of p-power order, for each prime p
dividing |G|, off one walk of the cyclic subgroups.

Laws are immutable; derived data (the lattice record, Moebius values,
conjugation tables) is memoized on the group through `G._memo`, the
helper that every group object of the package shares; the memoized tuples
are returned as they are, and every public result is in canonical order.
`G.gens` always generates G; a split product W x| H takes a single W
generator, the sum of W's unit vectors, whenever its H-submodule is W,
so every tower level has 2 gens.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from functools import partial, reduce
from itertools import chain, product, repeat
from math import gcd
from operator import and_, itemgetter
from types import MappingProxyType

from .errors import MalformedInput, ResourceCapExceeded
from .ffla import mat_identity, mat_mod, mat_mul, prime_factors, spread_ids

DEFAULT_ORDER_CAP = 5000
LATTICE_CAP = 10**4
# `_conjugation`'s powers of two and `_root_masks` take about |G|^2/16 bytes
# each; a 512 MiB budget for the two, |G|^2/8 <= 2^29, is |G| <= 2^16
LATTICE_ORDER_CEILING = 2**16
# the most elements `_sorted_closure` walks: the matrix and permutation groups
# given by generators, and every H of V^t x| H
CLOSURE_CAP = 10**4


class _Memoised:
    """The memo helper of `OracleGroup`, `sdp.SdGroup` and `tower.TowerGroup`,
    each of which creates its `_cache` dict in its `__init__`."""

    def _memo(self, table: str, key, compute, *args):
        """compute(*args), memoised under `key` in table `table` of `_cache`.
        A table enters `_cache` with its first value, so a compute that
        raises leaves none.  The CLI builds its groups afresh per request."""
        memo = self._cache.get(table)
        # a table holds no value that is the table itself, so it marks a miss
        if memo is not None and (out := memo.get(key, memo)) is not memo:
            return out
        out = compute(*args)
        self._cache.setdefault(table, {})[key] = out
        return out


def mask_bits(mask: int):
    """Yield the set bit positions of a mask, ascending."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


class OracleGroup(_Memoised):
    """A finite group given by its law `mul(a, b)`, a closure over the data
    its constructor built, and its inverse array.  A constructor that can
    conjugate by a generator g with no law call hands over
    `gen_conj[g]`, a function of no argument building the table x -> x^g;
    `_conjugation` calls it once, on first use."""

    def __init__(self, n: int, mul, name: str, gens: tuple[int, ...], inv: array,
                 gen_conj=MappingProxyType({})):
        self.n = n
        self.name = name
        self.mul = mul
        self.gens = gens
        self._inv = inv
        self._gen_conj = gen_conj
        self._cache: dict = {}

    # -- elementary operations

    def conj(self, x: int, g: int) -> int:
        mul = self.mul
        return mul(mul(self._inv[g], x), g)

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.mul(self._inv[a], self._inv[b]), self.mul(a, b))

    def __repr__(self):
        return f"OracleGroup({self.name}, order={self.n})"


# ---------------------------------------------------------------------------
# constructors


def _table_group(n: int, flat: array, name: str, gens: tuple[int, ...]) -> OracleGroup:
    """An oracle over the flat n x n group table `flat`: the law reads a
    cell, and each row is scanned for the identity to find the inverses."""
    inv = array("i", [flat.index(0, a * n, a * n + n) - a * n for a in range(n)])

    def mul(a: int, b: int) -> int:
        return flat[a * n + b]

    return OracleGroup(n, mul, name, gens, inv)


def _check_table(flat: array, n: int) -> list[int]:
    """Refuse `flat` unless it is a group table: row and column 0 are the
    identity, rows and columns are permutations, and Light's test passes.
    The s with (xs)y = x(sy) for all x, y are closed under products, as
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), so checking a
    generating set S suffices.  Each element ascending that the closure R
    of the identity under right multiplication by S misses joins S once it
    passes.  R is then the subgroup S generates, so it at least doubles per
    new s, and the test costs at most n^2 (log2(n) + 1) lookups.  S is
    returned: it is the greedy generating set of the whole group."""
    for j in range(n):
        if flat[j] != j or flat[j * n] != j:
            raise MalformedInput("row/column 0 is not an identity")
    for i in range(n):
        if len(set(flat[i * n:(i + 1) * n])) != n or len(set(flat[i::n])) != n:
            raise MalformedInput(f"multiplication table is not a Latin square (row/column {i})")
    reached, gens = {0}, []
    for s in range(n):
        if s in reached:
            continue
        # row(xs) == row(x) read at row(s), for every x (n >= 2, so a tuple)
        row_s = flat[s * n:(s + 1) * n]
        read_at_row_s = itemgetter(*row_s)
        for x in range(n):
            row_x = flat[x * n:(x + 1) * n]
            xs = row_x[s]
            if tuple(flat[xs * n:(xs + 1) * n]) != read_at_row_s(row_x):
                y = next(y for y in range(n) if flat[xs * n + y] != row_x[row_s[y]])
                raise MalformedInput(f"associativity fails on ({x},{s},{y})")
        gens.append(s)
        stack = list(reached)
        while stack:
            x = stack.pop()
            for g in gens:
                y = flat[x * n + g]
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
    return gens


def from_mul_table(table, name: str = "table-group") -> OracleGroup:
    """Build from an explicit n x n table; the group axioms are verified
    exactly at every order before the oracle is built, associativity by
    Light's test (_check_table)."""
    n = len(table)
    for row in table:
        if len(row) != n:
            raise MalformedInput("multiplication table is not square")
        if min(row) < 0 or max(row) >= n:
            raise MalformedInput("table entry out of range")
    flat = array("i", chain.from_iterable(table))
    return _table_group(n, flat, name, tuple(_check_table(flat, n)))


def from_elements(elems, mul_fn, name: str, gen_elems) -> OracleGroup:
    """Build from hashable element objects, identity first and closed under
    `mul_fn`, as `_sorted_closure` returns them from `gen_elems`.  The law
    multiplies two objects and looks the product up, with no table.  The
    gens are the ids of the non-identity `gen_elems`, and the inverses come
    from the cyclic walks: on the walk 1, g, ..., g^(k-1) of <g>, the
    inverse of g^i is g^(k-i)."""
    index = {e: i for i, e in enumerate(elems)}

    def mul(a: int, b: int) -> int:
        return index[mul_fn(elems[a], elems[b])]

    G = OracleGroup(len(elems), mul, name, tuple(i for g in gen_elems if (i := index[g])),
                    array("i", [0]) * len(elems))
    for cycle in _cycles(G):
        for i, x in enumerate(cycle):
            G._inv[x] = cycle[-i]  # g^(k-i), and 1 for i = 0
    return G


def _sorted_closure(gens, mul_fn, identity) -> tuple:
    """The closure of `gens` under `mul_fn`, identity first, the rest
    sorted; ResourceCapExceeded once it passes CLOSURE_CAP elements."""
    seen = {identity}
    order = [identity]
    for x in order:  # grows while it is walked
        for g in gens:
            y = mul_fn(x, g)
            if y not in seen:
                seen.add(y)
                order.append(y)
                if len(order) > CLOSURE_CAP:
                    raise ResourceCapExceeded("element closure", CLOSURE_CAP)
    return (identity, *sorted(order[1:]))


def from_permutations(perm_gens, name: str) -> OracleGroup:
    """Group generated by permutations given as tuples (images of 0..d-1)."""
    degree = len(perm_gens[0])
    identity = tuple(range(degree))

    def compose(a, b):  # apply a then b
        return tuple(b[a[i]] for i in range(degree))

    gens = [tuple(g) for g in perm_gens]
    return from_elements(_sorted_closure(gens, compose, identity), compose, name, gen_elems=gens)


def from_matrices(mat_gens, p: int, name: str) -> OracleGroup:
    """Group generated by invertible matrices over F_p."""
    k = len(mat_gens[0])
    gens = [mat_mod(g, p) for g in mat_gens]
    identity = mat_identity(k)

    def mul(a, b):
        return mat_mul(a, b, p)

    return from_elements(_sorted_closure(gens, mul, identity), mul, name, gen_elems=gens)


def cyclic(m: int) -> OracleGroup:
    return semidirect_cyclic(m, 1, 1, f"C{m}")


def direct_product(A: OracleGroup, B: OracleGroup, name: str | None = None) -> OracleGroup:
    a_rows = [[A.mul(a1, a2) * B.n for a2 in range(A.n)] for a1 in range(A.n)]
    b_rows = [[B.mul(b1, b2) for b2 in range(B.n)] for b1 in range(B.n)]
    flat = array("i", [x + y for a_row in a_rows for b_row in b_rows
                       for x in a_row for y in b_row])
    gens = tuple(g * B.n for g in A.gens) + tuple(B.gens)
    return _table_group(A.n * B.n, flat, name or f"{A.name}x{B.name}", gens)


def semidirect_cyclic(n_order: int, h_order: int, action_exp: int,
                      name: str | None = None) -> OracleGroup:
    """C_n as a module for C_h, with the chosen generator acting x -> s*x.

    Multiplication follows the right-action convention
    (v1,e1)(v2,e2) = (v1*s^e2 + v2, e1+e2).
    """
    s = action_exp % n_order
    if pow(s, h_order, n_order) != 1 % n_order:
        raise MalformedInput("action exponent order does not divide |H|")
    name = name or f"C{n_order}:C{h_order}"
    if h_order == 1:
        trivial = _table_group(1, array("i", [0]), "C1", ())
        return oracle_from_split_tables([n_order], [], trivial, name)
    return oracle_from_split_tables([n_order], [[s]], cyclic(h_order), name)


def _embedding_bound(cap: int) -> tuple[int, str]:
    """The largest order of a group the package embeds as an OracleGroup
    under the order cap `cap`, and the limit that binds: past
    LATTICE_ORDER_CEILING the lattice pass would refuse the group after
    its tables had been built."""
    if cap > LATTICE_ORDER_CEILING:
        return LATTICE_ORDER_CEILING, "the lattice order ceiling"
    return cap, "the order cap"


def _check_embedding_order(order: int, cap: int) -> None:
    """Refuse to embed a group of order above min(cap, LATTICE_ORDER_CEILING)
    as an OracleGroup, before anything is built."""
    bound, limit = _embedding_bound(cap)
    if order > bound:
        raise ResourceCapExceeded(f"oracle embedding of |G|={order} exceeds {limit}", bound)


def oracle_from_split_tables(radices, images, H: OracleGroup, name: str) -> OracleGroup:
    """Assemble a semidirect product W x| H oracle, W = Z/r_1 x ... x Z/r_m.

    W's ids are mixed-radix over `radices`, digit 1 most significant;
    images[j][i] is the id of e_i^g for the unit vector e_i of digit i and
    g = H.gens[j].  Element id = w*|H| + h, the law is
    (w1,h1)(w2,h2) = (act[h2][w1] + w2, h1*h2) and id 0 is the identity.

    W adds on the carry-free ids of `ffla.spread_ids`: spread[w] has w's
    digits in the radices 2r_i - 1, so a sum of two spread ids never
    carries, and fold[s] reduces its digits mod r_i to the dense id.  act
    holds spread ids, so the law is
    fold_h[act[h2][w1] + spread[w2]] + cols[h2][h1] with fold_h[s] =
    fold[s] * |H|: |W| + prod(2r_i - 1) <= |W| + |W|^log2(3) entries for W,
    |H| act rows of |W| ids, H's |H|^2 columns and three length-n lists
    splitting an id into (w, h, spread[w]), with no |W|^2 or n x n table.
    The inverse is (w, h)^-1 = (-act[h^-1][w], h^-1), where -w is
    fold[neg - spread[w]]: neg = spread[top] + spread[u], with top's digits
    r_i - 1 and u's 1 where r_i > 1, so each digit of the difference is
    r_i - d_i, in 1..r_i, and folds to -d_i.

    The gens are one or more W generators, then H.gens.  Let s be the sum
    of the unit vectors e_i with r_i > 1.  One walk from 0 under w -> w + s
    and under act[g] for g in H.gens takes |W| (1 + #H.gens) list reads and
    no law call.  If it reaches all of W, s alone stands for W; otherwise
    the e_i with r_i > 1 do, most significant first.  The walk is the
    H-submodule generated by s.  It is closed under act[g], so also under
    act[g^-1] = act[g]^(ord g - 1), and so under every act[h].  For w in it,
    w^(h^-1) + s is in it, and so is its image w + s^h: it is closed under
    adding every s^h, and it holds nothing that submodule does not.  As
    (s, 1)^(0, h) = (s^h, 1), <(s, 1), H> is that submodule x| H, which is
    G exactly when the walk reaches W.  So every tower level has 2 gens,
    the order-2040 level among them, as its W is cyclic, and V x| H with V
    irreducible has one W generator.  V^t x| H with t >= 2 keeps its unit
    vectors: s lies in the diagonal submodule {(v, ..., v)}.

    act[g] follows by additivity, least significant digit first: if `row`
    holds the images of the lower digits' ids, a digit of radix r and image
    b extends it to row ++ (row + b) ++ ... ++ (row + (r-1)b).  One walk
    along H's Cayley graph reaches each h once as g*parent = cols[parent][g]
    and reads act[h] = act[parent] o act[g] off act[parent] through the
    dense ids of act[g], and H's column x -> x*h off the parent's through
    x -> x*g.

    Each gen is purely in W or purely in H, so its conjugation table (the
    oracle's `gen_conj`, built on first use) reads off the same tables
    with no law call: (w, h)^(s, 1) = (w + s - s^h, h), as
    (s, 1)^-1 (w, h) = (w - s^h, h); and (w, h)^(0, c) = (w^c, c^-1 h c).
    -s^h is fold[neg - act[h][s]], as for the inverse, and c^-1 h c is
    read off H's columns.
    """
    if len(images) != len(H.gens):
        raise MalformedInput(f"{len(images)} generator images for {len(H.gens)} generators of H")
    spread, fold = spread_ids(radices)
    gen_acts = []
    for g_images in images:
        row = [0]
        for r, b in zip(reversed(radices), reversed(g_images)):
            b = spread[b]
            shifted = row
            row = list(row)
            for _ in range(1, r):
                shifted = [fold[spread[x] + b] for x in shifted]
                row += shifted
        gen_acts.append(row)
    w_size, h_size = len(spread), H.n
    act = [spread] + [None] * (h_size - 1)
    cols = [list(range(h_size))] + [None] * (h_size - 1)
    rights = [[H.mul(x, g) for x in range(h_size)] for g in H.gens]
    order = [0]
    for parent in order:
        for g, gen_act, right in zip(H.gens, gen_acts, rights):
            h = cols[parent][g]
            if cols[h] is None:
                act[h] = list(map(act[parent].__getitem__, gen_act))
                cols[h] = list(map(cols[parent].__getitem__, right))
                order.append(h)
    if len(order) != h_size:
        raise MalformedInput("H.gens do not generate H")
    n = w_size * h_size
    w_of = [w for w in range(w_size) for _ in range(h_size)]
    h_of = list(range(h_size)) * w_size
    spread_of = [x for x in spread for _ in range(h_size)]
    fold_h = [w * h_size for w in fold]

    def mul(a: int, b: int) -> int:
        h2 = h_of[b]
        return fold_h[act[h2][w_of[a]] + spread_of[b]] + cols[h2][h_of[a]]

    units, place = [], w_size
    for r in radices:
        place //= r
        if r > 1:
            units.append(place)
    s = sum(units)  # the unit vectors' digits are 1 in distinct places
    neg = spread[-1] + spread[s]
    inv = array("i", [fold_h[neg - act[hi][w]] + hi for w in range(w_size) for hi in H._inv])
    gens = [u * h_size for u in units]
    if len(gens) > 1:
        steps = [[fold[x + spread[s]] for x in spread], *gen_acts]
        walk, seen = [0], bytearray(w_size)
        seen[0] = 1
        for w in walk:  # grows while it is walked
            for step in steps:
                y = step[w]
                if not seen[y]:
                    seen[y] = 1
                    walk.append(y)
        if len(walk) == w_size:
            gens = [s * h_size]
    h_inv = H._inv

    def conj_table(g: int) -> list[int]:
        w, c = w_of[g], h_of[g]
        if c:  # (x, h)^(0, c) = (x^c, c^-1 h c)
            c_inv, right = h_inv[c], cols[c]
            hc = [right[cols[h][c_inv]] for h in range(h_size)]
            return [fold_h[x] + y for x in act[c] for y in hc]
        # (x, h)^(w, 1) = (x + w - w^h, h)
        shift = [spread[fold[spread[w] + spread[fold[neg - act[h][w]]]]] for h in range(h_size)]
        return [fold_h[x + t] + h for x in spread for h, t in enumerate(shift)]

    gens = tuple(gens) + tuple(H.gens)
    return OracleGroup(n, mul, name, gens, inv, {g: partial(conj_table, g) for g in gens})


# ---------------------------------------------------------------------------
# closures and elementary subgroup machinery


def _closures(G: OracleGroup, candidates, start=(1, (0,))):
    """Adjoin each candidate not yet inside (a list may grow meanwhile) to
    the subgroup so far, yielding (candidate, mask, members) after each one.

    Each step grows H = <gens> to <gens, x> by right cosets of H (Dimino's
    algorithm): K is a union of cosets Hr, from r = 1; for each r and each
    generator s with rs not yet in K, the coset H(rs) is added and rs
    becomes a representative.  At the end every rs lies in some Hr', so
    h0 r s = (h0 h) r' lies in K too: K holds 1 and is closed under right
    multiplication by the generators, so K = <gens, x> (each r is a
    product of generators).  A step costs one law call per new element
    and one per (coset, generator) pair, and H is never walked again.

    `start` = (mask, members) of a subgroup H0 to grow from, in place of
    1; its own generators are not needed when every candidate normalises
    it.  Then so does each r, and for t in H0, Hr t = H (r t r^-1) r = Hr
    with r t r^-1 in H0 <= H: K is closed under right multiplication by
    H0 as well, so K = <H0, gens, x>.  `members` lists H's members, then
    each new coset Hr, in the order r was found, as h r over H's members."""
    mul = G.mul
    mask, members = start
    gens = []
    for x in candidates:
        if (mask >> x) & 1:
            continue
        gens.append(x)
        h_members = members
        members = list(h_members)
        reps = [0]
        for r in reps:  # grows while it is walked
            for s in gens:
                y = mul(r, s)
                if not (mask >> y) & 1:
                    reps.append(y)
                    for h in h_members:
                        z = mul(h, y)
                        mask |= 1 << z
                        members.append(z)
        yield x, mask, members


def closure_mask(G: OracleGroup, gen_ids) -> int:
    """Subgroup generated by the given element ids, as a mask."""
    mask = 1
    for _, mask, _ in _closures(G, gen_ids):
        pass
    return mask


def subgroup_closure(G: OracleGroup, gen_ids) -> int:
    """Smallest subgroup containing the given elements."""
    for g in gen_ids:
        if not 0 <= g < G.n:
            raise MalformedInput(f"element id {g} out of range")
    return closure_mask(G, gen_ids)


def _conjugation(G: OracleGroup, gens):
    """The conjugation kernel: for each g in gens the map x -> x^g as a
    `__getitem__` over its image list (memoised per g), and the map
    x -> 2^x.  A conjugate's members are map(image, members) and, the
    images being distinct, its mask is sum(map(bit, members)).  The list
    of a g with a constructor table (`G._gen_conj`) is built by it, with
    no law call; any other takes two law calls per element."""
    images = []
    for g in gens:
        build = G._gen_conj.get(g) or partial(_law_conjugation, G, g)
        images.append(G._memo("conj", g, build).__getitem__)
    return images, G._memo("powers_of_two", None, lambda: [1 << x for x in range(G.n)]).__getitem__


def _law_conjugation(G: OracleGroup, g: int) -> list[int]:
    n, mul = G.n, G.mul
    return list(map(mul, map(mul, repeat(G._inv[g], n), range(n)), repeat(g, n)))


def conjugate_mask(G: OracleGroup, mask: int, g: int) -> int:
    (image,), bit = _conjugation(G, (g,))
    return sum(map(bit, map(image, mask_bits(mask))))


def _conjugates(G: OracleGroup, mask: int, members):
    """Walk the orbit of the subgroup T = (mask, members) under G.gens with
    the conjugation tables and no law call.

    The conjugates are numbered as they are first met, c_0 = T, and each
    edge c_i^g = c_j is yielded as (i, g, j, mask of c_j) when it is
    walked; an edge whose j is one past every number yielded before is the
    tree edge through which c_j was first met.  The walk is depth first
    over edges: a newly met conjugate is walked before the rest of the
    edges of the one it was met from, so the cycles of the first gen are
    followed to their ends and most edges meet a new conjugate, which lets
    a consumer stop early.  Conjugates are keyed by their masks."""
    images, bit = _conjugation(G, G.gens)
    steps = tuple(zip(G.gens, images))
    index = {mask: 0}
    conjugates = [members]
    stack = [(0, 0)] if steps else []  # (conjugate, its next step)
    while stack:
        i, k = stack.pop()
        if k + 1 < len(steps):
            stack.append((i, k + 1))
        g, image = steps[k]
        d = list(map(image, conjugates[i]))
        c = sum(map(bit, d))
        j = index.setdefault(c, len(conjugates))
        if j == len(conjugates):
            conjugates.append(d)
            stack.append((j, 0))
        yield i, g, j, c


def _orbit_and_normaliser(G: OracleGroup, mask: int, members) -> tuple[list[int], int]:
    """The conjugates of the subgroup T = (mask, members), as `_conjugates`
    walks them, and its normaliser N_G(T), from one walk of the orbit that
    stops as soon as both are known.

    Conjugation is a right action, T^(ab) = (T^a)^b, and the gens generate
    G, so the walk meets every conjugate.  Each conjugate c = T^(u_c) gets
    u_c = u_i g from its tree edge (one law call).  For every other edge
    c_i^g = c_j, the Schreier generator u_i g u_j^-1 maps T to c_j and
    back, so it lies in N_G(T); by Schreier's lemma these generate N_G(T).
    N grows from T by each of them that it misses, as soon as it is met,
    through one `_closures` run (which needs no generators of T, since
    each of them normalises T).  The walk stops once (conjugates found) x
    |N| = |G|.  This is exact: N <= N_G(T), so by orbit-stabiliser
    |G:N| >= |G:N_G(T)| = |orbit| >= found, and equality of the ends
    forces found = |orbit| and N = N_G(T).  Once every edge is walked,
    found = |orbit| and N = N_G(T) by Schreier's lemma, so a walk that
    ends without closing the count is an AssertionError."""
    mul, inv = G.mul, G._inv
    masks, norm, u = [mask], mask, [0]
    schreier: list[int] = []
    grow = _closures(G, schreier, (mask, members))
    edges = _conjugates(G, mask, members)
    while len(masks) * norm.bit_count() < G.n:
        edge = next(edges, None)
        if edge is None:
            raise AssertionError("orbit-stabiliser count does not close (internal bug)")
        i, g, j, c = edge
        if j == len(masks):
            masks.append(c)
            u.append(mul(u[i], g))
        else:
            y = mul(mul(u[i], g), inv[u[j]])
            if not (norm >> y) & 1:
                schreier.append(y)
                _, norm, _ = next(grow)
    return masks, norm


def greedy_generators(G: OracleGroup, mask: int) -> list[int]:
    """A short generating list for the subgroup given by `mask`: each
    member, ascending, that is not in the subgroup generated so far.

    The subgroup generated so far is extended by the new member through
    its right cosets (`_closures`), not closed again from scratch, so each
    element costs one law call however many generators came before it."""
    gens: list[int] = []
    for x, cur, _ in _closures(G, mask_bits(mask)):
        gens.append(x)
        if cur == mask:
            break
    return gens


def small_generating_set(G: OracleGroup) -> list[int]:
    return G._memo("gens_small", None, greedy_generators, G, (1 << G.n) - 1)


def normal_closure_mask(G: OracleGroup, seed_ids, ambient_gens) -> int:
    """Normal closure of the seeds under conjugation by the ambient gens,
    from one `_closures` run whose every adjoined generator appends its
    conjugates to the candidates: N holds them, so N^g = N for each g."""
    candidates = list(seed_ids)
    mask = 1
    for x, mask, _ in _closures(G, candidates):
        candidates.extend(G.conj(x, g) for g in ambient_gens)
    return mask


def derived_mask(G: OracleGroup, mask: int) -> int:
    # G.gens generates G, so only a proper subgroup needs generators found
    gens = G.gens if mask == (1 << G.n) - 1 else greedy_generators(G, mask)
    comms = {G.commutator(a, b) for a in gens for b in gens}
    return normal_closure_mask(G, comms, gens)


def derived_series(G: OracleGroup) -> tuple[int, ...]:
    return G._memo("derived_series", None, _derived_series, G)


def _derived_series(G: OracleGroup) -> tuple[int, ...]:
    series = [(1 << G.n) - 1]
    while series[-1] != 1 and (nxt := derived_mask(G, series[-1])) != series[-1]:
        series.append(nxt)
    return tuple(series)


def is_solvable(G: OracleGroup) -> bool:
    return derived_series(G)[-1] == 1


# ---------------------------------------------------------------------------
# the subgroup lattice


_REVERSED_COMPLEMENT = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


def _canonical_key(mask: int):
    """Sort key of the canonical subgroup order: by order, then by the
    ascending member tuples.

    Of two masks a != b of equal bit count, a comes first exactly when the
    lowest set bit of a ^ b lies in a (below it they share their members).
    That bit sits in the first byte where their little-endian bytes differ
    (equal bit counts keep one from being a prefix of the other), and
    reversing and complementing every byte makes a's byte there the
    smaller."""
    return mask.bit_count(), mask.to_bytes((mask.bit_length() + 7) // 8, "little").translate(
        _REVERSED_COMPLEMENT)


# one lattice pass: every subgroup in canonical order, the (least member,
# size) of each class, and each subgroup's least conjugate
Lattice = namedtuple("Lattice", "subgroups classes least_conjugate")


def all_subgroups(G: OracleGroup) -> tuple[int, ...]:
    """Every subgroup of a solvable G, canonically ordered."""
    return G._memo("lattice", None, _lattice_pass, G).subgroups


def _lattice(G: OracleGroup) -> Lattice:
    """The lattice record of G.  A cold G gets it through `all_subgroups`,
    so the pass runs inside that query whichever query asked first."""
    return G._memo("lattice", None, _lattice_through_query, G)


def _lattice_through_query(G: OracleGroup) -> Lattice:
    all_subgroups(G)
    return _lattice(G)


def _lattice_pass(G: OracleGroup) -> Lattice:
    """The lattice and its conjugacy classes from one pass of cyclic
    extension (Neubueser 1960), run up to conjugacy as GAP's
    `LatticeByCyclicExtension` does: the lattice is generated bottom-up by
    adjoining to S the elements g that normalise S with g^p in S, p prime,
    and only one member of each conjugacy class is extended.  When an
    extension T is new, its whole orbit joins the lattice as one class and
    T alone is queued.  This is exact: every T != 1 of a solvable G has a
    normal subgroup S of prime index p, so T = <S, g> with g^p in S.  If R
    is the queued member of S's class and S = R^x, then T^(x^-1) =
    <R, g^(x^-1)> is a cyclic extension of R, so T's class is reached
    from R.

    The orbit pass of T also gives N_G(T) (`_orbit_and_normaliser`), so the
    candidates for S are read off masks with no test: the g in N_G(S) - S
    with g^p in S.  Such a g gives <S, g> = S<g> = S u Sg u ... u Sg^(p-1),
    of order p|S| and inside N_G(S), so only the p dividing |N_G(S):S| are
    tried.  Only the p-elements g are tried, which loses no extension: if
    T = <S, g> as above, write g = g_p g_p', both powers of g, g_p of p-power
    order and g_p' of order prime to p.  The image of g_p' in T/S = C_p has
    order prime to p, so g_p' lies in S; then g_p lies in gS, in T - S, with
    g_p^p = (g^p)^e in S, and S<g_p> = T.  A candidate g inside a known
    subgroup d of order p|S| with S <= d gives S<g> = d (g in d - S
    normalises S with g^p in S, and S<g> <= d has d's order): before S is
    extended by p, every such d is cleared from the candidates, and so is
    every member of a new orbit that contains S.  Each extension computed is
    then a new class.

    Each queued T carries its generators, those of S and g.  T is normal
    exactly when every G-gen conjugates each of them into T (T^h <= T has
    T's order, and the G-gens generate G), a few bit tests on the
    conjugation tables; a normal T is its own orbit, with N_G(T) = G, and
    only a T that is not normal walks its orbit.

    The pass is also the solvability test: it reaches G exactly when G is
    solvable.  An extension S<g> of a solvable S, with S normal of prime
    index in it, is solvable, so every subgroup reached is; and the argument
    above reaches every T of a solvable G, G itself included.  A pass that
    ends without G raises MalformedInput.

    Each class is represented by its least member in the lattice order.
    LATTICE_CAP is checked after each orbit is added, and an orbit has at
    most |G| members.  A G past LATTICE_ORDER_CEILING is refused before any
    table is built.  Past either cap, `is_solvable` decides between
    MalformedInput and ResourceCapExceeded.
    """
    if G.n > LATTICE_ORDER_CEILING:
        raise _lattice_refused(G, f"lattice pass of |G|={G.n} exceeds its memory ceiling",
                               LATTICE_ORDER_CEILING)
    mul = G.mul
    images, bit = _conjugation(G, G.gens)  # x -> x^h per G-gen h, x -> 2^x
    roots = _root_masks(G)
    full = (1 << G.n) - 1
    class_of = {1: 0}  # lattice mask -> number of its class
    sizes = [1]  # class sizes by number
    by_order: dict[int, list[int]] = {}  # the lattice so far, by order
    queue = [(1, [0], full, ())]  # (mask, members, normaliser, gens), one per class
    for s_mask, s_members, s_norm, s_gens in queue:  # extended while it is walked
        order = len(s_members)
        for p in prime_factors(s_norm.bit_count() // order):
            known = by_order.setdefault(p * order, [])
            root_masks = roots[p]
            candidates = 0
            for s in s_members:
                candidates |= root_masks[s]
            candidates &= s_norm & ~s_mask
            for d in known:
                if d & s_mask == s_mask:
                    candidates &= ~d
            while candidates:
                g = (candidates & -candidates).bit_length() - 1
                t_members = list(s_members)
                coset = s_members
                for _ in range(1, p):
                    coset = list(map(mul, coset, repeat(g)))
                    t_members += coset
                t_mask = s_mask | sum(map(bit, t_members[order:]))
                t_gens = s_gens + (g,)
                if all((t_mask >> image(y)) & 1 for image in images for y in t_gens):
                    orbit, t_norm = [t_mask], full
                else:
                    orbit, t_norm = _orbit_and_normaliser(G, t_mask, t_members)
                for c in orbit:
                    if c & s_mask == s_mask:
                        candidates &= ~c
                class_of.update(dict.fromkeys(orbit, len(sizes)))
                sizes.append(len(orbit))
                known += orbit
                queue.append((t_mask, t_members, t_norm, t_gens))
                if len(class_of) > LATTICE_CAP:
                    raise _lattice_refused(G, "subgroup lattice size", LATTICE_CAP)
    if full not in class_of:
        raise MalformedInput("subgroup lattice enumeration requires a solvable group")
    lattice = tuple(sorted(class_of, key=_canonical_key))
    reps: dict[int, int] = {}  # class number -> least member, in lattice order
    for s in lattice:
        reps.setdefault(class_of[s], s)
    return Lattice(lattice, tuple((s, sizes[c]) for c, s in reps.items()),
                   {s: reps[c] for s, c in class_of.items()})


def _lattice_refused(G: OracleGroup, what: str, cap: int) -> Exception:
    """The error of a lattice pass that a cap stops: MalformedInput for a G
    that is not solvable, else ResourceCapExceeded."""
    if not is_solvable(G):
        return MalformedInput("subgroup lattice enumeration requires a solvable group")
    return ResourceCapExceeded(what, cap)


def _cycles(G: OracleGroup):
    """The walks [1, g, ..., g^(k-1)] of the cyclic subgroups <g>, k the
    order of g, one for each g not met on an earlier walk, ascending: every
    element lies on some walk, at one law call per element walked."""
    mul = G.mul
    seen = bytearray(G.n)
    for g in range(G.n):
        if not seen[g]:
            cycle = [0]
            x = g
            while x:
                cycle.append(x)
                seen[x] = 1
                x = mul(x, g)
            yield cycle


def _root_masks(G: OracleGroup) -> dict[int, list[int]]:
    """roots[p][y] for each prime p dividing |G|: the mask of the elements x
    of p-power order > 1 with x^p = y.  On a walk [1, g, ..., g^(k-1)] of
    `_cycles` with k = p^a q, p not dividing q, these x are the g^i with i a
    nonzero multiple of q, and x^p = g^(i*p mod k) is read off the same list.
    A walk is read only for the primes p dividing k (for the others q = k
    and there is no such i), and q = k / gcd(k, p^e) with p^e >= k.  An
    element on several walks joins its mask once."""
    roots = {p: [0] * G.n for p in prime_factors(G.n)}
    done = bytearray(G.n)
    plans: dict[int, list] = {}  # k -> (p, p'-part q of k, roots[p]) per prime p | k
    for cycle in _cycles(G):
        k = len(cycle)
        plan = plans.get(k)
        if plan is None:
            plan = plans[k] = [(p, k // gcd(k, p ** k.bit_length()), roots[p])
                               for p in prime_factors(k)]
        for p, q, masks in plan:
            for i in range(q, k, q):
                x = cycle[i]
                if not done[x]:
                    done[x] = 1
                    masks[cycle[i * p % k]] |= 1 << x
    return roots


def maximal_subgroups(G: OracleGroup) -> tuple[int, ...]:
    return G._memo("maximals", None, _maximals, G)


def _maximals(G: OracleGroup) -> tuple[int, ...]:
    # maximality is a class property, and a proper overgroup of s has a
    # larger order, so its class comes later in the lattice: a class is
    # maximal iff no member of a later maximal class contains its least member
    lattice = _lattice(G)
    members: dict[int, list[int]] = {}  # least member -> class, in lattice order
    for s in lattice.subgroups[:-1]:
        members.setdefault(lattice.least_conjugate[s], []).append(s)
    maximals: list[int] = []
    for s in reversed(members):
        if not any(s & m == s for m in maximals):
            maximals += members[s]
    return tuple(sorted(maximals, key=_canonical_key))


def frattini(G: OracleGroup) -> int:
    """Intersection of all maximal subgroups (G itself when |G| = 1)."""
    return _maximals_above(G, 1)[1]


def conjugacy_classes_of_subgroups(G: OracleGroup):
    """(class representative, class size) pairs in lattice order; each
    representative is the canonically least subgroup of its class.
    `all_subgroups` finds the classes as it builds the lattice."""
    return _lattice(G).classes


# ---------------------------------------------------------------------------
# Moebius function


def mobius_all(G: OracleGroup) -> MappingProxyType:
    """mu(H, G) for every subgroup mask, via the full lattice (a read-only
    view of the memoized dict).

    mu(s) = -sum of mu(t) over the proper overgroups t of s, which come
    later in the lattice; the t with mu(t) = 0 add nothing.  The sum is
    taken once per conjugacy class: x -> x^g is a lattice automorphism
    fixing G, so it carries the overgroups of s onto those of s^g and
    mu(s^g) = mu(s).  The first member of a class that the reverse scan
    meets sums over its overgroups, and the others copy its value."""
    return MappingProxyType(G._memo("mobius_all", None, _mobius_all, G))


def _mobius_all(G: OracleGroup) -> dict[int, int]:
    subs = all_subgroups(G)
    least = _lattice(G).least_conjugate
    mu: dict[int, int] = {subs[-1]: 1}
    by_class: dict[int, int] = {}  # least member -> mu of its class
    nonzero = [(subs[-1], 1)]
    for s in reversed(subs[:-1]):
        value = by_class.get(least[s])
        if value is None:
            value = by_class[least[s]] = -sum(v for t, v in nonzero if s & t == s)
        mu[s] = value
        if value:
            nonzero.append((s, value))
    return mu


def overgroups(G: OracleGroup, h: int) -> list[int]:
    """All subgroups k with h <= k <= G, in lattice order."""
    return [k for k in all_subgroups(G) if k & h == h]


def mobius(h: int, G: OracleGroup) -> int:
    """mu(h, G) over the subgroup lattice."""
    mu = mobius_all(G)
    if h not in mu:
        raise MalformedInput("mask is not a subgroup of the group")
    return mu[h]


# ---------------------------------------------------------------------------
# maximal intersections and counting tables


def is_maximal_intersection(h: int, G: OracleGroup) -> bool:
    """True iff h equals the intersection of the maximal subgroups above it
    (the empty intersection is G, so G itself qualifies)."""
    return _maximals_above(G, h)[1] == h


def _maximals_above(G: OracleGroup, h: int) -> tuple[tuple[int, ...], int]:
    """The record of h: (above, meet), the maximal masks containing h in
    `maximal_subgroups` order and their intersection (G if none)."""
    return G._memo("above", h, _above_and_meet, G, h)


def _above_and_meet(G: OracleGroup, h: int) -> tuple[tuple[int, ...], int]:
    above = tuple(m for m in maximal_subgroups(G) if m & h == h)
    return above, reduce(and_, above, (1 << G.n) - 1)


def counts(G: OracleGroup) -> tuple[tuple[int, tuple[int, int, int]], ...]:
    """(n, (m_n, b_n, c_n)) for every index n > 1 dividing |G|, ascending:
    the numbers of maximals, of nonzero-Moebius subgroups and of maximal
    intersections of index n (proper subgroups only; a maximal subgroup is
    the intersection of the family containing just itself).

    Being maximal, mu != 0 and being a maximal intersection are invariant
    under conjugation (an automorphism of the lattice), so each class is
    tested once, on its representative, and counted with its size."""
    mu = mobius_all(G)
    maximal_set = set(maximal_subgroups(G))
    full = (1 << G.n) - 1
    divisors = sorted(d for d in range(2, G.n + 1) if G.n % d == 0)
    table = {d: [0, 0, 0] for d in divisors}
    for s, size in conjugacy_classes_of_subgroups(G):
        if s == full:
            continue
        row = table[G.n // s.bit_count()]
        if s in maximal_set:
            row[0] += size
        if mu[s] != 0:
            row[1] += size
        if is_maximal_intersection(s, G):
            row[2] += size
    entries = tuple((d, tuple(table[d])) for d in divisors)
    for _, (m_n, b_n, c_n) in entries:
        if not (m_n <= b_n <= c_n):
            raise AssertionError("count chain m_n <= b_n <= c_n violated (internal bug)")
    return entries


# ---------------------------------------------------------------------------
# cores, socles and chief-factor machinery


def normal_core(G: OracleGroup, m: int) -> int:
    """Intersection of all conjugates of m, met on one `_conjugates` walk."""
    return reduce(and_, (c for *_, c in _conjugates(G, m, tuple(mask_bits(m)))), m)


def core_and_socle(m: int, G: OracleGroup) -> tuple[int, int]:
    """The masks (Y, X): Y is the core of the maximal subgroup M = m, and
    X/Y is the unique minimal normal subgroup of the primitive quotient G/Y.
    A reference for the chief series of `sdp.chief_factor_classes`.

    G/Y is primitive and solvable, so X/Y = F(G/Y).  The last nontrivial
    derived term of G/Y is abelian and normal, so it lies in F(G/Y) and
    contains X/Y: the two are equal.  The derived series of G/Y is the
    image of G's, (G/Y)^(i) = G^(i) Y / Y, so X = G^(i) Y for the largest i
    with G^(i) not inside Y, read off the memoized `derived_series(G)` as
    the union of the cosets Ya over a in G^(i)."""
    if not is_solvable(G):
        raise MalformedInput("core_and_socle requires a solvable group")
    y = normal_core(G, m)
    # the terms inside Y are a suffix of the series, and it ends in 1
    d = next(d for d in reversed(derived_series(G)) if d & ~y)
    y_members = tuple(mask_bits(y))
    x = 0
    for a in mask_bits(d):
        if not (x >> a) & 1:
            for e in y_members:
                x |= 1 << G.mul(e, a)
    # chief factor sanity: M complements X/Y.  X is normal, so MX is a
    # subgroup of order |M||X|/|M cap X| = |M||X|/|Y|, and MX = G iff
    # |M||X| = |G||Y|
    if x & m != y:
        raise AssertionError("socle does not meet M in the core")
    if m.bit_count() * x.bit_count() != G.n * y.bit_count():
        raise AssertionError("M does not supplement the socle")
    return y, x


def factor_action(G: OracleGroup, x: int, y: int):
    """The conjugation action of G on the elementary abelian factor X/Y, for
    normal subgroups Y <= X of G: (p, d, matrices, cosets).

    |X/Y| = p^d, and there is one d x d matrix over F_p per generator in
    G.gens, read off `cosets`, on the basis that one `_closures` run from Y
    adjoins: b_i, the least element of X outside K_i = <Y, b_j : j < i>.
    X/Y is elementary abelian (else AssertionError) iff each |K_(i+1):K_i|
    is p, each b_i^p is in Y and the b_i commute mod Y; then K_(i+1) lists
    K_i b_i^j for j < p in turn, so member n of X has the base-p digits of
    n // |Y| as its coordinates.  `cosets` maps each matrix by which an
    element of G acts on X/Y to the mask of the elements acting by it, so
    C_G(X/Y) = cosets[mat_identity(d)].  The matrix is read once per right
    coset of X: for x' in X and a in X, a^(x'g) = (a[a, x'])^g lies in
    a^g Y, as [a, x'] lies in Y, so the matrix of the least untested g is
    that of its whole coset Xg."""
    ny = y.bit_count()
    ps = prime_factors(x.bit_count() // ny)
    if len(ps) != 1:
        raise MalformedInput("factor is not of prime-power order")
    p = ps[0]
    mul = G.mul
    basis: list[int] = []
    for b, _, members in _closures(G, mask_bits(x), (y, tuple(mask_bits(y)))):
        if (len(members) != ny * p ** (len(basis) + 1)
                or not y >> mul(members[-len(members) // p], b) & 1  # b^(p-1) b
                or any(not y >> G.commutator(c, b) & 1 for c in basis)):
            raise AssertionError("factor is not elementary abelian")
        basis.append(b)
    d = len(basis)
    vecs = [v[::-1] for v in product(range(p), repeat=d)]
    vec_of = {z: vecs[n // ny] for n, z in enumerate(members)}
    untested = (1 << G.n) - 1
    cosets: dict = {}
    while untested:
        g = (untested & -untested).bit_length() - 1
        coset = sum(1 << mul(a, g) for a in members)  # |Xg| distinct bits
        untested &= ~coset
        m = tuple(vec_of[G.conj(b, g)] for b in basis)
        cosets[m] = cosets.get(m, 0) | coset
    return p, d, [next(m for m, c in cosets.items() if c >> s & 1) for s in G.gens], cosets
