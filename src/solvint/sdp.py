"""Structured groups G = V^t x| H with H acting irreducibly on V and
diagonally on V^t: maximal supplements of the socle, the closed-form
intersection calculus, canonical intersection triples (U, v, Z), their
realization by explicit families of maximal subgroups, and crowns.

Multiplication convention (fixed artifact-wide, and locked by the
brute-force equivalence tests): (w1,h1)(w2,h2) = (w1^{h2} + w2, h1*h2),
so the conjugate H^v is {(v - v^h, h) : h in H}.

Groups are immutable after validation and every operation is a
deterministic function of its arguments; caches only memoize.
"""

from __future__ import annotations

import random
from collections import defaultdict, namedtuple
from itertools import product as iter_product

from . import groups as gr
from .errors import MalformedInput, ResourceCapExceeded, SchemaError
from .ffla import (
    FieldOps,
    FpSubspace,
    Matrix,
    Vector,
    endomorphism_field,
    fixing_mask,
    is_irreducible,
    is_prime,
    mat_identity,
    mat_inv,
    mat_mod,
    mat_mul,
    module_isomorphism,
    vec_mat,
    vec_sub,
)

# ffla.is_irreducible spins every line of F_p^k; the corpus and the benchmark
# catalogue use at most 7 lines (F_2^3).  The order cap bounds |V| only for
# t >= 1: a t = 0 spec has |G| = |H|
IRREDUCIBILITY_LINE_CAP = 4096
# random_case_suite draws families of 1..FAMILY_MAX maximal supplements
FAMILY_MAX = 5


# ---------------------------------------------------------------------------
# the acting module


class HModule:
    """A solvable matrix group H <= GL(k, p) acting faithfully and
    irreducibly on V = F_p^k, with its endomorphism field F.  `group` is H as
    an oracle over the ids of `elements`, a subgroup of H is a mask over
    those ids, and an F-subspace of V is held as the F-RREF of `fcoords`.
    The tables that depend on the module alone (H's products, the draws'
    seed closures, F-coordinates, vectors, centralizers, the checker's
    shifts) are memoised on `group`."""

    def __init__(self, p, k, elements, group, fops, frame):
        self.p = p
        self.k = k
        self.elements = elements  # identity first, rest sorted by entries
        self.group: gr.OracleGroup = group
        self.cosets = {m: 1 << x for x, m in enumerate(elements)}  # matrix -> its id's mask
        self.fops: FieldOps = fops
        self.frame: Matrix = frame  # row i*e + j is b_i * fops.basis[j], b_i an F-basis of V
        self.frame_inv: Matrix = mat_inv(frame, p)
        self.f_dim = k // fops.degree

    @classmethod
    def create(cls, p: int, k: int, gens):
        """H = <gens> on F_p^k, validated by `_matrix_group`, with F, refused
        above ffla.FIELD_ORDER_CAP, and F's frame: for the corpus pool and
        the tests, as a spec request reads no F."""
        gens, elements, group = _matrix_group(p, k, gens)
        identity = mat_identity(k)
        # MalformedInput("irreducibility: ...") unless every line spins to V
        fops = endomorphism_field(gens or (identity,), p, k)
        # the unit vectors outside the F-span of those taken before them
        frame: Matrix = ()
        for u in identity:
            if not FpSubspace.from_vectors(p, k, frame).contains(u):
                frame += tuple(vec_mat(u, b, p) for b in fops.basis)
        return cls(p, k, elements, group, fops, frame)

    @property
    def order(self) -> int:
        return len(self.elements)

    def fcoords(self, v: Vector) -> tuple[int, ...]:
        """The F-coordinates a_i of v = sum_i b_i * a_i: the base-p digits of
        v * frame_inv, e at a time, each read as a FieldOps element index."""
        c, e, p = vec_mat(v, self.frame_inv, self.p), self.fops.degree, self.p
        return tuple(sum(c[i + j] * p ** (e - 1 - j) for j in range(e))
                     for i in range(0, self.k, e))

    def vector_of(self, frow) -> Vector:
        """The vector of V with F-coordinates `frow`, inverse to `fcoords`."""
        e, p = self.fops.degree, self.p
        return vec_mat([idx // p ** (e - 1 - j) % p for idx in frow for j in range(e)],
                       self.frame, p)

    def centralizer_of(self, frows) -> int:
        """The mask of the x in H fixing the vector of each F-coordinate row in `frows`."""
        return fixing_mask(self.cosets, [self.vector_of(r) for r in frows], self.p)


def _matrix_group(p: int, k: int, gens):
    """(gens mod p, elements, H) for the faithful H = <gens> <= GL(k, p),
    elements identity first: MalformedInput for a generator not k x k or
    singular, ResourceCapExceeded past the lines of the irreducibility test
    or past CLOSURE_CAP elements, MalformedInput unless H is solvable."""
    gens = tuple(mat_mod(g, p) for g in gens)
    for g in gens:
        if len(g) != k or any(len(row) != k for row in g):
            raise MalformedInput(f"generator is not {k}x{k}")
        mat_inv(g, p)  # raises on singular input
    lines = IRREDUCIBILITY_LINE_CAP
    # F_p^k has at least 2^k - 1 lines, so p**k is only taken for small k
    if k > lines.bit_length() or (p**k - 1) // (p - 1) > lines:
        raise ResourceCapExceeded("irreducibility test lines of F_p^k", lines)
    elements = gr._sorted_closure(gens, lambda a, b: mat_mul(a, b, p), mat_identity(k))
    group = gr.from_elements(elements, lambda a, b: mat_mul(a, b, p), f"H<GL({k},{p})", gens)
    if not gr.is_solvable(group):
        raise MalformedInput("solvability: H is not solvable")
    return gens, elements, group


# ---------------------------------------------------------------------------
# the semidirect product


class SdGroup(gr._Memoised):
    """G = V^t x| H with diagonal action of H on the t factors.  The closed
    form and the brute force memoise the tables that depend on t on the
    group through `_memo`, and the rest on `module.group`."""

    def __init__(self, module: HModule, t: int, name: str | None = None):
        if t < 0:
            raise MalformedInput("multiplicity t must be nonnegative")
        self.module = module
        self.t = t
        self.p = module.p
        self.k = module.k
        self.wdim = module.k * t
        self.order = module.p ** self.wdim * module.order
        self.name = name or f"V^{t}:{module.group.name}"
        self._cache: dict = {}

    @classmethod
    def create(cls, p: int, k: int, t: int, h_gens, name: str | None = None) -> "SdGroup":
        return cls(HModule.create(p, k, h_gens), t, name=name)

    # -- submodules of V^t via F-subspaces of F^t

    def submodule_from_fvectors(self, frows) -> FpSubspace:
        """The F_p span of the H-submodule of V^t spanned by the images of V
        under x -> (x*s_1, ..., x*s_t), s running over the F-RREF rows
        `frows` of F^t; MalformedInput for rows not in F-RREF."""
        # for s_i in F-RREF with pivot c_i, the rows e_j * s_i (row j of the
        # matrix of each entry) are in RREF already, with pivots k*c_i + j
        pivots = _f_rref_pivots(self.module.fops, frows, self.t)
        elements, k = self.module.fops.elements, self.k
        return FpSubspace(self.p, self.wdim,
                          tuple(tuple(x for idx in s for x in elements[idx][j])
                                for s in frows for j in range(k)),
                          tuple(k * c + j for c in pivots for j in range(k)))

    def fvectors_of_submodule(self, W: FpSubspace):
        """The inverse of `submodule_from_fvectors`: row k*i of W's basis is
        e_0 * s_i, and e_0 is the frame's first vector, so each k-block e_0 * a
        has F-coordinates (a, 0, ..).  MalformedInput unless these span W."""
        k, module = self.k, self.module
        rows = tuple(tuple(module.fcoords(row[b:b + k])[0] for b in range(0, len(row), k))
                     for row in W.basis[::k])
        if self.submodule_from_fvectors(rows) != W:
            raise MalformedInput("the subspace is not a submodule of V^t")
        return rows

    def maximal_submodules(self) -> list:
        """The maximal submodules: the F-hyperplanes of F^t."""
        return self.module.fops.hyperplanes(self.t)

    def fixed_space_over(self, W: FpSubspace) -> FpSubspace:
        """{v in V^t : v^h - v in W for every h}, for an H-submodule W: it is
        W when |H| > 1, and V^t when H = 1 or t = 0.

        Proof for |H| > 1.  The set is the preimage of the fixed points of H
        on V^t/W.  V^t is a direct sum of copies of the irreducible V, so it
        is semisimple and V^t/W is isomorphic to V^s for some s; its fixed
        points are (V^H)^s.  V^H is a submodule of V, and not all of V since
        H is faithful and nontrivial, so V^H = 0 and the preimage is W.
        """
        if self.wdim == 0 or self.module.order == 1:
            return FpSubspace.from_vectors(self.p, self.wdim, mat_identity(self.wdim))
        return W


# ---------------------------------------------------------------------------
# descriptors
#
# A descriptor's submodule is its F-RREF rows over F^t.  Descriptors are
# namedtuples, so they are built, hashed and compared as tuples: the
# calculus and the checker key memos on them.

MaximalSupplement = namedtuple("MaximalSupplement", "submodule translate")
MaximalSupplement.__doc__ = """M = W * H^v with W a maximal H-submodule of V^t; the
translate is the canonical coset representative, so descriptor equality
is subgroup equality."""

PartialIntersection = namedtuple("PartialIntersection", "submodule h_mask translate")
PartialIntersection.__doc__ = """A subgroup W * X^v with X <= H given by its mask."""

CanonicalIntersection = namedtuple("CanonicalIntersection", "submodule translate z_space")
CanonicalIntersection.__doc__ = """The triple (U, v, Z) representing U * C_{H^v}(Z), with Z
given by its F-RREF rows over F^f_dim."""


def enumerate_maximal_supplements(G: SdGroup) -> list[MaximalSupplement]:
    """All maximal subgroups of G supplementing V^t, one per canonical
    descriptor.  The translates are the reduced vectors modulo
    `fixed_space_over(W)`: when that is W (|H| > 1), they are the x in F_p^k
    on the k-block of W's one non-pivot F-column f; else the only one is 0."""
    out = []
    p, k, n = G.p, G.k, G.wdim
    for W in G.maximal_submodules():
        if G.order // (p ** (k * len(W)) * G.module.order) != p ** k:
            raise AssertionError("maximal supplement index is not |V|")
        if not (n and G.module.order > 1):
            out.append(MaximalSupplement(W, (0,) * n))
            continue
        # row i leads in column i until f
        f = next((i for i, s in enumerate(W) if not s[i]), len(W))
        out.extend(MaximalSupplement(W, (0,) * (k * f) + x + (0,) * (n - k * f - k))
                   for x in iter_product(range(p), repeat=k))
    return out


def descriptor_elements(G: SdGroup, submodule, h_mask: int, translate) -> int:
    """Element set {(u + v - v^x, x) : u in U, x in X} of the descriptor
    subgroup U * X^v, as a bitmask in the id order of `embed_as_oracle`:
    bit w_id(w) * |H| + h is set exactly when (w, h) lies in the subgroup,
    where w_id reads the n coordinates of w as base-p digits, first digit
    most significant.

    Adding c to digit i of every w moves a set bit by a fixed shift, with
    B = p^(n-1-i) * |H| and L the ids whose digit i is below p - c:
        translate(m, c e_i) = ((m & L) << c*B) | ((m & ~L) >> (p - c)*B).
    The mask of U at h = 0 starts at 1 (the zero vector) and is spanned by
    translating along each basis row p - 1 times; the set is then the union
    over x in X of translate(U_mask << x, v - v^x).

    This brute force reads only the basis rows of U's F_p span and H's
    matrices.  Its memos live in the group: the steps B and masks L per
    group, U's mask per submodule, X's grouping by shift per (v, X), so
    supplements of different submodules that share a translate group H
    once; block - block*x per k-block of V and x in H lives on H.
    """
    moves = G._memo("digit_moves", None, _digit_moves, G)
    u_mask = G._memo("span_mask", submodule, _span_mask, G, submodule, moves)
    groups = G._memo("shift_groups", (translate, h_mask), _shift_groups, G, translate, h_mask)
    p = G.p
    out = 0
    for shift, h_bits in groups:
        out |= _move(u_mask * h_bits, shift, p, moves)
    return out


def _shift_groups(G: SdGroup, translate, h_mask: int) -> tuple:
    """The pairs (v - v^x, h_bits) of `descriptor_elements`, one per shift,
    h_bits the mask of the x in X with that shift: U_mask << x for every
    such x is U_mask * h_bits."""
    p, k = G.p, G.k
    blocks = [translate[b:b + k] for b in range(0, G.wdim, k)]
    diffs_by_x = G.module.group._memo("shift", None, defaultdict, dict)
    h_bits_by_shift: dict = {}
    for x in gr.mask_bits(h_mask):
        diffs = diffs_by_x[x]
        shift = ()
        for block in blocks:
            diff = diffs.get(block)
            if diff is None:
                diff = diffs[block] = vec_sub(block, vec_mat(block, G.module.elements[x], p), p)
            shift += diff
        h_bits_by_shift[shift] = h_bits_by_shift.get(shift, 0) | 1 << x
    return tuple(h_bits_by_shift.items())


def _digit_moves(G: SdGroup):
    """(steps, low): steps[i] = p^(n-1-i) * |H| and low[i][c] the ids whose
    digit i is below p - c (c = 0 is unused), as in `descriptor_elements`."""
    p, n, h_order = G.p, G.wdim, G.module.order
    steps = [p ** (n - 1 - i) * h_order for i in range(n)]
    ones = (1 << G.order) - 1
    low = []
    for b in steps:
        # one bit at the start of every run of p * b ids
        starts = ones // ((1 << p * b) - 1)
        low.append([0] + [((1 << (p - c) * b) - 1) * starts for c in range(1, p)])
    return steps, low


def _move(mask: int, d: Vector, p: int, moves) -> int:
    """translate(mask, d) of `descriptor_elements`, one digit at a time."""
    steps, low = moves
    for i, c in enumerate(d):
        if c:
            b, lo = steps[i], low[i][c]
            mask = ((mask & lo) << c * b) | ((mask & ~lo) >> (p - c) * b)
    return mask


def _span_mask(G: SdGroup, submodule, moves) -> int:
    """The mask of the submodule at h = 0: the zero vector's bit, translated
    along each row of its F_p basis p - 1 times."""
    p, u_mask = G.p, 1
    for row in G.submodule_from_fvectors(submodule).basis:
        cur = acc = u_mask
        for _ in range(p - 1):
            cur = _move(cur, row, p, moves)
            acc |= cur
        u_mask = acc
    return u_mask


def supplement_elements(G: SdGroup, M: MaximalSupplement) -> int:
    return descriptor_elements(G, M.submodule, (1 << G.module.order) - 1, M.translate)


def partial_elements(G: SdGroup, K: PartialIntersection) -> int:
    return descriptor_elements(G, K.submodule, K.h_mask, K.translate)


def canonical_elements(G: SdGroup, ci: CanonicalIntersection) -> int:
    cen = centralizer_in_h(G, ci.z_space)
    return descriptor_elements(G, ci.submodule, cen, ci.translate)


def centralizer_in_h(G: SdGroup, z_space) -> int:
    """C_H(Z) for Z given by its F-RREF rows.  It fixes the vector of each
    row only: F commutes with H, so an element fixing z fixes every
    F-multiple of z, and so all of Z."""
    module = G.module
    return module.group._memo("centralizer", z_space, module.centralizer_of, z_space)


# ---------------------------------------------------------------------------
# the intersection calculus
#
# Linear algebra over F = End_H(V) on F^t: pi_phi(x) = sum_j x_j * phi_j is
# an H-map V^t -> V for phi in F^t.  W * X^v has one row phi + c per phi in
# the F-annihilator of W's F-rows, with c the F-coordinates of pi_phi(v), a
# single row when W is maximal.  An added row is kept, and the submodules
# meet, or psi = sum_i a_i phi_i leaves the witness c - sum_i a_i c_i, whose
# centralizer is the new H-part.  Rows are held as {pivot column: phi + c},
# fully reduced with leading entry one, so all row arithmetic reads F's
# tables; values go back to vectors of V only in `_solution`.


def _f_rref_pivots(fops: FieldOps, rows, n: int) -> list[int]:
    """The leading columns of `rows`, or MalformedInput unless they are in
    F-RREF over F^n, checked in one pass: each row has length n, entries in
    F, a leading one right of the pivot before it, and zeros in its pivot
    column in the rows before it.  Its other entries in pivot columns lie
    left of its leading one, so they are zero."""
    pivots: list[int] = []
    for i, row in enumerate(rows):
        for c, x in enumerate(row):
            if x:
                break
        else:
            c = n
        if not (len(row) == n and c < n and row[c] == fops.one
                and (not pivots or c > pivots[-1]) and 0 <= min(row) and max(row) < fops.q
                and not any(above[c] for above in rows[:i])):
            raise MalformedInput(f"rows are not in F-RREF over F^{n}")
        pivots.append(c)
    return pivots


def _f_nullspace(fops: FieldOps, rows, pivots, t: int):
    """F-RREF (rows, pivots) of {s in F^t : sum_j s_j phi_j = 0 for every phi
    in `rows`}, for rows in F-RREF with leading columns `pivots`."""
    basis = []
    for f in range(t):
        if f not in pivots:
            s = [0] * t
            s[f] = fops.one
            for row, c in zip(rows, pivots):
                s[c] = fops.neg_t[row[f]]
            basis.append(s)
    return fops.f_rref(basis, t)


def _annihilator(G: SdGroup, W):
    """(phis, pivots): the F-RREF phi with W the common kernel of the pi_phi;
    MalformedInput unless W's rows are in F-RREF."""
    fops = G.module.fops
    return _f_nullspace(fops, W, _f_rref_pivots(fops, W, G.t), G.t)


def _rows(G: SdGroup, W, v: Vector) -> dict:
    """The rows of W * X^v: c is the sum over j of phi_j times the
    F-coordinates of v's j-th k-block, memoised per block on the module."""
    phis, pivots = G._memo("ann", W, _annihilator, G, W)
    module, k = G.module, G.k
    axpy, H = module.fops._add_multiple, module.group
    blocks = [H._memo("fcoords", b, module.fcoords, b)
              for b in (v[i:i + k] for i in range(0, G.wdim, k))]
    rows = {}
    for phi, j in zip(phis, pivots):
        c = (0,) * module.f_dim
        for a, x in zip(phi, blocks):
            if a:
                c = axpy(c, a, x)
        rows[j] = phi + c
    return rows


def _supplement_row(G: SdGroup, M: MaximalSupplement):
    """M's one row phi + c; MalformedInput unless M's submodule is maximal."""
    own = _rows(G, M.submodule, M.translate)
    if len(own) != 1:
        raise MalformedInput("M's submodule is not maximal")
    (row,) = own.values()
    return row


def _add_row(G: SdGroup, rows: dict, M: MaximalSupplement):
    """Add M's row to `rows` in place: the witness c when its phi reduces to
    zero, else None once it is kept."""
    row = G._memo("row", M, _supplement_row, G, M)
    fops, t = G.module.fops, G.t
    axpy, neg = fops._add_multiple, fops.neg_t
    for j, other in rows.items():
        if row[j]:
            row = axpy(row, neg[row[j]], other)
    for piv in range(t):
        if row[piv]:
            break
    else:
        return row[t:]
    if row[piv] != fops.one:
        scale = fops.mul_t[fops.inv_t[row[piv]]]
        row = tuple([scale[x] for x in row])
    for j, other in rows.items():
        if other[piv]:
            rows[j] = axpy(other, neg[other[piv]], row)
    rows[piv] = row
    return None


def _solution(G: SdGroup, rows: dict):
    """(U, v): U the common kernel of the rows and v the canonical translate
    with pi_phi(v) = c for each row phi + c: c on its pivot block of F-coordinates,
    reduced modulo U's F-RREF rows, is the one vector of v's coset zero on U's pivot blocks."""
    module, t, fops = G.module, G.t, G.module.fops
    axpy, neg, H = fops._add_multiple, fops.neg_t, module.group
    pivots = sorted(rows)
    phis = tuple([rows[j][:t] for j in pivots])
    U, u_pivots = G._memo("kernel", phis, _f_nullspace, fops, phis, pivots, t)
    blocks = [rows[j][t:] if j in rows else (0,) * module.f_dim for j in range(t)]
    # block j loses s_j times block c, for each row s of U with pivot c
    for s, c in zip(U, u_pivots):
        lead = blocks[c]
        if any(lead):
            blocks = [axpy(b, neg[a], lead) if a else b for a, b in zip(s, blocks)]
    return U, tuple([x for b in blocks for x in H._memo("vector", b, module.vector_of, b)])


def _pair_step(G: SdGroup, K: PartialIntersection, M: MaximalSupplement):
    """(spanning, (K cap M, witness)), from M's row added to K's rows."""
    rows = _rows(G, K.submodule, K.translate)
    z = _add_row(G, rows, M)
    if z is None:
        U, v = _solution(G, rows)
        return True, (PartialIntersection(U, K.h_mask, v), None)
    # z = 0 has no line and all of H as its centralizer; else its line is
    # z scaled by the inverse of its lead
    fops = G.module.fops
    lead = next((x for x in z if x), 0)
    lines = (tuple([fops.mul_t[fops.inv_t[lead]][x] for x in z]),) if lead else ()
    cen = centralizer_in_h(G, lines) & K.h_mask
    if cen == K.h_mask:
        return False, (K, None)
    return False, (PartialIntersection(K.submodule, cen, K.translate), lines[0])


def intersect_case_spanning(G: SdGroup, K: PartialIntersection,
                            M: MaximalSupplement) -> PartialIntersection:
    """K cap M when K's submodule and M's submodule together span V^t: the
    submodules intersect, the H-part stays, and the translate solves both
    cosets."""
    spanning, (out, _) = _pair_step(G, K, M)
    if not spanning:
        raise MalformedInput("submodules do not span V^t; use the nested case")
    return out


def intersect_case_nested(G: SdGroup, K: PartialIntersection, M: MaximalSupplement):
    """K cap M when K's submodule lies inside M's: the H-part shrinks to the
    centralizer of the witness z.

    Returns (descriptor, witness) where witness is the F-line of z as its
    one F-RREF row, or None when K is unchanged.
    """
    spanning, out = _pair_step(G, K, M)
    if spanning:
        raise MalformedInput("K's submodule is not inside M's; use the spanning case")
    return out


def intersect_supplement(G: SdGroup, K: PartialIntersection, M: MaximalSupplement):
    """K cap M in whichever case holds (they are exclusive and exhaustive),
    as (descriptor, witness)."""
    return _pair_step(G, K, M)[1]


def canonicalize_intersection(G: SdGroup, supplements) -> CanonicalIntersection:
    """Closed form (U, v, Z) of an intersection of maximal supplements: their
    rows reduced in order give U and v, and Z is the F-span of the witnesses,
    which are F-coordinates already, as their F-RREF."""
    ms = list(supplements)
    if not ms:
        raise MalformedInput("canonicalize_intersection requires a nonempty family")
    rows: dict = {}
    witnesses = [z for m in ms if (z := _add_row(G, rows, m)) is not None]
    return CanonicalIntersection(*_solution(G, rows),
                                 G.module.fops.f_rref(witnesses, G.module.f_dim)[0])


def realize_intersection(G: SdGroup, U, Z) -> list[MaximalSupplement]:
    """A family of exactly t* + d maximal supplements intersecting in
    U * C_H(Z), for U and Z given by their F-RREF rows over F^t and
    F^f_dim, where t* is the codimension of U over F and d = dim_F Z: the
    rows phi_i + 0 for the F-annihilator phi_1..phi_t* of U, then phi_1 + z
    for each F-RREF row z of Z, each read back as a supplement.  Rows not
    in F-RREF are MalformedInput: Z's here, U's in `_annihilator`."""
    module = G.module
    _f_rref_pivots(module.fops, Z, module.f_dim)
    U = tuple(map(tuple, U))
    phis, pivots = G._memo("ann", U, _annihilator, G, U)
    if not phis and Z:
        raise MalformedInput(
            "U = V^t admits no maximal submodule above it; cannot realize a nonzero Z")
    zero = (0,) * module.f_dim
    rows = [{j: phi + zero} for phi, j in zip(phis, pivots)]
    rows += [{pivots[0]: phis[0] + tuple(z)} for z in Z]
    family = [MaximalSupplement(*_solution(G, row)) for row in rows]
    if len(set(family)) != len(rows):
        raise AssertionError("realized family has duplicate descriptors")
    return family


def subgroup_equal(G: SdGroup, a: CanonicalIntersection, b: CanonicalIntersection) -> bool:
    """Exact subgroup equality of two canonical triples (algebraic: sizes,
    submodules, centralizers and translate congruence).  delta - delta^x lies in U
    for every x in C = C_H(Z), for delta the translates' difference, exactly when C
    fixes pi_phi(delta) for every row phi: the pi_phi are H-maps with common kernel U."""
    if a.submodule != b.submodule or len(a.z_space) != len(b.z_space):
        return False
    cen = centralizer_in_h(G, a.z_space)
    if cen != centralizer_in_h(G, b.z_space):
        return False
    delta = vec_sub(a.translate, b.translate, G.p)
    values = [row[G.t:] for row in _rows(G, a.submodule, delta).values()]
    return G.module.centralizer_of(values) & cen == cen


# ---------------------------------------------------------------------------
# oracle bridge


def embed_as_oracle(G: SdGroup) -> gr.OracleGroup:
    """`_embed` for G, refused above gr.DEFAULT_ORDER_CAP."""
    gr._check_embedding_order(G.order, gr.DEFAULT_ORDER_CAP)
    return _embed(G.p, G.k, G.t, G.module.elements, G.module.group, G.name)


def _embed(p: int, k: int, t: int, elements, H: gr.OracleGroup, name: str) -> gr.OracleGroup:
    """The oracle of V^t x| H, H over the ids of the matrices `elements`:
    (w, h) has id w_id(w) * |H| + h, where w_id reads the coordinates of w
    as base-p digits, first digit most significant, so the identity is 0."""
    wdim = k * t
    # a generator matrix m maps e_i to row i % k of m, placed in k-block i // k
    images = [[sum(x * p ** (wdim - 1 - (i - i % k + j)) for j, x in enumerate(m[i % k]))
               for i in range(wdim)]
              for m in (elements[g] for g in H.gens)]
    return gr.oracle_from_split_tables([p] * wdim, images, H, name)


# ---------------------------------------------------------------------------
# crowns (computed on oracle groups)


class ChiefFactorClass(namedtuple("ChiefFactorClass",
                                  "label prime dim action_matrices cosets maximals")):
    """A class of G-isomorphic complemented chief factors, carried by the
    maximal subgroups (masks) whose socle factor realizes it: the list
    `maximals` grows in place.  `action_matrices` is a list of matrices and
    `cosets` is gr.factor_action's table, each matrix -> the mask acting by it."""

    __slots__ = ()

    @property
    def centralizer(self) -> int:
        return self.cosets[mat_identity(self.dim)]

    @property
    def module_size(self) -> int:
        return self.prime**self.dim


CrownData = namedtuple("CrownData", "v_class centralizer core_r delta complement")
CrownData.__doc__ = """(C_G(V), R_G(V), delta, optional direct complement D with C = R x D), as
masks, for the ChiefFactorClass v_class of V."""


def chief_factor_classes(G: gr.OracleGroup) -> list[ChiefFactorClass]:
    """Complemented chief factor classes of a solvable G, grouped by exact
    G-module isomorphism, in the order of their first maximal.

    One chief series 1 = N_0 < ... < N_r = G is read off the normal
    subgroups (the classes of size 1, in lattice order): N_i is the
    least-order one strictly above N_(i-1).  A maximal M goes to the first
    factor whose top N_i is not inside M.  Then N_(i-1) <= M, G = M N_i, and
    M cap N_i is normal in M and (as N_i/N_(i-1) is abelian) in N_i, so in
    G; it lies between N_(i-1) and N_i and is not N_i, so it is N_(i-1).
    So N_(i-1) <= Y = core(M), N_i cap Y = N_(i-1), and N_i Y/Y, a normal
    subgroup of the primitive G/Y G-isomorphic to N_i/N_(i-1), is the
    socle: the action and centralizer are computed once per chief factor.
    Factors are irreducible, so by Schur's lemma any nonzero intertwiner
    between two of equal dimension is invertible: module_isomorphism with
    e = d decides their isomorphism."""
    series = [1]
    for s, size in gr.conjugacy_classes_of_subgroups(G):
        if size == 1 and s != series[-1] and s & series[-1] == series[-1]:
            series.append(s)
    classes: list[ChiefFactorClass] = []
    class_of: dict[int, ChiefFactorClass] = {}  # factor index -> its class
    for m in gr.maximal_subgroups(G):
        i = next(i for i, n in enumerate(series) if n & ~m)
        cls = class_of.get(i)
        if cls is None:
            p, d, mats, cosets = gr.factor_action(G, series[i], series[i - 1])
            c = cosets[mat_identity(d)]
            cls = next((known for known in classes
                        if (known.prime, known.dim, known.centralizer) == (p, d, c)
                        and module_isomorphism(known.action_matrices, mats, p, d, d) is not None),
                       None)
            if cls is None:
                cls = ChiefFactorClass(label=f"p{p}d{d}#{len(classes)}", prime=p, dim=d,
                                       action_matrices=mats, cosets=cosets, maximals=[])
                classes.append(cls)
            class_of[i] = cls
        cls.maximals.append(m)
    return classes


def crown(G: gr.OracleGroup, v_class: ChiefFactorClass) -> CrownData:
    """C = C_G(V), R = intersection of the maximals in the class, delta with
    |C:R| = |V|^delta, and the first direct normal complement D when one
    exists.  The normal subgroups are the classes of size 1 that the
    lattice lists, in lattice order."""
    r = (1 << G.n) - 1
    for m in v_class.maximals:
        r &= m
    c = v_class.centralizer
    if r & c != r:
        raise AssertionError("crown core is not inside the centralizer")
    normal = [s for s, size in gr.conjugacy_classes_of_subgroups(G) if size == 1]
    if r not in normal:
        raise AssertionError("crown core is not normal")
    target = c.bit_count() // r.bit_count()
    quotient = target
    size = v_class.module_size
    delta = 0
    while quotient > 1:
        if quotient % size:
            raise AssertionError("crown size |C:R| is not a power of |V|")
        quotient //= size
        delta += 1
    complement = next((s for s in normal
                       if s.bit_count() == target and not s & ~c and s & r == 1), None)
    return CrownData(v_class, c, r, delta, complement)


def crown_module_check(G: gr.OracleGroup, data: CrownData) -> bool:
    """Exact check that C/R is G-isomorphic to V^delta: sizes agree and the
    conjugation action on C/R is a sum of copies of the class action, so
    |C/R| = |V|^delta makes it delta copies."""
    cls = data.v_class
    p, d, delta = cls.prime, cls.dim, data.delta
    if data.centralizer.bit_count() != data.core_r.bit_count() * (p**d) ** delta:
        return False
    if delta == 0:
        return True
    # |C/R| = p^(d delta), so the factor's prime is p and its dimension d delta
    mats_c = gr.factor_action(G, data.centralizer, data.core_r)[2]
    return module_isomorphism(cls.action_matrices, mats_c, p, d, d * delta) is not None


def find_corona_crown(G: gr.OracleGroup) -> CrownData:
    """A crown with a nontrivial direct complement D (exists whenever the
    Frattini subgroup is trivial)."""
    if gr.frattini(G) != 1:
        raise MalformedInput("frattini-free: find_corona_crown requires Frattini(G) = 1")
    for cls in chief_factor_classes(G):
        data = crown(G, cls)
        if data.complement not in (None, 1):
            return data
    raise AssertionError("no crown with direct complement found in a Frattini-free group")


# ---------------------------------------------------------------------------
# randomized equivalence suite (seeded, deterministic)


def random_submodule(G: SdGroup, rng) -> tuple:
    """The F-RREF rows of a seeded random F-subspace of F^t."""
    fops = G.module.fops
    dim = rng.randrange(G.t + 1)
    rows = [tuple([rng.randrange(fops.q) for _ in range(G.t)]) for _ in range(dim)]
    return fops.f_rref(rows, G.t)[0]


def random_partial(G: SdGroup, rng) -> PartialIntersection:
    """W * X^v for a random W, X = <1 or 2 random seeds> and v; X's mask is
    memoised on H by its seeds."""
    w = random_submodule(G, rng)
    seeds = tuple([rng.randrange(G.module.order) for _ in range(rng.randrange(1, 3))])
    H = G.module.group
    x_mask = H._memo("seed_closure", seeds, _seed_closure, H, seeds)
    v = tuple([rng.randrange(G.p) for _ in range(G.wdim)])
    return PartialIntersection(w, x_mask, v)


def _seed_closure(H: gr.OracleGroup, seeds) -> int:
    """The mask of <seeds> in H, closed over H's memoised products."""
    x_set = gr._sorted_closure(seeds, lambda a, b: H._memo("hmul", (a, b), H.mul, a, b), 0)
    return sum(1 << x for x in x_set)


def random_case_suite(pool, pair_cases: int, family_cases: int, seed: int):
    """Seeded equivalence checks of the closed-form calculus against
    elementwise brute force.  Returns (pairs_checked, families_checked,
    failures) where failures is a list of diagnostics (empty on success)."""
    rng = random.Random(seed)
    failures = []
    supplements = {id(g): enumerate_maximal_supplements(g) for g in pool}
    for case in range(pair_cases):
        g = pool[rng.randrange(len(pool))]
        k_desc = random_partial(g, rng)
        m = supplements[id(g)][rng.randrange(len(supplements[id(g)]))]
        result, _witness = intersect_supplement(g, k_desc, m)
        brute = (partial_elements(g, k_desc)
                 & g._memo("supplement_mask", m, supplement_elements, g, m))
        if brute != partial_elements(g, result):
            failures.append(("pair", case, g.name))
    for case in range(family_cases):
        g = pool[rng.randrange(len(pool))]
        avail = supplements[id(g)]
        size = rng.randrange(1, FAMILY_MAX + 1)
        family = [avail[rng.randrange(len(avail))] for _ in range(size)]
        ci = canonicalize_intersection(g, family)
        brute = (1 << g.order) - 1
        for m in family:
            brute &= g._memo("supplement_mask", m, supplement_elements, g, m)
        if brute != canonical_elements(g, ci):
            failures.append(("family", case, g.name))
    return pair_cases, family_cases, failures


# ---------------------------------------------------------------------------
# group-spec ingestion (shared wire format with the CLI)


def oracle_from_spec(doc: dict, cap: int) -> gr.OracleGroup:
    """The oracle of V^t x| H from its structured document, with no module
    and no field built: SchemaError for shape problems, MalformedInput
    (named invariant) for group-theoretic ones, and ResourceCapExceeded for
    an order above min(cap, gr.LATTICE_ORDER_CEILING) or more subspaces
    than gr.LATTICE_CAP.  |G| >= |V^t| = p^(k t) >= 2^(k t), so V^t is
    weighed against that bound before H is closed, and p^(k t) is only
    taken for k t below the bound's bit length."""
    for key in ("p", "k", "t", "h_gens"):
        if key not in doc:
            raise SchemaError(f"sdp spec is missing '{key}'")
    p, k, t = doc["p"], doc["k"], doc["t"]
    if not (type(p) is int and is_prime(p)):
        raise SchemaError("p must be prime")
    if not (type(k) is int and k >= 1 and type(t) is int and t >= 0):
        raise SchemaError("k must be an integer >= 1 and t an integer >= 0")
    gens = doc["h_gens"]
    if not isinstance(gens, list) or not all(
        isinstance(g, list) and all(isinstance(r, list) and all(type(x) is int for x in r)
                                    for r in g) for g in gens
    ):
        raise SchemaError("h_gens must be a list of integer matrices")
    bound, limit = gr._embedding_bound(cap)
    if k * t >= bound.bit_length() or p ** (k * t) > bound:
        raise ResourceCapExceeded(f"oracle embedding of |V^t|={p}^{k * t} exceeds {limit}", bound)
    gens, elements, H = _matrix_group(p, k, gens)
    gr._check_embedding_order(p ** (k * t) * len(elements), cap)
    if not is_irreducible(gens, p, k):
        raise MalformedInput("irreducibility: H does not act irreducibly on V")
    # every F_p-subspace of V^t is a subgroup: F_p^m, m = kt, has G_m of
    # them, G_(j+1) = 2 G_j + (p^j - 1) G_(j-1), G_0 = 1, checked before any table
    below, subspaces = 0, 1
    for j in range(k * t):
        below, subspaces = subspaces, 2 * subspaces + (p**j - 1) * below
    if subspaces > gr.LATTICE_CAP:
        raise ResourceCapExceeded("subgroup lattice size", gr.LATTICE_CAP)
    return _embed(p, k, t, elements, H, doc.get("name") or f"V^{t}:{H.name}")
