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

from dataclasses import dataclass

from . import groups as gr
from .errors import (
    CaseDispatchError,
    MalformedInput,
    RealizationError,
    ResourceCapExceeded,
    SchemaError,
    ValidationError,
)
from .ffla import (
    EndField,
    FieldOps,
    FpSubspace,
    Matrix,
    Vector,
    endomorphism_field,
    is_prime,
    mat_identity,
    mat_inv,
    mat_mod,
    mat_mul,
    vec_add,
    vec_mat,
    vec_neg,
    vec_sub,
)

H_ORDER_CAP = 10000
# ffla.is_irreducible spins every line of F_p^k; the corpus and the benchmark
# catalogue use at most 7 lines (F_2^3)
IRREDUCIBILITY_LINE_CAP = 4096
# FieldOps tabulates |F|^2 sums and products of the endomorphism field F; the
# corpus and the benchmark catalogue reach |F| = 25 and the tests 7^3 = 343
FIELD_ORDER_CAP = 512
FVECTOR_ENUM_CAP = 200000
# a spec's V^t has p^(k t) >= 2^(k t) elements, too many for any order cap
# that fits in memory once k t passes this
SPEC_DIMENSION_CAP = 64


# ---------------------------------------------------------------------------
# the acting module


class HModule:
    """A solvable matrix group H <= GL(k, p) acting faithfully and
    irreducibly on V = F_p^k, with its endomorphism field."""

    def __init__(self, p, k, gens, elements, field, fops, f_basis, name):
        self.p = p
        self.k = k
        self.gens = gens
        self.elements = elements  # identity first, rest sorted by entries
        self.index = {m: i for i, m in enumerate(elements)}
        self.gen_indices = tuple(self.index[g] for g in gens)
        self.field: EndField = field
        self.fops: FieldOps = fops
        self.f_basis = f_basis  # F-basis of V, deterministic
        self.f_dim = k // field.degree
        self.name = name
        self._oracle = None

    @classmethod
    def create(cls, p: int, k: int, gens, name: str = "H", max_order: int = H_ORDER_CAP):
        gens = tuple(mat_mod(g, p) for g in gens)
        for g in gens:
            if len(g) != k or any(len(row) != k for row in g):
                raise MalformedInput(f"generator is not {k}x{k}")
            mat_inv(g, p)  # raises on singular input
        # F contains F_p, so a large p is refused before F is even computed
        if p > FIELD_ORDER_CAP:
            raise ResourceCapExceeded("order of the endomorphism field of V", FIELD_ORDER_CAP)
        cap = IRREDUCIBILITY_LINE_CAP
        # F_p^k has at least 2^k - 1 lines, so p**k is only taken for small k
        if k > cap.bit_length() or (p**k - 1) // (p - 1) > cap:
            raise ResourceCapExceeded("irreducibility test lines of F_p^k", cap)
        identity = mat_identity(k)
        elems = gr._closure_of_objects(gens or (identity,), lambda a, b: mat_mul(a, b, p),
                                       identity, max_order)
        elements = (identity,) + tuple(sorted(e for e in elems if e != identity))
        # raises ValidationError("irreducibility") unless every line spins to V
        field = endomorphism_field(gens or (identity,), p, k)
        # faithfulness is structural for matrix groups: the only element
        # acting trivially is the identity matrix itself
        if not _matrix_group_solvable(gens, p, k, max_order):
            raise ValidationError("solvability", "H is not solvable")
        if field.order > FIELD_ORDER_CAP:
            raise ResourceCapExceeded("order of the endomorphism field of V", FIELD_ORDER_CAP)
        fops = FieldOps(field)
        f_basis = _f_basis_of_v(p, k, fops)
        return cls(p, k, gens, elements, field, fops, f_basis, name)

    @property
    def order(self) -> int:
        return len(self.elements)

    def act(self, v: Vector, h_idx: int) -> Vector:
        return vec_mat(v, self.elements[h_idx], self.p)

    def mul_idx(self, i: int, j: int) -> int:
        return self.index[mat_mul(self.elements[i], self.elements[j], self.p)]

    def inv_idx(self, i: int) -> int:
        return self.index[mat_inv(self.elements[i], self.p)]

    def centralizer_of(self, vectors) -> tuple[int, ...]:
        vs = [v for v in vectors if any(v)]
        return tuple(
            i for i in range(self.order) if all(self.act(v, i) == v for v in vs)
        )

    def to_oracle(self) -> gr.OracleGroup:
        if self._oracle is None:
            p = self.p

            def mul(a, b):
                return mat_mul(a, b, p)

            self._oracle = gr.from_elements(
                list(self.elements), mul, f"{self.name}-oracle",
                gen_elems=list(self.gens) or [self.elements[0]],
            )
        return self._oracle

    def v_subspace_from_fcoords(self, frows) -> FpSubspace:
        """F-subspace of V given by RREF rows over F^{f_dim} (via f_basis)."""
        vectors = []
        for row in frows:
            v = (0,) * self.k
            for pos, idx in enumerate(row):
                if idx:
                    v = vec_add(v, self.fops.act(self.f_basis[pos], idx), self.p)
            for m in self.field.basis:
                vectors.append(vec_mat(v, m, self.p))
        return FpSubspace.from_vectors(self.p, self.k, vectors)


def _matrix_group_solvable(gens, p, k, cap) -> bool:
    """Whether <gens> is solvable: walk the derived series until it reaches 1
    or stops shrinking.  The next term is the normal closure of the current
    generators' commutators, generated by the commutators and conjugates
    that enlarge it (so each kept generator at least doubles it)."""
    identity = mat_identity(k)

    def mul(a, b):
        return mat_mul(a, b, p)

    current = list(gens)
    order = len(gr._closure_of_objects(current, mul, identity, cap))
    while order > 1:
        pairs = [(g, mat_inv(g, p)) for g in current]
        kept, members = [], {identity}
        candidates = [mul(mul(ai, bi), mul(a, b)) for a, ai in pairs for b, bi in pairs]
        while candidates:
            for c in candidates:
                if c not in members:
                    kept.append(c)
                    members = set(gr._closure_of_objects(kept, mul, identity, cap))
            candidates = [y for x in kept for g, gi in pairs
                          if (y := mul(mul(gi, x), g)) not in members]
        if len(members) == order:
            return False
        current, order = kept, len(members)
    return True


def _f_basis_of_v(p, k, fops: FieldOps):
    """Greedy F-basis of V from standard vectors (deterministic)."""
    basis = []
    span = FpSubspace.zero(p, k)
    for i in range(k):
        e = tuple(1 if j == i else 0 for j in range(k))
        if not span.contains(e):
            basis.append(e)
            rows = list(span.basis)
            for m in fops.field.basis:
                rows.append(vec_mat(e, m, p))
            span = FpSubspace.from_vectors(p, k, rows)
    return tuple(basis)


# ---------------------------------------------------------------------------
# the semidirect product


class SdGroup:
    """G = V^t x| H with diagonal action of H on the t factors."""

    def __init__(self, module: HModule, t: int, name: str | None = None):
        if t < 0:
            raise MalformedInput("multiplicity t must be nonnegative")
        self.module = module
        self.t = t
        self.p = module.p
        self.k = module.k
        self.wdim = module.k * t
        self.order = module.p ** self.wdim * module.order
        self.name = name or f"V^{t}:{module.name}"
        self._cache: dict = {}

    @classmethod
    def create(cls, p: int, k: int, t: int, h_gens, name: str | None = None) -> "SdGroup":
        return cls(HModule.create(p, k, h_gens, name=f"H<GL({k},{p})"), t, name=name)

    # -- arithmetic on group elements ((w, h_idx) pairs)

    def _memo(self, table: str, key, compute, *args):
        """compute(*args), memoised under `key` in table `table` of
        `_cache`.  The memos live as long as the group, and the CLI builds
        its groups afresh for every request."""
        memo = self._cache.setdefault(table, {})
        try:
            return memo[key]
        except KeyError:
            out = memo[key] = compute(*args)
            return out

    def act_w(self, w: Vector, h_idx: int) -> Vector:
        # the image under h of each k-block of V met so far, by block
        images = self._memo("act", h_idx, dict)
        k = self.k
        out = ()
        for b in range(0, self.wdim, k):
            block = w[b:b + k]
            image = images.get(block)
            if image is None:
                image = images[block] = vec_mat(block, self.module.elements[h_idx], self.p)
            out += image
        return out

    def _fixers(self, vectors, h_indices) -> tuple[int, ...]:
        """The x in h_indices, in their order, fixing every given vector of V."""
        out = []
        for x in h_indices:
            images = self._memo("act", x, dict)
            for v in vectors:
                image = images.get(v)
                if image is None:
                    image = images[v] = vec_mat(v, self.module.elements[x], self.p)
                if image != v:
                    break
            else:
                out.append(x)
        return tuple(out)

    def mul(self, a, b):
        w1, h1 = a
        w2, h2 = b
        return (vec_add(self.act_w(w1, h2), w2, self.p), self.module.mul_idx(h1, h2))

    def inverse(self, a):
        w, h = a
        hi = self.module.inv_idx(h)
        return (vec_neg(self.act_w(w, hi), self.p), hi)

    def zero_w(self) -> Vector:
        return (0,) * self.wdim

    def full_w_space(self) -> FpSubspace:
        return self._memo("full", None, FpSubspace.full, self.p, self.wdim)

    # -- submodules of V^t via F-subspaces of F^t

    def submodule_from_fvectors(self, frows) -> FpSubspace:
        """H-submodule of V^t spanned by the images of V under the maps
        x -> (x*s_1, ..., x*s_t), s running over the given F^t rows."""
        return self._memo("fspan", tuple(frows), self._span_fvectors, frows)

    def _span_fvectors(self, frows) -> FpSubspace:
        # e_j * s_i is row j of the matrix of s_i
        elements = self.module.fops.elements
        vectors = [tuple(x for idx in s for x in elements[idx][j])
                   for s in frows for j in range(self.k)]
        return FpSubspace.from_vectors(self.p, self.wdim, vectors)

    def fvectors_of_submodule(self, W: FpSubspace):
        """F-RREF basis of the F-subspace of F^t corresponding to W; raises
        if W is not an H-submodule of V^t.  Results are cached per W."""
        return self._memo("fvec", W, self._fvectors_of, W)

    def _fvectors_of(self, W: FpSubspace):
        fops = self.module.fops
        q, t, k = fops.q, self.t, self.k
        if q**t > FVECTOR_ENUM_CAP:
            raise ResourceCapExceeded("F^t vector enumeration", FVECTOR_ENUM_CAP)
        from itertools import product as iter_product

        elements = fops.elements
        members = [s for s in iter_product(range(q), repeat=t)
                   if all(W.contains(tuple(x for idx in s for x in elements[idx][j]))
                          for j in range(k))]
        rows, _ = fops.f_rref(members, t)
        if self.submodule_from_fvectors(rows) != W:
            raise RealizationError("subspace is not an H-submodule of V^t")
        return rows

    def maximal_submodules(self) -> list[FpSubspace]:
        cached = self._cache.get("maximal_submodules")
        if cached is None:
            fops = self.module.fops
            fvec_cache = self._cache.setdefault("fvec", {})
            cached = []
            for rows in fops.hyperplanes(self.t):
                w = self.submodule_from_fvectors(rows)
                fvec_cache.setdefault(w, rows)
                cached.append(w)
            self._cache["maximal_submodules"] = cached
        return list(cached)

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
            return self.full_w_space()
        return W


# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class MaximalSupplement:
    """M = W * H^v with W a maximal H-submodule of V^t; the translate is the
    canonical coset representative, so descriptor equality is subgroup
    equality."""

    submodule: FpSubspace
    translate: Vector


@dataclass(frozen=True)
class PartialIntersection:
    """A subgroup W * X^v with X <= H given by sorted element indices."""

    submodule: FpSubspace
    h_indices: tuple[int, ...]
    translate: Vector


@dataclass(frozen=True)
class CanonicalIntersection:
    """The triple (U, v, Z) representing U * C_{H^v}(Z)."""

    submodule: FpSubspace
    translate: Vector
    z_space: FpSubspace


def enumerate_maximal_supplements(G: SdGroup) -> list[MaximalSupplement]:
    """All maximal subgroups of G supplementing V^t, deduplicated by
    canonical descriptor."""
    from itertools import product as iter_product

    out = []
    seen = set()
    p = G.p
    for W in G.maximal_submodules():
        if G.wdim and (G.order // (W.size() * G.module.order)) != p ** G.k:
            raise AssertionError("maximal supplement index is not |V|")
        fixed = G.fixed_space_over(W)
        free_positions = W.free_columns
        for fill in iter_product(range(p), repeat=len(free_positions)):
            v = [0] * G.wdim
            for c, val in zip(free_positions, fill):
                v[c] = val
            canon = fixed.reduce(tuple(v))
            key = (W, canon)
            if key not in seen:
                seen.add(key)
                out.append(MaximalSupplement(W, canon))
    return out


def descriptor_elements(G: SdGroup, submodule: FpSubspace, h_indices, translate) -> int:
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
    """
    p, n, h_order = G.p, G.wdim, G.module.order
    steps = [p ** (n - 1 - i) * h_order for i in range(n)]
    ones = (1 << G.order) - 1
    # low[i][c]: the ids whose digit i is below p - c (c = 0 is unused)
    low = [[0] + [((1 << (p - c) * b) - 1) * (ones // ((1 << p * b) - 1)) for c in range(1, p)]
           for b in steps]

    def move(mask: int, d: Vector) -> int:
        for i, c in enumerate(d):
            if c:
                b, lo = steps[i], low[i][c]
                mask = ((mask & lo) << c * b) | ((mask & ~lo) >> (p - c) * b)
        return mask

    u_mask = 1
    for row in submodule.basis:
        cur = acc = u_mask
        for _ in range(p - 1):
            cur = move(cur, row)
            acc |= cur
        u_mask = acc
    # U_mask << x for every x sharing a shift is U_mask times their h bits
    h_bits_by_shift: dict = {}
    for x in h_indices:
        shift = vec_sub(translate, G.act_w(translate, x), p)
        h_bits_by_shift[shift] = h_bits_by_shift.get(shift, 0) | 1 << x
    out = 0
    for shift, h_bits in h_bits_by_shift.items():
        out |= move(u_mask * h_bits, shift)
    return out


def supplement_elements(G: SdGroup, M: MaximalSupplement) -> int:
    return descriptor_elements(G, M.submodule, range(G.module.order), M.translate)


def partial_elements(G: SdGroup, K: PartialIntersection) -> int:
    return descriptor_elements(G, K.submodule, K.h_indices, K.translate)


def canonical_elements(G: SdGroup, ci: CanonicalIntersection) -> int:
    cen = centralizer_in_h(G, ci.z_space)
    return descriptor_elements(G, ci.submodule, cen, ci.translate)


def centralizer_in_h(G: SdGroup, z_space: FpSubspace) -> tuple[int, ...]:
    return G._memo("centralizer", z_space, G._fixers, z_space.basis, range(G.module.order))


# ---------------------------------------------------------------------------
# the intersection calculus


def _split(G: SdGroup, W1: FpSubspace, W2: FpSubspace):
    """W1.split_over(W2), memoised per pair: (W1 cap W2, lifts).  V^t/W2 is
    isomorphic to the irreducible V for a maximal W2, so W1 maps onto 0
    (nested case, no lifts) or onto all of it (spanning case, one lift per
    free column of W2); any other rank means W2 is not maximal."""
    meet, lifts = G._memo("split", (W1, W2), W1.split_over, W2)
    if lifts and len(lifts) != G.wdim - W2.dim:
        raise AssertionError("case dispatch totality violated (M not maximal?)")
    return meet, lifts


def intersect_case_spanning(G: SdGroup, K: PartialIntersection,
                            M: MaximalSupplement) -> PartialIntersection:
    """K cap M when K's submodule and M's submodule together span V^t:
    the submodules intersect and the translate shifts inside K's submodule.

    With pi the quotient map of `FpSubspace.split_over`, b = sum_i
    pi(d)_i l_i lies in W1 and d - b in W2 for d = K.translate - M.translate,
    and b is fixed modulo W1 cap W2, so the new translate is canonical."""
    W1, W2 = K.submodule, M.submodule
    meet, lifts = _split(G, W1, W2)
    if not lifts:
        raise CaseDispatchError("submodules do not span V^t; use the nested case")
    p = G.p
    image = W2.reduce(vec_sub(K.translate, M.translate, p))
    v = K.translate
    for c, lift in zip(W2.free_columns, lifts):
        f = image[c]
        if f:
            v = tuple((x - f * y) % p for x, y in zip(v, lift))
    return PartialIntersection(meet, K.h_indices, meet.reduce(v))


def intersect_case_nested(G: SdGroup, K: PartialIntersection, M: MaximalSupplement):
    """K cap M when K's submodule lies inside M's: the H-part shrinks to the
    centralizer of the z in V with M.translate - K.translate - iota(z) in
    M's submodule, iota the embedding of V along a complement line.

    Returns (descriptor, witness) where witness is the canonical F-line
    representative of z, or None when K is unchanged.
    """
    W1, W2 = K.submodule, M.submodule
    if _split(G, W1, W2)[1]:
        raise CaseDispatchError("K's submodule is not inside M's; use the spanning case")
    free, p_inv = G._memo("line", W2, _complement_line, G, W2)
    image = W2.reduce(vec_sub(M.translate, K.translate, G.p))
    z = vec_mat(tuple(image[c] for c in free), p_inv, G.p)
    cen = G._fixers((z,), K.h_indices)
    if len(cen) == len(K.h_indices):
        return K, None
    return PartialIntersection(W1, cen, K.translate), G._memo(
        "line_rep", z, G.module.fops.canonical_line_rep, z)


def _complement_line(G: SdGroup, W2: FpSubspace):
    """W2's free columns and P^-1 for a maximal submodule W2.  The F-line l
    spanning the standard complement of W2 over F embeds V as iota(z) =
    (z*l_1, ..., z*l_t), a complement of W2; row i of P is pi(iota(e_i)),
    with pi(x) = W2.reduce(x) read on the free columns, so z = pi(d) P^-1
    is the z with d - iota(z) in W2."""
    comp = G.module.fops.f_complement(G.fvectors_of_submodule(W2), G.t)
    if len(comp) != 1:
        raise CaseDispatchError("M's submodule is not maximal")
    free = W2.free_columns
    rows = []
    for e in mat_identity(G.k):
        image = W2.reduce(_line_embedding(G, comp[0], e))
        rows.append(tuple(image[c] for c in free))
    return free, mat_inv(tuple(rows), G.p)


def intersect_supplement(G: SdGroup, K: PartialIntersection, M: MaximalSupplement):
    """Dispatch on the (always exclusive, always exhaustive) case split."""
    if _split(G, K.submodule, M.submodule)[1]:
        return intersect_case_spanning(G, K, M), None
    return intersect_case_nested(G, K, M)


def canonicalize_intersection(G: SdGroup, supplements) -> CanonicalIntersection:
    """Closed form (U, v, Z) of an intersection of maximal supplements.

    First the descriptors whose submodule does not contain the running
    intersection are folded in (the submodule strictly decreases); the
    remaining ones only shrink the H-part, accumulating the F-span Z of
    their witnesses.
    """
    ms = list(supplements)
    if not ms:
        raise MalformedInput("canonicalize_intersection requires a nonempty family")
    cur = PartialIntersection(G.full_w_space(), tuple(range(G.module.order)), G.zero_w())
    pending = ms
    progress = True
    while progress:
        progress = False
        for i, m in enumerate(pending):
            if _split(G, cur.submodule, m.submodule)[1]:
                cur = intersect_case_spanning(G, cur, m)
                pending.pop(i)
                progress = True
                break
    witnesses = []
    for m in pending:
        cur, z = intersect_case_nested(G, cur, m)
        if z is not None:
            witnesses.append(z)
    fops = G.module.fops
    z_space = fops.f_closure(witnesses) if witnesses else FpSubspace.zero(G.p, G.k)
    if tuple(sorted(cur.h_indices)) != centralizer_in_h(G, z_space):
        raise AssertionError("H-part does not match the centralizer of Z")
    return CanonicalIntersection(cur.submodule, cur.submodule.reduce(cur.translate), z_space)


def realize_intersection(G: SdGroup, U: FpSubspace, Z: FpSubspace) -> list[MaximalSupplement]:
    """A family of exactly t* + d maximal supplements intersecting in
    U * C_H(Z), where t* is the codimension of U over F and d = dim_F Z."""
    fops = G.module.fops
    if fops.f_closure(Z.basis) != Z:
        raise MalformedInput("Z is not closed under the endomorphism field")
    s_u = G.fvectors_of_submodule(U)
    comp = fops.f_complement(s_u, G.t)
    t_star = len(comp)
    z_basis = _f_basis_of_subspace(G.module, Z)
    d = len(z_basis)
    if t_star == 0:
        if d > 0:
            raise RealizationError(
                "U = V^t admits no maximal submodule above it; cannot realize a nonzero Z"
            )
        return []
    family = []
    for i in range(t_star):
        rows = list(s_u) + [c for j, c in enumerate(comp) if j != i]
        red, _ = fops.f_rref(rows, G.t)
        w_i = G.submodule_from_fvectors(red)
        family.append(MaximalSupplement(w_i, G.zero_w()))
    if d:
        a_sub = family[0].submodule
        line = comp[0]
        fixed = G.fixed_space_over(a_sub)
        for z in z_basis:
            b = _line_embedding(G, line, z)
            family.append(MaximalSupplement(a_sub, fixed.reduce(b)))
    if len(set(family)) != t_star + d:
        raise AssertionError("realized family has duplicate descriptors")
    return family


def _line_embedding(G: SdGroup, line, z: Vector) -> Vector:
    fops = G.module.fops
    w: list[int] = []
    for idx in line:
        w.extend(fops.act(z, idx))
    return tuple(w)


def _f_basis_of_subspace(module: HModule, Z: FpSubspace) -> list[Vector]:
    """Greedy F-basis extraction from an F-closed subspace of V."""
    basis: list[Vector] = []
    span = FpSubspace.zero(module.p, module.k)
    for row in Z.basis:
        if not span.contains(row):
            basis.append(row)
            span = module.fops.f_closure(basis)
    if span != Z:
        raise MalformedInput("Z basis extraction failed (Z not F-closed?)")
    return basis


def subgroup_equal(G: SdGroup, a: CanonicalIntersection, b: CanonicalIntersection) -> bool:
    """Exact subgroup equality of two canonical triples (algebraic: sizes,
    submodules, centralizers and translate congruence)."""
    if a.submodule != b.submodule or a.z_space.dim != b.z_space.dim:
        return False
    cen_a = centralizer_in_h(G, a.z_space)
    cen_b = centralizer_in_h(G, b.z_space)
    if cen_a != cen_b:
        return False
    delta = vec_sub(a.translate, b.translate, G.p)
    return all(
        a.submodule.contains(vec_sub(delta, G.act_w(delta, x), G.p)) for x in cen_a
    )


# ---------------------------------------------------------------------------
# oracle bridge


def embed_as_oracle(G: SdGroup, cap: int = gr.DEFAULT_ORDER_CAP):
    """Explicit OracleGroup for G plus the element encoder.

    Element ids enumerate (w, h) with w in lexicographic digit order and h
    in the canonical H order, so the identity gets id 0.
    """
    gr._check_embedding_order(G.order, cap)
    p, wdim = G.p, G.wdim
    h_size = G.module.order

    def w_id(w: Vector) -> int:
        out = 0
        for x in w:
            out = out * p + x
        return out

    units = [tuple(1 if j == i else 0 for j in range(wdim)) for i in range(wdim)]
    images = [[w_id(G.act_w(e, h)) for e in units] for h in range(h_size)]
    hmul = [[G.module.mul_idx(i, j) for j in range(h_size)] for i in range(h_size)]
    oracle = gr.oracle_from_split_tables([p] * wdim, images, hmul, G.name,
                                         h_gens=[g for g in G.module.gen_indices if g])

    def encode(w: Vector, h_idx: int) -> int:
        return w_id(w) * h_size + h_idx

    return oracle, encode


# ---------------------------------------------------------------------------
# crowns (computed on oracle groups)


@dataclass
class ChiefFactorClass:
    """A class of G-isomorphic complemented chief factors, carried by the
    maximal subgroups whose socle factor realizes it."""

    label: str
    prime: int
    dim: int
    rep_core: gr.Subgroup
    rep_socle: gr.Subgroup
    action_matrices: list[Matrix]
    centralizer: gr.Subgroup
    maximals: list[gr.Subgroup]

    @property
    def module_size(self) -> int:
        return self.prime**self.dim


@dataclass
class CrownData:
    """(C_G(V), R_G(V), delta, optional direct complement D with C = R x D)."""

    v_class: ChiefFactorClass
    centralizer: gr.Subgroup
    core_r: gr.Subgroup
    delta: int
    complement: gr.Subgroup | None


def chief_factor_classes(G: gr.OracleGroup) -> list[ChiefFactorClass]:
    """Complemented chief factor classes of a solvable G, from its maximal
    subgroups, grouped by exact G-module isomorphism."""
    from .ffla import module_isomorphism

    cached = G._cache.get("crown_classes")
    if cached is not None:
        return cached
    classes: list[ChiefFactorClass] = []
    # conjugate maximals share their core Y and socle X, so the action on
    # X/Y and its centralizer are memoised per (Y, X) pair
    steps = G._cache.setdefault("factor_action_by_pair", {})
    for m in gr.maximal_subgroups(G):
        y, x = gr.core_and_socle(m, G)
        pair = (y.mask, x.mask)
        if pair not in steps:
            steps[pair] = (*gr.action_on_factor(G, x, y, G.gens),
                           gr.centralizer_of_factor(G, x, y))
        p, d, mats, c = steps[pair]
        placed = False
        for cls in classes:
            if cls.prime != p or cls.dim != d or cls.centralizer.mask != c.mask:
                continue
            full = FpSubspace.full(p, d)
            if module_isomorphism(full, cls.action_matrices, full, mats) is not None:
                cls.maximals.append(m)
                placed = True
                break
        if not placed:
            classes.append(
                ChiefFactorClass(
                    label=f"p{p}d{d}#{len(classes)}",
                    prime=p,
                    dim=d,
                    rep_core=y,
                    rep_socle=x,
                    action_matrices=mats,
                    centralizer=c,
                    maximals=[m],
                )
            )
    G._cache["crown_classes"] = classes
    return classes


def crown(G: gr.OracleGroup, v_class: ChiefFactorClass) -> CrownData:
    """C = C_G(V), R = intersection of the maximals in the class, delta with
    |C:R| = |V|^delta, and a direct normal complement D when one exists."""
    r_mask = (1 << G.n) - 1
    for m in v_class.maximals:
        r_mask &= m.mask
    r = gr.Subgroup(G, r_mask)
    c = v_class.centralizer
    if r.mask & c.mask != r.mask:
        raise AssertionError("crown core is not inside the centralizer")
    if not gr._is_normal(G, r.mask):
        raise AssertionError("crown core is not normal")
    quotient = c.order // r.order
    size = v_class.module_size
    delta = 0
    while quotient > 1:
        if quotient % size:
            raise AssertionError("crown size |C:R| is not a power of |V|")
        quotient //= size
        delta += 1
    complement = None
    target = c.order // r.order
    for s in gr.all_subgroups(G):
        if s.order != target or s.mask & ~c.mask or (s.mask & r.mask) != 1:
            continue
        if gr._is_normal(G, s.mask):
            complement = s
            break
    return CrownData(v_class, c, r, delta, complement)


def crown_module_check(G: gr.OracleGroup, data: CrownData) -> bool:
    """Exact check that C/R is G-isomorphic to V^delta: sizes agree and the
    conjugation action on C/R is equivalent to the delta-fold diagonal of
    the class action."""
    from .ffla import module_isomorphism

    cls = data.v_class
    p, d, delta = cls.prime, cls.dim, data.delta
    if data.centralizer.order != data.core_r.order * (p**d) ** delta:
        return False
    if delta == 0:
        return True
    pc, dc, mats_c = gr.action_on_factor(G, data.centralizer, data.core_r)
    if pc != p or dc != d * delta:
        return False
    big = []
    for m in cls.action_matrices:
        rows = []
        for block in range(delta):
            for i in range(d):
                row = [0] * (d * delta)
                for j in range(d):
                    row[block * d + j] = m[i][j]
                rows.append(tuple(row))
        big.append(tuple(rows))
    full = FpSubspace.full(p, d * delta)
    return module_isomorphism(full, mats_c, full, big) is not None


def find_corona_crown(G: gr.OracleGroup) -> CrownData:
    """A crown with a nontrivial direct complement D (exists whenever the
    Frattini subgroup is trivial)."""
    if gr.frattini(G).order != 1:
        raise ValidationError("frattini-free", "find_corona_crown requires Frattini(G) = 1")
    for cls in chief_factor_classes(G):
        data = crown(G, cls)
        if data.complement is not None and data.complement.order > 1:
            return data
    raise AssertionError("no crown with direct complement found in a Frattini-free group")


# ---------------------------------------------------------------------------
# randomized equivalence suite (seeded, deterministic)


def random_submodule(G: SdGroup, rng) -> FpSubspace:
    fops = G.module.fops
    dim = rng.randrange(G.t + 1)
    rows = [tuple(rng.randrange(fops.q) for _ in range(G.t)) for _ in range(dim)]
    red, _ = fops.f_rref(rows, G.t)
    return G.submodule_from_fvectors(red)


def random_partial(G: SdGroup, rng) -> PartialIntersection:
    w = random_submodule(G, rng)
    seeds = [rng.randrange(G.module.order) for _ in range(rng.randrange(1, 3))]
    x_set = gr._closure_of_objects(
        seeds, lambda a, b: G._memo("hmul", (a, b), G.module.mul_idx, a, b), 0)
    v = tuple(rng.randrange(G.p) for _ in range(G.wdim))
    return PartialIntersection(w, tuple(sorted(x_set)), v)


def random_case_suite(pool, pair_cases: int, family_cases: int, seed: int,
                      family_max: int = 5):
    """Seeded equivalence checks of the closed-form calculus against
    elementwise brute force.  Returns (pairs_checked, families_checked,
    failures) where failures is a list of diagnostics (empty on success)."""
    import random as _random

    rng = _random.Random(seed)
    failures = []
    supplements = {id(g): enumerate_maximal_supplements(g) for g in pool}
    # element masks of the supplements drawn so far, per group and descriptor
    masks: dict = {id(g): {} for g in pool}

    def supplement_mask(g, m):
        mask = masks[id(g)].get(m)
        if mask is None:
            mask = masks[id(g)][m] = supplement_elements(g, m)
        return mask

    for case in range(pair_cases):
        g = pool[rng.randrange(len(pool))]
        k_desc = random_partial(g, rng)
        m = supplements[id(g)][rng.randrange(len(supplements[id(g)]))]
        result, _witness = intersect_supplement(g, k_desc, m)
        brute = partial_elements(g, k_desc) & supplement_mask(g, m)
        if brute != partial_elements(g, result):
            failures.append(("pair", case, g.name))
    for case in range(family_cases):
        g = pool[rng.randrange(len(pool))]
        avail = supplements[id(g)]
        size = rng.randrange(1, family_max + 1)
        family = [avail[rng.randrange(len(avail))] for _ in range(size)]
        ci = canonicalize_intersection(g, family)
        brute = supplement_mask(g, family[0])
        for m in family[1:]:
            brute &= supplement_mask(g, m)
        if brute != canonical_elements(g, ci):
            failures.append(("family", case, g.name))
    return pair_cases, family_cases, failures


# ---------------------------------------------------------------------------
# group-spec ingestion (shared wire format with the CLI)


def sdgroup_from_spec(doc: dict) -> SdGroup:
    """Build and validate an SdGroup from its structured document; raises
    SchemaError for shape problems and ValidationError (named invariant)
    for group-theoretic ones."""
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
    if k * t > SPEC_DIMENSION_CAP:
        raise ResourceCapExceeded("dimension k*t of V^t", SPEC_DIMENSION_CAP)
    mats = [tuple(tuple(row) for row in g) for g in gens]
    return SdGroup.create(p, k, t, mats, name=doc.get("name"))
