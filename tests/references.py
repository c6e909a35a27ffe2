"""Reference implementations shared by the tests.

The package no longer needs these: subspace sums, meets, decompositions
and containment, the zero subspace and the list of a subspace's vectors,
the lower central series test, the enumeration of every F-subspace of
F^t, adding and scaling vectors, the inverse of an oracle element, the
chief-factor action and centralizer one element at a time, integer roots
and logarithms by bisection, the least eta product over every family of
maximals, the gamma of a module by a scan of every F-subspace for every
F-subspace, and the tower's element tuples ((a_1, ..., a_n), e) with
their action and ids, closures, greedy generators, derived series and
normal closures closed from scratch, the H-submodule of a split
product's W that the sum of its unit vectors generates, closed from its
conjugates, the law and inverses of a split product with W added digit
by digit, and the count tables tested one subgroup at a time, the order
of an element, the action of H on V^t, the product and the inverse in
V^t x| H, the F_p-span of the F-multiples of vectors of V, the F-RREF
check of rows by their leading columns and then every row against every
leading column, the module isomorphism search over the intertwiners in
lexicographic order and the crown check built on it, the tables of a
field by matrix products, sums and an inverse scan, the product
table and inverses of a matrix group by the same, the spin of a
vector by a queue refilled with each new RREF basis, and the products
v * M and A * B by index loops, which every reference here uses.
The tests keep them to build independent references and test data, with
a counter of the law calls an oracle makes.
"""

from contextlib import contextmanager
from itertools import product

from solvint import groups as gr
from solvint import tower
from solvint.errors import MalformedInput, ResourceCapExceeded
from solvint.ffla import (FpSubspace, _rref, express_in_rows, mat_add, mat_identity, mat_scale,
                          nullspace, vec_sub)


def reference_vec_mat(v, m, p: int):
    """v * m over F_p, by index loops over the entries."""
    cols = len(m[0]) if m else 0
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) % p for j in range(cols))


def reference_mat_mul(a, b, p: int):
    """a * b over F_p, by index loops over the entries."""
    n = len(b)
    cols = len(b[0]) if b else 0
    return tuple(tuple(sum(row[i] * b[i][j] for i in range(n)) % p for j in range(cols))
                 for row in a)


def reference_spin(seed, generators, p: int) -> FpSubspace:
    """The smallest generator-invariant subspace containing `seed`, by a
    queue of basis vectors that is refilled with the whole new RREF basis
    each time an image leaves the span."""
    if not any(x % p for x in seed):
        raise MalformedInput("spin requires a nonzero seed vector")
    n = len(seed)
    space = FpSubspace.from_vectors(p, n, [seed])
    queue = list(space.basis)
    while queue:
        v = queue.pop()
        for g in generators:
            w = reference_vec_mat(v, g, p)
            if not space.contains(w):
                space = FpSubspace.from_vectors(p, n, space.basis + (w,))
                queue.extend(space.basis)
                break
        if space.dim == n:
            break
    return space


def vec_add(u, v, p):
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_scale(u, c, p):
    return tuple((a * c) % p for a in u)


def zero_subspace(p: int, ambient_dim: int) -> FpSubspace:
    return FpSubspace(p, ambient_dim, (), ())


def subspace_vectors(s: FpSubspace):
    """All elements of s, in lexicographic coefficient order over the basis."""
    p, n = s.p, s.ambient_dim
    for coeffs in product(range(p), repeat=s.dim):
        v = [0] * n
        for c, row in zip(coeffs, s.basis):
            if c:
                for j in range(n):
                    v[j] = (v[j] + c * row[j]) % p
        yield tuple(v)


def inverse(G, a: int) -> int:
    """a^-1 in the oracle group G, read off its inverse array."""
    return G._inv[a]


def reference_matrix_table(elements, p: int):
    """The product table of the matrices `elements` over their ids, one
    `reference_mat_mul` per cell, and each id's inverse by a scan of its
    row for the identity (id 0)."""
    index = {m: i for i, m in enumerate(elements)}
    table = [[index[reference_mat_mul(a, b, p)] for b in elements] for a in elements]
    return table, [row.index(0) for row in table]


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


def reference_power(G, a: int, e: int) -> int:
    """a^e by repeated squaring through the law."""
    result = 0
    while e:
        if e & 1:
            result = G.mul(result, a)
        a = G.mul(a, a)
        e >>= 1
    return result


def order_of(G, a: int) -> int:
    """The least k >= 1 with a^k = 1, one law call per power."""
    k, x = 1, a
    while x != 0:
        x = G.mul(x, a)
        k += 1
    return k


def sd_act(G, w, h: int):
    """w^h in V^t for the sdp group G = V^t x| H: each k-block of w times
    the matrix of h."""
    k, m = G.k, G.module.elements[h]
    return tuple(y for b in range(0, G.wdim, k) for y in reference_vec_mat(w[b:b + k], m, G.p))


def sd_mul(G, a, b):
    """(w1, h1)(w2, h2) = (w1^h2 + w2, h1 h2) in the sdp group G = V^t x| H."""
    w1, h1 = a
    w2, h2 = b
    return vec_add(sd_act(G, w1, h2), w2, G.p), G.module.group.mul(h1, h2)


def sd_inverse(G, a):
    """(w, h)^-1 = (-w^(h^-1), h^-1) in the sdp group G = V^t x| H."""
    w, h = a
    hi = inverse(G.module.group, h)
    return tuple(-x % G.p for x in sd_act(G, w, hi)), hi


def f_span(fops, p: int, k: int, vectors) -> FpSubspace:
    """The F_p-span of the F-multiples of the given vectors of V = F_p^k:
    the F-subspace they span, by one F_p elimination of every v * beta for
    the basis beta of F over F_p."""
    return FpSubspace.from_vectors(p, k, [reference_vec_mat(v, m, p) for v in vectors
                                          for m in fops.basis])


def reference_f_rref_pivots(fops, rows, n: int) -> list[int]:
    """The leading columns of `rows`, or MalformedInput unless they are in
    F-RREF over F^n: the leading columns first, then every row against
    every leading column."""
    pivots = [next((c for c, x in enumerate(row) if x), None) for row in rows]
    if (None in pivots or pivots != sorted(set(pivots))
            or not all(len(row) == n and all(0 <= x < fops.q for x in row) for row in rows)
            or any(row[c] != (fops.one if i == j else 0)
                   for i, c in enumerate(pivots) for j, row in enumerate(rows))):
        raise MalformedInput(f"rows are not in F-RREF over F^{n}")
    return pivots


def reference_field_tables(p: int, dim: int, basis):
    """(elements, one, add_t, neg_t, mul_t, inv_t) of the F_p-span of the
    matrices `basis`, tabulated by matrix arithmetic: each element is
    summed from its coefficient tuple (lexicographic, so index 0 is zero),
    every sum, negative and product is a matrix looked up among the
    elements, and each inverse is found by scanning a row of products.
    None for a span that is not a field."""
    elements = []
    for coeffs in product(range(p), repeat=len(basis)):
        m = mat_scale(mat_identity(dim), 0, p)
        for c, b in zip(coeffs, basis):
            m = mat_add(m, mat_scale(b, c, p), p)
        elements.append(m)
    index = {m: i for i, m in enumerate(elements)}
    q = len(elements)
    one = index[mat_identity(dim)]
    mul_t = [[0] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            mul_t[i][j] = mul_t[j][i] = index[reference_mat_mul(elements[i], elements[j], p)]
    add_t = [[index[mat_add(a, b, p)] for b in elements] for a in elements]
    neg_t = [index[mat_scale(a, -1, p)] for a in elements]
    inv_t = [0] * q
    for i in range(1, q):
        inv = next((j for j in range(1, q) if mul_t[i][j] == one), None)
        if inv is None:
            return None
        inv_t[i] = inv
    return tuple(elements), one, add_t, neg_t, mul_t, inv_t


def block_diagonal(m, copies):
    """The matrix of `copies` copies of the square matrix m along the diagonal."""
    d = len(m)
    return tuple(tuple(m[i][j - b * d] if 0 <= j - b * d < d else 0 for j in range(d * copies))
                 for b in range(copies) for i in range(d))


# reference_module_isomorphism tries at most this many nonzero kernel combinations
ISOMORPHISM_SEARCH_CAP = 100000


def reference_module_isomorphism(rho_a, rho_b, p: int, d: int):
    """The first invertible d x d matrix T with a*T = T*b for every pair
    (a, b) of the parallel lists rho_a, rho_b, or None: the nullspace of
    one equation per (pair, i, j), then its nonzero combinations in
    lexicographic coefficient order, at most ISOMORPHISM_SEARCH_CAP of them
    (ResourceCapExceeded past it)."""
    equations = []
    for ga, gb in zip(rho_a, rho_b):
        for i in range(d):
            for j in range(d):
                row = [0] * (d * d)
                for k in range(d):
                    row[k * d + j] += ga[i][k]
                    row[i * d + k] -= gb[k][j]
                equations.append(tuple(x % p for x in row))
    kernel = nullspace(equations, p, d * d)
    count = 0
    for coeffs in product(range(p), repeat=len(kernel)):
        if not any(coeffs):
            continue
        count += 1
        if count > ISOMORPHISM_SEARCH_CAP:
            raise ResourceCapExceeded("module_isomorphism solution search",
                                      ISOMORPHISM_SEARCH_CAP)
        vec = [0] * (d * d)
        for c, basis_vec in zip(coeffs, kernel):
            if c:
                for i in range(d * d):
                    vec[i] = (vec[i] + c * basis_vec[i]) % p
        t_mat = tuple(tuple(vec[i * d:(i + 1) * d]) for i in range(d))
        if len(_rref(t_mat, p, d)[1]) == d:
            return t_mat
    return None


def reference_crown_module_check(G, data) -> bool:
    """C/R against the block-diagonal sum of delta copies of the class
    action, by reference_module_isomorphism."""
    cls = data.v_class
    p, d, delta = cls.prime, cls.dim, data.delta
    if data.centralizer.bit_count() != data.core_r.bit_count() * (p**d) ** delta:
        return False
    if delta == 0:
        return True
    mats_c = gr.factor_action(G, data.centralizer, data.core_r)[2]
    big = [block_diagonal(m, delta) for m in cls.action_matrices]
    return reference_module_isomorphism(mats_c, big, p, d * delta) is not None


def reference_closure(G, gens) -> int:
    """The mask of <gens>: every member times every generator, until no
    product is new."""
    mask, members = 1, [0]
    for x in members:  # grows while it is walked
        for g in gens:
            y = G.mul(x, g)
            if not (mask >> y) & 1:
                mask |= 1 << y
                members.append(y)
    return mask


def reference_derived_series(G) -> tuple[int, ...]:
    """G = G^(0) > G^(1) > ... until a term equals the one before it: each
    term closes every commutator [a, b] of two members of the previous term
    by `reference_closure`.  [b, a] = [a, b]^-1 and a finite closure holds
    the inverses, so the pairs a < b suffice."""
    series = [(1 << G.n) - 1]
    mul = G.mul
    while True:
        members = list(gr.mask_bits(series[-1]))
        comms = {mul(mul(inverse(G, a), inverse(G, b)), mul(a, b))
                 for i, a in enumerate(members) for b in members[i + 1:]}
        term = reference_closure(G, comms)
        if term == series[-1]:
            return tuple(series)
        series.append(term)


def reference_normal_closure(G, seeds, ambient: int) -> int:
    """The least subgroup holding the seeds that the subgroup `ambient`
    normalises: the closure of the conjugates of every seed by every
    member of `ambient`, by `reference_closure`."""
    return reference_closure(G, {G.mul(G.mul(inverse(G, g), x), g)
                                 for x in seeds for g in gr.mask_bits(ambient)})


def reference_w_module_closure(G, units, h_size: int) -> int:
    """The H-submodule of W generated by s, the product of the unit vectors
    `units` of the split product G = W x| H (W's elements are the ids
    w * h_size, H's the ids below h_size): the closure of the conjugates
    of s by every element of H, as a mask of G."""
    s = 0
    for e in units:
        s = G.mul(s, e)
    return reference_closure(G, {G.mul(G.mul(inverse(G, h), s), h) for h in range(h_size)})


def reference_split_law(radices, images, H):
    """(mul, inverse) of the split product W x| H that
    `groups.oracle_from_split_tables(radices, images, H, ...)` builds, on
    the ids w * |H| + h, with W's elements as digit tuples added digit by
    digit: the images of the unit vectors under each h come from a walk
    along H's Cayley graph, and w^h = sum_i d_i e_i^h."""
    m, h_size = len(radices), H.n

    def digits(w):
        out = []
        for r in reversed(radices):
            w, d = divmod(w, r)
            out.append(d)
        return out[::-1]

    def w_id(ds):
        w = 0
        for r, d in zip(radices, ds):
            w = w * r + d
        return w

    def combine(ds, rows):
        """sum_i ds[i] * rows[i], digit by digit"""
        return [sum(d * row[j] for d, row in zip(ds, rows)) % r for j, r in enumerate(radices)]

    gen_rows = [[digits(x) for x in g_images] for g_images in images]
    units = {0: [[int(i == j) for j in range(m)] for i in range(m)]}
    walk = [0]
    for h in walk:
        for g, rows in zip(H.gens, gen_rows):
            hg = H.mul(h, g)
            if hg not in units:
                units[hg] = [combine(e, rows) for e in units[h]]  # e^(hg) = (e^h)^g
                walk.append(hg)

    def mul(a, b):
        (w1, h1), (w2, h2) = divmod(a, h_size), divmod(b, h_size)
        w = [(x + y) % r for x, y, r in zip(combine(digits(w1), units[h2]), digits(w2), radices)]
        return w_id(w) * h_size + H.mul(h1, h2)

    def inverse(a):
        w, h = divmod(a, h_size)
        hi = next(x for x in range(h_size) if H.mul(h, x) == 0)
        return w_id([-x % r for x, r in zip(combine(digits(w), units[hi]), radices)]) * h_size + hi

    return mul, inverse


def reference_greedy_generators(G, mask: int) -> list[int]:
    """Each member of `mask`, ascending, that is not in the subgroup the
    earlier ones generate, that subgroup closed from scratch each time."""
    gens, cur = [], 1
    for x in gr.mask_bits(mask):
        if not (cur >> x) & 1:
            gens.append(x)
            cur = reference_closure(G, gens)
            if cur == mask:
                break
    return gens


@contextmanager
def counting_law_calls(G):
    """Count the calls of G's law while the block runs: yields a list
    whose one entry is the count so far."""
    law, calls = G.mul, [0]

    def counted(a: int, b: int) -> int:
        calls[0] += 1
        return law(a, b)

    G.mul = counted
    try:
        yield calls
    finally:
        G.mul = law


def reference_counts(G) -> dict:
    """n -> (m_n, b_n, c_n) over the proper subgroups of index n > 1
    dividing |G|, testing every subgroup on its own."""
    mu = gr.mobius_all(G)
    maximal_masks = gr.maximal_subgroups(G)
    table = {d: [0, 0, 0] for d in range(2, G.n + 1) if G.n % d == 0}
    for s in gr.all_subgroups(G)[:-1]:
        meet = (1 << G.n) - 1
        for m in maximal_masks:
            if m & s == s:
                meet &= m
        row = table[G.n // s.bit_count()]
        row[0] += s in maximal_masks
        row[1] += mu[s] != 0
        row[2] += meet == s
    return {d: tuple(row) for d, row in table.items()}


def reference_action_on_factor(G, x: int, y: int, gens):
    """The conjugation action on x/y, each coset representative found as
    the least element of its coset Ya by a scan over y, and |x/y| = p^d
    by trial division."""
    size = x.bit_count() // y.bit_count()
    p = next(q for q in range(2, size + 1) if size % q == 0)
    d = 0
    while size % p == 0:
        size //= p
        d += 1
    assert size == 1, "factor is not of prime-power order"
    y_members = tuple(gr.mask_bits(y))
    mul = G.mul

    def rep(a: int) -> int:
        return min(mul(e, a) for e in y_members)

    reps = sorted({rep(a) for a in gr.mask_bits(x)})
    vec_of = {reps[0]: (0,) * d}
    basis = []
    for r in reps:
        if r in vec_of:
            continue
        basis.append(r)
        i = len(basis) - 1
        current = list(vec_of.items())
        x_pow = r
        for j in range(1, p):
            for s, v in current:
                w = list(v)
                w[i] = j
                vec_of[rep(mul(s, x_pow))] = tuple(w)
            x_pow = rep(mul(x_pow, r))
    matrices = [tuple(vec_of[rep(G.conj(b, g))] for b in basis) for g in gens]
    return p, d, matrices


def reference_centralizer_of_factor(G, x: int, y: int) -> int:
    """Elements g with [a, g] in y for every generator a of x, testing
    every element of G."""
    x_gens = gr.greedy_generators(G, x)
    mask = 0
    for g in range(G.n):
        if all((y >> G.mul(inverse(G, a), G.conj(a, g))) & 1 for a in x_gens):
            mask |= 1 << g
    return mask


def floor_root(x: int, r: int) -> int:
    """Largest g with g^r <= x, by integer bisection."""
    lo, hi = 0, 1
    while hi**r <= x:
        hi *= 2
    while hi - lo > 1:  # lo^r <= x < hi^r
        mid = (lo + hi) // 2
        if mid**r <= x:
            lo = mid
        else:
            hi = mid
    return lo


def floor_log(P: int, N: int, num: int, den: int) -> int:
    """Largest m with N^(m*den) <= P^num, by integer bisection."""
    big = P**num
    lo, hi = 0, 1
    while N ** (hi * den) <= big:
        hi *= 2
    while hi - lo > 1:  # N^(lo*den) <= big < N^(hi*den)
        mid = (lo + hi) // 2
        if N ** (mid * den) <= big:
            lo = mid
        else:
            hi = mid
    return lo


def reference_eta_product(G, h: int) -> int:
    """Least product of indices |G:M| over the sets of maximals above h
    that intersect in h, by enumerating every set (2^m of them for m
    maximals above h)."""
    full = (1 << G.n) - 1
    meet, prod = [full], [1]
    for m in gr.maximal_subgroups(G):
        if m & h == h:
            index = G.n // m.bit_count()
            meet += [x & m for x in meet]
            prod += [x * index for x in prod]
    return min(pr for x, pr in zip(meet, prod) if x == h)


def reference_towers(tower2, tower3):
    """Tower levels n = 1, 2, 3 from find_primes and the order-884 and
    order-364 levels (13, 17) and (7, 13)."""
    towers = [tower.TowerGroup(tower.find_primes(1)), tower2, tower3]
    towers += [tower.TowerGroup(tower.TowerPrimes(primes, False)) for primes in ((13, 17), (7, 13))]
    return towers


def tower_act_w(T, w, e: int):
    """x^e acting on the socle tuple w: coordinate m scales by zeta_m^e."""
    return tuple((a * T.zeta_pows[m][e]) % p for m, (a, p) in enumerate(zip(w, T.primes.primes)))


def tower_w_id(T, w) -> int:
    """The id of the socle tuple w, its first digit most significant."""
    out = 0
    for a, p in zip(w, T.primes.primes):
        out = out * p + a
    return out


def tower_mask(T, elements) -> int:
    """The mask of a list of element tuples (w, e), id w_id(w) 2^n + e."""
    mask = 0
    for w, e in elements:
        mask |= 1 << (tower_w_id(T, w) * T.h_order + e)
    return mask


def reference_class_representative(T, cls):
    """The representative of an intersection class as a list of element
    tuples: socle coordinates vanish on J, the cyclic part is <x^(2^level)>."""
    coords = [(0,) if m in cls.j_set else range(p) for m, p in enumerate(T.primes.primes, start=1)]
    return [(w, e) for w in product(*coords) for e in range(0, T.h_order, 1 << cls.level)]


def reference_gamma_min(module):
    """props.gamma_min by the exhaustive search: C_H(W) from all of W's row
    vectors at once, each matrix of H tested on them, and for every
    F-subspace W a scan of every F-subspace W*, in order of dimension, for
    the first weak witness; the largest witness dimension, at least 1.
    Each meet of the maximals above C_H(W) is its own loop over them."""
    f, H, p = module.f_dim, module.group, module.p
    maximal_masks = gr.maximal_subgroups(H)

    def centralizer(rows):
        vectors = [module.vector_of(r) for r in rows]
        return sum(1 << x for x, m in enumerate(module.elements)
                   if all(reference_vec_mat(v, m, p) == v for v in vectors))

    by_dim = [[centralizer(rows) for rows in module.fops.subspaces(f, d)] for d in range(f + 1)]
    weak_max = 0
    for d in range(f + 1):
        for c_w in by_dim[d]:
            inter = (1 << H.n) - 1
            for m in maximal_masks:
                if m & c_w == c_w:
                    inter &= m
            weak = next(d_star for d_star in range(f + 1)
                        if any(c_star & inter == c_w for c_star in by_dim[d_star]))
            weak_max = max(weak_max, weak)
    return max(1, weak_max)
