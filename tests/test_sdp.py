import random

import pytest

from solvint import corpus, ffla, sdp
from solvint import groups as gr
from solvint.errors import (
    CaseDispatchError,
    MalformedInput,
    RealizationError,
    ValidationError,
)
from solvint.ffla import FpSubspace, vec_add, vec_sub


def g_f5_c4(t=1):
    return sdp.SdGroup.create(5, 1, t, [((2,),)])


def g_s3():
    return sdp.SdGroup.create(3, 1, 1, [((2,),)])


def test_create_validates_invariants():
    with pytest.raises(ValidationError) as err:
        sdp.SdGroup.create(5, 2, 1, [((2, 0), (0, 2))])
    assert err.value.invariant == "irreducibility"
    with pytest.raises(MalformedInput):
        sdp.SdGroup.create(5, 2, 1, [((1, 0), (1, 0))])  # singular generator


def test_module_creation_spins_each_line_once(monkeypatch):
    irreducibility_calls, spins = [], []
    is_irreducible, spin = ffla.is_irreducible, ffla.spin
    monkeypatch.setattr(ffla, "is_irreducible",
                        lambda *a: irreducibility_calls.append(a) or is_irreducible(*a))
    monkeypatch.setattr(ffla, "spin", lambda *a: spins.append(a) or spin(*a))
    c7 = ((0, 1, 0), (0, 0, 1), (1, 1, 0))  # companion matrix of x^3 + x + 1 over F_2
    module = sdp.HModule.create(2, 3, [c7])
    assert module.order == 7 and module.field.degree == 3
    assert len(irreducibility_calls) == 1
    assert len(spins) == 7  # one spin per line of F_2^3


def test_multiplication_convention():
    g = g_s3()
    a = ((1,), 0)
    b = ((0,), 1)
    # (w1, h1)(w2, h2) = (w1^{h2} + w2, h1 h2)
    w, h = g.mul(a, b)
    assert w == (2,) and h == 1
    ident = ((0,), 0)
    for x in [a, b, g.mul(a, b)]:
        assert g.mul(x, g.inverse(x)) == ident
        assert g.mul(g.inverse(x), x) == ident


def test_enumerate_maximal_supplements_counts():
    assert len(sdp.enumerate_maximal_supplements(g_f5_c4(1))) == 5
    assert len(sdp.enumerate_maximal_supplements(g_s3())) == 3
    assert len(sdp.enumerate_maximal_supplements(g_f5_c4(2))) == 30


def test_supplements_are_maximal_in_oracle():
    g = g_s3()
    oracle, _ = sdp.embed_as_oracle(g)
    maximal_masks = {m.mask for m in gr.maximal_subgroups(oracle)}
    for m in sdp.enumerate_maximal_supplements(g):
        assert sdp.supplement_elements(g, m) in maximal_masks


def test_supplement_enumeration_is_complete():
    # every oracle maximal not containing the socle appears in the list
    for g in [g_s3(), g_f5_c4(1), g_f5_c4(2),
              sdp.SdGroup.create(3, 2, 1, [((0, 2), (1, 0))]),
              sdp.SdGroup.create(2, 2, 2, [((1, 1), (1, 0))])]:
        oracle, encode = sdp.embed_as_oracle(g)
        socle = 0
        for w in FpSubspace.full(g.p, g.wdim).vectors():
            socle |= 1 << encode(w, 0)
        oracle_sups = {m.mask for m in gr.maximal_subgroups(oracle)
                       if m.mask & socle != socle}
        enumerated = set()
        for m in sdp.enumerate_maximal_supplements(g):
            enumerated.add(sdp.supplement_elements(g, m))
        assert enumerated == oracle_sups, g.name


def reference_elements(G, submodule, h_indices, translate) -> set:
    """{(u + v - v^x, x)} as a set of (vector, h) tuples, one element at a time."""
    out = set()
    vectors = list(submodule.vectors())
    for x in h_indices:
        shift = vec_sub(translate, G.act_w(translate, x), G.p)
        for u in vectors:
            out.add((vec_add(u, shift, G.p), x))
    return out


def encode_elements(G, elements) -> int:
    """Bitmask of (w, h) pairs in the id order of sdp.embed_as_oracle."""
    mask = 0
    for w, h in elements:
        w_id = 0
        for x in w:
            w_id = w_id * G.p + x
        mask |= 1 << (w_id * G.module.order + h)
    return mask


def test_encode_elements_matches_embed_as_oracle():
    for g in [g_s3(), g_f5_c4(2)]:
        _, encode = sdp.embed_as_oracle(g)
        for w in FpSubspace.full(g.p, g.wdim).vectors():
            for h in range(g.module.order):
                assert encode_elements(g, [(w, h)]) == 1 << encode(w, h)


def test_descriptor_masks_match_reference(sdp_pool):
    rng = random.Random(2718)
    for g in sdp_pool:
        sups = sdp.enumerate_maximal_supplements(g)
        descs = [(m.submodule, range(g.module.order), m.translate)
                 for m in rng.sample(sups, min(len(sups), 40))]
        for _ in range(20):
            k = sdp.random_partial(g, rng)
            descs.append((k.submodule, k.h_indices, k.translate))
        for desc in descs:
            ref = reference_elements(g, *desc)
            mask = sdp.descriptor_elements(g, *desc)
            assert mask == encode_elements(g, ref), (g.name, desc)
            assert mask.bit_count() == len(ref)


def test_case_spanning_spec_example():
    g2 = g_f5_c4(2)
    w1 = FpSubspace.from_vectors(5, 2, [(1, 0)])
    w2 = FpSubspace.from_vectors(5, 2, [(0, 1)])
    all_h = tuple(range(4))
    # same translates: K cap M = H
    k = sdp.PartialIntersection(w1, all_h, (0, 0))
    m = sdp.MaximalSupplement(w2, (0, 0))
    res = sdp.intersect_case_spanning(g2, k, m)
    assert res.submodule.dim == 0 and res.translate == (0, 0)
    assert sdp.partial_elements(g2, res) == (
        sdp.partial_elements(g2, k) & sdp.supplement_elements(g2, m)
    )
    # shifted translate: witness w1 solved inside W1
    k = sdp.PartialIntersection(w1, all_h, (0, 1))
    res = sdp.intersect_case_spanning(g2, k, m)
    assert sdp.partial_elements(g2, res) == (
        sdp.partial_elements(g2, k) & sdp.supplement_elements(g2, m)
    )


def test_case_dispatch_guard():
    g2 = g_f5_c4(2)
    w2 = FpSubspace.from_vectors(5, 2, [(0, 1)])
    k = sdp.PartialIntersection(w2, tuple(range(4)), (0, 0))
    m = sdp.MaximalSupplement(w2, (0, 0))
    with pytest.raises(CaseDispatchError):
        sdp.intersect_case_spanning(g2, k, m)  # W1 = W2 cannot span
    w1 = FpSubspace.from_vectors(5, 2, [(1, 0)])
    k = sdp.PartialIntersection(w1, tuple(range(4)), (0, 0))
    with pytest.raises(CaseDispatchError):
        sdp.intersect_case_nested(g2, k, m)  # W1 not inside W2


def test_case_nested_spec_example():
    g = g_f5_c4(1)
    zero = FpSubspace.zero(5, 1)
    k = sdp.PartialIntersection(zero, tuple(range(4)), (0,))
    m = sdp.MaximalSupplement(zero, (1,))
    res, witness = sdp.intersect_case_nested(g, k, m)
    assert res.h_indices == (0,)
    assert witness is not None
    assert sdp.partial_elements(g, res).bit_count() == 1
    assert sdp.partial_elements(g, res) == (
        sdp.partial_elements(g, k) & sdp.supplement_elements(g, m)
    )
    # same coset: unchanged
    res2, witness2 = sdp.intersect_case_nested(g, k, sdp.MaximalSupplement(zero, (0,)))
    assert res2 == k and witness2 is None


def reference_case_spanning(G, K, M):
    """The spanning step by decomposition: d = a + b with a in W2, b in W1,
    and the meet by Zassenhaus."""
    W1, W2 = K.submodule, M.submodule
    assert W1.sum_with(W2).dim == G.wdim
    _, b = W2.decompose(vec_sub(K.translate, M.translate, G.p), W1)
    meet = W1.intersect(W2)
    return sdp.PartialIntersection(meet, K.h_indices,
                                   meet.reduce(vec_sub(K.translate, b, G.p)))


def reference_case_nested(G, K, M):
    """The nested step by decomposition over the complement U = iota(V) of
    W2, with z read off the first nonzero block of the U-part."""
    W1, W2 = K.submodule, M.submodule
    assert W1.is_subspace_of(W2)
    fops = G.module.fops
    (line,) = fops.f_complement(G.fvectors_of_submodule(W2), G.t)
    _, u = W2.decompose(vec_sub(M.translate, K.translate, G.p),
                        G.submodule_from_fvectors((line,)))
    pos = next(i for i, idx in enumerate(line) if idx)
    z = fops.act(u[pos * G.k:(pos + 1) * G.k], fops.inv_t[line[pos]])
    cen = tuple(x for x in K.h_indices if G.module.act(z, x) == z)
    if len(cen) == len(K.h_indices):
        return K, None
    return sdp.PartialIntersection(W1, cen, K.translate), fops.canonical_line_rep(z)


def test_calculus_steps_match_the_decomposition_reference(sdp_pool):
    rng = random.Random(1618)
    cases = {"spanning": 0, "nested": 0}
    for g in sdp_pool:
        sups = sdp.enumerate_maximal_supplements(g)
        for _ in range(4):
            k = sdp.random_partial(g, rng)
            for m in sups:
                if k.submodule.is_subspace_of(m.submodule):
                    expected = reference_case_nested(g, k, m)
                    cases["nested"] += 1
                else:
                    expected = reference_case_spanning(g, k, m), None
                    cases["spanning"] += 1
                assert sdp.intersect_supplement(g, k, m) == expected, (g.name, k, m)
    assert min(cases.values()) > 1000, cases


def test_canonicalize_single_supplement():
    g = g_f5_c4(1)
    for m in sdp.enumerate_maximal_supplements(g):
        ci = sdp.canonicalize_intersection(g, [m])
        assert ci.submodule == m.submodule
        assert ci.z_space.dim == 0
        assert sdp.canonical_elements(g, ci) == sdp.supplement_elements(g, m)


def test_canonicalize_rejects_empty():
    with pytest.raises(MalformedInput):
        sdp.canonicalize_intersection(g_f5_c4(1), [])


def test_canonicalize_pair_spec_example():
    g = g_f5_c4(1)
    ms = sdp.enumerate_maximal_supplements(g)
    m0 = next(m for m in ms if m.translate == (0,))
    m1 = next(m for m in ms if m.translate == (1,))
    ci = sdp.canonicalize_intersection(g, [m0, m1])
    assert ci.submodule.dim == 0 and ci.z_space == FpSubspace.full(5, 1)
    assert sdp.centralizer_in_h(g, ci.z_space) == (0,)


def test_canonicalize_matches_bruteforce_random(sdp_pool):
    rng = random.Random(4242)
    small = [g for g in sdp_pool if g.order <= 600]
    sups = {id(g): sdp.enumerate_maximal_supplements(g) for g in small}
    for _ in range(150):
        g = small[rng.randrange(len(small))]
        avail = sups[id(g)]
        fam = [avail[rng.randrange(len(avail))] for _ in range(rng.randrange(1, 6))]
        ci = sdp.canonicalize_intersection(g, fam)
        brute = sdp.supplement_elements(g, fam[0])
        for m in fam[1:]:
            brute &= sdp.supplement_elements(g, m)
        assert brute == sdp.canonical_elements(g, ci)


def test_realize_spec_examples():
    g = g_f5_c4(1)
    # U = V^t, Z = 0: the empty family (meaning G)
    assert sdp.realize_intersection(g, FpSubspace.full(5, 1), FpSubspace.zero(5, 1)) == []
    # U = V^t with nonzero Z is flagged
    with pytest.raises(RealizationError):
        sdp.realize_intersection(g, FpSubspace.full(5, 1), FpSubspace.full(5, 1))
    # U = 0, Z = F_5: two descriptors with translates 0 and 1
    fam = sdp.realize_intersection(g, FpSubspace.zero(5, 1), FpSubspace.full(5, 1))
    assert len(fam) == 2 and {m.translate for m in fam} == {(0,), (1,)}
    # t = 2, U a coordinate line, Z = 0: a single descriptor
    g2 = g_f5_c4(2)
    u = FpSubspace.from_vectors(5, 2, [(1, 0)])
    fam = sdp.realize_intersection(g2, u, FpSubspace.zero(5, 1))
    assert len(fam) == 1 and fam[0].submodule == u


def test_realize_round_trip_enumerated():
    # every (U, Z) pair in a few small instances
    instances = [
        g_f5_c4(1), g_f5_c4(2),
        sdp.SdGroup.create(3, 1, 2, [((2,),)]),
        sdp.SdGroup.create(3, 2, 1, [((0, 2), (1, 0))]),
        sdp.SdGroup.create(2, 2, 2, [((1, 1), (1, 0))]),
    ]
    for g in instances:
        fops = g.module.fops
        u_list = [g.submodule_from_fvectors(rows) for rows in fops.all_subspaces(g.t)]
        z_list = [g.module.v_subspace_from_fcoords(rows)
                  for rows in g.module.fops.all_subspaces(g.module.f_dim)]
        for u in u_list:
            t_star = g.t - u.dim // g.k
            for z in z_list:
                d = z.dim // g.module.field.degree
                if t_star == 0 and d > 0:
                    with pytest.raises(RealizationError):
                        sdp.realize_intersection(g, u, z)
                    continue
                fam = sdp.realize_intersection(g, u, z)
                if t_star == 0 and d == 0:
                    assert fam == []
                    continue
                assert len(fam) == t_star + d
                ci = sdp.canonicalize_intersection(g, fam)
                expected = sdp.descriptor_elements(
                    g, u, sdp.centralizer_in_h(g, z), g.zero_w()
                )
                assert sdp.canonical_elements(g, ci) == expected


def test_realize_family_size_is_tstar_plus_d():
    g2 = g_f5_c4(2)
    u = FpSubspace.zero(5, 2)
    z = FpSubspace.full(5, 1)
    fam = sdp.realize_intersection(g2, u, z)
    assert len(fam) == 2 + 1  # t* = 2, d = 1


def test_embed_as_oracle_examples():
    oracle, _ = sdp.embed_as_oracle(g_s3())
    assert oracle.n == 6
    assert sorted(oracle.order_of(x) for x in range(6)) == [1, 2, 2, 2, 3, 3]
    h_only = sdp.SdGroup(g_f5_c4(1).module, 0)
    o2, _ = sdp.embed_as_oracle(h_only)
    assert o2.n == 4
    o3, _ = sdp.embed_as_oracle(g_f5_c4(1))
    assert o3.n == 20
    assert sorted({o3.order_of(x) for x in range(20)}) == [1, 2, 4, 5]


def test_index_law():
    for g in [g_f5_c4(2), sdp.SdGroup.create(3, 2, 2, [((0, 2), (1, 0))])]:
        v_size = g.p**g.k
        for m in sdp.enumerate_maximal_supplements(g):
            assert g.order // (m.submodule.size() * g.module.order) == v_size


def test_crown_g2_spec_example(tower2):
    oracle = tower2.embed_as_oracle()
    classes = sdp.chief_factor_classes(oracle)
    cls5 = next(c for c in classes if c.prime == 5)
    data = sdp.crown(oracle, cls5)
    assert data.centralizer.order == 15       # V_1 x V_2
    assert data.core_r.order == 3             # V_1
    assert data.delta == 1
    assert data.complement is not None and data.complement.order == 5
    assert sdp.crown_module_check(oracle, data)


def test_crown_s3_and_f20():
    s3, _ = sdp.embed_as_oracle(g_s3())
    cls3 = next(c for c in sdp.chief_factor_classes(s3) if c.prime == 3)
    data = sdp.crown(s3, cls3)
    assert (data.centralizer.order, data.core_r.order, data.delta) == (3, 1, 1)
    assert data.complement.order == 3
    f20, _ = sdp.embed_as_oracle(g_f5_c4(1))
    cls5 = next(c for c in sdp.chief_factor_classes(f20) if c.prime == 5)
    data = sdp.crown(f20, cls5)
    assert data.delta == 1 and data.core_r.order == 1
    assert sdp.crown_module_check(f20, data)
    # |G/R| = |V|^delta * |G/C|
    assert (f20.n // data.core_r.order
            == cls5.module_size**data.delta * (f20.n // data.centralizer.order))


def test_find_corona_crown_requires_frattini_free():
    c4 = gr.cyclic(4)
    with pytest.raises(ValidationError):
        sdp.find_corona_crown(c4)


def test_corona_and_sotto_on_corpus(corpus_list):
    for g in corpus_list:
        if gr.frattini(g).order != 1:
            continue
        data = sdp.find_corona_crown(g)
        d_sub = data.complement
        r_sub = data.core_r
        assert d_sub.order > 1
        assert (d_sub.mask & r_sub.mask) == 1
        assert d_sub.order * r_sub.order == data.centralizer.order
        # if KD = KR = G then K = G
        for k in gr.all_subgroups(g):
            kd = k.order * d_sub.order // (k.mask & d_sub.mask).bit_count()
            kr = k.order * r_sub.order // (k.mask & r_sub.mask).bit_count()
            if kd == g.n and kr == g.n:
                assert k.order == g.n, g.name


def test_crown_module_check_corpus(corpus_list):
    for g in corpus_list[:12]:
        for cls in sdp.chief_factor_classes(g):
            assert sdp.crown_module_check(g, sdp.crown(g, cls)), g.name


def reference_fixed_space_over(G, W):
    """{v : v^h - v in W for every generator h} as W plus the nullspace of
    the n^2 linear equations, one per (generator, coordinate of V^t/W)."""
    p, n = G.p, G.wdim
    if n == 0 or not G.module.gen_indices:
        return FpSubspace.full(p, n)
    eq_rows = []
    for g in G.module.gen_indices:
        reds = []
        for i in range(n):
            e = tuple(1 if c == i else 0 for c in range(n))
            reds.append(W.reduce(vec_sub(G.act_w(e, g), e, p)))
        for j in range(n):
            eq_rows.append(tuple(reds[i][j] for i in range(n)))
    kernel = ffla.nullspace(eq_rows, p, n)
    return FpSubspace.from_vectors(p, n, list(W.basis) + kernel)


def test_fixed_space_closed_form_matches_reference(sdp_pool):
    groups = list(sdp_pool) + corpus.primitive_groups()
    groups += [sdp.SdGroup.create(3, 1, 2, []), sdp.SdGroup(g_f5_c4(1).module, 0)]
    checked = 0
    for g in groups:
        for W in g.maximal_submodules() if g.t else []:
            assert g.fixed_space_over(W) == reference_fixed_space_over(g, W), g.name
            checked += 1
        zero = FpSubspace.zero(g.p, g.wdim)
        assert g.fixed_space_over(zero) == reference_fixed_space_over(g, zero), g.name
    assert checked > 1000


def test_random_case_suite_seeded(sdp_pool):
    pairs, fams, failures = sdp.random_case_suite(sdp_pool, 120, 120, seed=7)
    assert (pairs, fams) == (120, 120)
    assert failures == []


def test_canonicalize_is_order_invariant(sdp_pool):
    # different input orders give the same subgroup (and the same U)
    rng = random.Random(31337)
    small = [g for g in sdp_pool if g.order <= 400]
    for _ in range(60):
        g = small[rng.randrange(len(small))]
        avail = sdp.enumerate_maximal_supplements(g)
        fam = [avail[rng.randrange(len(avail))] for _ in range(rng.randrange(2, 6))]
        ci = sdp.canonicalize_intersection(g, fam)
        shuffled = fam[:]
        rng.shuffle(shuffled)
        ci2 = sdp.canonicalize_intersection(g, shuffled)
        assert ci2.submodule == ci.submodule
        assert sdp.subgroup_equal(g, ci, ci2)
        assert sdp.canonical_elements(g, ci) == sdp.canonical_elements(g, ci2)


def test_trivial_acting_group_edge():
    # H = 1 forces k = 1 and G = V^t elementary abelian; translates of each
    # hyperplane collapse to a single maximal subgroup
    g = sdp.SdGroup(sdp.HModule.create(2, 1, []), 2)
    ms = sdp.enumerate_maximal_supplements(g)
    assert len(ms) == 3
    assert all(m.translate == (0, 0) for m in ms)
    ci = sdp.canonicalize_intersection(g, ms)
    assert ci.submodule.dim == 0 and ci.z_space.dim == 0
    assert sdp.canonical_elements(g, ci) == 1


def test_sdgroup_from_spec_schema():
    from solvint.errors import SchemaError

    with pytest.raises(SchemaError):
        sdp.sdgroup_from_spec({"kind": "sdp", "p": 4, "k": 1, "t": 1, "h_gens": [[[1]]]})
    with pytest.raises(SchemaError):
        sdp.sdgroup_from_spec({"p": 5})
    g = sdp.sdgroup_from_spec({"kind": "sdp", "p": 5, "k": 1, "t": 2, "h_gens": [[[2]]]})
    assert g.order == 100


def reference_closure(p, k, gens):
    identity = ffla.mat_identity(k)
    members = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ffla.mat_mul(x, ffla.mat_mod(g, p), p)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


def reference_solvable(p, k, gens):
    """The derived series on element sets: each term is generated by the
    commutators of all pairs of elements of the one before."""
    term = reference_closure(p, k, gens)
    while len(term) > 1:
        inverse = {x: ffla.mat_inv(x, p) for x in term}
        nxt = reference_closure(p, k, {ffla.mat_mul(ffla.mat_mul(inverse[a], inverse[b], p),
                                                    ffla.mat_mul(a, b, p), p)
                                       for a in term for b in term})
        if len(nxt) == len(term):
            return False
        term = nxt
    return True


def test_matrix_group_solvability_matches_the_derived_series_of_elements():
    # SL(2,3), GL(2,3), the trivial group, then SL(2,5) and GL(3,2), which
    # are not solvable; then random groups of order <= 200 (the reference
    # takes |G|^2 commutators)
    named = [
        (3, 2, [[[1, 1], [0, 1]], [[0, 2], [1, 0]]], True),
        (3, 2, [[[1, 1], [0, 1]], [[2, 0], [0, 1]], [[0, 1], [1, 0]]], True),
        (5, 1, [], True),
        (5, 2, [[[1, 1], [0, 1]], [[0, 4], [1, 0]]], False),
        (2, 3, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]], False),
    ]
    cases = [case[:3] for case in named]
    rng = random.Random(7)
    for p, k in ((2, 2), (3, 2), (5, 2), (2, 3)):
        drawn = 0
        while drawn < 8:
            gens = [[[rng.randrange(p) for _ in range(k)] for _ in range(k)]
                    for _ in range(rng.randint(1, 2))]
            try:
                for g in gens:
                    ffla.mat_inv(ffla.mat_mod(g, p), p)
            except MalformedInput:
                continue
            if len(reference_closure(p, k, gens)) <= 200:
                cases.append((p, k, gens))
                drawn += 1
    expected = [reference_solvable(p, k, gens) for p, k, gens in cases]
    assert expected[:len(named)] == [case[3] for case in named]
    for (p, k, gens), solvable in zip(cases, expected):
        mats = tuple(ffla.mat_mod(g, p) for g in gens)
        assert sdp._matrix_group_solvable(mats, p, k, 10**4) == solvable, (p, k, gens)
