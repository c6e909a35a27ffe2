import functools
import operator
import random
import time

import pytest

from solvint import corpus, ffla, props, sdp, tower
from solvint import groups as gr
from solvint.errors import MalformedInput, ResourceCapExceeded
from solvint.ffla import FpSubspace, vec_mat, vec_sub

from references import (all_subspaces, counting_law_calls, decompose, f_span, intersect, inverse,
                        is_subspace_of, order_of, reference_centralizer_of_factor,
                        reference_crown_module_check, reference_f_rref_pivots,
                        reference_matrix_table, reference_module_isomorphism, sd_act, sd_inverse,
                        sd_mul, subspace_vectors, sum_with, vec_add, zero_subspace)


def g_f5_c4(t=1):
    return sdp.SdGroup.create(5, 1, t, [((2,),)])


def g_s3():
    return sdp.SdGroup.create(3, 1, 1, [((2,),)])


def fp_span(G, rows) -> FpSubspace:
    """The F_p span of the submodule with F-rows `rows`: the elimination of
    every e_j * s, row j of the matrix of each entry of s."""
    elements = G.module.fops.elements
    return FpSubspace.from_vectors(G.p, G.wdim, [tuple(x for idx in s for x in elements[idx][j])
                                                 for s in rows for j in range(G.k)])


def fp_form(G, K):
    """The descriptor K with its submodule given by its F_p span."""
    return K._replace(submodule=fp_span(G, K.submodule))


def test_create_validates_invariants():
    with pytest.raises(MalformedInput, match="^irreducibility: ") as err:
        sdp.SdGroup.create(5, 2, 1, [((2, 0), (0, 2))])
    assert str(err.value).startswith("irreducibility: ")
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
    assert module.order == 7 and module.fops.degree == 3
    assert len(irreducibility_calls) == 1
    assert len(spins) == 7  # one spin per line of F_2^3


def test_multiplication_convention():
    g = g_s3()
    a = ((1,), 0)
    b = ((0,), 1)
    # (w1, h1)(w2, h2) = (w1^{h2} + w2, h1 h2)
    w, h = sd_mul(g, a, b)
    assert w == (2,) and h == 1
    ident = ((0,), 0)
    for x in [a, b, sd_mul(g, a, b)]:
        assert sd_mul(g, x, sd_inverse(g, x)) == ident
        assert sd_mul(g, sd_inverse(g, x), x) == ident


def test_enumerate_maximal_supplements_counts():
    assert len(sdp.enumerate_maximal_supplements(g_f5_c4(1))) == 5
    assert len(sdp.enumerate_maximal_supplements(g_s3())) == 3
    assert len(sdp.enumerate_maximal_supplements(g_f5_c4(2))) == 30


def test_supplements_are_maximal_in_oracle():
    g = g_s3()
    oracle = sdp.embed_as_oracle(g)
    maximal_masks = set(gr.maximal_subgroups(oracle))
    for m in sdp.enumerate_maximal_supplements(g):
        assert sdp.supplement_elements(g, m) in maximal_masks


def test_supplement_enumeration_is_complete():
    # every oracle maximal not containing the socle appears in the list
    for g in [g_s3(), g_f5_c4(1), g_f5_c4(2),
              sdp.SdGroup.create(3, 2, 1, [((0, 2), (1, 0))]),
              sdp.SdGroup.create(2, 2, 2, [((1, 1), (1, 0))])]:
        oracle = sdp.embed_as_oracle(g)
        socle = encode_elements(g, [(w, 0) for w in subspace_vectors(FpSubspace.full(g.p, g.wdim))])
        oracle_sups = {m for m in gr.maximal_subgroups(oracle)
                       if m & socle != socle}
        enumerated = set()
        for m in sdp.enumerate_maximal_supplements(g):
            enumerated.add(sdp.supplement_elements(g, m))
        assert enumerated == oracle_sups, g.name


def reference_elements(G, submodule, h_mask, translate) -> set:
    """{(u + v - v^x, x)} as a set of (vector, h) tuples, one element at a time."""
    out = set()
    vectors = list(subspace_vectors(fp_span(G, submodule)))
    for x in gr.mask_bits(h_mask):
        shift = vec_sub(translate, sd_act(G, translate, x), G.p)
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


def test_encode_elements_pins_the_id_order_of_the_law():
    # the id of a*b is oracle.mul of the ids of a and b: all pairs of S3,
    # and sampled pairs of F5:C4 at t = 2
    rng = random.Random(31)
    for g, samples in ((g_s3(), None), (g_f5_c4(2), 2000)):
        oracle = sdp.embed_as_oracle(g)
        elements = [(w, h) for w in subspace_vectors(FpSubspace.full(g.p, g.wdim))
                    for h in range(g.module.order)]
        ids = {x: encode_elements(g, [x]).bit_length() - 1 for x in elements}
        assert sorted(ids.values()) == list(range(oracle.n))
        pairs = [(a, b) for a in elements for b in elements]
        if samples:
            pairs = rng.sample(pairs, samples)
        for a, b in pairs:
            assert ids[sd_mul(g, a, b)] == oracle.mul(ids[a], ids[b]), (g.name, a, b)


def test_descriptor_masks_match_reference(sdp_pool):
    rng = random.Random(2718)
    for g in sdp_pool:
        sups = sdp.enumerate_maximal_supplements(g)
        descs = [(m.submodule, (1 << g.module.order) - 1, m.translate)
                 for m in rng.sample(sups, min(len(sups), 40))]
        for _ in range(20):
            k = sdp.random_partial(g, rng)
            descs.append((k.submodule, k.h_mask, k.translate))
        for desc in descs:
            ref = reference_elements(g, *desc)
            mask = sdp.descriptor_elements(g, *desc)
            assert mask == encode_elements(g, ref), (g.name, desc)
            assert mask.bit_count() == len(ref)
            # on a fresh group: the first call fills the checker's memos,
            # the second reads them
            fresh = sdp.SdGroup(g.module, g.t)
            assert sdp.descriptor_elements(fresh, *desc) == mask, (g.name, desc)
            assert sdp.descriptor_elements(fresh, *desc) == mask, (g.name, desc)


def test_shift_groups_are_shared_across_submodules(sdp_pool):
    # one cold group per pool group of order <= 300 answers every maximal
    # supplement, then 20 seeded partials, in sequence: H's grouping by the
    # shift v - v^x is memoised per (translate, X), so supplements of other
    # hyperplanes with the same translate read back a grouping built for
    # another submodule
    rng = random.Random(1414)
    descriptors = shared = 0
    for g in sdp_pool:
        if g.order > 300:
            continue
        cold = sdp.SdGroup(g.module, g.t)
        full = (1 << g.module.order) - 1
        descs = [(m.submodule, full, m.translate) for m in sdp.enumerate_maximal_supplements(cold)]
        for _ in range(20):
            k = sdp.random_partial(cold, rng)
            descs.append((k.submodule, k.h_mask, k.translate))
        for desc in descs:
            ref = encode_elements(g, reference_elements(g, *desc))
            assert sdp.descriptor_elements(cold, *desc) == ref, (g.name, g.order, desc)
        descriptors += len(descs)
        shared += len(descs) - len(cold._cache["shift_groups"])
    assert descriptors > 1000 and shared > 500, (descriptors, shared)


def test_case_spanning_spec_example():
    g2 = g_f5_c4(2)
    one = g2.module.fops.one
    w1, w2 = ((one, 0),), ((0, one),)
    assert (g2.submodule_from_fvectors(w1), g2.submodule_from_fvectors(w2)) == (
        FpSubspace.from_vectors(5, 2, [(1, 0)]), FpSubspace.from_vectors(5, 2, [(0, 1)]))
    all_h = 0b1111  # all of H = C4
    # same translates: K cap M = H
    k = sdp.PartialIntersection(w1, all_h, (0, 0))
    m = sdp.MaximalSupplement(w2, (0, 0))
    res = sdp.intersect_case_spanning(g2, k, m)
    assert res.submodule == () and res.translate == (0, 0)
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
    one = g2.module.fops.one
    w2 = ((0, one),)
    k = sdp.PartialIntersection(w2, 0b1111, (0, 0))
    m = sdp.MaximalSupplement(w2, (0, 0))
    with pytest.raises(MalformedInput, match="use the nested case"):
        sdp.intersect_case_spanning(g2, k, m)  # W1 = W2 cannot span
    w1 = ((one, 0),)
    k = sdp.PartialIntersection(w1, 0b1111, (0, 0))
    with pytest.raises(MalformedInput, match="use the spanning case"):
        sdp.intersect_case_nested(g2, k, m)  # W1 not inside W2


def test_case_nested_spec_example():
    g = g_f5_c4(1)
    zero = ()
    k = sdp.PartialIntersection(zero, 0b1111, (0,))
    m = sdp.MaximalSupplement(zero, (1,))
    res, witness = sdp.intersect_case_nested(g, k, m)
    assert res.h_mask == 1  # the identity alone
    assert witness == (g.module.fops.one,)  # the F-line of z = 1, as its F-RREF row
    assert sdp.partial_elements(g, res).bit_count() == 1
    assert sdp.partial_elements(g, res) == (
        sdp.partial_elements(g, k) & sdp.supplement_elements(g, m)
    )
    # same coset: unchanged
    res2, witness2 = sdp.intersect_case_nested(g, k, sdp.MaximalSupplement(zero, (0,)))
    assert res2 == k and witness2 is None


def reference_case_spanning(G, K, M):
    """The spanning step by decomposition: d = a + b with a in W2, b in W1,
    and the meet by Zassenhaus.  K and the result hold F_p spans."""
    W1, W2 = K.submodule, fp_span(G, M.submodule)
    assert sum_with(W1, W2).dim == G.wdim
    _, b = decompose(W2, vec_sub(K.translate, M.translate, G.p), W1)
    meet = intersect(W1, W2)
    return sdp.PartialIntersection(meet, K.h_mask,
                                   meet.reduce(vec_sub(K.translate, b, G.p)))


def f_complement(fops, basis_rows, t):
    """Greedy deterministic complement spanned by standard F-vectors."""
    rows, added = list(basis_rows), []
    for j in range(t):
        e = tuple(fops.one if i == j else 0 for i in range(t))
        if len(fops.f_rref(rows + [e], t)[0]) > len(fops.f_rref(rows, t)[0]):
            added.append(e)
            rows.append(e)
    return tuple(added)


def reference_case_nested(G, K, M):
    """The nested step by decomposition over the complement U = iota(V) of
    W2, with z read off the first nonzero block of the U-part.  K and the
    result hold F_p spans."""
    W1, W2 = K.submodule, fp_span(G, M.submodule)
    assert is_subspace_of(W1, W2)
    fops = G.module.fops
    (line,) = f_complement(fops, M.submodule, G.t)
    _, u = decompose(W2, vec_sub(M.translate, K.translate, G.p), fp_span(G, (line,)))
    pos = next(i for i, idx in enumerate(line) if idx)
    z = vec_mat(u[pos * G.k:(pos + 1) * G.k], fops.elements[fops.inv_t[line[pos]]], G.p)
    cen = sum(1 << x for x in gr.mask_bits(K.h_mask)
              if vec_mat(z, G.module.elements[x], G.p) == z)
    if cen == K.h_mask:
        return K, None
    return sdp.PartialIntersection(W1, cen, K.translate), z


def is_f_rref(module, rows) -> bool:
    return tuple(rows) == module.fops.f_rref(rows, module.f_dim)[0]


def same_witness(module, row, z) -> bool:
    """The pair step's witness row and the reference's z span one F-line."""
    if row is None or z is None:
        return row is z
    return (len(row) == module.f_dim and is_f_rref(module, [row])
            and f_span(module.fops, module.p, module.k, [module.vector_of(row)])
            == f_span(module.fops, module.p, module.k, [z]))


def test_calculus_steps_match_the_decomposition_reference(sdp_pool):
    rng = random.Random(1618)
    cases = {"spanning": 0, "nested": 0}
    for g in sdp_pool:
        sups = sdp.enumerate_maximal_supplements(g)
        for _ in range(4):
            k = sdp.random_partial(g, rng)
            kf = fp_form(g, k)
            for m in sups:
                if is_subspace_of(kf.submodule, fp_span(g, m.submodule)):
                    expected, z = reference_case_nested(g, kf, m)
                    cases["nested"] += 1
                else:
                    expected, z = reference_case_spanning(g, kf, m), None
                    cases["spanning"] += 1
                got, row = sdp.intersect_supplement(g, k, m)
                assert fp_form(g, got) == expected, (g.name, k, m)
                assert same_witness(g.module, row, z), (g.name, k, m)
    assert min(cases.values()) > 1000, cases


def reference_canonicalize(G, family):
    """The fold of a family through the pair references: spanning steps
    first, restarting the pass after each, then nested steps, with Z the
    F_p-span of the F-multiples of the witnesses that shrank the H-part:
    (U, v, Z, X) with X the H-part the fold ends with."""
    cur = sdp.PartialIntersection(FpSubspace.full(G.p, G.wdim), (1 << G.module.order) - 1,
                                  (0,) * G.wdim)
    pending = list(family)
    while (m := next((m for m in pending
                      if not is_subspace_of(cur.submodule, fp_span(G, m.submodule))),
                     None)) is not None:
        cur = reference_case_spanning(G, cur, m)
        pending.remove(m)
    witnesses = []
    for m in pending:
        cur, z = reference_case_nested(G, cur, m)
        if z is not None:
            witnesses.append(z)
    return (cur.submodule, cur.submodule.reduce(cur.translate),
            f_span(G.module.fops, G.p, G.k, witnesses), cur.h_mask)


def test_canonicalize_matches_the_fold_of_the_pair_references(sdp_pool):
    # every other family is drawn from the supplements over two submodules,
    # so that nested steps and nonzero witnesses are common
    rng = random.Random(1729)
    z_dims = set()
    for g in sdp_pool:
        avail = sdp.enumerate_maximal_supplements(g)
        subs = g.maximal_submodules()
        for case in range(20):
            pool = avail
            if case % 2:
                pair = rng.sample(subs, min(2, len(subs)))
                pool = [m for m in avail if m.submodule in pair]
            fam = [pool[rng.randrange(len(pool))] for _ in range(1 + case % 5)]
            ci = sdp.canonicalize_intersection(g, fam)
            module = g.module
            assert is_f_rref(module, ci.z_space) and all(len(r) == module.f_dim
                                                         for r in ci.z_space)
            z_span = f_span(module.fops, module.p, module.k, map(module.vector_of, ci.z_space))
            got = (fp_span(g, ci.submodule), ci.translate, z_span,
                   sdp.centralizer_in_h(g, ci.z_space))
            assert got == reference_canonicalize(g, fam), (g.name, fam)
            z_dims.add(len(ci.z_space))
    assert z_dims == {0, 1, 2}


def test_non_maximal_supplement_is_refused():
    g2 = g_f5_c4(2)
    one = g2.module.fops.one
    line = ((one, 0),)
    k = sdp.PartialIntersection(line, 0b1111, (0, 0))
    maximal = sdp.MaximalSupplement(line, (0, 1))
    zero, full = (), ((one, 0), (0, one))
    assert (fp_span(g2, zero), fp_span(g2, full)) == (zero_subspace(5, 2), FpSubspace.full(5, 2))
    for w in (zero, full):
        m = sdp.MaximalSupplement(w, (0, 1))
        with pytest.raises(MalformedInput, match="not maximal"):
            sdp.intersect_supplement(g2, k, m)
        for fam in ([m], [maximal, m]):
            with pytest.raises(MalformedInput, match="not maximal"):
                sdp.canonicalize_intersection(g2, fam)


def test_canonicalize_single_supplement():
    g = g_f5_c4(1)
    for m in sdp.enumerate_maximal_supplements(g):
        ci = sdp.canonicalize_intersection(g, [m])
        assert ci.submodule == m.submodule
        assert ci.z_space == ()
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
    assert ci.submodule == () and ci.z_space == ((g.module.fops.one,),)  # Z = V
    assert sdp.centralizer_in_h(g, ci.z_space) == 1  # the identity alone


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
    one = g.module.fops.one
    full, zero = ((one,),), ()
    # U = V^t, Z = 0: the empty family (meaning G)
    assert sdp.realize_intersection(g, full, ()) == []
    # U = V^t with nonzero Z is flagged
    with pytest.raises(MalformedInput, match="cannot realize a nonzero Z"):
        sdp.realize_intersection(g, full, [(one,)])
    # U = 0, Z = F_5: two descriptors with translates 0 and 1
    fam = sdp.realize_intersection(g, zero, [(one,)])
    assert len(fam) == 2 and {m.translate for m in fam} == {(0,), (1,)}
    # t = 2, U a coordinate line, Z = 0: a single descriptor
    g2 = g_f5_c4(2)
    u = ((one, 0),)
    assert fp_span(g2, u) == FpSubspace.from_vectors(5, 2, [(1, 0)])
    fam = sdp.realize_intersection(g2, u, ())
    assert len(fam) == 1 and fam[0].submodule == u


def test_realize_rejects_z_rows_not_in_f_rref():
    # F_3^2 x| SL(2,3): F = F_3 and dim_F V = 2
    g = sdp.SdGroup.create(3, 2, 1, [((1, 1), (0, 1)), ((0, 2), (1, 0))])
    fops = g.module.fops
    one, two = fops.one, fops.neg_t[fops.one]
    zero = ()
    assert len(sdp.realize_intersection(g, zero, [(one, two)])) == 2
    for z in ([(two, one)], [(one, two), (0, one)], [(0, one), (one, 0)], [(one, 0), (one, 0)],
              [(0, 0)], [(one,)], [(one, 0, 0)], [(one, fops.q)]):
        with pytest.raises(MalformedInput):
            sdp.realize_intersection(g, zero, z)


def rref_verdict(check, fops, rows, n: int):
    """The pivots `check` returns for `rows`, or the message it refuses them with."""
    try:
        return check(fops, rows, n)
    except MalformedInput as err:
        return str(err)


def test_f_rref_check_matches_the_reference(sdp_pool):
    # the one-pass check accepts, with the same pivots, and refuses, with
    # the same message, exactly the row sets that the reference does, over
    # every field of the pool
    rng = random.Random(1618)
    fields = {(g.module.fops.q, g.module.fops.one): g.module.fops for g in sdp_pool}
    accepted = refused = 0
    for fops in fields.values():
        q, one = fops.q, fops.one
        other = next(x for x in range(1, q) if x != one)
        # a zero row, equal pivots, falling pivots, a leading entry other
        # than one, a nonzero entry in another row's pivot column, entries
        # >= q and < 0, rows of the wrong length
        cases = [((one, 0, 0), (0, 0, 0)), ((0, one, 0), (0, one, 0)), ((0, one, 0), (one, 0, 0)),
                 ((other, 0, 0),), ((one, other, 0), (0, one, 0)), ((one, q, 0),),
                 ((one, 0, -1),), ((one, 0),), ((one, 0, 0, 0),), ((one, 0, 0), (0, one))]
        for rows in cases:
            for check in (sdp._f_rref_pivots, reference_f_rref_pivots):
                assert rref_verdict(check, fops, rows, 3) == "rows are not in F-RREF over F^3"
        # RREF row sets with up to two entries overwritten, rows shuffled at times
        for _ in range(300):
            n = rng.randrange(5)
            vectors = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randrange(n + 2))]
            rows = [list(row) for row in fops.f_rref(vectors, n)[0]]
            for _ in range(rng.randrange(3) if rows and n else 0):
                rows[rng.randrange(len(rows))][rng.randrange(n)] = rng.choice(
                    (0, one, other, rng.randrange(q), -1, q))
            if rng.randrange(4) == 0:
                rng.shuffle(rows)
            rows = tuple(map(tuple, rows))
            verdict = rref_verdict(sdp._f_rref_pivots, fops, rows, n)
            assert verdict == rref_verdict(reference_f_rref_pivots, fops, rows, n), (q, rows)
            accepted += isinstance(verdict, list)
            refused += isinstance(verdict, str)
        # every basis the field enumerates is accepted, with its leading columns
        for n in range(4):
            for rows in all_subspaces(fops, n):
                pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
                assert sdp._f_rref_pivots(fops, rows, n) == pivots, (q, rows)
                assert reference_f_rref_pivots(fops, rows, n) == pivots, (q, rows)
    assert accepted > 500 and refused > 500, (accepted, refused)


def round_trip_instances():
    return [
        g_f5_c4(1), g_f5_c4(2),
        sdp.SdGroup.create(3, 1, 2, [((2,),)]),
        sdp.SdGroup.create(3, 2, 1, [((0, 2), (1, 0))]),
        sdp.SdGroup.create(2, 2, 2, [((1, 1), (1, 0))]),
    ]


def round_trip_pairs(g):
    """Every (U, Z) pair of g, as F-RREF rows."""
    fops = g.module.fops
    z_list = list(all_subspaces(fops, g.module.f_dim))
    return [(u, z) for u in all_subspaces(fops, g.t) for z in z_list]


def test_realize_round_trip_enumerated():
    # every (U, Z) pair in a few small instances
    for g in round_trip_instances():
        for u, z in round_trip_pairs(g):
            t_star, d = g.t - len(u), len(z)
            if t_star == 0 and d > 0:
                with pytest.raises(MalformedInput, match="cannot realize a nonzero Z"):
                    sdp.realize_intersection(g, u, z)
                continue
            fam = sdp.realize_intersection(g, u, z)
            if t_star == 0 and d == 0:
                assert fam == []
                continue
            assert len(fam) == t_star + d
            expected = sdp.descriptor_elements(
                g, u, sdp.centralizer_in_h(g, z), (0,) * g.wdim
            )
            brute = (1 << g.order) - 1
            for m in fam:
                brute &= sdp.supplement_elements(g, m)
            assert brute == expected, (g.name, u, z)
            ci = sdp.canonicalize_intersection(g, fam)
            assert sdp.canonical_elements(g, ci) == expected


def test_enumerate_and_the_calculus_share_one_canonical_translate(sdp_pool):
    # each enumerated translate is zero off the k-block of its hyperplane's
    # non-pivot F-column, and distinct descriptors are distinct subgroups
    for g in sdp_pool:
        sups = sdp.enumerate_maximal_supplements(g)
        for m in sups:
            (f,) = set(range(g.t)) - {next(c for c, x in enumerate(s) if x)
                                      for s in m.submodule}
            assert not any(m.translate[:f * g.k] + m.translate[(f + 1) * g.k:]), (g.name, m)
        masks = {sdp.supplement_elements(g, m) for m in sups}
        assert len(masks) == len(sups), g.name
    # the calculus reads back the same translates: every realized family
    # member is an enumerated descriptor
    checked = 0
    for g in round_trip_instances():
        sups = set(sdp.enumerate_maximal_supplements(g))
        for u, z in round_trip_pairs(g):
            if len(u) < g.t:
                for m in sdp.realize_intersection(g, u, z):
                    assert m in sups, (g.name, u, z, m)
                    checked += 1
    assert checked > 50, checked


def test_trivial_multiplicity_has_no_maximal_submodule():
    # F^0 has no hyperplane, so V^0 x| H = H has no maximal supplement
    g = sdp.SdGroup.create(5, 1, 0, [((2,),)])
    assert g.maximal_submodules() == []
    assert sdp.enumerate_maximal_supplements(g) == []


def test_realize_family_size_is_tstar_plus_d():
    g2 = g_f5_c4(2)
    u = ()
    z = [(g2.module.fops.one,)]
    fam = sdp.realize_intersection(g2, u, z)
    assert len(fam) == 2 + 1  # t* = 2, d = 1


def test_embed_as_oracle_examples():
    oracle = sdp.embed_as_oracle(g_s3())
    assert oracle.n == 6
    assert sorted(order_of(oracle, x) for x in range(6)) == [1, 2, 2, 2, 3, 3]
    h_only = sdp.SdGroup(g_f5_c4(1).module, 0)
    o2 = sdp.embed_as_oracle(h_only)
    assert o2.n == 4
    o3 = sdp.embed_as_oracle(g_f5_c4(1))
    assert o3.n == 20
    assert sorted({order_of(o3, x) for x in range(20)}) == [1, 2, 4, 5]


def test_embed_as_oracle_fills_h_table_from_the_generators(monkeypatch):
    # H's table takes one matrix product per element and generator of H
    # (144 here), not one per pair of elements (5,184)
    g = sdp.SdGroup.create(7, 2, 1, [((5, 0), (0, 1)), ((0, 1), (1, 0))])
    H = g.module.group
    assert (H.n, len(H.gens)) == (72, 2)
    calls = [0]

    def counted(a, b, p):
        calls[0] += 1
        return ffla.mat_mul(a, b, p)

    monkeypatch.setattr(sdp, "mat_mul", counted)
    oracle = sdp.embed_as_oracle(g)
    assert calls[0] <= H.n * len(H.gens)
    monkeypatch.undo()
    # the ids below |H| are (0, h), and they multiply as in H
    assert all(oracle.mul(i, j) == H.mul(i, j) for i in range(H.n) for j in range(H.n))


def test_index_law():
    for g in [g_f5_c4(2), sdp.SdGroup.create(3, 2, 2, [((0, 2), (1, 0))])]:
        v_size = g.p**g.k
        for m in sdp.enumerate_maximal_supplements(g):
            assert g.order // (g.p ** fp_span(g, m.submodule).dim * g.module.order) == v_size


def test_crown_g2_spec_example(tower2):
    oracle = tower2.embed_as_oracle()
    classes = sdp.chief_factor_classes(oracle)
    cls5 = next(c for c in classes if c.prime == 5)
    data = sdp.crown(oracle, cls5)
    assert data.centralizer.bit_count() == 15       # V_1 x V_2
    assert data.core_r.bit_count() == 3             # V_1
    assert data.delta == 1
    assert data.complement is not None and data.complement.bit_count() == 5
    assert sdp.crown_module_check(oracle, data)


def test_crown_s3_and_f20():
    s3 = sdp.embed_as_oracle(g_s3())
    cls3 = next(c for c in sdp.chief_factor_classes(s3) if c.prime == 3)
    data = sdp.crown(s3, cls3)
    assert (data.centralizer.bit_count(), data.core_r.bit_count(), data.delta) == (3, 1, 1)
    assert data.complement.bit_count() == 3
    f20 = sdp.embed_as_oracle(g_f5_c4(1))
    cls5 = next(c for c in sdp.chief_factor_classes(f20) if c.prime == 5)
    data = sdp.crown(f20, cls5)
    assert data.delta == 1 and data.core_r.bit_count() == 1
    assert sdp.crown_module_check(f20, data)
    # |G/R| = |V|^delta * |G/C|
    assert (f20.n // data.core_r.bit_count()
            == cls5.module_size**data.delta * (f20.n // data.centralizer.bit_count()))


def test_find_corona_crown_requires_frattini_free():
    c4 = gr.cyclic(4)
    with pytest.raises(MalformedInput, match="^frattini-free: "):
        sdp.find_corona_crown(c4)


def test_corona_and_sotto_on_corpus(corpus_list):
    for g in corpus_list:
        if gr.frattini(g).bit_count() != 1:
            continue
        data = sdp.find_corona_crown(g)
        d_sub = data.complement
        r_sub = data.core_r
        assert d_sub.bit_count() > 1
        assert (d_sub & r_sub) == 1
        assert d_sub.bit_count() * r_sub.bit_count() == data.centralizer.bit_count()
        # if KD = KR = G then K = G
        for k in gr.all_subgroups(g):
            kd = k.bit_count() * d_sub.bit_count() // (k & d_sub).bit_count()
            kr = k.bit_count() * r_sub.bit_count() // (k & r_sub).bit_count()
            if kd == g.n and kr == g.n:
                assert k.bit_count() == g.n, g.name


def test_crown_module_check_corpus(corpus_list):
    for g in corpus_list[:12]:
        for cls in sdp.chief_factor_classes(g):
            assert sdp.crown_module_check(g, sdp.crown(g, cls)), g.name


def test_crowns_match_normality_by_every_element(corpus_and_primitive_oracles,
                                                 small_pool_oracles, tower2, tower3):
    # R and the direct complement D against conjugation by every element
    # and a scan of the whole lattice, not the classes of size 1
    def normal(g, s):
        return all((s >> g.conj(x, h)) & 1 for h in range(g.n) for x in tuple(gr.mask_bits(s)))

    towers = [tower.TowerGroup(tower.find_primes(1)).embed_as_oracle(),
              tower2.embed_as_oracle(), tower3.embed_as_oracle()]
    for g in corpus_and_primitive_oracles + [g for _, g in small_pool_oracles] + towers:
        try:
            classes = sdp.chief_factor_classes(g)
        except ResourceCapExceeded:
            assert g.n == 486, g.name  # 3^5:C2 has more than LATTICE_CAP subgroups
            continue
        for cls in classes:
            data = sdp.crown(g, cls)
            r, c = data.core_r, data.centralizer
            assert r == functools.reduce(operator.and_, cls.maximals), g.name
            assert normal(g, r), g.name
            target = c.bit_count() // r.bit_count()
            complement = next((d for d in gr.all_subgroups(g)
                               if d.bit_count() == target and d & c == d and d & r == 1
                               and normal(g, d)), None)
            assert data.complement == complement, g.name


def reference_chief_factor_classes(g):
    """(label, prime, dim, centralizer, maximals) of each class, grouping the
    factors by an explicit invertible intertwiner from the lexicographic
    search of reference_module_isomorphism, each centralizer by a test of
    every element."""
    classes, centralizers = [], {}
    for m in gr.maximal_subgroups(g):
        y, x = gr.core_and_socle(m, g)
        p, d, mats, _cosets = gr.factor_action(g, x, y)
        if (y, x) not in centralizers:
            centralizers[y, x] = reference_centralizer_of_factor(g, x, y)
        c = centralizers[y, x]
        for cp, cd, cmats, cc, maximals in classes:
            if ((cp, cd, cc) == (p, d, c)
                    and reference_module_isomorphism(cmats, mats, p, d) is not None):
                maximals.append(m)
                break
        else:
            classes.append((p, d, mats, c, [m]))
    return [(f"p{p}d{d}#{i}", p, d, c, maximals)
            for i, (p, d, _mats, c, maximals) in enumerate(classes)]


def test_chief_factor_classes_match_the_isomorphism_search(corpus_and_primitive_oracles,
                                                           small_pool_oracles, large_pool_oracles,
                                                           tower2, tower3):
    # the classes take each maximal's factor from one chief series and
    # compare irreducible factors by a nonzero intertwiner (Schur's lemma);
    # the reference takes the socle of G/core(M) and asks for an invertible
    # one.  In F_7^2 x| C_3, with the generator scaling the two coordinates
    # by 2 and 4, the two F_7 factors share prime, dimension and
    # centralizer but are not isomorphic.
    f49_c3 = gr.oracle_from_split_tables([7, 7], [[2 * 7, 4]], gr.cyclic(3), "F7^2:C3")
    assert ([(p, d, c.bit_count()) for _, p, d, c, _ in reference_chief_factor_classes(f49_c3)]
            == [(7, 1, 49), (7, 1, 49), (3, 1, 147)])
    towers = [tower.TowerGroup(tower.find_primes(1)).embed_as_oracle(),
              tower2.embed_as_oracle(), tower3.embed_as_oracle()]
    for g in (corpus_and_primitive_oracles + [g for _, g in small_pool_oracles]
              + large_pool_oracles + towers + [f49_c3]):
        try:
            classes = sdp.chief_factor_classes(g)
        except ResourceCapExceeded:
            assert g.n == 486, g.name  # 3^5:C2 has more than LATTICE_CAP subgroups
            continue
        got = [(c.label, c.prime, c.dim, c.centralizer, c.maximals) for c in classes]
        assert got == reference_chief_factor_classes(g), g.name


def test_chief_factor_classes_act_once_per_chief_factor(monkeypatch):
    # F_7^2 with H = 1 has 8 maximals, all normal, and chief length 2: the
    # action and its centralizer are computed per chief factor, not per
    # maximal
    g = sdp.embed_as_oracle(sdp.SdGroup.create(7, 1, 2, []))
    calls = []
    step = gr.factor_action

    def counted(G, x, y):
        calls.append((x, y))
        return step(G, x, y)

    monkeypatch.setattr(gr, "factor_action", counted)
    classes = sdp.chief_factor_classes(g)
    maximals = list(gr.maximal_subgroups(g))
    assert len(maximals) == 8
    assert len(set(calls)) == len(calls) == 2
    # both factors are the trivial module F_7, so one class holds every maximal
    assert [(c.prime, c.dim, c.maximals) for c in classes] == [(7, 1, maximals)]


def reference_fixed_space_over(G, W):
    """{v : v^h - v in W for every generator h} as W plus the nullspace of
    the n^2 linear equations, one per (generator, coordinate of V^t/W)."""
    p, n = G.p, G.wdim
    if n == 0 or not G.module.group.gens:
        return FpSubspace.full(p, n)
    eq_rows = []
    for g in G.module.group.gens:
        reds = []
        for i in range(n):
            e = tuple(1 if c == i else 0 for c in range(n))
            reds.append(W.reduce(vec_sub(sd_act(G, e, g), e, p)))
        for j in range(n):
            eq_rows.append(tuple(reds[i][j] for i in range(n)))
    kernel = ffla.nullspace(eq_rows, p, n)
    return FpSubspace.from_vectors(p, n, list(W.basis) + kernel)


def test_submodule_from_fvectors_matches_the_fp_span(sdp_pool):
    # seeded F^t rows, zero, dependent and unreduced ones included, on cold
    # groups: the span built from their F-RREF equals the F_p elimination of
    # every e_j * s_i, and `fvectors_of_submodule` reads that F-RREF back off
    # the span alone, whose every k-th pivot over k is a leading column of
    # it; rows not in F-RREF are refused
    rng = random.Random(2718)
    unreduced = 0
    for g in sdp_pool:
        fops = g.module.fops
        for _ in range(20):
            rows = [tuple(rng.randrange(fops.q) for _ in range(g.t))
                    for _ in range(rng.randrange(g.t + 2))]
            reduced = fops.f_rref(rows, g.t)[0]
            unreduced += reduced != tuple(rows)
            fresh = sdp.SdGroup(g.module, g.t)
            if reduced != tuple(rows):
                with pytest.raises(MalformedInput):
                    fresh.submodule_from_fvectors(rows)
            W = fresh.submodule_from_fvectors(reduced)
            assert W == fp_span(g, rows), (g.name, rows)
            assert fresh.fvectors_of_submodule(W) == reduced
            assert g.fvectors_of_submodule(fp_span(g, rows)) == reduced
            leading = [next(c for c, x in enumerate(s) if x) for s in reduced]
            assert [c // g.k for c in W.pivots[::g.k]] == leading, (g.name, rows)
    assert unreduced > 400


def test_fvectors_of_submodule_reads_the_rows_off_the_span(sdp_pool):
    # the F-rows come from W alone, so a group over the same module that has
    # built nothing reads them too
    g = next(g for g in sdp_pool if g.t == 2 and g.k == 2)
    rows = g.maximal_submodules()[0]
    W = g.submodule_from_fvectors(rows)
    assert g.fvectors_of_submodule(W) == rows == g.module.fops.hyperplanes(2)[0]
    assert sdp.SdGroup(g.module, g.t).fvectors_of_submodule(W) == rows
    # W does not lie in V^3, and an F_p line of V^2 is no submodule
    with pytest.raises(MalformedInput):
        sdp.SdGroup(g.module, 3).fvectors_of_submodule(W)
    line = FpSubspace.from_vectors(g.p, g.wdim, [(0, 0, 0, 1)])
    with pytest.raises(MalformedInput):
        g.fvectors_of_submodule(line)


def test_realize_refuses_u_rows_not_in_f_rref():
    g2 = g_f5_c4(2)
    fops = g2.module.fops
    one, two = fops.one, fops.neg_t[fops.one]
    for u in ([(two, 0)], [(one, one), (0, one)], [(0, one), (one, 0)], [(one, 0), (one, 0)],
              [(0, 0)], [(one,)], [(one, 0, 0)], [(one, fops.q)]):
        with pytest.raises(MalformedInput):
            sdp.realize_intersection(g2, u, ())


def test_realize_takes_u_rows_from_another_group_over_the_module():
    # U is its F-RREF rows, which name the same submodule on every group
    # over the module with the same t
    g2 = g_f5_c4(2)
    other = sdp.SdGroup(g2.module, 2)
    one = g2.module.fops.one
    for u in other.maximal_submodules() + [()]:
        fam = sdp.realize_intersection(g2, u, [(one,)])
        assert fam == sdp.realize_intersection(other, u, [(one,)])
        assert set(fam) <= set(sdp.enumerate_maximal_supplements(g2))


def test_frame_coordinates_are_f_linear_and_invert_vector_of(sdp_pool):
    # every v of V comes back from its F-coordinates, and the coordinates
    # of u + v and of v * a are the sums and the products over F
    modules = {id(g.module): g.module for g in sdp_pool + corpus.primitive_groups()}
    shapes = set()
    for module in modules.values():
        fops, p = module.fops, module.p
        shapes.add((module.fops.degree, module.f_dim))
        assert len(module.frame) == module.k
        coords = {v: module.fcoords(v) for v in subspace_vectors(FpSubspace.full(p, module.k))}
        for v, c in coords.items():
            assert len(c) == module.f_dim and all(0 <= x < fops.q for x in c)
            assert module.vector_of(c) == v, (module.name, v)
            for a in range(fops.q):
                assert (coords[vec_mat(v, fops.elements[a], p)]
                        == tuple(fops.mul_t[x][a] for x in c)), module.name
            for u, d in coords.items():
                assert (coords[vec_add(u, v, p)]
                        == tuple(fops.add_t[x][y] for x, y in zip(d, c))), module.name
    assert shapes == {(1, 1), (2, 1), (3, 1), (1, 2)}


def test_fixed_space_closed_form_matches_reference(sdp_pool):
    groups = list(sdp_pool) + corpus.primitive_groups()
    groups += [sdp.SdGroup.create(3, 1, 2, []), sdp.SdGroup(g_f5_c4(1).module, 0)]
    checked = 0
    for g in groups:
        for rows in g.maximal_submodules():
            W = g.submodule_from_fvectors(rows)
            assert g.fixed_space_over(W) == reference_fixed_space_over(g, W), g.name
            checked += 1
        zero = zero_subspace(g.p, g.wdim)
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
        assert ci2.z_space == ci.z_space
        assert sdp.subgroup_equal(g, ci, ci2)
        assert sdp.canonical_elements(g, ci) == sdp.canonical_elements(g, ci2)


def test_subgroup_equal_matches_the_element_masks(sdp_pool):
    # random (U, Z) with two translates, the second v plus a vector of U's
    # F_p span or drawn at random: the triples are equal subgroups exactly
    # when the brute force gives them one element mask
    rng = random.Random(8080)
    verdicts = []
    for g in (g for g in sdp_pool if g.order <= 800):
        fops, f_dim = g.module.fops, g.module.f_dim
        for _ in range(40):
            U = sdp.random_submodule(g, rng)
            span = fp_span(g, U)
            lines = [tuple(rng.randrange(fops.q) for _ in range(f_dim))
                     for _ in range(rng.randrange(f_dim + 1))]
            Z = fops.f_rref(lines, f_dim)[0]
            v = tuple(rng.randrange(g.p) for _ in range(g.wdim))
            if rng.randrange(2):
                w = v
                for row in span.basis:
                    w = vec_add(w, tuple(rng.randrange(g.p) * x for x in row), g.p)
            else:
                w = tuple(rng.randrange(g.p) for _ in range(g.wdim))
            a, b = sdp.CanonicalIntersection(U, v, Z), sdp.CanonicalIntersection(U, w, Z)
            equal = sdp.canonical_elements(g, a) == sdp.canonical_elements(g, b)
            assert sdp.subgroup_equal(g, a, b) == equal, (g.name, a, b)
            verdicts.append(equal)
    assert len(verdicts) == 1160
    assert 100 < verdicts.count(False) < 1060


def test_trivial_acting_group_edge():
    # H = 1 forces k = 1 and G = V^t elementary abelian; translates of each
    # hyperplane collapse to a single maximal subgroup
    g = sdp.SdGroup(sdp.HModule.create(2, 1, []), 2)
    ms = sdp.enumerate_maximal_supplements(g)
    assert len(ms) == 3
    assert all(m.translate == (0, 0) for m in ms)
    ci = sdp.canonicalize_intersection(g, ms)
    assert ci.submodule == () and ci.z_space == ()
    assert sdp.canonical_elements(g, ci) == 1


def test_sdgroup_from_spec_schema():
    from solvint.errors import SchemaError

    cap = gr.DEFAULT_ORDER_CAP
    with pytest.raises(SchemaError):
        sdp.oracle_from_spec({"kind": "sdp", "p": 4, "k": 1, "t": 1, "h_gens": [[[1]]]}, cap)
    with pytest.raises(SchemaError):
        sdp.oracle_from_spec({"p": 5}, cap)
    g = sdp.oracle_from_spec({"kind": "sdp", "p": 5, "k": 1, "t": 2, "h_gens": [[[2]]]}, cap)
    assert g.n == 100


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
        group = gr.from_elements(ordered_elements(reference_closure(p, k, gens), k),
                                 lambda a, b, p=p: ffla.mat_mul(a, b, p), "H", mats)
        assert gr.is_solvable(group) == solvable, (p, k, gens)


# the Singer cycle of x^9 + x^4 + 1 over F_2, of order 511
SINGER = (tuple(tuple(int(j == i + 1) for j in range(9)) for i in range(8))
          + ((1, 0, 0, 0, 1, 0, 0, 0, 0),))


def test_solvability_of_a_cyclic_matrix_group_walks_no_elements():
    # G.gens generates G, so the derived series finds no generating set by
    # a walk over the elements, which would cost a law call per element
    group = gr.from_elements(ordered_elements(reference_closure(2, 9, [SINGER]), 9),
                             lambda a, b: ffla.mat_mul(a, b, 2), "C511", (SINGER,))
    with counting_law_calls(group) as calls:
        assert gr.is_solvable(group)
    assert gr.derived_series(group) == ((1 << 511) - 1, 1)
    assert calls[0] < 10, calls


def ordered_elements(members, k):
    """The matrices of `members` in HModule's id order: the identity, then
    the rest sorted by entries."""
    identity = ffla.mat_identity(k)
    return (identity,) + tuple(sorted(m for m in members if m != identity))


def test_module_group_matches_the_table_of_its_elements(sdp_pool):
    # the law and the inverses of module.group, cell by cell, against the
    # |H|^2 table of matrix products and its scan for the identity
    modules = {id(g.module): g.module for g in sdp_pool + corpus.primitive_groups()}
    for module in modules.values():
        H = module.group
        table, inverses = reference_matrix_table(module.elements, module.p)
        assert H.n == len(table) == module.order
        assert [[H.mul(a, b) for b in range(H.n)] for a in range(H.n)] == table, module.name
        assert [inverse(H, a) for a in range(H.n)] == inverses, module.name
        assert module.elements[0] == ffla.mat_identity(module.k)
        assert list(module.elements[1:]) == sorted(module.elements[1:])
        assert all(H.gens)  # the ids of the non-identity generators
        assert gr.closure_mask(H, H.gens) == (1 << H.n) - 1, module.name


def test_module_creation_inverts_no_element_of_h(monkeypatch):
    # mat_inv checks each generator and inverts the frame; the inverses of
    # H come from its cyclic walks, so even the order-511 Singer H inverts
    # no element
    calls = [0]
    mat_inv = ffla.mat_inv

    def counted(a, p):
        calls[0] += 1
        return mat_inv(a, p)

    monkeypatch.setattr(sdp, "mat_inv", counted)
    for p, k, gens in corpus.SDP_TEMPLATES + ((2, 9, (SINGER,)),):
        calls[0] = 0
        module = sdp.HModule.create(p, k, gens)
        assert calls[0] <= len(gens) + 1, (p, k, module.order, calls[0])


# ---------------------------------------------------------------------------
# Gaschuetz's product formula: the crowns fix the Moebius sums by index


@pytest.fixture(scope="module")
def gaschuetz_oracles(spec_mix_oracles, corpus_and_primitive_oracles, small_pool_oracles,
                      large_pool_oracles, tower2, tower3):
    """The groups of the distinct `spec-mix` specs of bench/workloads.py,
    built as the CLI builds them, the corpus and primitive groups, tower
    n = 1..3 and the pool groups whose lattices fit LATTICE_CAP."""
    oracles = spec_mix_oracles + corpus_and_primitive_oracles
    oracles += [g for _, g in small_pool_oracles if g.n != 486]
    oracles += large_pool_oracles
    oracles += [tower.TowerGroup(tower.find_primes(1)).embed_as_oracle(),
                tower2.embed_as_oracle(), tower3.embed_as_oracle()]
    return oracles


def crown_factors(g):
    """(class, delta, q, c) for each complemented chief-factor class A of
    g: delta from its crown, q = |End_G(A)| from the class's action
    matrices, and c = 1 when G acts trivially on A, |A| otherwise."""
    full = (1 << g.n) - 1
    for cls in sdp.chief_factor_classes(g):
        q = ffla.endomorphism_field(cls.action_matrices, cls.prime, cls.dim).q
        c = 1 if cls.centralizer == full else cls.module_size
        yield cls, sdp.crown(g, cls).delta, q, c


def test_moebius_sums_by_index_are_the_crown_product(gaschuetz_oracles):
    # Gaschuetz (1959), in the crown form of Detomi and Lucchini (2003):
    # for solvable G, the sum of mu(H, G) |G:H|^(-s) over H <= G is the
    # product over the classes A of prod_(i < delta_A) (1 - c_A q_A^i |A|^(-s));
    # both sides as Dirichlet polynomials, index -> coefficient
    for g in gaschuetz_oracles:
        sums: dict[int, int] = {}
        for s, value in gr.mobius_all(g).items():
            index = g.n // s.bit_count()
            sums[index] = sums.get(index, 0) + value
        product_ = {1: 1}
        for cls, delta, q, c in crown_factors(g):
            for i in range(delta):
                term: dict[int, int] = {}
                for index, coeff in product_.items():
                    term[index] = term.get(index, 0) + coeff
                    bigger = index * cls.module_size
                    term[bigger] = term.get(bigger, 0) - coeff * c * q**i
                product_ = term
        assert ({n: v for n, v in sums.items() if v}
                == {n: v for n, v in product_.items() if v}), g.name


def test_maximals_per_class_are_the_crown_count(gaschuetz_oracles):
    # the linear terms of the product: c_A (q_A^delta - 1) / (q_A - 1)
    # maximals complement the factors of class A
    classes = 0
    for g in gaschuetz_oracles:
        for cls, delta, q, c in crown_factors(g):
            assert len(cls.maximals) == c * (q**delta - 1) // (q - 1), (g.name, cls.label)
            classes += 1
    assert classes > 200


def test_realized_intersections_have_eta_at_most_the_family_product(sdp_pool):
    # realize_intersection(G, U, Z) gives t* + d supplements of index |V|
    # meeting in U * C_H(Z), so the oracle's least eta product for that
    # subgroup is at most |V|^(t* + d).  Pool groups above order 300 are
    # left out: the trivial subgroup of V^3:H<GL(1,5)|500 hits the
    # eta search's node cap.
    families = tight = 0
    for g in sdp_pool:
        if g.order > 300:
            continue
        oracle = sdp.embed_as_oracle(g)
        for u, z in round_trip_pairs(g):
            t_star, d = g.t - len(u), len(z)
            if t_star == 0:
                continue
            h = functools.reduce(operator.and_, (sdp.supplement_elements(g, m)
                                                 for m in sdp.realize_intersection(g, u, z)))
            product = props.eta_of_intersection(oracle, h).product
            bound = (g.p ** g.k) ** (t_star + d)
            assert product <= bound, (g.name, g.order, u, z)
            families += 1
            tight += product == bound
    assert families > 800 and 0 < tight < families, (families, tight)


# ---------------------------------------------------------------------------
# the crown module check against the lexicographic isomorphism search


# the crowns (group, order, delta) on which reference_module_isomorphism
# passes its cap, after 2-7 s each; the next test checks the five of them
SEARCH_CAPPED = {("V^4:H<GL(1,3)|162", 162, 4), ("V^3:H<GL(1,7)|1029", 1029, 3)}


def test_crown_module_check_matches_the_isomorphism_search(gaschuetz_oracles):
    # every crown is G-isomorphic to V^delta, by both checks; the negatives
    # pair a crown with another class of the same prime and dimension, as
    # the two F_7 classes of F_7^2 x| C_3 (generator scaling by 2 and 4)
    f49_c3 = gr.oracle_from_split_tables([7, 7], [[2 * 7, 4]], gr.cyclic(3), "F7^2:C3")
    crowns, capped, negatives = 0, set(), 0
    for g in gaschuetz_oracles + [f49_c3]:
        classes = sdp.chief_factor_classes(g)
        for cls in classes:
            data = sdp.crown(g, cls)
            assert sdp.crown_module_check(g, data), (g.name, cls.label)
            crowns += 1
            if (g.name, g.n, data.delta) in SEARCH_CAPPED:
                capped.add((g.name, g.n, data.delta))
            else:
                assert reference_crown_module_check(g, data), (g.name, cls.label)
            for other in classes:
                if other is not cls and (other.prime, other.dim) == (cls.prime, cls.dim):
                    wrong = data._replace(v_class=other)
                    assert not sdp.crown_module_check(g, wrong), (g.name, cls.label)
                    assert not reference_crown_module_check(g, wrong), (g.name, cls.label)
                    negatives += 1
    assert (crowns, capped, negatives) == (231, SEARCH_CAPPED, 4)


def test_crown_module_check_passes_where_the_search_hit_its_cap(small_pool_oracles,
                                                                large_pool_oracles):
    # C2^6, F_3^4 x| C_2 and F_7^3 as sdp specs, and the pool's F_3^4 x| C_2
    # and V^3:H<GL(1,7)|1029: one crown each of delta 6, 4, 3, 4 and 3
    specs = [sdp.embed_as_oracle(sdp.SdGroup.create(p, 1, t, gens))
             for p, t, gens in ((2, 6, []), (3, 4, [((2,),)]), (7, 3, []))]
    capped_groups = {(name, order) for name, order, _delta in SEARCH_CAPPED}
    pool = [g for g in [g for _, g in small_pool_oracles] + large_pool_oracles
            if (g.name, g.n) in capped_groups]
    crowns = [(g, data) for g in specs + pool for cls in sdp.chief_factor_classes(g)
              for data in [sdp.crown(g, cls)] if data.delta >= 3]
    assert [data.delta for _, data in crowns] == [6, 4, 3, 4, 3]
    start = time.perf_counter()
    assert all(sdp.crown_module_check(g, data) for g, data in crowns)
    assert time.perf_counter() - start < 1
    with pytest.raises(ResourceCapExceeded, match="module_isomorphism solution search"):
        reference_crown_module_check(*crowns[2])  # F_7^3, the quickest to reach the cap
