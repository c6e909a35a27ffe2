import functools
import math
import operator
import random
import tracemalloc
from array import array
from itertools import product

import pytest

from solvint import cli, corpus, ffla, sdp, tower
from solvint import groups as gr
from solvint.errors import MalformedInput, ResourceCapExceeded
from solvint.ffla import mat_identity

from references import (counting_law_calls, is_nilpotent_mask, reference_action_on_factor,
                        reference_centralizer_of_factor, reference_closure, reference_counts,
                        reference_derived_series, reference_normal_closure, order_of,
                        reference_greedy_generators, reference_power, reference_split_law,
                        reference_towers, reference_w_module_closure, inverse, orbit, sd_act,
                        tower_act_w, tower_w_id, vec_add)


def s3():
    return corpus.corpus_group("S3")


def test_from_mul_table_validates():
    # broken identity row
    with pytest.raises(MalformedInput):
        gr.from_mul_table([[1, 0], [0, 1]])
    # identity row and column, but row 1 repeats the entry 1
    with pytest.raises(MalformedInput, match="Latin square"):
        gr.from_mul_table([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    # fine for C2
    g = gr.from_mul_table([[0, 1], [1, 0]], "C2")
    assert g.n == 2 and inverse(g, 1) == 1


def test_from_mul_table_catches_nonassociative(corpus_list):
    # a quasigroup table that is not associative
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(MalformedInput):
        gr.from_mul_table(table)
    # Light's test on a generating set against every triple, on the Cayley
    # tables of the small corpus groups with intercalates swapped: each swap
    # of a 2 x 2 subsquare [[x, y], [y, x]] off row and column 0 keeps a
    # Latin square with an identity
    rng = random.Random(22)
    verdicts = set()
    for g in corpus_list:
        if g.n > 24:
            continue
        for _ in range(6):
            table = [[g.mul(a, b) for b in range(g.n)] for a in range(g.n)]
            for _ in range(rng.randint(0, 2)):
                cells = [(a, b, c, d) for a in range(1, g.n) for b in range(a + 1, g.n)
                         for c in range(1, g.n) for d in range(c + 1, g.n)
                         if table[a][c] == table[b][d] and table[a][d] == table[b][c]]
                if cells:
                    a, b, c, d = rng.choice(cells)
                    table[a][c], table[a][d] = table[a][d], table[a][c]
                    table[b][c], table[b][d] = table[b][d], table[b][c]
            n = len(table)
            associative = all(table[table[x][y]][z] == table[x][table[y][z]]
                              for x in range(n) for y in range(n) for z in range(n))
            verdicts.add(associative)
            if associative:
                assert gr.from_mul_table(table).n == n
                continue
            with pytest.raises(MalformedInput, match="associativity fails") as err:
                gr.from_mul_table(table)
            x, y, z = map(int, str(err.value).split("(")[1].rstrip(")").split(","))
            assert table[table[x][y]][z] != table[x][table[y][z]]
    assert verdicts == {True, False}


def test_gens_generate_the_group(corpus_list, sdp_pool, tower2, tower3):
    oracles = list(corpus_list) + [sdp.embed_as_oracle(g) for g in sdp_pool]
    oracles += [tower2.embed_as_oracle(), tower3.embed_as_oracle()]
    for g in oracles:
        assert gr.closure_mask(g, g.gens) == (1 << g.n) - 1, g.name


def test_normal_core_is_intersection_of_all_conjugates(corpus_list):
    for g in corpus_list:
        for m in gr.maximal_subgroups(g):
            core = (1 << g.n) - 1
            for x in range(g.n):
                core &= gr.conjugate_mask(g, m, x)
            assert gr.normal_core(g, m) == core, g.name


def test_subgroup_closure_examples():
    g = s3()
    assert gr.subgroup_closure(g, []).bit_count() == 1
    assert gr.subgroup_closure(g, list(range(6))).bit_count() == 6
    three_cycle = next(x for x in range(6) if order_of(g, x) == 3)
    assert gr.subgroup_closure(g, [three_cycle]).bit_count() == 3


def test_all_subgroups_cyclic_prime():
    for p in (2, 3, 5, 7):
        assert len(gr.all_subgroups(gr.cyclic(p))) == 2


def test_all_subgroups_s3():
    subs = gr.all_subgroups(s3())
    assert [s.bit_count() for s in subs] == [1, 2, 2, 2, 3, 6]
    classes = gr.conjugacy_classes_of_subgroups(s3())
    assert [(rep.bit_count(), size) for rep, size in classes] == [(1, 1), (2, 3), (3, 1), (6, 1)]


def test_all_subgroups_cap(monkeypatch):
    # the order cap is checked where the oracle is built, before the table
    # is validated (from_mul_table is never reached); the lattice itself
    # only has LATTICE_CAP
    c50 = gr.cyclic(50)
    table = [[c50.mul(a, b) for b in range(50)] for a in range(50)]
    monkeypatch.setattr(gr, "from_mul_table", None)
    with pytest.raises(ResourceCapExceeded) as refused:
        cli.build_oracle({"kind": "oracle-table", "table": table}, 10)
    assert str(refused.value) == "oracle embedding of |G|=50 exceeds the order cap (cap: 10)"
    # C2^6 has 2,825 subgroups, C2^7 has 29,212 > LATTICE_CAP
    c2_6 = gr.cyclic(2)
    for _ in range(5):
        c2_6 = gr.direct_product(c2_6, gr.cyclic(2))
    assert len(gr.all_subgroups(c2_6)) == 2825
    with pytest.raises(ResourceCapExceeded, match="subgroup lattice size"):
        gr.all_subgroups(gr.direct_product(c2_6, gr.cyclic(2)))


def test_lattice_cap_fires_on_the_class_and_maximal_paths(sdp_pool):
    # C2^7 has 29,212 subgroups and the order-486 pool group 3^5:C2 more
    # than LATTICE_CAP; each query starts on a cold copy of its group, and
    # the cap leaves the lattice table out of its memos
    c2_7 = gr.cyclic(2)
    for _ in range(6):
        c2_7 = gr.direct_product(c2_7, gr.cyclic(2))
    (g486,) = [sdp.embed_as_oracle(G) for G in sdp_pool if G.order == 486]
    for g in (c2_7, g486):
        for query in (gr.all_subgroups, gr.conjugacy_classes_of_subgroups, gr.maximal_subgroups):
            cold = gr.OracleGroup(g.n, g.mul, g.name, g.gens, g._inv)
            with pytest.raises(ResourceCapExceeded, match="subgroup lattice size"):
                query(cold)
            # a compute that raises leaves no memo table behind
            assert "lattice" not in cold._cache and "maximals" not in cold._cache


def test_all_subgroups_requires_solvable():
    a5 = gr.from_permutations([(1, 2, 0, 3, 4), (0, 1, 2, 4, 3)], "A5-ish")
    # <(012),(34)> is solvable order 6; build actual A5 via two gens
    a5 = gr.from_permutations([(1, 2, 3, 4, 0), (1, 0, 3, 2, 4)], "A5")
    assert a5.n == 60
    assert not gr.is_solvable(a5)
    with pytest.raises(MalformedInput, match="requires a solvable group"):
        gr.all_subgroups(a5)


def not_solvable_groups():
    """A5, S5, A5 x C2^3 and S5 x C2^3 (orders 60, 120, 480 and 960)."""
    a5 = gr.from_permutations([(1, 2, 3, 4, 0), (1, 0, 3, 2, 4)], "A5")
    s5 = gr.from_permutations([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], "S5")
    c2_3 = gr.direct_product(gr.direct_product(gr.cyclic(2), gr.cyclic(2)), gr.cyclic(2))
    return [a5, s5, gr.direct_product(a5, c2_3), gr.direct_product(s5, c2_3)]


def test_the_lattice_pass_refuses_exactly_the_groups_that_are_not_solvable(
        corpus_and_primitive_oracles, small_pool_oracles, monkeypatch):
    # the pass reaches G exactly when G is solvable, with no derived series;
    # S5 x C2^3 has more solvable subgroups than LATTICE_CAP and 3^5:C2 more
    # subgroups, so there, and only there, the cap branch tests solvability
    groups = corpus_and_primitive_oracles + [g for _, g in small_pool_oracles]
    tested, is_solvable = [], gr.is_solvable
    monkeypatch.setattr(gr, "is_solvable", lambda G: tested.append(G.n) or is_solvable(G))
    refused = {}
    for g in groups + not_solvable_groups():
        cold = gr.OracleGroup(g.n, g.mul, g.name, g.gens, g._inv)
        try:
            gr.all_subgroups(cold)
            refused[g.name] = False
        except MalformedInput as e:
            assert str(e) == "subgroup lattice enumeration requires a solvable group"
            refused[g.name] = True
        except ResourceCapExceeded:
            assert g.n in (486, 960), g.name
            refused[g.name] = False
        assert refused[g.name] == (reference_derived_series(g)[-1] != 1), g.name
    assert [name for name, no in refused.items() if no] == ["A5", "S5", "A5xC2xC2xC2",
                                                            "S5xC2xC2xC2"]
    assert tested == [486, 960]


def test_the_lattice_cap_refuses_a_group_that_is_not_solvable_as_unsupported(monkeypatch):
    # past the cap the derived series decides: A5 (59 subgroups) is not
    # solvable, S4 (30) is; neither leaves a lattice table behind.  Past the
    # order ceiling (A5 has order 60, S4 24) it decides the same way, before
    # the pass builds a conjugation table
    a5 = not_solvable_groups()[0]
    s4 = corpus.corpus_group("S4")
    for cap, value, capped in (("LATTICE_CAP", 20, "subgroup lattice size"),
                               ("LATTICE_ORDER_CEILING", 23, "exceeds its memory ceiling")):
        monkeypatch.setattr(gr, cap, value)
        for g, error, message in ((a5, MalformedInput, "requires a solvable group"),
                                  (s4, ResourceCapExceeded, capped)):
            cold = gr.OracleGroup(g.n, g.mul, g.name, g.gens, g._inv)
            with pytest.raises(error, match=message):
                gr.all_subgroups(cold)
            assert "lattice" not in cold._cache, (cap, g.name)
            if cap == "LATTICE_ORDER_CEILING":
                assert not {"conj", "powers_of_two"} & cold._cache.keys(), g.name
        monkeypatch.undo()


def test_cold_tower_lattices_take_no_derived_series(monkeypatch):
    # the order-884 level (primes 13, 17) and the order-2040 level (3, 5, 17)
    calls = []
    derived = gr._derived_series
    monkeypatch.setattr(gr, "_derived_series", lambda G: calls.append(G.n) or derived(G))
    for primes in (tower.TowerPrimes((13, 17), False), tower.find_primes(3)):
        g = tower.TowerGroup(primes).embed_as_oracle()
        assert gr.all_subgroups(g)[-1] == (1 << g.n) - 1
    assert calls == []


def test_cold_order_884_lattice_takes_under_2800_law_calls():
    # 2,730 law calls; 3,462 while a derived series tested solvability first
    g = tower.TowerGroup(tower.TowerPrimes((13, 17), False)).embed_as_oracle()
    assert g.n == 884
    with counting_law_calls(g) as calls:
        gr.all_subgroups(g)
    assert calls[0] < 2800, calls


def test_maximals_and_frattini():
    g = s3()
    maxs = gr.maximal_subgroups(g)
    assert sorted(g.n // m.bit_count() for m in maxs) == [2, 3, 3, 3]
    c4 = gr.cyclic(4)
    assert len(gr.maximal_subgroups(c4)) == 1
    assert gr.frattini(c4).bit_count() == 2
    sl23 = corpus.corpus_group("SL(2,3)")
    fr = gr.frattini(sl23)
    assert fr.bit_count() == 2
    center = [x for x in range(sl23.n) if all(sl23.mul(x, y) == sl23.mul(y, x) for y in range(sl23.n))]
    assert tuple(gr.mask_bits(fr)) == tuple(sorted(center))


def test_frattini_of_trivial_group_is_itself():
    g = gr.cyclic(1)
    assert gr.frattini(g).bit_count() == 1


def test_core_and_socle_examples():
    g = s3()
    subs = gr.all_subgroups(g)
    a3 = next(x for x in subs if x.bit_count() == 3)
    c2 = next(x for x in subs if x.bit_count() == 2)
    y, x = gr.core_and_socle(a3, g)
    assert (y.bit_count(), x.bit_count()) == (3, 6)
    y, x = gr.core_and_socle(c2, g)
    assert (y.bit_count(), x.bit_count()) == (1, 3)
    f20 = corpus.corpus_group("F20")
    m5 = next(m for m in gr.maximal_subgroups(f20) if f20.n // m.bit_count() == 5)
    y, x = gr.core_and_socle(m5, f20)
    assert (y.bit_count(), x.bit_count()) == (1, 5)


def test_core_and_socle_rejects_nonsolvable():
    a5 = gr.from_permutations([(1, 2, 3, 4, 0), (1, 0, 3, 2, 4)], "A5")
    m = gr.closure_mask(a5, [1])
    with pytest.raises(MalformedInput, match="requires a solvable group"):
        gr.core_and_socle(m, a5)


def test_mobius_examples():
    g = s3()
    mu = gr.mobius_all(g)
    subs = gr.all_subgroups(g)
    full = subs[-1]
    assert mu[full] == 1
    for m in gr.maximal_subgroups(g):
        assert mu[m] == -1
    assert mu[subs[0]] == 3


def test_mobius_on_a_cold_oracle_matches_the_warm_lattice(corpus_list):
    for g in corpus_list[:8]:
        lattice_mu = gr.mobius_all(g)
        for s in gr.all_subgroups(g)[:6]:
            fresh = gr.OracleGroup(g.n, g.mul, g.name, g.gens, g._inv)
            assert gr.mobius(s, fresh) == lattice_mu[s]


def test_mobius_refuses_a_mask_that_is_not_a_subgroup():
    g = s3()
    three_cycle = next(x for x in range(6) if order_of(g, x) == 3)
    with pytest.raises(MalformedInput, match="not a subgroup"):
        gr.mobius(1 | (1 << three_cycle), g)
    with pytest.raises(MalformedInput, match="not a subgroup"):
        gr.mobius(1 << g.n, g)


def test_lattice_queries_return_their_memoised_tuples():
    g = s3()
    for query in (gr.all_subgroups, gr.maximal_subgroups, gr.conjugacy_classes_of_subgroups,
                  gr.derived_series):
        first = query(g)
        assert type(first) is tuple and query(g) is first, query.__name__


def test_mobius_row_sums(corpus_list):
    for g in corpus_list:
        subs = gr.all_subgroups(g)
        mu = gr.mobius_all(g)
        full = (1 << g.n) - 1
        for h in subs:
            total = sum(mu[k] for k in subs if h & k == h)
            assert total == (1 if h == full else 0), g.name


def test_nonzero_mobius_implies_maximal_intersection(corpus_list):
    for g in corpus_list:
        mu = gr.mobius_all(g)
        for s in gr.all_subgroups(g):
            if mu[s] != 0:
                assert gr.is_maximal_intersection(s, g), g.name


def test_counts_s3():
    table = dict(gr.counts(s3()))
    assert table[2] == (1, 1, 1)
    assert table[3] == (3, 3, 3)
    assert table[6] == (0, 1, 1)


def test_counts_chain(corpus_list):
    for g in corpus_list:
        for _n, (m_n, b_n, c_n) in gr.counts(g):
            assert m_n <= b_n <= c_n, g.name


def test_counts_tower_g2_maximals():
    g2 = corpus.corpus_group("tower-G2")
    table = dict(gr.counts(g2))
    assert table[2][0] == 1 and table[3][0] == 3 and table[5][0] == 5


def test_lattice_matches_independent_enumeration():
    # closures of all subsets of size <= 3 (plus G) find every subgroup of
    # these small groups; this is independent of the cyclic-extension walk
    from itertools import combinations

    for name in ["S3", "D8", "Q8", "C2^3", "A4", "F20", "SL(2,3)"]:
        g = corpus.corpus_group(name)
        masks = {1, (1 << g.n) - 1}
        for size in (1, 2, 3):
            for gens in combinations(range(1, g.n), size):
                masks.add(gr.closure_mask(g, gens))
        assert masks == set(gr.all_subgroups(g)), name


def test_lattice_sizes_match_literature():
    # classical subgroup counts, independent of this implementation
    expected = {
        "S4": (30, 11),
        "A4": (10, 5),
        "D8": (10, 8),
        "Q8": (6, 6),
        "SL(2,3)": (15, 7),
        "C2^4": (67, 67),
        "F20": (14, 6),
    }
    for name, (n_subs, n_classes) in expected.items():
        g = corpus.corpus_group(name)
        assert len(gr.all_subgroups(g)) == n_subs, name
        assert len(gr.conjugacy_classes_of_subgroups(g)) == n_classes, name


def test_whole_group_is_the_empty_intersection():
    g = s3()
    assert gr.is_maximal_intersection((1 << g.n) - 1, g)


def test_frattini_members_are_not_maximal_intersections():
    sl23 = corpus.corpus_group("SL(2,3)")
    fr = gr.frattini(sl23)
    assert fr.bit_count() == 2
    assert not gr.is_maximal_intersection(1, sl23)


def test_chief_factor_complement_checks(corpus_and_primitive_oracles):
    # M complements X/Y: M cap X = Y, and M and X generate G, proved here by
    # a closure rather than by the order identity core_and_socle uses
    for g in corpus_and_primitive_oracles:
        full = (1 << g.n) - 1
        for m in gr.maximal_subgroups(g):
            y, x = gr.core_and_socle(m, g)
            assert m & x == y, g.name
            assert gr.closure_mask(g, set(gr.mask_bits(m)) | set(gr.mask_bits(x))) == full, g.name


def test_chief_factor_action_and_centralizer_match_references(corpus_and_primitive_oracles,
                                                              small_pool_oracles,
                                                              large_pool_oracles):
    # the coset table and the per-coset matrices against the least element
    # of each coset by a scan over Y, each element's own matrix and a test
    # of every element
    assert sorted(g.n for g in large_pool_oracles) == [1029, 1210, 1296, 1944]
    oracles = corpus_and_primitive_oracles + [g for _, g in small_pool_oracles] + large_pool_oracles
    for g in oracles:
        try:
            maximals = gr.maximal_subgroups(g)
        except ResourceCapExceeded:
            assert g.n == 486, g.name  # 3^5:C2 has more than LATTICE_CAP subgroups
            continue
        for y, x in {gr.core_and_socle(m, g) for m in maximals}:
            p, d, mats, cosets = gr.factor_action(g, x, y)
            assert (p, d, mats) == reference_action_on_factor(g, x, y, g.gens), g.name
            # the masks partition G, each element under the matrix it acts by
            assert functools.reduce(operator.or_, cosets.values()) == (1 << g.n) - 1, g.name
            assert sum(c.bit_count() for c in cosets.values()) == g.n, g.name
            acts_by = reference_action_on_factor(g, x, y, range(g.n))[2]
            assert all((cosets[acts_by[e]] >> e) & 1 for e in range(g.n)), g.name
            assert cosets[mat_identity(d)] == reference_centralizer_of_factor(g, x, y), g.name


def test_socle_is_the_least_normal_subgroup_above_the_core(corpus_and_primitive_oracles,
                                                           small_pool_oracles):
    # from the lattice and conjugation by every element alone: neither
    # normal_closure_mask nor derived_mask is called here.  The core of M is
    # the largest normal subgroup inside M (normal subgroups are closed
    # under products).
    for g in corpus_and_primitive_oracles + [g for _, g in small_pool_oracles]:
        try:
            subs = gr.all_subgroups(g)
        except ResourceCapExceeded:
            assert g.n == 486, g.name  # 3^5:C2 has more than LATTICE_CAP subgroups
            continue
        normal = [s for s in subs
                  if all((s >> g.conj(x, h)) & 1 for h in range(g.n)
                         for x in tuple(gr.mask_bits(s)))]
        for m in gr.maximal_subgroups(g):
            core = max((t for t in normal if t & m == t), key=int.bit_count)
            above = [t for t in normal if t != core and t & core == core]
            least = [t for t in above if not any(k != t and k & t == k for k in above)]
            y, x = gr.core_and_socle(m, g)
            assert (y, [x]) == (core, least), g.name


def test_solvability_and_derived_series():
    g = corpus.corpus_group("S4")
    orders = [s.bit_count() for s in gr.derived_series(g)]
    assert orders == [24, 12, 4, 1]
    assert gr.is_solvable(g)
    assert not is_nilpotent_mask(g, gr.derived_series(g)[1])
    q8 = corpus.corpus_group("Q8")
    assert is_nilpotent_mask(q8, (1 << q8.n) - 1)


def test_derived_series_and_normal_closure_match_references(corpus_and_primitive_oracles,
                                                            small_pool_oracles,
                                                            large_pool_oracles, tower2, tower3):
    # each derived term against the closure of every commutator of the
    # term above it, and the normal closure of seeded random seeds against
    # the closure of their conjugates by every member of the ambient group
    towers = [tower.TowerGroup(tower.find_primes(1)).embed_as_oracle(),
              tower2.embed_as_oracle(), tower3.embed_as_oracle()]
    rng = random.Random(41)
    for g in (corpus_and_primitive_oracles + [g for _, g in small_pool_oracles]
              + large_pool_oracles + towers):
        assert gr.derived_series(g) == reference_derived_series(g), g.name
        full = (1 << g.n) - 1
        for _ in range(3):
            seeds = rng.sample(range(g.n), rng.randint(1, 3))
            assert (gr.normal_closure_mask(g, seeds, g.gens)
                    == reference_normal_closure(g, seeds, full)), g.name
            ambient_gens = rng.sample(range(g.n), rng.randint(1, 2))
            assert (gr.normal_closure_mask(g, seeds, ambient_gens)
                    == reference_normal_closure(g, seeds, reference_closure(g, ambient_gens))), g.name


def test_derived_series_of_the_order_1944_pool_group_takes_at_most_3000_law_calls(
        large_pool_oracles):
    # V^2 x| H, H < GL(2, 3): each normal closure adjoins the commutators
    # and the conjugates of each adjoined generator, and builds no
    # conjugation-closed element set first (9,263 law calls when it did)
    (g,) = [g for g in large_pool_oracles if g.n == 1944]
    fresh = gr.OracleGroup(g.n, g.mul, g.name, g.gens, g._inv)
    with counting_law_calls(fresh) as calls:
        series = gr.derived_series(fresh)
    assert series == gr.derived_series(g)
    assert calls[0] <= 3000


def relabelled(g, order):
    """The table group on the elements of g whose id i is g's id order[i]."""
    new = {x: i for i, x in enumerate(order)}
    return gr.from_mul_table([[new[g.mul(a, b)] for b in order] for a in order], g.name)


def test_factor_action_refuses_a_factor_that_is_not_elementary_abelian():
    c6 = corpus.corpus_group("C6")
    with pytest.raises(MalformedInput, match="prime-power order"):
        gr.factor_action(c6, (1 << c6.n) - 1, 1)
    groups = [gr.cyclic(4), gr.cyclic(8), gr.cyclic(9)]
    groups += [corpus.corpus_group(name) for name in ("D8", "M16", "Q8", "C9:C3")]
    # every step of these two multiplies the order by 2: C4 = <g^2, g> falls
    # to the power test (g^2 is not 1), and D8 = <z, s, t>, z central and
    # s, t reflections with st of order 4, to the commutator test
    c4 = gr.cyclic(4)
    g = c4.gens[0]
    g2 = c4.mul(g, g)
    groups.append(relabelled(c4, [0, g2, g, c4.mul(g2, g)]))
    d8 = corpus.corpus_group("D8")
    involutions = [x for x in range(1, 8) if d8.mul(x, x) == 0]
    z = next(x for x in involutions if all(d8.mul(x, y) == d8.mul(y, x) for y in range(8)))
    s = min(x for x in involutions if x != z)
    klein = (0, z, s, d8.mul(z, s))
    t = min(x for x in involutions if x not in klein)
    groups.append(relabelled(d8, [*klein, t, *(x for x in range(8) if x not in (*klein, t))]))
    for g in groups:
        with pytest.raises(AssertionError, match="factor is not elementary abelian"):
            gr.factor_action(g, (1 << g.n) - 1, 1)


def test_direct_product_and_semidirect():
    d = gr.direct_product(gr.cyclic(2), gr.cyclic(3))
    assert d.n == 6 and gr.is_solvable(d)
    f20 = gr.semidirect_cyclic(5, 4, 2)
    assert f20.n == 20
    with pytest.raises(MalformedInput):
        gr.semidirect_cyclic(5, 3, 2)  # 2^3 != 1 mod 5


def test_overgroups_of_trivial_is_whole_lattice():
    g = s3()
    fresh = gr.OracleGroup(g.n, g.mul, g.name, g.gens, g._inv)
    over = gr.overgroups(fresh, 1)
    assert len(over) == 6


# ---------------------------------------------------------------------------
# reference implementations: the cell-by-cell split tables, the inverse scan,
# the g = 1..n-1 lattice scan and the O(L^2) maximals and Moebius values that
# the table-driven code replaced


def reference_split_table(w_size, h_size, act, add, hmul):
    n = w_size * h_size
    flat = array("i", [0] * (n * n))
    for w1 in range(w_size):
        for h1 in range(h_size):
            base = (w1 * h_size + h1) * n
            hrow = hmul[h1]
            for h2 in range(h_size):
                aw_row = add[act[h2][w1]]
                hh = hrow[h2]
                off = base + h2
                for w2 in range(w_size):
                    flat[off + w2 * h_size] = aw_row[w2] * h_size + hh
    return flat


def law_cells(g):
    """G.mul(a, b) on all n^2 pairs, row by row."""
    return array("i", [g.mul(a, b) for a in range(g.n) for b in range(g.n)])


def law_inverses(g):
    return array("i", [inverse(g, a) for a in range(g.n)])


def reference_inverses(mul, n):
    inv = array("i", [0] * n)
    for a in range(n):
        inv[a] = next(b for b in range(n) if mul[a * n + b] == 0)
    return inv


def reference_tower_tables(T):
    """act, add and hmul of T from the element tuples, one w_id per entry;
    the w_ids read the digits first digit most significant, so the tuples
    in lexicographic order have ids 0, 1, ..."""
    w_vectors = list(product(*(range(p) for p in T.primes.primes)))
    assert [tower_w_id(T, w) for w in w_vectors] == list(range(T.order >> T.n))
    act = [[tower_w_id(T, tower_act_w(T, w, e)) for w in w_vectors] for e in range(T.h_order)]
    add = [[tower_w_id(T, tuple((x + y) % p for x, y, p in zip(w1, w2, T.primes.primes)))
            for w2 in w_vectors] for w1 in w_vectors]
    hmul = [[(a + b) % T.h_order for b in range(T.h_order)] for a in range(T.h_order)]
    return act, add, hmul


def reference_sdp_tables(G):
    """act, add and hmul of the sdp group G from its vectors in
    lexicographic order, one dict lookup per entry."""
    w_vectors = list(product(range(G.p), repeat=G.wdim))
    w_id = {w: i for i, w in enumerate(w_vectors)}
    h_size = G.module.order
    act = [[w_id[sd_act(G, w, h)] for w in w_vectors] for h in range(h_size)]
    add = [[w_id[vec_add(w1, w2, G.p)] for w2 in w_vectors] for w1 in w_vectors]
    h_id = {m: i for i, m in enumerate(G.module.elements)}
    hmul = [[h_id[ffla.mat_mul(a, b, G.p)] for b in G.module.elements] for a in G.module.elements]
    return act, add, hmul


def reference_cyclic_tables(n_order, h_order, s):
    """act, add and hmul of C_n x| C_h from the law
    (v1, e1)(v2, e2) = (v1*s^e2 + v2, e1 + e2) on the pairs (v, e)."""
    act = [[v * s**e % n_order for v in range(n_order)] for e in range(h_order)]
    add = [[(v1 + v2) % n_order for v2 in range(n_order)] for v1 in range(n_order)]
    hmul = [[(e1 + e2) % h_order for e2 in range(h_order)] for e1 in range(h_order)]
    return act, add, hmul


def reference_lattice(G):
    n = G.n
    mul, inv = G.mul, G._inv
    pow_tables = {p: [reference_power(G, g, p) for g in range(n)] for p in ffla.prime_factors(n)}
    records = {1: ((0,), ())}
    queue = [1]
    qi = 0
    while qi < len(queue):
        s_mask = queue[qi]
        qi += 1
        s_members, s_gens = records[s_mask]
        for p in ffla.prime_factors(n // len(s_members)):
            pow_p = pow_tables[p]
            local_cover = 0
            for g in range(1, n):
                if (s_mask >> g) & 1 or (local_cover >> g) & 1:
                    continue
                if not (s_mask >> pow_p[g]) & 1:
                    continue
                gi = inv[g]
                if any(not (s_mask >> mul(mul(gi, s), g)) & 1 for s in s_gens):
                    continue
                t_mask = s_mask
                new_members = []
                x = g
                for _ in range(1, p):
                    for s in s_members:
                        y = mul(s, x)
                        t_mask |= 1 << y
                        new_members.append(y)
                    x = mul(x, g)
                local_cover |= t_mask
                if t_mask in records:
                    continue
                records[t_mask] = (tuple(sorted(s_members + tuple(new_members))), s_gens + (g,))
                queue.append(t_mask)
    return sorted(records, key=lambda m: (m.bit_count(), records[m][0]))


def reference_overgroups(subs):
    """For each subgroup, the bitset over positions in `subs` of the
    subgroups containing it: the AND, over its elements x, of the bitset
    of the subgroups holding x."""
    holding: dict[int, int] = {}
    for j, t in enumerate(subs):
        for x in gr.mask_bits(t):
            holding[x] = holding.get(x, 0) | 1 << j
    over = []
    for s in subs:
        acc = -1
        for x in gr.mask_bits(s):
            acc &= holding[x]
        over.append(acc)
    return over


def reference_maximals(subs):
    """The proper subgroups whose only overgroups are themselves and G."""
    full = max(subs, key=int.bit_count)
    return [s for s, o in zip(subs, reference_overgroups(subs))
            if s != full and o.bit_count() == 2]


def reference_mobius(subs):
    """mu(G) = 1 and mu(s) = -(sum of mu(t) over the t > s), largest first;
    the sum counts, per value v, the overgroups in the bitset of value v."""
    over = reference_overgroups(subs)
    by_value: dict[int, int] = {}
    mu = {}
    for j in sorted(range(len(subs)), key=lambda j: -subs[j].bit_count()):
        above = over[j] & ~(1 << j)
        value = -sum(v * (above & b).bit_count() for v, b in by_value.items()) if above else 1
        mu[subs[j]] = value
        by_value[value] = by_value.get(value, 0) | 1 << j
    return mu


def check_generator_rule(g, radices, h_size: int) -> tuple[list[int], list[int]]:
    """Assert that g.gens generate the split product g = W x| H, and that
    their W part (the ids w * h_size) is the product s of the unit vectors
    exactly when the submodule s generates is W, and the unit vectors
    otherwise.  Returns (the W part, the unit vectors)."""
    assert gr.closure_mask(g, g.gens) == (1 << g.n) - 1, g.name
    units, place = [], g.n
    for r in radices:
        place //= r
        if r > 1:
            units.append(place)
    w_gens = [x for x in g.gens if x % h_size == 0]
    if units and reference_w_module_closure(g, units, h_size).bit_count() == g.n // h_size:
        assert w_gens == [functools.reduce(g.mul, units, 0)], g.name
    else:
        assert w_gens == units, g.name
    return w_gens, units


def test_split_tables_match_cell_by_cell_reference(small_pool_oracles, tower2, tower3):
    for T in reference_towers(tower2, tower3):
        g = T.embed_as_oracle()
        flat = reference_split_table(T.order >> T.n, T.h_order, *reference_tower_tables(T))
        assert law_cells(g) == flat, T.name
        assert law_inverses(g) == reference_inverses(flat, g.n), T.name
        # W is cyclic, so s generates it and x generates H
        assert len(check_generator_rule(g, T.primes.primes, T.h_order)[0]) == 1, T.name
        assert len(g.gens) == 2, T.name
    assert len(small_pool_oracles) > 0
    shortened = kept = 0
    for G, g in small_pool_oracles:
        flat = reference_split_table(G.p**G.wdim, G.module.order, *reference_sdp_tables(G))
        assert law_cells(g) == flat, g.name
        assert law_inverses(g) == reference_inverses(flat, g.n), g.name
        w_gens, units = check_generator_rule(g, [G.p] * G.wdim, G.module.order)
        if G.t == 1:
            # V is irreducible, so the nonzero s generates it
            assert len(w_gens) == 1, g.name
            shortened += len(units) > 1
        elif G.k == 1:
            # H acts by scalars, so s spans a line of V^t
            assert w_gens == units and len(units) > 1, g.name
            kept += 1
    assert shortened and kept


def test_split_tables_of_edge_shapes_match_references():
    # |W| = 1, |H| = 1 and n = 1 from semidirect_cyclic, D8 and D12 (n not
    # prime), and V^t x| 1 for t = 0..3: the strided slices degenerate to
    # one cell or to whole rows, and the digit loop to no digit or one
    cases = []
    for n_order, h_order, s in ((1, 4, 1), (5, 1, 1), (1, 1, 1), (4, 2, 3), (6, 2, 5)):
        cases.append((gr.semidirect_cyclic(n_order, h_order, s),
                      reference_cyclic_tables(n_order, h_order, s)))
    for t in (0, 1, 2, 3):
        G = sdp.SdGroup.create(3, 1, t, [])
        cases.append((sdp.embed_as_oracle(G), reference_sdp_tables(G)))
    # (|W|, |H|) of each reference
    shapes = [(len(add), len(hmul)) for _, (_, add, hmul) in cases]
    assert shapes == [(1, 4), (5, 1), (1, 1), (4, 2), (6, 2), (1, 1), (3, 1), (9, 1), (27, 1)]
    radices = [[1], [5], [1], [4], [6]] + [[3] * t for t in (0, 1, 2, 3)]
    w_gens = []
    for (g, tables), shape, digits in zip(cases, shapes, radices):
        assert g.n == shape[0] * shape[1], shape
        w_gens.append(check_generator_rule(g, digits, shape[1])[0])
        flat = reference_split_table(*shape, *tables)
        assert law_cells(g) == flat, shape
        assert law_inverses(g) == reference_inverses(flat, g.n), shape
        assert list(gr.all_subgroups(g)) == reference_lattice(g), shape
    # V^2 and V^3 x| 1 keep their unit vectors: 1 fixes the line of s
    assert w_gens == [[], [1], [], [2], [2], [], [1], [3, 1], [9, 3, 1]]


def test_split_tables_refuse_images_that_do_not_fit_h():
    # one image list per generator of H, and generators that reach all of H
    C3 = gr.cyclic(3)
    for images in ([], [[2], [4]]):
        with pytest.raises(MalformedInput, match="generator images"):
            gr.oracle_from_split_tables([7], images, C3, "C7:C3")
    no_gens = gr.OracleGroup(C3.n, C3.mul, "C3", (), C3._inv)
    with pytest.raises(MalformedInput, match="do not generate"):
        gr.oracle_from_split_tables([7], [], no_gens, "C7:C3")


def test_root_masks_match_powers_by_squaring(corpus_list, small_pool_oracles, tower2, tower3):
    # for each prime p dividing |G|, the p-th roots of p-power order > 1 of
    # every element: x has p-power order exactly when x^(p-part of |G|) = 1
    oracles = list(corpus_list) + [g for _, g in small_pool_oracles]
    oracles += [T.embed_as_oracle() for T in reference_towers(tower2, tower3)]
    for g in oracles:
        roots = gr._root_masks(g)
        assert sorted(roots) == ffla.prime_factors(g.n), g.name
        for p, masks in roots.items():
            p_part = math.gcd(g.n, p ** g.n)
            expected = [0] * g.n
            for x in range(1, g.n):
                if reference_power(g, x, p_part) == 0:
                    expected[reference_power(g, x, p)] |= 1 << x
            assert masks == expected, (g.name, p)


def test_greedy_generators_of_order_2040_take_under_two_law_calls_per_element(tower3):
    g = tower3.embed_as_oracle()
    full = (1 << g.n) - 1
    with counting_law_calls(g) as calls:
        gens = gr.greedy_generators(g, full)
    # closing from scratch after each added generator takes 10,480
    assert calls[0] < 2 * g.n, calls
    assert gens == reference_greedy_generators(g, full)


def test_split_oracle_of_order_2040_and_its_lattice_stay_small():
    # the split law holds no n^2 table: a 2040^2 table of C ints alone
    # would take 16.6 MB
    T = tower.TowerGroup(tower.find_primes(3))
    tracemalloc.start()
    try:
        g = T.embed_as_oracle()
        assert len(gr.all_subgroups(g)) == 728
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


# the gens of each split oracle before W added on spread ids: the towers
# n = 1..3, the pool in its order, three sdp specs and cyclic(1), (2), (5000)
SPLIT_GENS = (
    ((2, 1), (24, 1), (824, 1))
    + ((2, 1), (6, 2, 1), (18, 6, 2, 1), (54, 18, 6, 2, 1), (162, 54, 18, 6, 2, 1),
       (486, 162, 54, 18, 6, 2, 1), (4, 1), (20, 4, 1), (100, 20, 4, 1), (2, 1), (10, 2, 1),
       (50, 10, 2, 1), (250, 50, 10, 2, 1), (6, 2), (42, 6, 2), (3, 1), (21, 3, 1),
       (147, 21, 3, 1), (10, 1), (110, 10, 1), (12, 1), (8, 1), (16, 2),
       (108, 36, 12, 4, 2), (96, 9, 4), (648, 216, 72, 24, 9, 4), (64, 7, 5),
       (432, 144, 48, 16, 7, 5), (9, 2), (24, 12, 6, 3, 2), (96, 48, 24, 12, 6, 3, 2),
       (384, 192, 96, 48, 24, 12, 6, 3, 2), (48, 1), (49, 2), (224, 112, 56, 28, 14, 7, 2))
    + ((72, 1), (289, 17, 1), (94, 2, 1))
    + ((), (1,), (1,))
)
# F_23^2 x| C_3, F_17^3 and F_47^2 x| C_2
SPLIT_SPECS = (
    {"kind": "sdp", "p": 23, "k": 2, "t": 1, "h_gens": [[[0, 22], [1, 22]]]},
    {"kind": "sdp", "p": 17, "k": 1, "t": 3, "h_gens": []},
    {"kind": "sdp", "p": 47, "k": 1, "t": 2, "h_gens": [[[46]]]},
)


def test_split_law_matches_a_digitwise_reference(monkeypatch, sdp_pool):
    # every split oracle the package builds, each checked on the arguments
    # it was built from: every pair up to order 200, else 10^4 seeded pairs;
    # and each gen's conjugation table, H's included when H is one, against
    # x -> g^-1 x g from the law
    built, split = [], gr.oracle_from_split_tables

    def recording(radices, images, H, name):
        g = split(radices, images, H, name)
        built.append((g, radices, images, H))
        return g

    monkeypatch.setattr(gr, "oracle_from_split_tables", recording)
    builds = [lambda n=n: tower.TowerGroup(tower.find_primes(n)).embed_as_oracle()
              for n in (1, 2, 3)]
    builds += [lambda G=G: sdp.embed_as_oracle(G) for G in sdp_pool]
    builds += [lambda doc=doc: cli.build_oracle(doc, gr.DEFAULT_ORDER_CAP) for doc in SPLIT_SPECS]
    builds += [lambda m=m: gr.cyclic(m) for m in (1, 2, 5000)]
    cases = []
    for build in builds:
        build()
        cases.append(built[-1])  # H may be a split oracle built first
    assert [g.gens for g, *_ in cases] == list(SPLIT_GENS)
    assert {tuple(radices) for _, radices, _, _ in cases} >= {
        (3,), (3, 5), (3, 5, 17), (23, 23), (17, 17, 17), (47, 47), (1,), (2,), (5000,)}
    for g, radices, images, H in cases:
        mul, inv = reference_split_law(radices, images, H)
        if g.n <= 200:
            pairs = product(range(g.n), repeat=2)
        else:
            rng = random.Random(g.n)
            pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(10**4)]
        for a, b in pairs:
            assert g.mul(a, b) == mul(a, b), (g.name, a, b)
        elements = range(g.n) if g.n <= 200 else {a for pair in pairs for a in pair}
        for a in elements:
            assert inverse(g, a) == inv(a), (g.name, a)
    for g, *_ in built:
        assert set(g._gen_conj) == set(g.gens), g.name
        mul, inv = g.mul, g._inv
        for x, table in g._gen_conj.items():
            assert table() == [mul(mul(inv[x], y), x) for y in range(g.n)], (g.name, x)


def test_split_and_table_laws_give_the_same_lattice(small_pool_oracles, tower2, tower3):
    # the consumers run on both laws of each group: its split tables and
    # from_mul_table over the split law's cells
    oracles = [g for _, g in small_pool_oracles]
    oracles += [T.embed_as_oracle() for T in reference_towers(tower2, tower3) if T.n <= 2]
    for g in oracles:
        table = gr.from_mul_table([[g.mul(a, b) for b in range(g.n)] for a in range(g.n)], g.name)
        # Light's test picks the greedy generating set of the whole table
        assert table.gens == tuple(reference_greedy_generators(table, (1 << g.n) - 1)), g.name
        try:
            subs = gr.all_subgroups(g)
        except ResourceCapExceeded:
            assert g.n == 486, g.name  # 3^5:C2 has more than LATTICE_CAP subgroups
            with pytest.raises(ResourceCapExceeded):
                gr.all_subgroups(table)
            continue
        assert gr.all_subgroups(table) == subs, g.name
        assert (gr.conjugacy_classes_of_subgroups(table)
                == gr.conjugacy_classes_of_subgroups(g)), g.name
        assert gr.maximal_subgroups(table) == gr.maximal_subgroups(g), g.name
        assert gr.mobius_all(table) == gr.mobius_all(g), g.name


def test_from_mul_table_finds_inverses_and_rejects_a_row_without_identity():
    g = gr.from_mul_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert list(g._inv) == [0, 2, 1]
    # a Latin square whose row 0 is the identity has 0 in every row, so the
    # Latin square check refuses a row without it before any oracle is built
    with pytest.raises(MalformedInput, match=r"not a Latin square \(row/column 1\)"):
        gr.from_mul_table([[0, 1], [1, 1]], "no-inverse")


def test_every_inverse_array_inverts(corpus_list, sdp_pool, small_pool_oracles,
                                     large_pool_oracles, tower2, tower3):
    # mul(a, inv[a]) == mul(inv[a], a) == 0 for every element, whichever
    # builder made the group: element objects (the module groups, the
    # permutation and matrix groups), split tables and explicit tables
    s4 = corpus.corpus_group("S4")
    groups = list(corpus_list) + [g.module.group for g in sdp_pool + corpus.primitive_groups()]
    groups += [g for _, g in small_pool_oracles] + large_pool_oracles
    groups += [T.embed_as_oracle() for T in reference_towers(tower2, tower3)[:3]]
    groups += [gr.from_mul_table([[s4.mul(a, b) for b in range(s4.n)] for a in range(s4.n)]),
               gr.from_permutations([(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)], "F20"),
               gr.from_matrices([((1, 1), (0, 1)), ((2, 0), (0, 1)), ((0, 1), (1, 0))], 3,
                                "GL(2,3)")]
    for g in groups:
        mul, inv = g.mul, g._inv
        assert len(inv) == g.n, g.name
        assert all(mul(a, inv[a]) == mul(inv[a], a) == 0 for a in range(g.n)), g.name


@pytest.fixture(scope="session")
def lattice_oracles(corpus_list, small_pool_oracles, tower2, tower3):
    """The tower levels, the pool groups of order <= 500 and the corpus,
    with reference_lattice and reference_classes memoised per oracle: the
    tests below share them."""
    oracles = [T.embed_as_oracle() for T in reference_towers(tower2, tower3)]
    oracles += [g for _, g in small_pool_oracles] + list(corpus_list)
    lattice_of = functools.cache(reference_lattice)
    return oracles, lattice_of, functools.cache(lambda g: reference_classes(g, lattice_of(g)))


def test_lattice_and_its_maximals_and_mobius_match_references(lattice_oracles):
    oracles, lattice_of, _ = lattice_oracles
    for g in oracles:
        try:
            subs = list(gr.all_subgroups(g))
        except ResourceCapExceeded:
            assert g.n == 486, g.name  # 3^5:C2 has more than LATTICE_CAP subgroups
            continue
        assert subs == lattice_of(g), g.name
        maximals = list(gr.maximal_subgroups(g))
        assert maximals == reference_maximals(subs), g.name
        assert dict(gr.mobius_all(g)) == reference_mobius(subs), g.name
        for m in maximals:
            for x in g.gens:
                image = 0
                for y in gr.mask_bits(m):
                    image |= 1 << g.conj(y, x)
                assert gr.conjugate_mask(g, m, x) == image, g.name


def test_counts_match_the_per_subgroup_reference(lattice_oracles):
    oracles, _, _ = lattice_oracles
    for g in oracles:
        try:
            table = dict(gr.counts(g))
        except ResourceCapExceeded:
            assert g.n == 486, g.name  # 3^5:C2 has more than LATTICE_CAP subgroups
            continue
        assert table == reference_counts(g), g.name


def test_greedy_generators_match_the_from_scratch_reference(lattice_oracles):
    # the gens of a table group are its greedy generators, so the list
    # itself is pinned, on G and on one subgroup of each class
    oracles, _, _ = lattice_oracles
    for g in oracles:
        try:
            classes = gr.conjugacy_classes_of_subgroups(g)
        except ResourceCapExceeded:
            assert g.n == 486, g.name  # 3^5:C2 has more than LATTICE_CAP subgroups
            classes = [((1 << g.n) - 1, 1)]
        for s, _ in classes:
            gens = gr.greedy_generators(g, s)
            assert gens == reference_greedy_generators(g, s), g.name
            assert gr.closure_mask(g, gens) == s == reference_closure(g, gens), g.name


def reference_orbit(mask, conj):
    """The conjugates of a subgroup by every element x of its group, from
    conj[x][y] = y^x: each conjugate's member set, then its mask."""
    members = list(gr.mask_bits(mask))
    conjugates = {frozenset(map(images.__getitem__, members)) for images in conj}
    return {sum(1 << y for y in c) for c in conjugates}


def reference_conjugation(g):
    """conj[x][y] = y^x = x^-1 y x for every element x, read off the law:
    x^-1 y first, then that times x."""
    n, mul = g.n, g.mul
    return [array("i", [mul(mul(inverse(g, x), y), x) for y in range(n)]) for x in range(n)]


def reference_classes(g, lattice):
    """(least member, orbit) of each class of subgroups, in lattice order,
    from conjugation by every element."""
    conj = reference_conjugation(g)
    classes, seen = [], set()
    for s in lattice:
        if s not in seen:
            orbit = reference_orbit(s, conj)
            seen |= orbit
            classes.append((s, orbit))
    return classes


def test_classes_match_least_members_of_reference_orbits(lattice_oracles):
    # (least member, size) of each class from the g = 1..n-1 lattice scan
    # and conjugation by every element, neither of which walks `_conjugates`
    oracles, lattice_of, classes_of = lattice_oracles
    for g in oracles:
        try:
            classes = gr.conjugacy_classes_of_subgroups(g)
        except ResourceCapExceeded:
            assert g.n == 486, g.name  # 3^5:C2 has more than LATTICE_CAP subgroups
            continue
        assert classes == tuple((s, len(orbit)) for s, orbit in classes_of(g)), g.name
        # cold copies: the classes come out of the lattice pass whichever
        # query runs first
        classes_first, lattice_first = (gr.OracleGroup(g.n, g.mul, g.name, g.gens, g._inv)
                                        for _ in range(2))
        assert gr.conjugacy_classes_of_subgroups(classes_first) == classes, g.name
        lattice = gr.all_subgroups(lattice_first)
        assert list(lattice) == lattice_of(g), g.name
        assert gr.conjugacy_classes_of_subgroups(lattice_first) == classes, g.name
        assert gr.all_subgroups(classes_first) == lattice, g.name


def test_orbit_matches_conjugates_by_every_element(corpus_list, small_pool_oracles,
                                                    lattice_oracles):
    _, _, classes_of = lattice_oracles
    for g in list(corpus_list) + [g for _, g in small_pool_oracles]:
        try:
            gr.all_subgroups(g)
        except ResourceCapExceeded:
            assert g.n == 486, g.name  # 3^5:C2 has more than LATTICE_CAP subgroups
            continue
        # conjugate subgroups share their orbit, so one reference per class
        for _, expected in classes_of(g):
            for s in expected:
                assert orbit(g, s) == expected, g.name


def test_orbit_normalisers_match_conjugation_by_every_element(lattice_oracles):
    # the normaliser from the orbit walk, against the x with S^x = S from
    # conjugation by every element; one member per class
    oracles, _, _ = lattice_oracles
    for g in oracles:
        try:
            classes = gr.conjugacy_classes_of_subgroups(g)
        except ResourceCapExceeded:
            assert g.n == 486, g.name  # 3^5:C2 has more than LATTICE_CAP subgroups
            continue
        conj = reference_conjugation(g)
        for s, size in classes:
            members = list(gr.mask_bits(s))
            orbit, norm = gr._orbit_and_normaliser(g, s, members)
            assert len(orbit) == size, g.name
            expected = sum(1 << x for x, images in enumerate(conj)
                           if all((s >> images[y]) & 1 for y in members))
            assert norm == expected, g.name


def test_cold_lattice_of_order_2040_takes_under_20000_law_calls(tower3):
    # the root masks and the conjugation tables included, on a copy that
    # has only the law: 17,537 (18,379 with a derived series first, a bound
    # of 20,000 then); testing each candidate for normalising S and
    # computing every extension took 46,439, and one table per unit vector
    # of W (4 gens) 26,084
    g = tower3.embed_as_oracle()
    assert len(g.gens) == 2, g.gens
    cold = gr.OracleGroup(g.n, g.mul, g.name, g.gens, g._inv)
    with counting_law_calls(cold) as calls:
        lattice = gr.all_subgroups(cold)
    assert calls[0] < 19100, calls
    assert lattice == gr.all_subgroups(g)


def test_cold_lattice_of_order_2040_walks_one_orbit_per_class_above_size_one(tower3,
                                                                               monkeypatch):
    # a normal extension is found by its generators, with no orbit walk
    g = tower3.embed_as_oracle()
    cold = gr.OracleGroup(g.n, g.mul, g.name, g.gens, g._inv)
    walked, conjugates = [], gr._conjugates
    monkeypatch.setattr(gr, "_conjugates", lambda G, mask, members: (
        walked.append(mask), conjugates(G, mask, members))[1])
    with counting_law_calls(cold) as calls:
        gr.all_subgroups(cold)
    assert calls[0] < 19100, calls
    sizes = [size for _, size in gr.conjugacy_classes_of_subgroups(cold)]
    assert len(walked) == sum(size > 1 for size in sizes) == 17, (len(walked), sizes)


def test_fresh_order_2040_lattice_reads_its_split_conjugation_tables(monkeypatch):
    # the split oracle's own tables make no law call, the orbit walks stop
    # at the orbit-stabiliser count, and no derived series runs: 9,377 law
    # calls (10,219 with the series); tables from the law and whole orbit
    # walks took 18,017 law calls and built 1,426 conjugates
    g = tower.TowerGroup(tower.find_primes(3)).embed_as_oracle()
    masks, conjugates = [0], gr._conjugates

    def counted(G, mask, members):
        for edge in conjugates(G, mask, members):
            masks[0] += 1
            yield edge

    monkeypatch.setattr(gr, "_conjugates", counted)
    with counting_law_calls(g) as calls:
        gr.all_subgroups(g)
    assert calls[0] < 9500, calls
    assert masks[0] <= 800, masks


def test_classes_sized_one_are_normal_and_the_others_fill_their_orbits(spec_mix_oracles,
                                                                       large_pool_oracles):
    # the full orbit walk checks the normal shortcut of the lattice pass
    for g in spec_mix_oracles + large_pool_oracles:
        for s, size in gr.conjugacy_classes_of_subgroups(g):
            conjugates = orbit(g, s)
            if size == 1:
                assert conjugates == {s}, g.name
            else:
                assert len(conjugates) == size, g.name


def test_maximals_by_class_match_the_overgroup_reference(spec_mix_oracles, large_pool_oracles):
    # maximality tested once per class against the overgroup bitsets of
    # every subgroup, here on the larger lattices (F_47^2 x| C_2 has 4,516)
    f47 = cli.build_oracle(SPLIT_SPECS[2], gr.DEFAULT_ORDER_CAP)
    for g in spec_mix_oracles + large_pool_oracles + [f47]:
        subs = list(gr.all_subgroups(g))
        assert list(gr.maximal_subgroups(g)) == reference_maximals(subs), g.name


def test_normal_core_with_conjugation_tables_makes_no_law_call(corpus_list, tower3):
    # normal_core walks the orbit and must not pay for a normaliser; the
    # core is the meet of the whole orbit
    for g in list(corpus_list[:8]) + [tower3.embed_as_oracle()]:
        gr._conjugation(g, g.gens)
        masks = [s for s, _ in gr.conjugacy_classes_of_subgroups(g)]
        with counting_law_calls(g) as calls:
            cores = [gr.normal_core(g, s) for s in masks]
        assert calls == [0], g.name
        assert cores == [functools.reduce(operator.and_, orbit(g, s)) for s in masks], g.name
