import math
import random
import time
from fractions import Fraction

import pytest

from solvint import corpus, ffla, props, sdp, tower
from solvint import groups as gr
from solvint.errors import MalformedInput, ResourceCapExceeded
from solvint.ffla import FIELD_ORDER_CAP, mat_identity, mat_mul

from references import (floor_log, floor_root, is_nilpotent_mask, reference_eta_product,
                        reference_gamma_min)


def test_floor_log_ratio():
    # floor(1000 * log_20(25)) = 1074
    assert props.floor_log_ratio(25, 20, 1000) == 1074
    assert props.floor_log_ratio(1, 7, 1000) == 0
    assert props.floor_log_ratio(8, 2, 1000) == 3000


def test_iroot_and_floor_root_pow():
    assert props.iroot(26, 3) == 2
    assert props.iroot(27, 3) == 3
    assert props.iroot(10**12, 2) == 10**6
    assert props.floor_root_pow(20, 1074, 1000) == 24  # 20^1.074
    assert props.floor_root_pow(3, 2, 1) == 9
    assert props.floor_root_pow(2, 2807, 1000) == 6


def test_roots_and_logs_match_bisection():
    rng = random.Random(20260)
    cases = []
    for r in (1, 2, 3, 1000) + tuple(rng.randrange(4, 60) for _ in range(6)):
        # perfect powers and their neighbours, roots on both sides of 2^53
        for bits in (1, 2, 5, 20, 52, 53, 54, 60, 100):
            if r == 1000 and bits > 60:
                continue
            g = rng.getrandbits(bits) | 1 << (bits - 1)
            cases += [(g**r - 1, r), (g**r, r), (g**r + 1, r)]
        cases += [(rng.getrandbits(rng.randrange(1, 400)), r) for _ in range(4)]
    # log(x)/r >= 700: the float root 2^(log2(x)/r) would overflow
    cases += [(rng.getrandbits(1100 * r) | 1 << (1100 * r), r) for r in (1, 2, 3, 7)]
    cases += [(0, 5), (1, 5), (2, 1000), (2**1000, 1000), (2**1000 - 1, 1000)]
    for x, r in cases:
        assert props.iroot(x, r) == floor_root(x, r), (x, r)
    for _ in range(40):
        n, num, den = rng.randrange(1, 5000), rng.randrange(0, 3000), rng.randrange(1, 1200)
        g = math.gcd(num, den)
        assert props.floor_root_pow(n, num, den) == floor_root(n ** (num // g), den // g)
    logs = [(rng.randrange(1, 300), rng.randrange(2, 300),
             rng.choice((1000, 10**4, 3243, 324, 325, rng.randrange(1, 5000))),
             rng.choice((1, 100, rng.randrange(1, 50)))) for _ in range(150)]
    logs += [(N, N, num, den) for N, num, den in ((2, 1000, 1), (7, 3243, 1000), (97, 10**4, 3))]
    logs += [(1, N, num, den) for N, num, den in ((2, 1000, 1), (7, 3243, 1000), (97, 10**4, 3))]
    logs += [(8, 2, 1000, 1), (25, 20, 1000, 1), (2**60, 2, 7, 3)]
    for P, N, num, den in logs:
        assert props._floor_log(P, N, num, den) == floor_log(P, N, num, den), (P, N, num, den)
        if den == 1:
            assert props.floor_log_ratio(P, N, num) == floor_log(P, N, num, 1), (P, N, num)


# the (num, den) of eta_floor4, floor_log_ratio's milli-floors and verify_eta_to_gamma
CATALOGUE_FLOORS = ((10**4, 1), (1000, 1), (3243, 1000), (324, 100), (325, 100))


def test_floor_log_continued_fraction_matches_bisection():
    # the continued fraction of log P / log N ends exactly where the ratio is
    # rational: exact powers, 2^a 3^b against 6^c, 8 against 4 (= 3/2)
    cases = [(N**k + e, N) for N in (2, 3, 6, 20, 97) for k in range(5) for e in (-1, 0, 1)
             if N**k + e >= 1]
    cases += [(2**a * 3**b, 6**c) for a in range(5) for b in range(5) for c in (1, 2)]
    cases += [(8, 4), (4, 8), (27, 9), (1, 2), (1, 97), (5, 5), (294, 294), (25, 20), (625, 200)]
    for P, N in cases:
        for num, den in CATALOGUE_FLOORS + ((3, 2), (2, 3), (1, 1), (0, 1)):
            assert props._floor_log(P, N, num, den) == floor_log(P, N, num, den), (P, N, num, den)
    assert props._floor_log(8, 4, 3, 2) == 2  # floor(3/2 * 3/2)
    assert props._floor_log(8, 4, 2, 3) == 1  # 2/3 * 3/2 = 1 exactly


def test_floor_log_near_one_ratios():
    # log P / log N within 10^-30 of 1: a float log of P/N is 0, and the
    # second partial quotient is about 10^31.  Integers decide the floor,
    # and a partial quotient is cut off where the convergent's denominator
    # would pass num, so no power beyond about P^(2 num) is taken
    cases = [(P, N, num, den) for P, N in ((10**30 + 1, 10**30), (10**30, 10**30 + 1),
                                           (10**30 - 1, 10**30))
             for num, den in ((1, 1), (7, 3), (100, 1), (3243, 1000))]
    cases += [(P, N, num, den) for P, N in ((2**4000 + 1, 2**4000), (2**4000 - 1, 2**4000),
                                            (2**4000, 2**4000 - 1), (3**200 + 1, 3))
              for num, den in ((1, 1), (3, 1), (7, 3), (20, 1))]
    start = time.monotonic()
    got = [props._floor_log(*case) for case in cases]
    got.append(props._floor_log(10**30 + 1, 10**30, 10**4, 1))
    got.append(props._floor_log(10**30 - 1, 10**30, 10**4, 1))
    assert time.monotonic() - start < 2
    assert got == [floor_log(*case) for case in cases] + [10**4, 10**4 - 1]


# Q8 on F_11^2, inside the order-968 group V x| Q8
Q8_F11 = ((0, 1), (10, 0)), ((1, 3), (3, 10))


def module_gamma(module):
    """props.gamma_min of H = module.group on V, one element per matrix."""
    return props.gamma_min(module.group, module.p, module.k, module.cosets)


def f23_squared_by_c3():
    """F_23^2 x| C_3, C_3 by the companion matrix of x^2 + x + 1, built as
    sdp.embed_as_oracle builds V x| H.  End_G(F_23^2) = F_529 is past
    ffla.FIELD_ORDER_CAP."""
    p = 23

    def mul(a, b):
        return mat_mul(a, b, p)

    companion = ((0, 1), (22, 22))
    elements = gr._sorted_closure([companion], mul, mat_identity(2))
    H = gr.from_elements(elements, mul, "C3", [companion])
    # a generator matrix maps e_i to row i, read as base-p digits
    images = [[row[0] * p + row[1] for row in elements[g]] for g in H.gens]
    return gr.oracle_from_split_tables([p, p], images, H, "F23^2:C3")


def test_gamma_min_one_dimensional_modules():
    for p, gen in [(5, 2), (7, 3), (3, 2)]:
        module = sdp.SdGroup.create(p, 1, 1, [((gen,),)]).module
        assert module.f_dim == 1
        assert module_gamma(module) == 1


def test_gamma_min_sl23():
    module = sdp.SdGroup.create(3, 2, 1, [((1, 1), (0, 1)), ((0, 2), (1, 0))]).module
    assert module.f_dim == 2
    # the full space W = V has a 1-dimensional witness among the lines
    assert module_gamma(module) == 1


def test_gamma_min_reads_the_module_table_with_no_products(monkeypatch):
    # SL(2,3) on F_3^2, as due passes it: every matrix of H is in
    # module.cosets already, so once H's maximals are memoised gamma_min
    # makes no law call and no matrix product
    module = sdp.SdGroup.create(3, 2, 1, [((1, 1), (0, 1)), ((0, 2), (1, 0))]).module
    H = module.group
    gr.maximal_subgroups(H)
    calls = []

    def counting(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    monkeypatch.setattr(H, "mul", counting("law", H.mul))
    for mod in (ffla, gr, props, sdp):
        if hasattr(mod, "mat_mul"):
            monkeypatch.setattr(mod, "mat_mul", counting("mat_mul", mod.mat_mul))
    assert module_gamma(module) == 1
    assert calls == []


def test_is_gamma_module_is_monotone():
    module = sdp.SdGroup.create(3, 2, 1, [((1, 1), (0, 1)), ((0, 2), (1, 0))]).module
    args = (module.group, module.p, module.k, module.cosets)
    gamma = props.gamma_min(*args)
    assert not any(props.is_gamma_module(*args, g) for g in range(1, gamma))
    assert all(props.is_gamma_module(*args, g) for g in range(gamma, module.f_dim + 2))
    with pytest.raises(MalformedInput):
        props.is_gamma_module(*args, 0)


def test_gamma_min_matches_the_exhaustive_witness_search(corpus_list, spec_mix_oracles, tower2,
                                                       tower3, sdp_pool):
    # chief factors on their group's own masks, against the F-subspace scan
    # of the module that HModule.create builds from the class's matrices
    oracles = corpus_list + spec_mix_oracles + [f23_squared_by_c3()]
    oracles += [tower.TowerGroup(tower.find_primes(1)).embed_as_oracle(),
                tower2.embed_as_oracle(), tower3.embed_as_oracle()]
    classes = skipped = 0
    for g in oracles:
        for cls in sdp.chief_factor_classes(g):
            got = props.gamma_min(g, cls.prime, cls.dim, cls.cosets)
            classes += 1
            try:
                module = sdp.HModule.create(cls.prime, cls.dim, cls.action_matrices)
            except ResourceCapExceeded as exc:
                assert str(exc) == ("order of the endomorphism field of V "
                                    f"(cap: {FIELD_ORDER_CAP})"), (g.name, cls.label)
                skipped += 1
                continue
            assert got == reference_gamma_min(module), (g.name, cls.label)
    # the reference builds F, so it skips F_23^2 (|F| = 529) alone
    assert (classes, skipped) == (131, 1)
    # modules with trivial kernel
    modules = [g.module for g in sdp_pool + corpus.primitive_groups()]
    # the monomial group 2^4:4 <= GL(4, 3): 212 F-subspaces, 40 of them lines
    cycle = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0))
    sign = ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    monomial = sdp.HModule.create(3, 4, [cycle, sign])
    assert (monomial.order, monomial.f_dim, monomial.fops.q) == (64, 4, 3)
    q8 = sdp.HModule.create(11, 2, Q8_F11)
    assert (q8.order, q8.f_dim, q8.fops.q) == (8, 2, 11)
    for module in modules + [monomial, q8]:
        assert module_gamma(module) == reference_gamma_min(module), module.name
    # gamma 2, also on C_2 x H with the kernel C_2 acting trivially
    lift = gr.direct_product(gr.cyclic(2), monomial.group)
    # (c, h) is element c |H| + h of the lift and acts by the matrix of h
    cosets = {m: 1 << h | 1 << (monomial.order + h) for h, m in enumerate(monomial.elements)}
    assert props.gamma_min(lift, 3, 4, cosets) == module_gamma(monomial)
    assert module_gamma(monomial) == 2


def test_thuno_answers_a_chief_factor_whose_field_passes_the_field_cap():
    # F_23^2 x| C_3 (order 1,587): End_G(F_23^2) = F_529, yet gamma is read
    # on G's own masks with no field, so the verifier answers every class
    rows = props.verify_gamma_to_eta(f23_squared_by_c3())
    assert len(rows) == 3 and all(r.ok for r in rows)


def test_nilpotent_derived_chief_factors_are_one_dimensional(corpus_list):
    # complemented chief factors of groups with nilpotent derived subgroup
    # have endomorphism field as large as the factor itself
    for g in corpus_list:
        derived = gr.derived_series(g)[1]
        if not is_nilpotent_mask(g, derived):
            continue
        for cls in sdp.chief_factor_classes(g):
            module = sdp.HModule.create(cls.prime, cls.dim, cls.action_matrices)
            assert module.f_dim == 1, g.name


def test_eta_maximal_is_one():
    g = corpus.corpus_group("S3")
    for m in gr.maximal_subgroups(g):
        rec = props.eta_of_intersection(g, m)
        assert rec.product == rec.index
        assert rec.eta_floor4 == 10000
        assert rec.family == (m,)


def test_eta_s3_trivial_subgroup():
    g = corpus.corpus_group("S3")
    rec = props.eta_of_intersection(g, 1)
    assert rec.index == 6 and rec.product == 6
    assert len(rec.family) == 2


def test_eta_f20_certificate():
    g = corpus.corpus_group("F20")
    rec = props.eta_of_intersection(g, 1)
    assert (rec.product, rec.index) == (25, 20)
    assert rec.eta_floor4 == 10744
    assert not rec.eta_leq(1)
    assert rec.eta_leq(2)
    report = props.eta_report(g)
    assert report.max_floor_times(10**4, 1) == 10744


def test_eta_rejects_non_intersections():
    g = corpus.corpus_group("A4")
    c2 = next(s for s in gr.all_subgroups(g) if s.bit_count() == 2)
    with pytest.raises(MalformedInput):
        props.eta_of_intersection(g, c2)
    with pytest.raises(MalformedInput):
        props.eta_of_intersection(g, (1 << g.n) - 1)


def test_eta_family_is_realizing(corpus_list):
    for g in corpus_list[:12]:
        for h in props.maximal_intersection_classes(g):
            rec = props.eta_of_intersection(g, h)
            mask = (1 << g.n) - 1
            prod = 1
            for m in rec.family:
                mask &= m
                prod *= g.n // m.bit_count()
            assert mask == h and prod == rec.product, g.name


def reference_eta_search(G, h):
    """(best product, family) of the branch and bound without the |K:H|
    bound: the same maximals, order and index bound as eta_of_intersection."""
    full = (1 << G.n) - 1
    above = [m for m in gr.maximal_subgroups(G) if m & h == h]
    above.sort(key=lambda m: (G.n // m.bit_count(), m))
    idx = [G.n // m.bit_count() for m in above]
    suffix = [full] * (len(above) + 1)
    for i in range(len(above) - 1, -1, -1):
        suffix[i] = suffix[i + 1] & above[i]
    best = [None, ()]

    def dfs(i, mask, prod, chosen):
        if mask == h:
            if best[0] is None or prod < best[0]:
                best[:] = [prod, chosen]
            return
        if i == len(above) or (best[0] is not None and prod * idx[i] >= best[0]):
            return
        if mask & suffix[i] != h:
            return
        if mask & above[i] != mask:
            dfs(i + 1, mask & above[i], prod * idx[i], chosen + (above[i],))
        dfs(i + 1, mask, prod, chosen)

    dfs(0, full, 1, ())
    return tuple(best)


def test_eta_bound_keeps_the_first_optimal_family(corpus_list):
    checked = 0
    for g in corpus_list:
        for h in props.maximal_intersection_classes(g):
            rec = props.eta_of_intersection(g, h)
            assert (rec.product, rec.family) == reference_eta_search(g, h), g.name
            checked += 1
    assert checked > 100


def test_eta_product_matches_exhaustive_search(corpus_and_primitive_oracles):
    # every class with at most 16 maximals above it; in F20, F9:C4 and F156
    # the first complete family the search meets is not the optimum, so
    # these classes exercise the pruning
    checked = 0
    for g in corpus_and_primitive_oracles:
        maximals = gr.maximal_subgroups(g)
        for h in props.maximal_intersection_classes(g):
            if sum(m & h == h for m in maximals) <= 16:
                assert props.eta_of_intersection(g, h).product == reference_eta_product(g, h), \
                    (g.name, h)
                checked += 1
    assert checked >= 264


def test_has_eta_property():
    g = corpus.corpus_group("F20")
    assert props.has_eta_property(g, Fraction(2))
    assert not props.has_eta_property(g, Fraction(1))
    assert props.has_eta_property(g, Fraction(1074, 1000)) is False
    assert props.has_eta_property(g, Fraction(1075, 1000))


def test_verify_gamma_to_eta_corpus(corpus_list):
    for g in corpus_list:
        rows = props.verify_gamma_to_eta(g)
        assert rows, g.name
        assert all(r.ok for r in rows), g.name


def test_verify_eta_to_gamma_primitive():
    for g in corpus.primitive_groups():
        rep = props.verify_eta_to_gamma(sdp.embed_as_oracle(g))
        assert rep.gamma_ok and rep.palfy_wolf_ok, g.name
        assert not rep.constant_sensitive, g.name


def test_verify_eta_to_gamma_requires_t1():
    g = sdp.embed_as_oracle(sdp.SdGroup.create(5, 1, 2, [((2,),)]))
    with pytest.raises(MalformedInput):
        props.verify_eta_to_gamma(g)


def test_verify_eta_to_gamma_reads_the_gamma_of_h(sdp_pool):
    # gamma on G's masks from the action on its minimal normal subgroup V is
    # H's own gamma on V, for every t = 1 group of the pool and the corpus
    groups = [g for g in sdp_pool if g.t == 1] + corpus.primitive_groups()
    assert len(groups) == 27
    for g in groups:
        assert (props.verify_eta_to_gamma(sdp.embed_as_oracle(g)).gamma_v
                == props.gamma_min(g.module.group, g.p, g.k, g.module.cosets)), g.name


def test_verify_eta_to_gamma_requires_a_primitive_group(sdp_pool):
    for name in ("S3", "S4", "A4", "F20", "F42"):
        rep = props.verify_eta_to_gamma(corpus.corpus_group(name))
        assert rep.gamma_ok and rep.palfy_wolf_ok, name
    # C_G(V) > V for the least normal subgroup V above 1
    refused = [corpus.corpus_group(name) for name in ("C6", "D8", "Q8", "C8", "C2^3")]
    refused += [sdp.embed_as_oracle(g) for g in sdp_pool if g.t == 2]
    assert len(refused) == 5 + 11
    for g in refused:
        with pytest.raises(MalformedInput):
            props.verify_eta_to_gamma(g)


def test_subgroup_count_bound_integer_example():
    assert props.subgroup_count_bound(3, Fraction(1), Fraction(1)) == 18
    assert props.subgroup_count_bound(1, Fraction(1), Fraction(1)) == 1


def test_check_subgroup_count_bound_corpus(corpus_list):
    for g in corpus_list:
        rep = props.check_subgroup_count_bound(g)
        assert rep.ok, g.name
        for n, c_n, bound in rep.rows:
            assert c_n <= bound


def test_palfy_wolf_constant_is_exact_rational():
    assert props.PALFY_WOLF == Fraction(3243, 1000)
