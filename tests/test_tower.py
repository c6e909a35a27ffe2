import time
from collections import Counter
from fractions import Fraction

import pytest

from solvint import cli, tower
from solvint import groups as gr
from solvint.errors import MalformedInput, ResourceCapExceeded
from solvint.ffla import is_prime

from references import (orbit, order_of, reference_class_representative, reference_towers,
                        tower_act_w, tower_mask)


def test_find_primes_examples():
    assert tower.find_primes(2).primes == (3, 5)
    assert tower.find_primes(3).primes == (3, 5, 17)
    assert tower.find_primes(1).primes == (3,)
    assert tower.find_primes(2, strict=True).primes == (3, 13)


def test_find_primes_ceiling(monkeypatch):
    from solvint.errors import ResourceCapExceeded

    monkeypatch.setattr(tower, "PRIME_SEARCH_CEILING", 100)
    with pytest.raises(ResourceCapExceeded):
        tower.find_primes(5, strict=True)


def test_tower_primes_validation():
    with pytest.raises(MalformedInput):
        tower.TowerPrimes((3, 7), False)  # 4 does not divide 6
    with pytest.raises(MalformedInput):
        tower.TowerPrimes((5, 3), False)  # not ascending
    with pytest.raises(MalformedInput):
        tower.TowerPrimes((3, 5), True)  # growth condition fails
    with pytest.raises(MalformedInput, match="^need one prime per level$"):
        tower.TowerPrimes((), False)


def test_level_one_is_symmetric_group_of_order_six():
    t1 = tower.TowerGroup(tower.find_primes(1))
    assert t1.order == 6
    oracle = t1.embed_as_oracle()
    assert sorted(order_of(oracle, x) for x in range(6)) == [1, 2, 2, 2, 3, 3]


def test_tower_group_checks_the_order_cap_before_it_is_built(monkeypatch):
    from solvint.errors import ResourceCapExceeded

    primes = tower.find_primes(2)  # order 60
    assert tower.TowerGroup(primes, 60).embed_as_oracle().n == 60

    def refuse(*args):
        raise AssertionError("a capped level computed its roots of unity")

    monkeypatch.setattr(tower, "_zeta", refuse)
    with pytest.raises(ResourceCapExceeded, match=r"\|G\|=60 exceeds the order cap \(cap: 59\)"):
        tower.TowerGroup(primes, 59)


def test_zetas_have_exact_orders(tower3):
    for m, (z, p) in enumerate(zip(tower3.zetas, tower3.primes.primes), start=1):
        order = 1 << m
        assert pow(z, order, p) == 1
        assert pow(z, order // 2, p) != 1


def test_centralizer_of_each_module(tower2):
    # C_H(V_m) = <x^(2^m)>, elementwise
    for m in range(1, tower2.n + 1):
        v = tuple(1 if j == m - 1 else 0 for j in range(tower2.n))
        fixing = [e for e in range(tower2.h_order) if tower_act_w(tower2, v, e) == v]
        assert fixing == list(range(0, tower2.h_order, 1 << m))


def test_maximal_counts(tower2, tower3):
    assert tower.maximal_index_counts(tower2) == {2: 1, 3: 3, 5: 5}
    assert tower.maximal_index_counts(tower3) == {2: 1, 3: 3, 5: 5, 17: 17}


def test_unique_maximal_above_socle(tower2):
    oracle = tower2.embed_as_oracle()
    socle_mask = 0
    for w_id in range(tower2.order >> tower2.n):  # |W|
        socle_mask |= 1 << (w_id * tower2.h_order)
    containing = [m for m in gr.maximal_subgroups(oracle) if m & socle_mask == socle_mask]
    assert len(containing) == 1
    assert oracle.n // containing[0].bit_count() == 2


def test_classification_n2(tower2):
    classes = tower.classify_intersections(tower2)
    assert len(classes) == 9
    kinds = sorted((c.kind, tuple(sorted(c.j_set)), c.level) for c in classes)
    assert ("X", (1,), 0) in kinds and ("X", (1, 2), 0) in kinds
    assert ("Y", (), 1) in kinds  # the index-2 maximal itself
    assert ("Z", (2,), 2) in kinds and ("Z", (1, 2), 2) in kinds
    indices = {(c.kind, tuple(sorted(c.j_set))):
               tower2.order // tower.class_representative_elements(tower2, c).bit_count()
               for c in classes}
    assert indices[("X", (1, 2))] == 15
    assert indices[("Y", (1, 2))] == 30
    assert indices[("Z", (1, 2))] == 60  # the trivial subgroup


def test_realizing_families_elementwise(tower2):
    assert tower.verify_realizing_families(tower2)


def test_masks_match_the_oracle_and_the_element_tuples(tower2, tower3):
    # the descriptors name exactly the oracle's maximal subgroups, and each
    # representative mask holds exactly the representative's element tuples
    for T in reference_towers(tower2, tower3):
        maximals = {T.maximal_mask(d) for d in T.maximal_descriptors()}
        assert len(maximals) == len(T.maximal_descriptors())
        assert maximals == set(gr.maximal_subgroups(T.embed_as_oracle())), T.name
        for cls in tower.classify_intersections(T):
            expected = tower_mask(T, reference_class_representative(T, cls))
            assert tower.class_representative_elements(T, cls) == expected, (T.name, cls)


def test_subgroup_mask_of_a_product_set(tower2):
    # primes (3, 5), 2^n = 4: the id of ((a_1, a_2), e) is (5 a_1 + a_2) 4 + e
    ids = {(5 * a1 + a2) * 4 + e for a1 in (0, 2) for a2 in (1, 3, 4) for e in (1, 2)}
    assert tower2.subgroup_mask([(0, 2), (1, 3, 4)], (1, 2)) == sum(1 << i for i in ids)
    assert tower2.subgroup_mask([range(3), range(5)], range(4)) == (1 << tower2.order) - 1
    assert tower2.subgroup_mask([(), range(5)], range(4)) == 0


def test_classes_pairwise_nonconjugate(tower2):
    oracle = tower2.embed_as_oracle()
    reps = set()
    for cls in tower.classify_intersections(tower2):
        mask = tower.class_representative_elements(tower2, cls)
        reps.add(frozenset(orbit(oracle, mask)))
    assert len(reps) == 9


def test_structural_matches_oracle_n2(tower2):
    assert tower.structural_matches_oracle(tower2)


def test_structural_check_compares_classes_of_swapped_representatives(tower2, monkeypatch):
    # one representative swapped for another member of its class still
    # matches; swapped for a subgroup of a class that no structural class
    # has, or for a mask that is not a subgroup at all, it does not
    oracle = tower2.embed_as_oracle()
    classes = tower.classify_intersections(tower2)
    reps = [tower.class_representative_elements(tower2, cls) for cls in classes]
    orbits = [orbit(oracle, r) for r in reps]
    i = next(i for i, orbit in enumerate(orbits) if len(orbit) > 1)
    conjugate = next(c for c in orbits[i] if c != reps[i])
    other = next(s for s in gr.all_subgroups(oracle) if not any(s in orbit for orbit in orbits))
    not_a_subgroup = (1 << oracle.n) - 2  # every element but the identity
    original = tower.class_representative_elements
    for swapped, expected in ((conjugate, True), (other, False), (not_a_subgroup, False)):
        monkeypatch.setattr(tower, "class_representative_elements",
                            lambda T, cls, swapped=swapped:
                            swapped if cls == classes[i] else original(T, cls))
        assert tower.structural_matches_oracle(tower2) is expected, swapped


def test_mu_zero_n2(tower2):
    rows = tower.verify_mu_zero(tower2)
    assert len(rows) == 2
    assert all(ok for _cls, _mu, ok in rows)


def test_tilde_counts_n2(tower2):
    tc = tower.tilde_counts(tower2)
    assert tc.gamma_tilde_formula == 7
    assert tc.gamma_tilde_structural == 9
    assert tc.gamma_tilde_oracle == 9
    assert tc.formula_agrees_oracle is False
    assert tc.beta_tilde_oracle <= tc.beta_tilde_bound == 7
    # pinned for primes (3, 5): every X and Y class has nonzero Moebius value
    assert tc.beta_tilde_oracle == 7
    assert tc.ratio_bound == Fraction(1)


def test_ratio_table_formula_columns():
    rows = tower.ratio_table(2, 3, strict=False, cap=10)  # cap forces formula-only
    for n, primes, tc, provenance in rows:
        assert provenance == "formula"
        assert tc.gamma_tilde_oracle is None
        assert tc.ratio_bound == Fraction(4, n + 2)
    rows = tower.ratio_table(6, 6, strict=False, cap=1)
    assert rows[0][2].ratio_bound == Fraction(4, 8)


def test_ratio_table_builds_no_level_over_the_order_cap(monkeypatch):
    # a capped level gets its closed forms without TowerGroup's n 2^n zeta
    # powers or the structural class list
    def refuse(*args):
        raise AssertionError("a capped level was built")

    monkeypatch.setattr(tower, "_zeta", refuse)
    monkeypatch.setattr(tower, "classify_intersections", refuse)
    primes = (3, 5, 17, 97, 193, 257, 641, 769, 7681, 12289, 18433, 40961, 65537, 114689,
              163841, 786433)
    closed_forms = {14: (131071, 32767, Fraction(1, 4)), 15: (278527, 65535, Fraction(4, 17)),
                    16: (589823, 131071, Fraction(2, 9))}
    rows = tower.ratio_table(14, 16, cap=gr.DEFAULT_ORDER_CAP)
    assert [(n, p, provenance) for n, p, _, provenance in rows] == [
        (n, primes[:n], "formula") for n in (14, 15, 16)]
    for n, p, tc, _ in rows:
        gamma, beta, ratio = closed_forms[n]
        assert tc == tower.TowerCounts(gamma, beta, None, None, None, ratio, None, None), n


def test_a_cold_tower_suite_builds_its_class_list_and_each_representative_once(monkeypatch):
    # the suite reads the structural classes in four checks and most
    # representatives in two or three; both are memoised on the level
    lists, reps = [], Counter()
    classify, represent = tower._classify_intersections, tower._class_representative_elements
    monkeypatch.setattr(tower, "_classify_intersections",
                        lambda T: lists.append(classify(T)) or lists[-1])
    monkeypatch.setattr(tower, "_class_representative_elements",
                        lambda T, cls: reps.update([(T.n, cls)]) or represent(T, cls))
    for n in (2, 3):
        report = cli.cmd_verify({"kind": "tower", "n": n}, "tower", gr.DEFAULT_ORDER_CAP, 0)
        assert report.failures == 0, n
        assert len(lists) == n - 1, n
        assert sorted(reps.values()) == [1] * sum(len(classes) for classes in lists), n
        assert {cls for m, cls in reps if m == n} == set(lists[-1]), n


def test_ratio_table_strict_primes():
    rows = tower.ratio_table(2, 3, strict=True, cap=1)
    assert rows[0][1] == (3, 13)
    assert rows[1][1] == (3, 13, 193)


def test_beta_le_gamma(tower2):
    tc = tower.tilde_counts(tower2)
    assert tc.beta_tilde_oracle <= tc.gamma_tilde_oracle


def reference_zeta(p, order):
    """The first z = 2, 3, ... of exact multiplicative order `order` mod p."""
    return next(z for z in range(2, p) if pow(z, order, p) == 1 and pow(z, order // 2, p) != 1)


def test_zeta_is_the_smallest_root_of_exact_order():
    checked = 0
    for p in range(3, 5000, 2):
        if not is_prime(p):
            continue
        for m in range(1, 7):
            if (p - 1) % (1 << m) == 0:
                assert tower._zeta(p, 1 << m) == reference_zeta(p, 1 << m), (p, m)
                checked += 1
    assert checked > 1000
    with pytest.raises(MalformedInput):
        tower._zeta(7, 4)


def test_roots_of_unity_mod_a_huge_prime_are_found_at_once():
    # the level over (5, 10^21 + 117) is far past the lattice order ceiling,
    # so no order cap lets it be built; its roots of unity take no time
    start = time.perf_counter()
    p = 1000000000000000000117
    with pytest.raises(ResourceCapExceeded, match="the lattice order ceiling"):
        tower.TowerGroup(tower.TowerPrimes((5, p), False), cap=5 * p * 4)
    zeta = tower._zeta(p, 4)
    assert time.perf_counter() - start < 1.0
    assert pow(zeta, 4, p) == 1 and pow(zeta, 2, p) == p - 1
