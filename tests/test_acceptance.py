"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison is exact (element-set equality, integer power
certificates); the stated runtime budgets are asserted with wall clocks
around fresh computations.
"""

import time

import pytest

from solvint import cli, corpus, props, sdp, tower
from solvint import groups as gr
from solvint.errors import RealizationError

from references import all_subspaces, is_nilpotent_mask

SEED = 20240


def report(n, text):
    print(f"\nCRITERION {n}: PASS — {text}")


def test_criterion_01_pairwise_intersection_equivalence(sdp_pool):
    start = time.monotonic()
    pairs, _fams, failures = sdp.random_case_suite(sdp_pool, 1000, 0, seed=SEED)
    elapsed = time.monotonic() - start
    assert pairs == 1000
    assert failures == []
    assert elapsed <= 120, f"{elapsed:.1f}s exceeds the 2 minute budget"
    assert all(g.order <= 2000 for g in sdp_pool)
    report(1, f"1000 seeded (K, M) pairs match elementwise intersections exactly "
              f"({elapsed:.1f}s <= 120s)")


def test_criterion_02_canonical_intersection_equivalence(sdp_pool):
    start = time.monotonic()
    _pairs, fams, failures = sdp.random_case_suite(sdp_pool, 0, 1000, seed=SEED + 1)
    elapsed = time.monotonic() - start
    assert fams == 1000
    assert failures == []
    assert elapsed <= 300, f"{elapsed:.1f}s exceeds the 5 minute budget"
    report(2, f"1000 seeded families (size <= 5) canonicalize to the exact "
              f"elementwise intersection ({elapsed:.1f}s <= 300s)")


def test_criterion_03_realization_round_trip():
    instances = [
        sdp.SdGroup.create(5, 1, 1, [((2,),)]),
        sdp.SdGroup.create(5, 1, 2, [((2,),)]),
        sdp.SdGroup.create(3, 1, 2, [((2,),)]),
        sdp.SdGroup.create(7, 1, 2, [((3,),)]),
        sdp.SdGroup.create(3, 2, 1, [((1, 1), (0, 1)), ((0, 2), (1, 0))]),  # |H| = 24
        sdp.SdGroup.create(3, 2, 2, [((0, 2), (1, 0))]),
        sdp.SdGroup.create(2, 2, 2, [((1, 1), (1, 0))]),
        sdp.SdGroup.create(5, 2, 1, [((0, 1), (2, 0))]),  # |V| = 25
    ]
    checked = 0
    for g in instances:
        assert g.t <= 2 and g.p**g.k <= 25 and g.module.order <= 24
        u_list = list(all_subspaces(g.module.fops, g.t))
        z_list = list(all_subspaces(g.module.fops, g.module.f_dim))
        for u in u_list:
            t_star = g.t - len(u)
            for z in z_list:
                d = len(z)
                if t_star == 0:
                    if d > 0:
                        with pytest.raises(RealizationError):
                            sdp.realize_intersection(g, u, z)
                    else:
                        assert sdp.realize_intersection(g, u, z) == []
                    continue
                family = sdp.realize_intersection(g, u, z)
                assert len(family) == t_star + d
                expected = sdp.descriptor_elements(
                    g, u, sdp.centralizer_in_h(g, z), (0,) * g.wdim)
                brute = (1 << g.order) - 1
                for m in family:
                    brute &= sdp.supplement_elements(g, m)
                assert brute == expected
                ci = sdp.canonicalize_intersection(g, family)
                assert sdp.canonical_elements(g, ci) == expected
                checked += 1
    report(3, f"{checked} enumerable (U, Z) pairs realize as exactly t*+d maximal "
              f"supplements, whose elementwise meet and closed form are the same subgroup")


def _tower_level_checks(t: tower.TowerGroup):
    expected = {2: 1}
    for p in t.primes.primes:
        expected[p] = p
    assert tower.maximal_index_counts(t) == expected
    mu_rows = tower.verify_mu_zero(t)
    assert mu_rows and all(ok for _c, _m, ok in mu_rows)
    assert tower.verify_realizing_families(t)
    assert tower.structural_matches_oracle(t)
    return tower.tilde_counts(t), len(mu_rows)


def test_criterion_04_tower_level_two():
    start = time.monotonic()
    t = tower.TowerGroup(tower.TowerPrimes(2, (3, 5), False))
    assert t.order == 60
    counts, zed = _tower_level_checks(t)
    elapsed = time.monotonic() - start
    assert counts.gamma_tilde_formula == 7
    assert counts.formula_agrees_oracle is False  # reported, not hidden
    assert counts.gamma_tilde_structural == counts.gamma_tilde_oracle
    assert elapsed <= 10, f"{elapsed:.1f}s exceeds the 10 second budget"
    report(4, f"n=2 (order 60): maximal counts (1,3,5); mu = 0 on {zed} Z-classes; "
              f"structural classes = oracle classes ({counts.gamma_tilde_oracle}); "
              f"closed formula 7 disagrees and is flagged ({elapsed:.1f}s <= 10s)")


def test_criterion_05_tower_level_three():
    start = time.monotonic()
    t = tower.TowerGroup(tower.TowerPrimes(3, (3, 5, 17), False))
    assert t.order == 2040
    counts, zed = _tower_level_checks(t)
    elapsed = time.monotonic() - start
    assert counts.beta_tilde_oracle <= 2**4 - 1
    assert counts.gamma_tilde_structural == counts.gamma_tilde_oracle
    assert elapsed <= 600, f"{elapsed:.1f}s exceeds the 10 minute budget"
    report(5, f"n=3 (order 2040): all level-2 checks, beta~ = "
              f"{counts.beta_tilde_oracle} <= 15 ({elapsed:.1f}s <= 600s)")


def test_criterion_06_mobius_lattice_correctness(corpus_list):
    eligible = [g for g in corpus_list if g.n <= 200]
    assert len(eligible) >= 20
    for g in eligible:
        subs = gr.all_subgroups(g)
        mu = gr.mobius_all(g)
        full = (1 << g.n) - 1
        for h in subs:
            row_sum = sum(mu[k] for k in subs if h & k == h)
            assert row_sum == (1 if h == full else 0), g.name
            if mu[h] != 0:
                assert gr.is_maximal_intersection(h, g), g.name
        for _n, (m_n, b_n, c_n) in gr.counts(g):
            assert m_n <= b_n <= c_n, g.name
    report(6, f"Moebius row sums, mu != 0 => maximal intersection, and "
              f"m_n <= b_n <= c_n over {len(eligible)} solvable groups")


def test_criterion_07_nilpotent_derived_two_intersection(corpus_list):
    checked = 0
    for g in corpus_list:
        derived = gr.derived_series(g)[1]
        if not is_nilpotent_mask(g, derived):
            continue
        for rec in props.eta_report(g).records:
            assert rec.product**1 <= rec.index**2, g.name  # exact certificate
        checked += 1
    assert checked >= 10
    report(7, f"eta_min <= 2 certified by integer powers for {checked} corpus "
              f"groups with nilpotent derived subgroup")


def test_criterion_08_gamma_bounds_eta(corpus_list):
    rows_total = 0
    for g in corpus_list:
        rows = props.verify_gamma_to_eta(g)
        assert all(r.ok for r in rows), g.name
        rows_total += len(rows)
    report(8, f"eta(H) <= gamma_H + 1 for all {rows_total} maximal-intersection "
              f"classes across the corpus")


def test_criterion_09_eta_bounds_gamma():
    names = []
    for g in corpus.primitive_groups():
        rep = props.verify_eta_to_gamma(sdp.embed_as_oracle(g))
        assert rep.gamma_ok, g.name
        assert rep.palfy_wolf_ok, g.name
        names.append(g.name)
    report(9, f"gamma_min(V) <= floor(eta_min * 3.243) and |Gamma| <= |V|^3.243 "
              f"for {len(names)} primitive solvable groups")


def test_criterion_10_counting_bound(corpus_list):
    for g in corpus_list:
        rep = props.check_subgroup_count_bound(g)
        assert rep.ok, g.name
    report(10, f"c_n <= (n^eta (n^eta + 1)/2) n^(eta alpha) at certified lower "
               f"approximations of (eta_min, alpha_min) over {len(corpus_list)} groups")


def test_criterion_11_byte_determinism(capsys, tmp_path):
    import json as _json

    spec = tmp_path / "tower2.json"
    spec.write_text(_json.dumps({"kind": "tower", "n": 2}))
    outputs = []
    for _ in range(2):
        code = cli.main(["verify", "--suite", "interKM", "--seed", str(SEED)])
        assert code == 0
        outputs.append(capsys.readouterr().out)
        code = cli.main(["verify", "--suite", "tower", "--spec", str(spec),
                         "--format", "json"])
        assert code == 0
        outputs[-1] += capsys.readouterr().out
    assert outputs[0] == outputs[1]
    assert outputs[0].encode() == outputs[1].encode()
    report(11, "two runs with the same seed produce byte-identical reports")
