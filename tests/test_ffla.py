import importlib.util
import random
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from solvint import corpus, ffla, sdp
from solvint.errors import MalformedInput, ResourceCapExceeded
from solvint.ffla import FpSubspace

from references import (block_diagonal, intersect, is_subspace_of, reference_field_tables,
                        reference_mat_mul, reference_spin, subspace_vectors, sum_with, vec_add,
                        vec_scale, zero_subspace)

BENCH = Path(__file__).resolve().parents[1] / "bench"
PRIMES = [2, 3, 5, 7]


def random_vectors(rng, p, n, count):
    return [tuple(rng.randrange(p) for _ in range(n)) for _ in range(count)]


def test_rref_examples():
    assert ffla.rref([], 5, 2).dim == 0
    assert ffla.rref([(1, 0), (0, 1)], 5, 2).dim == 2
    s = ffla.rref([(2, 4), (1, 2)], 5, 2)
    assert s.dim == 1 and s.basis == ((1, 2),)
    assert s.contains((2, 4)) and s.contains((1, 2))


def test_rref_rejects_mixed_dimensions():
    with pytest.raises(MalformedInput):
        ffla.rref([(1, 0), (1, 0, 0)], 5, 2)


def test_mixed_modulus_subspaces_rejected():
    a = ffla.rref([(1, 0)], 3, 2)
    b = ffla.rref([(1, 0)], 5, 2)
    with pytest.raises(MalformedInput):
        sum_with(a, b)
    with pytest.raises(MalformedInput):
        intersect(a, b)
    with pytest.raises(MalformedInput):
        is_subspace_of(a, b)


def test_rref_canonicity_bulk():
    # shuffles and rescalings of a spanning set give the identical basis
    rng = random.Random(991)
    for _ in range(10000):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 5)
        vecs = random_vectors(rng, p, n, rng.randrange(1, 5))
        base = ffla.rref(vecs, p, n)
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        shuffled = [vec_scale(v, rng.randrange(1, p), p) for v in shuffled]
        assert ffla.rref(shuffled, p, n) == base


def test_rref_idempotent_and_span_preserving():
    rng = random.Random(17)
    for _ in range(500):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 5)
        vecs = random_vectors(rng, p, n, 3)
        s = ffla.rref(vecs, p, n)
        assert ffla.rref(s.basis, p, n) == s
        assert all(s.contains(v) for v in vecs)


def test_subspace_sum_intersect_dimension_law():
    rng = random.Random(23)
    for _ in range(2000):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 5)
        a = ffla.rref(random_vectors(rng, p, n, 2), p, n)
        b = ffla.rref(random_vectors(rng, p, n, 2), p, n)
        assert intersect(a, a) == a
        total = sum_with(a, b)
        inter = intersect(a, b)
        assert a.dim + b.dim == total.dim + inter.dim
        assert is_subspace_of(inter, a) and is_subspace_of(inter, b)


def test_intersect_is_the_canonical_rref_of_the_common_vectors():
    rng = random.Random(29)
    for _ in range(500):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 6)
        a = ffla.rref(random_vectors(rng, p, n, rng.randrange(n + 1)), p, n)
        b = ffla.rref(random_vectors(rng, p, n, rng.randrange(n + 1)), p, n)
        inter = intersect(a, b)
        assert inter == ffla.rref(inter.basis, p, n)
        assert set(subspace_vectors(inter)) == set(subspace_vectors(a)) & set(subspace_vectors(b))


def test_modular_law():
    rng = random.Random(31)
    for _ in range(1000):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 5)
        a = ffla.rref(random_vectors(rng, p, n, 1), p, n)
        b = ffla.rref(random_vectors(rng, p, n, 2), p, n)
        c = sum_with(a, ffla.rref(random_vectors(rng, p, n, 1), p, n))
        lhs = sum_with(a, intersect(b, c))
        rhs = intersect(sum_with(a, b), c)
        assert lhs == rhs


def test_sum_example_f3():
    a = ffla.rref([(1, 0)], 3, 2)
    b = ffla.rref([(0, 1)], 3, 2)
    assert sum_with(a, b) == FpSubspace.full(3, 2)


def test_zero_ambient_dimension_is_legal():
    z = zero_subspace(5, 0)
    assert z.dim == 0
    assert sum_with(z, z) == z
    assert intersect(z, z) == z
    assert list(subspace_vectors(z)) == [()]
    assert z.reduce(()) == ()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.data())
def test_reduce_is_canonical_on_cosets(dim, data):
    p = data.draw(st.sampled_from(PRIMES))
    n = 4
    vecs = [tuple(data.draw(st.integers(0, p - 1)) for _ in range(n)) for _ in range(dim)]
    s = ffla.rref(vecs, p, n)
    v = tuple(data.draw(st.integers(0, p - 1)) for _ in range(n))
    w = vec_add(v, next(iter(subspace_vectors(s))) if s.dim else (0,) * n, p)
    for member in list(subspace_vectors(s))[:8]:
        assert s.reduce(vec_add(v, member, p)) == s.reduce(v)
    assert s.contains(ffla.vec_sub(v, s.reduce(v), p))


def test_spin_examples():
    # identity generator fixes the line
    assert ffla.spin((1, 0), [ffla.mat_identity(2)], 5).dim == 1
    # quarter-turn over F_3 spins a basis vector to the plane
    rot = ffla.mat_mod(((0, -1), (1, 0)), 3)
    assert ffla.spin((1, 0), [rot], 3).dim == 2
    # scalar action preserves lines
    assert ffla.spin((1, 0), [((2, 0), (0, 2))], 5).basis == ((1, 0),)


def test_spin_rejects_zero_seed():
    with pytest.raises(MalformedInput):
        ffla.spin((0, 0), [ffla.mat_identity(2)], 5)


def test_spin_result_is_invariant():
    rng = random.Random(7)
    rot = ffla.mat_mod(((0, -1), (1, 0)), 7)
    for _ in range(50):
        seed = (rng.randrange(7), rng.randrange(7))
        if not any(seed):
            continue
        s = ffla.spin(seed, [rot], 7)
        for row in s.basis:
            assert s.contains(ffla.vec_mat(row, rot, 7))


def test_spin_matches_the_queue_reference_on_random_generators():
    dims = set()
    for rng_seed in range(30):
        rng = random.Random(rng_seed)
        for p in (2, 3, 5):
            for k in range(1, 5):
                gens = [tuple(tuple(rng.randrange(p) for _ in range(k)) for _ in range(k))
                        for _ in range(rng.randrange(4))]
                seed = tuple(rng.randrange(p) for _ in range(k))
                if not any(seed):
                    continue
                space = ffla.spin(seed, gens, p)
                assert space == reference_spin(seed, gens, p), (rng_seed, p, k)
                dims.add((k, space.dim))
    # proper and full spins at every k
    assert {(k, d) for k in range(1, 5) for d in (1, k)} <= dims


def test_irreducibility_catches_eigen_lines():
    # diagonalizable quarter-turn over F_5 fixes the line through (1, 2):
    # spinning standard basis vectors alone would miss it
    rot = ffla.mat_mod(((0, 1), (-1, 0)), 5)
    assert ffla.spin((1, 0), [rot], 5).dim == 2
    assert not ffla.is_irreducible([rot], 5, 2)
    assert ffla.is_irreducible([ffla.mat_mod(((0, -1), (1, 0)), 3)], 3, 2)


def test_is_prime_matches_trial_division_and_rejects_pseudoprimes():
    for n in range(3000):
        assert ffla.is_prime(n) == (n >= 2 and all(n % d for d in range(2, n))), n
    # least strong pseudoprimes to the first 4, 6, 11 and 12 prime bases
    for n in (3215031751, 3474749660383, 3825123056546413051, 318665857834031151167461):
        assert not ffla.is_prime(n), n
    assert ffla.is_prime(2**61 - 1) and ffla.is_prime(2**31 - 1)
    with pytest.raises(MalformedInput):
        ffla.is_prime(ffla.PRIME_TEST_BOUND)


def has_unit_of_order(fops, order):
    """Whether some element of the field has multiplicative order `order`,
    by powering in FieldOps.mul_t."""
    for i in range(1, fops.q):
        x, n = i, 1
        while x != fops.one:
            x, n = fops.mul_t[x][i], n + 1
        if n == order:
            return True
    return False


def test_endomorphism_field_prime_field():
    f = ffla.endomorphism_field([((2,),)], 5, 1)
    assert f.degree == 1 and f.q == 5
    assert has_unit_of_order(f, 4)


def test_endomorphism_field_f9():
    rot = ffla.mat_mod(((0, -1), (1, 0)), 3)
    f = ffla.endomorphism_field([rot], 3, 2)
    assert f.degree == 2 and f.q == 9
    # every basis matrix commutes with the generator
    for b in f.basis:
        assert ffla.mat_mul(b, rot, 3) == ffla.mat_mul(rot, b, 3)
    assert has_unit_of_order(f, 8)


def test_endomorphism_field_sl23_is_prime():
    gens = [((1, 1), (0, 1)), ((0, 2), (1, 0))]
    f = ffla.endomorphism_field(gens, 3, 2)
    assert f.degree == 1
    for b in f.basis:
        for g in gens:
            assert ffla.mat_mul(b, g, 3) == ffla.mat_mul(g, b, 3)


def test_endomorphism_field_rejects_reducible():
    with pytest.raises(MalformedInput, match="^irreducibility: ") as err:
        ffla.endomorphism_field([((2, 0), (0, 2))], 5, 2)
    assert str(err.value).startswith("irreducibility: ")


def all_matrices(p, k):
    return [tuple(tuple(e[i * k:(i + 1) * k]) for i in range(k))
            for e in product(range(p), repeat=k * k)]


def test_endomorphism_field_is_every_commuting_matrix():
    # the F_p-combinations of the basis are exactly the k x k matrices that
    # commute with every generator, found by trying all p^(k^2) <= 625
    rng = random.Random(15)
    cases = [(5, 1, [((2,),)]), (7, 1, [((3,),)]), (3, 2, [((0, 2), (1, 0))]),
             (3, 2, [((1, 1), (0, 1)), ((0, 2), (1, 0))]),
             (3, 2, [((1, 1), (2, 1)), ((1, 0), (0, 2))]), (2, 2, [((1, 1), (1, 0))]),
             (5, 2, [((0, 1), (2, 0))]), (2, 3, [((0, 1, 0), (0, 0, 1), (1, 1, 0))])]
    while len(cases) < 20:
        p, k = rng.choice([(2, 2), (3, 2), (5, 2), (2, 3)])
        gens = [tuple(tuple(rng.randrange(p) for _ in range(k)) for _ in range(k))
                for _ in range(rng.randint(1, 2))]
        if ffla.is_irreducible(gens, p, k):
            cases.append((p, k, gens))
    for p, k, gens in cases:
        f = ffla.endomorphism_field(gens, p, k)
        commuting = {x for x in all_matrices(p, k)
                     if all(ffla.mat_mul(x, g, p) == ffla.mat_mul(g, x, p) for g in gens)}
        spanned = set()
        for coeffs in product(range(p), repeat=len(f.basis)):
            m = ((0,) * k,) * k
            for c, b in zip(coeffs, f.basis):
                m = ffla.mat_add(m, ffla.mat_scale(b, c, p), p)
            spanned.add(m)
        assert spanned == commuting, (p, k, gens)
        assert p ** f.degree == len(commuting) == f.q


def test_field_ops_rejects_a_centralizer_that_is_not_a_field():
    # F_2[N] with N^2 = 0, for N = e_12 and for N = e_21, whose first row is
    # that of 0: N has no inverse, and no element has 3 distinct powers
    for n in (((0, 1), (0, 0)), ((0, 0), (1, 0))):
        with pytest.raises(MalformedInput, match="^irreducibility: ") as err:
            ffla.FieldOps(2, 2, (((1, 0), (0, 1)), n))
        assert str(err.value).startswith("irreducibility: ")


def companion(coeffs):
    """The companion matrix of x^k - sum_i coeffs[i] x^i, acting on row
    vectors: e_i -> e_(i+1), and e_(k-1) -> coeffs.  For a primitive
    polynomial it generates a Singer cycle of GL(k, p)."""
    k = len(coeffs)
    return tuple(tuple(int(j == i + 1) for j in range(k)) for i in range(k - 1)) + (tuple(coeffs),)


# x^4 + x + 1 over F_2, x^3 + 2x + 1 over F_3 and x^8 + x^4 + x^3 + x^2 + 1
# over F_2, all primitive
SINGER_FIELDS = {"F16": (2, companion((1, 1, 0, 0))), "F27": (3, companion((2, 1, 0))),
                 "F256": (2, companion((1, 0, 1, 1, 1, 0, 0, 0)))}


def test_field_tables_match_the_matrix_product_reference(sdp_pool):
    # the tables read off digits and one generator's powers equal those
    # built from matrix sums, products and an inverse scan, on every field
    # of the pools, of the benchmark catalogue, of H = 1 on F_2 (the C2^t
    # specs) and of three Singer cycles (the corpus's one sdp group, F9:C4,
    # is a primitive group too)
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    # id(F) -> (p, dim, F), F spanned by dim x dim matrices over F_p
    fields = {id(g.module.fops): (g.p, g.k, g.module.fops)
              for g in sdp_pool + corpus.primitive_groups()}
    for p, k, gens in [*workloads.SDP_MODULES.values(), (2, 1, [])]:
        fops = sdp.HModule.create(p, k, gens).fops
        fields[id(fops)] = (p, k, fops)
    for p, gen in SINGER_FIELDS.values():
        fops = ffla.endomorphism_field([gen], p, len(gen))
        fields[id(fops)] = (p, len(gen), fops)
    orders = set()
    for p, dim, f in fields.values():
        orders.add(f.q)
        assert (reference_field_tables(p, dim, f.basis)
                == (f.elements, f.one, f.add_t, f.neg_t, f.mul_t, f.inv_t)), (p, f.basis)
    assert orders == {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 25, 27, 256}


def test_field_of_order_512_is_tabulated_in_bounded_time():
    # x^9 + x^4 + 1 over F_2: the matrix-product fill took about 25 s
    gen = companion((1, 0, 0, 0, 1, 0, 0, 0, 0))
    basis = ffla.endomorphism_field([gen], 2, 9).basis
    start = time.perf_counter()
    f = ffla.FieldOps(2, 9, basis)
    assert time.perf_counter() - start < 2
    assert f.q == ffla.FIELD_ORDER_CAP == 512 and has_unit_of_order(f, 511)
    for x in (1, 2, 100, 511):
        assert f.elements[f.mul_t[x][f.inv_t[x]]] == ffla.mat_identity(9)
        assert f.elements[f.add_t[x][f.neg_t[x]]] == ((0,) * 9,) * 9


def test_a_field_above_the_cap_is_refused_before_its_tables(monkeypatch):
    # x^10 + x^3 + 1 over F_2 gives |F| = 1024
    def refuse(*args):
        raise AssertionError("the tables of a capped field were built")

    monkeypatch.setattr(ffla, "FieldOps", refuse)
    gen = companion((1, 0, 0, 1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ResourceCapExceeded, match="endomorphism field"):
        ffla.endomorphism_field([gen], 2, 10)


def test_matrix_products_match_the_index_loop_references():
    rng = random.Random(18)
    # empty, 1 x k and k x 1 factors first, then random shapes up to 5 x 5
    shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 4, 1), (4, 1, 4), (1, 1, 1)]
    shapes += [tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(300)]
    for rows, inner, cols in shapes:
        for p in (2, 3, 5, 7, 11, 13):
            a = tuple(random_vectors(rng, p, inner, rows))
            b = tuple(random_vectors(rng, p, cols, inner))
            expected = reference_mat_mul(a, b, p)
            assert ffla.mat_mul(a, b, p) == expected, (a, b, p)
            for v, row in zip(a, expected):
                assert ffla.vec_mat(v, b, p) == row, (v, b, p)


def test_mat_inv_inverts_exactly_the_matrices_with_zero_left_kernel():
    rng = random.Random(16)
    assert ffla.mat_inv((), 5) == ()
    for _ in range(300):
        p = rng.choice(PRIMES)
        k = rng.randint(1, 3)
        a = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
        if k > 1 and rng.random() < 0.3:  # force some singular matrices
            a[0] = [(x * rng.randrange(p)) % p for x in a[1]]
        a = tuple(tuple(row) for row in a)
        singular = any(any(v) and not any(ffla.vec_mat(v, a, p))
                       for v in product(range(p), repeat=k))
        if singular:
            with pytest.raises(MalformedInput):
                ffla.mat_inv(a, p)
        else:
            assert ffla.mat_mul(a, ffla.mat_inv(a, p), p) == ffla.mat_identity(k)


def test_express_in_rows_rebuilds_exactly_the_vectors_of_the_span():
    rng = random.Random(17)
    for _ in range(300):
        p = rng.choice(PRIMES)
        n = rng.randint(0, 4)
        rows = random_vectors(rng, p, n, rng.randint(0, 3))
        span = {tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(n))
                for coeffs in product(range(p), repeat=len(rows))}
        v = rng.choice(sorted(span)) if rng.random() < 0.5 else random_vectors(rng, p, n, 1)[0]
        combo = ffla.express_in_rows(rows, v, p)
        if v not in span:
            assert combo is None
        else:
            assert combo is not None and len(combo) == len(rows)
            assert tuple(sum(c * row[j] for c, row in zip(combo, rows)) % p
                         for j in range(n)) == v


def test_field_ops_unit_group_order():
    rot = ffla.mat_mod(((0, -1), (1, 0)), 3)
    fops = ffla.endomorphism_field([rot], 3, 2)
    invertible = 0
    for i, m in enumerate(fops.elements):
        try:
            ffla.mat_inv(m, 3)
            invertible += 1
        except MalformedInput:
            assert i == 0
    assert invertible == fops.q - 1
    assert fops.elements[0] == ((0, 0), (0, 0))


def test_field_ops_tables_consistent():
    rot = ffla.mat_mod(((0, -1), (1, 0)), 3)
    fops = ffla.endomorphism_field([rot], 3, 2)
    for i in range(fops.q):
        for j in range(fops.q):
            assert fops.elements[fops.mul_t[i][j]] == ffla.mat_mul(
                fops.elements[i], fops.elements[j], 3
            )
    for i in range(1, fops.q):
        assert fops.mul_t[i][fops.inv_t[i]] == fops.one


def assert_module_isomorphism(rho_v, rho_a, p, d, e, iso):
    # an invertible e x e matrix T with (copies of v) * T = T * a for every pair
    assert len(ffla._rref(iso, p, e)[1]) == e
    for v, a in zip(rho_v, rho_a):
        assert ffla.mat_mul(block_diagonal(v, e // d), iso, p) == ffla.mat_mul(iso, a, p)


def test_module_isomorphism_identity():
    gens = [((2,),)]
    iso = ffla.module_isomorphism(gens, gens, 5, 1, 1)
    assert iso is not None
    assert_module_isomorphism(gens, gens, 5, 1, 1, iso)
    assert ffla.module_isomorphism(gens, gens, 5, 1, 0) == ()  # V^0 is the zero module


def test_module_isomorphism_coordinate_swap():
    # V = F_3^2 under a rotation of order 4 (irreducible: x^2 + 1 has no root
    # mod 3, so End(V) = F_9) against V^2 with its coordinates mixed by
    # `mix`: Hom(V, V^2) = End(V)^2 has dimension 4 over F_3.  The first two
    # basis maps have the same image, so the second is skipped and the
    # isomorphism takes the first and the third.
    rot = ((0, 1), (2, 0))
    mix = ((1, 2, 2, 1), (1, 2, 1, 1), (1, 0, 0, 1), (1, 1, 1, 0))
    rho_a = [ffla.mat_mul(ffla.mat_mul(ffla.mat_inv(mix, 3), block_diagonal(rot, 2), 3), mix, 3)]
    basis = ffla._intertwiners([rot], rho_a, 3, 2, 4)
    assert len(basis) == 4
    first_two = [basis[0][:4], basis[0][4:], basis[1][:4], basis[1][4:]]
    assert len(ffla._rref(first_two, 3, 4)[1]) == 2
    iso = ffla.module_isomorphism([rot], rho_a, 3, 2, 4)
    assert iso == (basis[0][:4], basis[0][4:], basis[2][:4], basis[2][4:])
    assert_module_isomorphism([rot], rho_a, 3, 2, 4, iso)


def test_module_isomorphism_none_for_nonisomorphic():
    # trivial vs nontrivial 1-dimensional modules over F_7
    assert ffla.module_isomorphism([((1,),)], [((2,),)], 7, 1, 1) is None
    # over F_5, V = (2) against (2) + (3): a copy of V and one of another module
    assert ffla.module_isomorphism([((2,),)], [((2, 0), (0, 3))], 5, 1, 2) is None
    # a trivial V against the non-split [[1, 1], [0, 1]], whose only trivial
    # submodule is the line of (0, 1)
    assert ffla.module_isomorphism([((1,),)], [((1, 1), (0, 1))], 5, 1, 2) is None
    # dimensions that are not a multiple of d
    assert ffla.module_isomorphism([((0, 1), (2, 0))], [((1,),)], 3, 2, 1) is None


def test_projective_points_count():
    pts = list(ffla.projective_points(3, 2))
    assert len(pts) == 4
    assert pts[0] == (1, 0)


def test_addition_table_shares_one_int_per_id():
    # 529^2 entries, each a fresh int, peak at 7.15 MB; read off the spread
    # and fold lists, as FieldOps.add_t is, every entry is one of fold's
    # 45^2 ints and the table is its row lists alone
    tracemalloc.start()
    try:
        spread, fold = ffla.spread_ids([23, 23])
        add = [[fold[x + y] for y in spread] for x in spread]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10**6, peak
    assert add == [[(a // 23 + b // 23) % 23 * 23 + (a + b) % 23 for b in range(529)]
                   for a in range(529)]
