import random

import pytest
from hypothesis import given, settings, strategies as st

from solvint import ffla
from solvint.errors import MalformedInput, ValidationError
from solvint.ffla import FpSubspace

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
        a.sum_with(b)
    with pytest.raises(MalformedInput):
        a.intersect(b)


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
        shuffled = [ffla.vec_scale(v, rng.randrange(1, p), p) for v in shuffled]
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
        assert a.intersect(a) == a
        total = a.sum_with(b)
        inter = a.intersect(b)
        assert a.dim + b.dim == total.dim + inter.dim
        assert inter.is_subspace_of(a) and inter.is_subspace_of(b)


def test_intersect_is_the_canonical_rref_of_the_common_vectors():
    rng = random.Random(29)
    for _ in range(500):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 6)
        a = ffla.rref(random_vectors(rng, p, n, rng.randrange(n + 1)), p, n)
        b = ffla.rref(random_vectors(rng, p, n, rng.randrange(n + 1)), p, n)
        inter = a.intersect(b)
        assert inter == ffla.rref(inter.basis, p, n)
        assert set(inter.vectors()) == set(a.vectors()) & set(b.vectors())


def test_split_over_matches_intersect_and_sum_with():
    rng = random.Random(37)
    spanning = 0
    for _ in range(1000):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 6)
        a = ffla.rref(random_vectors(rng, p, n, rng.randrange(n + 1)), p, n)
        b = ffla.rref(random_vectors(rng, p, n, rng.randrange(n + 1)), p, n)
        meet, lifts = a.split_over(b)
        assert meet == a.intersect(b)
        assert len(lifts) == a.sum_with(b).dim - b.dim
        assert all(a.contains(lift) for lift in lifts)

        def quotient(x):
            image = b.reduce(x)
            return tuple(image[c] for c in b.free_columns)

        # pi(l_i) is row i of the RREF basis of pi(a): a unit vector on the
        # pivot columns of that basis
        images = tuple(quotient(lift) for lift in lifts)
        assert images == ffla.rref([quotient(row) for row in a.basis], p, n - b.dim).basis
        if len(lifts) == n - b.dim:
            spanning += 1
            assert images == ffla.mat_identity(n - b.dim)
            x = tuple(rng.randrange(p) for _ in range(n))
            for coeff, lift in zip(quotient(x), lifts):
                x = ffla.vec_sub(x, ffla.vec_scale(lift, coeff, p), p)
            assert b.contains(x)
    assert spanning > 100


def test_modular_law():
    rng = random.Random(31)
    for _ in range(1000):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 5)
        a = ffla.rref(random_vectors(rng, p, n, 1), p, n)
        b = ffla.rref(random_vectors(rng, p, n, 2), p, n)
        c = a.sum_with(ffla.rref(random_vectors(rng, p, n, 1), p, n))
        lhs = a.sum_with(b.intersect(c))
        rhs = a.sum_with(b).intersect(c)
        assert lhs == rhs


def test_sum_example_f3():
    a = ffla.rref([(1, 0)], 3, 2)
    b = ffla.rref([(0, 1)], 3, 2)
    assert a.sum_with(b) == FpSubspace.full(3, 2)


def test_complement_direct_sum():
    a = ffla.rref([(1, 1)], 5, 2)
    b = a.complement_in(FpSubspace.full(5, 2))
    assert b.dim == 1
    assert a.intersect(b).dim == 0
    assert a.sum_with(b).dim == 2
    # exhaustive direct-sum verification
    seen = set()
    for u in a.vectors():
        for v in b.vectors():
            seen.add(ffla.vec_add(u, v, 5))
    assert len(seen) == 25


def test_complement_requires_containment():
    a = ffla.rref([(1, 0, 0)], 3, 3)
    amb = ffla.rref([(0, 1, 0), (0, 0, 1)], 3, 3)
    with pytest.raises(MalformedInput):
        a.complement_in(amb)


def test_zero_ambient_dimension_is_legal():
    z = FpSubspace.zero(5, 0)
    assert z.dim == 0
    assert z.sum_with(z) == z
    assert z.intersect(z) == z
    assert list(z.vectors()) == [()]
    assert z.reduce(()) == ()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.data())
def test_reduce_is_canonical_on_cosets(dim, data):
    p = data.draw(st.sampled_from(PRIMES))
    n = 4
    vecs = [tuple(data.draw(st.integers(0, p - 1)) for _ in range(n)) for _ in range(dim)]
    s = ffla.rref(vecs, p, n)
    v = tuple(data.draw(st.integers(0, p - 1)) for _ in range(n))
    w = ffla.vec_add(v, next(iter(s.vectors())) if s.dim else (0,) * n, p)
    for member in list(s.vectors())[:8]:
        assert s.reduce(ffla.vec_add(v, member, p)) == s.reduce(v)
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


def test_endomorphism_field_prime_field():
    f = ffla.endomorphism_field([((2,),)], 5, 1)
    assert f.degree == 1 and f.order == 5
    assert ffla.mat_has_order(f.primitive, 4, 5)


def test_endomorphism_field_f9():
    rot = ffla.mat_mod(((0, -1), (1, 0)), 3)
    f = ffla.endomorphism_field([rot], 3, 2)
    assert f.degree == 2 and f.order == 9
    # every basis matrix commutes with the generator
    for b in f.basis:
        assert ffla.mat_mul(b, rot, 3) == ffla.mat_mul(rot, b, 3)
    assert ffla.mat_has_order(f.primitive, 8, 3)


def test_endomorphism_field_sl23_is_prime():
    gens = [((1, 1), (0, 1)), ((0, 2), (1, 0))]
    f = ffla.endomorphism_field(gens, 3, 2)
    assert f.degree == 1
    for b in f.basis:
        for g in gens:
            assert ffla.mat_mul(b, g, 3) == ffla.mat_mul(g, b, 3)


def test_endomorphism_field_rejects_reducible():
    with pytest.raises(ValidationError) as err:
        ffla.endomorphism_field([((2, 0), (0, 2))], 5, 2)
    assert err.value.invariant == "irreducibility"


def test_field_ops_unit_group_order():
    rot = ffla.mat_mod(((0, -1), (1, 0)), 3)
    fops = ffla.FieldOps(ffla.endomorphism_field([rot], 3, 2))
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
    fops = ffla.FieldOps(ffla.endomorphism_field([rot], 3, 2))
    for i in range(fops.q):
        for j in range(fops.q):
            assert fops.elements[fops.mul_t[i][j]] == ffla.mat_mul(
                fops.elements[i], fops.elements[j], 3
            )
    for i in range(1, fops.q):
        assert fops.mul_t[i][fops.inv_t[i]] == fops.one


def test_module_isomorphism_identity():
    full = FpSubspace.full(5, 1)
    gens = [((2,),)]
    iso = ffla.module_isomorphism(full, gens, full, gens)
    assert iso is not None
    assert iso.apply((3,)) in [(3,), (1,), (2,), (4,)]
    # equivariance
    for v in full.vectors():
        assert iso.apply(ffla.vec_mat(v, gens[0], 5)) == ffla.vec_mat(iso.apply(v), gens[0], 5)


def test_module_isomorphism_coordinate_swap():
    # diagonal C_4 action on F_5^2; the two coordinate lines are isomorphic
    g = ((2, 0), (0, 2))
    a = ffla.rref([(1, 0)], 5, 2)
    b = ffla.rref([(0, 1)], 5, 2)
    iso = ffla.module_isomorphism(a, [g], b, [g])
    assert iso is not None
    assert iso.apply((1, 0)) in [(0, 1), (0, 2), (0, 3), (0, 4)]


def test_module_isomorphism_none_for_nonisomorphic():
    # trivial vs nontrivial 1-dimensional modules over F_7
    full = FpSubspace.full(7, 1)
    assert ffla.module_isomorphism(full, [((1,),)], full, [((2,),)]) is None


def test_projective_points_count():
    pts = list(ffla.projective_points(3, 2))
    assert len(pts) == 4
    assert pts[0] == (1, 0)
