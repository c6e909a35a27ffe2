"""Exact linear algebra over prime fields F_p.

Vectors are tuples of ints reduced mod p and matrices are tuples of row
tuples; all maps act on row vectors from the right (v -> v*M).  Subspaces
are stored in reduced row echelon form, which is the unique canonical
representative used for equality, hashing and deduplication everywhere.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product as iter_product
from operator import mul

from .errors import MalformedInput, ResourceCapExceeded

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


# ---------------------------------------------------------------------------
# scalar / vector / matrix primitives


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod p")
    return pow(a, p - 2, p)


def vec_sub(u: Vector, v: Vector, p: int) -> Vector:
    return tuple((a - b) % p for a, b in zip(u, v))


def vec_mat(v: Vector, m: Matrix, p: int) -> Vector:
    return tuple(sum(map(mul, v, col)) % p for col in zip(*m))


def mat_identity(k: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in a)


def mat_add(a: Matrix, b: Matrix, p: int) -> Matrix:
    return tuple(tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c: int, p: int) -> Matrix:
    return tuple(tuple((x * c) % p for x in row) for row in a)


def mat_mod(a, p: int) -> Matrix:
    return tuple(tuple(int(x) % p for x in row) for row in a)


def mat_inv(a: Matrix, p: int) -> Matrix:
    """Inverse by reducing [a | I]; raises MalformedInput on singular matrices."""
    k = len(a)
    red, pivots = _rref([tuple(row) + e for row, e in zip(a, mat_identity(k))], p, k)
    if len(pivots) < k:
        raise MalformedInput("matrix is singular mod p")
    return tuple(row[k:] for row in red)


def fixing_mask(cosets, vectors, p: int) -> int:
    """The union of the (disjoint) masks of `cosets` whose matrix fixes each of `vectors`."""
    return sum(mask for m, mask in cosets.items() if all(vec_mat(v, m, p) == v for v in vectors))


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# Miller-Rabin with the first thirteen primes as bases is exact below this
# bound (the least strong pseudoprime to all of them); the first twelve
# alone pass the composite 318665857834031151167461.
PRIME_TEST_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; MalformedInput for n >= PRIME_TEST_BOUND,
    where the bases no longer decide primality."""
    if n >= PRIME_TEST_BOUND:
        raise MalformedInput(f"primality is only decided below {PRIME_TEST_BOUND}")
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# row reduction


def _rref(vectors, p: int, ncols: int):
    rows = [list(v) for v in vectors]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = inv_mod(rows[r][c], p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    # every row kept was reduced mod p when it was scaled to its pivot
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def express_in_rows(rows, v: Vector, p: int):
    """Coefficients writing v as a combination of `rows`, or None.

    Reduces [rows | I] over the columns of v; the returned combination is
    the unique one with all free coefficients zero, so it is deterministic.
    """
    n = len(v)
    m = len(rows)
    aug, piv_cols = _rref([tuple(row) + e for row, e in zip(rows, mat_identity(m))], p, n)
    res = list(v)
    combo = [0] * m
    for i, c in enumerate(piv_cols):
        f = res[c] % p
        if f:
            for j in range(n):
                res[j] = (res[j] - f * aug[i][j]) % p
            for j in range(m):
                combo[j] = (combo[j] + f * aug[i][n + j]) % p
    if any(x % p for x in res):
        return None
    return tuple(combo)


def nullspace(rows, p: int, ncols: int):
    """Canonical basis of {x : x . rows^T = 0 columnwise}, i.e. of the right
    kernel of the matrix whose rows are `rows` read as linear equations."""
    red, pivots = _rref(rows, p, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-red[i][f]) % p
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# subspaces


class FpSubspace(namedtuple("FpSubspace", "p ambient_dim basis pivots")):
    """A subspace of F_p^n held as a canonical RREF basis (a Matrix) with
    its pivot columns."""

    __slots__ = ()

    @classmethod
    def from_vectors(cls, p: int, ambient_dim: int, vectors) -> "FpSubspace":
        vectors = list(vectors)
        for v in vectors:
            if len(v) != ambient_dim:
                raise MalformedInput(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        rows, pivots = _rref(vectors, p, ambient_dim)
        return cls(p, ambient_dim, rows, pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Vector) -> Vector:
        """Canonical coset representative of v modulo this subspace."""
        if len(v) != self.ambient_dim:
            raise MalformedInput("vector/ambient dimension mismatch")
        p = self.p
        res = [x % p for x in v]
        for row, c in zip(self.basis, self.pivots):
            f = res[c]
            if f:
                for j in range(self.ambient_dim):
                    res[j] = (res[j] - f * row[j]) % p
        return tuple(res)

    def contains(self, v: Vector) -> bool:
        return not any(self.reduce(v))


def rref(vectors, p: int, ambient_dim: int) -> FpSubspace:
    """Canonical RREF span of the given F_p row vectors."""
    return FpSubspace.from_vectors(p, ambient_dim, vectors)


def spin(seed: Vector, generators, p: int) -> FpSubspace:
    """Smallest generator-invariant subspace containing `seed`: each image
    of each vector of the growing spanning list is tested once against the
    span, and listed when it lies outside."""
    if not any(x % p for x in seed):
        raise MalformedInput("spin requires a nonzero seed vector")
    n = len(seed)
    spanning = [seed]
    space = FpSubspace.from_vectors(p, n, spanning)
    for v in spanning:
        if space.dim == n:
            break
        for g in generators:
            w = vec_mat(v, g, p)
            if not space.contains(w):
                spanning.append(w)
                space = FpSubspace.from_vectors(p, n, space.basis + (w,))
    return space


def projective_points(p: int, k: int):
    """One representative per 1-dimensional subspace of F_p^k (monic: first
    nonzero coordinate equals 1), in lexicographic order."""
    for i in range(k):
        for tail in iter_product(range(p), repeat=k - i - 1):
            yield (0,) * i + (1,) + tail


def is_irreducible(generators, p: int, k: int) -> bool:
    """Exact irreducibility test: every line must spin to the full space.

    Any proper nonzero invariant subspace contains a line whose spin stays
    inside it, so checking all lines is complete (not just the standard
    basis vectors, which can miss invariant lines in eigen-position).
    """
    if k == 0:
        return False
    if k == 1:
        return True
    for v in projective_points(p, k):
        if spin(v, generators, p).dim != k:
            return False
    return True


# ---------------------------------------------------------------------------
# endomorphism field of an irreducible module


# bounds FieldOps's q^2 tables; the catalogue reaches |F| = 25, the tests 2^9
FIELD_ORDER_CAP = 512


def endomorphism_field(generators, p: int, k: int) -> "FieldOps":
    """Solve X*g = g*X for all generators and tabulate the resulting field,
    refusing one above FIELD_ORDER_CAP before any table is built."""
    if not is_irreducible(generators, p, k):
        raise MalformedInput("irreducibility: H does not act irreducibly on V")
    basis = tuple(
        tuple(tuple(vec[i * k + j] for j in range(k)) for i in range(k))
        for vec in _intertwiners(generators, generators, p, k, k)
    )
    e = len(basis)
    if k % e != 0:
        raise MalformedInput("irreducibility: centralizer dimension does not divide k")
    if p**e > FIELD_ORDER_CAP:
        raise ResourceCapExceeded("order of the endomorphism field of V", FIELD_ORDER_CAP)
    return FieldOps(p, k, basis)


def _intertwiners(rho_a, rho_b, p: int, d: int, e: int):
    """Canonical basis of {T : a*T = T*b for every pair (a, b) of the
    parallel lists rho_a, rho_b}, with a d x d, b e x e and each T a d x e
    matrix flattened with T_ij at i*e + j: the nullspace of one equation
    per (pair, i, j)."""
    rows = []
    for ga, gb in zip(rho_a, rho_b):
        for i in range(d):
            for j in range(e):
                row = [0] * (d * e)
                for b in range(d):
                    row[b * e + j] = (row[b * e + j] + ga[i][b]) % p
                for a in range(e):
                    row[i * e + a] = (row[i * e + a] - gb[a][j]) % p
                rows.append(tuple(row))
    return nullspace(rows, p, d * e)


def spread_ids(radices) -> tuple[list[int], list[int]]:
    """(spread, fold): carry-free ids of W = Z/r_1 x ... x Z/r_m, whose
    ids are mixed-radix over `radices`, digit 1 most significant.  spread[w]
    reads the digits d_i of w in the radices 2r_i - 1 in place of r_i, so
    in the sum of two spread ids every digit is at most 2r_i - 2 and the
    addition never carries; fold[s] reduces each digit of s mod r_i and
    gives the dense id back: w1 + w2 = fold[spread[w1] + spread[w2]].
    Built one digit at a time, with |W| and prod(2r_i - 1) <= |W|^log2(3)
    entries."""
    spread, fold = [0], [0]
    for r in radices:
        spread = [x * (2 * r - 1) + d for x in spread for d in range(r)]
        fold = [x * r + d % r for x in fold for d in range(2 * r - 1)]
    return spread, fold


class FieldOps:
    """The field F spanned over F_p by the dim x dim matrices `basis`, an
    algebra holding the identity (End_H(V) for an irreducible H), with
    tables for its arithmetic and linear algebra over F on tuples of
    element indices.  Element i is sum_j c_j basis[j] for the base-p digits
    c_0 ... c_(e-1) of i, c_0 first, so 0 is zero and `add_t` is the
    mixed-radix addition table, read off `spread_ids`.  Products and
    inverses are read off the exp/log tables of the first g with q - 1
    distinct powers (Zech logarithms; Lidl and Niederreiter, Finite Fields,
    ch. 9), walked on first rows: e_1 g^(k+1) = (e_1 g^k) g takes no
    matrix product.  If the rows first return to e_1 at k = q - 1, they are
    q - 1 distinct nonzero rows, so with 0 every element has its own first
    row, which names it, and the nonzero elements are the units g^k.  If no
    g does that, the span is not a field (MalformedInput): F* is cyclic."""

    def __init__(self, p: int, dim: int, basis):
        self.basis = basis
        self.degree = e = len(basis)
        self.q = q = p**e
        elements = [((0,) * dim,) * dim]
        for b in basis:
            elements = [mat_add(m, mat_scale(b, c, p), p) for m in elements for c in range(p)]
        self.elements: tuple[Matrix, ...] = tuple(elements)
        spread, fold = spread_ids([p] * e)
        self.add_t = [[fold[x + y] for y in spread] for x in spread]
        self.neg_t = [row.index(0) for row in self.add_t]
        named = {m[0]: i for i, m in enumerate(elements)}
        one_row = mat_identity(dim)[0]
        for g in elements[1:]:
            exp, row = [named[one_row]], vec_mat(one_row, g, p)
            while row != one_row and len(exp) < q - 1:
                exp.append(named[row])
                row = vec_mat(row, g, p)
            if row == one_row and len(exp) == q - 1:
                break
        else:
            raise MalformedInput("irreducibility: centralizer is not a field")
        log = [0] * q
        for k, x in enumerate(exp):
            log[x] = k
        self.one = exp[0]
        exp2 = exp + exp  # exp2[a + b] = g^(a + b) for a, b < q - 1
        self.mul_t = [[0] * q] + [[0, *map(exp2[log[i]:].__getitem__, log[1:])]
                                  for i in range(1, q)]
        self.inv_t = [0] + [exp[-log[i]] for i in range(1, q)]

    # -- vectors over F^t, encoded as tuples of element indices

    def _add_multiple(self, x, a, y) -> tuple[int, ...]:
        """x + a*y for vectors x, y over F and a in F."""
        add, ay = self.add_t, self.mul_t[a]
        return tuple([add[u][ay[v]] for u, v in zip(x, y)])

    def f_rref(self, vectors, t: int):
        """(rows, pivots): the F-RREF rows of the span of `vectors` over F^t
        and their leading columns, with zero rows dropped.  For each column,
        the first row past the pivot rows that is nonzero there is scaled to
        lead with one and cleared from every other row."""
        axpy, mul, neg, inv, one = self._add_multiple, self.mul_t, self.neg_t, self.inv_t, self.one
        rows = list(map(tuple, vectors))  # the pivot rows, then the rest
        pivots = []
        for c in range(t):
            r = len(pivots)
            for i in range(r, len(rows)):
                if rows[i][c]:
                    break
            else:
                continue
            row = rows.pop(i)
            if row[c] != one:
                scale = mul[inv[row[c]]]
                row = tuple([scale[x] for x in row])
            rows = [axpy(u, neg[u[c]], row) if u[c] else u for u in rows]
            rows.insert(r, row)
            pivots.append(c)
        # the rest is zero now
        return tuple(rows[:len(pivots)]), tuple(pivots)

    def hyperplanes(self, t: int):
        """The F-hyperplanes of F^t as F-RREF rows.  For each non-pivot
        column f, from t - 1 down to 0, row c is e_c + a_c e_f for c < f and
        e_c for c > f, with (a_0, ..., a_(f-1)) running over F^f in
        lexicographic order; F^0 has none."""
        unit = tuple(tuple(self.one if j == c else 0 for j in range(t)) for c in range(t))
        return [tuple(unit[c][:f] + (a_c,) + unit[c][f + 1:] for c, a_c in enumerate(a))
                + unit[f + 1:]
                for f in range(t - 1, -1, -1) for a in iter_product(range(self.q), repeat=f)]


# ---------------------------------------------------------------------------
# module isomorphisms


def induced_action(sub: FpSubspace, g: Matrix) -> Matrix:
    """Matrix of g restricted to an invariant subspace, over its RREF basis."""
    rows = []
    for u in sub.basis:
        w = vec_mat(u, g, sub.p)
        if not sub.contains(w):
            raise MalformedInput("subspace is not invariant under the given matrix")
        rows.append(tuple(w[c] for c in sub.pivots))
    return tuple(rows)


def module_isomorphism(rho_v, rho_a, p: int, d: int, e: int):
    """The e x e matrix of a G-isomorphism V^(e/d) -> A, or None when A is
    not a sum of copies of V: V = F_p^d is irreducible and A = F_p^e, under
    the parallel lists rho_v, rho_a (images of the same generators).  Row
    block i of the matrix is the i-th map kept below (() for e = 0).

    A nonzero G-map V -> A is injective, as V is irreducible, so its image
    meets any submodule in 0 or in all of itself.  So each map of a basis
    of Hom_G(V, A) whose image rows raise the rank of those kept raises it
    by exactly d, the kept images are a direct sum, and that sum is the sum
    of all the images: A exactly when A is a sum of copies of V.
    """
    kept: Matrix = ()
    for vec in _intertwiners(rho_v, rho_a, p, d, e):
        if len(kept) == e:
            break
        t = tuple(tuple(vec[i * e:(i + 1) * e]) for i in range(d))
        if len(_rref(kept + t, p, e)[1]) > len(kept):
            kept += t
    return kept if len(kept) == e else None
