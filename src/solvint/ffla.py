"""Exact linear algebra over prime fields F_p.

Vectors are tuples of ints reduced mod p and matrices are tuples of row
tuples; all maps act on row vectors from the right (v -> v*M).  Subspaces
are stored in reduced row echelon form, which is the unique canonical
representative used for equality, hashing and deduplication everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .errors import MalformedInput, ResourceCapExceeded, ValidationError

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


# ---------------------------------------------------------------------------
# scalar / vector / matrix primitives


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod p")
    return pow(a, p - 2, p)


def vec_add(u: Vector, v: Vector, p: int) -> Vector:
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector, p: int) -> Vector:
    return tuple((a - b) % p for a, b in zip(u, v))


def vec_neg(u: Vector, p: int) -> Vector:
    return tuple((-a) % p for a in u)


def vec_scale(u: Vector, c: int, p: int) -> Vector:
    return tuple((a * c) % p for a in u)


def vec_mat(v: Vector, m: Matrix, p: int) -> Vector:
    cols = len(m[0]) if m else 0
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) % p for j in range(cols))


def mat_identity(k: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    n = len(b)
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(row[i] * b[i][j] for i in range(n)) % p for j in range(cols))
        for row in a
    )


def mat_add(a: Matrix, b: Matrix, p: int) -> Matrix:
    return tuple(tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c: int, p: int) -> Matrix:
    return tuple(tuple((x * c) % p for x in row) for row in a)


def mat_mod(a, p: int) -> Matrix:
    return tuple(tuple(int(x) % p for x in row) for row in a)


def mat_pow(a: Matrix, e: int, p: int) -> Matrix:
    result = mat_identity(len(a))
    base = a
    while e:
        if e & 1:
            result = mat_mul(result, base, p)
        base = mat_mul(base, base, p)
        e >>= 1
    return result


def mat_inv(a: Matrix, p: int) -> Matrix:
    """Inverse via Gauss-Jordan; raises MalformedInput on singular matrices."""
    k = len(a)
    rows = [list(a[i]) + [1 if i == j else 0 for j in range(k)] for i in range(k)]
    for c in range(k):
        piv = next((r for r in range(c, k) if rows[r][c] % p), None)
        if piv is None:
            raise MalformedInput("matrix is singular mod p")
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = inv_mod(rows[c][c], p)
        rows[c] = [(x * inv) % p for x in rows[c]]
        for r in range(k):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(row[k:]) for row in rows)


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


def mat_has_order(a: Matrix, order: int, p: int) -> bool:
    """True iff the multiplicative order of `a` is exactly `order`."""
    if mat_pow(a, order, p) != mat_identity(len(a)):
        return False
    return all(mat_pow(a, order // q, p) != mat_identity(len(a)) for q in prime_factors(order))


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
    return tuple(tuple(x % p for x in row) for row in rows[:r]), tuple(pivots)


def express_in_rows(rows, v: Vector, p: int):
    """Coefficients writing v as a combination of `rows`, or None.

    Gaussian elimination with bookkeeping; the returned combination is the
    unique one with all free coefficients zero, so it is deterministic.
    """
    n = len(v)
    m = len(rows)
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    r = 0
    piv_cols = []
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] % p), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = inv_mod(aug[r][c], p)
        aug[r] = [(x * inv) % p for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] % p:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
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


@dataclass(frozen=True)
class FpSubspace:
    """A subspace of F_p^n held as a canonical RREF basis."""

    p: int
    ambient_dim: int
    basis: Matrix
    pivots: tuple[int, ...]

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

    @classmethod
    def zero(cls, p: int, ambient_dim: int) -> "FpSubspace":
        return cls(p, ambient_dim, (), ())

    @classmethod
    def full(cls, p: int, ambient_dim: int) -> "FpSubspace":
        return cls.from_vectors(p, ambient_dim, mat_identity(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def free_columns(self) -> tuple[int, ...]:
        """The non-pivot columns: `reduce` is zero everywhere else."""
        pivots = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in pivots)

    def size(self) -> int:
        return self.p ** self.dim

    def _check_compatible(self, other: "FpSubspace") -> None:
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise MalformedInput("subspaces live in different ambient spaces")

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

    def coords_of(self, v: Vector):
        """Coefficients of v over the RREF basis, or None if v is outside."""
        coords = tuple(v[c] % self.p for c in self.pivots)
        if self.contains(v):
            return coords
        return None

    def is_subspace_of(self, other: "FpSubspace") -> bool:
        self._check_compatible(other)
        return all(other.contains(row) for row in self.basis)

    def sum_with(self, other: "FpSubspace") -> "FpSubspace":
        self._check_compatible(other)
        return FpSubspace.from_vectors(self.p, self.ambient_dim, self.basis + other.basis)

    def intersect(self, other: "FpSubspace") -> "FpSubspace":
        """Zassenhaus intersection; exact and canonical."""
        self._check_compatible(other)
        n = self.ambient_dim
        stacked = [tuple(row) + tuple(row) for row in self.basis]
        stacked += [tuple(row) + (0,) * n for row in other.basis]
        red, pivots = _rref(stacked, self.p, 2 * n)
        # the rows pivoting in the right half come last and are already in
        # reduced echelon form there
        inter = tuple(row[n:] for row, c in zip(red, pivots) if c >= n)
        return FpSubspace(self.p, n, inter, tuple(c - n for c in pivots if c >= n))

    def split_over(self, other: "FpSubspace"):
        """(self cap other, lifts) from one elimination.

        Let pi(x) be `other.reduce(x)` read on `other.free_columns`: a linear
        map onto F_p^k with kernel `other`.  The rows [pi(b) | b], b over this
        basis, are row-reduced together; row operations keep every left
        half equal to pi of its right half.  The rows pivoting in the right
        half have pi = 0: their right halves are the canonical basis of
        self cap other, as in `intersect`.  The right halves of the rows pivoting in the left
        half are the lifts l_i in self, with pi(l_i) the RREF basis of
        pi(self).  When self + other is the whole space, pi(l_i) = e_i, so
        x - sum_i pi(x)_i l_i lies in `other` for every x.
        """
        self._check_compatible(other)
        free = other.free_columns
        k = len(free)
        stacked = []
        for row in self.basis:
            image = other.reduce(row)
            stacked.append(tuple(image[c] for c in free) + row)
        if not any(any(row[:k]) for row in stacked):
            return self, ()
        red, pivots = _rref(stacked, self.p, k + self.ambient_dim)
        meet = tuple(row[k:] for row, c in zip(red, pivots) if c >= k)
        lifts = tuple(row[k:] for row, c in zip(red, pivots) if c < k)
        return FpSubspace(self.p, self.ambient_dim, meet,
                          tuple(c - k for c in pivots if c >= k)), lifts

    def complement_in(self, ambient: "FpSubspace") -> "FpSubspace":
        """Deterministic direct complement inside `ambient` (greedy extension
        of this basis by ambient basis rows)."""
        self._check_compatible(ambient)
        if not self.is_subspace_of(ambient):
            raise MalformedInput("complement_in: subspace not inside ambient")
        added = []
        cur = list(self.basis)
        cur_space = self
        for row in ambient.basis:
            if not cur_space.contains(row):
                added.append(row)
                cur = cur + [row]
                cur_space = FpSubspace.from_vectors(self.p, self.ambient_dim, cur)
        return FpSubspace.from_vectors(self.p, self.ambient_dim, added)

    def vectors(self):
        """All elements, in lexicographic coefficient order over the basis."""
        p, n = self.p, self.ambient_dim
        for coeffs in iter_product(range(p), repeat=self.dim):
            v = [0] * n
            for c, row in zip(coeffs, self.basis):
                if c:
                    for j in range(n):
                        v[j] = (v[j] + c * row[j]) % p
            yield tuple(v)

    def decompose(self, v: Vector, other: "FpSubspace"):
        """Split v = a + b with a in self, b in other; None if impossible."""
        self._check_compatible(other)
        rows = self.basis + other.basis
        combo = express_in_rows(rows, v, self.p)
        if combo is None:
            return None
        p, n = self.p, self.ambient_dim
        a = [0] * n
        for c, row in zip(combo[: self.dim], self.basis):
            for j in range(n):
                a[j] = (a[j] + c * row[j]) % p
        a = tuple(a)
        return a, vec_sub(v, a, p)


def rref(vectors, p: int, ambient_dim: int) -> FpSubspace:
    """Canonical RREF span of the given F_p row vectors."""
    return FpSubspace.from_vectors(p, ambient_dim, vectors)


def spin(seed: Vector, generators, p: int) -> FpSubspace:
    """Smallest generator-invariant subspace containing `seed`."""
    if not any(x % p for x in seed):
        raise MalformedInput("spin requires a nonzero seed vector")
    n = len(seed)
    space = FpSubspace.from_vectors(p, n, [seed])
    queue = list(space.basis)
    while queue:
        v = queue.pop()
        for g in generators:
            w = vec_mat(v, g, p)
            if not space.contains(w):
                space = FpSubspace.from_vectors(p, n, space.basis + (w,))
                queue.extend(space.basis)
                break
        if space.dim == n:
            break
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


@dataclass(frozen=True)
class EndField:
    """The centralizer field F = End_H(V) of an irreducible action.

    `basis` spans the centralizer algebra over F_p, `primitive` generates
    the unit group (order p^degree - 1).
    """

    p: int
    dim: int
    degree: int
    basis: tuple[Matrix, ...]
    primitive: Matrix

    @property
    def order(self) -> int:
        return self.p ** self.degree


def endomorphism_field(generators, p: int, k: int) -> EndField:
    """Solve X*g = g*X for all generators and package the resulting field."""
    if not is_irreducible(generators, p, k):
        raise ValidationError("irreducibility", "H does not act irreducibly on V")
    # unknowns X_{ab} indexed a*k+b; one equation per (generator, i, j)
    rows = []
    for g in generators:
        for i in range(k):
            for j in range(k):
                row = [0] * (k * k)
                for b in range(k):
                    row[i * k + b] = (row[i * k + b] + g[b][j]) % p
                for a in range(k):
                    row[a * k + j] = (row[a * k + j] - g[i][a]) % p
                rows.append(tuple(row))
    if rows:
        kernel = nullspace(rows, p, k * k)
    else:
        kernel = [tuple(1 if i == j else 0 for i in range(k * k)) for j in range(k * k)]
    basis = tuple(
        tuple(tuple(vec[i * k + j] for j in range(k)) for i in range(k)) for vec in kernel
    )
    e = len(basis)
    if k % e != 0:
        raise ValidationError("irreducibility", "centralizer dimension does not divide k")
    order = p**e - 1
    primitive = None
    for coeffs in iter_product(range(p), repeat=e):
        if not any(coeffs):
            continue
        cand = mat_scale(basis[0], coeffs[0], p)
        for c, b in zip(coeffs[1:], basis[1:]):
            cand = mat_add(cand, mat_scale(b, c, p), p)
        try:
            mat_inv(cand, p)
        except MalformedInput:
            raise ValidationError(
                "irreducibility", "centralizer contains a singular element; not a field"
            )
        if mat_has_order(cand, order, p):
            primitive = cand
            break
    if primitive is None:
        raise ValidationError("irreducibility", "no primitive element found in centralizer")
    return EndField(p=p, dim=k, degree=e, basis=basis, primitive=primitive)


class FieldOps:
    """Lookup tables for arithmetic in an EndField and for exact linear
    algebra over F on tuples of field-element indices.

    Field elements are indexed by their coefficient tuple over the algebra
    basis, in lexicographic order, so index 0 is always zero.
    """

    def __init__(self, field: EndField):
        self.field = field
        p, e = field.p, field.degree
        self.p = p
        self.q = field.order
        elems = []
        for coeffs in iter_product(range(p), repeat=e):
            m = None
            for c, b in zip(coeffs, field.basis):
                part = mat_scale(b, c, p)
                m = part if m is None else mat_add(m, part, p)
            elems.append(m)
        self.elements: tuple[Matrix, ...] = tuple(elems)
        self.index: dict[Matrix, int] = {m: i for i, m in enumerate(elems)}
        self.one = self.index[mat_identity(field.dim)]
        q = self.q
        self.mul_t = [[0] * q for _ in range(q)]
        for i in range(q):
            for j in range(i, q):
                r = self.index[mat_mul(elems[i], elems[j], p)]
                self.mul_t[i][j] = r
                self.mul_t[j][i] = r
        self.add_t = [[self.index[mat_add(elems[i], elems[j], p)] for j in range(q)] for i in range(q)]
        self.neg_t = [self.index[mat_scale(elems[i], -1, p)] for i in range(q)]
        self.inv_t = [0] * q
        for i in range(1, q):
            self.inv_t[i] = next(j for j in range(1, q) if self.mul_t[i][j] == self.one)

    # -- vectors over F^t, encoded as tuples of element indices

    def f_rref(self, vectors, t: int):
        rows = [list(v) for v in vectors]
        pivots = []
        r = 0
        for c in range(t):
            piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = self.inv_t[rows[r][c]]
            rows[r] = [self.mul_t[x][inv] for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = self.neg_t[rows[i][c]]
                    rows[i] = [
                        self.add_t[x][self.mul_t[f][y]] for x, y in zip(rows[i], rows[r])
                    ]
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return tuple(tuple(row) for row in rows[:r]), tuple(pivots)

    def f_contains(self, basis_rows, pivots, v) -> bool:
        res = list(v)
        for row, c in zip(basis_rows, pivots):
            f = res[c]
            if f:
                nf = self.neg_t[f]
                res = [self.add_t[x][self.mul_t[nf][y]] for x, y in zip(res, row)]
        return not any(res)

    def subspaces(self, t: int, dim: int):
        """All RREF bases of F-subspaces of F^t of the given dimension, in a
        deterministic order (pivot columns, then free entries, lex)."""
        if dim == 0:
            yield ()
            return
        from itertools import combinations

        nonzero = range(self.q)
        for pivots in combinations(range(t), dim):
            free_positions = []
            for i in range(dim):
                for c in range(pivots[i] + 1, t):
                    if c not in pivots:
                        free_positions.append((i, c))
            for fill in iter_product(nonzero, repeat=len(free_positions)):
                rows = [[0] * t for _ in range(dim)]
                for i in range(dim):
                    rows[i][pivots[i]] = self.one
                for (i, c), val in zip(free_positions, fill):
                    rows[i][c] = val
                yield tuple(tuple(r) for r in rows)

    def all_subspaces(self, t: int, max_dim=None):
        top = t if max_dim is None else min(t, max_dim)
        for d in range(top + 1):
            yield from self.subspaces(t, d)

    def hyperplanes(self, t: int):
        return list(self.subspaces(t, t - 1))

    def f_complement(self, basis_rows, t: int):
        """Greedy deterministic complement spanned by standard F-vectors."""
        added = []
        rows = list(basis_rows)
        cur_rows, cur_piv = self.f_rref(rows, t) if rows else ((), ())
        for j in range(t):
            e = tuple(self.one if i == j else 0 for i in range(t))
            if not self.f_contains(cur_rows, cur_piv, e):
                added.append(e)
                rows.append(e)
                cur_rows, cur_piv = self.f_rref(rows, t)
        return tuple(added)

    # -- action of field elements on V-row-vectors

    def act(self, v: Vector, idx: int) -> Vector:
        return vec_mat(v, self.elements[idx], self.p)

    def canonical_line_rep(self, v: Vector) -> Vector:
        """Lex-least nonzero F-scalar multiple of v (canonical F-line rep)."""
        cands = [self.act(v, i) for i in range(1, self.q)]
        cands = [c for c in cands if any(c)]
        return min(cands) if cands else tuple(v)

    def f_closure(self, vectors) -> FpSubspace:
        """F_p-span of the F-orbit of the given V-vectors (an F-subspace of V)."""
        p, k = self.p, self.field.dim
        rows = []
        for v in vectors:
            for m in self.field.basis:
                rows.append(vec_mat(v, m, p))
        return FpSubspace.from_vectors(p, k, rows)


# ---------------------------------------------------------------------------
# module isomorphisms


@dataclass(frozen=True)
class ModuleMap:
    """An equivariant linear map between two submodules, in ambient terms."""

    source: FpSubspace
    target: FpSubspace
    matrix: Matrix  # dim(source) x dim(target), acting on coordinates

    def apply(self, v: Vector) -> Vector:
        coords = self.source.coords_of(v)
        if coords is None:
            raise MalformedInput("vector outside the source submodule")
        p = self.source.p
        out_coords = vec_mat(coords, self.matrix, p)
        n = self.target.ambient_dim
        out = [0] * n
        for c, row in zip(out_coords, self.target.basis):
            for j in range(n):
                out[j] = (out[j] + c * row[j]) % p
        return tuple(out)


def induced_action(sub: FpSubspace, g: Matrix) -> Matrix:
    """Matrix of g restricted to an invariant subspace, over its RREF basis."""
    rows = []
    for u in sub.basis:
        w = vec_mat(u, g, sub.p)
        coords = sub.coords_of(w)
        if coords is None:
            raise MalformedInput("subspace is not invariant under the given matrix")
        rows.append(coords)
    return tuple(rows)


def module_isomorphism(sub_a: FpSubspace, gens_a, sub_b: FpSubspace, gens_b,
                       search_cap: int = 100000):
    """Invertible equivariant map A -> B if one exists, else None.

    gens_a and gens_b are parallel lists (images of the same abstract
    generators).  Solutions are enumerated in lexicographic coefficient
    order over the canonical solution basis; the first invertible one wins.
    """
    if sub_a.p != sub_b.p:
        raise MalformedInput("modules over different primes")
    p = sub_a.p
    d = sub_a.dim
    if d != sub_b.dim:
        return None
    if d == 0:
        return ModuleMap(sub_a, sub_b, ())
    rho_a = [induced_action(sub_a, g) for g in gens_a]
    rho_b = [induced_action(sub_b, g) for g in gens_b]
    # unknown T (d x d), equations rho_a[g] * T - T * rho_b[g] = 0
    rows = []
    for ga, gb in zip(rho_a, rho_b):
        for i in range(d):
            for j in range(d):
                row = [0] * (d * d)
                for b in range(d):
                    row[b * d + j] = (row[b * d + j] + ga[i][b]) % p
                for a in range(d):
                    row[i * d + a] = (row[i * d + a] - gb[a][j]) % p
                rows.append(tuple(row))
    kernel = nullspace(rows, p, d * d) if rows else []
    if rows == []:
        kernel = [tuple(1 if i == j else 0 for i in range(d * d)) for j in range(d * d)]
    if not kernel:
        return None
    count = 0
    for coeffs in iter_product(range(p), repeat=len(kernel)):
        if not any(coeffs):
            continue
        count += 1
        if count > search_cap:
            raise ResourceCapExceeded("module_isomorphism solution search", search_cap)
        vec = [0] * (d * d)
        for c, basis_vec in zip(coeffs, kernel):
            if c:
                for i in range(d * d):
                    vec[i] = (vec[i] + c * basis_vec[i]) % p
        t_mat = tuple(tuple(vec[i * d + j] for j in range(d)) for i in range(d))
        try:
            mat_inv(t_mat, p)
        except MalformedInput:
            continue
        return ModuleMap(sub_a, sub_b, t_mat)
    return None
