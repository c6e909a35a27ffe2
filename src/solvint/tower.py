"""The supersolvable tower family: G_n = (V_1 x ... x V_n) x| <x> with
|<x>| = 2^n, where x scales each 1-dimensional V_m = F_{p_m} by a root of
unity of exact order 2^m.

Levels are generated from prime data satisfying 2^m | p_m - 1, structurally
classified into the intersection classes X_J / Y_J / Z_{J,i}, and checked
against the generic oracle: the oracle counts are authoritative, the closed
formulas are reported with an agreement flag (see tilde_counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iter_product

from . import groups as gr
from .errors import MalformedInput, ResourceCapExceeded
from .ffla import is_prime

PRIME_SEARCH_CEILING = 10**6


@dataclass(frozen=True)
class TowerPrimes:
    """Primes p_1 < ... < p_n with 2^m dividing p_m - 1; in strict mode the
    growth condition p_{m+1} > 2^m p_1...p_m holds as well."""

    n: int
    primes: tuple[int, ...]
    strict: bool

    def __post_init__(self):
        if self.n < 1 or len(self.primes) != self.n:
            raise MalformedInput("need one prime per level")
        prod = 1
        last = 1
        for m, p in enumerate(self.primes, start=1):
            if not is_prime(p):
                raise MalformedInput(f"{p} is not prime")
            if p <= last:
                raise MalformedInput("primes must be strictly ascending")
            if (p - 1) % (1 << m):
                raise MalformedInput(f"2^{m} does not divide {p} - 1")
            if self.strict and m > 1 and p <= (1 << (m - 1)) * prod:
                raise MalformedInput(f"growth condition fails at level {m}")
            prod *= p
            last = p


def find_primes(n: int, strict: bool = False,
                ceiling: int = PRIME_SEARCH_CEILING) -> TowerPrimes:
    """Smallest admissible primes by increasing search."""
    if n < 1:
        raise MalformedInput("tower level must be >= 1")
    primes: list[int] = []
    prod = 1
    for m in range(1, n + 1):
        lower = primes[-1] if primes else 1
        if strict and m > 1:
            lower = max(lower, (1 << (m - 1)) * prod)
        step = 1 << m
        p = (lower // step) * step + 1
        while p <= lower or not is_prime(p):
            p += step
            if p > ceiling:
                raise ResourceCapExceeded("prime search ceiling", ceiling)
        primes.append(p)
        prod *= p
    return TowerPrimes(n, tuple(primes), strict)


def _zeta(p: int, order: int) -> int:
    """Smallest positive integer of exact multiplicative order `order` = 2^m
    mod the prime p: for the least quadratic non-residue c, y = c^((p-1)/order)
    has y^(order/2) = -1, and the elements of that order are the odd powers of y."""
    if (p - 1) % order:
        raise MalformedInput(f"no element of order {order} mod {p}")
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    y = pow(c, (p - 1) // order, p)
    return min(pow(y, k, p) for k in range(1, order, 2))


class TowerGroup:
    """One level G_n; elements are ((a_1, ..., a_n), e) with a_m in F_{p_m}
    and e in Z/2^n, multiplied with the same right-action convention as the
    single-prime semidirect products."""

    def __init__(self, primes: TowerPrimes):
        self.primes = primes
        self.n = primes.n
        self.h_order = 1 << primes.n
        self.zetas = tuple(_zeta(p, 1 << m) for m, p in enumerate(primes.primes, start=1))
        self.w_size = 1
        for p in primes.primes:
            self.w_size *= p
        self.order = self.w_size * self.h_order
        # zeta_pows[m][e] = zetas[m]^e mod p_m
        self.zeta_pows = tuple(
            tuple(pow(z, e, p) for e in range(self.h_order))
            for z, p in zip(self.zetas, primes.primes)
        )
        self.name = f"tower-n{self.n}-" + "x".join(str(p) for p in primes.primes)
        self._cache: dict = {}

    def act_w(self, w, e: int):
        return tuple(
            (a * self.zeta_pows[m][e]) % p
            for m, (a, p) in enumerate(zip(w, self.primes.primes))
        )

    def mul(self, a, b):
        w1, e1 = a
        w2, e2 = b
        moved = self.act_w(w1, e2)
        return (
            tuple((x + y) % p for x, y, p in zip(moved, w2, self.primes.primes)),
            (e1 + e2) % self.h_order,
        )

    # -- maximal subgroups, by descriptor

    def maximal_descriptors(self):
        """("even",) is W x| <x^2>; (i, v) is W_i x| H^v with v in V_i."""
        out = [("even",)]
        for i, p in enumerate(self.primes.primes, start=1):
            for v in range(p):
                out.append((i, v))
        return out

    def maximal_contains(self, desc, element) -> bool:
        w, e = element
        if desc == ("even",):
            return e % 2 == 0
        i, v = desc
        zi = self.zeta_pows[i - 1][e]
        p = self.primes.primes[i - 1]
        return w[i - 1] == (v * (1 - zi)) % p

    # -- oracle bridge

    def w_id(self, w) -> int:
        out = 0
        for a, p in zip(w, self.primes.primes):
            out = out * p + a
        return out

    def encode(self, element) -> int:
        w, e = element
        return self.w_id(w) * self.h_order + e

    def embed_as_oracle(self, cap: int = gr.DEFAULT_ORDER_CAP) -> gr.OracleGroup:
        cached = self._cache.get("oracle")
        if cached is not None:
            return cached
        gr._check_embedding_order(self.order, cap)
        # the unit vector e_m has id place_m, and x^e maps it to zeta_m^e e_m
        places = [self.w_id(tuple(int(j == m) for j in range(self.n))) for m in range(self.n)]
        images = [[zeta_pow[e] * place for zeta_pow, place in zip(self.zeta_pows, places)]
                  for e in range(self.h_order)]
        hmul = gr._addition_table([self.h_order])
        oracle = gr.oracle_from_split_tables(self.primes.primes, images, hmul, self.name, h_gens=[1])
        self._cache["oracle"] = oracle
        return oracle

    def subgroup_mask(self, elements) -> int:
        mask = 0
        for el in elements:
            mask |= 1 << self.encode(el)
        return mask


# ---------------------------------------------------------------------------
# structural classification of maximal intersections


@dataclass(frozen=True)
class IntersectionClass:
    """A conjugacy class of intersections of maximal subgroups: the socle
    part drops the V_j with j in J and the 2-part is <x^(2^level)>."""

    kind: str  # "X" (level 0), "Y" (level 1), "Z" (level >= 2)
    j_set: frozenset[int]
    level: int
    index: int


def classify_intersections(T: TowerGroup) -> list[IntersectionClass]:
    """Every conjugacy class of proper maximal intersections, structurally.

    X_J for nonempty J; Y_J for every J including the empty set (Y_{} is
    the unique index-2 maximal subgroup itself); Z_{J,i} for i in {2..n}
    with i in J.  This is the oracle-exact enumeration; the closed count
    printed alongside it in tilde_counts may disagree and the report says
    so explicitly.
    """
    n = T.n
    out = []
    levels = list(range(1, n + 1))
    for size in range(1, n + 1):
        for j in combinations(levels, size):
            idx = 1
            for m in j:
                idx *= T.primes.primes[m - 1]
            out.append(IntersectionClass("X", frozenset(j), 0, idx))
    for size in range(0, n + 1):
        for j in combinations(levels, size):
            idx = 2
            for m in j:
                idx *= T.primes.primes[m - 1]
            out.append(IntersectionClass("Y", frozenset(j), 1, idx))
    for i in range(2, n + 1):
        for size in range(0, n):
            for rest in combinations([m for m in levels if m != i], size):
                j = frozenset(rest) | {i}
                idx = 1 << i
                for m in j:
                    idx *= T.primes.primes[m - 1]
                out.append(IntersectionClass("Z", j, i, idx))
    return out


def class_representative_elements(T: TowerGroup, cls: IntersectionClass):
    """The canonical representative subgroup: socle coordinates vanish on J
    and the cyclic part is <x^(2^level)>."""
    step = 1 << cls.level
    coords = []
    for m, p in enumerate(T.primes.primes, start=1):
        coords.append((0,) if m in cls.j_set else range(p))
    elements = []
    for w in iter_product(*coords):
        for e in range(0, T.h_order, step):
            elements.append((tuple(w), e))
    return elements


def realizing_family(T: TowerGroup, cls: IntersectionClass):
    """Maximal-subgroup descriptors whose intersection is exactly the
    canonical representative (two distinct translates at level i force the
    cyclic part down to <x^(2^i)>)."""
    fam = []
    if cls.kind == "X":
        fam = [(i, 0) for i in sorted(cls.j_set)]
    elif cls.kind == "Y":
        fam = [("even",)] + [(i, 0) for i in sorted(cls.j_set)]
    else:
        i = cls.level
        fam = [(i, 0), (i, 1)] + [(j, 0) for j in sorted(cls.j_set) if j != i]
    return fam


def verify_realizing_families(T: TowerGroup) -> bool:
    """Elementwise check that each structural class's family intersects in
    exactly its representative subgroup."""
    all_elements = [
        (w, e)
        for w in iter_product(*(range(p) for p in T.primes.primes))
        for e in range(T.h_order)
    ]
    for cls in classify_intersections(T):
        fam = realizing_family(T, cls)
        inter = {
            el for el in all_elements if all(T.maximal_contains(d, el) for d in fam)
        }
        if inter != set(class_representative_elements(T, cls)):
            return False
    return True


# ---------------------------------------------------------------------------
# counts


@dataclass(frozen=True)
class TowerCounts:
    n: int
    primes: tuple[int, ...]
    gamma_tilde_formula: int       # closed form printed alongside the oracle
    beta_tilde_bound: int
    gamma_tilde_structural: int
    gamma_tilde_oracle: int | None
    beta_tilde_oracle: int | None
    ratio_bound: Fraction
    formula_agrees_oracle: bool | None
    structural_agrees_oracle: bool | None
    beta_bound_holds: bool | None


def _oracle_class_data(T: TowerGroup, cap: int):
    oracle = T.embed_as_oracle(cap)
    classes = gr.conjugacy_classes_of_subgroups(oracle)
    mu = gr.mobius_all(oracle)
    maximal_masks = gr.maximal_subgroups(oracle)
    full = (1 << oracle.n) - 1
    data = [(rep, size, mu[rep], gr._meet_above(oracle, rep, maximal_masks) == rep)
            for rep, size in classes if rep != full]
    return oracle, data


def tilde_counts(T: TowerGroup, cap: int = gr.DEFAULT_ORDER_CAP) -> TowerCounts:
    """Conjugacy-class counts of proper maximal intersections (gamma) and
    nonzero-Moebius classes (beta); the oracle values are authoritative and
    the closed formula is compared, not assumed."""
    n = T.n
    formula = (1 << (n - 1)) * (n + 2) - 1
    beta_bound = (1 << (n + 1)) - 1
    structural = len(classify_intersections(T))
    ratio = Fraction(4, n + 2)
    try:
        oracle, data = _oracle_class_data(T, cap)
    except ResourceCapExceeded:
        return TowerCounts(n, T.primes.primes, formula, beta_bound, structural,
                           None, None, ratio, None, None, None)
    gamma_oracle = sum(1 for _rep, _s, _mu, is_mi in data if is_mi)
    beta_oracle = sum(1 for _rep, _s, mu_v, _mi in data if mu_v != 0)
    return TowerCounts(
        n, T.primes.primes, formula, beta_bound, structural,
        gamma_oracle, beta_oracle, ratio,
        formula == gamma_oracle, structural == gamma_oracle,
        beta_oracle <= beta_bound,
    )


def structural_matches_oracle(T: TowerGroup, cap: int = gr.DEFAULT_ORDER_CAP) -> bool:
    """The structural classes biject with the oracle's maximal-intersection
    classes (by conjugacy of representatives)."""
    oracle, data = _oracle_class_data(T, cap)
    oracle_reps = {rep for rep, _s, _mu, is_mi in data if is_mi}
    structural_reps = set()
    for cls in classify_intersections(T):
        mask = T.subgroup_mask(class_representative_elements(T, cls))
        structural_reps.add(min(gr._orbit(oracle, mask), key=gr._canonical_key))
    if len(structural_reps) != len(classify_intersections(T)):
        return False
    return structural_reps == oracle_reps


def verify_mu_zero(T: TowerGroup, cap: int = gr.DEFAULT_ORDER_CAP):
    """mu(Z_{J,i}, G_n) = 0 for every structurally emitted Z-class."""
    oracle = T.embed_as_oracle(cap)
    mu = gr.mobius_all(oracle)
    rows = []
    for cls in classify_intersections(T):
        if cls.kind != "Z":
            continue
        mask = T.subgroup_mask(class_representative_elements(T, cls))
        rows.append((cls, mu[mask], mu[mask] == 0))
    return rows


def maximal_index_counts(T: TowerGroup, cap: int = gr.DEFAULT_ORDER_CAP) -> dict[int, int]:
    """Oracle count of maximal subgroups by index (expect one of index 2
    and p_i of index p_i)."""
    oracle = T.embed_as_oracle(cap)
    out: dict[int, int] = {}
    for m in gr.maximal_subgroups(oracle):
        index = oracle.n // m.bit_count()
        out[index] = out.get(index, 0) + 1
    return out


def ratio_table(n_min: int, n_max: int, strict: bool = False,
                cap: int = gr.DEFAULT_ORDER_CAP):
    """Rows (n, primes, gamma formula, gamma oracle, beta bound, beta
    oracle, ratio bound, provenance)."""
    if n_min < 1 or n_max < n_min:
        raise MalformedInput("bad tower range")
    rows = []
    for n in range(n_min, n_max + 1):
        primes = find_primes(n, strict)
        counts = tilde_counts(TowerGroup(primes), cap)
        provenance = "oracle" if counts.gamma_tilde_oracle is not None else "formula"
        rows.append((n, primes.primes, counts, provenance))
    return rows
