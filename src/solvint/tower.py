"""The supersolvable tower family: G_n = (V_1 x ... x V_n) x| <x> with
|<x>| = 2^n, where x scales each 1-dimensional V_m = F_{p_m} by a root of
unity of exact order 2^m.

Levels are generated from prime data satisfying 2^m | p_m - 1, structurally
classified into the intersection classes X_J / Y_J / Z_{J,i}, and checked
against the generic oracle: the oracle counts are authoritative, the closed
formulas are reported with an agreement flag (see tilde_counts).

Subgroups are int masks over the oracle's element ids.  The element
((a_1, ..., a_n), e) has id (a_1 place_1 + ... + a_n place_n) 2^n + e, where
place_m is the product of the primes after p_m: the ids run over
itertools.product(range(p_1), ..., range(p_n), range(2^n)) in order.  So a
product set has its mask built digit by digit from the last up:
mask(D_m x ... x D_n x E) = sum over a in D_m of
mask(D_(m+1) x ... x D_n x E) << (a place_m 2^n).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import and_

from . import groups as gr
from .errors import MalformedInput, ResourceCapExceeded
from .ffla import is_prime

PRIME_SEARCH_CEILING = 10**6


class TowerPrimes(namedtuple("TowerPrimes", "primes strict")):
    """Primes p_1 < ... < p_n (a tuple) with 2^m dividing p_m - 1; in strict
    mode the growth condition p_{m+1} > 2^m p_1...p_m holds as well."""

    __slots__ = ()

    def __new__(cls, primes: tuple[int, ...], strict: bool):
        self = super().__new__(cls, primes, strict)
        if not self.primes:
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
        return self


def find_primes(n: int, strict: bool = False) -> TowerPrimes:
    """Smallest admissible primes by increasing search, up to
    PRIME_SEARCH_CEILING."""
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
            if p > PRIME_SEARCH_CEILING:
                raise ResourceCapExceeded("prime search ceiling", PRIME_SEARCH_CEILING)
        primes.append(p)
        prod *= p
    return TowerPrimes(tuple(primes), strict)


def _zeta(p: int, order: int) -> int:
    """Smallest positive integer of exact multiplicative order `order` = 2^m
    mod the prime p: for the least quadratic non-residue c, y = c^((p-1)/order)
    has y^(order/2) = -1, and the elements of that order are the odd powers of y."""
    if (p - 1) % order:
        raise MalformedInput(f"no element of order {order} mod {p}")
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    y = pow(c, (p - 1) // order, p)
    return min(pow(y, k, p) for k in range(1, order, 2))


class TowerGroup(gr._Memoised):
    """One level G_n; elements are ((a_1, ..., a_n), e) with a_m in F_{p_m}
    and e in Z/2^n, multiplied with the same right-action convention as the
    single-prime semidirect products, and named by their oracle ids.  A
    level of order above `cap` is refused before anything is computed."""

    def __init__(self, primes: TowerPrimes, cap: int = gr.DEFAULT_ORDER_CAP,
                 name: str | None = None):
        self.n = len(primes.primes)
        self.order = math.prod(primes.primes) << self.n
        gr._check_embedding_order(self.order, cap)
        self.primes = primes
        self.h_order = 1 << self.n
        self.zetas = tuple(_zeta(p, 1 << m) for m, p in enumerate(primes.primes, start=1))
        # zeta_pows[m][e] = zetas[m]^e mod p_m
        self.zeta_pows = tuple(
            tuple(pow(z, e, p) for e in range(self.h_order))
            for z, p in zip(self.zetas, primes.primes)
        )
        self.name = name or f"tower-n{self.n}-" + "x".join(str(p) for p in primes.primes)
        self._cache: dict = {}

    # -- maximal subgroups, by descriptor

    def maximal_descriptors(self):
        """("even",) is W x| <x^2>; (i, v) is W_i x| H^v with v in V_i."""
        out = [("even",)]
        for i, p in enumerate(self.primes.primes, start=1):
            for v in range(p):
                out.append((i, v))
        return out

    def maximal_mask(self, desc) -> int:
        """The mask of a descriptor's maximal subgroup: W x| <x^2> holds the
        even e; W_i x| H^v holds the (w, e) with a_i = v (1 - zeta_i^e), one
        product set per e."""
        digits = [range(p) for p in self.primes.primes]
        if desc == ("even",):
            return self.subgroup_mask(digits, range(0, self.h_order, 2))
        i, v = desc
        p = self.primes.primes[i - 1]
        mask = 0
        for e, z in enumerate(self.zeta_pows[i - 1]):
            digits[i - 1] = (v * (1 - z) % p,)
            mask |= self.subgroup_mask(digits, (e,))
        return mask

    # -- oracle bridge

    def embed_as_oracle(self) -> gr.OracleGroup:
        return self._memo("oracle", None, _tower_oracle, self)

    def subgroup_mask(self, digit_sets, exponents) -> int:
        """The mask of the product set {((a_1, ..., a_n), e) : a_m in
        digit_sets[m - 1], e in exponents}.  Ids run through the digits
        a_1, ..., a_n, e with e fastest, so a block of the ids after a_m
        spans `width` = 2^n p_(m+1) ... p_n ids and the digit a_m shifts
        the mask of the later digits by a_m * width."""
        mask = sum(1 << e for e in exponents)
        width = self.h_order
        for digits, p in zip(reversed(digit_sets), reversed(self.primes.primes)):
            mask = sum(mask << (a * width) for a in digits)
            width *= p
        return mask


def _tower_oracle(T: TowerGroup) -> gr.OracleGroup:
    # the unit vector e_m has id place_m, the product of the later primes,
    # and x maps it to zeta_m e_m
    places = [math.prod(T.primes.primes[m + 1:]) for m in range(T.n)]
    images = [[zeta * place for zeta, place in zip(T.zetas, places)]]
    return gr.oracle_from_split_tables(T.primes.primes, images, gr.cyclic(T.h_order), T.name)


# ---------------------------------------------------------------------------
# structural classification of maximal intersections


IntersectionClass = namedtuple("IntersectionClass", "kind j_set level")
IntersectionClass.__doc__ = """A conjugacy class of intersections of maximal subgroups: the socle
part drops the V_j with j in the frozenset j_set and the 2-part is
<x^(2^level)>; kind is "X" (level 0), "Y" (level 1) or "Z" (level >= 2)."""


def classify_intersections(T: TowerGroup) -> tuple[IntersectionClass, ...]:
    """Every conjugacy class of proper maximal intersections, structurally,
    memoised on T.

    X_J for nonempty J; Y_J for every J including the empty set (Y_{} is
    the unique index-2 maximal subgroup itself); Z_{J,i} for i in {2..n}
    with i in J.  This is the oracle-exact enumeration; the closed count
    printed alongside it in tilde_counts may disagree and the report says
    so explicitly.
    """
    return T._memo("classes", None, _classify_intersections, T)


def _classify_intersections(T: TowerGroup) -> tuple[IntersectionClass, ...]:
    n = T.n
    out = []
    for level in range(n + 1):
        for size in range(n + 1):
            for j in combinations(range(1, n + 1), size):
                if (level == 0 and j) or level == 1 or level in j:
                    out.append(IntersectionClass("XYZ"[min(level, 2)], frozenset(j), level))
    return tuple(out)


def class_representative_elements(T: TowerGroup, cls: IntersectionClass) -> int:
    """The mask of the canonical representative subgroup, memoised on T:
    socle coordinates vanish on J and the cyclic part is <x^(2^level)>."""
    return T._memo("class_rep", cls, _class_representative_elements, T, cls)


def _class_representative_elements(T: TowerGroup, cls: IntersectionClass) -> int:
    digits = [(0,) if m in cls.j_set else range(p)
              for m, p in enumerate(T.primes.primes, start=1)]
    return T.subgroup_mask(digits, range(0, T.h_order, 1 << cls.level))


def realizing_family(T: TowerGroup, cls: IntersectionClass):
    """Maximal-subgroup descriptors whose intersection is exactly the
    canonical representative (two distinct translates at level i force the
    cyclic part down to <x^(2^i)>)."""
    if cls.kind == "X":
        return [(i, 0) for i in sorted(cls.j_set)]
    if cls.kind == "Y":
        return [("even",)] + [(i, 0) for i in sorted(cls.j_set)]
    i = cls.level
    return [(i, 0), (i, 1)] + [(j, 0) for j in sorted(cls.j_set) if j != i]


def verify_realizing_families(T: TowerGroup) -> bool:
    """Each structural class's family intersects in exactly its
    representative subgroup: the AND of the family's maximal masks, each
    built from its membership rule, against the representative mask."""
    classes = classify_intersections(T)
    families = [realizing_family(T, cls) for cls in classes]
    masks = {desc: T.maximal_mask(desc) for desc in {d for fam in families for d in fam}}
    full = (1 << T.order) - 1
    return all(reduce(and_, (masks[desc] for desc in fam), full)
               == class_representative_elements(T, cls)
               for cls, fam in zip(classes, families))


# ---------------------------------------------------------------------------
# counts


# gamma_tilde_formula is the closed form printed alongside the oracle, and
# ratio_bound a Fraction; the structural and oracle columns, the agreement
# and the bound check are None on a level the caps refuse
TowerCounts = namedtuple(
    "TowerCounts", "gamma_tilde_formula beta_tilde_bound gamma_tilde_structural "
    "gamma_tilde_oracle beta_tilde_oracle ratio_bound formula_agrees_oracle beta_bound_holds")


def _capped_counts(n: int) -> TowerCounts:
    """The closed forms of level n, with every oracle column None."""
    return TowerCounts((1 << (n - 1)) * (n + 2) - 1, (1 << (n + 1)) - 1, None, None, None,
                       Fraction(4, n + 2), None, None)


def tilde_counts(T: TowerGroup) -> TowerCounts:
    """Conjugacy-class counts of proper maximal intersections (gamma) and
    nonzero-Moebius classes (beta); the oracle values are authoritative and
    the closed formula is compared, not assumed.  The structural count is
    taken once the oracle data exists."""
    counts = _capped_counts(T.n)
    oracle = T.embed_as_oracle()
    mu = gr.mobius_all(oracle)
    reps = [rep for rep, _size in gr.conjugacy_classes_of_subgroups(oracle)[:-1]]  # G's is last
    structural = len(classify_intersections(T))
    gamma_oracle = sum(gr.is_maximal_intersection(rep, oracle) for rep in reps)
    beta_oracle = sum(mu[rep] != 0 for rep in reps)
    return counts._replace(
        gamma_tilde_structural=structural, gamma_tilde_oracle=gamma_oracle,
        beta_tilde_oracle=beta_oracle,
        formula_agrees_oracle=counts.gamma_tilde_formula == gamma_oracle,
        beta_bound_holds=beta_oracle <= counts.beta_tilde_bound,
    )


def structural_matches_oracle(T: TowerGroup) -> bool:
    """The structural classes biject with the oracle's maximal-intersection
    classes (by conjugacy of representatives, each read as its least
    conjugate off the lattice pass; a representative that is not an
    oracle subgroup reads None and fails the check)."""
    oracle = T.embed_as_oracle()
    oracle_reps = {rep for rep, _size in gr.conjugacy_classes_of_subgroups(oracle)[:-1]
                   if gr.is_maximal_intersection(rep, oracle)}
    least = gr._lattice(oracle).least_conjugate
    classes = classify_intersections(T)
    structural_reps = {least.get(class_representative_elements(T, cls)) for cls in classes}
    return len(structural_reps) == len(classes) and structural_reps == oracle_reps


def verify_mu_zero(T: TowerGroup):
    """mu(Z_{J,i}, G_n) = 0 for every structurally emitted Z-class."""
    oracle = T.embed_as_oracle()
    mu = gr.mobius_all(oracle)
    rows = []
    for cls in classify_intersections(T):
        if cls.kind != "Z":
            continue
        mask = class_representative_elements(T, cls)
        rows.append((cls, mu[mask], mu[mask] == 0))
    return rows


def maximal_index_counts(T: TowerGroup) -> dict[int, int]:
    """Oracle count of maximal subgroups by index (expect one of index 2
    and p_i of index p_i)."""
    oracle = T.embed_as_oracle()
    out: dict[int, int] = {}
    for m in gr.maximal_subgroups(oracle):
        index = oracle.n // m.bit_count()
        out[index] = out.get(index, 0) + 1
    return out


def ratio_table(n_min: int, n_max: int, strict: bool = False,
                cap: int = gr.DEFAULT_ORDER_CAP):
    """Rows (n, primes, gamma formula, gamma oracle, beta bound, beta
    oracle, ratio bound, provenance); a level over the order cap or the
    lattice cap gets only the closed forms."""
    if n_min < 1 or n_max < n_min:
        raise MalformedInput("bad tower range")
    rows = []
    for n in range(n_min, n_max + 1):
        primes = find_primes(n, strict)
        try:
            counts = tilde_counts(TowerGroup(primes, cap))
        except ResourceCapExceeded:
            counts = _capped_counts(n)
        provenance = "oracle" if counts.gamma_tilde_oracle is not None else "formula"
        rows.append((n, primes.primes, counts, provenance))
    return rows
