"""Property analyzers: the gamma of a G-module on G's own masks (from the
distinct stabilisers of its vectors), eta exponents of maximal
intersections, and the finite-level verifiers tying them together.

All accept/reject decisions are made in exact integer arithmetic: an
exponent eta = log(P)/log(N) is carried as the integer pair (P, N).  A
bound eta <= num/den is decided by one power comparison (P^den <= N^num);
a floor of num/den * eta comes from the continued fraction of eta, whose
every partial quotient is decided by comparing integers (a float only
seeds it).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import groups as gr
from . import sdp
from .errors import MalformedInput, ResourceCapExceeded
from .ffla import fixing_mask, mat_identity, projective_points

PALFY_WOLF = Fraction(3243, 1000)

ETA_NODE_CAP = 10**5


# ---------------------------------------------------------------------------
# exact exponent arithmetic


def floor_log_ratio(P: int, N: int, den: int = 1000) -> int:
    """Largest a with N^a <= P^den, i.e. floor(den * log_N(P))."""
    if P < 1 or N < 2:
        raise MalformedInput("floor_log_ratio needs P >= 1, N >= 2")
    return _floor_log(P, N, den, 1)


def _floor_log(P: int, N: int, num: int, den: int) -> int:
    """Largest m with N^(m*den) <= P^num, i.e. floor(num/den * r) for
    r = log P / log N, with P >= 1 and N >= 2.

    Euclid's algorithm on logarithms, i.e. the continued fraction of r, held
    as log A / log B for exact rationals A and B (first P and N).  The
    partial quotient a is the largest exponent with B^a <= A: a float seeds
    it and integer comparisons decide it.  If A = B^a, r is the convergent
    h/k; else r lies between h/k and its mediant with the convergent before,
    and the expansion stops once the floor agrees at both.  The floor steps
    only at fractions of denominator at most q, and none lies strictly
    between Farey neighbours whose denominators sum past q.  So a is taken
    at most up to `top`, whose semiconvergent settles the floor: no power
    exceeds about P^(2q), where a direct comparison takes P^num.
    """
    if P == N:
        return num // den
    q = num // math.gcd(num, den)
    a1, a2, b1, b2 = P, 1, N, 1      # A = a1/a2 and B = b1/b2; A > B after the first step
    h0, k0, h1, k1 = 0, 1, 1, 0      # the last two convergents, h1/k1 the newer
    ln_a = _ln_ratio(a1, a2)
    while True:
        top = (q - k0) // k1 + 1 if k1 else math.inf
        ln_b = _ln_ratio(b1, b2)
        # log A / log B as a float; past 2^1000 it is past top, so clip there
        seed = math.ldexp(ln_a[0] / ln_b[0], min(ln_a[1] - ln_b[1], 1000))
        a = int(min(seed, top))
        pa, pb = b1**a, b2**a        # B^a = pa/pb
        while a and pa * a2 > a1 * pb:
            a -= 1
            pa //= b1
            pb //= b2
        while a < top and pa * b1 * a2 <= a1 * pb * b2:
            a += 1
            pa *= b1
            pb *= b2
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        floor = num * h1 // (den * k1)
        if a == top:
            return floor
        c1, c2 = a1 * pb, a2 * pa    # A/B^a, in [1, B)
        if c1 == c2 or floor == num * (h1 + h0) // (den * (k1 + k0)):
            return floor
        a1, a2, b1, b2, ln_a = b1, b2, c1, c2, ln_b


def _ln_ratio(x: int, y: int) -> tuple[float, int]:
    """frexp(ln(x/y)) for integers x >= y >= 1, never 0 for x > y: a
    difference of logs where x >= 2y, else log1p of the correctly rounded
    quotient (x-y)/y, or that quotient itself, scaled, below 2^-1000, where
    it would underflow (ln(1+u) = u to double precision there)."""
    d = x - y
    if d >= y:
        return math.frexp(math.log(x) - math.log(y))
    shift = y.bit_length() - d.bit_length()
    if shift < 1000:
        return math.frexp(math.log1p(d / y))
    m, e = math.frexp((d << shift) / y)
    return m, e - shift


def iroot(x: int, r: int) -> int:
    """Integer floor r-th root: Newton's method from a float seed above the
    root; exact corrections both ways make the result right from any seed."""
    if x < 0 or r < 1:
        raise MalformedInput("iroot needs x >= 0, r >= 1")
    if x < 2 or r == 1:
        return x
    # x^(1/r) = 2^(e-k) * 2^k with the float factor below 2^53 for any x,
    # raised by more than its rounding error (a few ulps of e) so that the
    # seed lies above the root
    e = math.log2(x) / r
    k = max(0, int(e) - 52)
    g = int(2 ** (e - k) * (1 + 1e-9 + e * 1e-15) + 1) << k
    while True:
        nxt = ((r - 1) * g + x // g ** (r - 1)) // r
        if nxt >= g:
            break
        g = nxt
    while g**r > x:
        g -= 1
    while (g + 1) ** r <= x:
        g += 1
    return g


def floor_root_pow(n: int, num: int, den: int) -> int:
    """Exact floor(n^(num/den))."""
    if den <= 0 or num < 0 or n < 0:
        raise MalformedInput("floor_root_pow arguments out of range")
    g = math.gcd(num, den)
    num //= g
    den //= g
    return iroot(n**num, den)


# ---------------------------------------------------------------------------
# gamma-module analysis


def gamma_min(G: gr.OracleGroup, p: int, d: int, cosets) -> int:
    """The least gamma >= 1 such that every F-subspace W of A = F_p^d has a
    witness W* of F-dimension at most gamma: C_G(W*) meets the maximals of
    G above C_G(W) in C_G(W) (W* = W is one).  `cosets` maps each matrix by
    which G acts on A to the mask of the elements acting by it (as from
    gr.factor_action or HModule.cosets) and F = End_G(A): this is the gamma
    of A for H = G/C_G(A), on G's masks.

    F commutes with G, so C_G(W) is the meet of the centralizers of W's
    F-lines, each that of any nonzero vector in it: the C_G(v) for v in
    projective_points(p, d), with no F built, from ffla.fixing_mask.  A
    breadth-first pass from C_G(0) = G meets each centralizer first reached
    at level k - 1 with every line centralizer; one not seen before is
    C_G(W), dim_F W = k least.  The meet of the maximals above each C_G(W)
    is read once and not memoised: no other caller reads these records.

    The order cap that built G bounds the work.  For a chief factor A = X/Y
    of G, X <= C_G(A) (A is abelian), so |A| |G:C_G(A)| <= |C_G(A):Y|
    |G:C_G(A)| <= |G|; for C_G(A) = 1, |A| |G| = |A x| G|.  `cosets` holds
    |G:C_G(A)| matrices, so under |G|/(p-1), or |A x| G|/(p-1), vectors are
    tested, and each centralizer is a subgroup of G, whose lattice
    gr.LATTICE_CAP holds.
    """
    if d == 1:
        return 1  # A's only subspaces are 0 and A, and W* = W is a witness
    line_c = {fixing_mask(cosets, (v,), p) for v in projective_points(p, d)}
    full = (1 << G.n) - 1
    mindim = {full: 0}  # each C_G(W) -> the least dim_F W with it
    level, k = [full], 0
    while level:
        k += 1
        level = {c & l for c in level for l in line_c} - mindim.keys()
        mindim.update(dict.fromkeys(level, k))
    weak = 0
    for c in mindim:
        inter = gr._above_and_meet(G, c)[1]
        weak = max(weak, min(dim for c_star, dim in mindim.items() if c_star & inter == c))
    return max(1, weak)


def is_gamma_module(G: gr.OracleGroup, p: int, d: int, cosets, gamma: int) -> bool:
    if gamma < 1:
        raise MalformedInput("gamma must be a positive integer")
    return gamma_min(G, p, d, cosets) <= gamma


# ---------------------------------------------------------------------------
# eta exponents


class EtaRecord(namedtuple("EtaRecord", "subgroup_mask index product family")):
    """Certified optimum for one maximal-intersection class: the least
    product P of indices over realizing families (a tuple of masks), against
    the index N.  The field `index` shadows `tuple.index`."""

    __slots__ = ()

    def eta_leq(self, num: int, den: int = 1) -> bool:
        """eta <= num/den, exactly."""
        return self.product**den <= self.index**num

    def floor_eta_times(self, c_num: int, c_den: int) -> int:
        """floor(eta * c_num/c_den), exactly (eta = log P / log N)."""
        return _floor_log(self.product, self.index, c_num, c_den)

    @property
    def eta_floor4(self) -> int:
        """floor(eta * 10^4): display-precision integer, exact."""
        return self.floor_eta_times(10**4, 1)


def eta_of_intersection(G: gr.OracleGroup, h: int) -> EtaRecord:
    """Exact minimum of prod |G:M_i| over families of maximal subgroups
    intersecting in the mask h, by branch and bound over the maximals
    above h (at most ETA_NODE_CAP search nodes)."""
    full = (1 << G.n) - 1
    if h == full:
        raise MalformedInput("eta is defined for proper maximal intersections only")
    above, meet = gr._maximals_above(G, h)
    if meet != h:
        raise MalformedInput("subgroup is not an intersection of maximal subgroups")
    above = sorted(above, key=lambda m: (G.n // m.bit_count(), m))
    idx = [G.n // m.bit_count() for m in above]
    suffix = [full] * (len(above) + 1)
    for i in range(len(above) - 1, -1, -1):
        suffix[i] = suffix[i + 1] & above[i]
    best_prod = None
    best_family: tuple[int, ...] = ()
    h_order = h.bit_count()
    nodes = 0
    node_cap = ETA_NODE_CAP

    def dfs(i: int, mask: int, prod: int, chosen: tuple[int, ...]):
        nonlocal best_prod, best_family, nodes
        nodes += 1
        if nodes > node_cap:
            raise ResourceCapExceeded("eta search nodes", node_cap)
        if mask == h:
            if best_prod is None or prod < best_prod:
                best_prod = prod
                best_family = chosen
            return
        if i == len(above):
            return
        # lower bounds on the final product: one more index, at least
        # idx[i]; and |K:H| for K = mask, since |K:K cap M| <= |G:M|
        if best_prod is not None and (prod * idx[i] >= best_prod
                                      or prod * (mask.bit_count() // h_order) >= best_prod):
            return
        if mask & suffix[i] != h:
            return
        if mask & above[i] != mask:
            dfs(i + 1, mask & above[i], prod * idx[i], chosen + (above[i],))
        dfs(i + 1, mask, prod, chosen)

    dfs(0, full, 1, ())
    if best_prod is None:
        raise AssertionError("branch and bound found no realizing family")
    index = G.n // h_order
    if best_prod < index:
        raise AssertionError("index product below the index (eta < 1 is impossible)")
    return EtaRecord(h, index, best_prod, best_family)


def maximal_intersection_classes(G: gr.OracleGroup) -> list[int]:
    """Conjugacy class representatives of proper maximal intersections."""
    full = (1 << G.n) - 1
    return [rep for rep, _size in gr.conjugacy_classes_of_subgroups(G)
            if rep != full and gr.is_maximal_intersection(rep, G)]


class EtaReport(namedtuple("EtaReport", "records")):
    """The EtaRecord of every maximal-intersection class, as a tuple."""

    __slots__ = ()

    def max_floor_times(self, c_num: int, c_den: int) -> int:
        """floor(eta_min(G) * c_num/c_den) = max over classes (floor is
        monotone, so the max of per-class floors is exact)."""
        if not self.records:
            return 0
        return max(r.floor_eta_times(c_num, c_den) for r in self.records)

    def holds_for(self, eta: Fraction) -> bool:
        return all(r.eta_leq(eta.numerator, eta.denominator) for r in self.records)


def eta_report(G: gr.OracleGroup) -> EtaReport:
    records = tuple(eta_of_intersection(G, h) for h in maximal_intersection_classes(G))
    return EtaReport(records)


def has_eta_property(G: gr.OracleGroup, eta: Fraction) -> bool:
    """True iff every proper maximal intersection admits a family with
    index product at most |G:H|^eta."""
    return eta_report(G).holds_for(eta)


# ---------------------------------------------------------------------------
# verifier: witness dimensions bound intersection exponents


def verify_gamma_to_eta(G: gr.OracleGroup) -> list[bool]:
    """For every maximal-intersection class H, in order: whether, with
    gamma_H the largest witness dimension of the socle factor classes seen
    above H, H admits a family with product at most index^(gamma_H + 1).
    A False would be an implementation bug, not a counterexample.  A G that
    is not solvable is refused by its lattice query (MalformedInput)."""
    class_of_maximal = {m: cls for cls in sdp.chief_factor_classes(G) for m in cls.maximals}
    rows = []
    for h in maximal_intersection_classes(G):
        rec = eta_of_intersection(G, h)
        above = [class_of_maximal[m] for m in gr._maximals_above(G, h)[0]]
        gamma_h = max(G._memo("class_gamma_min", cls.label, gamma_min, G, cls.prime, cls.dim,
                              cls.cosets) for cls in above)
        rows.append(rec.eta_leq(gamma_h + 1))
    return rows


# ---------------------------------------------------------------------------
# verifier: intersection exponents bound witness dimensions


# eta_floor_c is floor(eta_min * 3.243), exact; palfy_wolf_ok is |Gamma| <=
# |V|^3.243, exact; constant_sensitive: the verdict would flip for c in [3.24, 3.25]
EtaGammaReport = namedtuple(
    "EtaGammaReport", "gamma_v eta_floor_c gamma_ok palfy_wolf_ok constant_sensitive")


def verify_eta_to_gamma(G: gr.OracleGroup) -> EtaGammaReport:
    """For a primitive solvable Gamma = V x| H: the module witness dimension
    is bounded by floor(eta_min * c) with c = 3.243 (Palfy-Wolf).  V is the
    first normal subgroup above 1 in lattice order, so a minimal normal one,
    and gamma is read on G's masks from gr.factor_action's table, as in
    `verify_gamma_to_eta`.  MalformedInput unless C_G(V) = V, which for a
    solvable G holds exactly when G is primitive (V is then the Fitting
    subgroup and the only minimal normal one, so the Frattini subgroup is 1)."""
    v = next((s for s, size in gr.conjugacy_classes_of_subgroups(G) if size == 1 and s != 1), 1)
    p, d, _mats, cosets = gr.factor_action(G, v, 1)  # MalformedInput for G = 1
    if cosets[mat_identity(d)] != v:
        raise MalformedInput("primitive verifier expects C_G(V) = V (Gamma = V x| H primitive)")
    report = eta_report(G)
    gamma_v = gamma_min(G, p, d, cosets)
    c = PALFY_WOLF
    bound = report.max_floor_times(c.numerator, c.denominator)
    bound_lo = report.max_floor_times(324, 100)
    bound_hi = report.max_floor_times(325, 100)
    pw_ok = G.n ** c.denominator <= v.bit_count() ** c.numerator
    return EtaGammaReport(
        gamma_v=gamma_v,
        eta_floor_c=bound,
        gamma_ok=gamma_v <= bound,
        palfy_wolf_ok=pw_ok,
        constant_sensitive=(gamma_v <= bound_lo) != (gamma_v <= bound_hi),
    )


# ---------------------------------------------------------------------------
# the counting bound


def subgroup_count_bound(n: int, eta: Fraction, alpha: Fraction) -> int:
    """Integer evaluation of (n^eta (n^eta + 1) / 2) * n^(eta*alpha), with
    each irrational factor replaced by its exact floor (a sound lower
    approximation; exact when eta and alpha are integers)."""
    if n < 1:
        raise MalformedInput("index must be >= 1")
    if n == 1:
        return 1
    x = floor_root_pow(n, eta.numerator, eta.denominator)
    tail = eta * alpha
    num, den = tail.numerator, tail.denominator
    if den > 10:  # keep root degrees small; flooring the exponent is sound
        num, den = (num * 10) // den, 10
    y = floor_root_pow(n, num, den)
    return (x * (x + 1) // 2) * y


CountBoundReport = namedtuple("CountBoundReport", "eta alpha ok")  # eta, alpha Fractions


def check_subgroup_count_bound(G: gr.OracleGroup) -> CountBoundReport:
    """c_n <= (n^eta (n^eta+1)/2) n^(eta alpha) for all n dividing |G|.

    alpha is the exact milli-floor of max_k log_k m_k and eta the exact
    milli-floor of eta_min(G); the bound is evaluated at these lower
    approximations, so a pass certifies the inequality at the true
    (eta_min, alpha_min)."""
    table = dict(gr.counts(G))
    best = 0
    for k, (m_k, _b, _c) in table.items():
        if m_k >= 1:
            best = max(best, floor_log_ratio(m_k, k, 1000))
    alpha = Fraction(best, 1000)
    eta = Fraction(max(eta_report(G).max_floor_times(1000, 1), 1000), 1000)
    ok = all(c_n <= subgroup_count_bound(n, eta, alpha) for n, (_m, _b, c_n) in table.items())
    return CountBoundReport(eta, alpha, ok)
