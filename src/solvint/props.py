"""Property analyzers: gamma-module witnesses, eta exponents of maximal
intersections, and the finite-level verifiers tying them together.

All accept/reject decisions are made in exact integer arithmetic: an
exponent eta = log(P)/log(N) is carried as the integer pair (P, N) and
compared through powers (P^den <= N^num), never through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import groups as gr
from . import sdp
from .errors import MalformedInput, ResourceCapExceeded
from .ffla import FpSubspace

PALFY_WOLF = Fraction(3243, 1000)

GAMMA_DIM_CAP = 6
GAMMA_FIELD_CAP = 9
ETA_NODE_CAP = 10**5


# ---------------------------------------------------------------------------
# exact exponent arithmetic


def floor_log_ratio(P: int, N: int, den: int = 1000) -> int:
    """Largest a with N^a <= P^den, i.e. floor(den * log_N(P))."""
    if P < 1 or N < 2:
        raise MalformedInput("floor_log_ratio needs P >= 1, N >= 2")
    return _floor_log(P, N, den, 1)


def _floor_log(P: int, N: int, num: int, den: int) -> int:
    """Largest m with N^(m*den) <= P^num, i.e. floor(num/den * log_N(P)),
    for P >= 1 and N >= 2; the float estimate only seeds the exact search."""
    if P == N:
        return num // den
    big = P**num
    m = max(0, int(num / den * math.log(P) / math.log(N)) - 2)
    while N ** ((m + 1) * den) <= big:
        m += 1
    while m > 0 and N ** (m * den) > big:
        m -= 1
    return m


def iroot(x: int, r: int) -> int:
    """Integer floor r-th root."""
    if x < 0 or r < 1:
        raise MalformedInput("iroot needs x >= 0, r >= 1")
    if x < 2 or r == 1:
        return x
    g = 1 << ((x.bit_length() + r - 1) // r + 1)
    while True:
        nxt = ((r - 1) * g + x // g ** (r - 1)) // r
        if nxt >= g:
            break
        g = nxt
    while g**r > x:
        g -= 1
    return g


def floor_root_pow(n: int, num: int, den: int) -> int:
    """Exact floor(n^(num/den))."""
    if den <= 0 or num < 0 or n < 0:
        raise MalformedInput("floor_root_pow arguments out of range")
    from math import gcd

    g = gcd(num, den)
    num //= g
    den //= g
    return iroot(n**num, den)


# ---------------------------------------------------------------------------
# gamma-module analysis


@dataclass(frozen=True)
class GammaWitness:
    w_subspace: FpSubspace
    weak_dim: int
    weak_witness: FpSubspace
    strong_dim: int
    strong_witness: FpSubspace


@dataclass(frozen=True)
class GammaReport:
    """Per-module witness dimensions: for every F-subspace W the least
    dim_F W* satisfying the centralizer condition (weak uses the maximal
    subgroups above C_H(W), strong demands C_H(W) = C_H(W*) outright)."""

    module_label: str
    f_dim: int
    gamma_min: int
    strong_gamma_min: int
    witnesses: tuple[GammaWitness, ...]


def gamma_min(module: sdp.HModule, dim_cap: int = GAMMA_DIM_CAP,
              field_cap: int = GAMMA_FIELD_CAP) -> GammaReport:
    """Exhaustive gamma witness search over all F-subspaces of V.

    Subspaces are enumerated by F-dimension then lexicographic canonical
    basis, so reported witnesses are deterministic.
    """
    f = module.f_dim
    if f >= 2 and (f > dim_cap or module.fops.q > field_cap):
        raise ResourceCapExceeded(
            f"F-subspace enumeration with dim_F V={f}, |F|={module.fops.q}", dim_cap
        )
    H = module.to_oracle()
    maximal_masks = [m.mask for m in gr.maximal_subgroups(H)]

    def cen_mask(space: FpSubspace) -> int:
        mask = 0
        for i in module.centralizer_of(space.basis):
            mask |= 1 << i
        return mask

    by_dim: list[list[tuple[FpSubspace, int]]] = []
    for d in range(f + 1):
        level = []
        for rows in module.fops.subspaces(f, d):
            space = module.v_subspace_from_fcoords(rows)
            level.append((space, cen_mask(space)))
        by_dim.append(level)

    witnesses = []
    weak_max = 0
    strong_max = 0
    for d in range(f + 1):
        for w_space, c_w in by_dim[d]:
            inter = gr._meet_above(H, c_w, maximal_masks)
            weak = strong = None
            for d_star in range(f + 1):
                for w_star, c_star in by_dim[d_star]:
                    if weak is None and c_star & inter == c_w:
                        weak = (d_star, w_star)
                    if strong is None and c_star == c_w:
                        strong = (d_star, w_star)
                    if weak and strong:
                        break
                if weak and strong:
                    break
            if weak is None or strong is None:
                raise AssertionError("witness search failed (W* = W always works)")
            witnesses.append(GammaWitness(w_space, weak[0], weak[1], strong[0], strong[1]))
            weak_max = max(weak_max, weak[0])
            strong_max = max(strong_max, strong[0])
    return GammaReport(
        module_label=module.name,
        f_dim=f,
        gamma_min=max(1, weak_max),
        strong_gamma_min=max(1, strong_max),
        witnesses=tuple(witnesses),
    )


def is_gamma_module(module: sdp.HModule, gamma: int) -> bool:
    if gamma < 1:
        raise MalformedInput("gamma must be a positive integer")
    return gamma_min(module).gamma_min <= gamma


# ---------------------------------------------------------------------------
# eta exponents


@dataclass(frozen=True)
class EtaRecord:
    """Certified optimum for one maximal-intersection class: the least
    product P of indices over realizing families, against the index N."""

    subgroup_mask: int
    index: int
    product: int
    family: tuple[int, ...]

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


def eta_of_intersection(G: gr.OracleGroup, H: gr.Subgroup) -> EtaRecord:
    """Exact minimum of prod |G:M_i| over families of maximal subgroups
    intersecting in H, by branch and bound over the maximals above H
    (at most ETA_NODE_CAP search nodes)."""
    full = (1 << G.n) - 1
    if H.mask == full:
        raise MalformedInput("eta is defined for proper maximal intersections only")
    above = [m.mask for m in gr.maximal_subgroups(G) if m.mask & H.mask == H.mask]
    if gr._meet_above(G, H.mask, above) != H.mask:
        raise MalformedInput("subgroup is not an intersection of maximal subgroups")
    above.sort(key=lambda m: (G.n // m.bit_count(), m))
    idx = [G.n // m.bit_count() for m in above]
    suffix = [full] * (len(above) + 1)
    for i in range(len(above) - 1, -1, -1):
        suffix[i] = suffix[i + 1] & above[i]
    best_prod = None
    best_family: tuple[int, ...] = ()
    h_order = H.order
    nodes = 0
    node_cap = ETA_NODE_CAP

    def dfs(i: int, mask: int, prod: int, chosen: tuple[int, ...]):
        nonlocal best_prod, best_family, nodes
        nodes += 1
        if nodes > node_cap:
            raise ResourceCapExceeded("eta search nodes", node_cap)
        if mask == H.mask:
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
        if mask & suffix[i] != H.mask:
            return
        if mask & above[i] != mask:
            dfs(i + 1, mask & above[i], prod * idx[i], chosen + (above[i],))
        dfs(i + 1, mask, prod, chosen)

    dfs(0, full, 1, ())
    if best_prod is None:
        raise AssertionError("branch and bound found no realizing family")
    index = G.n // H.order
    if best_prod < index:
        raise AssertionError("index product below the index (eta < 1 is impossible)")
    return EtaRecord(H.mask, index, best_prod, best_family)


def maximal_intersection_classes(G: gr.OracleGroup) -> list[gr.Subgroup]:
    """Conjugacy class representatives of proper maximal intersections."""
    full = (1 << G.n) - 1
    maximal_masks = [m.mask for m in gr.maximal_subgroups(G)]
    return [rep for rep, _size in gr.conjugacy_classes_of_subgroups(G)
            if rep.mask != full and gr._meet_above(G, rep.mask, maximal_masks) == rep.mask]


@dataclass(frozen=True)
class EtaReport:
    group_name: str
    records: tuple[EtaRecord, ...]

    def max_floor_times(self, c_num: int, c_den: int) -> int:
        """floor(eta_min(G) * c_num/c_den) = max over classes (floor is
        monotone, so the max of per-class floors is exact)."""
        if not self.records:
            return 0
        return max(r.floor_eta_times(c_num, c_den) for r in self.records)

    @property
    def eta_min_floor4(self) -> int:
        return self.max_floor_times(10**4, 1)

    def holds_for(self, eta: Fraction) -> bool:
        return all(r.eta_leq(eta.numerator, eta.denominator) for r in self.records)


def eta_report(G: gr.OracleGroup) -> EtaReport:
    records = tuple(eta_of_intersection(G, H) for H in maximal_intersection_classes(G))
    return EtaReport(G.name, records)


def has_eta_property(G: gr.OracleGroup, eta: Fraction) -> bool:
    """True iff every proper maximal intersection admits a family with
    index product at most |G:H|^eta."""
    return eta_report(G).holds_for(eta)


# ---------------------------------------------------------------------------
# verifier: witness dimensions bound intersection exponents


@dataclass(frozen=True)
class GammaEtaRow:
    subgroup_mask: int
    index: int
    product: int
    gamma_h: int
    ok: bool


def verify_gamma_to_eta(G: gr.OracleGroup) -> list[GammaEtaRow]:
    """For every maximal-intersection class H: if every socle factor class
    seen above H has witness dimension at most gamma_H, then H admits a
    family with product at most index^(gamma_H + 1).  Violations would be
    implementation bugs, not counterexamples; they are reported as rows
    with ok=False."""
    if not gr.is_solvable(G):
        raise gr.UnsupportedGroup("verifier requires a solvable group")
    classes = sdp.chief_factor_classes(G)
    class_of_maximal = {}
    for cls in classes:
        for m in cls.maximals:
            class_of_maximal[m.mask] = cls
    rows = []
    for H in maximal_intersection_classes(G):
        rec = eta_of_intersection(G, H)
        touched = []
        for m in gr.maximal_subgroups(G):
            if m.mask & H.mask == H.mask:
                cls = class_of_maximal[m.mask]
                if cls not in touched:
                    touched.append(cls)
        gamma_h = max(_class_gamma_min(G, cls) for cls in touched)
        rows.append(
            GammaEtaRow(H.mask, rec.index, rec.product, gamma_h,
                        rec.eta_leq(gamma_h + 1))
        )
    return rows


def _class_gamma_min(G: gr.OracleGroup, cls: sdp.ChiefFactorClass) -> int:
    memo = G._cache.setdefault("class_gamma_min", {})
    if cls.label not in memo:
        module = sdp.HModule.create(cls.prime, cls.dim, cls.action_matrices,
                                    name=f"action-{cls.label}")
        memo[cls.label] = gamma_min(module).gamma_min
    return memo[cls.label]


# ---------------------------------------------------------------------------
# verifier: intersection exponents bound witness dimensions


@dataclass(frozen=True)
class EtaGammaReport:
    group_name: str
    gamma_v: int
    eta_floor_c: int           # floor(eta_min * 3.243), exact
    gamma_ok: bool
    palfy_wolf_ok: bool        # |Gamma| <= |V|^3.243, exact
    constant_sensitive: bool   # verdict would flip for c in [3.24, 3.25]
    eta_min_floor4: int


def verify_eta_to_gamma(sd_group: sdp.SdGroup,
                        cap: int = gr.DEFAULT_ORDER_CAP) -> EtaGammaReport:
    """For a primitive solvable Gamma = V x| H: the module witness dimension
    is bounded by floor(eta_min * c) with c = 3.243 (Palfy-Wolf).  Gamma
    is embedded as an oracle only up to order `cap`."""
    if sd_group.t != 1:
        raise MalformedInput("primitive verifier expects t = 1 (Gamma = V x| H)")
    oracle, _ = sdp.embed_as_oracle(sd_group, cap)
    report = eta_report(oracle)
    gamma_v = gamma_min(sd_group.module).gamma_min
    c = PALFY_WOLF
    bound = report.max_floor_times(c.numerator, c.denominator)
    bound_lo = report.max_floor_times(324, 100)
    bound_hi = report.max_floor_times(325, 100)
    v_size = sd_group.p**sd_group.k
    pw_ok = sd_group.order ** c.denominator <= v_size**c.numerator
    return EtaGammaReport(
        group_name=sd_group.name,
        gamma_v=gamma_v,
        eta_floor_c=bound,
        gamma_ok=gamma_v <= bound,
        palfy_wolf_ok=pw_ok,
        constant_sensitive=(gamma_v <= bound_lo) != (gamma_v <= bound_hi),
        eta_min_floor4=report.eta_min_floor4,
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


@dataclass(frozen=True)
class CountBoundReport:
    group_name: str
    eta: Fraction
    alpha: Fraction
    rows: tuple[tuple[int, int, int], ...]  # (n, c_n, bound)
    ok: bool


def check_subgroup_count_bound(G: gr.OracleGroup, eta: Fraction | None = None,
                               alpha: Fraction | None = None) -> CountBoundReport:
    """c_n <= (n^eta (n^eta+1)/2) n^(eta alpha) for all n dividing |G|.

    When not supplied, alpha is the exact milli-floor of max_k log_k m_k
    and eta the exact milli-floor of eta_min(G); the bound is evaluated at
    these lower approximations, so a pass certifies the inequality at the
    true (eta_min, alpha_min)."""
    table = gr.counts(G).as_dict()
    if alpha is None:
        best = 0
        for k, (m_k, _b, _c) in table.items():
            if m_k >= 1:
                best = max(best, floor_log_ratio(m_k, k, 1000))
        alpha = Fraction(best, 1000)
    else:
        for k, (m_k, _b, _c) in table.items():
            if m_k > 0 and m_k**alpha.denominator > k ** (alpha.numerator):
                raise MalformedInput(f"alpha too small: m_{k} = {m_k} exceeds {k}^alpha")
    if eta is None:
        report = eta_report(G)
        best = 0
        for r in report.records:
            if r.product > 1:
                best = max(best, floor_log_ratio(r.product, r.index, 1000))
        eta = Fraction(max(best, 1000), 1000)
    rows = []
    ok = True
    for n in sorted(table):
        c_n = table[n][2]
        bound = subgroup_count_bound(n, eta, alpha)
        rows.append((n, c_n, bound))
        ok = ok and c_n <= bound
    return CountBoundReport(G.name, eta, alpha, tuple(rows), ok)
