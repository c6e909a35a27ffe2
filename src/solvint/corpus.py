"""Curated test corpus: solvable oracle groups of order <= 200, primitive
affine groups V x| H as SdGroups, and the template pool used to draw small
random semidirect products for the equivalence suites."""

from __future__ import annotations

from . import groups as gr
from . import sdp, tower


def _s3() -> gr.OracleGroup:
    return gr.from_permutations([(1, 2, 0), (1, 0, 2)], "S3")


def _s4() -> gr.OracleGroup:
    return gr.from_permutations([(1, 2, 3, 0), (1, 0, 2, 3)], "S4")


def _a4() -> gr.OracleGroup:
    return gr.from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], "A4")


def _q8() -> gr.OracleGroup:
    return gr.from_matrices([((0, 2), (1, 0)), ((1, 1), (1, 2))], 3, "Q8")


def _sl23() -> gr.OracleGroup:
    return gr.from_matrices([((1, 1), (0, 1)), ((0, 2), (1, 0))], 3, "SL(2,3)")


def _tower_g2() -> gr.OracleGroup:
    return tower.TowerGroup(tower.TowerPrimes(2, (3, 5), False)).embed_as_oracle()


def _affine_36() -> gr.OracleGroup:
    g = sdp.SdGroup.create(3, 2, 1, [((0, 2), (1, 0))], name="F9:C4")
    return sdp.embed_as_oracle(g)


# name -> zero-argument builder; instances are cached on first use
CORPUS_BUILDERS: tuple[tuple[str, object], ...] = (
    ("C6", lambda: gr.cyclic(6)),
    ("S3", _s3),
    ("C8", lambda: gr.cyclic(8)),
    ("Q8", _q8),
    ("D8", lambda: gr.semidirect_cyclic(4, 2, 3, "D8")),
    ("C2xC2xC3", lambda: gr.direct_product(gr.direct_product(gr.cyclic(2), gr.cyclic(2)), gr.cyclic(3), "C2xC2xC3")),
    ("C2^3", lambda: gr.direct_product(gr.direct_product(gr.cyclic(2), gr.cyclic(2)), gr.cyclic(2), "C2^3")),
    ("C2^4", lambda: gr.direct_product(
        gr.direct_product(gr.cyclic(2), gr.cyclic(2)),
        gr.direct_product(gr.cyclic(2), gr.cyclic(2)), "C2^4")),
    ("D18", lambda: gr.semidirect_cyclic(9, 2, 8, "D18")),
    ("A4", _a4),
    ("D12", lambda: gr.semidirect_cyclic(6, 2, 5, "D12")),
    ("C3:C4", lambda: gr.semidirect_cyclic(3, 4, 2, "C3:C4")),
    ("D10", lambda: gr.semidirect_cyclic(5, 2, 4, "D10")),
    ("M16", lambda: gr.semidirect_cyclic(8, 2, 5, "M16")),
    ("D16", lambda: gr.semidirect_cyclic(8, 2, 7, "D16")),
    ("C3xS3", lambda: gr.direct_product(gr.cyclic(3), _s3(), "C3xS3")),
    ("F20", lambda: gr.semidirect_cyclic(5, 4, 2, "F20")),
    ("F21", lambda: gr.semidirect_cyclic(7, 3, 2, "F21")),
    ("SL(2,3)", _sl23),
    ("S4", _s4),
    ("C9:C3", lambda: gr.semidirect_cyclic(9, 3, 4, "C9:C3")),
    ("D30", lambda: gr.semidirect_cyclic(15, 2, 14, "D30")),
    ("C13:C3", lambda: gr.semidirect_cyclic(13, 3, 3, "C13:C3")),
    ("F42", lambda: gr.semidirect_cyclic(7, 6, 3, "F42")),
    ("C11:C5", lambda: gr.semidirect_cyclic(11, 5, 4, "C11:C5")),
    ("tower-G2", _tower_g2),
    ("F9:C4", _affine_36),
)

_corpus_cache: dict[str, gr.OracleGroup] = {}


def corpus_groups() -> list[gr.OracleGroup]:
    """The curated solvable corpus: orders <= 200, the order-60 tower
    level used for cross-checks among them."""
    return [corpus_group(name) for name, _ in CORPUS_BUILDERS]


def corpus_group(name: str) -> gr.OracleGroup:
    """The corpus group `name`, built once; KeyError for an unknown name."""
    if name not in _corpus_cache:
        _corpus_cache[name] = dict(CORPUS_BUILDERS)[name]()
    return _corpus_cache[name]


# ---------------------------------------------------------------------------
# primitive affine groups (for the eta -> gamma direction)

PRIMITIVE_TEMPLATES: tuple[tuple[str, int, int, tuple], ...] = (
    ("S3", 3, 1, (((2,),),)),
    ("D10", 5, 1, (((4,),),)),
    ("F20", 5, 1, (((2,),),)),
    ("C7:C3", 7, 1, (((2,),),)),
    ("F42", 7, 1, (((3,),),)),
    ("F110", 11, 1, (((2,),),)),
    ("F156", 13, 1, (((2,),),)),
    ("F9:C4", 3, 2, (((0, 2), (1, 0)),)),
    ("F9:SL(2,3)", 3, 2, (((1, 1), (0, 1)), ((0, 2), (1, 0)))),
    ("F9:GammaL", 3, 2, (((1, 1), (2, 1)), ((1, 0), (0, 2)))),  # Singer + Frobenius
    ("F4:C3", 2, 2, (((1, 1), (1, 0)),)),
    ("F25:C8", 5, 2, (((0, 1), (2, 0)),)),
    ("F8:C7", 2, 3, (((0, 1, 0), (0, 0, 1), (1, 1, 0)),)),
)

_primitive_cache: dict[str, sdp.SdGroup] = {}


def primitive_groups() -> list[sdp.SdGroup]:
    """Primitive solvable affine groups V x| H with V faithful irreducible."""
    out = []
    for name, p, k, gens in PRIMITIVE_TEMPLATES:
        if name not in _primitive_cache:
            _primitive_cache[name] = sdp.SdGroup.create(p, k, 1, list(gens), name=name)
        out.append(_primitive_cache[name])
    return out


# ---------------------------------------------------------------------------
# templates for randomized semidirect products (|V^t| * |H| <= 2000)

SDP_TEMPLATES: tuple[tuple[int, int, tuple], ...] = (
    (3, 1, (((2,),),)),                                  # C2 on F_3
    (5, 1, (((2,),),)),                                  # C4 on F_5
    (5, 1, (((4,),),)),                                  # C2 on F_5
    (7, 1, (((3,),),)),                                  # C6 on F_7
    (7, 1, (((2,),),)),                                  # C3 on F_7
    (11, 1, (((2,),),)),                                 # C10 on F_11
    (13, 1, (((2,),),)),                                 # C12 on F_13
    (17, 1, (((2,),),)),                                 # C8 on F_17
    (3, 2, (((0, 2), (1, 0)),)),                         # C4 on F_9 (F = F_9)
    (3, 2, (((1, 1), (0, 1)), ((0, 2), (1, 0)))),        # SL(2,3) on F_3^2
    (3, 2, (((1, 1), (2, 1)), ((1, 0), (0, 2)))),        # GammaL(1,9) on F_9
    (2, 2, (((1, 1), (1, 0)),)),                         # C3 on F_4 (F = F_4)
    (5, 2, (((0, 1), (2, 0)),)),                         # C8 on F_25 (F = F_25)
    (2, 3, (((0, 1, 0), (0, 0, 1), (1, 1, 0)),)),        # C7 on F_8 (F = F_8)
)

_template_cache: dict[tuple, sdp.SdGroup] = {}


def sdp_pool(max_order: int = 2000) -> list[sdp.SdGroup]:
    """All template groups V^t x| H with order at most `max_order`, over
    every multiplicity t >= 1 that fits.  Each is named with its order, as
    `V^1:H<GL(2,3)|36`: one H and t can give several groups."""
    out = []
    for p, k, gens in SDP_TEMPLATES:
        t = 1
        while True:
            key = (p, k, gens, t)
            if key not in _template_cache:
                module = (_template_cache[(p, k, gens, 1)].module if t > 1
                          else sdp.HModule.create(p, k, list(gens)))
                order = p ** (k * t) * module.order
                _template_cache[key] = sdp.SdGroup(module, t, f"V^{t}:{module.group.name}|{order}")
            g = _template_cache[key]
            if g.order > max_order:
                break
            out.append(g)
            t += 1
    return out
