"""Request catalogue and seeded workload generator for the solvint benchmark.

A request is a plain dict: the command (``analyze``, ``verify`` or
``counts``), the JSON spec document or ``None``, the suite, the tower level
range, the seed and the output format the report is rendered in.  The
program only ever sees these documents and seeds; the workload name stays
in the benchmark.

Every request a workload can issue is an entry of the fixed catalogue, so
each one has a golden digest in ``golden.json``.  A workload is an endless
sequence of *rounds*, each holding every catalogue entry of the workload
as many times as its copies.  A run always completes whole rounds, so
every run of a workload measures the same mix whatever the seed; the seed
decides the order of the requests inside each round.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("calculus", "spec-mix", "tower")

# Seed handed to every request that is not a calculus request (the CLI's
# default seed); it is printed in the report header, so it is part of the
# golden bytes.
REQUEST_SEED = 20240

# Per-request seeds of the calculus workload: each is one
# `verify --suite interKM --seed s` request of 1000 pair + 1000 family cases.
# Their costs differ by up to 1.5x, so a round holds all of them: a draw
# would make the work of a run depend on the seed.
INTERKM_SEEDS = tuple(range(12))

# Irreducible H <= GL(k, p) as (p, k, generators); the same templates the
# corpus pool draws from.
SDP_MODULES = {
    "C2-F3": (3, 1, [[[2]]]),
    "C4-F5": (5, 1, [[[2]]]),
    "C2-F5": (5, 1, [[[4]]]),
    "C6-F7": (7, 1, [[[3]]]),
    "C3-F7": (7, 1, [[[2]]]),
    "C10-F11": (11, 1, [[[2]]]),
    "C12-F13": (13, 1, [[[2]]]),
    "C8-F17": (17, 1, [[[2]]]),
    "C4-F9": (3, 2, [[[0, 2], [1, 0]]]),
    "SL23-F9": (3, 2, [[[1, 1], [0, 1]], [[0, 2], [1, 0]]]),
    "GammaL-F9": (3, 2, [[[1, 1], [2, 1]], [[1, 0], [0, 2]]]),
    "C3-F4": (2, 2, [[[1, 1], [1, 0]]]),
    "C8-F25": (5, 2, [[[0, 1], [2, 0]]]),
    "C7-F8": (2, 3, [[[0, 1, 0], [0, 0, 1], [1, 1, 0]]]),
}

# Small groups sent as explicit multiplication tables: C_m x|_r C_k with
# (a, b)(c, d) = (a + r^b c, b + d), plus S4 from permutations.
METACYCLIC = {
    "S3": (3, 2, 2),
    "D8": (4, 2, 3),
    "C3:C4": (3, 4, 2),
    "D10": (5, 2, 4),
    "F20": (5, 4, 2),
    "F21": (7, 3, 2),
    "D18": (9, 2, 8),
    "F42": (7, 6, 3),
}


def sdp_spec(module: str, t: int) -> dict:
    p, k, gens = SDP_MODULES[module]
    return {"kind": "sdp", "p": p, "k": k, "t": t, "h_gens": gens,
            "name": f"{module}^{t}"}


def tower_spec(primes=None, n=None) -> dict:
    if primes is not None:
        return {"kind": "tower", "primes": list(primes)}
    return {"kind": "tower", "n": n}


def metacyclic_table(m: int, k: int, r: int) -> list[list[int]]:
    """Multiplication table of C_m x|_r C_k on ids a*k + b (identity 0)."""
    if pow(r, k, m) != 1:
        raise ValueError(f"{r}^{k} is not 1 mod {m}")
    rp = [pow(r, b, m) for b in range(k)]
    return [
        [((a1 + rp[b1] * a2) % m) * k + (b1 + b2) % k
         for a2 in range(m) for b2 in range(k)]
        for a1 in range(m) for b1 in range(k)
    ]


def permutation_table(degree: int) -> list[list[int]]:
    """Multiplication table of the symmetric group on ``degree`` points,
    identity first, composing left factor first."""
    perms = sorted(itertools.permutations(range(degree)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(b[a[i]] for i in range(degree))] for b in perms] for a in perms]


def table_spec(name: str) -> dict:
    table = permutation_table(4) if name == "S4" else metacyclic_table(*METACYCLIC[name])
    return {"kind": "oracle-table", "table": table, "name": name}


def _req(rid, command, spec=None, suite=None, seed=REQUEST_SEED, rng=None, fmt="csv"):
    return {"id": rid, "command": command, "spec": spec, "suite": suite,
            "range": rng, "seed": seed, "format": fmt}


def _spec_mix_entries():
    """(request, copies per round) for spec-mix.

    Costs on a 2-core x86 box run from about 1 ms to about 4 s; one round
    of 75 requests takes about 8.5 s.  Light requests are the majority, so
    the median sits among them.  analyze/tower-3-13 repeats so that the
    p95 of a run falls inside one block of identical requests.
    """
    tables = {name: table_spec(name) for name in (*METACYCLIC, "S4")}
    entries = [
        (_req("analyze/C6-F7^2", "analyze", sdp_spec("C6-F7", 2)), 1),
        (_req("analyze/SL23-F9^1", "analyze", sdp_spec("SL23-F9", 1), fmt="json"), 1),
        (_req("analyze/tower-3-13", "analyze", tower_spec((3, 13)), fmt="json"), 3),
        (_req("analyze/C4-F5^2", "analyze", sdp_spec("C4-F5", 2), fmt="json"), 1),
        (_req("propo/C6-F7^2", "verify", sdp_spec("C6-F7", 2), "propo"), 1),
        (_req("thuno/C2-F3^3", "verify", sdp_spec("C2-F3", 3), "thuno"), 1),
        (_req("analyze/C10-F11^1", "analyze", sdp_spec("C10-F11", 1)), 1),
        (_req("analyze/C3-F4^2", "analyze", sdp_spec("C3-F4", 2)), 1),
        (_req("analyze/C2-F5^2", "analyze", sdp_spec("C2-F5", 2), fmt="json"), 1),
        (_req("due/SL23-F9^1", "verify", sdp_spec("SL23-F9", 1), "due", fmt="json"), 1),
        (_req("due/C8-F25^1", "verify", sdp_spec("C8-F25", 1), "due"), 1),
        (_req("due/GammaL-F9^1", "verify", sdp_spec("GammaL-F9", 1), "due"), 1),
        (_req("analyze/tower-3-5", "analyze", tower_spec((3, 5))), 2),
        (_req("propo/tower-3-17", "verify", tower_spec((3, 17)), "propo", fmt="json"), 2),
        (_req("propo/C8-F17^1", "verify", sdp_spec("C8-F17", 1), "propo"), 2),
        (_req("thuno/C7-F8^1", "verify", sdp_spec("C7-F8", 1), "thuno", fmt="json"), 2),
        (_req("due/C12-F13^1", "verify", sdp_spec("C12-F13", 1), "due"), 2),
        (_req("analyze/C4-F9^1", "analyze", sdp_spec("C4-F9", 1)), 2),
        (_req("thuno/C6-F7^1", "verify", sdp_spec("C6-F7", 1), "thuno"), 2),
        (_req("propo/C3-F4^2", "verify", sdp_spec("C3-F4", 2), "propo", fmt="json"), 2),
        (_req("propo/C2-F3^2", "verify", sdp_spec("C2-F3", 2), "propo"), 2),
        (_req("due/C7-F8^1", "verify", sdp_spec("C7-F8", 1), "due"), 2),
        (_req("due/C4-F9^1", "verify", sdp_spec("C4-F9", 1), "due", fmt="json"), 2),
        (_req("analyze/C4-F5^1", "analyze", sdp_spec("C4-F5", 1)), 2),
        (_req("due/C6-F7^1", "verify", sdp_spec("C6-F7", 1), "due"), 2),
        (_req("analyze/C3-F7^1", "analyze", sdp_spec("C3-F7", 1), fmt="json"), 2),
        (_req("due/C2-F3^1", "verify", sdp_spec("C2-F3", 1), "due"), 2),
    ]
    for name, spec in tables.items():
        # analyze/F20 repeats so that the median of a round falls inside one
        # block of identical requests, which keeps request_p50_s steady
        entries.append((_req(f"analyze/{name}", "analyze", spec), 5 if name == "F20" else 1))
        entries.append((_req(f"thuno/{name}", "verify", spec, "thuno", fmt="json"), 1))
        entries.append((_req(f"propo/{name}", "verify", spec, "propo"), 1))
    return entries


def _tower_entries():
    """(request, copies per round) for tower: the order-2040 level n = 3
    twice (its verify suite and the count table up to n = 3), the count
    table up to n = 2 and sixteen n = 2 verify requests; one round takes
    about 10.5 s.  Repeats place the p75 and the median of a three-round
    run well inside blocks of identical requests (the 4th of 12 tower/13-17
    and the 11th of 18 tower/7-13), which keeps them steady."""
    entries = [
        (_req("tower/n3", "verify", tower_spec(n=3), "tower"), 1),
        (_req("counts/1..3", "counts", rng=[1, 3], fmt="json"), 1),
        (_req("counts/1..2", "counts", rng=[1, 2]), 1),
    ]
    for pair, copies in (((13, 17), 4), ((11, 13), 1), ((7, 13), 6), ((5, 17), 1),
                         ((5, 13), 1), ((3, 17), 1), ((3, 13), 1), ((3, 5), 1)):
        tag = "-".join(map(str, pair))
        entries.append((_req(f"tower/{tag}", "verify", tower_spec(pair), "tower"), copies))
    return entries


def _calculus_entries():
    return [(_req(f"interKM/{s}", "verify", None, "interKM", seed=s), 1)
            for s in INTERKM_SEEDS]


def catalogue() -> dict[str, list[tuple[dict, int]]]:
    """Workload name -> its catalogue entries as (request, copies per round)."""
    return {
        "calculus": _calculus_entries(),
        "spec-mix": _spec_mix_entries(),
        "tower": _tower_entries(),
    }


def rounds(entries: list[tuple[dict, int]], workload: str, seed: int):
    """Endless seeded sequence of rounds (lists of requests): every entry
    as many times as its copies, in an order shuffled afresh for each round."""
    rng = random.Random(f"{workload}:{seed}")
    deck = [req for req, copies in entries for _ in range(copies)]
    while True:
        order = deck[:]
        rng.shuffle(order)
        yield order
