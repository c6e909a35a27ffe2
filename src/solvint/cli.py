"""Command-line front end: group-spec ingestion, analysis, verification
suites and count tables.

Reports are emitted on stdout as CSV or JSON with deterministic bytes for
a fixed spec, seed and version.  Exact rationals are rendered as "p/q";
the only decimal columns are display-only values derived from exact
integer floors.  Exit codes: 0 ok, 1 assertion failure, 2 schema error
or invalid input, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import io
import json
import sys
from fractions import Fraction

from . import __version__
from . import corpus, props, sdp, tower
from . import groups as gr
from .errors import (
    MalformedInput,
    ResourceCapExceeded,
    SchemaError,
    SolvintError,
    ValidationError,
)

DEFAULT_SEED = 20240
SUITES = ("interKM", "thuno", "due", "propo", "tower")
# A spec file is read only up to SPEC_BYTES_PER_ENTRY * cap^2 + SPEC_SLACK_BYTES
# bytes, cap the order cap: an entry of a table of order at most cap, its
# separator and the indent of a one-entry-per-line layout fit in 32 bytes,
# and the slack holds the rest of a table spec and any sdp or tower spec.
SPEC_BYTES_PER_ENTRY = 32
SPEC_SLACK_BYTES = 1 << 16


def _fr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _floor4_str(floor4: int) -> str:
    return f"{floor4 // 10**4}.{floor4 % 10**4:04d}"


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def load_spec(path: str, cap: int) -> dict:
    """The spec document at `path`, refused with ResourceCapExceeded before
    it is parsed when the file is larger than the order cap `cap` allows."""
    limit = SPEC_BYTES_PER_ENTRY * cap * cap + SPEC_SLACK_BYTES
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # a character takes at least one byte; read takes at most sys.maxsize
            text = fh.read(min(limit + 1, sys.maxsize))
    except (OSError, UnicodeDecodeError) as e:
        raise SchemaError(f"cannot read spec file: {e}")
    if len(text) > limit:
        raise ResourceCapExceeded(f"spec file size in bytes at order cap {cap}", limit)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # ValueError: past the int-string digit limit too
        raise SchemaError(f"spec file is not valid JSON: {e}")
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("spec must be a JSON object with a 'kind' field")
    if doc["kind"] not in ("sdp", "tower", "oracle-table"):
        raise SchemaError(f"unknown spec kind: {doc['kind']!r}")
    if not isinstance(doc.get("name", ""), str):
        raise SchemaError("spec 'name' must be a string")
    if any("\ud800" <= c <= "\udfff" for c in doc.get("name", "")):  # lone surrogates
        raise SchemaError("spec 'name' must encode as UTF-8")
    return doc


def build_oracle(doc: dict, cap: int) -> gr.OracleGroup:
    kind = doc["kind"]
    if kind == "sdp":
        return sdp.oracle_from_spec(doc, cap)
    if kind == "tower":
        return _tower_from_spec(doc, cap).embed_as_oracle()
    table = doc.get("table")
    if not (isinstance(table, list) and table and all(
            isinstance(row, list) and len(row) == len(table)
            and all(type(x) is int for x in row) for row in table)):
        raise SchemaError("oracle-table spec needs a non-empty square integer 'table'")
    gr._check_embedding_order(len(table), cap)
    return gr.from_mul_table(table, doc.get("name", "table-group"))


def _tower_from_spec(doc: dict, cap: int) -> tower.TowerGroup:
    strict = doc.get("strict", False)
    if not isinstance(strict, bool):
        raise SchemaError("tower 'strict' must be true or false")
    if "primes" in doc:
        primes = doc["primes"]
        if not isinstance(primes, list) or not all(type(p) is int for p in primes):
            raise SchemaError("tower primes must be an integer array")
        tp = tower.TowerPrimes(len(primes), tuple(primes), strict)
    else:
        n = doc.get("n")
        if type(n) is not int or n < 1:
            raise SchemaError("tower spec needs an integer 'n' >= 1 or explicit 'primes'")
        tp = tower.find_primes(n, strict)
    return tower.TowerGroup(tp, cap, doc.get("name"))


# ---------------------------------------------------------------------------
# report assembly


class Report:
    def __init__(self, command: str, digest: str, seed: int | None):
        self.command = command
        self.digest = digest
        self.seed = seed
        self.rows: list[tuple[str, str, str, str, str]] = []
        self.failures = 0

    def add(self, section: str, label: str, field: str, value, provenance: str):
        self.rows.append((section, label, field, str(value), provenance))

    def check(self, section: str, label: str, ok: bool):
        self.add(section, label, "pass", "yes" if ok else "NO", "oracle")
        if not ok:
            self.failures += 1

    def render(self, fmt: str) -> str:
        status = "ok" if self.failures == 0 else f"fail:{self.failures}"
        if fmt == "json":
            payload = {
                "command": self.command,
                "digest": self.digest,
                "records": [
                    {"section": s, "label": l, "field": f, "value": v, "provenance": p}
                    for s, l, f, v, p in self.rows
                ],
                "seed": self.seed,
                "status": status,
                "version": __version__,
            }
            return json.dumps(payload, sort_keys=True, indent=1) + "\n"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["command", self.command, "digest", self.digest, "seed",
                         self.seed, "version", __version__, "status", status])
        writer.writerow(["section", "label", "field", "value", "provenance"])
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(doc: dict, cap: int, seed: int) -> Report:
    report = Report("analyze", _digest(doc), seed)
    oracle = build_oracle(doc, cap)
    report.add("group", oracle.name, "order", oracle.n, "oracle")
    entries = gr.counts(oracle)
    for n, (m_n, _b_n, _c_n) in entries:
        if m_n:
            report.add("maximal_counts", f"n={n}", "m_n", m_n, "oracle")
    for n, (m_n, b_n, c_n) in entries:
        report.add("count_table", f"n={n}", "m_n", m_n, "oracle")
        report.add("count_table", f"n={n}", "b_n", b_n, "oracle")
        report.add("count_table", f"n={n}", "c_n", c_n, "oracle")
    for cls in sdp.chief_factor_classes(oracle):
        data = sdp.crown(oracle, cls)
        label = cls.label
        report.add("crown", label, "module_size", cls.module_size, "oracle")
        report.add("crown", label, "centralizer_order", data.centralizer.bit_count(), "oracle")
        report.add("crown", label, "core_order", data.core_r.bit_count(), "oracle")
        report.add("crown", label, "delta", data.delta, "oracle")
        report.add("crown", label, "complement_order",
                   "-" if data.complement is None else data.complement.bit_count(), "oracle")
    records = sorted(props.eta_report(oracle).records, key=lambda r: (r.index, r.subgroup_mask))
    floors = [rec.eta_floor4 for rec in records]
    for rec, floor4 in zip(records, floors):
        label = f"index={rec.index}"
        report.add("eta", label, "product", rec.product, "oracle")
        report.add("eta", label, "eta_floor4", _floor4_str(floor4), "oracle")
        report.add("eta", label, "family_size", len(rec.family), "oracle")
    # floor is monotone, so eta_min's floor is the max of the class floors
    eta_min = max(floors, default=0)
    report.add("eta_min", "group", "eta_min_floor4", _floor4_str(eta_min), "oracle")
    return report


def _fresh(groups: list[sdp.SdGroup]) -> list[sdp.SdGroup]:
    """New groups over copies of the sdp pool's modules, so that the memos of
    an interKM request start cold and end with it.  Each distinct module is
    copied once, with a fresh H, so the groups of one module share the
    tables that sdp memoises on H: those that depend on the module alone."""
    fresh: dict[int, sdp.HModule] = {}
    out = []
    for g in groups:
        module = fresh.get(id(g.module))
        if module is None:
            module = fresh[id(g.module)] = copy.copy(g.module)
            (module.group,) = _fresh_oracles([module.group])
        out.append(sdp.SdGroup(module, g.t, g.name))
    return out


def _fresh_oracles(groups: list[gr.OracleGroup]) -> list[gr.OracleGroup]:
    """New oracles over the laws of the corpus groups, with empty memos."""
    return [gr.OracleGroup(g.n, g.mul, g.name, g.gens, g._inv) for g in groups]


def cmd_verify(doc: dict | None, suite: str, cap: int, seed: int) -> Report:
    report = Report(f"verify:{suite}", _digest(doc) if doc else "corpus", seed)
    if suite == "interKM":
        if doc:
            raise SchemaError("the interKM suite runs on the corpus pool and takes no spec")
        pool = _fresh(corpus.sdp_pool(2000))
        pairs, fams, failures = sdp.random_case_suite(pool, 1000, 1000, seed)
        report.add("interKM", "pairs", "cases", pairs, "oracle")
        report.add("interKM", "families", "cases", fams, "oracle")
        report.check("interKM", "closed-form equals elementwise", not failures)
    elif suite == "thuno":
        targets = [build_oracle(doc, cap)] if doc else _fresh_oracles(corpus.corpus_groups())
        for g in targets:
            rows = props.verify_gamma_to_eta(g)
            report.check("thuno", g.name, all(r.ok for r in rows))
    elif suite == "due":
        if doc:
            if doc.get("kind") != "sdp":
                raise SchemaError("the due suite needs an sdp spec (Gamma = V x| H)")
            # the verifier refuses t != 1: keep that before any cap
            if type(doc.get("t")) is int and doc["t"] != 1:
                raise MalformedInput("primitive verifier expects t = 1 (Gamma = V x| H)")
            targets = [build_oracle(doc, cap)]
        else:
            targets = [sdp.embed_as_oracle(g) for g in corpus.primitive_groups()]
        for g in targets:
            rep = props.verify_eta_to_gamma(g)
            report.add("due", g.name, "gamma_v", rep.gamma_v, "oracle")
            report.add("due", g.name, "floor_eta_c", rep.eta_floor_c, "oracle")
            report.add("due", g.name, "constant_sensitive",
                       "yes" if rep.constant_sensitive else "no", "oracle")
            report.check("due", g.name, rep.gamma_ok and rep.palfy_wolf_ok)
    elif suite == "propo":
        targets = [build_oracle(doc, cap)] if doc else _fresh_oracles(corpus.corpus_groups())
        for g in targets:
            rep = props.check_subgroup_count_bound(g)
            report.add("propo", g.name, "eta", _fr(rep.eta), "oracle")
            report.add("propo", g.name, "alpha", _fr(rep.alpha), "oracle")
            report.check("propo", g.name, rep.ok)
    elif suite == "tower":
        if doc and doc.get("kind") != "tower":
            raise SchemaError("the tower suite needs a tower spec")
        t = _tower_from_spec(doc, cap) if doc else tower.TowerGroup(tower.find_primes(2), cap)
        expected = {2: 1}
        for p in t.primes.primes:
            expected[p] = p
        report.check("tower", "maximal index counts",
                     tower.maximal_index_counts(t) == expected)
        for cls, mu_val, ok in tower.verify_mu_zero(t):
            label = f"Z[{' '.join(str(j) for j in sorted(cls.j_set))}]i={cls.level}"
            report.add("tower", label, "mu", mu_val, "oracle")
            report.check("tower", label, ok)
        report.check("tower", "families intersect to classes",
                     tower.verify_realizing_families(t))
        report.check("tower", "structural classes equal oracle classes",
                     tower.structural_matches_oracle(t))
        tc = tower.tilde_counts(t)
        report.add("tower", "counts", "gamma_formula", tc.gamma_tilde_formula, "formula")
        report.add("tower", "counts", "gamma_structural", tc.gamma_tilde_structural, "structural")
        report.add("tower", "counts", "gamma_oracle", tc.gamma_tilde_oracle, "oracle")
        report.add("tower", "counts", "beta_oracle", tc.beta_tilde_oracle, "oracle")
        report.add("tower", "counts", "formula_agrees_oracle",
                   "yes" if tc.formula_agrees_oracle else "no", "oracle")
        report.check("tower", "beta within bound", bool(tc.beta_bound_holds))
    else:
        raise SchemaError(f"unknown suite {suite!r} (choose from {', '.join(SUITES)})")
    return report


def cmd_counts(n_min: int, n_max: int, strict: bool, cap: int, seed: int) -> Report:
    report = Report("counts", f"range:{n_min}..{n_max}:strict={strict}", seed)
    for n, primes, tc, provenance in tower.ratio_table(n_min, n_max, strict, cap):
        label = f"n={n}"
        report.add("counts", label, "primes", " ".join(str(p) for p in primes), provenance)
        report.add("counts", label, "gamma_formula", tc.gamma_tilde_formula, "formula")
        report.add("counts", label, "gamma_oracle",
                   tc.gamma_tilde_oracle if tc.gamma_tilde_oracle is not None else "-",
                   provenance)
        report.add("counts", label, "beta_bound", tc.beta_tilde_bound, "formula")
        report.add("counts", label, "beta_oracle",
                   tc.beta_tilde_oracle if tc.beta_tilde_oracle is not None else "-",
                   provenance)
        report.add("counts", label, "ratio_bound", _fr(tc.ratio_bound), "formula")
        agrees = tc.formula_agrees_oracle
        report.add("counts", label, "formula_agrees_oracle",
                   "-" if agrees is None else ("yes" if agrees else "no"), provenance)
    return report


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a one-line schema error
        raise SchemaError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="solvint",
        description="Exact analysis of intersections of maximal subgroups in finite solvable groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", help="path to a JSON group spec")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--cap-order", type=int, default=gr.DEFAULT_ORDER_CAP)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_analyze = sub.add_parser("analyze", help="maximal subgroups, crowns, counts, eta table")
    common(p_analyze)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    common(p_verify)
    p_verify.add_argument("--suite", choices=SUITES, required=True)

    p_counts = sub.add_parser("counts", help="tower count table over a level range")
    common(p_counts)
    p_counts.add_argument("--range", default="2..3", help="tower levels, e.g. 2..4")
    p_counts.add_argument("--strict-tower", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        if args.command == "analyze":
            if not args.spec:
                raise SchemaError("analyze requires --spec")
            report = cmd_analyze(load_spec(args.spec, args.cap_order), args.cap_order, args.seed)
        elif args.command == "verify":
            doc = load_spec(args.spec, args.cap_order) if args.spec else None
            report = cmd_verify(doc, args.suite, args.cap_order, args.seed)
        else:
            if args.spec:
                raise SchemaError("counts builds its towers from --range and takes no spec")
            try:
                lo, hi = args.range.split("..")
                n_min, n_max = int(lo), int(hi)
            except ValueError:
                raise SchemaError("counts --range must look like 2..4")
            report = cmd_counts(n_min, n_max, args.strict_tower, args.cap_order, args.seed)
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 2
    except (ValidationError, MalformedInput, gr.UnsupportedGroup) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2
    except ResourceCapExceeded as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 3
    except SolvintError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except AssertionError as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(report.render(args.format))
    return 0 if report.failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
