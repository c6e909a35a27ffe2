"""Closed-loop request benchmark for solvint.

    python3 bench/run.py --workload {calculus,spec-mix,tower} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  One client
sends the next request when the previous one has returned (closed loop, no
extra threads or processes).  A request is one ``cli.cmd_analyze``,
``cli.cmd_verify`` or ``cli.cmd_counts`` call on a spec document decoded
from JSON for that request, followed by rendering the report; each request
builds fresh group objects, so per-group caches start cold, while the
module-level corpus pools are filled during set-up.  Every rendered report
is checked against its golden SHA-256 digest in ``golden.json``.

A run replays a fixed number of whole rounds of the workload (see
``workloads.py``): as many as take ``--seconds`` on the nominal machine of
``NOMINAL_ROUND_S``.  The request count of a run therefore depends on the
workload and ``--seconds`` alone, not on how fast the program is, so every
commit reports the same latency percentiles.

Every reported time is in nominal seconds: wall seconds scaled by the
speed the host gave the process at that moment.  On a shared host that
speed drifts by up to 1.7x within a minute, and for as long as a whole
run, which no median inside a run removes.  ``SpeedProbe`` measures the
drift by timing a fixed loop of the benchmark's own every
``PROBE_PERIOD_S`` seconds, and a span of wall time is scaled by
``REF_NOMINAL_S`` over the median loop time around it.  The loop runs no
solvint code, so a change to the program moves the nominal times in the
same proportion as the wall times; only the host's drift is divided out.
The probe takes about 1% of the wall time.  The wall-clock figures are
printed beside the metrics.

``--trace 0`` replays the rounds and prints the end-to-end metrics.
``--trace 1`` replays half as many (at least one) twice: once plain and
once with every layer wrapped by ``tracer.Tracer``, and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 7
# Nominal seconds per round; only used to choose how many rounds a run
# replays, so that choice depends on --seconds alone.
NOMINAL_ROUND_S = {"calculus": 28.0, "spec-mix": 8.3, "tower": 10.6}
# Speed probe: the reference loop's two parts, how often it is timed, the
# wall time on each side of a span whose samples count for it, and the
# loop's median time on a quiet 2-core x86 box (Python 3.11).
REF_INT_ITERS = 1000
REF_MASK_ITERS = 300
REF_MASKS = tuple(random.Random(i).getrandbits(2048) for i in range(64))
PROBE_PERIOD_S = 0.05
PROBE_WINDOW_S = 0.25
REF_NOMINAL_S = 390e-6
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

# Per-layer self-time metrics: span names, or prefixes ending in "." that
# cover every wrapped method of a class.
SELF_TIME = {
    "cli.render_s": ["cli.Report.render"],
    "tower.embed_s": ["tower.TowerGroup.embed_as_oracle"],
    "tower.structural_s": ["tower.classify_intersections", "tower.class_representative_elements",
                           "tower.realizing_family", "tower.verify_realizing_families",
                           "tower.structural_matches_oracle", "tower.TowerGroup.subgroup_mask",
                           "tower.TowerGroup.maximal_descriptors"],
    "groups.table_build_s": ["groups.from_mul_table", "groups.from_elements",
                             "groups.from_permutations", "groups.from_matrices", "groups.cyclic",
                             "groups.direct_product", "groups.semidirect_cyclic",
                             "groups.oracle_from_split_tables", "groups.OracleGroup.__init__"],
    "groups.lattice_s": ["groups.all_subgroups"],
    "groups.mobius_s": ["groups.mobius_all", "groups.mobius", "groups.overgroups"],
    "groups.classes_s": ["groups.conjugacy_classes_of_subgroups"],
    "groups.maximals_s": ["groups.maximal_subgroups", "groups.frattini",
                          "groups.is_maximal_intersection"],
    "groups.core_socle_s": ["groups.core_and_socle", "groups.normal_core"],
    "groups.closure_s": ["groups.closure_mask", "groups.subgroup_closure",
                         "groups.normal_closure_mask", "groups.greedy_generators",
                         "groups.small_generating_set", "groups.conjugate_mask"],
    "groups.counts_s": ["groups.counts"],
    "sdp.elementwise_s": ["sdp.descriptor_elements", "sdp.supplement_elements",
                          "sdp.partial_elements", "sdp.canonical_elements"],
    "sdp.closed_form_s": ["sdp.intersect_case_spanning", "sdp.intersect_case_nested",
                          "sdp.intersect_supplement", "sdp.canonicalize_intersection",
                          "sdp.realize_intersection", "sdp.subgroup_equal",
                          "sdp.centralizer_in_h", "sdp.HModule.centralizer_of"],
    "sdp.supplements_s": ["sdp.enumerate_maximal_supplements", "sdp.SdGroup.maximal_submodules",
                          "sdp.SdGroup.fixed_space_over", "sdp.SdGroup.fvectors_of_submodule",
                          "sdp.SdGroup.submodule_from_fvectors"],
    "sdp.crown_s": ["sdp.chief_factor_classes", "sdp.crown", "sdp.crown_module_check",
                    "sdp.find_corona_crown"],
    "sdp.embed_s": ["sdp.embed_as_oracle"],
    "props.eta_s": ["props.eta_of_intersection", "props.eta_report",
                    "props.maximal_intersection_classes", "props.has_eta_property",
                    "props.EtaRecord.", "props.EtaReport."],
    "props.gamma_s": ["props.gamma_min", "props.is_gamma_module"],
    "props.count_bound_s": ["props.check_subgroup_count_bound", "props.subgroup_count_bound",
                            "props.floor_root_pow", "props.iroot", "props.floor_log_ratio"],
    "ffla.subspace_s": ["ffla.FpSubspace.", "ffla.rref", "ffla.nullspace",
                        "ffla.express_in_rows", "ffla.spin"],
    "ffla.field_s": ["ffla.FieldOps.", "ffla.endomorphism_field", "ffla.is_irreducible"],
    "ffla.module_iso_s": ["ffla.module_isomorphism", "ffla.induced_action"],
}

# Inclusive time (span duration, children included): building the corpus
# pools is almost all sdp and ffla work, so its self time would hide it.
INCLUSIVE_TIME = {
    "corpus.pool_s": ["corpus.sdp_pool", "corpus.corpus_groups", "corpus.corpus_group",
                      "corpus.primitive_groups"],
}

# Span counts: metric -> span names (or class prefixes) whose calls it counts.
CALL_COUNTS = {
    "groups.core_socle_calls": ["groups.core_and_socle"],
    "groups.closure_calls": ["groups.closure_mask"],
    "sdp.elementwise_calls": ["sdp.descriptor_elements"],
    "props.eta_classes": ["props.eta_of_intersection"],
    "ffla.subspace_calls": SELF_TIME["ffla.subspace_s"],
}

# Which end-to-end metric each per-layer metric should move, and on which
# workload, written down before any optimisation is measured.
PREDICTS = {
    "cli.render_s": "request_p50_s on spec-mix",
    "corpus.pool_s": "setup_s on calculus",
    "tower.embed_s": "requests_per_s on tower",
    "tower.structural_s": "requests_per_s on tower",
    "groups.table_build_s": "requests_per_s on tower and spec-mix",
    "groups.lattice_s": "requests_per_s on tower",
    "groups.lattice_subgroups": "requests_per_s on tower",
    "groups.mobius_s": "requests_per_s on tower",
    "groups.classes_s": "requests_per_s on tower",
    "groups.maximals_s": "requests_per_s on tower",
    "groups.core_socle_s": "requests_per_s on spec-mix",
    "groups.core_socle_calls": "requests_per_s on spec-mix",
    "groups.closure_s": "requests_per_s on spec-mix",
    "groups.closure_calls": "requests_per_s on spec-mix",
    "groups.counts_s": "requests_per_s on spec-mix",
    "groups.cache_hit_ratio": "requests_per_s on spec-mix",
    "sdp.elementwise_s": "requests_per_s on calculus",
    "sdp.elementwise_calls": "requests_per_s on calculus",
    "sdp.closed_form_s": "requests_per_s on calculus",
    "sdp.supplements_s": "requests_per_s on calculus",
    "sdp.crown_s": "requests_per_s on spec-mix",
    "sdp.embed_s": "requests_per_s on spec-mix",
    "props.eta_s": "requests_per_s on spec-mix",
    "props.eta_classes": "requests_per_s on spec-mix",
    "props.gamma_s": "requests_per_s on spec-mix",
    "props.count_bound_s": "requests_per_s on spec-mix",
    "ffla.subspace_s": "requests_per_s on calculus",
    "ffla.subspace_calls": "requests_per_s on calculus",
    "ffla.field_s": "requests_per_s on calculus",
    "ffla.module_iso_s": "requests_per_s on spec-mix",
}


# ---------------------------------------------------------------------------
# host speed


def reference_loop() -> int:
    """Fixed work of the two kinds solvint spends its time on: small-integer
    arithmetic and operations on bitmasks as wide as the subgroup masks of
    an order-2040 group.  Either part alone tracks the program's slowdown
    less closely than both.  It allocates no container, so no garbage
    collection runs inside it and its time follows only the host's speed."""
    x = 1
    for i in range(REF_INT_ITERS):
        x = (x * 1103515245 + i) & 0x7FFFFFFF
    masks = REF_MASKS
    acc = 0
    for i in range(REF_MASK_ITERS):
        acc ^= (masks[i & 63] & ~masks[(i * 7) & 63]) | (acc >> 3)
    return x ^ acc.bit_count()


class SpeedProbe:
    """Times `reference_loop` every PROBE_PERIOD_S seconds of wall time.

    The samples come from a SIGALRM handler, not a thread: the handler runs
    in the main thread between bytecodes, inside a request as well as
    between requests, so the samples are spread evenly over the run.  Use
    as a context manager; the timer and the previous handler are restored
    on exit.
    """

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def nominal(self, t0: float, t1: float) -> float:
        """Wall seconds from t0 to t1 scaled to nominal speed, by the median
        reference-loop time sampled within PROBE_WINDOW_S of the span."""
        lo = bisect.bisect_left(self.at, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + PROBE_WINDOW_S)
        if lo == hi:
            raise RuntimeError(f"no speed sample near {t0:.3f}..{t1:.3f} s")
        return (t1 - t0) * REF_NOMINAL_S / statistics.median(self.took[lo:hi])

    def slowdown(self) -> float:
        """Median reference-loop time over the run, against nominal."""
        return statistics.median(self.took) / REF_NOMINAL_S


# ---------------------------------------------------------------------------
# set-up


def import_solvint() -> dict:
    """Import every layer module afresh from ROOT/src; {layer: module}."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "solvint" or m.startswith("solvint.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"solvint.{layer}") for layer in LAYERS}
    if Path(mods["cli"].__file__).resolve().parent.parent != src:
        raise ImportError(f"solvint was imported from {mods['cli'].__file__}, not from {src}")
    return mods


def build_plan_inputs(workload: str):
    """Catalogue entries of the workload with each spec serialised to the
    JSON text a client would send."""
    entries = workloads.catalogue()[workload]
    return [({**req, "spec": None if req["spec"] is None else json.dumps(req["spec"])}, copies)
            for req, copies in entries]


def setup(workload: str):
    """Import, corpus pool construction and spec generation; returns
    (modules, catalogue entries, (start, end) wall clock)."""
    t0 = time.perf_counter()
    mods = import_solvint()
    mods["corpus"].sdp_pool(2000)
    entries = build_plan_inputs(workload)
    return mods, entries, (t0, time.perf_counter())


# ---------------------------------------------------------------------------
# requests


def execute(cli, req: dict) -> tuple[bytes, int]:
    """Serve one request; returns (rendered report bytes, report failures)."""
    cap = cli.gr.DEFAULT_ORDER_CAP
    spec = None if req["spec"] is None else json.loads(req["spec"])
    if req["command"] == "analyze":
        report = cli.cmd_analyze(spec, cap, req["seed"])
    elif req["command"] == "verify":
        report = cli.cmd_verify(spec, req["suite"], cap, req["seed"])
    else:
        lo, hi = req["range"]
        report = cli.cmd_counts(lo, hi, False, cap, req["seed"])
    return report.render(req["format"]).encode(), report.failures


class Loop:
    """One closed-loop client: runs requests and keeps the (start, end) wall
    clock of each and the failures."""

    def __init__(self, cli, golden: dict[str, str], tracer: Tracer | None = None):
        self.cli = cli
        self.golden = golden
        self.tracer = tracer
        self.spans: list[tuple[float, float]] = []
        self.failed = 0

    def request(self, req: dict) -> None:
        if self.tracer is not None:
            self.tracer.request_id = len(self.spans)
        t0 = time.perf_counter()
        try:
            body, failures = execute(self.cli, req)
        except Exception:  # a failing request is counted, the loop goes on
            self.spans.append((t0, time.perf_counter()))
            self.failed += 1
            print(f"request {req['id']} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return
        self.spans.append((t0, time.perf_counter()))
        digest = hashlib.sha256(body).hexdigest()
        if failures or digest != self.golden.get(req["id"]):
            self.failed += 1
            print(f"request {req['id']}: failures={failures} digest={digest[:16]} "
                  f"golden={self.golden.get(req['id'], 'missing')[:16]}", file=sys.stderr)

    def run(self, plan: list[list[dict]]) -> float:
        """Every request of every round in `plan`; returns wall seconds."""
        t0 = time.perf_counter()
        for rnd in plan:
            for req in rnd:
                self.request(req)
        return time.perf_counter() - t0


def make_plan(entries, workload: str, seed: int, seconds: float) -> list[list[dict]]:
    """The rounds one pass replays: about `seconds` of nominal work."""
    n_rounds = max(1, round(seconds / NOMINAL_ROUND_S[workload]))
    return list(itertools.islice(workloads.rounds(entries, workload, seed), n_rounds))


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile of
    TAIL_LADDER with at least TAIL_BEYOND samples beyond it (nearest rank).
    Below 2 * TAIL_BEYOND samples no percentile at or above the median has
    that many beyond it, and the median is returned."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1], n - rank
    return 50.0, statistics.median(xs), n - math.ceil(n / 2)


def run_facts() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"cpu={cpu!r}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]):
    for name, (value, unit) in metrics.items():
        note = f"  (should move {PREDICTS[name]})" if name in PREDICTS else ""
        print(f"  {name:28s} {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def measure(plan, mods, golden, setup_spans, probe: SpeedProbe) -> None:
    loop = Loop(mods["cli"], golden)
    wall = loop.run(plan)
    n = len(loop.spans)
    latencies = [probe.nominal(*span) for span in loop.spans]
    setup_times = [probe.nominal(*span) for span in setup_spans]
    p, tail_s, beyond = tail(latencies)
    wall_lat = [b - a for a, b in loop.spans]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"closed loop, 1 client: {n} requests in {len(plan)} whole rounds")
    print(f"wall clock: {wall:.3f} s, {n / wall:.4f} requests/s, p50 "
          f"{statistics.median(wall_lat):.4f} s, p{p:g} {tail(wall_lat)[1]:.4f} s; host "
          f"{probe.slowdown():.3f}x slower than nominal ({len(probe.took)} speed samples)")
    print(f"setup_s: median of {len(setup_times)} set-ups "
          f"({', '.join(f'{t:.4f}' for t in setup_times)})")
    print(f"request_tail_s: p{p:g} of {n} samples, {beyond} beyond it")
    print(f"failed_frac: {loop.failed / n:.6g} ratio ({loop.failed} of {n} failed)")
    emit(loop.failed == 0, n, loop.failed, {
        "setup_s": (statistics.median(setup_times), "s"),
        "requests_per_s": (n / sum(latencies), "1/s"),
        "request_p50_s": (statistics.median(latencies), "s"),
        "request_tail_s": (tail_s, "s"),
        "ok_frac": ((n - loop.failed) / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    })


def _matches(name: str, patterns) -> bool:
    return any(name.startswith(p) if p.endswith(".") else name == p for p in patterns)


def measure_traced(workload, plan, mods, golden, probe: SpeedProbe) -> None:
    plain = Loop(mods["cli"], golden)
    plain_wall = plain.run(plan)

    tracer = Tracer()
    mods = import_solvint()
    tracer.install(mods)
    for patterns in (*SELF_TIME.values(), *INCLUSIVE_TIME.values()):
        for p in patterns:
            if not p.endswith(".") and p not in tracer.name_id:
                raise KeyError(f"metric span {p} is not wrapped")
    t0 = time.perf_counter()
    mods["corpus"].sdp_pool(2000)  # traced set-up, request id -1
    t1 = time.perf_counter()
    traced = Loop(mods["cli"], golden, tracer)
    traced_wall = traced.run(plan)
    plain_s = sum(probe.nominal(*span) for span in plain.spans)
    traced_s = sum(probe.nominal(*span) for span in traced.spans)
    # span times are wall seconds: scale each pass by its overall slowdown
    setup_scale = probe.nominal(t0, t1) / (t1 - t0)
    scale = traced_s / sum(b - a for a, b in traced.spans)

    # corpus.pool_s is the only metric of the set-up; all others count
    # the spans of served requests
    setup_total_s = {k: v * setup_scale for k, v in tracer.rollup(setup=True)[1].items()}
    self_s, _, calls, raised = tracer.rollup()
    self_s = {k: v * scale for k, v in self_s.items()}
    metrics: dict[str, tuple[float, str]] = {}
    for metric, patterns in INCLUSIVE_TIME.items():
        metrics[metric] = (sum(v for k, v in setup_total_s.items() if _matches(k, patterns)), "s")
    for metric, patterns in SELF_TIME.items():
        metrics[metric] = (sum(v for k, v in self_s.items() if _matches(k, patterns)), "s")
    for metric, patterns in CALL_COUNTS.items():
        metrics[metric] = (sum(v for k, v in calls.items() if _matches(k, patterns)), "count")
    c = tracer.counters
    lookups = c["groups.all_subgroups.calls"] + c["groups.maximal_subgroups.calls"]
    hits = c["groups.all_subgroups.hits"] + c["groups.maximal_subgroups.hits"]
    metrics["groups.lattice_subgroups"] = (c["groups.lattice_subgroups"], "count")
    metrics["groups.cache_lookups"] = (lookups, "count")
    metrics["groups.cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    layer_self = {layer: sum(v for k, v in self_s.items() if k.startswith(layer + "."))
                  for layer in LAYERS}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
        metrics[f"{layer}.raised"] = (
            sum(v for k, v in raised.items() if k.startswith(layer + ".")), "count")
    metrics["trace_overhead_frac"] = (traced_s / plain_s - 1, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"spans-{workload}.tsv"
    n_spans = tracer.dump(dump)
    n = len(plain.spans)
    print(f"traced run: {len(plan)} rounds, {n} requests, replayed plain then traced")
    print(f"plain {plain_s:.3f} s, traced {traced_s:.3f} s in nominal request time "
          f"(wall clock {plain_wall:.3f} s and {traced_wall:.3f} s); "
          f"{n_spans} spans -> {dump}")
    print("no per-layer wait metric: one closed-loop client, and the program has no "
          "queues or threads")
    print(f"groups.cache_hit_ratio: {hits} of {lookups} all_subgroups/maximal_subgroups "
          "calls served from G._cache")
    print("self time by layer in served requests (s):  "
          + "  ".join(f"{k}={v:.3f}" for k, v in layer_self.items()))
    print(f"per-layer times are nominal seconds: span times scaled by {scale:.4f} "
          f"(set-up spans by {setup_scale:.4f})")
    print("top spans by self time:")
    for name, secs in sorted(self_s.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {secs:9.4f} s {calls[name]:>9} calls  {name}")
    print("not wrapped: " + ", ".join(tracer.unwrapped))
    failed = plain.failed + traced.failed
    emit(failed == 0, n + len(traced.spans), failed, metrics)


def load_golden(path: Path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with SpeedProbe() as probe:
        try:
            setups = [setup(args.workload) for _ in range(SETUP_REPEATS)]
        except ImportError as e:
            print(f"cannot import solvint from {ROOT / 'src'}: {e}", file=sys.stderr)
            return 2
        mods, entries, _ = setups[-1]
        golden = load_golden(HERE / "golden.json")
        print(f"run facts: {run_facts()}")
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        if args.trace:
            plan = make_plan(entries, args.workload, args.seed, args.seconds / 2)
            measure_traced(args.workload, plan, mods, golden, probe)
        else:
            plan = make_plan(entries, args.workload, args.seed, args.seconds)
            measure(plan, mods, golden, [span for _, _, span in setups], probe)
    return 0


if __name__ == "__main__":
    sys.exit(main())
