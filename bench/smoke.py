"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs a few requests of every workload in-process, plain and traced, and
checks that the last output line carries exactly the metrics BENCHMARK.json
names, with their units, and no failures.  Then checks that corrupted
golden digests make requests fail, and that the benchmark refuses to run
(non-zero exit, no result line) in a directory holding only BENCHMARK.json
and the benchmark's own files.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY_REQUESTS = 3


def result(measure, *args) -> dict:
    """Last stdout line of one in-process measure call, as a dict."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        measure(*args)
    doc = json.loads(out.getvalue().strip().splitlines()[-1])
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(doc)}")
    return doc


def check_metrics(doc: dict, spec: list[dict], label: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    if got != want:
        raise AssertionError(f"{label}: metrics {got} != {want}")
    if not (doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1):
        raise AssertionError(f"{label}: {doc['attempted']} attempted, {doc['failed']} failed")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden = run.load_golden(HERE / "golden.json")
    with run.SpeedProbe() as probe:
        for workload in workloads.WORKLOADS:
            mods, entries, setup_span = run.setup(workload)
            plan = [next(workloads.rounds(entries, workload, 7))[:TINY_REQUESTS]]
            doc = result(run.measure, plan, mods, golden, [setup_span], probe)
            check_metrics(doc, bench["end_to_end"], f"{workload} trace=0")
            print(f"ok   {workload} trace=0: {len(doc['metrics'])} metrics")
            doc = result(run.measure_traced, workload, plan, mods, golden, probe)
            check_metrics(doc, bench["per_layer"], f"{workload} trace=1")
            print(f"ok   {workload} trace=1: {len(doc['metrics'])} metrics")

        corrupt = {k: v[::-1] for k, v in golden.items()}
        doc = result(run.measure, plan, mods, corrupt, [setup_span], probe)
    if (doc["correct"] or doc["failed"] != doc["attempted"]
            or doc["metrics"]["ok_frac"]["value"] != 0):
        raise AssertionError(f"corrupted golden digests were not caught: {doc}")
    print(f"ok   corrupted golden: failed_frac = {doc['failed'] / doc['attempted']:g}")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tower", "--seed", "7",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip().startswith("{") or '"metrics"' in proc.stdout:
        raise AssertionError(f"benchmark ran without the program: exit {proc.returncode}")
    print(f"ok   without the program: exit {proc.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
