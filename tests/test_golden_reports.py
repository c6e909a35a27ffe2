"""Every benchmark report keeps its golden bytes.

Renders each `spec-mix`, `tower` and `calculus` catalogue request (the
calculus ones are the 12 `interKM/<seed>` requests) through
`build_plan_inputs` and `execute` of bench/run.py, and compares each
report's SHA-256 with bench/golden.json.
The bench module is loaded read-only; the package is the one the tests
already imported, so nothing is reloaded.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from solvint import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPEC = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
RUN = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(RUN)
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
REQUESTS = [req for workload in ("spec-mix", "tower", "calculus")
            for req, _copies in RUN.build_plan_inputs(workload)]


@pytest.mark.parametrize("req", REQUESTS, ids=[req["id"] for req in REQUESTS])
def test_report_matches_its_golden_digest(req):
    body, failures = RUN.execute(cli, req)
    assert failures == 0
    assert hashlib.sha256(body).hexdigest() == GOLDEN[req["id"]]
