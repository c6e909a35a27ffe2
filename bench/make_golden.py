"""Record the golden SHA-256 digest of every catalogue request's report.

    python3 bench/make_golden.py

Run it from the root of a checkout of the commit whose results are taken
as correct; it rewrites ``golden.json`` next to this file.  Every
benchmark request is checked against these digests, so any change in a
report's bytes counts as a failed request.
"""

from __future__ import annotations

import hashlib
import json

import run
import workloads


def main() -> None:
    mods = run.import_solvint()
    golden = {}
    for workload in workloads.WORKLOADS:
        for req, _copies in run.build_plan_inputs(workload):
            body, failures = run.execute(mods["cli"], req)
            if failures:
                raise SystemExit(f"{req['id']} reports {failures} failures")
            golden[req["id"]] = hashlib.sha256(body).hexdigest()
            print(f"{golden[req['id']][:16]}  {req['id']}", flush=True)
    with open(run.HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
