#!/usr/bin/env python3
"""The benchmark's own test: every workload, untraced and traced, in the
short mode (tiny inputs, one set-up, one second of measuring).

Each run must exit 0, end with a result line whose outputs are correct,
and report every metric BENCHMARK.json names for its mode, each with
the declared unit and a finite value. Run from the checkout root:

    python3 perfbench/test_bench.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--short"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return [f"{where}: no output"]
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: outputs not correct: {proc.stderr.strip()[-400:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result.get('attempted')}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"{where}: missing metric {m['name']}")
        elif got.get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got.get('unit')} != {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            errors.append(f"{where}: {m['name']} value {got.get('value')} is not finite")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        errors.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    report = json.loads(lines[-2]) if len(lines) > 1 else {}
    if "work_digest" not in report or "environment" not in report:
        errors.append(f"{where}: report line lacks the work digest or the environment")
    return errors


# Runnable by hand but not in BENCHMARK.json (see README.md).
UNLISTED = ["serve_mix"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for name in [w["name"] for w in spec["workloads"]] + UNLISTED:
        for trace in (0, 1):
            errs = check_run(spec, name, trace)
            print(f"{name} trace={trace}: {'ok' if not errs else 'FAIL'}", flush=True)
            errors += errs
    for e in errors:
        print(e, file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
