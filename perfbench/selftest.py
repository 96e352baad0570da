"""Smoke-size self-test of the benchmark harness.

Runs every workload at ``--size smoke``, untraced and traced, and
checks that each run passes its own output checks and emits every
metric named in ``BENCHMARK.json`` with its unit, and that the traced
run measures the layers each workload exists to exercise.  Takes a few
minutes::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: per workload, per-layer metrics a traced smoke run must see non-zero
EXERCISED = {
    "batch-cli": ["csvio.read_s", "csvio.write_s", "serialization.load_s",
                  "engine.compile_s", "consistency.check_s",
                  "columnar.encode_s", "columnar.scan_s",
                  "columnar.candidates", "engine.apply_calls",
                  "repair.table_s"],
    "serve-repair": ["pool.repair_s", "serve.pool_requests",
                     "supervisor.chunks_submitted", "registry.upload_s",
                     "serve.daemon_p50_ms"],
    "serve-delta": ["delta.apply_rows_s", "delta.apply_rules_s",
                    "delta.log_records", "durability.fsyncs",
                    "durability.wal_appends", "recovery.rebuild_s",
                    "recovery.sessions_replayed"],
    "discover-repair": ["mining.mine_s", "mining.candidates",
                        "resolve.resolve_s", "resolve.kept_ratio",
                        "consistency.pairs_examined"],
}


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "2", "--trace", str(trace),
         "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s trace=%d exited %d:\n%s\n%s"
                             % (workload, trace, proc.returncode,
                                proc.stdout[-2000:], proc.stderr[-2000:]))
    return json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            try:
                result = run(workload, trace)
            except (AssertionError, subprocess.TimeoutExpired) as exc:
                failures.append(str(exc))
                continue
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("result keys %s" % sorted(result))
            if not result["correct"] or result["failed"]:
                problems.append("run not correct")
            metrics = result["metrics"]
            for entry in spec[key]:
                got = metrics.get(entry["name"])
                if got is None or got.get("unit") != entry["unit"] \
                        or not isinstance(got.get("value"), (int, float)):
                    problems.append("%s missing or without unit %s"
                                    % (entry["name"], entry["unit"]))
            if set(metrics) != {e["name"] for e in spec[key]}:
                problems.append("unexpected metrics")
            if trace:
                problems += ["%s not measured" % name
                             for name in EXERCISED[workload]
                             if not metrics.get(name, {}).get("value")]
            else:
                problems += ["%s is 0" % e["name"] for e in spec[key]
                             if not metrics.get(e["name"], {}).get("value")]
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("%-16s trace=%d %s" % (workload, trace, status), flush=True)
            if problems:
                failures.append("%s trace=%d" % (workload, trace))
    print("self-test %s" % ("passed" if not failures else
                            "FAILED: " + "; ".join(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
