"""The repository benchmark: one command, four workloads, every layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-cli --seed 7 --seconds 10 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload half untraced and half under the span recorder and
reports the per-layer metrics plus the tracing overhead.  Metric names,
units and workloads are read from ``BENCHMARK.json``.  A human-readable
report goes first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is
0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def environment(seed: int, why: str) -> dict:
    """What every result records about the machine and the inputs."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_NO_NUMPY": "REPRO_NO_NUMPY" in os.environ,
        "seed": seed,
        "why": why,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; 'smoke' is for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: src/repro not found under %s; run from a checkout "
              "of the repository" % ROOT, file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(whys)))
    seconds = args.seconds or float(spec["run_seconds"])

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from cli_workloads import batch_cli, discover_repair
    from common import WORK, Result
    from inputs import SIZES
    from serve_workloads import serve_delta, serve_repair
    workloads = {"batch-cli": batch_cli, "serve-repair": serve_repair,
                 "serve-delta": serve_delta,
                 "discover-repair": discover_repair}

    work = os.path.join(WORK, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = argparse.Namespace(size=args.size, seed=args.seed,
                             seconds=seconds, trace=bool(args.trace),
                             work=work, cfg=SIZES[args.size])
    # the serve clients are threads of this process: a short switch
    # interval keeps one from waiting on the other for the GIL
    sys.setswitchinterval(0.0005)
    env = environment(args.seed, whys[args.workload])
    res = Result()
    error = None
    try:
        workloads[args.workload](ctx, res)
    except Exception:  # report, then fail the run without metrics
        error = traceback.format_exc()
        print(error, file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    if error is None:
        if args.trace:
            values = {name: (value, None) for name, value
                      in (res.layers or {}).items()}
        else:
            values = dict(res.metrics)
            values["success_rate"] = (
                1.0 - res.failed / max(1, res.attempted), "ratio")
        for entry in wanted:
            value, unit = values.get(entry["name"], (0.0, None))
            if unit is not None and unit != entry["unit"]:
                raise ValueError("%s measured in %s, BENCHMARK.json says %s"
                                 % (entry["name"], unit, entry["unit"]))
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        res.check("every metric measured",
                  args.trace or all(e["name"] in values for e in wanted),
                  ", ".join(e["name"] for e in wanted
                            if e["name"] not in values))
    correct = error is None and res.correct and res.failed == 0

    report = {"workload": args.workload, "trace": args.trace,
              "seconds": seconds, "size": args.size, "env": env,
              "error_rate": res.failed / max(1, res.attempted),
              "checks": sorted({(n, ok, d) for n, ok, d in res.checks}),
              "info": res.info, "metrics": metrics}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)

    print("# %s seed=%d trace=%d seconds=%g size=%s"
          % (args.workload, args.seed, args.trace, seconds, args.size))
    print("# why: %s" % env["why"])
    print("# env: %s" % json.dumps({k: v for k, v in env.items()
                                    if k != "why"}))
    for name, entry in metrics.items():
        print("  %-28s %16.6g %s" % (name, entry["value"], entry["unit"]))
    print("  %-28s %16.6g %s" % ("error_rate", report["error_rate"],
                                 "ratio (failed / attempted)"))
    failed_checks = [c for c in res.checks if not c[1]]
    print("# checks: %d run, %d failed" % (len(res.checks),
                                          len(failed_checks)))
    for name, _ok, detail in failed_checks[:10]:
        print("#   FAILED %s: %s" % (name, detail))
    print("# info: %s" % json.dumps(res.info, default=str)[:2000])
    print(json.dumps({"correct": correct,
                      "attempted": max(1, res.attempted),
                      "failed": res.failed if error is None
                      else max(1, res.failed),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
