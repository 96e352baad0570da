"""The two CLI workloads: ``batch-cli`` and ``discover-repair``.

Both run ``repro`` commands as child processes.  For a CLI, set-up is
the wall time of a repair of a one-row file (interpreter start, Σ load,
consistency check, compile), and Σ admission (``sigma_upload_ms``) is
the wall time of ``repro check`` on the rule file.  A CLI keeps no
state, so restarting it is recovering it: ``recovery_s`` is the same
restart-to-first-row time as ``setup_s``, but the fastest launch rather
than the median.  The host's slow phases come and go within seconds and
a 0.4 s launch feels each one, so the median of five launches flipped
between the fast and the slow mode from run to run.
"""

from __future__ import annotations

import csv
import os
from typing import List

from common import (Result, interquartile_mean, median, record_quality,
                    run_repro, score, timed_loop)
from inputs import disc_bundle, file_digest, hosp_bundle, load_cells
from trace import layer_metrics, summarize

#: The Section 7.1 HOSP FDs, as ``repro discover --fd`` takes them.
HOSP_FD_ARGS = [
    "--fd", "PN -> HN, address1, address2, address3, city, state, zip, "
            "county, phn, ht, ho, es",
    "--fd", "phn -> zip, city, state, address1, address2, address3",
    "--fd", "MC -> MN, condition",
    "--fd", "PN, MC -> stateAvg",
    "--fd", "state, MC -> stateAvg",
]


class _Cli:
    """Runs ``repro`` commands for one workload, counting each one."""

    def __init__(self, ctx, res: Result):
        self.ctx, self.res = ctx, res
        self.calls = 0

    def path(self, name: str) -> str:
        return os.path.join(self.ctx.work, name)

    def __call__(self, args: List[str], traced: bool = False):
        self.calls += 1
        trace_out = (self.path("trace-%d.json" % self.calls)
                     if traced else None)
        result = run_repro(args, self.path("cli-%d.log" % self.calls),
                           trace_out)
        if not self.res.op(result.ok):
            self.res.check("repro %s exits 0" % args[0], False,
                           result.log[-500:])
        return result


def _startup_probes(cli: _Cli, res: Result, one: str, rules: str,
                    count: int, setup: List[float],
                    admit: List[float]) -> None:
    """*count* one-row repairs and ``repro check`` runs, appending their
    wall times to *setup* (s) and *admit* (ms)."""
    for _ in range(count):
        setup.append(cli(["repair", one, rules,
                          cli.path("one.out.csv")]).wall_s)
        checked = cli(["check", "--strategy", "blocked", rules])
        admit.append(checked.wall_s * 1000.0)
        res.check("repro check: Σ consistent (blocked)",
                  checked.ok and "CONSISTENT" in checked.log,
                  checked.log[-300:])


def _startup_metrics(res: Result, setup: List[float],
                     admit: List[float]) -> None:
    res.metric("setup_s", median(setup), "s")
    res.metric("recovery_s", min(setup), "s")
    res.metric("sigma_upload_ms", interquartile_mean(admit), "ms")
    res.info["setup_samples_s"] = setup
    res.info["check_samples_ms"] = admit


def _latency_metrics(res: Result, walls: List[float], rows: int) -> None:
    res.metric("rows_per_s", median([rows / w for w in walls]), "rows/s")
    res.metric("p50_ms", median(walls) * 1000.0, "ms")
    res.info["walls_s"] = walls


def _traced_layers(res: Result, untraced: list, traced: list,
                   rows: int) -> None:
    """Per-layer metrics, per invocation, from the traced calls."""
    dumps = [path for step in traced for path in step["traces"]]
    summary = summarize(dumps)
    walls = [step["wall"] for step in traced]
    layers = layer_metrics(summary, per=len(traced))
    base = median([rows / step["wall"] for step in untraced])
    with_trace = median([rows / w for w in walls])
    layers["trace.overhead_frac"] = 1.0 - with_trace / base
    in_layers = sum(layers[name] for name in layers if name.endswith("_s"))
    layers["trace.unattributed_s"] = sum(walls) / len(walls) - in_layers
    # how the layer self times add up against the untraced wall time
    res.info["layer_self_sum_s"] = in_layers
    res.info["untraced_wall_s"] = median([s["wall"] for s in untraced])
    res.info["traced_wall_s"] = median(walls)
    res.info["layers"] = {name: dict(entry, self_s=entry["self_s"]
                                     / len(traced))
                          for name, entry in summary["layers"].items()}
    res.layers = layers


def batch_cli(ctx, res: Result) -> None:
    """``repro repair DIRTY.csv RULES.json OUT.csv`` with default flags."""
    bundle = hosp_bundle(ctx.size, ctx.seed, csv_files=True, quality=True)
    dirty, rules = os.path.join(bundle["csv"], "dirty.csv"), \
        bundle["rules_path"]
    rows = bundle["rows"]
    cli = _Cli(ctx, res)
    out = cli.path("out.csv")

    def step(traced: bool = False) -> dict:
        if os.path.exists(out):
            os.remove(out)
        done = cli(["repair", dirty, rules, out], traced=traced)
        same = done.ok and file_digest(out) == bundle["oracle_digest"]
        res.check("output CSV equals the row-engine oracle", same,
                  "digest mismatch" if done.ok else "repair failed")
        res.info.setdefault("cpu_s", []).append(done.cpu_s)
        return {"wall": done.wall_s, "rss": done.peak_rss_mb,
                "traces": [done.trace_out] if traced else []}

    if ctx.trace:
        untraced = timed_loop(ctx.seconds / 2, step)
        traced = timed_loop(ctx.seconds / 2, lambda: step(True))
        _traced_layers(res, untraced, traced, rows)
        return
    # set-up samples before and after the timed loop, so that they span
    # the whole run rather than one phase of the host
    one, setup, admit = os.path.join(bundle["csv"], "one.csv"), [], []
    repeats = int(ctx.cfg["repeats"])
    _startup_probes(cli, res, one, rules, repeats - repeats // 2, setup,
                    admit)
    steps = timed_loop(ctx.seconds, step)
    _startup_probes(cli, res, one, rules, repeats // 2, setup, admit)
    _startup_metrics(res, setup, admit)
    _latency_metrics(res, [s["wall"] for s in steps], rows)
    res.metric("peak_rss_mb", max(s["rss"] for s in steps), "MB")
    # the output was checked byte-identical to the oracle, so the
    # oracle's scores (computed once per seed) are the output's
    record_quality(res, bundle["quality"])


def _read_cells(path: str, attrs: List[str]) -> List[List[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        if next(reader) != attrs:
            raise ValueError("%s: unexpected header" % path)
        return list(reader)


def discover_repair(ctx, res: Result) -> None:
    """``repro discover`` then ``repro repair`` with the mined Σ."""
    bundle = disc_bundle(ctx.size, ctx.seed)
    dirty = os.path.join(bundle["csv"], "dirty.csv")
    rows = bundle["rows"]
    cli = _Cli(ctx, res)
    mined, out = cli.path("mined.json"), cli.path("out.csv")
    digests = set()

    def step(traced: bool = False) -> dict:
        found = cli(["discover", dirty, mined, *HOSP_FD_ARGS,
                     "--min-confidence", "0.7"], traced=traced)
        fixed = cli(["repair", dirty, mined, out], traced=traced)
        if found.ok and fixed.ok:
            digests.add(file_digest(out))
        return {"wall": found.wall_s + fixed.wall_s,
                "rss": max(found.peak_rss_mb, fixed.peak_rss_mb),
                "traces": [found.trace_out, fixed.trace_out]
                if traced else []}

    if ctx.trace:
        untraced = timed_loop(ctx.seconds / 2, step)
        traced = timed_loop(ctx.seconds / 2, lambda: step(True))
        _traced_layers(res, untraced, traced, rows)
        res.check("discovery is deterministic", len(digests) == 1)
        return
    steps = timed_loop(ctx.seconds, step)
    res.check("discovery is deterministic", len(digests) == 1,
              "%d distinct outputs" % len(digests))
    setup, admit = [], []
    _startup_probes(cli, res, os.path.join(bundle["csv"], "one.csv"), mined,
                    int(ctx.cfg["repeats"]), setup, admit)
    _startup_metrics(res, setup, admit)
    _latency_metrics(res, [s["wall"] for s in steps], rows)
    res.metric("peak_rss_mb", max(s["rss"] for s in steps), "MB")
    attrs = bundle["attrs"]
    record_quality(res, score(attrs, load_cells(bundle["tables"], "clean"),
                              load_cells(bundle["tables"], "dirty"),
                              _read_cells(out, attrs)))
