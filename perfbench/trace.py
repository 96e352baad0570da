"""Span recorder for the traced run, and the traced ``repro`` launcher.

Run as ``python perfbench/trace.py OUT.json <repro args...>``: it wraps
each layer's public functions (where their callers look them up), runs
``repro.cli.main(<repro args>)`` and, when that returns, writes every
span plus the per-layer totals to ``OUT.json``.

Each call into a wrapped function records one span: id, layer name,
start, end (``perf_counter_ns``) and the id of the enclosing span,
found through a ``contextvars`` variable.  A layer's self time is the
sum of its spans' durations minus the part covered by their child
spans.  Executor threads start with an empty context, so work the
daemon hands to a thread becomes a root span.  Forked pool workers
disable the recorder: their spans would die with them, so the pool
layer is measured as the parent's wait in ``ServePool.repair``.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: span name -> the per-layer metric that reports its self time
LAYER_TIMES = {
    "csvio.read": "csvio.read_s",
    "csvio.write": "csvio.write_s",
    "serialization.load": "serialization.load_s",
    "engine.compile": "engine.compile_s",
    "consistency.check": "consistency.check_s",
    "columnar.encode": "columnar.encode_s",
    "columnar.scan": "columnar.scan_s",
    "engine.apply": "engine.apply_s",
    "repair.table": "repair.table_s",
    "pool.repair": "pool.repair_s",
    "registry.upload": "registry.upload_s",
    "delta.apply_rows": "delta.apply_rows_s",
    "delta.apply_rules": "delta.apply_rules_s",
    "durability.fsync": "durability.fsync_s",
    "recovery.rebuild": "recovery.rebuild_s",
    "mining.mine": "mining.mine_s",
    "resolve.resolve": "resolve.resolve_s",
}

#: counters the wrappers accumulate
COUNTERS = (
    "consistency.pairs_examined", "consistency.pairs_pruned",
    "columnar.candidates", "columnar.rows_changed",
    "engine.apply_calls", "engine.fixes",
    "delta.rows_affected",
    "durability.fsyncs", "durability.wal_appends", "durability.wal_bytes",
    "recovery.sessions_replayed",
    "mining.groups_scanned", "mining.candidates", "mining.vetoed_rows",
    "resolve.kept", "resolve.dropped", "resolve.revised",
)


class SpanRecorder:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.run_id = "%d-%d" % (os.getpid(), time.time_ns())
        self.spans: List[tuple] = []
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.enabled = True
        self._lock = threading.Lock()   # counters: daemon executor threads
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False
        self.spans = []

    def add(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """*fn* recording a span per call; ``after(result)`` counts."""
        rec = self

        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            parent = rec._current.get()
            sid = next(rec._ids)
            token = rec._current.set(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                rec._current.reset(token)
                rec.spans.append((sid, name, start, end, parent))
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layers(self) -> Dict[str, dict]:
        """Per span name: calls, total and self seconds."""
        child_ns: Dict[int, int] = {}
        for _sid, _name, start, end, parent in self.spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        out: Dict[str, dict] = {}
        for sid, name, start, end, _parent in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns.get(sid, 0)) / 1e9
        return out

    def dump(self, path: str) -> None:
        from repro.core.instrumentation import ENGINE_STATS
        self.counters["consistency.pairs_examined"] = \
            ENGINE_STATS.pairs_examined
        self.counters["consistency.pairs_pruned"] = ENGINE_STATS.pairs_pruned
        payload = {"run_id": self.run_id, "pid": os.getpid(),
                   "layers": self.layers(), "counters": self.counters,
                   "spans": self.spans}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def install(rec: SpanRecorder) -> None:
    """Wrap every traced entry point where its caller looks it up."""
    import repro.cli as cli
    from repro.core import columnar, consistency, delta, engine, repair
    from repro.discovery import resolve, session
    from repro.durability import faults, recovery, store
    from repro.serve import pool, registry

    def patch(owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), after))

    def bump(name: str, measure: Callable) -> Callable:
        return lambda result: rec.add(name, measure(result))

    def count_fixes(result) -> None:
        rec.add("engine.apply_calls", 1)
        if result is not None:
            rec.add("engine.fixes", len(result[1]))

    def mined(result) -> None:
        report = result.report
        rec.add("mining.groups_scanned", report.groups_scanned)
        rec.add("mining.candidates", report.candidates)
        rec.add("mining.vetoed_rows", report.vetoed_rows)

    def resolved(result) -> None:
        summary = result.describe()
        for key in ("kept", "dropped", "revised"):
            rec.add("resolve." + key, summary[key])

    def count_frame(fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            frame = fn(*args, **kwargs)
            if rec.enabled:
                rec.add("durability.wal_appends", 1)
                rec.add("durability.wal_bytes", len(frame))
            return frame
        return counted

    patch(cli, "read_csv", "csvio.read")
    patch(cli, "write_csv", "csvio.write")
    patch(cli, "load_ruleset", "serialization.load")
    patch(registry, "ruleset_from_json", "serialization.load")
    patch(engine.CompiledRuleSet, "__init__", "engine.compile")
    patch(engine.CompiledRuleSet, "repair_values", "engine.apply",
          count_fixes)
    for owner in (consistency, cli, resolve):
        patch(owner, "find_conflicts", "consistency.check")
    for owner in (consistency, registry):
        patch(owner, "find_conflicts_cached", "consistency.check")
    patch(columnar.ColumnarTable, "_encode", "columnar.encode")
    patch(columnar.ColumnarKernel, "candidate_indices", "columnar.scan",
          bump("columnar.candidates", len))
    patch(columnar, "columnar_repair_table", "repair.table",
          bump("columnar.rows_changed", lambda r: len(r._applied_by_row)))
    for owner in (repair, cli):
        patch(owner, "repair_table", "repair.table")
    patch(pool.ServePool, "repair", "pool.repair")
    patch(registry.RulesetRegistry, "upload", "registry.upload")
    for method in ("apply_rows", "apply_rules"):
        patch(delta.DeltaRepairSession, method, "delta." + method,
              bump("delta.rows_affected", lambda r: len(r.affected)))
    for owner in (faults, store):
        patch(owner, "durable_fsync", "durability.fsync",
              bump("durability.fsyncs", lambda _r: 1))
    store.encode_frame = count_frame(store.encode_frame)
    patch(recovery.RecoveryManager, "rebuild", "recovery.rebuild",
          bump("recovery.sessions_replayed", lambda r: len(r["sessions"])))
    patch(session, "mine_candidates", "mining.mine", mined)
    patch(session, "resolve_by_weight", "resolve.resolve", resolved)


def summarize(paths: List[str]) -> dict:
    """Merge the dumps of several traced processes."""
    layers: Dict[str, dict] = {}
    counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
    spans = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        spans += len(payload["spans"])
        for name, entry in payload["layers"].items():
            into = layers.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
        for name, value in payload["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"layers": layers, "counters": counters, "spans": spans,
            "processes": len(paths)}


def layer_metrics(summary: dict, per: float = 1.0) -> Dict[str, float]:
    """Per-layer metrics from a :func:`summarize` result, divided by
    *per* (the number of CLI invocations a CLI workload traced)."""
    layers, counts = summary["layers"], summary["counters"]
    out = {metric: layers.get(span, {}).get("self_s", 0.0) / per
           for span, metric in LAYER_TIMES.items()}
    for name in COUNTERS:
        out[name] = counts[name] / per
    for name in ("columnar.rows_changed", "resolve.kept"):
        del out[name]
    out["columnar.useful_ratio"] = (
        counts["columnar.rows_changed"] / counts["columnar.candidates"]
        if counts["columnar.candidates"] else 0.0)
    out["resolve.kept_ratio"] = (
        counts["resolve.kept"] / counts["mining.candidates"]
        if counts["mining.candidates"] else 0.0)
    return out


def main(argv: List[str]) -> int:
    out, args = argv[0], argv[1:]
    rec = SpanRecorder()
    install(rec)
    import repro.cli
    try:
        return repro.cli.main(args)
    finally:
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
