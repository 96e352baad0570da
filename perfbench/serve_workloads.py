"""The two daemon workloads: ``serve-repair`` and ``serve-delta``.

``repro serve`` runs as a child process on a loopback port and the
benchmark is its only client: one process, two keep-alive connections,
closed loop (a connection sends its next request when the previous
answer is in).  Set-up is launch until the acknowledged Σ upload(s)
and ``/readyz`` 200.  A daemon without ``--state-dir`` has nothing to
recover, so for ``serve-repair`` restart-to-ready (``recovery_s``) is
its set-up time; ``serve-delta`` restarts on its state dir and times
the replay.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import statistics
import threading
import time
from typing import Dict, List, Tuple

from common import (BenchError, Client, Daemon, Result, interquartile_mean,
                    median, percentile, record_quality, score, settle,
                    windowed_rate)
from inputs import hosp_bundle, load_cells
from trace import layer_metrics, summarize

#: /metrics counters that must stay 0 on a healthy run, by layer metric
FAULT_COUNTERS = {
    "serve.fallbacks": "fallbacks_total",
    "serve.timeouts": "timeouts_total",
    "admission.shed": "admission_shed_total",
    "supervisor.chunk_retries": "supervisor_chunk_retries",
    "supervisor.worker_deaths": "supervisor_worker_deaths",
}
WORK_COUNTERS = {
    "serve.pool_requests": 'requests_engine_total{engine="pool"}',
    "serve.serial_requests": 'requests_engine_total{engine="serial"}',
    "supervisor.chunks_submitted": "supervisor_chunks_submitted",
}
#: Delta batches between two Σ re-uploads (one rule removed/restored).
#: Each upload stalls the other tenant's in-flight batch behind the
#: session sync, so p99 (reported, not bounded) mixes those stalls with
#: the fsync tail; p50 is what is bounded.
CHURN_EVERY = 50


class _Server:
    """Boots daemons for one workload run and keeps their logs apart."""

    def __init__(self, ctx, res: Result):
        self.ctx, self.res = ctx, res
        self.boots = 0
        self.traces: List[str] = []
        self.uploads: List[float] = []

    def launch(self, args: List[str], traced: bool = False) -> Daemon:
        self.boots += 1
        trace_out = None
        if traced:
            trace_out = os.path.join(self.ctx.work,
                                     "trace-%d.json" % self.boots)
            self.traces.append(trace_out)
        return Daemon(args, os.path.join(self.ctx.work,
                                         "serve-%d.log" % self.boots),
                      trace_out)

    def boot(self, args: List[str], uploads: List[Tuple[str, str]],
             traced: bool = False) -> Tuple[Daemon, float]:
        """Start a daemon, upload Σ per tenant; returns (daemon,
        seconds from launch to the last acknowledged upload and
        ``/readyz`` 200).  Upload latencies go to ``self.uploads``."""
        daemon = self.launch(args, traced)
        client = Client(daemon.port)
        try:
            for tenant, text in uploads:
                start = time.perf_counter()
                status, body = client.request(
                    "POST", "/rulesets/%s" % tenant, text.encode("utf-8"))
                self.uploads.append(time.perf_counter() - start)
                if not self.res.op(status == 200):
                    daemon.stop()
                    raise BenchError("Σ upload answered %d: %s"
                                     % (status, body[:300]))
        finally:
            client.close()
        daemon.wait_ready()
        return daemon, time.perf_counter() - daemon.started

    def stop(self, daemon: Daemon) -> float:
        code, rss = daemon.stop()
        self.res.check("daemon drains and exits 0", code == 0,
                       daemon.log_text()[-300:])
        return rss


def _run_clients(targets) -> float:
    """Run one thread per target until all finish; returns wall s."""
    threads = [threading.Thread(target=fn, args=args) for fn, args in targets]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def _p99_ms(samples: List[float]) -> float:
    return percentile(samples, 0.99) * 1000.0


def _latencies(res: Result, samples: List[float]) -> None:
    res.metric("p50_ms", median(samples) * 1000.0, "ms")
    res.info["p99_ms"] = _p99_ms(samples)
    res.info["requests"] = len(samples)
    res.info["samples_beyond_p99"] = len(samples) - int(0.99 * len(samples))
    res.info["slowest_ms"] = [round(1000.0 * v, 1)
                              for v in sorted(samples)[-25:]]


def _fault_check(res: Result, metrics: Dict[str, float]) -> None:
    faults = {name: metrics.get(key, 0.0)
              for name, key in FAULT_COUNTERS.items()}
    res.check("daemon fault counters are 0", not any(faults.values()),
              json.dumps(faults))


# -- serve-repair -------------------------------------------------------------

def serve_repair(ctx, res: Result) -> None:
    """2 connections, closed loop, ``POST /repair`` of 200-row batches."""
    bundle = hosp_bundle(ctx.size, ctx.seed, quality=True)
    dirty = load_cells(bundle["tables"], "dirty")
    oracle = load_cells(bundle["tables"], "oracle")
    with open(bundle["rules_path"], encoding="utf-8") as handle:
        sigma = [("bench", handle.read())]
    size = int(ctx.cfg["serve_batch"])
    spans = [(a, min(a + size, len(dirty))) for a in range(0, len(dirty),
                                                            size)]
    bodies = [json.dumps({"rows": dirty[a:b]}).encode("utf-8")
              for a, b in spans]
    expected = [oracle[a:b] for a, b in spans]
    settle()
    server = _Server(ctx, res)

    def client(port: int, deadline: float, ticket, out: list) -> None:
        # responses are checked after the loop, so that decoding them
        # does not hold the GIL while the other connection waits
        conn = Client(port)
        try:
            while time.perf_counter() < deadline:
                i = next(ticket) % len(bodies)
                start = time.perf_counter()
                status, body = conn.request("POST", "/repair?tenant=bench",
                                            bodies[i])
                end = time.perf_counter()
                out.append((end - start, status, i, body, end))
        finally:
            conn.close()

    def load(daemon: Daemon, seconds: float):
        out: list = []
        ticket = itertools.count()
        begin = time.perf_counter()
        deadline = begin + seconds
        wall = _run_clients([(client, (daemon.port, deadline, ticket, out))
                             for _ in range(2)])
        metrics = daemon.metrics()
        _fault_check(res, metrics)
        checked = [(latency, status == 200 and json.loads(body)["rows"]
                    == expected[i], i, end)
                   for latency, status, i, body, end in out]
        for _latency, same, _i, _end in checked:
            res.op(same)
        res.check("every response equals the oracle rows",
                  all(c[1] for c in checked),
                  "%d failed or mismatching"
                  % sum(1 for c in checked if not c[1]))
        rate = windowed_rate([(end, spans[i][1] - spans[i][0])
                              for _l, same, i, end in checked if same],
                             begin, wall)
        res.info["daemon_p99_ms"] = 1000.0 * metrics.get(
            'repair_latency_seconds{quantile="0.99"}', 0.0)
        return checked, rate, metrics

    if ctx.trace:
        daemon, _ = server.boot([], sigma)
        plain, plain_rate, plain_metrics = load(daemon, ctx.seconds / 2)
        server.stop(daemon)
        daemon, _ = server.boot([], sigma, traced=True)
        _out, traced_rate, metrics = load(daemon, ctx.seconds / 2)
        server.stop(daemon)
        layers = layer_metrics(summarize(server.traces))
        daemon_p50 = plain_metrics['repair_latency_seconds{quantile="0.5"}']
        layers["serve.daemon_p50_ms"] = daemon_p50 * 1000.0
        layers["serve.http_overhead_ms"] = (
            median([s[0] for s in plain]) - daemon_p50) * 1000.0
        layers["latency.p99_ms"] = _p99_ms([s[0] for s in plain])
        for name, key in {**FAULT_COUNTERS, **WORK_COUNTERS}.items():
            layers[name] = metrics.get(key, 0.0)
        layers["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
        res.layers = layers
        return

    setups = []
    for attempt in range(int(ctx.cfg["repeats"])):
        daemon, setup = server.boot([], sigma)
        setups.append(setup)
        if attempt < int(ctx.cfg["repeats"]) - 1:
            server.stop(daemon)
    out, rate, _metrics = load(daemon, ctx.seconds)
    rss = server.stop(daemon)
    res.metric("rows_per_s", rate, "rows/s")
    _latencies(res, [s[0] for s in out])
    res.metric("setup_s", median(setups), "s")
    res.metric("recovery_s", median(setups), "s")
    res.metric("sigma_upload_ms", 1000.0 * interquartile_mean(server.uploads),
               "ms")
    res.metric("peak_rss_mb", rss, "MB")
    served = sorted({i for _l, same, i, _end in out if same})
    if len(served) == len(spans):
        quality = bundle["quality"]
    else:
        rows = [r for i in served for r in range(*spans[i])]
        clean = load_cells(bundle["tables"], "clean")
        quality = score(bundle["attrs"], [clean[r] for r in rows],
                        [dirty[r] for r in rows], [oracle[r] for r in rows])
    record_quality(res, quality)


# -- serve-delta --------------------------------------------------------------

class _DeltaStream:
    """One tenant's seeded op stream and the state the daemon acked.

    A batch is ~65% new ids, ~30% updates of live ids and ~5% deletes.
    An update swaps a row between two independently noised versions of
    the same clean row, so the ground truth never changes.
    """

    def __init__(self, tenant: str, rng: random.Random, dirty, dirty_b,
                 batch: int, sigmas: List[Tuple[str, str]]):
        self.tenant, self.rng = tenant, rng
        self.versions = (dirty, dirty_b)
        self.batch = batch
        self.sigmas = sigmas          # (key, json) churn cycle
        self.sigma_key = "full"
        self.uploads = 0
        self.next_id = 0
        self.live: List[str] = []
        self.live_pos: Dict[str, int] = {}
        self.sent: Dict[str, Tuple[int, int]] = {}   # id -> (row, version)

    def _drop(self, rid: str) -> None:
        """Swap-remove *rid* from ``live`` in O(1)."""
        i = self.live_pos.pop(rid)
        last = self.live.pop()
        if last != rid:
            self.live[i] = last
            self.live_pos[last] = i

    def next_batch(self) -> Tuple[bytes, tuple]:
        n_del = self.batch * 5 // 100
        n_upd = self.batch * 30 // 100
        deletes = self.rng.sample(self.live, min(n_del, len(self.live)))
        gone = set(deletes)
        picks = self.rng.sample(self.live, min(len(self.live),
                                               n_upd + len(deletes)))
        updates = [rid for rid in picks if rid not in gone][:n_upd]
        upserts = []
        for rid in updates:
            row, version = self.sent[rid]
            upserts.append((rid, row, 1 - version))
        rows = len(self.versions[1])
        while len(upserts) < self.batch - len(deletes):
            upserts.append((str(self.next_id), self.next_id % rows, 0))
            self.next_id += 1
        body = {"upserts": [{"id": rid, "values": self.versions[v][row]}
                            for rid, row, v in upserts],
                "deletes": deletes}
        return json.dumps(body).encode("utf-8"), (deletes, upserts)

    def ack(self, pending: tuple) -> None:
        deletes, upserts = pending
        for rid in deletes:
            self._drop(rid)
            del self.sent[rid]
        for rid, row, version in upserts:
            if rid not in self.sent:
                self.live_pos[rid] = len(self.live)
                self.live.append(rid)
            self.sent[rid] = (row, version)

    def next_sigma(self) -> Tuple[str, str]:
        key, text = self.sigmas[self.uploads % len(self.sigmas)]
        self.uploads += 1
        return key, text

    def expected_rows(self, sigma_text: str) -> Dict[str, List[str]]:
        """Every acked live row, repaired under *sigma_text*."""
        from repro.core.engine import CompiledRuleSet
        from repro.core.serialization import ruleset_from_json
        rules = ruleset_from_json(sigma_text)
        engine = CompiledRuleSet(rules.schema, list(rules))
        out = {}
        for rid, (row, version) in self.sent.items():
            values = list(self.versions[version][row])
            fixed = engine.repair_values(values)
            out[rid] = values if fixed is None else list(fixed[0])
        return out


def _sigma_cycle(text: str, seed: int, count: int = 16
                 ) -> List[Tuple[str, str]]:
    """Σ re-uploads: alternately one (seeded) rule removed, then all."""
    payload = json.loads(text)
    rules = payload["rules"]
    rng = random.Random(seed)
    cycle = []
    for _ in range(count // 2):
        j = rng.randrange(len(rules))
        cycle.append(("minus-%d" % j, json.dumps(
            dict(payload, rules=rules[:j] + rules[j + 1:]))))
        cycle.append(("full", text))
    return cycle


def serve_delta(ctx, res: Result) -> None:
    """2 tenants x 1 connection streaming ``POST /repair/delta``."""
    bundle = hosp_bundle(ctx.size, ctx.seed, updates=True)
    dirty = load_cells(bundle["tables"], "dirty")
    dirty_b = load_cells(bundle["updates"], "dirty_b")
    with open(bundle["rules_path"], encoding="utf-8") as handle:
        full = handle.read()
    tenants = ("alpha", "beta")
    uploads = [(t, full) for t in tenants]
    settle()
    server = _Server(ctx, res)

    def fresh_state() -> str:
        path = os.path.join(ctx.work, "state-%d" % (server.boots + 1))
        shutil.rmtree(path, ignore_errors=True)
        return path

    def streams() -> List[_DeltaStream]:
        return [_DeltaStream(t, random.Random(ctx.seed * 1009 + i), dirty,
                             dirty_b, int(ctx.cfg["delta_batch"]),
                             _sigma_cycle(full, ctx.seed * 7 + i))
                for i, t in enumerate(tenants)]

    def client(port, stream: _DeltaStream, deadline, out, churn,
               limit) -> None:
        conn = Client(port)
        sent = 0
        try:
            while time.perf_counter() < deadline and sent < limit:
                if sent and sent % CHURN_EVERY == 0:
                    key, text = stream.next_sigma()
                    start = time.perf_counter()
                    status, _ = conn.request(
                        "POST", "/rulesets/%s" % stream.tenant,
                        text.encode("utf-8"))
                    churn.append((time.perf_counter() - start, status))
                    if status == 200:
                        stream.sigma_key = key
                body, pending = stream.next_batch()
                start = time.perf_counter()
                status, _ = conn.request(
                    "POST", "/repair/delta?tenant=%s" % stream.tenant, body)
                end = time.perf_counter()
                out.append((end - start, status,
                            len(pending[0]) + len(pending[1]), end))
                if status == 200:
                    stream.ack(pending)
                sent += 1
        finally:
            conn.close()

    def load(daemon: Daemon, seconds: float, flows: List[_DeltaStream],
             limit: float = float("inf")):
        """Stream for *seconds*, or *limit* batches per tenant."""
        out: list = []
        churn: list = []
        begin = time.perf_counter()
        deadline = begin + seconds
        wall = _run_clients([(client, (daemon.port, s, deadline, out,
                                       churn, limit)) for s in flows])
        for _latency, status, *_rest in out + churn:
            res.op(status == 200)
        return out, churn, windowed_rate(
            [(end, n) for _l, status, n, end in out if status == 200],
            begin, wall)

    def log_stats(state: str) -> Tuple[int, int]:
        spool = os.path.join(state, "spool")
        records = size = 0
        for name in os.listdir(spool):
            if name.endswith(".corrections.jsonl"):
                path = os.path.join(spool, name)
                size += os.path.getsize(path)
                with open(path, "rb") as handle:
                    records += sum(1 for _ in handle)
        return records, size

    def restart(state: str, traced: bool = False) -> Tuple[Daemon, float]:
        """Restart on *state*; returns (daemon, seconds to ready)."""
        daemon = server.launch(["--state-dir", state], traced)
        ready = daemon.wait_ready()
        seconds = time.perf_counter() - daemon.started
        res.check("recovery reports ok",
                  (ready.get("recovered") or {}).get("ok") is True,
                  json.dumps(ready))
        return daemon, seconds

    if ctx.trace:
        daemon, _ = server.boot(["--state-dir", fresh_state()], uploads)
        plain, _c, plain_rate = load(daemon, ctx.seconds / 2, streams())
        server.stop(daemon)
        state = fresh_state()
        daemon, _ = server.boot(["--state-dir", state], uploads, traced=True)
        _o, _c, traced_rate = load(daemon, ctx.seconds / 2, streams())
        server.stop(daemon)
        records, size = log_stats(state)
        daemon, _seconds = restart(state, traced=True)
        server.stop(daemon)
        layers = layer_metrics(summarize(server.traces))
        layers["latency.p99_ms"] = _p99_ms([s[0] for s in plain])
        layers["delta.log_records"] = records
        layers["delta.log_bytes"] = size
        layers["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
        res.layers = layers
        return

    # Set-up samples; the last daemon then absorbs a fixed-size,
    # untimed prefill.  Recovery, the recovered-view check and quality
    # use that state, so they do not vary with the timed throughput.
    setups = []
    for attempt in range(int(ctx.cfg["repeats"])):
        state = fresh_state()
        daemon, setup = server.boot(["--state-dir", state], uploads)
        setups.append(setup)
        if attempt < int(ctx.cfg["repeats"]) - 1:
            server.stop(daemon)
    flows = streams()
    load(daemon, 600.0, flows, limit=int(ctx.cfg["delta_prefill"]))
    churn_s = _churn_uploads(daemon, flows, res, int(ctx.cfg["sigma_churn"]))
    rss = server.stop(daemon)
    recoveries = []
    for attempt in range(int(ctx.cfg["restarts"])):
        daemon, seconds = restart(state)
        recoveries.append(seconds)
        if attempt == int(ctx.cfg["restarts"]) - 1:
            views = _audit_view(daemon, flows, res)
        rss = max(rss, server.stop(daemon))
    _audit_logs(state, res)

    state = fresh_state()
    daemon, _ = server.boot(["--state-dir", state], uploads)
    out, churn, rate = load(daemon, ctx.seconds, streams())
    _fault_check(res, daemon.metrics())
    server.stop(daemon)
    res.info["log_records"], res.info["log_bytes"] = log_stats(state)
    res.metric("rows_per_s", rate, "rows/s")
    _latencies(res, [s[0] for s in out])
    # the mean, not the median: an upload costs either ~60-100 ms or
    # ~160-210 ms, the slow share varying from run to run, and the
    # median of a two-mode sample jumps between the modes
    res.metric("sigma_upload_ms", 1000.0 * statistics.fmean(churn_s), "ms")
    res.info["churn_uploads_ms"] = [round(1000.0 * s, 1) for s in churn_s]
    res.info["uploads_ms"] = [round(1000.0 * c[0], 1) for c in churn]
    res.info["sigma_uploads"] = len(churn)
    res.metric("setup_s", median(setups), "s")
    res.metric("recovery_s", median(recoveries), "s")
    res.metric("peak_rss_mb", rss, "MB")
    _score_views(res, bundle, flows, views)


def _churn_uploads(daemon: Daemon, flows: List[_DeltaStream], res: Result,
                   count: int) -> List[float]:
    """Σ churn on the prefilled daemon: *count* re-uploads per tenant,
    tenants taking turns, each one rule removed or restored and synced
    into that tenant's live delta session.  The sessions have the same
    size in every run, so unlike the uploads inside the timed stream
    these do not vary with how far the stream got.  Returns seconds."""
    conn = Client(daemon.port)
    seconds = []
    try:
        for _ in range(count):
            for stream in flows:
                key, text = stream.next_sigma()
                start = time.perf_counter()
                status, _ = conn.request(
                    "POST", "/rulesets/%s" % stream.tenant,
                    text.encode("utf-8"))
                seconds.append(time.perf_counter() - start)
                if res.op(status == 200):
                    stream.sigma_key = key
    finally:
        conn.close()
    return seconds


def _audit_view(daemon: Daemon, flows: List[_DeltaStream],
                res: Result) -> Dict[str, Dict[str, List[str]]]:
    """Check the recovered audit view holds every acknowledged row."""
    conn = Client(daemon.port)
    views = {}
    try:
        for stream in flows:
            status, body = conn.request(
                "GET", "/repair/delta?tenant=%s&rows=1" % stream.tenant)
            res.op(status == 200)
            view = json.loads(body).get("rows_data", {}) \
                if status == 200 else {}
            want = stream.expected_rows(
                dict(stream.sigmas)[stream.sigma_key])
            bad = sum(1 for rid in want if view.get(rid) != want[rid])
            res.check("recovered view of %s holds every acked row"
                      % stream.tenant,
                      bad == 0 and len(view) == len(want),
                      "%d wrong, %d rows vs %d acked"
                      % (bad, len(view), len(want)))
            views[stream.tenant] = view
    finally:
        conn.close()
    return views


def _audit_logs(state: str, res: Result) -> None:
    from repro.core import audit_correction_log
    spool = os.path.join(state, "spool")
    for name in sorted(os.listdir(spool)):
        if name.endswith(".corrections.jsonl"):
            report = audit_correction_log(os.path.join(spool, name))
            res.check("audit_correction_log ok: %s" % name,
                      report["ok"] is True,
                      "%d mismatches" % report["mismatch_count"])


def _score_views(res: Result, bundle: dict, flows: List[_DeltaStream],
                 views: Dict[str, Dict[str, List[str]]]) -> None:
    """Quality of every recovered row of both tenants."""
    clean = load_cells(bundle["tables"], "clean")
    truth, sent, fixed = [], [], []
    for stream in flows:
        view = views.get(stream.tenant, {})
        for rid, (row, version) in stream.sent.items():
            if rid in view:
                truth.append(clean[row])
                sent.append(stream.versions[version][row])
                fixed.append(view[rid])
    res.info["scored_rows"] = len(truth)
    record_quality(res, score(bundle["attrs"], truth, sent, fixed))
