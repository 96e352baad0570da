"""Shared helpers: child processes, the daemon, HTTP, statistics, scoring.

The benchmark drives the system from outside, as a user would: CLIs run
as child processes and the daemon is reached over loopback HTTP.  Only
input generation, correctness checks and quality scoring import the
library in-process, and none of that is timed.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout root: the benchmark runs with it as working directory.
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for generated inputs and per-run outputs (git-ignored).
WORK = os.path.join(ROOT, ".perfbench")
TRACE_RUNNER = os.path.join(HERE, "trace.py")


class BenchError(RuntimeError):
    """The system under test misbehaved in a way that ends the run."""


# -- statistics ---------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half: steady where the median is not, when
    samples fall into two modes (an upload that overlaps the other
    tenant's batch waits for it; one that does not, does not)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return float(statistics.fmean(ordered[cut:len(ordered) - cut]))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the max for fewer than 1/(1-f) samples)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return float(ordered[rank])


def windowed_rate(events: Sequence[Tuple[float, float]], start: float,
                  seconds: float, window: float = 1.0) -> float:
    """Units completed per second: the median over the whole *window*
    slices of ``[start, start + seconds)``, so that a short stall of the
    host moves one slice, not the figure.  *events* are ``(end time,
    units)``; with fewer than three slices it is the plain mean rate."""
    slices = int(seconds // window)
    if slices < 3:
        return sum(units for _end, units in events) / seconds
    counts = [0.0] * slices
    for end, units in events:
        k = int((end - start) // window)
        if 0 <= k < slices:
            counts[k] += units
    return median(counts) / window


def settle() -> None:
    """Collect garbage and freeze what survives.

    The serve clients run in this process next to the loaded inputs;
    frozen objects are skipped by the collector, so its full passes
    do not scan millions of input cells in the middle of a request.
    """
    gc.collect()
    gc.freeze()


def timed_loop(seconds: float, step) -> list:
    """Call *step* back to back for about *seconds* (at least once).

    Another call starts only if, at the mean pace so far, it should end
    inside the budget, so long steps do not overrun it by a whole step.
    Returns the step results.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds * 1.05:
            return results


class Result:
    """What one workload run measured and checked."""

    def __init__(self):
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: List[Tuple[str, bool, str]] = []
        self.info: Dict[str, object] = {}
        #: per-layer metrics, set by a traced run
        self.layers: Optional[Dict[str, float]] = None

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def op(self, ok: bool) -> bool:
        """Count one attempted operation; returns *ok*."""
        self.attempted += 1
        self.failed += 0 if ok else 1
        return ok

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return ok

    @property
    def correct(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)


# -- child processes ----------------------------------------------------------

def child_env(unbuffered: bool = False) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def repro_argv(args: Sequence[str], trace_out: Optional[str] = None
               ) -> List[str]:
    """Command line for ``repro <args>``, optionally under the tracer."""
    if trace_out is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return [sys.executable, TRACE_RUNNER, trace_out, *args]


def _alive(proc: subprocess.Popen) -> bool:
    """True while *proc* runs; unlike ``poll()`` it never reaps, so
    ``os.wait4`` can still collect the child's resource usage."""
    return proc.returncode is None and os.waitid(
        os.P_PID, proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None


def peak_rss_mb(pid: int) -> float:
    """The live process's RSS high-water mark (``VmHWM``), in MiB.

    ``ru_maxrss`` from ``wait4`` cannot be used: Linux carries the
    spawning process's peak across ``exec``, so every child would
    report at least this (large) benchmark process's RSS.
    """
    try:
        with open("/proc/%d/status" % pid, "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


def _reap(proc: subprocess.Popen, timeout: float
          ) -> Tuple[int, float, float]:
    """Wait up to *timeout* for *proc*, then SIGKILL it; returns (exit
    code, peak RSS in MiB sampled every ~10 ms, CPU seconds used)."""
    deadline = time.perf_counter() + timeout
    peak = 0.0
    polls = 0
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            os.kill(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        if polls % 5 == 0:
            peak = max(peak, peak_rss_mb(proc.pid))
        polls += 1
        time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, peak, usage.ru_utime + usage.ru_stime


class ChildResult:
    __slots__ = ("wall_s", "returncode", "peak_rss_mb", "log", "trace_out",
                 "cpu_s")

    def __init__(self, wall_s, returncode, peak_rss_mb, cpu_s, log,
                 trace_out):
        self.wall_s = wall_s
        self.returncode = returncode
        self.peak_rss_mb = peak_rss_mb
        self.cpu_s = cpu_s
        self.log = log
        self.trace_out = trace_out

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def run_repro(args: Sequence[str], log_path: str,
              trace_out: Optional[str] = None,
              timeout: float = 150.0) -> ChildResult:
    """Run one ``repro`` CLI command to completion and time it.

    The wall time covers interpreter start to exit, which is what a
    user waits for.  Output goes to *log_path*; a child that outlives
    *timeout* is killed and reported as failed.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(repro_argv(args, trace_out), stdout=log,
                                stderr=subprocess.STDOUT, env=child_env())
        code, rss, cpu = _reap(proc, timeout)
        wall = time.perf_counter() - start
    with open(log_path, "r", encoding="utf-8", errors="replace") as handle:
        text = handle.read()
    return ChildResult(wall, code, rss, cpu, text, trace_out)


# -- HTTP ---------------------------------------------------------------------

class Client:
    """One keep-alive loopback connection to the daemon."""

    def __init__(self, port: int, timeout: float = 60.0):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=timeout)

    def request(self, method: str, path: str, body: Optional[bytes] = None
                ) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # reconnects on the next request
            return 0, b""

    def close(self) -> None:
        self.conn.close()


_LISTEN = re.compile(rb"listening on http://[^:]+:(\d+)")


class Daemon:
    """A ``repro serve`` child process on an ephemeral loopback port."""

    def __init__(self, args: Sequence[str], log_path: str,
                 trace_out: Optional[str] = None):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            repro_argv(["serve", "--host", "127.0.0.1", "--port", "0",
                        *args], trace_out),
            stdout=self._log, stderr=subprocess.STDOUT,
            env=child_env(unbuffered=True))
        self.port = self._wait_port()

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with open(self.log_path, "rb") as handle:
                match = _LISTEN.search(handle.read())
            if match:
                return int(match.group(1))
            if not _alive(self.proc):
                break
            time.sleep(0.002)
        self.stop()
        raise BenchError("daemon did not start: %s" % self.log_text())

    def wait_ready(self, timeout: float = 120.0) -> dict:
        """Poll ``/readyz`` until it answers 200; returns its payload."""
        client = Client(self.port, timeout=5.0)
        deadline = time.perf_counter() + timeout
        try:
            while time.perf_counter() < deadline:
                status, body = client.request("GET", "/readyz")
                if status == 200:
                    return json.loads(body)
                if not _alive(self.proc):
                    break
                time.sleep(0.002)
        finally:
            client.close()
        raise BenchError("daemon never became ready: %s" % self.log_text())

    def metrics(self) -> Dict[str, float]:
        client = Client(self.port)
        try:
            status, body = client.request("GET", "/metrics")
        finally:
            client.close()
        if status != 200:
            raise BenchError("GET /metrics answered %d" % status)
        return parse_metrics(body.decode("utf-8"))

    def stop(self, timeout: float = 60.0) -> Tuple[int, float]:
        """SIGTERM (drain), wait; returns (exit code, peak RSS MiB)."""
        if self.proc.returncode is None:
            peak = peak_rss_mb(self.proc.pid)
            if _alive(self.proc):
                os.kill(self.proc.pid, signal.SIGTERM)
            code, drained, _cpu = _reap(self.proc, timeout)
            self.exit = (code, max(peak, drained))
            self._log.close()
        return self.exit

    def log_text(self) -> str:
        with open(self.log_path, "r", encoding="utf-8",
                  errors="replace") as handle:
            return handle.read()[-2000:]


_METRIC_LINE = re.compile(r"^repro_serve_(\w+)(\{[^}]*\})?\s+(\S+)$")


def parse_metrics(text: str) -> Dict[str, float]:
    """``/metrics`` exposition text to ``{name{labels}: value}``."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        match = _METRIC_LINE.match(line.strip())
        if match:
            try:
                out[match.group(1) + (match.group(2) or "")] = \
                    float(match.group(3))
            except ValueError:
                pass
    return out


# -- scoring ------------------------------------------------------------------

def score(attrs: Sequence[str], clean: List[List[str]],
          dirty: List[List[str]], repaired: List[List[str]]) -> dict:
    """Cell precision/recall and FD-violating LHS groups left.

    ``fd_violations_left`` counts violating clusters (LHS groups whose
    rows disagree on the RHS), not violating pairs: the pair count is
    quadratic in group size and says little more.
    """
    from repro.datagen import hosp_fds
    from repro.dependencies.violations import find_violation_clusters
    from repro.evaluation import evaluate_repair
    from repro.relational import Row, Schema, Table

    schema = Schema("hosp", list(attrs))

    def table(rows):
        return Table.from_trusted_rows(
            schema, [Row.from_trusted(schema, list(r)) for r in rows])

    repaired_table = table(repaired)
    quality = evaluate_repair(table(clean), table(dirty), repaired_table)
    clusters = sum(len(find_violation_clusters(repaired_table, fd))
                   for fd in hosp_fds())
    return {"precision": quality.precision, "recall": quality.recall,
            "fd_violations_left": clusters}


def record_quality(res: Result, quality: dict) -> None:
    for name, value in quality.items():
        res.metric(name, value, "count" if name == "fd_violations_left"
                   else "ratio")
