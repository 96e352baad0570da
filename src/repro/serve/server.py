"""The repair-as-a-service daemon: ``repro serve``.

One asyncio event loop owns admission, routing and the ruleset
registry; repair compute happens off-loop in executor threads
(:class:`~repro.serve.pool.ServePool`), so a slow repair never blocks
health checks or metrics scrapes.

The request lifecycle for ``POST /repair``:

1. **Admission.**  Heavy endpoints pass the
   :class:`~repro.serve.admission.AdmissionController`; past the queue
   watermark (or while draining) the request is shed immediately with
   ``503`` and ``Retry-After`` — overload becomes backpressure, not
   latency.
2. **Deadline.**  Every admitted request carries a deadline — the
   configured ``request_timeout``, lowered per-request by an
   ``X-Repro-Timeout`` header.  The repair loop checks it between
   rows, and the event loop stops waiting at deadline + ``grace``, so
   an expired request ends as a clean ``504``.
3. **Response.**  The response always carries exactly the admitted
   rows, in order — a row whose repair raises becomes a
   ``row_errors`` entry, not a missing row.

Hot reload (``POST /rulesets/{tenant}``) and rollback are delegated to
the :class:`~repro.serve.registry.RulesetRegistry`: validate in a
shadow slot, swap atomically, keep one previous version.

Graceful drain: :meth:`RepairServer.drain` (wired to SIGTERM by the
CLI) stops admission, waits for in-flight requests up to
``drain_timeout``, then closes the listener.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from typing import List, NamedTuple, Optional, Tuple

from ..core.consistency import find_conflicts_cached
from ..core.delta import DeltaRepairSession
from ..core.explain import explain_repair
from ..core.serialization import ruleset_from_json
from ..core.stream import is_error_marker
from ..errors import SerializationError
from ..relational import Row
from .admission import AdmissionController
from .httpio import HttpError, Request, json_response, read_request, \
    render_response
from .metrics import ServeMetrics
from .pool import DeadlineExceeded, ServePool
from .registry import RulesetRegistry, RulesetRejected, TenantRuleset

__all__ = ["ServeConfig", "RepairServer", "ServerThread"]


def _is_str_row(item, width: int) -> bool:
    """Is *item* already a schema-wide list of strings?  Such rows —
    the common case — are used as posted; every other shape goes
    through :meth:`RepairServer._coerce_row` and its 400 messages."""
    if type(item) is not list or len(item) != width:
        return False
    for cell in item:
        if type(cell) is not str:
            return False
    return True


class ServeConfig(NamedTuple):
    """Daemon tuning; every knob has a production-shaped default."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests); the CLI defaults to 8787
    port: int = 0
    #: heavy requests executing at once
    max_concurrency: int = 8
    #: heavy requests allowed to *wait*; beyond this arrivals are shed
    queue_watermark: int = 16
    #: default per-request deadline, seconds
    request_timeout: float = 30.0
    #: slack granted on top of the deadline before the event loop stops
    #: waiting for the executor thread and answers 504
    grace: float = 2.0
    #: Retry-After hint on shed responses, seconds
    retry_after: float = 1.0
    #: drain budget on SIGTERM, seconds
    drain_timeout: float = 10.0
    #: request body cap, bytes
    max_body_bytes: int = 8 * 1024 * 1024
    #: where delta correction logs are written; None: the state dir's
    #: ``spool`` directory, or a fresh temp dir that drain removes
    spool_dir: Optional[str] = None
    #: crash-consistent state directory (WAL + snapshots + correction
    #: logs); None runs the daemon ephemeral, exactly as before.  With
    #: a state dir, every acknowledged ruleset upload/rollback and
    #: delta mutation survives a SIGKILL and is rebuilt on boot, with
    #: ``/readyz`` reporting ``recovering`` until replay completes.
    state_dir: Optional[str] = None

    def validate(self) -> "ServeConfig":
        # The deadline is the only bound on a request's compute, and a
        # nan one compares false against every clock reading: reject
        # non-finite timings instead of silently serving unbounded.
        if not (math.isfinite(self.request_timeout)
                and self.request_timeout > 0):
            raise ValueError("request_timeout must be positive and "
                             "finite, got %r" % (self.request_timeout,))
        for name in ("grace", "retry_after", "drain_timeout"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError("%s must be finite and >= 0, got %r"
                                 % (name, value))
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1, got %d"
                             % self.max_body_bytes)
        # the admission constructor validates its own knobs
        return self


class RepairServer:
    """One daemon instance: routing + the subsystems it composes."""

    def __init__(self, config: ServeConfig = ServeConfig(),
                 registry: Optional[RulesetRegistry] = None):
        self.config = config.validate()
        self.state_store = None
        #: the spool dir this daemon made itself; drain removes it
        self._own_spool: Optional[str] = None
        if registry is None:
            import os
            spool_dir = config.spool_dir
            if config.state_dir is not None:
                from ..durability import StateStore
                self.state_store = StateStore(config.state_dir)
                if spool_dir is None:
                    # correction logs must live with the state dir:
                    # recovery replays the logs it finds there
                    spool_dir = os.path.join(config.state_dir, "spool")
            if spool_dir is None:
                import tempfile
                spool_dir = tempfile.mkdtemp(prefix="repro-serve-spool-")
                self._own_spool = spool_dir
            registry = RulesetRegistry(spool_dir,
                                       state_store=self.state_store)
        else:
            self.state_store = registry.state_store
        self.registry = registry
        #: True from bind until snapshot-then-replay recovery finishes;
        #: heavy endpoints answer 503 meanwhile and /readyz says so
        self.recovering = False
        self.recovery_report: Optional[dict] = None
        self.admission = AdmissionController(config.max_concurrency,
                                             config.queue_watermark,
                                             config.retry_after)
        self.metrics = ServeMetrics()
        self.pool = ServePool()
        self._server: Optional[asyncio.AbstractServer] = None
        #: per-tenant incremental sessions, created lazily by the
        #: first POST /repair/delta; kept in lock-step with the
        #: registry's active slot on hot-reload and rollback
        self._delta_sessions: dict = {}
        #: sessions mutate in executor threads — one writer at a time
        self._delta_lock = threading.Lock()
        #: open keep-alive connections, cancelled at the end of drain
        self._connections: set = set()
        self.draining = False
        self._drained = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        needs_recovery = (self.state_store is not None
                          and not self.state_store.is_empty())
        if needs_recovery:
            # flip before binding so no request can race the replay
            self.recovering = True
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        if needs_recovery:
            loop = asyncio.get_running_loop()
            self._recovery_task = loop.create_task(self._recover())

    async def _recover(self) -> None:
        """Snapshot-then-replay rebuild, off-loop; /readyz reports
        ``recovering`` until this completes."""
        from ..durability import RecoveryManager
        loop = asyncio.get_running_loop()

        def rebuild() -> dict:
            manager = RecoveryManager(self.state_store)
            return manager.rebuild(self.registry, self._delta_sessions)

        try:
            self.recovery_report = await loop.run_in_executor(None,
                                                              rebuild)
        except Exception as exc:
            self.recovery_report = {"ok": False,
                                    "problems": ["%s: %s"
                                                 % (type(exc).__name__,
                                                    exc)]}
        finally:
            self.recovering = False

    async def serve_forever(self) -> None:
        """Run until :meth:`drain` completes (the CLI entry point)."""
        if self._server is None:
            await self.start()
        await self._drained.wait()

    async def drain(self) -> bool:
        """Stop admission, wait out in-flight work, shut down: close
        the delta sessions' correction logs and the state store, and
        remove the spool dir if the daemon created it.

        Returns True when every in-flight request finished inside the
        drain budget; False when the budget expired with work still
        running.
        """
        if self.draining:
            return True
        self.draining = True
        self.admission.begin_drain()
        clean = await self.admission.wait_idle(self.config.drain_timeout)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # idle keep-alive connections are parked in read_request();
        # nothing new can be admitted, so cut them loose
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)

        def close_sessions() -> None:
            with self._delta_lock:  # waits out a straggling apply
                for session in self._delta_sessions.values():
                    session.close()
                self._delta_sessions.clear()

        await asyncio.get_running_loop().run_in_executor(None,
                                                         close_sessions)
        if self.state_store is not None:
            self.state_store.close()
        if self._own_spool is not None:
            import shutil
            shutil.rmtree(self._own_spool, ignore_errors=True)
        self._drained.set()
        return clean

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader,
                                                 self.config.max_body_bytes)
                except HttpError as exc:
                    # framing errors poison the byte stream; answer and
                    # close rather than misparse what follows
                    writer.write(self._error_bytes(exc, close=True))
                    await writer.drain()
                    return
                if request is None:
                    return
                response = await self._dispatch(request)
                if not request.keep_alive:
                    # re-render with Connection: close is not worth it;
                    # just stop reading after the write
                    writer.write(response)
                    await writer.drain()
                    return
                writer.write(response)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # drain cut this idle connection loose
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    def _error_bytes(self, exc: HttpError, close: bool = False) -> bytes:
        self.metrics.record_response(exc.status)
        payload = dict(exc.payload)
        payload["error"] = exc.message
        return json_response(exc.status, payload, headers=exc.headers,
                             close=close)

    async def _dispatch(self, request: Request) -> bytes:
        endpoint = self._route_name(request)
        self.metrics.record_request(endpoint)
        try:
            status, payload, headers, raw = await self._route(request)
        except HttpError as exc:
            return self._error_bytes(exc)
        except RulesetRejected as exc:
            http = HttpError(exc.status, str(exc), payload={
                "conflicts": [conflict.describe()
                              for conflict in exc.conflicts],
            })
            return self._error_bytes(http)
        except Exception as exc:  # the daemon must outlive any request
            http = HttpError(500, "internal error: %s: %s"
                             % (type(exc).__name__, exc))
            return self._error_bytes(http)
        self.metrics.record_response(status)
        if raw is not None:
            return render_response(status, raw, content_type="text/plain",
                                   headers=headers)
        return json_response(status, payload, headers=headers)

    @staticmethod
    def _route_name(request: Request) -> str:
        path = request.path
        if path.startswith("/rulesets"):
            return "/rulesets"
        return path

    async def _route(self, request: Request
                     ) -> Tuple[int, dict, Optional[dict], Optional[bytes]]:
        method, path = request.method, request.path

        # light endpoints: never admitted, never shed — they are how
        # you observe an overloaded or draining daemon
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok"}, None, None
        if path == "/readyz" and method == "GET":
            if self.draining:
                raise HttpError(503, "draining")
            if self.recovering:
                raise HttpError(503, "recovering",
                                payload={"status": "recovering"})
            if len(self.registry) == 0:
                raise HttpError(503, "no rulesets loaded")
            ready = {"status": "ready",
                     "tenants": sorted(self.registry.tenants())}
            if self.recovery_report is not None:
                ready["recovered"] = {
                    "ok": self.recovery_report.get("ok"),
                    "tenants": len(self.recovery_report.get("tenants",
                                                            ())),
                    "sessions": len(self.recovery_report.get("sessions",
                                                             ())),
                }
            return 200, ready, None, None
        if path == "/metrics" and method == "GET":
            text = self.metrics.render(admission=self.admission.snapshot(),
                                       registry={
                                           "tenants": len(self.registry),
                                           "reloads_total":
                                               self.registry.reloads_total,
                                           "rejects_total":
                                               self.registry.rejects_total,
                                           "rollbacks_total":
                                               self.registry.rollbacks_total,
                                       })
            return 200, {}, None, text.encode("utf-8")
        if path in ("/rulesets", "/repair/delta") and method == "GET" \
                and self.recovering:
            # these read the very state replay is rebuilding; health
            # and metrics stay observable meanwhile
            raise HttpError(503, "recovering: replaying durable state",
                            payload={"status": "recovering"})
        if path == "/rulesets" and method == "GET":
            return 200, {"tenants": self.registry.tenants()}, None, None
        if path == "/repair/delta" and method == "GET":
            return self._delta_status(request)

        # heavy endpoints: admission-controlled
        handler = None
        if method == "POST":
            if path == "/repair/delta":
                handler = self._handle_repair_delta
            elif path == "/repair":
                handler = self._handle_repair
            elif path == "/check":
                handler = self._handle_check
            elif path == "/explain":
                handler = self._handle_explain
            elif path.startswith("/rulesets/"):
                handler = self._handle_rulesets
        if handler is None:
            raise HttpError(404 if path not in
                            ("/repair", "/repair/delta", "/check",
                             "/explain") else 405,
                            "no route for %s %s" % (method, path))

        if self.recovering:
            raise HttpError(
                503, "recovering: replaying durable state",
                headers={"Retry-After":
                         "%d" % max(1, round(self.admission.retry_after))})
        if not self.admission.try_begin():
            raise HttpError(
                503,
                "over capacity" if self.admission.accepting else "draining",
                headers={"Retry-After":
                         "%d" % max(1, round(self.admission.retry_after))})
        async with self.admission:
            return await handler(request)

    # -- heavy handlers ------------------------------------------------------

    def _tenant_entry(self, request: Request) -> TenantRuleset:
        tenant = request.query.get("tenant", "default")
        try:
            return self.registry.get(tenant)
        except KeyError as exc:
            raise HttpError(404, str(exc))

    def _deadline_budget(self, request: Request) -> float:
        budget = self.config.request_timeout
        header = request.headers.get("x-repro-timeout")
        if header is not None:
            try:
                requested = float(header)
            except ValueError:
                raise HttpError(400, "bad X-Repro-Timeout %r" % header)
            if not math.isfinite(requested):
                raise HttpError(400, "X-Repro-Timeout must be finite")
            if requested <= 0:
                raise HttpError(400, "X-Repro-Timeout must be positive")
            budget = min(budget, requested)
        return budget

    @staticmethod
    def _coerce_row(item, entry: TenantRuleset, index: int) -> List[str]:
        """One posted row (list or object) to schema-ordered cells."""
        names = list(entry.ruleset.schema.attribute_names)
        if isinstance(item, dict):
            try:
                cells = [item[name] for name in names]
            except KeyError as exc:
                raise HttpError(400, "row %d is missing attribute %s"
                                % (index, exc))
        elif isinstance(item, list):
            if len(item) != len(names):
                raise HttpError(400, "row %d has %d cells; schema %s has "
                                "%d attributes"
                                % (index, len(item),
                                   entry.ruleset.schema.name, len(names)))
            cells = item
        else:
            raise HttpError(400, "row %d must be a list or an object, "
                            "got %s" % (index, type(item).__name__))
        coerced = []
        for cell in cells:
            if isinstance(cell, str):
                coerced.append(cell)
            elif isinstance(cell, (int, float)) and \
                    not isinstance(cell, bool):
                coerced.append(str(cell))
            else:
                raise HttpError(400, "row %d contains a non-scalar cell"
                                % index)
        return coerced

    def _parse_rows(self, request: Request,
                    entry: TenantRuleset) -> List[List[str]]:
        body = request.json()
        if not isinstance(body, dict) or "rows" not in body:
            raise HttpError(400, 'body must be {"rows": [...]}')
        raw_rows = body["rows"]
        if not isinstance(raw_rows, list):
            raise HttpError(400, '"rows" must be a list')
        width = len(entry.ruleset.schema)
        return [item if _is_str_row(item, width)
                else self._coerce_row(item, entry, index)
                for index, item in enumerate(raw_rows)]

    async def _handle_repair(self, request: Request):
        started = time.monotonic()
        entry = self._tenant_entry(request)
        budget = self._deadline_budget(request)
        deadline = started + budget
        rows = self._parse_rows(request, entry)
        loop = asyncio.get_running_loop()
        try:
            outcomes = await asyncio.wait_for(
                loop.run_in_executor(None, self.pool.repair,
                                     entry.compiled, rows, deadline),
                timeout=(deadline - time.monotonic()) + self.config.grace)
        except (DeadlineExceeded, asyncio.TimeoutError):
            self.metrics.timeouts_total += 1
            raise HttpError(504, "repair exceeded its %.3fs deadline"
                            % budget)

        out_rows: List[List[str]] = []
        row_errors = []
        rows_changed = 0
        cells_changed = 0
        for index, (values, encoded) in enumerate(zip(rows, outcomes)):
            if encoded is None:
                out_rows.append(values)
            elif is_error_marker(encoded):
                out_rows.append(values)  # errored rows pass through
                row_errors.append({"index": index,
                                   "error_type": encoded[1],
                                   "message": encoded[2]})
            else:
                new_values, _applied = encoded
                new_values = list(new_values)
                rows_changed += 1
                cells_changed += sum(1 for old, new
                                     in zip(values, new_values)
                                     if old != new)
                out_rows.append(new_values)
        duration = time.monotonic() - started
        self.metrics.record_repair(len(rows), cells_changed,
                                   len(row_errors), duration)
        return 200, {
            "tenant": request.query.get("tenant", "default"),
            "fingerprint": entry.fingerprint,
            "engine": "serial",
            "rows": out_rows,
            "rows_changed": rows_changed,
            "cells_changed": cells_changed,
            "row_errors": row_errors,
        }, None, None

    # -- incremental (delta) repair ------------------------------------------

    def _delta_session(self, tenant: str,
                       entry: TenantRuleset) -> DeltaRepairSession:
        """The tenant's session, created on first use.

        Σ comes from the registry's *active* slot, which the
        shadow-slot upload path already validated consistent and
        compiled — so the session skips its own consistency pass and
        its compile is a fingerprint-keyed cache hit.
        """
        session = self._delta_sessions.get(tenant)
        if session is None:
            import os
            log_path = os.path.join(
                self.registry.spool_dir,
                "delta-%s.corrections.jsonl" % tenant)
            session = DeltaRepairSession(
                entry.ruleset, log_path=log_path,
                check_consistency=False,
                durable=self.state_store is not None)
            self._log_delta_open(tenant, session, log_path,
                                 entry.fingerprint)
            self._delta_sessions[tenant] = session
        return session

    def _log_delta_open(self, tenant: str, session, log_path: str,
                        fingerprint: str) -> None:
        """Write-ahead a session's existence before registering it.

        Restart recovery only re-hydrates sessions the state store
        knows about; a failed append closes the just-created session
        and surfaces as 503 — nothing was acknowledged.
        """
        if self.state_store is None:
            return
        try:
            self.state_store.append("delta_open", tenant=tenant,
                                    session_id=session.session_id,
                                    log_path=log_path,
                                    fingerprint=fingerprint)
        except OSError as exc:
            session.close()
            raise HttpError(503, "state store write failed (%s); the "
                            "delta session was not opened" % exc)

    def _rebuild_delta_session(self, tenant: str, entry: TenantRuleset,
                               failed) -> DeltaRepairSession:
        """Swap a session whose delta raised for one rebuilt from its log
        under *entry*'s Σ: same id and log, so no new ``delta_open``.
        The failed delta's records never reached the log."""
        from ..durability import rehydrate_session
        failed.close()
        del self._delta_sessions[tenant]
        session, _info = rehydrate_session(
            entry.ruleset, failed.log.path, failed.session_id,
            durable=self.state_store is not None)
        self._delta_sessions[tenant] = session
        return session

    def _delta_apply(self, tenant: str, entry: TenantRuleset,
                     upserts, deletes) -> dict:
        """Executor-side body of POST /repair/delta (holds the lock)."""
        with self._delta_lock:
            session = self._delta_session(tenant, entry)
            try:
                outcome = session.apply_rows(upserts=upserts,
                                             deletes=deletes)
            except Exception as exc:
                self._rebuild_delta_session(tenant, entry, session)
                raise HttpError(503, "delta batch refused (%s: %s); "
                                "nothing of it was logged or applied"
                                % (type(exc).__name__, exc))
            changed = {rid: session.row(rid) for rid in outcome.affected}
            return {
                "tenant": tenant,
                "engine": "delta",
                "fingerprint": session.rules_fingerprint,
                "epoch": outcome.epoch,
                "rows": changed,
                "affected": list(outcome.affected),
                "rows_total": len(session),
                "corrections": outcome.corrections,
                "reverts": outcome.reverts,
                "upserts": outcome.detail["upserts"],
                "deletes": outcome.detail["deletes"],
            }

    async def _handle_repair_delta(self, request: Request):
        """POST /repair/delta — absorb a row delta incrementally.

        Body: ``{"upserts": [{"id": ..., "values": [...]}, ...],
        "deletes": [id, ...]}`` where ``values`` accepts the same
        list-or-object row shapes as ``/repair``.  Only the affected
        rows are re-repaired; every cell change lands in the tenant's
        correction log under the registry spool.
        """
        started = time.monotonic()
        tenant = request.query.get("tenant", "default")
        entry = self._tenant_entry(request)
        body = request.json()
        if not isinstance(body, dict) or not (
                "upserts" in body or "deletes" in body):
            raise HttpError(400, 'body must be {"upserts": [...], '
                            '"deletes": [...]}')
        raw_upserts = body.get("upserts", [])
        raw_deletes = body.get("deletes", [])
        if not isinstance(raw_upserts, list) \
                or not isinstance(raw_deletes, list):
            raise HttpError(400, '"upserts" and "deletes" must be lists')
        width = len(entry.ruleset.schema)
        upserts = []
        for index, item in enumerate(raw_upserts):
            if not isinstance(item, dict) or "id" not in item:
                raise HttpError(400, 'upsert %d must be {"id": ..., '
                                '"values": [...]}' % index)
            values = item.get("values", item.get("row"))
            if values is None:
                raise HttpError(400, 'upsert %d is missing "values"'
                                % index)
            if not _is_str_row(values, width):
                values = self._coerce_row(values, entry, index)
            upserts.append((str(item["id"]), values))
        deletes = [str(item) for item in raw_deletes]
        loop = asyncio.get_running_loop()
        budget = self._deadline_budget(request)
        try:
            payload = await asyncio.wait_for(
                loop.run_in_executor(None, self._delta_apply, tenant,
                                     entry, upserts, deletes),
                timeout=budget + self.config.grace)
        except asyncio.TimeoutError:
            self.metrics.timeouts_total += 1
            raise HttpError(504, "delta repair exceeded its %.3fs "
                            "deadline" % budget)
        self.metrics.record_repair(
            len(upserts) + len(deletes), payload["corrections"],
            0, time.monotonic() - started)
        return 200, payload, None, None

    def _delta_status(self, request: Request):
        """GET /repair/delta — audit snapshot of a tenant's session."""
        tenant = request.query.get("tenant", "default")
        session = self._delta_sessions.get(tenant)
        if session is None:
            raise HttpError(404, "no delta session for tenant %r "
                            "(POST /repair/delta starts one)" % tenant)
        with self._delta_lock:
            report = session.generate_audit_report()
            if request.query.get("rows"):
                report["rows_data"] = {rid: values for rid, values
                                       in session.items()}
        return 200, report, None, None

    def _sync_delta_session(self, tenant: str,
                            entry: TenantRuleset) -> Optional[dict]:
        """Re-align the tenant's session after hot-reload/rollback.

        Diffs old vs. new Σ by rule signature and feeds
        ``apply_rules`` so only the affected slice re-repairs — the
        incremental continuation of the shadow-slot swap.  If that
        raises, the session is rebuilt from its correction log under
        the new Σ (``"rebuilt": true``).
        """
        with self._delta_lock:
            session = self._delta_sessions.get(tenant)
            if session is None:
                return None
            old_rules = {rule.signature(): rule for rule in session.rules()}
            new_rules = {rule.signature(): rule for rule in entry.ruleset}
            added = [rule for sig, rule in new_rules.items()
                     if sig not in old_rules]
            removed = [rule for sig, rule in old_rules.items()
                       if sig not in new_rules]
            if not added and not removed:
                return {"rows_rerepaired": 0, "epoch": session.epoch,
                        "fingerprint": session.rules_fingerprint}
            try:
                outcome = session.apply_rules(added=added, removed=removed)
            except Exception as exc:
                rebuilt = self._rebuild_delta_session(tenant, entry,
                                                      session)
                return {"rows_rerepaired": len(rebuilt),
                        "rebuilt": True,
                        "error": "%s: %s" % (type(exc).__name__, exc),
                        "epoch": rebuilt.epoch,
                        "fingerprint": rebuilt.rules_fingerprint}
            return {"rows_rerepaired": len(outcome.affected),
                    "epoch": outcome.epoch,
                    "corrections": outcome.corrections,
                    "reverts": outcome.reverts,
                    "fingerprint": session.rules_fingerprint}

    async def _handle_check(self, request: Request):
        if request.body:
            try:
                ruleset = ruleset_from_json(request.body.decode("utf-8"))
            except (UnicodeDecodeError, SerializationError) as exc:
                raise HttpError(400, "bad ruleset: %s" % exc)
            fingerprint = None
        else:
            entry = self._tenant_entry(request)
            ruleset, fingerprint = entry.ruleset, entry.fingerprint
        loop = asyncio.get_running_loop()
        conflicts = await loop.run_in_executor(
            None, find_conflicts_cached, ruleset)
        return 200, {
            "consistent": not conflicts,
            "rules": len(ruleset),
            "fingerprint": fingerprint,
            "conflicts": [conflict.describe() for conflict in conflicts],
        }, None, None

    async def _handle_explain(self, request: Request):
        entry = self._tenant_entry(request)
        body = request.json()
        if not isinstance(body, dict) or "row" not in body:
            raise HttpError(400, 'body must be {"row": [...]}')
        row = Row(entry.ruleset.schema,
                  self._coerce_row(body["row"], entry, 0))
        loop = asyncio.get_running_loop()
        explanation = await loop.run_in_executor(
            None, explain_repair, row, entry.ruleset)
        result = explanation.result
        return 200, {
            "row": list(result.row.values),
            "changed": result.changed,
            "applied": [{"rule": fix.rule.name,
                         "attribute": fix.attribute,
                         "old_value": fix.old_value,
                         "new_value": fix.new_value}
                        for fix in result.applied],
            "assured": sorted(result.assured),
            "verdicts": [{"rule": item.rule.name,
                          "verdict": item.verdict,
                          "details": list(item.details)}
                         for item in explanation.explanations],
            "description": explanation.describe(),
        }, None, None

    async def _handle_rulesets(self, request: Request):
        parts = [part for part in request.path.split("/") if part]
        # /rulesets/{tenant} or /rulesets/{tenant}/rollback
        if len(parts) == 2:
            tenant = parts[1]
            if not request.body:
                raise HttpError(400, "upload body must be ruleset JSON")
            loop = asyncio.get_running_loop()
            try:
                text = request.body.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise HttpError(400, "ruleset is not UTF-8: %s" % exc)
            # validation compiles and scans Σ — off-loop
            entry = await loop.run_in_executor(
                None, self.registry.upload, tenant, text)
            # a live delta session follows the swap incrementally:
            # only rows touched by the Σ diff re-repair
            delta = await loop.run_in_executor(
                None, self._sync_delta_session, tenant, entry)
            payload = {"tenant": tenant, "installed": entry.describe()}
            if delta is not None:
                payload["delta"] = delta
            return 200, payload, None, None
        if len(parts) == 3 and parts[2] == "rollback":
            tenant = parts[1]
            try:
                entry = self.registry.rollback(tenant)
            except KeyError as exc:
                raise HttpError(404, str(exc))
            loop = asyncio.get_running_loop()
            delta = await loop.run_in_executor(
                None, self._sync_delta_session, tenant, entry)
            payload = {"tenant": tenant, "active": entry.describe()}
            if delta is not None:
                payload["delta"] = delta
            return 200, payload, None, None
        if len(parts) == 3 and parts[2] == "discover":
            return await self._handle_discover(parts[1], request)
        raise HttpError(404, "no route for %s" % request.path)

    def _mine_ruleset(self, body: dict):
        """Off-loop compute of ``POST /rulesets/{tenant}/discover``:
        build the table, mine + weigh + resolve, return the session."""
        from ..dependencies import parse_fd
        from ..discovery import DiscoverySession
        from ..relational import Schema, Table

        attributes = body.get("attributes")
        raw_rows = body.get("rows")
        if not isinstance(attributes, list) or not attributes or \
                not all(isinstance(a, str) for a in attributes):
            raise HttpError(400, '"attributes" must be a non-empty '
                            "list of strings")
        if not isinstance(raw_rows, list) or not raw_rows:
            raise HttpError(400, '"rows" must be a non-empty list')
        schema = Schema("discovered", attributes)
        rows = []
        for index, item in enumerate(raw_rows):
            if not isinstance(item, list) or len(item) != len(attributes):
                raise HttpError(400, "row %d must be a list of %d cells"
                                % (index, len(attributes)))
            cells = []
            for cell in item:
                if isinstance(cell, str):
                    cells.append(cell)
                elif isinstance(cell, (int, float)) and \
                        not isinstance(cell, bool):
                    cells.append(str(cell))
                else:
                    raise HttpError(400, "row %d contains a non-scalar "
                                    "cell" % index)
            rows.append(Row.from_trusted(schema, cells))
        table = Table.from_trusted_rows(schema, rows)
        fds = None
        if body.get("fds") is not None:
            if not isinstance(body["fds"], list):
                raise HttpError(400, '"fds" must be a list of strings '
                                'like "zip -> state"')
            try:
                fds = [parse_fd(text) for text in body["fds"]]
            except Exception as exc:
                raise HttpError(400, "bad FD: %s" % exc)
        try:
            session = DiscoverySession(
                table, fds=fds,
                min_support=int(body.get("min_support", 3)),
                min_confidence=float(body.get("min_confidence", 0.8)),
                fd_confidence=float(body.get("fd_confidence", 0.9)))
            session.discover()  # mining validates the parameters
        except (TypeError, ValueError) as exc:
            raise HttpError(400, "bad discovery parameter: %s" % exc)
        return session

    async def _handle_discover(self, tenant: str, request: Request):
        """Mine weighted rules from posted dirty rows and install them
        for *tenant* through the same shadow-slot validation as an
        explicit ruleset upload."""
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "body must be a JSON object")
        loop = asyncio.get_running_loop()
        session = await loop.run_in_executor(None, self._mine_ruleset,
                                             body)
        weighted = session.discover()
        if len(weighted) == 0:
            raise HttpError(422, "discovery produced no rules (raise "
                            "the noise tolerance: lower min_support / "
                            "min_confidence, or pass known FDs)")
        entry = await loop.run_in_executor(
            None, self.registry.install, tenant, weighted.ruleset())
        delta = await loop.run_in_executor(
            None, self._sync_delta_session, tenant, entry)
        payload = {"tenant": tenant, "installed": entry.describe(),
                   "discovery": session.describe()}
        if delta is not None:
            payload["delta"] = delta
        return 200, payload, None, None


class ServerThread:
    """A daemon running on a private event loop in a thread.

    The test suite and the bench harness talk to the server with
    synchronous ``http.client`` calls, so the server needs to live on
    its own loop.  ``start()`` blocks until the port is bound.
    """

    def __init__(self, config: ServeConfig = ServeConfig(),
                 registry: Optional[RulesetRegistry] = None):
        self._config = config
        self._registry = registry
        self.server: Optional[RepairServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 30.0) -> "ServerThread":
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start within %.1fs"
                               % timeout)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start: %s"
                               % self._startup_error)
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self.loop = loop
        try:
            self.server = RepairServer(self._config, self._registry)
            loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_until_complete(self.server.serve_forever())
        finally:
            loop.close()

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    def stop(self, timeout: float = 30.0) -> bool:
        """Drain and shut down; True when the drain was clean."""
        if self.loop is None or self.server is None:
            return True
        future = asyncio.run_coroutine_threadsafe(self.server.drain(),
                                                  self.loop)
        try:
            clean = future.result(timeout)
        except Exception:
            clean = False
        if self._thread is not None:
            self._thread.join(timeout)
        return clean

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
