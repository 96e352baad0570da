"""Streaming / monitoring repair API.

The editing-rules line of work [Fan et al., VLDBJ 2012] frames repair
as *data monitoring*: tuples are certified as they arrive, before
entering the database.  Fixing rules suit that deployment even better
— no user is needed per tuple — so this module packages lRepair for
tuple-at-a-time use:

* :class:`RepairSession` holds the immutable
  :class:`~repro.core.engine.CompiledRuleSet` (Σ compiled once, the
  same engine every other driver runs) and exposes :meth:`repair_row`
  / :meth:`repair_many`;
* :func:`repair_stream` is the generator form for pipeline code;
* :func:`repair_csv_file` streams a file through a session in constant
  memory.

A session also accumulates the same aggregate statistics as
:class:`~repro.core.repair.TableRepairReport`, so a long-running
monitor can answer "which rules have been firing?" at any point.

Production hardening (see :mod:`repro.core.pipeline`) rides on three
knobs:

* ``on_error`` — the :data:`~repro.errors.STRICT` /
  :data:`~repro.errors.SKIP` / :data:`~repro.errors.QUARANTINE` policy
  for rows that fail to parse or repair; failures become
  :class:`~repro.errors.RowError` records counted in :meth:`stats`
  (``rows_failed`` / ``rows_quarantined`` / ``errors_by_type``).
* ``on_inconsistent`` — ``"raise"`` (default: refuse service on an
  inconsistent Σ) or ``"degrade"``: run the Section 5.3 resolution
  workflow, serve the maximal consistent subset, and surface the
  shelved rules in :meth:`stats` and a :class:`RuntimeWarning`.
* ``checkpoint_path`` / ``resume`` on :func:`repair_csv_file` —
  crash-safe, exactly-once file repair: output is written to a
  temporary file and atomically renamed, and an fsynced checkpoint
  sidecar lets a killed run restart without redoing or duplicating
  work.
"""

from __future__ import annotations

import io
import logging
import os
import tempfile
import warnings
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from ..errors import (QUARANTINE, SKIP, STRICT, CheckpointError,
                      InconsistentRulesError, PipelineError, RowError,
                      validate_error_policy)
from ..relational import Row, Schema
from . import columnar
from .consistency import find_conflicts_cached
from .engine import CompiledRuleSet, compile_for_schema
from .instrumentation import ENGINE_STATS
from .pipeline import Checkpoint, FaultInjected, QuarantineWriter, fsync_handle
from .repair import RepairResult, RuleInput, _as_rule_list

ON_INCONSISTENT_RAISE = "raise"
ON_INCONSISTENT_DEGRADE = "degrade"
_ON_INCONSISTENT = (ON_INCONSISTENT_RAISE, ON_INCONSISTENT_DEGRADE)

#: Default records per chunk of :func:`repair_csv_file`: a full chunk
#: reaches the columnar scan's row threshold.
DEFAULT_CHUNK_SIZE = columnar.COLUMNAR_AUTO_THRESHOLD

logger = logging.getLogger("repro.core.stream")

#: First element of a per-row outcome recording an exception (see
#: :func:`error_marker`).
ERROR_MARK = "__row_error__"


def error_marker(exc: BaseException) -> tuple:
    """The per-row outcome of a row whose repair raised *exc*: chunked
    drivers keep going and let the error policy decide later."""
    return (ERROR_MARK, type(exc).__name__, str(exc))


def is_error_marker(encoded) -> bool:
    """Did this per-row outcome record an exception?"""
    return (isinstance(encoded, tuple) and len(encoded) == 3
            and encoded[0] == ERROR_MARK)


class RepairSession:
    """A long-lived lRepair instance for tuple-at-a-time repair.

    Parameters
    ----------
    rules:
        The rule set Σ; validated for consistency up front (a monitor
        feeding production writes must never depend on arrival order),
        unless ``check_consistency=False``.
    on_inconsistent:
        ``"raise"`` (default) refuses to open the session on an
        inconsistent Σ.  ``"degrade"`` instead runs the Section 5.3
        resolution workflow (:func:`repro.core.resolution.ensure_consistent`)
        and serves the maximal consistent subset; the shelved rules are
        listed in :attr:`shelved_rules` / :meth:`stats` and announced
        via a :class:`RuntimeWarning`.
    on_error:
        Error policy for :meth:`try_repair_row`: ``strict`` re-raises
        repair-time exceptions, ``skip`` / ``quarantine`` capture them
        as :class:`~repro.errors.RowError` records (``quarantine``
        additionally forwards them to :attr:`quarantine_sink`).
    quarantine_sink:
        Optional ``RowError -> None`` callable receiving quarantined
        records (typically :meth:`QuarantineWriter.write
        <repro.core.pipeline.QuarantineWriter>`).
    """

    def __init__(self, rules: RuleInput, check_consistency: bool = True,
                 on_inconsistent: str = ON_INCONSISTENT_RAISE,
                 on_error: str = STRICT,
                 quarantine_sink: Optional[Callable[[RowError], None]] = None):
        validate_error_policy(on_error)
        if on_inconsistent not in _ON_INCONSISTENT:
            raise ValueError("unknown on_inconsistent mode %r; expected "
                             "one of %s" % (on_inconsistent,
                                            ", ".join(_ON_INCONSISTENT)))
        rule_list = _as_rule_list(rules)
        #: whether Σ was inconsistent and a consistent subset is served
        self.degraded = False
        #: names of rules shelved or trimmed by degraded-mode resolution
        self.shelved_rules: List[str] = []
        #: the :class:`~repro.core.resolution.Revision` records behind it
        self.revisions = []
        if check_consistency:
            conflicts = find_conflicts_cached(rule_list, first_only=True)
            if conflicts:
                if on_inconsistent == ON_INCONSISTENT_DEGRADE:
                    rule_list = self._degrade(rules, rule_list)
                else:
                    raise InconsistentRulesError(
                        "refusing to open a repair session on inconsistent "
                        "rules: %s" % conflicts[0].describe(), conflicts)
        self._rules = rule_list
        # Compile Σ eagerly when a schema is at hand (a RuleSet input),
        # lazily from the first row's schema otherwise — plain rule
        # sequences carry no schema of their own.
        self._compiled: Optional[CompiledRuleSet] = None
        from .ruleset import RuleSet
        if isinstance(rules, RuleSet) and not self.degraded:
            self._compiled = compile_for_schema(rules.schema, rules)
        self.on_error = on_error
        self.quarantine_sink = quarantine_sink
        #: tuples seen / tuples changed / cells rewritten so far
        self.rows_seen = 0
        self.rows_changed = 0
        self.cells_changed = 0
        #: rows dropped under a non-strict error policy
        self.rows_failed = 0
        #: subset of the failed rows written to the dead-letter sink
        self.rows_quarantined = 0
        #: failure counts keyed by exception class name
        self.errors_by_type: Dict[str, int] = {}
        self._by_rule: Dict[str, int] = {}

    def _degrade(self, rules: RuleInput, rule_list):
        """Section 5.3 fallback: resolve Σ to a consistent subset."""
        from .resolution import ensure_consistent
        from .ruleset import RuleSet
        if isinstance(rules, RuleSet):
            ruleset = rules
        else:
            # Plain sequences carry no schema; synthesize one from the
            # attributes the rules actually reference.
            attrs: List[str] = []
            for rule in rule_list:
                for attr in tuple(rule.evidence) + (rule.attribute,):
                    if attr not in attrs:
                        attrs.append(attr)
            ruleset = RuleSet(Schema("degraded", attrs), rule_list)
        log = ensure_consistent(ruleset)
        self.degraded = True
        self.revisions = list(log.revisions)
        self.shelved_rules = sorted({rev.rule.name for rev in log.revisions})
        warnings.warn(
            "rule set is inconsistent; degraded mode shelved or trimmed "
            "%d rule(s): %s" % (len(self.shelved_rules),
                                ", ".join(self.shelved_rules)),
            RuntimeWarning, stacklevel=4)
        return log.rules.rules()

    def _engine_for(self, schema: Schema) -> CompiledRuleSet:
        """The session's compiled engine, built on first use for
        sessions opened over a plain (schema-less) rule sequence."""
        compiled = self._compiled
        if compiled is None or not compiled.compatible_with(schema):
            compiled = CompiledRuleSet(schema, self._rules)
            self._compiled = compiled
        return compiled

    def repair_row(self, row: Row) -> RepairResult:
        """Repair one tuple; the input row is not mutated."""
        result = self._engine_for(row.schema).repair_row(row)
        self.rows_seen += 1
        if result.changed:
            self.rows_changed += 1
            self.cells_changed += len(result.applied)
            for fix in result.applied:
                self._by_rule[fix.rule.name] = (
                    self._by_rule.get(fix.rule.name, 0) + 1)
        return result

    def try_repair_row(self, row: Row, line_no: Optional[int] = None,
                       source: str = "<stream>") -> Optional[RepairResult]:
        """:meth:`repair_row` under the session's error policy.

        Returns ``None`` (after :meth:`record_error`) when the repair
        raises and the policy is ``skip`` or ``quarantine``.
        """
        try:
            return self.repair_row(row)
        except FaultInjected:
            raise  # simulated kill: never absorbed by a policy
        except Exception as exc:
            if self.on_error == STRICT:
                raise
            self.record_error(RowError(str(source), line_no,
                                       tuple(row.values),
                                       type(exc).__name__, str(exc)))
            return None

    def record_error(self, error: RowError) -> None:
        """Count a failed row; under ``quarantine``, forward it to the sink."""
        self.rows_failed += 1
        self.errors_by_type[error.error_type] = (
            self.errors_by_type.get(error.error_type, 0) + 1)
        if self.on_error == QUARANTINE and self.quarantine_sink is not None:
            self.quarantine_sink(error)
            self.rows_quarantined += 1

    def repair_many(self, rows: Iterable[Row]) -> Iterator[RepairResult]:
        """Repair a stream of tuples lazily, in arrival order."""
        for row in rows:
            yield self.repair_row(row)

    def applications_by_rule(self) -> Dict[str, int]:
        """Cells corrected per rule name since the session opened."""
        return dict(self._by_rule)

    def stats(self) -> Dict[str, object]:
        """Aggregate counters for monitoring dashboards.

        ``errors_by_type`` lets a monitor alert on error-rate spikes by
        cause; ``degraded`` / ``rules_shelved`` expose degraded-mode
        operation.
        """
        return {
            "rows_seen": self.rows_seen,
            "rows_changed": self.rows_changed,
            "cells_changed": self.cells_changed,
            "rules": len(self._rules),
            "rows_failed": self.rows_failed,
            "rows_quarantined": self.rows_quarantined,
            "errors_by_type": dict(self.errors_by_type),
            "degraded": self.degraded,
            "rules_shelved": len(self.shelved_rules),
        }

    def _restore_counters(self, checkpoint: Checkpoint) -> None:
        """Resume support: reload the counters a checkpoint recorded."""
        stats = checkpoint.stats
        self.rows_seen = int(stats.get("rows_seen", 0))
        self.rows_changed = int(stats.get("rows_changed", 0))
        self.cells_changed = int(stats.get("cells_changed", 0))
        self.rows_failed = int(stats.get("rows_failed", 0))
        self.rows_quarantined = int(stats.get("rows_quarantined", 0))
        self.errors_by_type = dict(checkpoint.errors_by_type)
        self._by_rule = dict(checkpoint.by_rule)

    def __repr__(self) -> str:
        return ("RepairSession(%d rules, %d rows seen, %d cells changed)"
                % (len(self._rules), self.rows_seen, self.cells_changed))


def repair_stream(rows: Iterable[Row], rules: RuleInput,
                  check_consistency: bool = True,
                  on_inconsistent: str = ON_INCONSISTENT_RAISE,
                  on_error: str = STRICT,
                  error_sink: Optional[Callable[[RowError], None]] = None
                  ) -> Iterator[RepairResult]:
    """Generator form: yield a :class:`RepairResult` per incoming row.

    Sugar over :class:`RepairSession` for pipeline code that does not
    need the session statistics.  Under a non-strict *on_error* policy,
    rows whose repair raises are dropped (reported to *error_sink*
    when the policy is ``quarantine``); the session is created — and Σ
    validated — eagerly, before the first row is pulled.
    """
    session = RepairSession(rules, check_consistency=check_consistency,
                            on_inconsistent=on_inconsistent,
                            on_error=on_error, quarantine_sink=error_sink)
    if on_error == STRICT:
        return session.repair_many(rows)

    def generate() -> Iterator[RepairResult]:
        for position, row in enumerate(rows):
            result = session.try_repair_row(row, line_no=position)
            if result is not None:
                yield result
    return generate()


def _columnar_chunk_stream(compiled: CompiledRuleSet, records,
                           chunk_size: int):
    """Repair ``(line_no, Row | RowError)`` *records* in chunks of
    *chunk_size* records, yielding each chunk with one outcome per
    record: ``None`` for a fixpoint or a :class:`RowError`,
    ``(new_values, applied)`` for a repaired row, or an
    :func:`error_marker`.

    A chunk holding at least
    :data:`~repro.core.columnar.COLUMNAR_AUTO_THRESHOLD` rows is
    dictionary-encoded and only the kernel's candidate rows enter the
    chase (the rest are provably fixpoints, see
    :mod:`repro.core.columnar`); shorter chunks are chased row by row —
    the routing rule of ``repair_table(backend="auto")``.
    """
    repair_values = compiled.repair_values
    kernel = None
    records = iter(records)
    for chunk in iter(lambda: list(islice(records, chunk_size)), []):
        rows = [k for k, (_line, item) in enumerate(chunk)
                if not isinstance(item, RowError)]
        if len(rows) >= columnar.COLUMNAR_AUTO_THRESHOLD:
            if kernel is None:
                kernel = columnar.ColumnarKernel(compiled)
            candidates = kernel.candidate_indices(
                columnar.ColumnarTable.from_rows(
                    compiled.schema, [chunk[k][1]._cells for k in rows]))
            # pruned rows count as repaired (to a fixpoint), as on
            # the row engine
            ENGINE_STATS.rows_repaired += len(rows) - len(candidates)
            rows = [rows[i] for i in candidates]
        outcomes = [None] * len(chunk)
        for k in rows:
            try:
                outcomes[k] = repair_values(chunk[k][1]._cells)
            except FaultInjected:
                raise  # simulated kill: never absorbed by a policy
            except Exception as exc:
                outcomes[k] = error_marker(exc)
        yield chunk, outcomes


def repair_csv_file(input_path, rules: RuleInput, output_path,
                    check_consistency: bool = True,
                    on_error: str = STRICT,
                    quarantine_path=None,
                    checkpoint_path=None,
                    checkpoint_interval: int = 1000,
                    resume: bool = False,
                    on_inconsistent: str = ON_INCONSISTENT_RAISE,
                    rows=None,
                    chunk_size: Optional[int] = None) -> RepairSession:
    """Repair a CSV file chunk by chunk, in constant memory, crash-safely.

    Tuple-level repair needs no cross-row state, so arbitrarily large
    files stream through one :class:`RepairSession`: rows are read,
    repaired, and written without ever materializing a table.  The
    rules' schema defines the expected header.  Returns the session so
    callers can inspect the accumulated statistics.

    Fault tolerance:

    * Output is always written to a temporary file in the destination
      directory and atomically renamed (``os.replace``) on success — a
      failed run never leaves a half-written file that looks complete.
    * *on_error* (``strict`` / ``skip`` / ``quarantine``) governs
      malformed and unrepairable rows; ``quarantine`` writes them to
      the dead-letter JSONL file *quarantine_path* (default:
      ``<output>.quarantine.jsonl``) with line-number provenance for
      later replay via
      :func:`~repro.core.pipeline.replay_quarantine`.
    * With *checkpoint_path*, an fsynced
      :class:`~repro.core.pipeline.Checkpoint` sidecar is committed
      every *checkpoint_interval* rows.  A later call with
      ``resume=True`` truncates the partial output (and quarantine
      file) back to the last committed byte offsets, skips the already
      committed input lines, and continues — producing output
      byte-identical to an uninterrupted run, with no duplicated or
      lost rows.  The sidecar is removed on success.

    *rows* is an advanced hook: a pre-built iterable of
    ``(line_no, Row | RowError)`` pairs replacing the CSV read (the
    fault-injection tests wrap the default reader in a
    :class:`~repro.core.pipeline.FaultInjector`).

    Records are repaired in chunks of *chunk_size* (default
    :data:`DEFAULT_CHUNK_SIZE`, capped at *checkpoint_interval* when
    checkpointing) with the session's compiled Σ; a chunk of at least
    :data:`~repro.core.columnar.COLUMNAR_AUTO_THRESHOLD` rows goes
    through the columnar candidate scan, a shorter one row by row —
    same output bytes either way.  Checkpoints are committed at chunk
    boundaries.  Under ``on_error='strict'`` a repair-time exception
    surfaces as :class:`~repro.errors.PipelineError` naming the
    original type.  Each rewritten cell is logged at ``DEBUG`` on the
    ``repro.core.stream`` logger with its input line number.
    """
    import csv as _csv
    from ..relational.csvio import iter_csv_records
    from .ruleset import RuleSet

    if not isinstance(rules, RuleSet):
        raise TypeError(
            "repair_csv_file(rules=...) needs a RuleSet — it defines the "
            "expected CSV schema — but got %s; wrap plain rule sequences "
            "with RuleSet(schema, rules) first"
            % type(rules).__name__)
    validate_error_policy(on_error)
    if checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1, got %d"
                         % checkpoint_interval)
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE
        if checkpoint_path is not None:
            chunk_size = min(chunk_size, checkpoint_interval)
    elif chunk_size < 1:
        raise ValueError("chunk_size must be >= 1, got %d" % chunk_size)
    if resume and checkpoint_path is None:
        raise ValueError("resume=True requires checkpoint_path")
    if quarantine_path is not None and on_error != QUARANTINE:
        raise ValueError("quarantine_path is only meaningful with "
                         "on_error='quarantine'")
    schema = rules.schema
    out_path = os.fspath(output_path)
    if on_error == QUARANTINE and quarantine_path is None:
        quarantine_path = out_path + ".quarantine.jsonl"

    checkpointing = checkpoint_path is not None
    checkpoint = None
    if resume and os.path.exists(checkpoint_path):
        checkpoint = Checkpoint.load(checkpoint_path)
        if checkpoint.input_path != os.fspath(input_path):
            raise CheckpointError(
                "checkpoint %s was written for input %r, not %r"
                % (checkpoint_path, checkpoint.input_path,
                   os.fspath(input_path)))

    session = RepairSession(rules, check_consistency=check_consistency,
                            on_inconsistent=on_inconsistent,
                            on_error=on_error)

    if checkpointing:
        # Deterministic name: resume must find the same partial file.
        part_path = out_path + ".part"
    else:
        fd, part_path = tempfile.mkstemp(
            dir=os.path.dirname(out_path) or ".",
            prefix=os.path.basename(out_path) + ".", suffix=".tmp")
        # mkstemp makes the file 0600; publish with the mode open() gives
        umask = os.umask(0o022)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        os.close(fd)

    quarantine = None
    raw = None
    handle = None
    completed = False
    try:
        if checkpoint is not None:
            if not os.path.exists(part_path):
                raise CheckpointError(
                    "checkpoint %s exists but the partial output %s is "
                    "missing" % (checkpoint_path, part_path))
            raw = open(part_path, "r+b")
            raw.truncate(checkpoint.output_offset)
            raw.seek(checkpoint.output_offset)
            session._restore_counters(checkpoint)
        else:
            raw = open(part_path, "wb")
        # Binary underneath, text on top: handle.flush() + raw.tell()
        # yields exact byte offsets for the checkpoint commit tokens.
        handle = io.TextIOWrapper(raw, encoding="utf-8", newline="")
        writer = _csv.writer(handle)
        if on_error == QUARANTINE:
            quarantine = QuarantineWriter(
                quarantine_path,
                resume_offset=(checkpoint.quarantine_offset
                               if checkpoint is not None else None))
            session.quarantine_sink = quarantine.write
        if checkpoint is None:
            writer.writerow(schema.attribute_names)

        last_line = checkpoint.input_line if checkpoint is not None else 1
        resume_line = last_line
        since_commit = 0

        def commit() -> None:
            handle.flush()
            os.fsync(raw.fileno())
            Checkpoint(
                input_path=os.fspath(input_path),
                input_line=last_line,
                output_offset=raw.tell(),
                quarantine_offset=(quarantine.sync()
                                   if quarantine is not None else 0),
                stats={
                    "rows_seen": session.rows_seen,
                    "rows_changed": session.rows_changed,
                    "cells_changed": session.cells_changed,
                    "rows_failed": session.rows_failed,
                    "rows_quarantined": session.rows_quarantined,
                },
                by_rule=session.applications_by_rule(),
                errors_by_type=dict(session.errors_by_type),
            ).save(checkpoint_path)

        if rows is None:
            rows = iter_csv_records(input_path, schema, on_error=on_error)

        compiled = session._engine_for(schema)
        by_rule = session._by_rule
        source = os.fspath(input_path)
        log_fixes = logger.isEnabledFor(logging.DEBUG)
        pending = (record for record in rows if record[0] > resume_line)
        for chunk, outcomes in _columnar_chunk_stream(compiled, pending,
                                                      chunk_size):
            for (line_no, item), outcome in zip(chunk, outcomes):
                if isinstance(item, RowError):
                    session.record_error(item)
                elif outcome is None:
                    session.rows_seen += 1
                    writer.writerow(item._cells)
                elif is_error_marker(outcome):
                    _mark, error_type, message = outcome
                    if on_error == STRICT:
                        raise PipelineError(
                            "row at line %d failed to repair: %s: %s"
                            % (line_no, error_type, message))
                    session.record_error(RowError(
                        source, line_no, tuple(item._cells), error_type,
                        message))
                else:
                    new_values, applied = outcome
                    session.rows_seen += 1
                    session.rows_changed += 1
                    session.cells_changed += len(applied)
                    for rule_id, _old in applied:
                        rule = compiled.rules[rule_id]
                        by_rule[rule.name] = by_rule.get(rule.name, 0) + 1
                        if log_fixes:
                            logger.debug("line %d, %s -> %r", line_no,
                                         rule.attribute, rule.fact)
                    writer.writerow(new_values)
                last_line = line_no
            since_commit += len(chunk)
            if checkpointing and since_commit >= checkpoint_interval:
                commit()
                since_commit = 0

        fsync_handle(handle)
        if quarantine is not None:
            quarantine.sync()
        completed = True
    finally:
        if quarantine is not None:
            quarantine.close()
        if handle is not None:
            handle.close()  # also closes raw
        elif raw is not None:
            raw.close()
        # On failure: keep the partial output + checkpoint when
        # checkpointing (resume needs them); otherwise clean up so no
        # output ever exists for a failed run.
        if not completed and not checkpointing and os.path.exists(part_path):
            os.unlink(part_path)
    from ..durability.faults import durable_replace, fsync_dir
    durable_replace(part_path, out_path, "output.rename")
    # fsync the parent directory so the publish rename itself survives
    # power loss (the file contents were fsynced above)
    fsync_dir(os.path.dirname(os.path.abspath(out_path)), "output.dirsync")
    if checkpointing and os.path.exists(checkpoint_path):
        os.unlink(checkpoint_path)
    return session


# -- delta-aware continuous mode ---------------------------------------------

def repair_delta_stream(events, rules=None, *, session=None,
                        log_path=None, check_consistency: bool = True,
                        on_error: str = STRICT):
    """Drive a delta session from a stream of change events.

    The continuous counterpart of :func:`repair_stream`: instead of
    repairing each incoming row once and forgetting it, events mutate
    a long-lived :class:`~repro.core.delta.DeltaRepairSession` —
    upserts, deletes, rule additions and removals — and each event
    re-repairs only its affected slice, appending every cell change
    to the session's correction log.

    *events* yields dicts (see
    :meth:`~repro.core.delta.DeltaRepairSession.apply_event` for the
    accepted shapes).  Pass *rules* to start a fresh empty session, or
    *session* to continue an existing one.  Yields ``(event, outcome)``
    pairs where *outcome* is a
    :class:`~repro.core.delta.DeltaOutcome` — or, with
    ``on_error="skip"``, ``(event, exception)`` for events that failed
    (malformed payloads, inconsistent rule deltas) while the stream
    keeps going; the default ``"strict"`` re-raises.
    """
    from ..errors import ReproError
    from .delta import DeltaRepairSession
    if session is None:
        if rules is None:
            raise ValueError("repair_delta_stream needs rules= or session=")
        session = DeltaRepairSession(rules, log_path=log_path,
                                     check_consistency=check_consistency)
    if on_error not in (STRICT, SKIP):
        raise ValueError("on_error must be %r or %r" % (STRICT, SKIP))
    for event in events:
        try:
            outcome = session.apply_event(event)
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            if on_error == STRICT:
                raise
            yield event, exc
            continue
        yield event, outcome
