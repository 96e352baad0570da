"""Incremental delta repair with an auditable correction log.

The batch drivers (:func:`~repro.core.repair.repair_table`, the
streaming path) re-repair **everything** whenever
anything changes.  For the continuous scenario — rows arriving or
changing, per-tenant Σ hot-reloaded while serving — that is
O(N·size(Σ)) per delta no matter how small the delta is.

:class:`DeltaRepairSession` makes re-repair proportional to the
*affected slice* instead.  It wraps a repaired table plus three
persistent indexes maintained incrementally:

* **value postings** — per indexed attribute (any attribute Σ's
  evidence patterns or fact attributes reference), ``value → {row
  id}`` over the *original* cell values.  Seeded from the columnar
  dictionaries when the initial bulk load runs the columnar backend,
  maintained per upsert/delete afterwards.  A rule's evidence pattern
  is evaluated as the intersection of its per-attribute posting sets,
  i.e. the evidence-pattern → row postings of the compiled engine's
  interned code space, factored by column.
* **rule → rows-applied** — provenance postings: which rows' chases
  actually applied each rule.
* **attribute → rows-rewritten** — which rows' chases rewrote each
  attribute (the fact attributes of their applied rules).

Why those indexes are *sufficient* (the incremental == full property
the differential harness and the Hypothesis interleaving property
pin):

* ``apply_rows`` — tuple repairs are independent, so an upsert or
  delete affects exactly that row.
* ``apply_rules(removed=[φ])`` — a row whose chase never applied φ
  repairs identically under Σ∖{φ}: its application sequence never
  used φ, remains available, and still ends in a fixpoint (skipping a
  rule has no side effects), which by Church–Rosser on the consistent
  Σ∖{φ} is *the* result.  Only rows in the rule→rows-applied postings
  of φ can change.
* ``apply_rules(added=[φ])`` — an unchanged row (a Σ-fixpoint) can
  only start changing if some rule fires on its original values; Σ
  rules do not (fixpoint), so φ must — exactly the candidate test
  (evidence postings intersection ∩ negatives postings on φ's fact
  attribute).  A changed row can additionally be affected if φ fires
  *mid-chase*, which requires a cell of ``touched(φ) = X_φ ∪ {B_φ}``
  to differ from the original at some point — only rewritten
  attributes do, hence the attribute → rows-rewritten postings.

Every cell change — during the initial bulk load or any delta — is
appended to a replayable JSONL **correction log** carrying row id,
attribute, old → new, the applying rule's name and content
fingerprint, the matched evidence tuple, and the session/epoch, with
``create_snapshot → validate_snapshot → apply → generate_audit_report``
stages so an operator can checkpoint, verify integrity, mutate, and
account for every correction.  :func:`replay_correction_log` rebuilds
the final table from the log alone and cross-checks every recorded
old value; ``repro audit`` exposes it on the command line.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
import uuid
from pathlib import Path
from typing import (Any, Dict, FrozenSet, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Set, Tuple, Union)

from ..errors import InconsistentRulesError, ReproError
from ..relational import Row, Schema, Table
from .instrumentation import ENGINE_STATS
from .repair import AppliedFix, RepairResult
from .rule import FixingRule
from .ruleset import RuleSet

__all__ = [
    "CorrectionLog",
    "DeltaError",
    "DeltaOutcome",
    "DeltaRepairSession",
    "SessionSnapshot",
    "audit_correction_log",
    "iter_log_records",
    "load_log_records",
    "replay_correction_log",
]

#: Correction-log format version, stamped into every ``begin`` record.
LOG_VERSION = 1

logger = logging.getLogger("repro.core.delta")


class DeltaError(ReproError):
    """Integrity violation in a delta session or correction log."""


class DeltaOutcome(NamedTuple):
    """What one ``apply_rows`` / ``apply_rules`` call did."""

    epoch: int
    kind: str                     #: ``"rows"`` or ``"rules"``
    affected: Tuple[str, ...]     #: row ids re-repaired this epoch
    corrections: int              #: cell records appended to the log
    reverts: int                  #: revert records appended to the log
    detail: Dict[str, Any]        #: per-kind counts (upserts/deletes
                                  #: or added/removed + fingerprint)


class SessionSnapshot(NamedTuple):
    """A checkpoint of session state for the validate stage."""

    session_id: str
    epoch: int
    rows: int
    rules_fingerprint: str
    corrections: int
    checksum: str


def _rule_fp(rule: FixingRule) -> str:
    """Stable 16-hex content fingerprint of one rule (for log records)."""
    return hashlib.sha256(repr(rule.signature()).encode("utf-8")) \
        .hexdigest()[:16]


class CorrectionLog:
    """Append-only JSONL sink for correction records.

    With a *path* the log is written line-buffered to disk (appending,
    so a session resumed onto an existing log continues it); without
    one records accumulate in memory — same replay semantics either
    way.  With ``fsync=True`` every :meth:`flush` also forces the
    records to stable storage — the write-ahead discipline the serve
    daemon needs before acknowledging a delta.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None, *,
                 fsync: bool = False):
        self.path = Path(path) if path is not None else None
        self.fsync = fsync
        self.records_written = 0
        self._memory: List[dict] = []
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, record: dict) -> None:
        if self._fh is not None:
            from ..durability.faults import durable_write
            durable_write(self._fh,
                          json.dumps(record, sort_keys=True,
                                     separators=(",", ":")) + "\n",
                          "correction_log.append")
        else:
            self._memory.append(record)
        self.records_written += 1

    def flush(self) -> None:
        if self._fh is not None:
            if self.fsync:
                self.sync()
            else:
                self._fh.flush()

    def sync(self) -> None:
        """Flush and fsync (regardless of the ``fsync`` flag)."""
        if self._fh is not None:
            from ..durability.faults import durable_fsync
            durable_fsync(self._fh, "correction_log.fsync")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def records(self) -> List[dict]:
        """Every record this process can see (memory or re-read file)."""
        if self.path is not None:
            return list(iter_log_records(self.path))
        return list(self._memory)


def iter_log_records(source) -> Iterator[dict]:
    """Yield correction-log records from a path, text, or iterable."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield json.loads(line)
        return
    for item in source:
        if isinstance(item, str):
            item = item.strip()
            if not item:
                continue
            yield json.loads(item)
        else:
            yield item


class DeltaRepairSession:
    """A repaired table that absorbs row and Σ deltas sub-linearly.

    Parameters
    ----------
    rules:
        Σ as a :class:`~repro.core.ruleset.RuleSet` (copied) or a
        :class:`~repro.core.incremental.ConsistentRuleSet`.  Checked
        consistent once up front (fingerprint-cached) unless
        *check_consistency* is false — every correctness argument in
        the module docstring needs Church–Rosser, i.e. a consistent Σ.
    rows:
        Initial table: an iterable of ``(row_id, values)`` pairs, a
        mapping ``row_id → values``, or a
        :class:`~repro.relational.Table` (ids ``"0"``…).  Row ids are
        coerced to ``str`` (they travel through JSON).
    log_path:
        JSONL correction-log destination; ``None`` keeps records in
        memory.
    log_base:
        Whether the initial load writes ``upsert`` + ``cell`` records
        for every base row.  Leave on (default) if the log must be
        replayable from nothing; turn off when only deltas need
        auditing and the base table is archived elsewhere.
    session_id:
        Stable identifier stamped into every record; default a fresh
        96-bit hex token.
    durable:
        When true, every log flush also fsyncs — a delta is on stable
        storage before its outcome is returned (the serve daemon's
        write-ahead discipline; see :mod:`repro.durability`).
    """

    def __init__(self, rules, rows=None, *,
                 log_path: Optional[Union[str, Path]] = None,
                 log_base: bool = True,
                 check_consistency: bool = True,
                 session_id: Optional[str] = None,
                 durable: bool = False):
        ruleset = self._coerce_rules(rules)
        self.schema: Schema = ruleset.schema
        self._attrs: Tuple[str, ...] = self.schema.attribute_names
        self._nattrs = len(self._attrs)
        self._rules: RuleSet = ruleset
        #: re-checked on every Σ delta too; False means the caller
        #: vouches for Σ (a pre-verified registry entry, a benchmark)
        self._check_consistency = check_consistency
        if check_consistency:
            from .consistency import find_conflicts_cached
            conflicts = find_conflicts_cached(self._rules, first_only=True)
            if conflicts:
                raise InconsistentRulesError(
                    "delta session needs a consistent Σ: %s"
                    % conflicts[0].describe(), conflicts)
        self.session_id = session_id or uuid.uuid4().hex[:24]
        self.epoch = 0
        self.log = CorrectionLog(log_path, fsync=durable)
        self.stats: Dict[str, int] = {
            "rows_loaded": 0, "upserts": 0, "deletes": 0,
            "rules_added": 0, "rules_removed": 0,
            "rows_rerepaired": 0, "corrections": 0, "reverts": 0,
            "full_scans": 0,
        }

        # -- mutable state ------------------------------------------------
        #: row id -> original cell values (insertion-ordered)
        self._originals: Dict[str, List[str]] = {}
        #: row id -> (repaired values, ((rule signature, old), ...));
        #: present only for rows the chase changed
        self._fixed: Dict[str, Tuple[List[str],
                                     Tuple[Tuple[tuple, str], ...]]] = {}
        #: rule signature -> row ids whose chase applied it
        self._rows_by_rule: Dict[tuple, Set[str]] = {}
        #: attribute -> row ids whose chase rewrote it
        self._rows_by_rewritten: Dict[str, Set[str]] = {}
        #: attribute -> original value -> row ids (built lazily for
        #: attributes Σ references; maintained on upsert/delete)
        self._postings: Dict[str, Dict[str, Set[str]]] = {}
        #: rule signature -> fact attribute, covering every rule the
        #: session has *ever* held — retraction of a row repaired under
        #: a since-removed rule still needs to clean the rewritten
        #: postings for that rule's attribute
        self._sig_attr: Dict[tuple, str] = {}

        self._bind_rules()
        self.log.append({"op": "begin", "version": LOG_VERSION,
                         "session": self.session_id, "epoch": self.epoch,
                         "schema": {"name": self.schema.name,
                                    "attributes": list(self._attrs)},
                         "rules": len(self._rules),
                         "fingerprint": self._rules.fingerprint(),
                         "ts": round(time.time(), 3)})
        if rows is not None:
            self._load(rows, log_base=log_base)

    # -- construction helpers ---------------------------------------------

    def _coerce_rules(self, rules) -> RuleSet:
        if isinstance(rules, RuleSet):
            return rules.copy()
        as_ruleset = getattr(rules, "as_ruleset", None)
        if callable(as_ruleset):        # ConsistentRuleSet
            return as_ruleset()
        raise ReproError("DeltaRepairSession needs a RuleSet or "
                         "ConsistentRuleSet, got %r" % (rules,))

    def _bind_rules(self) -> None:
        """(Re)derive every Σ-dependent structure after a rule swap."""
        from .engine import compile_cached
        self._compiled = compile_cached(self.schema, self._rules,
                                        fingerprint=self._rules.fingerprint())
        self._sig_by_id: List[tuple] = [rule.signature()
                                        for rule in self._rules]
        self._rule_by_sig: Dict[tuple, FixingRule] = {
            rule.signature(): rule for rule in self._rules}
        self._indexed_attrs: Set[str] = set()
        for rule in self._rules:
            self._indexed_attrs.update(rule.evidence)
            self._indexed_attrs.add(rule.attribute)
            self._sig_attr[rule.signature()] = rule.attribute

    @classmethod
    def from_table(cls, table: Table, rules, **kwargs
                   ) -> "DeltaRepairSession":
        """Wrap *table* with ids ``"0"`` … ``str(len-1)``."""
        pairs = [(str(i), list(row._cells)) for i, row in enumerate(table)]
        return cls(rules, pairs, **kwargs)

    # -- initial bulk load -------------------------------------------------

    def _load(self, rows, log_base: bool) -> None:
        pairs = self._normalize_rows(rows)
        for rid, values in pairs:
            if rid in self._originals:
                raise DeltaError("duplicate row id %r in initial load" % rid)
            self._originals[rid] = values
        self.stats["rows_loaded"] = len(self._originals)
        ids = list(self._originals)
        candidates: Iterable[str] = ids
        from .columnar import (COLUMNAR_AUTO_THRESHOLD, ColumnarKernel,
                               ColumnarTable)
        if len(ids) >= COLUMNAR_AUTO_THRESHOLD and ids:
            # Columnar bulk load: one dictionary-encoded candidate scan
            # finds the rows any rule can fire on (exact, per the
            # candidate-exactness argument in repro.core.columnar), and
            # the per-column dictionaries double as ready-made posting
            # keys.
            ctable = ColumnarTable.from_rows(
                self.schema, [self._originals[rid] for rid in ids])
            kernel = ColumnarKernel(self._compiled)
            candidates = [ids[i] for i in kernel.candidate_indices(ctable)]
            # pruned rows count as repaired (to a fixpoint), as on the
            # row engine
            ENGINE_STATS.rows_repaired += len(ids) - len(candidates)
            self._seed_postings_columnar(ctable, ids)
        else:
            for attr in self._indexed_attrs:
                self._postings_for(attr)
        if log_base:
            for rid in ids:
                self._log_upsert(rid)
        repair = self._repair_one
        for rid in candidates:
            repair(rid, self._originals[rid], log=log_base)
        self.log.flush()

    def _normalize_rows(self, rows) -> List[Tuple[str, List[str]]]:
        if isinstance(rows, Table):
            return [(str(i), list(row._cells))
                    for i, row in enumerate(rows)]
        if hasattr(rows, "items"):
            rows = rows.items()
        out = []
        for rid, values in rows:
            out.append((str(rid), self._check_values(values)))
        return out

    def _check_values(self, values) -> List[str]:
        cells = [v if isinstance(v, str) else str(v) for v in values]
        if len(cells) != self._nattrs:
            raise DeltaError("row has %d cells, schema %r has %d"
                             % (len(cells), self.schema.name, self._nattrs))
        return cells

    def _seed_postings_columnar(self, ctable, ids: List[str]) -> None:
        """Build value postings for indexed attrs from the encoded table."""
        for attr in self._indexed_attrs:
            pos = self.schema.index_of(attr)
            dictionary = ctable.dictionary_for(pos)
            codes = ctable.codes_for(pos)
            postings: Dict[str, Set[str]] = {v: set() for v in dictionary}
            if ctable.use_numpy:
                from .columnar import _load_numpy
                np = _load_numpy()
                order = np.argsort(codes, kind="stable")
                counts = np.bincount(codes, minlength=len(dictionary))
                offset = 0
                for code, count in enumerate(counts.tolist()):
                    if count:
                        postings[dictionary[code]].update(
                            ids[i] for i in order[offset:offset + count]
                            .tolist())
                    offset += count
            else:
                for rid, code in zip(ids, codes):
                    postings[dictionary[code]].add(rid)
            self._postings[attr] = postings

    # -- index maintenance -------------------------------------------------

    def _postings_for(self, attr: str) -> Dict[str, Set[str]]:
        postings = self._postings.get(attr)
        if postings is None:
            pos = self.schema.index_of(attr)
            postings = {}
            for rid, values in self._originals.items():
                postings.setdefault(values[pos], set()).add(rid)
            self._postings[attr] = postings
        return postings

    def _index_row(self, rid: str, values: List[str]) -> None:
        for attr, postings in self._postings.items():
            postings.setdefault(values[self.schema.index_of(attr)],
                                set()).add(rid)

    def _unindex_row(self, rid: str, values: List[str]) -> None:
        for attr, postings in self._postings.items():
            bucket = postings.get(values[self.schema.index_of(attr)])
            if bucket is not None:
                bucket.discard(rid)

    def _drop_fixed(self, rid: str) -> Optional[Tuple[List[str], tuple]]:
        """Retract *rid*'s repaired entry and its provenance postings."""
        entry = self._fixed.pop(rid, None)
        if entry is not None:
            for sig, _old in entry[1]:
                bucket = self._rows_by_rule.get(sig)
                if bucket is not None:
                    bucket.discard(rid)
                attr = self._sig_attr.get(sig)
                if attr is not None:
                    rewritten = self._rows_by_rewritten.get(attr)
                    if rewritten is not None:
                        rewritten.discard(rid)
        return entry

    # -- the incremental unit of work --------------------------------------

    def _repair_one(self, rid: str, prev_visible: Sequence[str],
                    log: bool = True) -> Tuple[int, int]:
        """Re-chase row *rid* from its originals; reconcile state + log.

        *prev_visible* is what the row looked like before this epoch
        (its previous repaired values, or the freshly upserted cells).
        Returns ``(corrections, reverts)`` appended to the log.
        """
        original = self._originals[rid]
        self._drop_fixed(rid)
        outcome = self._compiled.repair_values(original)
        if outcome is None:
            new_values: List[str] = original
            applied: Tuple[Tuple[tuple, str], ...] = ()
        else:
            new_cells, applied_ids = outcome
            new_values = new_cells
            applied = tuple((self._sig_by_id[rule_id], old)
                            for rule_id, old in applied_ids)
            self._fixed[rid] = (new_values, applied)
            for sig, _old in applied:
                self._rows_by_rule.setdefault(sig, set()).add(rid)
                rule = self._rule_by_sig[sig]
                self._rows_by_rewritten.setdefault(rule.attribute,
                                                   set()).add(rid)
        corrections = reverts = 0
        if log:
            by_attr = {self._rule_by_sig[sig].attribute:
                       self._rule_by_sig[sig] for sig, _old in applied}
            for pos, attr in enumerate(self._attrs):
                old_v, new_v = prev_visible[pos], new_values[pos]
                if old_v == new_v:
                    continue
                rule = by_attr.get(attr)
                if rule is not None:
                    self.log.append({
                        "op": "cell", "row": rid, "attr": attr,
                        "old": old_v, "new": new_v, "rule": rule.name,
                        "rule_fp": _rule_fp(rule),
                        "evidence": sorted(rule.evidence.items()),
                        "session": self.session_id, "epoch": self.epoch})
                    corrections += 1
                else:
                    self.log.append({
                        "op": "revert", "row": rid, "attr": attr,
                        "old": old_v, "new": new_v,
                        "session": self.session_id, "epoch": self.epoch})
                    reverts += 1
        self.stats["corrections"] += corrections
        self.stats["reverts"] += reverts
        return corrections, reverts

    def _log_upsert(self, rid: str) -> None:
        self.log.append({"op": "upsert", "row": rid,
                         "values": list(self._originals[rid]),
                         "session": self.session_id, "epoch": self.epoch})

    # -- public delta entry points -----------------------------------------

    def apply_rows(self, upserts=(), deletes=()) -> DeltaOutcome:
        """Absorb a row delta; re-repairs exactly the touched rows.

        *upserts* is a mapping ``row_id → values`` or an iterable of
        ``(row_id, values)`` pairs (insert or full-row replace);
        *deletes* is an iterable of row ids.  Deletes run first, so an
        id in both is re-inserted.  Tuple repairs are independent —
        no other row's repair can change — hence cost is
        O(|delta|·size(Σ)) regardless of table size.
        """
        self.epoch += 1
        affected: List[str] = []
        corrections = reverts = 0
        n_deleted = 0
        for rid in deletes:
            rid = str(rid)
            values = self._originals.pop(rid, None)
            if values is None:
                continue
            self._unindex_row(rid, values)
            self._drop_fixed(rid)
            self.log.append({"op": "delete", "row": rid,
                             "session": self.session_id,
                             "epoch": self.epoch})
            n_deleted += 1
        pairs = upserts.items() if hasattr(upserts, "items") else upserts
        n_upserted = 0
        for rid, values in pairs:
            rid = str(rid)
            values = self._check_values(values)
            previous = self._originals.get(rid)
            if previous is not None:
                self._unindex_row(rid, previous)
            self._originals[rid] = values
            self._index_row(rid, values)
            self._log_upsert(rid)
            c, r = self._repair_one(rid, values)
            corrections += c
            reverts += r
            affected.append(rid)
            n_upserted += 1
        self.log.flush()
        self.stats["upserts"] += n_upserted
        self.stats["deletes"] += n_deleted
        self.stats["rows_rerepaired"] += len(affected)
        return DeltaOutcome(self.epoch, "rows", tuple(affected),
                            corrections, reverts,
                            {"upserts": n_upserted, "deletes": n_deleted})

    def apply_rules(self, added: Iterable[FixingRule] = (),
                    removed: Iterable[FixingRule] = ()) -> DeltaOutcome:
        """Absorb a Σ delta; re-repairs only the affected slice.

        The affected set (derivation in the module docstring):

        * each removed rule contributes the rows whose chase applied
          it (rule → rows-applied postings);
        * each added rule φ contributes its candidate rows (evidence
          postings intersection, negatives on the fact attribute) plus
          every changed row whose chase rewrote an attribute of
          ``touched(φ)``.

        The post-delta Σ is consistency-checked *before* any state is
        touched (skipped when the session was built with
        ``check_consistency=False``); an inconsistent delta raises
        :class:`~repro.errors.InconsistentRulesError` and leaves the
        session unchanged.  Idempotent edits (adding a present rule,
        removing an absent one) are skipped and reported in
        ``detail``.
        """
        removed = list(removed)
        added = list(added)
        next_rules = RuleSet(self.schema)
        removed_sigs = {rule.signature() for rule in removed}
        actually_removed = [rule for rule in self._rules
                            if rule.signature() in removed_sigs]
        for rule in self._rules:
            if rule.signature() not in removed_sigs:
                next_rules.add(rule)
        actually_added = [rule for rule in added if next_rules.add(rule)]
        if self._check_consistency:
            from .consistency import find_conflicts_cached
            conflicts = find_conflicts_cached(next_rules, first_only=True)
            if conflicts:
                raise InconsistentRulesError(
                    "rule delta would leave Σ inconsistent: %s"
                    % conflicts[0].describe(), conflicts)

        self.epoch += 1
        affected: Set[str] = set()
        for rule in actually_removed:
            affected.update(self._rows_by_rule.get(rule.signature(), ()))
        for rule in actually_added:
            affected.update(self._candidate_rows(rule))
            for attr in rule.touched_attrs:
                affected.update(self._rows_by_rewritten.get(attr, ()))

        self._rules = next_rules
        self._bind_rules()
        fingerprint = self._rules.fingerprint()
        self.log.append({"op": "rules",
                         "added": [rule.name for rule in actually_added],
                         "removed": [rule.name for rule in actually_removed],
                         "rules": len(self._rules),
                         "fingerprint": fingerprint,
                         "session": self.session_id, "epoch": self.epoch})
        corrections = reverts = 0
        ordered = [rid for rid in self._originals if rid in affected]
        for rid in ordered:
            entry = self._fixed.get(rid)
            prev_visible = list(entry[0]) if entry is not None \
                else self._originals[rid]
            c, r = self._repair_one(rid, prev_visible)
            corrections += c
            reverts += r
        self.log.flush()
        self.stats["rules_added"] += len(actually_added)
        self.stats["rules_removed"] += len(actually_removed)
        self.stats["rows_rerepaired"] += len(ordered)
        return DeltaOutcome(self.epoch, "rules", tuple(ordered),
                            corrections, reverts,
                            {"added": len(actually_added),
                             "removed": len(actually_removed),
                             "skipped": (len(added) - len(actually_added))
                             + (len(removed) - len(actually_removed)),
                             "fingerprint": fingerprint})

    def apply_event(self, event: dict) -> DeltaOutcome:
        """Apply one continuous-mode event (see :mod:`repro.core.stream`).

        Shapes: ``{"op": "upsert", "id", "values"}``,
        ``{"op": "delete", "id"}``, ``{"op": "batch", "upserts":
        [{"id", "values"}, ...], "deletes": [...]}``, ``{"op":
        "add_rule", "rule": {...}}`` (serialized rule dict), ``{"op":
        "remove_rule", "name"}`` or ``{"op": "remove_rule", "rule":
        {...}}``.
        """
        from .serialization import rule_from_dict
        op = event.get("op")
        if op == "upsert":
            return self.apply_rows(upserts=[(event["id"], event["values"])])
        if op == "delete":
            return self.apply_rows(deletes=[event["id"]])
        if op == "batch":
            return self.apply_rows(
                upserts=[(u["id"], u["values"])
                         for u in event.get("upserts", ())],
                deletes=event.get("deletes", ()))
        if op == "add_rule":
            return self.apply_rules(added=[rule_from_dict(event["rule"])])
        if op == "remove_rule":
            if "rule" in event:
                rule = rule_from_dict(event["rule"])
            else:
                rule = self._rules.by_name(event["name"])
            return self.apply_rules(removed=[rule])
        raise DeltaError("unknown delta event op %r" % (op,))

    def _candidate_rows(self, rule: FixingRule) -> Set[str]:
        """Rows whose *original* values rule can fire on (first
        application fires on originals — candidate exactness)."""
        rows: Optional[Set[str]] = None
        for attr, value in sorted(rule.evidence.items(),
                                  key=lambda item: item[0]):
            bucket = self._postings_for(attr).get(value)
            if not bucket:
                return set()
            rows = set(bucket) if rows is None else rows & bucket
            if not rows:
                return set()
        fact_postings = self._postings_for(rule.attribute)
        negatives: Set[str] = set()
        for value in rule.negatives:
            negatives.update(fact_postings.get(value, ()))
        return negatives if rows is None else rows & negatives

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._originals)

    def __contains__(self, rid) -> bool:
        return str(rid) in self._originals

    def row_ids(self) -> List[str]:
        return list(self._originals)

    def row(self, rid) -> List[str]:
        """Current repaired cell values of one row."""
        rid = str(rid)
        entry = self._fixed.get(rid)
        if entry is not None:
            return list(entry[0])
        return list(self._originals[rid])

    def original(self, rid) -> List[str]:
        return list(self._originals[str(rid)])

    def row_result(self, rid) -> RepairResult:
        """Full :class:`~repro.core.repair.RepairResult` provenance."""
        rid = str(rid)
        entry = self._fixed.get(rid)
        if entry is None:
            return RepairResult(
                Row.from_trusted(self.schema,
                                 list(self._originals[rid])),
                (), frozenset())
        values, applied = entry
        fixes = []
        assured: Set[str] = set()
        for sig, old in applied:
            rule = self._rule_by_sig[sig]
            fixes.append(AppliedFix(rule, rule.attribute, old, rule.fact))
            assured.update(rule.touched_attrs)
        return RepairResult(Row.from_trusted(self.schema, list(values)),
                            tuple(fixes), frozenset(assured))

    def items(self) -> Iterator[Tuple[str, List[str]]]:
        """``(row_id, repaired values)`` in insertion order."""
        for rid in self._originals:
            yield rid, self.row(rid)

    def to_table(self) -> Table:
        """The repaired table, rows in insertion order."""
        return Table.from_trusted_rows(
            self.schema,
            [Row.from_trusted(self.schema, self.row(rid))
             for rid in self._originals])

    def originals_table(self) -> Table:
        """The *unrepaired* current table (for differential checks)."""
        return Table.from_trusted_rows(
            self.schema,
            [Row.from_trusted(self.schema, list(values))
             for values in self._originals.values()])

    def rules(self) -> RuleSet:
        """A copy of the current Σ."""
        return self._rules.copy()

    @property
    def rules_fingerprint(self) -> str:
        return self._rules.fingerprint()

    # -- snapshot / validate / audit stages --------------------------------

    def _checksum(self) -> str:
        digest = hashlib.sha256()
        for rid in sorted(self._originals):
            digest.update(rid.encode("utf-8"))
            digest.update(b"\x1f")
            digest.update("\x1f".join(self.row(rid)).encode("utf-8"))
            digest.update(b"\x1e")
        return digest.hexdigest()

    def create_snapshot(self) -> SessionSnapshot:
        """Stage 1: capture a verifiable checkpoint of session state."""
        return SessionSnapshot(self.session_id, self.epoch,
                               len(self._originals),
                               self._rules.fingerprint(),
                               self.log.records_written,
                               self._checksum())

    def validate_snapshot(self, snapshot: SessionSnapshot) -> bool:
        """Stage 2: does current state still match *snapshot*?

        True only when nothing changed since :meth:`create_snapshot` —
        same epoch, Σ fingerprint, row population, and repaired-cell
        checksum.  Callers gate destructive operations on this (the
        apply stage refuses to run against a drifted base).
        """
        return (snapshot.session_id == self.session_id
                and snapshot.epoch == self.epoch
                and snapshot.rows == len(self._originals)
                and snapshot.rules_fingerprint == self._rules.fingerprint()
                and snapshot.checksum == self._checksum())

    def apply_validated(self, snapshot: SessionSnapshot, *,
                        upserts=(), deletes=(),
                        added: Iterable[FixingRule] = (),
                        removed: Iterable[FixingRule] = ()) -> DeltaOutcome:
        """Stage 3: apply a delta only if *snapshot* still validates.

        The compare-and-swap composition of the stages: raises
        :class:`DeltaError` (state unchanged) when another writer got
        in between, otherwise routes to :meth:`apply_rows` /
        :meth:`apply_rules`.
        """
        if not self.validate_snapshot(snapshot):
            raise DeltaError(
                "session %s drifted since snapshot (epoch %d -> %d); "
                "re-snapshot and retry"
                % (self.session_id, snapshot.epoch, self.epoch))
        if added or removed:
            if upserts or deletes:
                raise DeltaError("apply one delta kind per validated "
                                 "apply: rows or rules, not both")
            return self.apply_rules(added=added, removed=removed)
        return self.apply_rows(upserts=upserts, deletes=deletes)

    def generate_audit_report(self) -> Dict[str, Any]:
        """Stage 4: account for every correction this session made."""
        by_rule: Dict[str, int] = {}
        by_attr: Dict[str, int] = {}
        for rid, (values, applied) in self._fixed.items():
            for sig, _old in applied:
                rule = self._rule_by_sig[sig]
                by_rule[rule.name] = by_rule.get(rule.name, 0) + 1
                by_attr[rule.attribute] = by_attr.get(rule.attribute, 0) + 1
        return {
            "session": self.session_id,
            "epoch": self.epoch,
            "rows": len(self._originals),
            "rows_changed": len(self._fixed),
            "rules": len(self._rules),
            "rules_fingerprint": self._rules.fingerprint(),
            "checksum": self._checksum(),
            "log_records": self.log.records_written,
            "log_path": str(self.log.path) if self.log.path else None,
            "stats": dict(self.stats),
            "applications_by_rule": dict(
                sorted(by_rule.items(), key=lambda kv: (-kv[1], kv[0]))),
            "corrections_by_attribute": dict(
                sorted(by_attr.items(), key=lambda kv: (-kv[1], kv[0]))),
        }

    # -- differential support ----------------------------------------------

    def full_repair_baseline(self) -> Dict[str, RepairResult]:
        """Fresh full repair of the current originals under current Σ.

        The oracle for the incremental == full property: computed with
        the compiled engine directly, row by row, independent of every
        incremental index.
        """
        out: Dict[str, RepairResult] = {}
        compiled = self._compiled
        for rid, values in self._originals.items():
            outcome = compiled.repair_values(values)
            if outcome is None:
                out[rid] = RepairResult(
                    Row.from_trusted(self.schema, list(values)),
                    (), frozenset())
            else:
                new_values, applied = outcome
                out[rid] = RepairResult(
                    Row.from_trusted(self.schema, new_values),
                    compiled.expand_applied(applied),
                    compiled.assured_for(applied))
        return out

    def self_check(self) -> List[str]:
        """Differences between incremental state and a fresh full
        repair (cells, provenance, assured sets); empty means the
        incremental == full invariant holds right now."""
        problems: List[str] = []
        baseline = self.full_repair_baseline()
        for rid, expected in baseline.items():
            actual = self.row_result(rid)
            if actual.row.values != expected.row.values:
                problems.append("row %s cells %r != full %r"
                                % (rid, actual.row.values,
                                   expected.row.values))
            if actual.assured != expected.assured:
                problems.append("row %s assured %r != full %r"
                                % (rid, sorted(actual.assured),
                                   sorted(expected.assured)))
            mine = [(fix.rule.signature(), fix.attribute, fix.old_value,
                     fix.new_value) for fix in actual.applied]
            full = [(fix.rule.signature(), fix.attribute, fix.old_value,
                     fix.new_value) for fix in expected.applied]
            if mine != full:
                problems.append("row %s provenance diverged" % rid)
        return problems

    def close(self) -> None:
        self.log.close()

    def __enter__(self) -> "DeltaRepairSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- log replay / audit ------------------------------------------------------

def load_log_records(source) -> Tuple[List[dict], Optional[dict]]:
    """Correction-log records plus torn-tail tolerance.

    Like :func:`iter_log_records`, but a partially-written **final**
    record — what a crash mid-append leaves — is dropped with a logged
    warning instead of raising, and reported as the second element
    (``{"offset", "dropped_bytes", "reason"}``; ``None`` for a clean
    log).  Corruption anywhere *before* the final record still raises
    :class:`DeltaError`: that is storage damage, not a crash artifact.
    """
    from ..durability.recovery import scan_jsonl_tail
    from ..errors import DurabilityError
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            data = fh.read()
        try:
            offset, torn = scan_jsonl_tail(data)
        except DurabilityError as exc:
            raise DeltaError("correction log %s: %s" % (source, exc))
        records = [json.loads(line) for line
                   in data[:offset].decode("utf-8").splitlines()
                   if line.strip()]
        if torn is not None:
            logger.warning(
                "correction log %s has a torn final record (%s); "
                "ignoring %d trailing byte(s)", source, torn["reason"],
                torn["dropped_bytes"])
        return records, torn
    items = list(source)
    records: List[dict] = []
    for index, item in enumerate(items):
        if not isinstance(item, str):
            records.append(item)
            continue
        stripped = item.strip()
        if not stripped:
            continue
        try:
            records.append(json.loads(stripped))
        except ValueError as exc:
            if index == len(items) - 1:
                torn = {"offset": index, "dropped_bytes": len(item),
                        "reason": "final record is not valid JSON"}
                logger.warning("correction log has a torn final record; "
                               "ignoring it (%s)", exc)
                return records, torn
            raise DeltaError(
                "correction-log record %d is corrupt (not the torn "
                "tail): %s" % (index, exc))
    return records, None


def replay_correction_log(source) -> Tuple[Optional[Schema],
                                           Dict[str, List[str]],
                                           Dict[str, Any]]:
    """Rebuild the final table from a correction log alone.

    Processes records in order: ``upsert`` (re)sets a row to its
    original values, ``cell``/``revert`` overwrite one attribute
    (cross-checking the recorded old value against the reconstructed
    one), ``delete`` drops the row.  Returns ``(schema, rows,
    report)`` where *rows* maps row id → final cell values and
    *report* counts ops and integrity mismatches — a non-empty
    ``mismatches`` list means the log is not self-consistent.  A torn
    final record (crash mid-append) is truncated from the replay with
    a logged warning and reported under ``"torn_tail"``, never counted
    as a mismatch: by the write-ahead discipline it was never
    acknowledged.
    """
    schema: Optional[Schema] = None
    attrs: List[str] = []
    rows: Dict[str, List[str]] = {}
    counts: Dict[str, int] = {}
    mismatches: List[str] = []
    sessions: List[str] = []
    last_epoch = 0
    records, torn_tail = load_log_records(source)
    for record in records:
        op = record.get("op")
        counts[op] = counts.get(op, 0) + 1
        # Monotonic max, not "last seen": a recovery re-opening the log
        # appends a ``begin`` carrying epoch 0, and taking it literally
        # would make the next session reuse already-logged epoch numbers.
        last_epoch = max(last_epoch, int(record.get("epoch", 0)))
        if op == "begin":
            meta = record.get("schema", {})
            attrs = list(meta.get("attributes", attrs))
            schema = Schema(meta.get("name", "R"), list(attrs))
            if record.get("session") not in sessions:
                sessions.append(record.get("session"))
        elif op == "upsert":
            rows[str(record["row"])] = list(record["values"])
        elif op in ("cell", "revert"):
            rid = str(record["row"])
            cells = rows.get(rid)
            if cells is None:
                mismatches.append("%s for unknown row %s" % (op, rid))
                continue
            try:
                pos = attrs.index(record["attr"])
            except ValueError:
                mismatches.append("%s names unknown attribute %r"
                                  % (op, record["attr"]))
                continue
            if cells[pos] != record.get("old"):
                mismatches.append(
                    "row %s attr %s: expected old %r, log says %r"
                    % (rid, record["attr"], cells[pos], record.get("old")))
            cells[pos] = record["new"]
        elif op == "delete":
            rows.pop(str(record["row"]), None)
        elif op == "rules":
            pass
        else:
            mismatches.append("unknown op %r" % (op,))
    report = {
        "ops": counts,
        "rows": len(rows),
        "sessions": sessions,
        "last_epoch": last_epoch,
        "mismatches": mismatches[:50],
        "mismatch_count": len(mismatches),
        "torn_tail": torn_tail,
    }
    return schema, rows, report


def audit_correction_log(source) -> Dict[str, Any]:
    """Replay *source* and summarize it for ``repro audit``.

    Adds per-rule and per-attribute correction tallies to the replay
    report; ``ok`` is true iff every recorded old value matched during
    replay.  A torn final record is tolerated (and recorded under
    ``"torn_tail"``) exactly as in :func:`replay_correction_log`.
    """
    by_rule: Dict[str, int] = {}
    by_attr: Dict[str, int] = {}
    records, torn_tail = load_log_records(source)
    for record in records:
        if record.get("op") == "cell":
            by_rule[record.get("rule", "?")] = \
                by_rule.get(record.get("rule", "?"), 0) + 1
        if record.get("op") in ("cell", "revert"):
            by_attr[record.get("attr", "?")] = \
                by_attr.get(record.get("attr", "?"), 0) + 1
    schema, rows, report = replay_correction_log(records)
    report.update({
        "torn_tail": torn_tail,
        "ok": report["mismatch_count"] == 0,
        "schema": None if schema is None else schema.name,
        "corrections_by_rule": dict(
            sorted(by_rule.items(), key=lambda kv: (-kv[1], kv[0]))),
        "corrections_by_attribute": dict(
            sorted(by_attr.items(), key=lambda kv: (-kv[1], kv[0]))),
    })
    return report
