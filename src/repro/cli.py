"""Command-line interface.

Subcommands (``python -m repro <cmd>`` or the ``repro`` console script):

* ``check``     — check a rule file for consistency; print conflicts.
* ``repair``    — repair a CSV file with a rule file; write the result.
* ``delta``     — incremental repair: load a base CSV, then absorb a
  JSONL stream of row/rule deltas, re-repairing only affected rows
  and appending every cell change to a correction log.
* ``audit``     — replay a correction log, verify its integrity, and
  summarize who/what/why per correction.
* ``generate``  — emit a synthetic hosp/uis CSV (clean or noisy).
* ``rules``     — derive fixing rules from a clean/dirty CSV pair + FDs.
* ``discover``  — mine weighted fixing rules from dirty data alone
  (no ground truth; FDs optional — they can be discovered too;
  Σ-conflicts resolved by confidence weight).
* ``suggest``   — ranked repair suggestions for one row, drawn from
  the mined weighted rules (kept rules and outweighed alternatives).
* ``evaluate``  — score a repaired CSV against clean/dirty CSVs.
* ``explain``   — explain why each rule did / did not fire on one row.
* ``experiment``— run the Section 7 protocol end to end, emit a
  markdown report.
* ``show``      — pretty-print a rule file in the paper's φ notation.
* ``serve``     — run the hardened repair-as-a-service HTTP daemon
  (admission control, deadlines, hot-reload).

All file formats are the library's standard ones: header-first CSV for
tables, the JSON schema of :mod:`repro.core.serialization` for rules.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

# repair_table is not called here, but perfbench/trace.py wraps it
# (with read_csv, write_csv, load_ruleset, find_conflicts) by name on
# this module, so it stays importable from repro.cli
from .core import (COLUMNAR_AUTO_THRESHOLD, find_conflicts, format_ruleset,
                   load_ruleset, repair_table, save_ruleset)
from .datagen import (constraint_attributes, generate_hosp, generate_uis,
                      hosp_fds, inject_noise, uis_fds)
from .dependencies import parse_fd
from .errors import ReproError
from .evaluation import evaluate_repair, run_experiment
from .relational import read_csv, write_csv
from .rulegen import generate_rules


def _cmd_check(args: argparse.Namespace) -> int:
    from .core import engine_stats
    rules = load_ruleset(args.rules)
    before = engine_stats()
    conflicts = find_conflicts(rules, method=args.method,
                               strategy=args.strategy)
    after = engine_stats()
    if args.verbose:
        print("examined %d candidate pair(s); pruned %d by blocking"
              % (after["pairs_examined"] - before["pairs_examined"],
                 after["pairs_pruned"] - before["pairs_pruned"]))
    if not conflicts:
        print("CONSISTENT: %d rules, no conflicts" % len(rules))
        return 0
    print("INCONSISTENT: %d conflict(s) among %d rules"
          % (len(conflicts), len(rules)))
    for conflict in conflicts:
        print("  - " + conflict.describe())
    return 1


def _cmd_repair(args: argparse.Namespace) -> int:
    """Chunked, constant-memory, crash-safe repair of a CSV file."""
    import logging

    from .core import repair_csv_file
    rules = load_ruleset(args.rules)
    for flag, value in (("--chunk-size", args.chunk_size),
                        ("--checkpoint-interval", args.checkpoint_interval)):
        if value is not None and value < 1:
            print("error: %s must be >= 1, got %d" % (flag, value),
                  file=sys.stderr)
            return 2
    if args.resume and args.checkpoint is None:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    on_error = args.on_error
    if args.quarantine_path is not None and on_error == "strict":
        on_error = "quarantine"  # --quarantine-path implies the policy
    fix_log = logging.getLogger("repro.core.stream")
    saved_level = fix_log.level
    if args.verbose:
        # repair_csv_file logs each rewritten cell at DEBUG
        handler = logging.StreamHandler(sys.stdout)
        handler.setFormatter(logging.Formatter("  %(message)s"))
        fix_log.addHandler(handler)
        fix_log.setLevel(logging.DEBUG)
    try:
        session = repair_csv_file(
            args.input, rules, args.output,
            check_consistency=not args.skip_check,
            on_error=on_error,
            quarantine_path=args.quarantine_path,
            checkpoint_path=args.checkpoint,
            checkpoint_interval=args.checkpoint_interval,
            resume=args.resume,
            on_inconsistent=args.on_inconsistent,
            chunk_size=args.chunk_size)
    finally:
        if args.verbose:
            fix_log.removeHandler(handler)
            fix_log.setLevel(saved_level)
    stats = session.stats()
    print("repaired %d rows; %d cells updated; output written to %s"
          % (stats["rows_seen"], stats["cells_changed"], args.output))
    if stats["rows_failed"]:
        breakdown = ", ".join("%s: %d" % item for item in
                              sorted(stats["errors_by_type"].items()))
        print("%d row(s) failed (%s); %d quarantined"
              % (stats["rows_failed"], breakdown,
                 stats["rows_quarantined"]))
    if session.degraded:
        print("DEGRADED: inconsistent rules; shelved or trimmed %d "
              "rule(s): %s" % (len(session.shelved_rules),
                               ", ".join(session.shelved_rules)))
    print("summary: rows repaired=%d quarantined=%d"
          % (stats["rows_seen"], stats["rows_quarantined"]))
    if args.fail_on_quarantine and stats["rows_failed"]:
        return 3
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    import json

    from .core import DeltaRepairSession, iter_log_records, \
        repair_delta_stream
    rules = load_ruleset(args.rules)
    table = read_csv(args.input, schema=rules.schema)
    log_path = args.log or (args.output + ".corrections.jsonl")
    session = DeltaRepairSession.from_table(
        table, rules, log_path=log_path, log_base=not args.no_log_base,
        check_consistency=not args.skip_check)
    print("loaded %d rows under %d rules (%d changed); log: %s"
          % (len(session), len(session.rules()),
             session.generate_audit_report()["rows_changed"], log_path))
    events = 0
    rerepaired = corrections = reverts = 0
    if args.events is not None:
        stream = repair_delta_stream(iter_log_records(args.events),
                                     session=session,
                                     on_error=args.on_error)
        for event, outcome in stream:
            events += 1
            if isinstance(outcome, Exception):
                print("  event %d skipped: %s" % (events, outcome),
                      file=sys.stderr)
                continue
            rerepaired += len(outcome.affected)
            corrections += outcome.corrections
            reverts += outcome.reverts
            if args.verbose:
                print("  epoch %d (%s): %d affected, %d corrections, "
                      "%d reverts" % (outcome.epoch, outcome.kind,
                                      len(outcome.affected),
                                      outcome.corrections,
                                      outcome.reverts))
    write_csv(session.to_table(), args.output)
    report = session.generate_audit_report()
    session.close()
    print("applied %d event(s): %d row re-repairs, %d corrections, "
          "%d reverts; %d rows written to %s"
          % (events, rerepaired, corrections, reverts,
             report["rows"], args.output))
    if args.audit_json:
        with open(args.audit_json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("audit report written to %s" % args.audit_json)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    import json

    from .core import audit_correction_log, replay_correction_log
    report = audit_correction_log(args.log)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("log %s: %d row(s), sessions %s, last epoch %d"
              % (args.log, report["rows"],
                 ", ".join(str(s) for s in report["sessions"]),
                 report["last_epoch"]))
        for op, count in sorted(report["ops"].items()):
            print("  %-8s %d" % (op, count))
        for rule, count in list(
                report["corrections_by_rule"].items())[:10]:
            print("  rule %-20s %d correction(s)" % (rule, count))
    if args.output or args.expect:
        schema, rows, _ = replay_correction_log(args.log)
        if schema is None:
            print("error: log has no begin record; cannot materialize",
                  file=sys.stderr)
            return 2
        from .relational import Row, Table
        replayed = Table.from_trusted_rows(
            schema, [Row.from_trusted(schema, cells)
                     for cells in rows.values()])
        if args.output:
            write_csv(replayed, args.output)
            print("replayed table written to %s" % args.output)
        if args.expect:
            expected = read_csv(args.expect, schema=schema)
            got = sorted(tuple(r.values) for r in replayed)
            want = sorted(tuple(r.values) for r in expected)
            if got != want:
                print("MISMATCH: replayed table differs from %s"
                      % args.expect, file=sys.stderr)
                return 1
            print("replayed table matches %s" % args.expect)
    if not report["ok"]:
        print("INTEGRITY: %d old-value mismatch(es) during replay"
              % report["mismatch_count"], file=sys.stderr)
        for line in report["mismatches"][:5]:
            print("  " + line, file=sys.stderr)
        return 1
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "hosp":
        clean = generate_hosp(rows=args.rows, seed=args.seed)
        fds = hosp_fds()
    else:
        clean = generate_uis(rows=args.rows, seed=args.seed)
        fds = uis_fds()
    if args.noise_rate > 0:
        noise = inject_noise(clean, constraint_attributes(fds),
                             noise_rate=args.noise_rate,
                             typo_ratio=args.typo_ratio, seed=args.seed)
        write_csv(noise.table, args.output)
        print("wrote %d dirty rows (%d injected errors) to %s"
              % (len(noise.table), len(noise.errors), args.output))
        if args.clean_output:
            write_csv(clean, args.clean_output)
            print("wrote clean ground truth to %s" % args.clean_output)
    else:
        write_csv(clean, args.output)
        print("wrote %d clean rows to %s" % (len(clean), args.output))
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    clean = read_csv(args.clean)
    dirty = read_csv(args.dirty, schema=clean.schema)
    fds = [parse_fd(text) for text in args.fd]
    rules = generate_rules(clean, dirty, fds, max_rules=args.max_rules,
                           enrichment_per_rule=args.enrich)
    save_ruleset(rules, args.output)
    print("generated %d consistent rules; written to %s"
          % (len(rules), args.output))
    return 0


def _load_master(args: argparse.Namespace):
    """--master/--master-key → a MasterTable, or None."""
    if not args.master:
        return None
    from .master import MasterTable
    if not args.master_key:
        print("error: --master requires --master-key", file=sys.stderr)
        raise SystemExit(2)
    key = [attr.strip() for attr in args.master_key.split(",")]
    return MasterTable(read_csv(args.master), key)


def _discovery_session(args: argparse.Namespace):
    from .discovery import DiscoverySession
    dirty = read_csv(args.dirty)
    fds = [parse_fd(text) for text in args.fd] if args.fd else None
    return dirty, DiscoverySession(
        dirty, fds=fds, master=_load_master(args),
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        fd_confidence=args.fd_confidence)


def _cmd_discover(args: argparse.Namespace) -> int:
    import json

    from .core import RuleSet
    from .discovery import save_weighted_ruleset
    _, session = _discovery_session(args)
    weighted = session.discover()
    ranked = weighted.ranked()
    if args.max_rules is not None and len(ranked) > args.max_rules:
        top = RuleSet(weighted.schema)
        for rule, _weight in ranked[:args.max_rules]:
            top.add(rule)
        rules = top
    else:
        rules = weighted.ruleset()
    save_ruleset(rules, args.output)
    if args.weights:
        save_weighted_ruleset(weighted, args.weights)
        print("weighted rule set (with resolution provenance) written "
              "to %s" % args.weights)
    source = ("%d given FDs" % len(args.fd)) if args.fd \
        else "discovered FDs"
    print("discovered %d weighted rules from %s "
          "(%d dropped, %d revised by weight; %d tie rounds); "
          "%d written to %s"
          % (len(weighted), source, len(weighted.dropped),
             len(weighted.revised), weighted.tie_rounds, len(rules),
             args.output))
    if args.report:
        print(json.dumps(session.describe(), indent=2, sort_keys=True))
    print("review them before repairing:  repro show %s" % args.output)
    return 0


def _cmd_suggest(args: argparse.Namespace) -> int:
    from .discovery import DiscoverySession, load_weighted_ruleset
    if args.weights:
        dirty = read_csv(args.dirty)
        session = DiscoverySession.from_weighted(
            dirty, load_weighted_ruleset(args.weights))
    else:
        dirty, session = _discovery_session(args)
    if not 0 <= args.row < len(dirty):
        print("error: --row %d out of range (table has %d rows)"
              % (args.row, len(dirty)), file=sys.stderr)
        return 2
    suggestions = session.suggest(args.row, limit=args.limit)
    print("row %d: %r" % (args.row, dirty[args.row].as_dict()))
    if not suggestions:
        print("no suggestions: no discovered rule matches this row")
        return 0
    for rank, suggestion in enumerate(suggestions, 1):
        print("  %d. %s" % (rank, suggestion.describe()))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    clean = read_csv(args.clean)
    dirty = read_csv(args.dirty, schema=clean.schema)
    repaired = read_csv(args.repaired, schema=clean.schema)
    quality = evaluate_repair(clean, dirty, repaired)
    print(quality.summary())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .core import explain_repair
    rules = load_ruleset(args.rules)
    table = read_csv(args.input, schema=rules.schema)
    if not 0 <= args.row < len(table):
        print("error: --row %d out of range (table has %d rows)"
              % (args.row, len(table)), file=sys.stderr)
        return 2
    explained = explain_repair(table[args.row], rules)
    print("row %d: %r" % (args.row, table[args.row].as_dict()))
    print(explained.describe())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    report = run_experiment(args.dataset, rows=args.rows,
                            noise_rate=args.noise_rate,
                            typo_ratio=args.typo_ratio,
                            max_rules=args.max_rules,
                            enrichment_per_rule=args.enrich,
                            seed=args.seed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print("report written to %s" % args.output)
    else:
        print(report)
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    rules = load_ruleset(args.rules)
    print("# %d rules over schema %s" % (len(rules), rules.schema.name))
    print(format_ruleset(rules))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .core import ruleset_profile
    rules = load_ruleset(args.rules)
    print("rule set: %s (schema %s)" % (args.rules, rules.schema.name))
    print(ruleset_profile(rules).describe())
    conflicts = find_conflicts(rules, first_only=True)
    print("consistency: %s"
          % ("CONSISTENT" if not conflicts else "INCONSISTENT -- run "
             "`repro check` for details"))
    return 0 if not conflicts else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve import RepairServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        queue_watermark=args.queue_watermark,
        request_timeout=args.request_timeout,
        drain_timeout=args.drain_timeout,
        spool_dir=args.spool_dir,
        state_dir=args.state_dir,
    )
    try:
        config.validate()
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    async def run() -> int:
        server = RepairServer(config)
        if args.rules:
            rules = load_ruleset(args.rules)
            entry = server.registry.install(args.tenant, rules)
            print("loaded %d rule(s) for tenant %r (fingerprint %s)"
                  % (entry.rule_count, args.tenant,
                     entry.fingerprint[:12]))
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(server.drain()))
        print("repro serve listening on http://%s:%d"
              % (config.host, server.port))
        await server.serve_forever()
        print("drained; bye")
        return 0

    return asyncio.run(run())


def _cmd_recover(args: argparse.Namespace) -> int:
    """Dry-run recovery of a serve --state-dir (never mutates it)."""
    import json as _json

    from .durability import StateStore, verify_state_dir

    if args.verify:
        report = verify_state_dir(args.state_dir)
    else:
        store = StateStore(args.state_dir, readonly=True)
        state = store.state()
        report = {
            "state_dir": store.state_dir,
            "seq": store.seq,
            "store": dict(store.recovery_report),
            "tenants": {
                tenant: {"fingerprint":
                         (slot.get("active") or {}).get("fingerprint"),
                         "previous": slot.get("previous") is not None}
                for tenant, slot in sorted(state["tenants"].items())},
            "sessions": {
                tenant: dict(info) for tenant, info
                in sorted(state["delta_sessions"].items())},
            "problems": [],
            "ok": True,
        }
        store.close()
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        store_report = report.get("store", {})
        print("state dir: %s (seq %d, %d WAL record(s) replayed, "
              "%d skipped)"
              % (report["state_dir"], report.get("seq", 0),
                 store_report.get("replayed", 0),
                 store_report.get("skipped", 0)))
        if store_report.get("torn_tail"):
            print("  torn WAL tail: %s" % store_report["torn_tail"])
        for tenant, info in report.get("tenants", {}).items():
            print("  tenant %-16s fingerprint %s%s"
                  % (tenant, str(info.get("fingerprint"))[:12],
                     " (+previous)" if info.get("previous") else ""))
        for tenant, info in report.get("sessions", {}).items():
            extra = ""
            if "rows" in info:
                extra = " (%d row(s), epoch %d, %d rolled forward)" % (
                    info["rows"], info.get("epoch", 0),
                    info.get("rolled_forward", 0))
            print("  delta session %-9s %s%s"
                  % (tenant, info.get("session_id"), extra))
        for problem in report.get("problems", []):
            print("  PROBLEM: %s" % problem)
        print("recovery %s" % ("OK" if report.get("ok") else "FAILED"))
    return 0 if report.get("ok") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dependable data repairing with fixing rules "
                    "(Wang & Tang, SIGMOD 2014)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check rule-set consistency")
    p_check.add_argument("rules", help="rule JSON file")
    p_check.add_argument("--method", choices=["characterize", "enumerate"],
                         default="characterize")
    p_check.add_argument("--strategy", choices=["blocked", "pairwise"],
                         default=None,
                         help="candidate-pair strategy (default: blocked "
                              "for characterize, pairwise for enumerate); "
                              "output is identical either way")
    p_check.add_argument("--verbose", action="store_true",
                         help="also print examined/pruned pair counts")
    p_check.set_defaults(func=_cmd_check)

    p_repair = sub.add_parser("repair", help="repair a CSV with rules")
    p_repair.add_argument("input", help="dirty CSV file")
    p_repair.add_argument("rules", help="rule JSON file")
    p_repair.add_argument("output", help="repaired CSV destination")
    p_repair.add_argument("--skip-check", action="store_true",
                          help="skip the consistency pre-check")
    p_repair.add_argument("--verbose", action="store_true",
                          help="print each rewritten cell with its "
                               "input line number")
    p_repair.add_argument("--on-error",
                          choices=["strict", "skip", "quarantine"],
                          default="strict",
                          help="what to do with rows that fail to parse "
                               "or repair (default: abort the run)")
    p_repair.add_argument("--quarantine-path",
                          help="dead-letter JSONL for failed rows "
                               "(implies --on-error quarantine; default: "
                               "<output>.quarantine.jsonl)")
    p_repair.add_argument("--checkpoint",
                          help="checkpoint sidecar path; enables "
                               "crash-safe --resume")
    p_repair.add_argument("--checkpoint-interval", type=int, default=1000,
                          help="rows between checkpoint commits "
                               "(default 1000)")
    p_repair.add_argument("--resume", action="store_true",
                          help="resume a killed run from --checkpoint; "
                               "output is exactly-once")
    p_repair.add_argument("--on-inconsistent",
                          choices=["raise", "degrade"], default="raise",
                          help="'degrade' repairs with a maximal "
                               "consistent subset of the rules instead "
                               "of refusing service")
    p_repair.add_argument("--chunk-size", type=int, default=None,
                          help="rows per chunk (default %d, capped at "
                               "the checkpoint interval with "
                               "--checkpoint); chunks this size or "
                               "larger take the columnar candidate scan"
                               % COLUMNAR_AUTO_THRESHOLD)
    p_repair.add_argument("--fail-on-quarantine", action="store_true",
                          help="exit with status 3 if any row failed "
                               "or was quarantined")
    p_repair.set_defaults(func=_cmd_repair)

    p_delta = sub.add_parser(
        "delta",
        help="incremental repair: base CSV + JSONL delta events")
    p_delta.add_argument("input", help="base (dirty) CSV file")
    p_delta.add_argument("rules", help="rule JSON file")
    p_delta.add_argument("output", help="repaired CSV destination")
    p_delta.add_argument("--events",
                         help="JSONL stream of delta events: "
                              '{"op":"upsert","id":...,"values":[...]}, '
                              '{"op":"delete","id":...}, '
                              '{"op":"batch","upserts":[...],'
                              '"deletes":[...]}, '
                              '{"op":"add_rule","rule":{...}}, '
                              '{"op":"remove_rule","name":...} '
                              "(omit to just load, repair and log "
                              "the base)")
    p_delta.add_argument("--log",
                         help="correction-log JSONL destination "
                              "(default <output>.corrections.jsonl)")
    p_delta.add_argument("--no-log-base", action="store_true",
                         help="log only deltas, not the initial load "
                              "(smaller log, but 'repro audit' can no "
                              "longer rebuild the table from it alone)")
    p_delta.add_argument("--on-error", choices=["strict", "skip"],
                         default="strict",
                         help="skip or abort on malformed/inconsistent "
                              "events (default: abort)")
    p_delta.add_argument("--skip-check", action="store_true",
                         help="skip the consistency pre-check")
    p_delta.add_argument("--audit-json",
                         help="also write the session audit report "
                              "here as JSON")
    p_delta.add_argument("--verbose", action="store_true",
                         help="print one line per applied event")
    p_delta.set_defaults(func=_cmd_delta)

    p_audit = sub.add_parser(
        "audit",
        help="replay and verify a correction log")
    p_audit.add_argument("log", help="correction-log JSONL file")
    p_audit.add_argument("--output",
                         help="write the replayed table as CSV")
    p_audit.add_argument("--expect",
                         help="CSV the replayed table must equal "
                              "(exit 1 otherwise)")
    p_audit.add_argument("--json", action="store_true",
                         help="print the full audit report as JSON")
    p_audit.set_defaults(func=_cmd_audit)

    p_gen = sub.add_parser("generate", help="generate synthetic data")
    p_gen.add_argument("dataset", choices=["hosp", "uis"])
    p_gen.add_argument("output", help="CSV destination")
    p_gen.add_argument("--rows", type=int, default=1000)
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.add_argument("--noise-rate", type=float, default=0.0,
                       help="cell noise rate; 0 writes the clean table")
    p_gen.add_argument("--typo-ratio", type=float, default=0.5)
    p_gen.add_argument("--clean-output",
                       help="also write the clean ground truth here")
    p_gen.set_defaults(func=_cmd_generate)

    p_rules = sub.add_parser("rules",
                             help="derive rules from clean/dirty CSVs")
    p_rules.add_argument("clean", help="clean CSV (ground truth)")
    p_rules.add_argument("dirty", help="dirty CSV, aligned with clean")
    p_rules.add_argument("output", help="rule JSON destination")
    p_rules.add_argument("--fd", action="append", required=True,
                         help="an FD like 'zip -> state, city'; repeatable")
    p_rules.add_argument("--max-rules", type=int, default=None)
    p_rules.add_argument("--enrich", type=int, default=0,
                         help="extra negative patterns per rule")
    p_rules.set_defaults(func=_cmd_rules)

    p_disc = sub.add_parser(
        "discover",
        help="mine weighted rules from dirty data alone "
             "(no ground truth)")
    p_disc.add_argument("dirty", help="dirty CSV")
    p_disc.add_argument("output", help="rule JSON destination")
    p_disc.add_argument("--fd", action="append", default=None,
                        help="optional FD like 'zip -> state'; when "
                             "omitted, FDs are discovered too")
    p_disc.add_argument("--min-support", type=int, default=3)
    p_disc.add_argument("--min-confidence", type=float, default=0.8,
                        help="minimum fraction of an evidence group "
                             "that must agree on the majority value "
                             "(default 0.8; lower it towards 0.6-0.7 "
                             "for noisier data)")
    p_disc.add_argument("--fd-confidence", type=float, default=0.9)
    p_disc.add_argument("--max-rules", type=int, default=None,
                        help="keep only the N heaviest rules")
    p_disc.add_argument("--master",
                        help="master-data CSV used to corroborate or "
                             "correct mined facts")
    p_disc.add_argument("--master-key",
                        help="comma-separated key attributes of "
                             "--master (required with it)")
    p_disc.add_argument("--weights",
                        help="also write the weighted rule set (scores "
                             "+ dropped/revised provenance) here")
    p_disc.add_argument("--report", action="store_true",
                        help="print the mining/resolution counters "
                             "as JSON")
    p_disc.set_defaults(func=_cmd_discover)

    p_sugg = sub.add_parser(
        "suggest",
        help="ranked repair suggestions for one row, from mined "
             "weighted rules")
    p_sugg.add_argument("dirty", help="dirty CSV")
    p_sugg.add_argument("--row", type=int, default=0,
                        help="0-based row index (default 0)")
    p_sugg.add_argument("--limit", type=int, default=None,
                        help="show at most N suggestions")
    p_sugg.add_argument("--weights",
                        help="reuse a weighted rule set saved by "
                             "'repro discover --weights' instead of "
                             "re-mining")
    p_sugg.add_argument("--fd", action="append", default=None,
                        help="optional FD like 'zip -> state'; when "
                             "omitted, FDs are discovered too")
    p_sugg.add_argument("--min-support", type=int, default=3)
    p_sugg.add_argument("--min-confidence", type=float, default=0.8)
    p_sugg.add_argument("--fd-confidence", type=float, default=0.9)
    p_sugg.add_argument("--master",
                        help="master-data CSV used to corroborate or "
                             "correct mined facts")
    p_sugg.add_argument("--master-key",
                        help="comma-separated key attributes of "
                             "--master (required with it)")
    p_sugg.set_defaults(func=_cmd_suggest)

    p_eval = sub.add_parser("evaluate", help="score a repair")
    p_eval.add_argument("clean")
    p_eval.add_argument("dirty")
    p_eval.add_argument("repaired")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_explain = sub.add_parser(
        "explain",
        help="explain why each rule did or did not fire on one row")
    p_explain.add_argument("input", help="CSV file")
    p_explain.add_argument("rules", help="rule JSON file")
    p_explain.add_argument("--row", type=int, default=0,
                           help="0-based row index (default 0)")
    p_explain.set_defaults(func=_cmd_explain)

    p_exp = sub.add_parser(
        "experiment",
        help="run the Section 7 protocol end to end and print a "
             "markdown report")
    p_exp.add_argument("dataset", choices=["hosp", "uis"])
    p_exp.add_argument("--rows", type=int, default=1000)
    p_exp.add_argument("--noise-rate", type=float, default=0.10)
    p_exp.add_argument("--typo-ratio", type=float, default=0.5)
    p_exp.add_argument("--max-rules", type=int, default=None)
    p_exp.add_argument("--enrich", type=int, default=3)
    p_exp.add_argument("--seed", type=int, default=7)
    p_exp.add_argument("--output", help="write the report here instead "
                                        "of stdout")
    p_exp.set_defaults(func=_cmd_experiment)

    p_show = sub.add_parser("show", help="pretty-print a rule file")
    p_show.add_argument("rules")
    p_show.set_defaults(func=_cmd_show)

    p_profile = sub.add_parser(
        "profile", help="descriptive statistics of a rule file")
    p_profile.add_argument("rules")
    p_profile.set_defaults(func=_cmd_profile)

    p_serve = sub.add_parser(
        "serve",
        help="run the repair-as-a-service HTTP daemon")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8787)
    p_serve.add_argument("--rules",
                         help="rule JSON preloaded for --tenant at "
                              "startup (more can be uploaded at "
                              "runtime via POST /rulesets/{tenant})")
    p_serve.add_argument("--tenant", default="default",
                         help="tenant name the preloaded --rules are "
                              "installed under (default: 'default')")
    p_serve.add_argument("--max-concurrency", type=int, default=8,
                         help="repair requests executing at once "
                              "(default 8)")
    p_serve.add_argument("--queue-watermark", type=int, default=16,
                         help="waiting requests beyond which arrivals "
                              "are shed with 503 + Retry-After "
                              "(default 16)")
    p_serve.add_argument("--request-timeout", type=float, default=30.0,
                         help="per-request deadline in seconds, "
                              "checked between rows; an expired "
                              "request answers 504 (default 30)")
    p_serve.add_argument("--drain-timeout", type=float, default=10.0,
                         help="seconds SIGTERM waits for in-flight "
                              "requests before closing the listener "
                              "(default 10)")
    p_serve.add_argument("--spool-dir", default=None,
                         help="directory for the delta correction "
                              "logs (default: <state-dir>/spool, or a "
                              "fresh temp dir)")
    p_serve.add_argument("--state-dir", default=None,
                         help="crash-consistent state directory (WAL "
                              "+ snapshots + correction logs); "
                              "acknowledged uploads and delta "
                              "mutations survive a kill -9 and are "
                              "recovered on the next start (default: "
                              "ephemeral)")
    p_serve.set_defaults(func=_cmd_serve)

    p_recover = sub.add_parser(
        "recover",
        help="inspect or dry-run recover a serve --state-dir")
    p_recover.add_argument("state_dir",
                           help="the --state-dir of a (stopped) "
                                "repro serve daemon")
    p_recover.add_argument("--verify", action="store_true",
                           help="fully rebuild every tenant and delta "
                                "session against throwaway targets "
                                "and run self_check on each session "
                                "(read-only; exit 1 on any problem)")
    p_recover.add_argument("--json", action="store_true",
                           help="print the full recovery report as "
                                "JSON")
    p_recover.set_defaults(func=_cmd_recover)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed our stdout; exit quietly with
        # the conventional SIGPIPE-ish status instead of a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
