"""Incremental delta-repair vs full re-repair: the sub-linear claim.

Standalone script (not a pytest benchmark — run it directly):

    PYTHONPATH=src python benchmarks/bench_delta.py

Generates a noisy HOSP workload (Section 7 protocol, seeded: 8%% noise,
at most 2,000 seed rules), loads it into a
:class:`~repro.core.delta.DeltaRepairSession`, then measures three
things:

* **row delta** — upserting 1%% of the rows through ``apply_rows``
  against a from-scratch columnar re-repair of the same final table.
  The acceptance gate: the incremental path must win by >= 10x (a 1%%
  delta touches 1%% of the chase work; index maintenance and the
  correction log are the only overhead);
* **Σ delta** — retracting one frequently-applied rule and re-adding
  it through ``apply_rules``, against full re-repairs under each Σ;
* **equivalence** — after every timed leg the session must equal the
  full repair cell for cell (the differential property, enforced here
  too so the speedup is never bought with wrong answers).

Results land in ``BENCH_delta.json`` at the repo root.  ``--smoke``
shrinks the workload and disables the gate so CI can exercise the
harness in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import tempfile
import time
from pathlib import Path

from repro.core import (DeltaRepairSession, RuleSet, audit_correction_log,
                        repair_table)
from repro.datagen import (constraint_attributes, generate_hosp, hosp_fds,
                           inject_noise)
from repro.rulegen.seeds import generate_seed_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_delta.json"

ROWS = 50_000
RULE_CAP = 2_000
NOISE_RATE = 0.08
DELTA_FRACTION = 0.01
SEED = 7
ROUNDS = 3              # best-of for the sub-second incremental legs
SPEEDUP_GATE = 10.0


def build_workload(rows: int, seed: int = SEED):
    """Section 7 protocol: clean HOSP, injected noise, seed rules
    capped at :data:`RULE_CAP`."""
    clean = generate_hosp(rows=rows, seed=seed)
    noise = inject_noise(clean, constraint_attributes(hosp_fds()),
                         noise_rate=NOISE_RATE, typo_ratio=0.5, seed=seed)
    mined = generate_seed_rules(clean, noise.table, hosp_fds())
    return noise.table, RuleSet(clean.schema, mined.rules()[:RULE_CAP])


def full_columnar_seconds(table, rules, rounds: int = 1):
    """From-scratch columnar repair of *table*; returns (best s, cells)."""
    import gc
    best = None
    report = None
    for _ in range(rounds):
        gc.collect()
        start = time.perf_counter()
        report = repair_table(table, rules, backend="columnar")
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return best, [list(row.values) for row in report.table]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--smoke", action="store_true",
                        help="2K rows, no speedup gate — harness check "
                             "for CI")
    args = parser.parse_args(argv)

    rows = args.rows or (2_000 if args.smoke else ROWS)
    rng = random.Random(SEED)

    print("generating %d-row HOSP workload..." % rows, flush=True)
    table, rules = build_workload(rows=rows)
    print("  %d rows, %d rules" % (len(table), len(rules)), flush=True)

    log_dir = tempfile.mkdtemp(prefix="bench-delta-")
    log_path = os.path.join(log_dir, "corrections.jsonl")

    start = time.perf_counter()
    session = DeltaRepairSession.from_table(table, rules,
                                            log_path=log_path,
                                            check_consistency=False)
    base_seconds = time.perf_counter() - start
    base_report = session.generate_audit_report()
    print("base load : %7.2fs  (%d rows, %d changed)"
          % (base_seconds, base_report["rows"],
             base_report["rows_changed"]), flush=True)

    # -- row-delta leg: 1% of rows upserted with other rows' values --------
    n_delta = max(1, int(len(table) * DELTA_FRACTION))
    victims = rng.sample(range(len(table)), n_delta)
    upserts = [(str(i), list(table[rng.randrange(len(table))].values))
               for i in victims]

    import gc
    delta_seconds = None
    for round_no in range(ROUNDS):
        gc.collect()
        start = time.perf_counter()
        outcome = session.apply_rows(upserts=upserts)
        seconds = time.perf_counter() - start
        delta_seconds = (seconds if delta_seconds is None
                         else min(delta_seconds, seconds))
        assert len(outcome.affected) == n_delta

    full_seconds, full_cells = full_columnar_seconds(
        session.originals_table(), rules)
    if [values for _rid, values in session.items()] != full_cells:
        raise SystemExit("row-delta leg diverged from full re-repair")
    row_speedup = full_seconds / delta_seconds
    print("row delta : %7.4fs vs %7.2fs full  (%.1fx, %d rows)"
          % (delta_seconds, full_seconds, row_speedup, n_delta),
          flush=True)

    # -- Σ-delta leg: retract the most-applied rule, then re-add it --------
    by_rule = session.generate_audit_report()["applications_by_rule"]
    sigma_leg = None
    if by_rule:
        hot_name = next(iter(by_rule))
        hot_rule = session.rules().by_name(hot_name)

        start = time.perf_counter()
        removal = session.apply_rules(removed=[hot_rule])
        remove_seconds = time.perf_counter() - start
        full_removed_seconds, cells_removed = full_columnar_seconds(
            session.originals_table(), session.rules())
        if [values for _rid, values in session.items()] != cells_removed:
            raise SystemExit("Σ-removal leg diverged from full re-repair")

        start = time.perf_counter()
        addition = session.apply_rules(added=[hot_rule])
        add_seconds = time.perf_counter() - start
        full_added_seconds, cells_added = full_columnar_seconds(
            session.originals_table(), session.rules())
        if [values for _rid, values in session.items()] != cells_added:
            raise SystemExit("Σ-addition leg diverged from full re-repair")

        sigma_leg = {
            "rule": hot_name,
            "rows_applied": by_rule[hot_name],
            "remove": {"seconds": round(remove_seconds, 4),
                       "affected": len(removal.affected),
                       "full_seconds": round(full_removed_seconds, 4),
                       "speedup": round(full_removed_seconds
                                        / remove_seconds, 2)},
            "add": {"seconds": round(add_seconds, 4),
                    "affected": len(addition.affected),
                    "full_seconds": round(full_added_seconds, 4),
                    "speedup": round(full_added_seconds / add_seconds, 2)},
        }
        print("Σ remove  : %7.4fs vs %7.2fs full  (%.1fx, %d rows)"
              % (remove_seconds, full_removed_seconds,
                 sigma_leg["remove"]["speedup"],
                 len(removal.affected)), flush=True)
        print("Σ add     : %7.4fs vs %7.2fs full  (%.1fx, %d rows)"
              % (add_seconds, full_added_seconds,
                 sigma_leg["add"]["speedup"],
                 len(addition.affected)), flush=True)

    # -- the log must replay and audit clean -------------------------------
    session.log.flush()
    audit = audit_correction_log(log_path)
    if not audit["ok"]:
        raise SystemExit("correction log failed audit: %d mismatches"
                         % audit["mismatch_count"])
    session.close()

    payload = {
        "benchmark": "delta_repair",
        "dataset": "hosp",
        "rows": len(table),
        "rules": len(rules),
        "smoke": bool(args.smoke),
        "base_load_seconds": round(base_seconds, 4),
        "row_delta": {
            "rows": n_delta,
            "fraction": DELTA_FRACTION,
            "seconds": round(delta_seconds, 4),
            "full_seconds": round(full_seconds, 4),
            "speedup": round(row_speedup, 2),
            "gate": None if args.smoke else SPEEDUP_GATE,
        },
        "sigma_delta": sigma_leg,
        "log_records": audit["ops"],
        "equivalence_verified": True,
    }
    args.output.write_text(json.dumps(payload, indent=2,
                                      ensure_ascii=False) + "\n",
                           encoding="utf-8")
    print("wrote %s" % args.output, flush=True)

    if not args.smoke and row_speedup < SPEEDUP_GATE:
        print("FAIL: row-delta speedup %.1fx < %.1fx gate"
              % (row_speedup, SPEEDUP_GATE))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
