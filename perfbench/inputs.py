"""Seeded workload inputs, built once per (size, seed) and cached.

Inputs follow the Section 7 HOSP protocol: ``generate_hosp`` then
``inject_noise`` on the FD-covered attributes, half typos and half
active-domain swaps.  Building them (noise injection, seed-rule mining,
the row-engine oracle, scoring the oracle) takes longer than a measured
run, so each piece is written under ``.perfbench/cache`` the first time
a workload needs it and reused by every later run with the same seed.
Nothing here is timed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import pickle
import shutil
from typing import Callable, Dict

from common import WORK, score

#: Workload sizes.  ``smoke`` exists for the harness self-test only.
SIZES: Dict[str, Dict[str, float]] = {
    "full": {
        "hosp_rows": 100_000,     # batch-cli / serve-* table
        "hosp_noise": 0.08,
        "rule_rows": 20_000,      # prefix the seed rules are mined from
        "rule_cap": 2_000,        # first N mined seed rules
        "disc_rows": 8_000,       # discover-repair table
        "disc_noise": 0.10,
        "serve_batch": 200,       # rows per POST /repair
        "delta_batch": 100,       # ops per POST /repair/delta
        "delta_prefill": 100,     # untimed batches per tenant, then restart
        "sigma_churn": 8,         # Σ re-uploads per tenant after the prefill
        "repeats": 5,             # set-up / Σ admission samples
        "restarts": 2,            # serve-delta recovery samples
    },
    "smoke": {
        "hosp_rows": 5_000,       # above the columnar auto threshold
        "hosp_noise": 0.08,
        "rule_rows": 1_500,
        "rule_cap": 300,
        "disc_rows": 2_000,
        "disc_noise": 0.10,
        "serve_batch": 50,
        "delta_batch": 20,
        "delta_prefill": 20,
        "sigma_churn": 2,
        "repeats": 2,
        "restarts": 2,
    },
}


class _HashSink:
    """File-like sink that hashes what ``csv.writer`` would write."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text: str) -> None:
        self.digest.update(text.encode("utf-8"))


def csv_digest(attrs, rows) -> str:
    """sha256 of the CSV ``repro.relational.write_csv`` writes."""
    sink = _HashSink()
    writer = csv.writer(sink)
    writer.writerow(attrs)
    writer.writerows(rows)
    return sink.digest.hexdigest()


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _cache_dir(size: str, seed: int, name: str) -> str:
    """Keyed by the sizes too, so a changed size never reuses stale
    inputs."""
    key = hashlib.sha256(json.dumps(SIZES[size], sort_keys=True)
                         .encode("utf-8")).hexdigest()[:8]
    return os.path.join(WORK, "cache", "%s-%s-seed%d" % (size, key, seed),
                        name)


def _piece(path: str, name: str, builder: Callable[[str], None]) -> str:
    """``path/name``, built by ``builder(tmp_path)`` on first use.

    Built under a temporary name, then renamed: a killed build leaves
    no half-written piece behind.
    """
    target = os.path.join(path, name)
    if not os.path.exists(target):
        os.makedirs(path, exist_ok=True)
        tmp = target + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        builder(tmp)
        os.replace(tmp, target)
    return target


def _noise(clean, noise: float, seed: int):
    from repro.datagen import constraint_attributes, hosp_fds, inject_noise
    return inject_noise(clean, constraint_attributes(hosp_fds()),
                        noise_rate=noise, typo_ratio=0.5, seed=seed).table


def _cells(table):
    return [list(row.values) for row in table]


def _table(attrs, rows):
    from repro.relational import Row, Schema, Table
    schema = Schema("hosp", list(attrs))
    return Table.from_trusted_rows(
        schema, [Row.from_trusted(schema, list(r)) for r in rows])


def _dump(out: str, **tables) -> None:
    os.makedirs(out)
    for name, cells in tables.items():
        with open(os.path.join(out, name + ".pkl"), "wb") as handle:
            pickle.dump(cells, handle, protocol=pickle.HIGHEST_PROTOCOL)


def load_cells(directory: str, name: str) -> list:
    """One cached table as row-major cell lists (written by this
    module, so unpickling it is safe)."""
    with open(os.path.join(directory, name + ".pkl"), "rb") as handle:
        return pickle.load(handle)


def _write_inputs(out: str, attrs, rows) -> None:
    """``dirty.csv`` and ``one.csv`` (its first row: what a CLI pays
    before it can repair anything), as ``repro`` writes CSV."""
    from repro.relational import write_csv
    os.makedirs(out)
    write_csv(_table(attrs, rows), os.path.join(out, "dirty.csv"))
    write_csv(_table(attrs, rows[:1]), os.path.join(out, "one.csv"))


def hosp_bundle(size: str, seed: int, *, csv_files: bool = False,
                quality: bool = False, updates: bool = False) -> dict:
    """The batch-cli / serve-repair / serve-delta inputs.

    Always: ``rules_path`` (the first ``rule_cap`` seed rules mined
    from the first ``rule_rows`` clean/dirty pairs) and the clean,
    dirty and row-engine oracle cells under ``tables``.  On request:
    the dirty table as CSV under ``csv`` (*csv_files*), the oracle's
    digest and scores (*quality*), and, under ``updates``, a second,
    independently noised copy of the first half of the clean rows,
    which serve-delta sends as updates (*updates*).
    """
    cfg = SIZES[size]
    path = _cache_dir(size, seed, "hosp")

    def core(out: str) -> None:
        from repro.core import RuleSet, repair_table, save_ruleset
        from repro.datagen import generate_hosp, hosp_fds
        from repro.relational import Table
        from repro.rulegen import generate_seed_rules

        clean = generate_hosp(rows=int(cfg["hosp_rows"]), seed=seed)
        dirty = _noise(clean, cfg["hosp_noise"], seed)
        n = int(cfg["rule_rows"])
        mined = generate_seed_rules(
            Table.from_trusted_rows(clean.schema, list(clean)[:n]),
            Table.from_trusted_rows(dirty.schema, list(dirty)[:n]),
            hosp_fds())
        rules = RuleSet(clean.schema, mined.rules()[:int(cfg["rule_cap"])])
        oracle = repair_table(dirty, rules, backend="row").table
        _dump(out, clean=_cells(clean), dirty=_cells(dirty),
              oracle=_cells(oracle))
        save_ruleset(rules, os.path.join(out, "rules.json"))
        with open(os.path.join(out, "meta.json"), "w") as handle:
            json.dump({"rows": len(dirty), "rules": len(rules),
                       "attrs": list(clean.schema.attribute_names)}, handle)

    tables = _piece(path, "core", core)
    with open(os.path.join(tables, "meta.json")) as handle:
        bundle = json.load(handle)
    bundle.update(tables=tables,
                  rules_path=os.path.join(tables, "rules.json"))
    attrs = bundle["attrs"]

    def scores(out: str) -> None:
        oracle = load_cells(tables, "oracle")
        with open(out, "w") as handle:
            json.dump({"oracle_digest": csv_digest(attrs, oracle),
                       "quality": score(attrs, load_cells(tables, "clean"),
                                        load_cells(tables, "dirty"),
                                        oracle)}, handle)

    def second_noise(out: str) -> None:
        clean = load_cells(tables, "clean")
        half = _table(attrs, clean[:len(clean) // 2])
        _dump(out, dirty_b=_cells(_noise(half, cfg["hosp_noise"], seed + 1)))

    if csv_files:
        bundle["csv"] = _piece(path, "csv", lambda out: _write_inputs(
            out, attrs, load_cells(tables, "dirty")))
    if quality:
        with open(_piece(path, "quality.json", scores)) as handle:
            bundle.update(json.load(handle))
    if updates:
        bundle["updates"] = _piece(path, "updates", second_noise)
    return bundle


def disc_bundle(size: str, seed: int) -> dict:
    """The discover-repair inputs: a noisier, smaller dirty table."""
    cfg = SIZES[size]
    path = _cache_dir(size, seed, "disc")

    def build(out: str) -> None:
        from repro.datagen import generate_hosp
        clean = generate_hosp(rows=int(cfg["disc_rows"]), seed=seed)
        dirty = _cells(_noise(clean, cfg["disc_noise"], seed))
        attrs = list(clean.schema.attribute_names)
        _dump(out, clean=_cells(clean), dirty=dirty)
        _write_inputs(os.path.join(out, "csv"), attrs, dirty)
        with open(os.path.join(out, "meta.json"), "w") as handle:
            json.dump({"rows": len(dirty), "attrs": attrs}, handle)

    tables = _piece(path, "core", build)
    with open(os.path.join(tables, "meta.json")) as handle:
        bundle = json.load(handle)
    bundle.update(tables=tables, csv=os.path.join(tables, "csv"))
    return bundle
