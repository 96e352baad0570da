# Convenience targets; everything works with plain pytest too.

PY ?= python

.PHONY: install test test-fault test-differential test-columnar test-serve test-delta test-discovery test-durability bench bench-serve bench-delta bench-discovery results examples clean

install:
	$(PY) setup.py develop

test:
	$(PY) -m pytest tests/

test-fault:
	$(PY) -m pytest -m faultinjection tests/

# Differential cRepair/lRepair/columnar harness + the compiled-engine
# and chunked-driver suites.  Everything is seeded/derandomized, so two
# runs on any machine execute identical instances.
test-differential:
	$(PY) -m pytest tests/test_differential_repair.py \
	    tests/test_properties_parallel.py tests/test_parallel.py

# Columnar backend: encoding round-trip properties, columnar == row
# engine equivalence (cells, provenance, assured sets), permutation
# invariance, the cross-backend differential matrix incl. the
# streaming leg, and the chunked file driver with both chunk routes
# (quarantine parity, kill-and-resume).  Run it twice in CI — plain
# and with REPRO_NO_NUMPY=1 — to cover both code paths.
test-columnar:
	$(PY) -m pytest tests/test_columnar.py \
	    tests/test_differential_repair.py tests/test_parallel.py

# The repair-as-a-service daemon end to end: HTTP contract, hot-reload
# with rollback, the mid-stream-reload equivalence property, and the
# serve-chaos legs (hanging and raising rows, overload shedding,
# drain).  Every scenario is deadline-bounded — a hang here is itself
# a regression.
test-serve:
	$(PY) -m pytest tests/test_serve.py

# Incremental delta-repair engine: session lifecycle, correction-log
# replay/audit, snapshot staging, the Hypothesis interleaving property
# (incremental == full re-repair), the differential delta leg, and the
# serve delta endpoints.  Seeded/derandomized throughout.
test-delta:
	$(PY) -m pytest tests/test_delta.py \
	    tests/test_differential_repair.py -k "delta or Delta" \
	    tests/test_serve.py::TestDeltaEndpoints

# Weighted rule discovery: mining/trust/master unit cases, the
# Hypothesis resolution properties (blocked-consistent output, dropped
# rules never outweigh their winner), the scaled-down dependability
# gates, the discover/suggest CLI, and the daemon's discover endpoint.
test-discovery:
	$(PY) -m pytest tests/test_discovery_session.py \
	    tests/test_discovery_weighted.py \
	    tests/test_serve.py::TestDiscoverEndpoint

# Crash consistency: WAL framing and torn tails, the state store's
# snapshot-then-replay recovery, disk-fault injection (ENOSPC, EIO,
# short writes, failed fsync, crash-before-rename) over every durable
# path, and the SIGKILL-the-daemon restart legs.  Deterministic and
# deadline-bounded like the other fault suites.
test-durability:
	$(PY) -m pytest tests/test_durability.py

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# Serve-path latency/throughput; writes BENCH_serve.json and exits
# nonzero on any failed request or a throughput regression (pass
# ARGS=--smoke for the <10s CI configuration).
bench-serve:
	$(PY) benchmarks/bench_serve.py $(ARGS)

# Incremental vs full re-repair; writes BENCH_delta.json and exits
# nonzero if the 1% row-delta leg wins by less than 10x (pass
# ARGS=--smoke for the seconds-long CI configuration, gate disabled).
bench-delta:
	$(PY) benchmarks/bench_delta.py $(ARGS)

# Discovery throughput + dependability on the 500K-row noisy HOSP
# workload; writes BENCH_discovery.json and exits nonzero on any Σ
# conflict or precision < 0.95 / recall < 0.60 (pass ARGS=--smoke for
# the seconds-long CI configuration, gates disabled).
bench-discovery:
	$(PY) benchmarks/bench_discovery.py $(ARGS)

bench-series:
	$(PY) -m pytest benchmarks/ --benchmark-only -s

results:
	$(PY) examples/regenerate_results.py --rows 2000 --out results

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PY) $$f >/dev/null || exit 1; done; echo "all examples ran"

clean:
	rm -rf results .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
