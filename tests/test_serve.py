"""The hardened repair-as-a-service daemon, end to end.

Three layers of coverage:

* **Mechanism units** — the admission controller, latency percentile
  helper, and ruleset registry in isolation, with no sockets.
* **HTTP contract** — a real daemon on an ephemeral port (via
  :class:`~repro.serve.ServerThread`), spoken to with stdlib
  ``http.client``: repair round-trips, tenant hot-reload with
  rejection and rollback, explain/check, metrics, readiness, and the
  Hypothesis property that a mid-stream reload to Σ′ produces output
  cell-identical to a fresh daemon that had Σ′ all along.
* **Chaos** (``faultinjection``-marked, run by ``make test-serve``) —
  the compiled engine is patched to hang or raise on a marked row:
  every admitted request completes or cleanly 504s inside its
  deadline + grace, a raising row becomes one ``row_errors`` entry
  while the rest of the batch is repaired, the daemon sheds with
  503 + ``Retry-After`` past the watermark, and drain returns clean.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FixingRule, RuleSet, Schema
from repro.core import CompiledRuleSet
from repro.core.serialization import ruleset_to_json
from repro.serve import (AdmissionController, RulesetRegistry,
                         RulesetRejected, ServeConfig, ServerThread,
                         percentile)


# -- shared material ---------------------------------------------------------

TRAVEL = Schema("Travel", ["name", "country", "capital", "city", "conf"])


def travel_rules(*names):
    """A consistent Σ drawn from the paper's running example."""
    pool = {
        "phi1": FixingRule({"country": "China"}, "capital",
                           {"Shanghai", "Hongkong"}, "Beijing",
                           name="phi1"),
        "phi2": FixingRule({"country": "Canada"}, "capital", {"Toronto"},
                           "Ottawa", name="phi2"),
        "phi3": FixingRule({"capital": "Tokyo", "city": "Tokyo",
                            "conf": "ICDE"}, "country", {"China"}, "Japan",
                           name="phi3"),
        "phi4": FixingRule({"capital": "Beijing", "conf": "ICDE"}, "city",
                           {"Hongkong"}, "Shanghai", name="phi4"),
    }
    return RuleSet(TRAVEL, [pool[name] for name in names])


def inconsistent_rules_json():
    """Two rules that conflict (same evidence, same attribute,
    overlapping negatives, different facts)."""
    rules = RuleSet(TRAVEL, [
        FixingRule({"country": "China"}, "capital", {"Shanghai"},
                   "Beijing", name="a"),
        FixingRule({"country": "China"}, "capital", {"Shanghai"},
                   "Nanjing", name="b"),
    ])
    return ruleset_to_json(rules)


def request(port, method, path, body=None, headers=None, timeout=30.0):
    """One HTTP request; returns (status, headers dict, decoded body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        if isinstance(body, (dict, list)):
            body = json.dumps(body)
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        header_map = {key.lower(): value
                      for key, value in response.getheaders()}
        if header_map.get("content-type", "").startswith("application/json"):
            payload = json.loads(raw) if raw else None
        else:
            payload = raw.decode("utf-8", "replace")
        return response.status, header_map, payload
    finally:
        conn.close()


# -- mechanism units ---------------------------------------------------------

class TestAdmission:
    def test_watermark_shedding_and_idle(self):
        async def scenario():
            admission = AdmissionController(1, 1, retry_after=2.0)
            release = asyncio.Event()

            async def hold():
                async with admission:
                    await release.wait()

            holder = asyncio.create_task(hold())
            await asyncio.sleep(0.01)
            assert admission.inflight == 1
            # one request may still wait (waiting 0 < watermark 1)
            assert admission.try_begin()
            waiter = asyncio.create_task(hold())
            await asyncio.sleep(0.01)
            assert admission.waiting == 1
            # the line is full now: shed
            assert not admission.try_begin()
            assert admission.shed_total == 1
            release.set()
            await holder
            await waiter
            assert admission.inflight == 0
            assert await admission.wait_idle(1.0)
            assert admission.admitted_total == 2

        asyncio.run(scenario())

    def test_drain_stops_admission(self):
        async def scenario():
            admission = AdmissionController(4, 8)
            assert admission.try_begin()
            admission.begin_drain()
            assert not admission.try_begin()
            assert await admission.wait_idle(0.1)

        asyncio.run(scenario())

    def test_validates_knobs(self):
        with pytest.raises(ValueError):
            AdmissionController(0, 1)
        with pytest.raises(ValueError):
            AdmissionController(1, -1)


def test_percentile_nearest_rank():
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0], 0.99) == 3.0
    samples = [float(i) for i in range(100)]
    assert percentile(samples, 0.50) == 50.0
    assert percentile(samples, 0.99) == 99.0


class TestRegistry:
    def test_upload_reject_rollback(self, tmp_path):
        registry = RulesetRegistry(str(tmp_path / "spool"))
        sigma = travel_rules("phi1", "phi2")
        first = registry.upload("t1", ruleset_to_json(sigma))
        assert first.rule_count == 2

        # an inconsistent Σ′ is rejected with 422 and leaves Σ serving
        with pytest.raises(RulesetRejected) as excinfo:
            registry.upload("t1", inconsistent_rules_json())
        assert excinfo.value.status == 422
        assert excinfo.value.conflicts
        assert registry.get("t1").fingerprint == first.fingerprint

        # parse garbage is a 400-class rejection
        with pytest.raises(RulesetRejected) as excinfo:
            registry.upload("t1", "{not json")
        assert excinfo.value.status == 400
        assert registry.get("t1").fingerprint == first.fingerprint

        # a valid Σ′ swaps in; rollback swaps back
        second = registry.upload("t1", ruleset_to_json(
            travel_rules("phi1")))
        assert registry.get("t1").fingerprint == second.fingerprint
        rolled = registry.rollback("t1")
        assert rolled.fingerprint == first.fingerprint
        assert registry.rollbacks_total == 1

    def test_rollback_without_previous(self, tmp_path):
        registry = RulesetRegistry(str(tmp_path))
        registry.upload("t", ruleset_to_json(travel_rules("phi1")))
        with pytest.raises(RulesetRejected) as excinfo:
            registry.rollback("t")
        assert excinfo.value.status == 409
        with pytest.raises(KeyError):
            registry.rollback("ghost")


def test_serve_config_validation():
    with pytest.raises(ValueError):
        ServeConfig(max_body_bytes=0).validate()
    with pytest.raises(ValueError):
        ServeConfig(request_timeout=0).validate()
    with pytest.raises(ValueError):
        ServeConfig(drain_timeout=-1).validate()
    ServeConfig().validate()  # defaults are valid


# -- HTTP contract -----------------------------------------------------------

@pytest.fixture(scope="module")
def daemon():
    """One shared daemon; tests isolate via distinct tenant names."""
    with ServerThread(ServeConfig(request_timeout=20.0)) as thread:
        yield thread


@pytest.fixture(scope="module")
def default_tenant(daemon):
    """The 'default' tenant loaded with the paper's Σ."""
    sigma = travel_rules("phi1", "phi2", "phi3", "phi4")
    status, _, payload = request(daemon.port, "POST", "/rulesets/default",
                                 body=ruleset_to_json(sigma))
    assert status == 200
    return payload["installed"]["fingerprint"]


def test_health_and_readiness(daemon, default_tenant):
    status, _, payload = request(daemon.port, "GET", "/healthz")
    assert (status, payload["status"]) == (200, "ok")
    status, _, payload = request(daemon.port, "GET", "/readyz")
    assert status == 200
    assert "default" in payload["tenants"]


def test_repair_round_trip(daemon, default_tenant):
    rows = [
        ["George", "China", "Beijing", "Shanghai", "ICDE"],   # clean
        ["Ian", "China", "Shanghai", "Hongkong", "ICDE"],     # 2 fixes
        ["Mike", "Canada", "Toronto", "Toronto", "VLDB"],     # 1 fix
    ]
    status, _, payload = request(daemon.port, "POST", "/repair",
                                 body={"rows": rows})
    assert status == 200
    assert payload["fingerprint"] == default_tenant
    assert payload["engine"] == "serial"
    assert len(payload["rows"]) == len(rows)
    assert payload["rows"][0] == rows[0]
    assert payload["rows"][1] == ["Ian", "China", "Beijing", "Shanghai",
                                  "ICDE"]
    assert payload["rows"][2] == ["Mike", "Canada", "Ottawa", "Toronto",
                                  "VLDB"]
    assert payload["rows_changed"] == 2
    assert payload["cells_changed"] == 3
    assert payload["row_errors"] == []


def test_repair_accepts_objects(daemon, default_tenant):
    row = {"name": "Ian", "country": "China", "capital": "Shanghai",
           "city": "Hongkong", "conf": "ICDE"}
    status, _, payload = request(daemon.port, "POST", "/repair",
                                 body={"rows": [row]})
    assert status == 200
    assert payload["rows"][0][2] == "Beijing"


def test_repair_validation_errors(daemon, default_tenant):
    port = daemon.port
    status, _, payload = request(port, "POST", "/repair", body="{oops")
    assert status == 400
    status, _, _ = request(port, "POST", "/repair", body={"nope": 1})
    assert status == 400
    status, _, _ = request(port, "POST", "/repair",
                           body={"rows": [["too", "short"]]})
    assert status == 400
    status, _, _ = request(port, "POST", "/repair",
                           body={"rows": [[None] * 5]})
    assert status == 400
    # full-width rows take the fast path only when every cell is a
    # string; anything else still gets the per-cell checks
    status, _, payload = request(
        port, "POST", "/repair",
        body={"rows": [["Ian", "China", ["Shanghai"], "Hongkong", "ICDE"]]})
    assert (status, payload["error"]) == \
        (400, "row 0 contains a non-scalar cell")
    status, _, payload = request(
        port, "POST", "/repair",
        body={"rows": [["Ian", "China", "Shanghai", "Hongkong", "ICDE"],
                       ["Ian", True, "Shanghai", "Hongkong", "ICDE"]]})
    assert (status, payload["error"]) == \
        (400, "row 1 contains a non-scalar cell")
    status, _, payload = request(
        port, "POST", "/repair",
        body={"rows": [[2014, "China", "Shanghai", "Hongkong", "ICDE"]]})
    assert status == 200
    assert payload["rows"] == [["2014", "China", "Beijing", "Shanghai",
                                "ICDE"]]
    status, _, payload = request(port, "POST", "/repair?tenant=ghost",
                                 body={"rows": []})
    assert status == 404
    status, _, _ = request(port, "GET", "/repair")
    assert status == 405


@pytest.mark.parametrize("header", ["nan", "inf", "-inf", "0", "-1", "soon"])
def test_bad_timeout_header_rejected(daemon, default_tenant, header):
    """A deadline is the only bound on a request's compute, so a
    garbage ``X-Repro-Timeout`` is a 400, never the default deadline."""
    status, _, payload = request(
        daemon.port, "POST", "/repair",
        body={"rows": [["Ian", "China", "Shanghai", "Hongkong", "ICDE"]]},
        headers={"X-Repro-Timeout": header})
    assert status == 400
    assert "X-Repro-Timeout" in payload["error"]


def test_check_endpoint(daemon, default_tenant):
    status, _, payload = request(daemon.port, "POST", "/check")
    assert status == 200
    assert payload["consistent"] is True
    status, _, payload = request(daemon.port, "POST", "/check",
                                 body=inconsistent_rules_json())
    assert status == 200
    assert payload["consistent"] is False
    assert payload["conflicts"]


def test_explain_endpoint(daemon, default_tenant):
    status, _, payload = request(
        daemon.port, "POST", "/explain",
        body={"row": ["Ian", "China", "Shanghai", "Hongkong", "ICDE"]})
    assert status == 200
    assert payload["changed"] is True
    applied = {fix["rule"] for fix in payload["applied"]}
    assert "phi1" in applied
    assert len(payload["verdicts"]) == 4


def test_hot_reload_reject_and_rollback(daemon):
    port = daemon.port
    sigma = travel_rules("phi1", "phi2")
    status, _, payload = request(port, "POST", "/rulesets/reloader",
                                 body=ruleset_to_json(sigma))
    assert status == 200
    original = payload["installed"]["fingerprint"]
    dirty = ["Ian", "China", "Shanghai", "Hongkong", "ICDE"]

    # inconsistent upload: 422, conflicts listed, old Σ still serving
    status, _, payload = request(port, "POST", "/rulesets/reloader",
                                 body=inconsistent_rules_json())
    assert status == 422
    assert payload["conflicts"]
    status, _, payload = request(port, "POST", "/repair?tenant=reloader",
                                 body={"rows": [dirty]})
    assert status == 200
    assert payload["fingerprint"] == original
    assert payload["rows"][0][2] == "Beijing"

    # a valid Σ′ (phi1 removed) changes behavior...
    status, _, payload = request(
        port, "POST", "/rulesets/reloader",
        body=ruleset_to_json(travel_rules("phi2")))
    assert status == 200
    reloaded = payload["installed"]["fingerprint"]
    assert reloaded != original
    status, _, payload = request(port, "POST", "/repair?tenant=reloader",
                                 body={"rows": [dirty]})
    assert payload["fingerprint"] == reloaded
    assert payload["rows"][0] == dirty  # phi1 gone: no fix

    # ...and one-step rollback restores the original Σ
    status, _, payload = request(port, "POST",
                                 "/rulesets/reloader/rollback")
    assert status == 200
    assert payload["active"]["fingerprint"] == original
    status, _, payload = request(port, "POST", "/repair?tenant=reloader",
                                 body={"rows": [dirty]})
    assert payload["fingerprint"] == original
    assert payload["rows"][0][2] == "Beijing"


def test_metrics_exposition(daemon, default_tenant):
    status, _, text = request(daemon.port, "GET", "/metrics")
    assert status == 200
    assert "repro_serve_requests_total" in text
    assert "repro_serve_timeouts_total" in text
    assert "repro_serve_admission_shed_total" in text
    assert 'repro_serve_repair_latency_seconds{quantile="0.5"}' in text
    assert 'repro_serve_requests_engine_total{engine="serial"}' in text
    for retired in ("supervisor_", "breaker_", "fallbacks_total",
                    'engine="pool"'):
        assert retired not in text

    # counters are monotonic across scrapes
    def scrape_value(body, needle):
        for line in body.splitlines():
            if line.startswith(needle + " "):
                return float(line.split()[-1])
        return 0.0

    first = scrape_value(text, "repro_serve_rows_repaired_total")
    request(daemon.port, "POST", "/repair",
            body={"rows": [["a", "b", "c", "d", "e"]]})
    _, _, text = request(daemon.port, "GET", "/metrics")
    assert scrape_value(text, "repro_serve_rows_repaired_total") >= first + 1


def test_unknown_route(daemon):
    status, _, _ = request(daemon.port, "GET", "/nope")
    assert status == 404


class TestDeltaEndpoints:
    """The incremental session behind POST/GET /repair/delta, and its
    hot-reload follow-through."""

    @pytest.fixture()
    def delta_tenant(self, daemon):
        name = "delta-%d" % id(self)
        sigma = travel_rules("phi1", "phi2")
        status, _, payload = request(daemon.port, "POST",
                                     "/rulesets/%s" % name,
                                     body=ruleset_to_json(sigma))
        assert status == 200
        return name

    def test_session_round_trip(self, daemon, delta_tenant):
        body = {"upserts": [
            {"id": "r1", "values": ["George", "China", "Shanghai",
                                    "Hongkong", "SIGMOD"]},
            {"id": "r2", "values": ["Peter", "Canada", "Toronto",
                                    "Toronto", "VLDB"]},
        ]}
        status, _, payload = request(daemon.port, "POST",
                                     "/repair/delta?tenant=%s"
                                     % delta_tenant, body=body)
        assert status == 200
        assert payload["engine"] == "delta"
        assert payload["epoch"] == 1
        assert sorted(payload["affected"]) == ["r1", "r2"]
        assert payload["rows"]["r1"][2] == "Beijing"
        assert payload["rows"]["r2"][2] == "Ottawa"

        # Second delta re-repairs only the touched row.
        status, _, payload = request(
            daemon.port, "POST", "/repair/delta?tenant=%s" % delta_tenant,
            body={"upserts": [{"id": "r1",
                               "values": ["George", "Canada", "Toronto",
                                          "Hongkong", "SIGMOD"]}]})
        assert status == 200
        assert payload["affected"] == ["r1"]
        assert payload["rows"]["r1"][2] == "Ottawa"
        assert payload["rows_total"] == 2

        # Deletes shrink the session.
        status, _, payload = request(
            daemon.port, "POST", "/repair/delta?tenant=%s" % delta_tenant,
            body={"deletes": ["r2"]})
        assert status == 200 and payload["rows_total"] == 1

        # Status endpoint reports the audit view.
        status, _, payload = request(
            daemon.port, "GET",
            "/repair/delta?tenant=%s&rows=1" % delta_tenant)
        assert status == 200
        assert payload["rows"] == 1
        assert payload["rows_data"]["r1"] == ["George", "Canada",
                                              "Ottawa", "Hongkong",
                                              "SIGMOD"]

    def test_hot_reload_rerepairs_only_affected(self, daemon,
                                                delta_tenant):
        body = {"upserts": [
            {"id": "a", "values": ["Ian", "China", "Hongkong",
                                   "Hongkong", "ICDE"]},
            {"id": "b", "values": ["Mike", "Japan", "Tokyo", "Tokyo",
                                   "VLDB"]},
        ]}
        status, _, payload = request(daemon.port, "POST",
                                     "/repair/delta?tenant=%s"
                                     % delta_tenant, body=body)
        assert status == 200
        assert payload["rows"]["a"][2] == "Beijing"

        # Swap in Σ′ that drops phi1 and adds phi4: the live session
        # follows incrementally and reports what it re-repaired.
        sigma_prime = travel_rules("phi2", "phi4")
        status, _, payload = request(daemon.port, "POST",
                                     "/rulesets/%s" % delta_tenant,
                                     body=ruleset_to_json(sigma_prime))
        assert status == 200
        assert "delta" in payload
        assert payload["delta"]["rows_rerepaired"] >= 1
        prime_fingerprint = payload["installed"]["fingerprint"]

        status, _, payload = request(
            daemon.port, "GET",
            "/repair/delta?tenant=%s&rows=1" % delta_tenant)
        assert status == 200
        # phi1 gone: capital reverts to Hongkong; row b untouched.
        assert payload["rows_data"]["a"][2] == "Hongkong"
        assert payload["rows_data"]["b"] == ["Mike", "Japan", "Tokyo",
                                             "Tokyo", "VLDB"]
        assert payload["rules_fingerprint"] == prime_fingerprint

        # Rollback swaps Σ back and the session follows again.
        status, _, payload = request(daemon.port, "POST",
                                     "/rulesets/%s/rollback"
                                     % delta_tenant)
        assert status == 200 and "delta" in payload
        status, _, payload = request(
            daemon.port, "GET",
            "/repair/delta?tenant=%s&rows=1" % delta_tenant)
        assert payload["rows_data"]["a"][2] == "Beijing"

    def test_validation_errors(self, daemon, delta_tenant):
        status, _, _ = request(daemon.port, "POST",
                               "/repair/delta?tenant=%s" % delta_tenant,
                               body={"nothing": True})
        assert status == 400
        status, _, _ = request(daemon.port, "POST",
                               "/repair/delta?tenant=%s" % delta_tenant,
                               body={"upserts": [{"id": "x",
                                                  "values": ["short"]}]})
        assert status == 400
        status, _, _ = request(daemon.port, "POST",
                               "/repair/delta?tenant=ghost",
                               body={"deletes": ["x"]})
        assert status == 404
        status, _, _ = request(daemon.port, "GET",
                               "/repair/delta?tenant=ghost")
        assert status == 404


# -- the reload-equivalence property (Hypothesis) ----------------------------

COUNTRIES = ["China", "Canada", "Japan"]
CAPITALS = ["Beijing", "Shanghai", "Hongkong", "Tokyo", "Toronto",
            "Ottawa"]
CITIES = ["Shanghai", "Hongkong", "Tokyo", "Toronto"]
CONFS = ["ICDE", "VLDB"]

travel_row = st.tuples(
    st.sampled_from(["George", "Ian", "Peter", "Mike"]),
    st.sampled_from(COUNTRIES),
    st.sampled_from(CAPITALS),
    st.sampled_from(CITIES),
    st.sampled_from(CONFS),
).map(list)

rule_subset = st.sets(st.sampled_from(["phi1", "phi2", "phi3", "phi4"]),
                      min_size=1).map(sorted)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(travel_row, min_size=1, max_size=8),
       split=st.integers(min_value=0, max_value=8),
       sigma_names=rule_subset, sigma_prime_names=rule_subset)
def test_mid_stream_reload_equivalence(daemon, rows, split, sigma_names,
                                       sigma_prime_names):
    """Repairing a stream with a mid-stream hot reload to Σ′ yields
    output cell-identical to a daemon that had Σ′ from the split point
    on — a reload leaves no residue (stale kernel or cache) that could
    leak Σ into Σ′'s repairs."""
    port = daemon.port
    split = min(split, len(rows))
    sigma = ruleset_to_json(travel_rules(*sigma_names))
    sigma_prime = ruleset_to_json(travel_rules(*sigma_prime_names))

    # stream with a reload at the split point
    assert request(port, "POST", "/rulesets/prop-live",
                   body=sigma)[0] == 200
    live = []
    if rows[:split]:
        status, _, payload = request(port, "POST",
                                     "/repair?tenant=prop-live",
                                     body={"rows": rows[:split]})
        assert status == 200
        live.extend(payload["rows"])
    assert request(port, "POST", "/rulesets/prop-live",
                   body=sigma_prime)[0] == 200
    if rows[split:]:
        status, _, payload = request(port, "POST",
                                     "/repair?tenant=prop-live",
                                     body={"rows": rows[split:]})
        assert status == 200
        live.extend(payload["rows"])

    # reference: Σ for the prefix, a fresh Σ′ tenant for the suffix
    assert request(port, "POST", "/rulesets/prop-ref",
                   body=sigma)[0] == 200
    reference = []
    if rows[:split]:
        _, _, payload = request(port, "POST", "/repair?tenant=prop-ref",
                                body={"rows": rows[:split]})
        reference.extend(payload["rows"])
    assert request(port, "POST", "/rulesets/prop-ref2",
                   body=sigma_prime)[0] == 200
    if rows[split:]:
        _, _, payload = request(port, "POST", "/repair?tenant=prop-ref2",
                                body={"rows": rows[split:]})
        reference.extend(payload["rows"])

    assert live == reference


# -- chaos: deadlines, poison rows, shedding, drain --------------------------

TRIGGER = "XSERVECHAOSX"

#: fast knobs shared by the chaos daemons
CHAOS = dict(grace=1.0, retry_after=1.0)


def start_chaos_daemon(tmp_path, **overrides):
    config = ServeConfig(**{**CHAOS, **overrides,
                            "spool_dir": str(tmp_path / "spool")})
    thread = ServerThread(config).start()
    sigma = travel_rules("phi1", "phi2")
    status, _, _ = request(thread.port, "POST", "/rulesets/default",
                           body=ruleset_to_json(sigma))
    assert status == 200
    return thread


def arm_trigger(monkeypatch, action):
    """Make the compiled engine run *action* before repairing any row
    whose first cell is :data:`TRIGGER`."""
    original = CompiledRuleSet.repair_values

    def repair_values(self, values):
        if values and values[0] == TRIGGER:
            action()
        return original(self, values)

    monkeypatch.setattr(CompiledRuleSet, "repair_values", repair_values)


def scrape(port, name):
    _, _, text = request(port, "GET", "/metrics")
    for line in text.splitlines():
        if line.startswith("repro_serve_%s " % name):
            return float(line.split()[-1])
    raise AssertionError("no metric %s" % name)


@pytest.mark.faultinjection
def test_deadline_504_then_next_request_succeeds(tmp_path, monkeypatch):
    """Slow rows are cut off between rows; a row that never returns in
    time still ends in a 504 inside deadline + grace; the daemon keeps
    serving either way."""
    delay = {"seconds": 0.3}
    arm_trigger(monkeypatch, lambda: time.sleep(delay["seconds"]))
    daemon = start_chaos_daemon(tmp_path, request_timeout=20.0, grace=2.0)
    slow = [TRIGGER, "China", "Shanghai", "Hongkong", "ICDE"]
    clean = [["Ian", "China", "Shanghai", "Hongkong", "ICDE"]]
    try:
        # three 0.3 s rows against a 0.4 s deadline: the check after
        # the second row answers long before deadline + grace
        started = time.monotonic()
        status, _, payload = request(daemon.port, "POST", "/repair",
                                     body={"rows": [slow] * 3},
                                     headers={"X-Repro-Timeout": "0.4"})
        elapsed = time.monotonic() - started
        assert status == 504
        assert "deadline" in payload["error"]
        assert elapsed < 0.4 + 2.0

        # one row that outlives deadline + grace: the event loop stops
        # waiting and answers 504 while the row is still running
        delay["seconds"] = 4.0
        started = time.monotonic()
        status, _, _ = request(daemon.port, "POST", "/repair",
                               body={"rows": [slow]},
                               headers={"X-Repro-Timeout": "0.4"})
        elapsed = time.monotonic() - started
        assert status == 504
        assert elapsed < 0.4 + 2.0 + 1.0

        status, _, payload = request(daemon.port, "POST", "/repair",
                                     body={"rows": clean})
        assert status == 200
        assert payload["rows"][0][2] == "Beijing"
        assert scrape(daemon.port, "timeouts_total") == 2
    finally:
        daemon.stop()


@pytest.mark.faultinjection
def test_poison_row_becomes_row_error(tmp_path, monkeypatch):
    """A row whose repair raises becomes one ``row_errors`` entry; its
    neighbours are repaired and no row is dropped or duplicated."""
    def poison():
        raise RuntimeError("poisoned row")

    arm_trigger(monkeypatch, poison)
    daemon = start_chaos_daemon(tmp_path, request_timeout=20.0)
    try:
        rows = [["Ian", "China", "Shanghai", "Hongkong", "ICDE"],
                [TRIGGER, "China", "Shanghai", "Hongkong", "ICDE"],
                ["Mike", "Canada", "Toronto", "Toronto", "VLDB"]]
        status, _, payload = request(daemon.port, "POST", "/repair",
                                     body={"rows": rows})
        assert status == 200
        assert payload["row_errors"] == [{"index": 1,
                                          "error_type": "RuntimeError",
                                          "message": "poisoned row"}]
        assert [row[0] for row in payload["rows"]] == \
            ["Ian", TRIGGER, "Mike"]
        assert payload["rows"][0][2] == "Beijing"
        assert payload["rows"][1] == rows[1]  # errored rows pass through
        assert payload["rows"][2][2] == "Ottawa"
        assert payload["rows_changed"] == 2
        assert scrape(daemon.port, "row_errors_total") == 1
    finally:
        daemon.stop()


@pytest.mark.faultinjection
def test_overload_sheds_with_retry_after(tmp_path, monkeypatch):
    """With the only execution slot busy and the queue at watermark,
    new arrivals get an immediate 503 + Retry-After — and the slow
    request itself still ends in a clean 504, not a stall."""
    arm_trigger(monkeypatch, lambda: time.sleep(3.0))
    daemon = start_chaos_daemon(tmp_path, request_timeout=1.0,
                                max_concurrency=1, queue_watermark=0)
    try:
        import threading
        results = {}

        def slow_request():
            results["slow"] = request(
                daemon.port, "POST", "/repair",
                body={"rows": [[TRIGGER, "China", "Shanghai", "Hongkong",
                                "ICDE"]]},
                timeout=30.0)

        worker = threading.Thread(target=slow_request)
        worker.start()
        time.sleep(0.4)  # let it occupy the only slot

        # 2x watermark arrivals: all shed, immediately
        for _ in range(2):
            started = time.monotonic()
            status, headers, payload = request(
                daemon.port, "POST", "/repair",
                body={"rows": [["Ian", "China", "Shanghai", "Hongkong",
                                "ICDE"]]})
            assert status == 503
            assert float(headers["retry-after"]) >= 1
            assert time.monotonic() - started < 1.0

        worker.join(timeout=15.0)
        assert not worker.is_alive()
        status, _, _ = results["slow"]
        assert status == 504  # admitted: completed or cleanly timed out

        # the daemon recovered: the next request is served
        status, _, payload = request(
            daemon.port, "POST", "/repair",
            body={"rows": [["Mike", "Canada", "Toronto", "Toronto",
                            "VLDB"]]})
        assert status == 200
        assert payload["rows"][0][2] == "Ottawa"
        assert scrape(daemon.port, "admission_shed_total") == 2
    finally:
        daemon.stop()


@pytest.mark.faultinjection
def test_graceful_drain(tmp_path):
    """stop() drains cleanly and the listener actually goes away."""
    daemon = start_chaos_daemon(tmp_path, request_timeout=5.0)
    port = daemon.port
    status, _, _ = request(port, "POST", "/repair",
                           body={"rows": [["Ian", "China", "Shanghai",
                                           "Hongkong", "ICDE"]]})
    assert status == 200
    assert daemon.stop() is True
    with pytest.raises(OSError):
        request(port, "GET", "/healthz", timeout=2.0)


def test_drain_closes_delta_logs_and_own_spool(tmp_path):
    """Drain closes every tenant's correction log and removes the spool
    dir the daemon created for itself, but never a caller's."""
    import os
    daemon = ServerThread(ServeConfig(request_timeout=20.0)).start()
    try:
        status, _, _ = request(daemon.port, "POST", "/rulesets/default",
                               body=ruleset_to_json(
                                   travel_rules("phi1", "phi2")))
        assert status == 200
        status, _, _ = request(
            daemon.port, "POST", "/repair/delta?tenant=default",
            body={"upserts": [{"id": "r1", "values": [
                "Ian", "China", "Shanghai", "Hongkong", "ICDE"]}]})
        assert status == 200
        server = daemon.server
        spool = server.registry.spool_dir
        assert os.path.basename(spool).startswith("repro-serve-spool-")
        (session,) = server._delta_sessions.values()
        log_file = session.log._fh
        assert not log_file.closed
    finally:
        assert daemon.stop() is True
    assert log_file.closed
    assert not server._delta_sessions
    assert not os.path.exists(spool)

    given_spool = start_chaos_daemon(tmp_path)
    assert given_spool.stop() is True
    assert (tmp_path / "spool").is_dir()


class TestDiscoverEndpoint:
    """POST /rulesets/{tenant}/discover: mine weighted rules from
    posted dirty rows and install them through the shadow slot."""

    ATTRS = ["k", "b", "c"]

    @staticmethod
    def _rows(minority=True):
        rows = [["1", "X", "P"]] * 5 + [["2", "Z", "Q"]] * 4
        if minority:
            rows = rows + [["1", "Y", "P"]]
        return rows

    def test_discover_installs_and_serves(self, daemon):
        tenant = "disc-%d" % id(self)
        status, _, payload = request(
            daemon.port, "POST", "/rulesets/%s/discover" % tenant,
            body={"attributes": self.ATTRS, "rows": self._rows(),
                  "fds": ["k -> b"]})
        assert status == 200
        assert payload["tenant"] == tenant
        assert payload["installed"]["rules"] >= 1
        assert payload["discovery"]["kept"] >= 1
        assert payload["discovery"]["candidates"] >= 1

        # the installed Σ repairs through the ordinary endpoint
        status, _, payload = request(
            daemon.port, "POST", "/repair?tenant=%s" % tenant,
            body={"rows": [["1", "Y", "P"]]})
        assert status == 200
        assert payload["rows"][0] == ["1", "X", "P"]
        assert payload["cells_changed"] == 1

    def test_clean_data_mines_nothing(self, daemon):
        status, _, payload = request(
            daemon.port, "POST", "/rulesets/disc-clean/discover",
            body={"attributes": self.ATTRS,
                  "rows": self._rows(minority=False),
                  "fds": ["k -> b"]})
        assert status == 422
        assert "no rules" in payload["error"]

    def test_bad_bodies_are_rejected(self, daemon):
        port = daemon.port
        cases = [
            ({"rows": self._rows()}, "attributes"),
            ({"attributes": self.ATTRS}, "rows"),
            ({"attributes": self.ATTRS, "rows": [["1", "X"]]}, "cells"),
            ({"attributes": self.ATTRS, "rows": self._rows(),
              "fds": ["nonsense"]}, "bad FD"),
            ({"attributes": self.ATTRS, "rows": self._rows(),
              "min_support": 0}, "parameter"),
        ]
        for body, needle in cases:
            status, _, payload = request(
                port, "POST", "/rulesets/disc-bad/discover", body=body)
            assert status == 400, (body, payload)
            assert needle in payload["error"], (needle, payload)
