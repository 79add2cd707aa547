"""Observability plane: span nesting, exports, metrics, and byte-identity.

Three layers of guarantees:

* the :mod:`repro.obs` primitives themselves (tracer nesting and thread
  safety, Chrome/Perfetto export schema, metrics registry arithmetic);
* the instrumentation seams (executor plan/wave/job spans stable across
  backends, cache-probe wall time on skip events);
* the reporting contract (disabled telemetry leaves report JSON
  byte-identical and key-free; enabled telemetry round-trips kernel/cache/
  ATPG counters through ``RunReport.session["telemetry"]``).
"""

from __future__ import annotations

import json
import random
import threading
import time

import pytest

from repro.api import Campaign, TestSession
from repro.api.design import prepare_from_spec
from repro.atpg import AtpgOptions
from repro.diagnose import DefectSpec
from repro.diagnose.diagnose import DiagnosisReport
from repro.fault_sim import StuckAtFaultSimulator
from repro.faults import all_stuck_at_faults, collapse_faults
from repro.hier.designs import register_hier_designs
from repro.logic import Logic
from repro.obs import (
    NULL_TELEMETRY,
    MetricsRegistry,
    NullMetrics,
    NullTracer,
    Telemetry,
    Trace,
    Tracer,
    active_metrics,
    coerce_telemetry,
    format_flame,
    format_table,
    get_telemetry,
    rss_kb,
)
from repro.runtime import Executor, Job, Plan, register_job_kind

#: ATPG effort tuned for unit-test speed (one batch, a handful of patterns).
CHEAP = AtpgOptions(
    random_pattern_batches=1, patterns_per_batch=8, backtrack_limit=4,
    max_patterns=4, random_seed=7,
)


@register_job_kind("obs-echo")
def _obs_echo(resources, params, deps):
    return params.get("value")


def _echo_plan(count: int = 4, *, keys: bool = False) -> Plan:
    return Plan(
        name="obs-plan",
        jobs=tuple(
            Job(
                id=f"echo:{i}", kind="obs-echo", params={"value": i},
                cache_key=f"obs-key-{i}" if keys else None,
            )
            for i in range(count)
        ),
    )


# --------------------------------------------------------------------------
# Tracer primitives
# --------------------------------------------------------------------------
class TestTracer:
    def test_spans_nest_and_record_parents(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        trace = tracer.trace()
        by_name = {span.name: span for span in trace}
        assert by_name["outer"].parent is None
        assert by_name["middle"].parent == by_name["outer"].id
        assert by_name["inner"].parent == by_name["middle"].id
        assert by_name["sibling"].parent == by_name["outer"].id
        assert by_name["outer"].attrs == {"kind": "test"}
        for span in trace:
            assert span.end >= span.start

    def test_trace_orders_parents_before_children(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        names = tracer.trace().names()
        assert names == ["a", "b", "c"]

    def test_worker_threads_attach_via_explicit_parent(self):
        tracer = Tracer()
        with tracer.span("dispatch") as handle:
            def work(index: int) -> None:
                with tracer.span(f"task:{index}", parent=handle.id):
                    pass

            threads = [
                threading.Thread(target=work, args=(i,), name=f"w{i}")
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        trace = tracer.trace()
        dispatch = trace.find("dispatch")[0]
        tasks = trace.find("task:")
        assert len(tasks) == 4
        assert {span.parent for span in tasks} == {dispatch.id}
        assert {span.thread for span in tasks} == {"w0", "w1", "w2", "w3"}

    def test_record_folds_external_timings(self):
        tracer = Tracer()
        base = time.perf_counter()
        with tracer.span("merge"):
            tracer.record("shard:0", start=base, duration=0.25, faults=10)
            tracer.record("shard:1", start=base + 0.25, duration=0.5, faults=12)
        trace = tracer.trace()
        shards = trace.find("shard:")
        assert [span.name for span in shards] == ["shard:0", "shard:1"]
        assert shards[0].parent == trace.find("merge")[0].id
        assert shards[0].duration == pytest.approx(0.25)
        assert shards[1].attrs["faults"] == 12

    def test_concurrent_span_creation_is_thread_safe(self):
        tracer = Tracer()

        def spin() -> None:
            for index in range(100):
                with tracer.span(f"spin:{index}"):
                    pass

        threads = [threading.Thread(target=spin) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        trace = tracer.trace()
        assert len(trace) == 600
        assert len({span.id for span in trace}) == 600

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("ignored", attr=1):
            tracer.record("also-ignored", duration=1.0)
        assert tracer.span_count() == 0
        assert len(tracer.trace()) == 0
        assert tracer.current_id() is None


# --------------------------------------------------------------------------
# Exports
# --------------------------------------------------------------------------
class TestTraceExports:
    def _sample_trace(self) -> Trace:
        tracer = Tracer()
        with tracer.span("plan:p", jobs=2):
            with tracer.span("job:a", kind="obs-echo"):
                pass
        return tracer.trace()

    def test_jsonl_is_one_object_per_line(self):
        trace = self._sample_trace()
        lines = trace.to_jsonl().strip().split("\n")
        decoded = [json.loads(line) for line in lines]
        assert [item["name"] for item in decoded] == ["plan:p", "job:a"]
        assert decoded[1]["parent"] == decoded[0]["id"]

    def test_chrome_document_matches_trace_event_schema(self):
        document = self._sample_trace().to_chrome()
        events = document["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert isinstance(event, dict)
            for field in ("name", "ph", "pid", "tid"):
                assert field in event
            if event["ph"] == "X":
                assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
                assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
            elif event["ph"] == "M":
                assert isinstance(event["args"]["name"], str)
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X"}
        complete = [event for event in events if event["ph"] == "X"]
        assert [event["name"] for event in complete] == ["plan:p", "job:a"]
        assert complete[1]["args"]["parent"] == complete[0]["args"]["span_id"]
        json.dumps(document)  # must be serializable as-is

    def test_write_chrome_is_loadable_json(self, tmp_path):
        path = self._sample_trace().write_chrome(tmp_path / "trace.json")
        document = json.loads(path.read_text())
        assert {event["name"] for event in document["traceEvents"]} >= {
            "plan:p", "job:a",
        }

    def test_non_json_attrs_are_coerced(self):
        tracer = Tracer()
        with tracer.span("odd", obj=object(), seq=(1, 2)):
            pass
        document = tracer.trace().to_chrome()
        args = [e for e in document["traceEvents"] if e["ph"] == "X"][0]["args"]
        assert isinstance(args["obj"], str)
        assert args["seq"] == [1, 2]
        json.dumps(document)


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_histograms_snapshot(self):
        metrics = MetricsRegistry()
        metrics.inc("engine.tape_passes")
        metrics.inc("engine.tape_passes", 2)
        metrics.observe("atpg.run_seconds", 0.5)
        metrics.observe("atpg.run_seconds", 1.5)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["engine.tape_passes"] == 3
        hist = snapshot["histograms"]["atpg.run_seconds"]
        assert hist["count"] == 2
        assert hist["total"] == pytest.approx(2.0)
        assert hist["min"] == pytest.approx(0.5)
        assert hist["max"] == pytest.approx(1.5)
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_merge_combines_snapshots(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.inc("n", 2)
        second.inc("n", 3)
        second.observe("h", 1.0)
        first.merge(second.snapshot())
        first.merge({"counters": {"n": 1}, "gauges": {"g": 1}})  # gauges ignored
        snapshot = first.snapshot()
        assert snapshot["counters"]["n"] == 6
        assert snapshot["histograms"]["h"]["count"] == 1
        assert "gauges" not in snapshot

    def test_concurrent_increments_are_exact(self):
        metrics = MetricsRegistry()

        def spin() -> None:
            for _ in range(1000):
                metrics.inc("n")

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.counter("n") == 8000

    def test_null_metrics_is_inert(self):
        metrics = NullMetrics()
        metrics.inc("n")
        metrics.observe("h", 1.0)
        assert metrics.snapshot() == {"counters": {}, "histograms": {}}


# --------------------------------------------------------------------------
# Telemetry handle + ambient activation
# --------------------------------------------------------------------------
class TestTelemetry:
    def test_on_off_and_coercion(self):
        assert bool(Telemetry.on()) is True
        assert bool(Telemetry.off()) is False
        assert Telemetry.off() is NULL_TELEMETRY
        assert coerce_telemetry(None) is NULL_TELEMETRY
        assert coerce_telemetry(False) is NULL_TELEMETRY
        assert bool(coerce_telemetry(True)) is True
        enabled = Telemetry.on()
        assert coerce_telemetry(enabled) is enabled
        with pytest.raises(TypeError):
            coerce_telemetry("yes")

    def test_activation_stack_is_lifo(self):
        assert get_telemetry() is NULL_TELEMETRY
        assert active_metrics() is None
        outer, inner = Telemetry.on(), Telemetry.on()
        with outer.activate():
            assert get_telemetry() is outer
            with inner.activate():
                assert get_telemetry() is inner
            assert get_telemetry() is outer
            assert active_metrics() is outer.metrics
        assert get_telemetry() is NULL_TELEMETRY
        assert active_metrics() is None

    def test_disabled_activation_is_a_noop(self):
        with NULL_TELEMETRY.activate():
            assert get_telemetry() is NULL_TELEMETRY
            assert active_metrics() is None

    def test_snapshot_round_trips_through_json(self):
        telemetry = Telemetry.on()
        with telemetry.activate():
            with telemetry.tracer.span("s"):
                telemetry.metrics.inc("n")
        snapshot = telemetry.snapshot()
        assert snapshot["enabled"] is True
        assert snapshot["span_count"] == 1
        assert snapshot["metrics"]["counters"]["n"] == 1
        assert json.loads(json.dumps(snapshot)) == snapshot


# --------------------------------------------------------------------------
# Profiling hooks
# --------------------------------------------------------------------------
class TestProfiling:
    def test_rss_kb_is_positive(self):
        assert rss_kb() > 0

    def test_profile_spans_sample_rss(self):
        telemetry = Telemetry.on(profile=True)
        with telemetry.tracer.span("probe"):
            pass
        span = telemetry.trace().find("probe")[0]
        assert span.attrs["rss_kb"] > 0
        assert "rss_kb_delta" in span.attrs

    def test_text_renderers_cover_every_span_name(self):
        tracer = Tracer()
        with tracer.span("plan:x"):
            with tracer.span("job:y"):
                pass
        trace = tracer.trace()
        table = format_table(trace)
        flame = format_flame(trace)
        for name in ("plan:x", "job:y"):
            assert name in table
            assert name in flame


# --------------------------------------------------------------------------
# Executor spans + skip-event stamping (satellite: wall on job_skipped)
# --------------------------------------------------------------------------
class TestExecutorSpans:
    def test_span_tree_stable_across_backends(self):
        """plan -> wave -> job nesting holds on every backend, with the
        identical span-name multiset (order within a wave may differ only
        by timing, never by membership)."""
        reference = None
        for backend in ("serial", "threads", "processes"):
            telemetry = Telemetry.on()
            executor = Executor(backend=backend, max_workers=2, telemetry=telemetry)
            result = executor.execute(_echo_plan())
            assert [result.value_of(f"echo:{i}") for i in range(4)] == [0, 1, 2, 3]
            trace = telemetry.trace()
            plans = trace.find("plan:")
            assert len(plans) == 1
            waves = trace.find("wave:")
            assert waves and all(s.parent == plans[0].id for s in waves)
            jobs = trace.find("job:")
            wave_ids = {s.id for s in waves}
            assert {s.parent for s in jobs} <= wave_ids
            names = sorted(trace.names())
            if reference is None:
                reference = names
            else:
                assert names == reference, f"{backend} span set diverged"

    def test_skip_events_carry_cache_probe_wall(self, tmp_path):
        cache_plan = _echo_plan(keys=True)
        executor = Executor(cache=tmp_path / "cache")
        executor.execute(cache_plan)

        events = []
        telemetry = Telemetry.on()
        warm = Executor(cache=tmp_path / "cache", telemetry=telemetry)
        warm.execute(cache_plan, on_event=events.append)

        skips = [e for e in events if e.kind == "job_skipped"]
        assert len(skips) == 4
        for event in skips:
            assert event.wall_seconds > 0.0  # the cache probe is timed now
        finished = [e for e in events if e.kind == "plan_finished"]
        assert len(finished) == 1
        assert finished[0].skipped == 4
        # Skipped jobs still produce job: spans (recorded, not opened).
        assert len(telemetry.trace().find("job:")) == 4

    def test_untraced_runs_emit_no_spans(self):
        executor = Executor()
        executor.execute(_echo_plan())
        assert NULL_TELEMETRY.trace().names() == []


# --------------------------------------------------------------------------
# Reports: byte-identity when disabled, counter round-trip when enabled
# --------------------------------------------------------------------------
def _scrub_seconds(obj, zero=False):
    """Zero every float under a ``*seconds*`` key (wall clocks differ per
    run; everything else in a report is deterministic and must match)."""
    if isinstance(obj, dict):
        return {
            key: _scrub_seconds(value, zero or "seconds" in key)
            for key, value in obj.items()
        }
    if isinstance(obj, list):
        return [_scrub_seconds(value, zero) for value in obj]
    if isinstance(obj, float) and zero:
        return 0.0
    return obj


def _normalized(report_json: str) -> str:
    return json.dumps(_scrub_seconds(json.loads(report_json)), sort_keys=True)


class TestReportTelemetry:
    def _session(self, tiny_prepared) -> TestSession:
        session = TestSession.from_prepared(tiny_prepared, CHEAP)
        session.add_scenario("table1-a")
        return session

    def test_disabled_reports_are_byte_identical(self, tiny_prepared):
        plain = self._session(tiny_prepared).run()
        dark = self._session(tiny_prepared).with_telemetry(False).run()
        assert "telemetry" not in plain.session
        assert "telemetry" not in dark.session
        assert "telemetry" not in plain.to_json()
        assert _normalized(plain.to_json()) == _normalized(dark.to_json())

    def test_enabled_snapshot_round_trips_with_counters(self, tiny_prepared, tmp_path):
        cache_dir = tmp_path / "cache"
        self._session(tiny_prepared).with_cache(cache_dir).run()  # cold: stores

        telemetry = Telemetry.on()
        report = (
            self._session(tiny_prepared)
            .with_cache(cache_dir)
            .with_telemetry(telemetry)
            .run()
        )
        snapshot = report.session["telemetry"]
        assert json.loads(report.to_json())["session"]["telemetry"] == snapshot
        counters = snapshot["metrics"]["counters"]
        assert counters["cache.hits"] >= 1  # warm run served from the cache

        lit = (
            self._session(tiny_prepared)
            .with_telemetry(Telemetry.on())
            .run()
        )
        counters = lit.session["telemetry"]["metrics"]["counters"]
        assert counters["engine.tape_passes"] >= 1
        assert counters["engine.gate_evaluations"] >= 1
        assert counters["atpg.random_patterns_simulated"] >= 1
        assert counters["atpg.patterns_kept"] >= 1
        restored = json.loads(lit.to_json())
        assert restored["session"]["telemetry"] == lit.session["telemetry"]

    def test_stem_sweeps_counted_and_bounded_by_plane_ops(self, tiny_prepared):
        """The batch kernel reports one stem sweep per live stem: at least
        one per session, never more than the faults handed to it.  On a
        flat design every live stem is its own cone sweep."""
        lit = self._session(tiny_prepared).with_telemetry(Telemetry.on()).run()
        counters = lit.session["telemetry"]["metrics"]["counters"]
        plane_ops = sum(
            value for name, value in counters.items()
            if name.startswith("engine.plane_ops.")
        )
        assert 1 <= counters["engine.stem_sweeps"] <= plane_ops
        assert counters["engine.cone_sweeps"] == counters["engine.stem_sweeps"]

    def test_hier_cone_sweeps_fewer_than_stem_sweeps(self):
        """On a design of repeated cores, live stems at one template site
        share a wide cone sweep, so fewer sweeps run than stems are live."""
        register_hier_designs()
        model = prepare_from_spec("hier-soc-1k").model
        faults = collapse_faults(model, all_stuck_at_faults(model)).representatives
        rng = random.Random(2)
        sources = model.pi_nodes + model.ppi_nodes
        patterns = [
            {idx: rng.choice((Logic.ZERO, Logic.ONE)) for idx in sources}
            for _ in range(32)
        ]
        telemetry = Telemetry.on()
        with telemetry.activate():
            StuckAtFaultSimulator(model, batch_size=32).simulate(patterns, faults)
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert 1 <= counters["engine.cone_sweeps"] < counters["engine.stem_sweeps"]

    def test_enabled_results_match_disabled(self, tiny_prepared):
        dark = self._session(tiny_prepared).run()
        lit = self._session(tiny_prepared).with_telemetry(True).run()
        assert lit.same_results(dark)

    def test_campaign_run_and_diagnose_trace_spans(self):
        telemetry = Telemetry.on()
        campaign = Campaign(
            designs=["tiny"], scenarios=["a"], options=CHEAP
        ).with_telemetry(telemetry)
        report = campaign.run()
        assert report.campaign["telemetry"]["span_count"] > 0
        diagnosis = campaign.diagnose(
            defects=[DefectSpec(kind="stuck-at", net="scan_en", value=1)],
        )
        assert diagnosis.campaign["telemetry"]["span_count"] > 0
        names = telemetry.trace().names()
        for prefix in ("plan:", "wave:", "job:", "stage:", "diagnose:"):
            assert any(name.startswith(prefix) for name in names), prefix
        assert len(telemetry.trace().find("plan:")) == 2  # run + diagnose

    def test_session_diagnosis_counts_dictionary_hits_and_misses(self):
        """Each diagnosis records its syndrome-dictionary lookups; a second
        diagnosis on the same pattern set (here on the BP plane) finds what
        the first simulated."""
        telemetry = Telemetry.on()
        session = TestSession.for_design("tiny", options=CHEAP).with_telemetry(telemetry)
        defect = DefectSpec(kind="stuck-at", net="scan_en", value=1)
        session.diagnose(defect, scenario="a")
        first = telemetry.metrics.snapshot()["counters"]
        assert first["diagnose.dictionary.misses"] > 0
        session.diagnose(defect, scenario="a", bp=True)
        second = telemetry.metrics.snapshot()["counters"]
        assert second["diagnose.dictionary.hits"] > first.get("diagnose.dictionary.hits", 0)

    def test_campaign_disabled_has_no_telemetry_key(self):
        campaign = Campaign(designs=["tiny"], scenarios=["a"], options=CHEAP)
        report = campaign.run()
        assert "telemetry" not in report.campaign
        assert "telemetry" not in report.to_json()


# --------------------------------------------------------------------------
# DiagnosisReport fallbacks (satellite: parity with RunReport)
# --------------------------------------------------------------------------
class TestDiagnosisReportFallbacks:
    def test_healthy_report_has_no_notes(self):
        report = DiagnosisReport()
        assert report.backend_fallbacks == []
        assert report.degraded is False
        assert "NOTE:" not in report.summary()

    def test_fallbacks_surface_and_annotate_summary(self):
        report = DiagnosisReport(
            campaign={
                "backend_fallbacks": [
                    {
                        "requested": "processes",
                        "used": "threads",
                        "reason": "result transport failed",
                    }
                ]
            }
        )
        assert report.degraded is True
        assert report.backend_fallbacks[0]["used"] == "threads"
        summary = report.summary()
        assert (
            "NOTE: backend fallback processes -> threads: "
            "result transport failed"
        ) in summary

    def test_fallbacks_survive_json_round_trip(self):
        report = DiagnosisReport(
            campaign={"backend_fallbacks": [{"requested": "processes",
                                            "used": "threads",
                                            "reason": "spill"}]}
        )
        restored = DiagnosisReport.from_json(report.to_json())
        assert restored.degraded
        assert restored.backend_fallbacks == report.backend_fallbacks
