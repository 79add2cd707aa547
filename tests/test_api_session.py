"""Tests for TestSession, the scenario pipeline, and RunReport."""

import pytest

from repro.api import RunReport, TestSession, instrument_soc, scenarios
from repro.atpg import AtpgOptions
from repro.core import format_table1
from repro.runtime import Executor


@pytest.fixture(scope="module")
def fast_options():
    """Deliberately tiny ATPG effort — these tests check plumbing, not coverage."""
    return AtpgOptions(
        random_pattern_batches=2, patterns_per_batch=16, backtrack_limit=8, random_seed=7
    )


@pytest.fixture(scope="module")
def table1_session(fast_options):
    """The five Table 1 scenarios run (in parallel) through the new API."""
    session = (
        TestSession.for_soc(size=1, seed=17)
        .with_chains(4)
        .with_options(fast_options)
        .add_scenarios(*scenarios.table1())
    )
    report = session.run(executor=Executor(backend="threads"))
    return session, report


@pytest.fixture(scope="module")
def serial_results(fast_options):
    """The same five experiments run one at a time in-process (serial)."""
    session = (
        TestSession.for_soc(size=1, seed=17).with_chains(4).with_options(fast_options)
    )
    results = {}
    for spec in scenarios.table1():
        session.run_scenario(spec)
        results[spec.legacy_key] = session.result_of(spec.name)
    return results


class TestTable1Golden:
    def test_report_table_matches_legacy_byte_for_byte(self, table1_session, serial_results):
        """The threads-backend report renders the serial run's Table 1 byte
        for byte."""
        _, report = table1_session
        assert report.table() == format_table1(serial_results)

    def test_parallel_results_match_serial_legacy_run(self, table1_session, serial_results):
        """The threads-backend session and the serial run agree per experiment."""
        session, report = table1_session
        for key in "abcde":
            serial = serial_results[key]
            outcome = report[key]
            assert outcome.test_coverage == serial.coverage.test_coverage
            assert outcome.pattern_count == serial.pattern_count
            # Raw results stay reachable through the session.
            raw = session.result_of(f"table1-{key}")
            assert raw.pattern_count == serial.pattern_count

    def test_report_table_matches_format_table1(self, table1_session):
        session, report = table1_session
        results = {key: session.result_of(f"table1-{key}") for key in "abcde"}
        assert report.table() == format_table1(results)

    def test_outcomes_carry_stage_timings(self, table1_session):
        _, report = table1_session
        for outcome in report:
            assert set(outcome.stage_seconds) == {
                "setup", "atpg", "compaction", "compression", "export"
            }
            assert outcome.cpu_seconds == pytest.approx(
                sum(outcome.stage_seconds.values())
            )


class TestRunReportSerialization:
    def test_json_round_trip_is_lossless(self, table1_session):
        _, report = table1_session
        restored = RunReport.from_json(report.to_json())
        assert restored == report
        assert restored.table() == report.table()
        assert restored.same_results(report)

    def test_lookup_by_name_and_legacy_key(self, table1_session):
        _, report = table1_session
        assert report["a"] is report["table1-a"]
        assert "table1-b" in report and "b" in report
        with pytest.raises(KeyError, match="no outcome"):
            report["nope"]

    def test_same_results_detects_differences(self, table1_session):
        _, report = table1_session
        mutated = RunReport.from_json(report.to_json())
        mutated.outcomes[0].pattern_count += 1
        assert not report.same_results(mutated)


class TestExtendedScenarios:
    @pytest.fixture(scope="class")
    def extended_report(self, fast_options):
        session = (
            TestSession.for_soc(size=1, seed=17)
            .with_chains(4)
            .with_options(fast_options)
            .add_scenarios(*scenarios.extended())
        )
        report = session.run(executor=Executor(backend="threads"))
        return session, report

    def test_at_least_four_run_end_to_end(self, extended_report):
        _, report = extended_report
        assert len(report) >= 4
        for outcome in report:
            assert 0.0 <= outcome.test_coverage <= 100.0
            assert outcome.cpu_seconds > 0.0

    def test_edt_scenario_records_compression(self, extended_report):
        _, report = extended_report
        extras = report["stuck-at-edt"].extras
        assert extras["edt"]["channels"] == 2
        assert extras["edt"]["compression_ratio"] == 2.0
        assert extras["static_compaction"]["patterns_after"] <= (
            extras["static_compaction"]["patterns_before"]
        )

    def test_path_delay_scenario_reports_paths(self, extended_report):
        _, report = extended_report
        info = report["path-delay-simple-cpf"].extras["path_delay"]
        assert info["paths_targeted"] > 0
        assert (
            info["tests_found"] + info["aborted"] + info["untestable"]
            == info["paths_targeted"]
        )

    def test_mixed_scenario_combines_models(self, extended_report):
        _, report = extended_report
        outcome = report["mixed-constrained-sweep"]
        assert "stuck_at" in outcome.extras and "transition" in outcome.extras
        combined = outcome.extras["combined"]
        assert outcome.pattern_count == combined["pattern_count"]
        assert outcome.test_coverage == combined["test_coverage_percent"]

    def test_export_scenario_produces_stil(self, extended_report):
        session, report = extended_report
        stil = session.exported_patterns("transition-cpf-edt-export")
        assert stil.startswith("STIL 1.0;")
        assert report["transition-cpf-edt-export"].extras["export"]["lines"] > 0

    def test_json_round_trip_with_extras(self, extended_report):
        _, report = extended_report
        assert RunReport.from_json(report.to_json()) == report


class TestSessionBuilder:
    def test_run_without_scenarios_raises(self):
        with pytest.raises(RuntimeError, match="no scenarios"):
            TestSession.for_soc(size=1).run()

    def test_run_rejects_positional_arguments(self):
        """``run`` is keyword-only: a scenario list passed positionally must
        not be taken for a run option."""
        session = TestSession.for_soc(size=1).add_scenario("table1-c")
        with pytest.raises(TypeError):
            session.run(["table1-c"])

    def test_run_rejects_mixing_executor_with_sizing_knobs(self):
        """``run`` takes ``executor=`` only: the backend/max_workers knobs
        are gone."""
        session = TestSession.for_soc(size=1).add_scenario("table1-a")
        with pytest.raises(TypeError):
            session.run(backend="threads", executor=Executor())
        with pytest.raises(TypeError):
            session.run(max_workers=2, executor=Executor())

    def test_options_reject_non_positive_pool_knobs(self):
        with pytest.raises(ValueError, match=r"workers must be a positive integer \(got 0\)"):
            Executor(backend="processes", max_workers=0)

    def test_duplicate_scenario_rejected(self):
        session = TestSession.for_soc(size=1).add_scenario("table1-a")
        with pytest.raises(ValueError, match="already queued"):
            session.add_scenario("table1-a")

    def test_add_scenario_accepts_paper_letters(self):
        """Sessions resolve scenarios like campaigns and diagnose() do."""
        session = TestSession.for_soc(size=1).add_scenarios("a", "stuck-at-edt")
        assert [spec.name for spec in session.queued_scenarios] == [
            "table1-a", "stuck-at-edt"
        ]
        with pytest.raises(ValueError, match="already queued"):
            session.add_scenario("table1-a")

    def test_structure_change_invalidates_prepared(self):
        session = TestSession.for_soc(size=1, seed=11, num_chains=4)
        first = session.prepared
        session.with_chains(5)
        assert session.prepared is not first
        assert session.prepared.scan.num_chains == 5

    def test_from_prepared_refuses_structure_changes(self, tiny_prepared):
        session = TestSession.from_prepared(tiny_prepared)
        assert session.prepared is tiny_prepared
        with pytest.raises(RuntimeError, match="already prepared"):
            session.with_chains(8)

    def test_with_options_knobs(self):
        session = TestSession.for_soc(size=1).with_options(backtrack_limit=5)
        assert session.options.backtrack_limit == 5
        with pytest.raises(ValueError):
            session.with_options(AtpgOptions(), backtrack_limit=5)

    def test_result_of_unknown_scenario(self):
        session = TestSession.for_soc(size=1)
        with pytest.raises(KeyError, match="has not been executed"):
            session.result_of("table1-a")

    def test_cached_diagnosis_never_builds_a_scheduler(
        self, tiny_prepared, tmp_path, monkeypatch
    ):
        """A cache-served diagnose() must not pay for kernel compilation."""
        import repro.engine.scheduler as scheduler_mod
        from repro.diagnose import DefectSpec

        options = AtpgOptions(
            random_pattern_batches=1, patterns_per_batch=8, backtrack_limit=4,
            max_patterns=4,
        )
        defect = DefectSpec(kind="stuck-at", net="scan_en", value=1)
        warmer = TestSession.from_prepared(tiny_prepared, options).with_cache(
            tmp_path / "cache"
        )
        warmer.diagnose(defect, scenario="a")
        fresh = TestSession.from_prepared(tiny_prepared, options).with_cache(
            tmp_path / "cache"
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("scoring scheduler built for a cached diagnosis")

        monkeypatch.setattr(scheduler_mod, "FaultSimScheduler", forbidden)
        result = fresh.diagnose(defect, scenario="a")
        assert result.cache_hit


class TestInstrumentMemoisation:
    def test_repeated_instrumentation_is_cached(self, tiny_prepared):
        first = instrument_soc(tiny_prepared)
        second = instrument_soc(tiny_prepared)
        assert first[0] is second[0] and first[1] is second[1]

    def test_enhanced_flavour_cached_separately(self, tiny_prepared):
        simple = instrument_soc(tiny_prepared, enhanced=False)
        enhanced = instrument_soc(tiny_prepared, enhanced=True)
        assert simple[0] is not enhanced[0]
        assert instrument_soc(tiny_prepared, enhanced=True)[0] is enhanced[0]

    def test_session_shares_instrumented_view(self, tiny_prepared):
        session = TestSession.from_prepared(tiny_prepared)
        assert session.instrumented()[0] is instrument_soc(tiny_prepared)[0]
