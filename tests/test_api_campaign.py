"""Tests for Campaign, CampaignReport, and per-cell caching/resume."""

import pytest

from repro.api import Campaign, CampaignReport, TestSession
from repro.atpg import AtpgOptions
from repro.core import format_table1
from repro.diagnose import DefectSpec
from repro.engine import ResultCache
from repro.runtime import Executor


STUCK_SCAN_EN = DefectSpec(kind="stuck-at", net="scan_en", value=1)


@pytest.fixture(scope="module")
def fast_options():
    return AtpgOptions(
        random_pattern_batches=2, patterns_per_batch=16, backtrack_limit=8, random_seed=7
    )


@pytest.fixture(scope="module")
def small_grid_report(fast_options):
    """A 2-design x 2-scenario serial campaign (tiny + wide-edt, a + c)."""
    campaign = Campaign(
        designs=["tiny", "wide-edt"], scenarios=["a", "c"], options=fast_options
    )
    report = campaign.run()
    return campaign, report


class TestCampaignBuilder:
    def test_letters_resolve_to_table1_scenarios(self):
        campaign = Campaign(["tiny"], ["a", "table1-b", "stuck-at-edt"])
        assert campaign.scenario_names == ["table1-a", "table1-b", "stuck-at-edt"]

    def test_grid_is_design_major(self, fast_options):
        campaign = Campaign(["tiny", "wide-edt"], ["a", "c"], options=fast_options)
        assert campaign.grid() == [
            ("tiny", "table1-a"),
            ("tiny", "table1-c"),
            ("wide-edt", "table1-a"),
            ("wide-edt", "table1-c"),
        ]

    def test_empty_or_duplicate_axes_rejected(self, fast_options):
        with pytest.raises(ValueError, match="at least one design"):
            Campaign([], ["a"])
        with pytest.raises(ValueError, match="at least one scenario"):
            Campaign(["tiny"], [])
        with pytest.raises(ValueError, match="duplicate designs"):
            Campaign(["tiny", "tiny"], ["a"])
        with pytest.raises(ValueError, match="duplicate scenarios"):
            Campaign(["tiny"], ["a", "table1-a"])

    def test_unknown_backend_rejected(self, fast_options):
        campaign = Campaign(["tiny"], ["a"], options=fast_options)
        with pytest.raises(ValueError, match="unknown engine backend"):
            campaign.with_options(sim_backend="gpu")
        with pytest.raises(ValueError, match="unknown engine backend"):
            campaign.diagnose([STUCK_SCAN_EN], backend="gpu")

    def test_run_rejects_positional_arguments(self, fast_options):
        """``run`` is keyword-only; it takes no backend knobs at all."""
        campaign = Campaign(["tiny"], ["a"], options=fast_options)
        with pytest.raises(TypeError):
            campaign.run("threads")
        with pytest.raises(TypeError):
            campaign.run(backend="threads")

    def test_diagnose_rejects_mixing_executor_with_sizing_knobs(self, fast_options):
        """``diagnose``/``diagnose_volume`` take ``executor=`` only: the old
        positional fan-out knobs and ``max_workers`` are gone."""
        campaign = Campaign(["tiny"], ["a"], options=fast_options)
        with pytest.raises(TypeError):
            campaign.diagnose([STUCK_SCAN_EN], "threads", executor=Executor())
        with pytest.raises(TypeError):
            campaign.diagnose([STUCK_SCAN_EN], max_workers=2, executor=Executor())
        with pytest.raises(TypeError):
            campaign.diagnose_volume([], None, "threads", executor=Executor())


class TestCampaignResults:
    def test_cells_cover_the_grid(self, small_grid_report):
        campaign, report = small_grid_report
        assert len(report) == 4
        assert report.designs() == ["tiny", "wide-edt"]
        assert report.scenarios() == ["table1-a", "table1-c"]
        assert [(c.design, c.scenario) for c in report] == campaign.grid()

    def test_cell_lookup_accepts_letters(self, small_grid_report):
        _, report = small_grid_report
        assert report.cell("tiny", "a") is report.cell("tiny", "table1-a")
        with pytest.raises(KeyError, match="no campaign cell"):
            report.cell("tiny", "e")

    def test_outcomes_match_a_plain_session(self, small_grid_report, fast_options):
        """A campaign cell equals the same scenario run through TestSession."""
        _, report = small_grid_report
        session_report = (
            TestSession.for_design("tiny", options=fast_options)
            .add_scenarios("table1-a", "table1-c")
            .run()
        )
        for key in ("a", "c"):
            assert report.cell("tiny", key).outcome.same_results(session_report[key])

    def test_design_default_edt_applies_to_every_cell(self, small_grid_report):
        _, report = small_grid_report
        assert "edt" not in report.cell("tiny", "a").outcome.extras
        assert report.cell("wide-edt", "a").outcome.extras["edt"]["channels"] == 4

    def test_result_of_returns_raw_atpg_result(self, small_grid_report):
        campaign, report = small_grid_report
        raw = campaign.result_of("tiny", "a")
        assert raw.pattern_count == report.cell("tiny", "a").outcome.pattern_count
        with pytest.raises(KeyError, match="has not been executed"):
            campaign.result_of("tiny", "e")

    def test_with_options_drops_kept_runs(self, fast_options):
        """Runs made under the old options no longer describe the campaign."""
        campaign = Campaign(["tiny"], ["a"], options=fast_options)
        campaign.run()
        assert campaign.result_of("tiny", "a").pattern_count > 0
        campaign.with_options(backtrack_limit=9)
        assert campaign.artifacts == {}
        with pytest.raises(KeyError, match="has not been executed"):
            campaign.result_of("tiny", "a")

    def test_json_round_trip(self, small_grid_report):
        _, report = small_grid_report
        restored = CampaignReport.from_json(report.to_json())
        assert restored.same_results(report)
        assert restored.table("tiny") == report.table("tiny")

    def test_on_cell_streams_every_cell(self, fast_options):
        seen = []
        Campaign(["tiny"], ["a", "c"], options=fast_options).run(
            on_cell=lambda cell: seen.append((cell.design, cell.scenario))
        )
        assert sorted(seen) == [("tiny", "table1-a"), ("tiny", "table1-c")]


class TestTable1ByteCompatibility:
    def test_campaign_table_matches_legacy_flow(self, fast_options):
        """One campaign row renders ``format_table1`` of its raw results,
        byte for byte (the table1-soc acceptance check at unit-test scale;
        ``test_outcomes_match_a_plain_session`` pins the cells themselves to
        a plain session run)."""
        campaign = Campaign(["tiny"], ["a", "b", "c", "d", "e"], options=fast_options)
        report = campaign.run()
        results = {key: campaign.result_of("tiny", key) for key in "abcde"}
        assert report.table("tiny") == format_table1(results)


class TestCampaignBackends:
    def test_processes_matches_serial(self, small_grid_report, fast_options):
        _, serial_report = small_grid_report
        processes_report = Campaign(
            designs=["tiny", "wide-edt"], scenarios=["a", "c"], options=fast_options
        ).run(executor=Executor(backend="processes", max_workers=2))
        assert processes_report.same_results(serial_report)

    def test_threads_matches_serial(self, small_grid_report, fast_options):
        _, serial_report = small_grid_report
        threads_report = Campaign(
            designs=["tiny", "wide-edt"], scenarios=["a", "c"], options=fast_options
        ).run(executor=Executor(backend="threads"))
        assert threads_report.same_results(serial_report)


class TestCampaignCacheResume:
    def test_rerun_hits_cache_on_every_cell(self, tmp_path, fast_options):
        cache = ResultCache(tmp_path / "cache")
        cold = Campaign(["tiny", "wide-edt"], ["a", "c"], options=fast_options)
        cold_report = cold.with_cache(cache).run()
        assert cold_report.cache_hits() == 0
        warm = Campaign(["tiny", "wide-edt"], ["a", "c"], options=fast_options)
        warm_report = warm.with_cache(cache).run()
        assert warm_report.cache_hits() == len(warm_report) == 4
        assert warm_report.same_results(cold_report)

    def test_interrupted_campaign_resumes_partially(self, tmp_path, fast_options):
        """Cells completed by a smaller campaign are served from cache."""
        cache = ResultCache(tmp_path / "cache")
        Campaign(["tiny"], ["a"], options=fast_options).with_cache(cache).run()
        resumed = Campaign(["tiny"], ["a", "c"], options=fast_options)
        report = resumed.with_cache(cache).run()
        assert report.cache_hits() == 1
        assert report.cell("tiny", "a").cache_hit
        assert not report.cell("tiny", "c").cache_hit

    def test_option_changes_miss_the_cache(self, tmp_path, fast_options):
        cache = ResultCache(tmp_path / "cache")
        Campaign(["tiny"], ["a"], options=fast_options).with_cache(cache).run()
        import dataclasses

        retuned = dataclasses.replace(fast_options, backtrack_limit=9)
        report = Campaign(["tiny"], ["a"], options=retuned).with_cache(cache).run()
        assert report.cache_hits() == 0


class TestSharedKeys:
    def test_session_and_campaign_share_pattern_and_diagnosis_keys(self, fast_options):
        """On a spec-built design both front doors take the design identity
        from the spec fingerprint, so they address the same cache entries."""
        session = TestSession.for_design("tiny", options=fast_options)
        campaign = Campaign(["tiny"], ["a"], options=fast_options)
        session_plan = session.diagnosis_plan(STUCK_SCAN_EN, scenario="a")
        campaign_plan = campaign.diagnosis_plan([STUCK_SCAN_EN])
        assert session_plan.jobs[0].cache_key == campaign_plan.jobs[0].cache_key
        assert session_plan.jobs[1].cache_key == campaign_plan.jobs[1].cache_key
        session.add_scenario("table1-a")
        assert session.plan().jobs[0].cache_key == campaign.plan().jobs[0].cache_key


class TestWireDegradedResults:
    def test_report_builder_rejects_degraded_event_values(self, fast_options):
        """A serve journal degrades unpicklable run values to a repr string
        (and corrupt pickles to None); the report assembler must name the
        cell and the degradation instead of dying on an AttributeError."""
        from repro.runtime import Event

        campaign = Campaign(designs=["tiny"], scenarios=["a"],
                            options=fast_options)
        plan = campaign.plan()
        _, handle, _ = campaign._fold(plan, {}, False)
        for degraded in ("ScenarioRun(...)", None):
            event = Event(kind="job_finished", plan=plan.name,
                          job=plan.jobs[0].id, value=degraded)
            with pytest.raises(TypeError,
                               match="did not survive the event wire"):
                handle(event)
