"""Executor equivalence: the plan-compiled paths reproduce the direct paths.

The acceptance contract of the execution-plane redesign: for **every**
registry design × **every** registry scenario, the report produced through
``Executor``-driven ``TestSession.run`` / ``Campaign.run`` is byte-identical
(table output; deterministic fields via ``same_results``) to the direct
scenario-pipeline execution, on every plan backend — and a diagnosis plan ranks
identically to a direct ``run_diagnosis`` call.

ATPG effort is deliberately tiny: these tests pin plumbing equivalence, not
coverage numbers (the engine equivalence suite holds the kernels to
bit-identical detections separately).
"""

from __future__ import annotations

import pytest

from repro.api import (
    Campaign,
    RunReport,
    TestSession,
    design_names,
    execute_scenario,
    outcome_of,
    prepare_from_spec,
    resolve_design,
    scenario_names,
)
from repro.atpg import AtpgOptions
from repro.runtime import EXECUTOR_BACKENDS, Executor

CHEAP = AtpgOptions(
    random_pattern_batches=1, patterns_per_batch=8, backtrack_limit=4,
    max_patterns=4, random_seed=7,
)

DESIGNS = tuple(design_names())
SCENARIOS = tuple(scenario_names())
CAMPAIGN_DESIGNS = ("tiny", "wide-edt")


@pytest.fixture(scope="module")
def prepared_designs():
    """Every registry design, built once and shared by all passes."""
    return {name: prepare_from_spec(resolve_design(name)) for name in DESIGNS}


def _session(prepared) -> TestSession:
    return TestSession.from_prepared(prepared, CHEAP).add_scenarios(*SCENARIOS)


@pytest.fixture(scope="module")
def reference_reports(prepared_designs):
    """The direct path: every scenario through the raw scenario pipeline."""
    reports: dict[str, RunReport] = {}
    for name, prepared in prepared_designs.items():
        session = _session(prepared)
        outcomes = [
            outcome_of(execute_scenario(prepared, CHEAP, spec))
            for spec in session.queued_scenarios
        ]
        # The header a from_prepared session on a spec-built design writes.
        header = {
            "design": prepared.netlist.name,
            "num_chains": prepared.scan.num_chains,
            "scenarios": list(SCENARIOS),
            "design_spec": prepared.spec.name,
            "design_size": prepared.spec.size_estimate(),
        }
        reports[name] = RunReport(session=header, outcomes=outcomes)
    return reports


class TestSessionEquivalence:
    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_every_design_x_scenario_matches_direct_path(
        self, prepared_designs, reference_reports, backend
    ):
        for name in DESIGNS:
            report = _session(prepared_designs[name]).run(
                executor=Executor(backend=backend)
            )
            reference = reference_reports[name]
            assert report.table() == reference.table(), (name, backend)
            assert report.same_results(reference), (name, backend)
            # Healthy runs carry no degradation marker — the session
            # metadata (and hence the JSON envelope) is unchanged.
            assert report.session == reference.session, (name, backend)


class TestCampaignEquivalence:
    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_campaign_cells_match_direct_path(
        self, prepared_designs, reference_reports, backend
    ):
        campaign = Campaign(
            designs=[prepared_designs[name] for name in CAMPAIGN_DESIGNS],
            scenarios=SCENARIOS,
            options=CHEAP,
        )
        report = campaign.run(executor=Executor(backend=backend))
        for name in CAMPAIGN_DESIGNS:
            reference = reference_reports[name]
            assert report.table(name) == reference.table(), (name, backend)
            assert report.run_report(name).same_results(reference), (name, backend)


class TestDiagnosisEquivalence:
    @pytest.fixture(scope="class")
    def defect(self, prepared_designs):
        from repro.diagnose import DefectSpec

        model = prepared_designs["tiny"].model
        net = model.nodes[model.po_nodes[0][1]].net
        return DefectSpec(kind="stuck-at", net=net, value=0)

    @pytest.fixture(scope="class")
    def reference_result(self, prepared_designs, defect):
        """The direct path: raw pattern generation + run_diagnosis."""
        from repro.api.scenarios import resolve_scenario_or_letter
        from repro.diagnose import DiagnosisSpec, run_diagnosis

        prepared = prepared_designs["tiny"]
        scenario = resolve_scenario_or_letter("a")
        run = execute_scenario(prepared, CHEAP, scenario)
        setup = scenario.build_setup(prepared, CHEAP)
        return run_diagnosis(
            prepared, setup, run.patterns,
            DiagnosisSpec(scenario=scenario.name, defect=defect),
            options=CHEAP,
        )

    def test_session_diagnosis_plan_matches_direct_call(
        self, prepared_designs, defect, reference_result
    ):
        session = TestSession.from_prepared(prepared_designs["tiny"], CHEAP)
        result = session.diagnose(defect, scenario="a")
        assert result.same_ranking(reference_result)
        assert result.rank_of_defect == reference_result.rank_of_defect
        assert result.resolution == reference_result.resolution

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_diagnosis_sweep_identical_on_every_backend(
        self, prepared_designs, defect, reference_result, backend
    ):
        campaign = Campaign(
            designs=[prepared_designs["tiny"]], scenarios=["a"], options=CHEAP
        )
        report = campaign.diagnose([defect], executor=Executor(backend=backend))
        assert len(report) == 1
        cell = report.cells[0]
        assert cell.rank_of_defect == reference_result.rank_of_defect
        assert cell.resolution == reference_result.resolution
        assert cell.candidate_count == reference_result.candidate_count
        assert cell.fail_count == reference_result.fail_count
        assert cell.pattern_count == reference_result.pattern_count

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    def test_multi_defect_sweep_cells_stay_in_grid_order(
        self, prepared_designs, defect, backend
    ):
        """Pooled backends land cells in completion order; the final report
        must still be deterministic, grid-ordered, and identical to serial."""
        from repro.diagnose import DefectSpec

        model = prepared_designs["tiny"].model
        second_net = model.nodes[model.po_nodes[-1][1]].net
        defects = [defect, DefectSpec(kind="stuck-at", net=second_net, value=1)]

        def sweep(executor_backend: str):
            campaign = Campaign(
                designs=[prepared_designs["tiny"]], scenarios=["a"], options=CHEAP
            )
            report = campaign.diagnose(
                defects, executor=Executor(backend=executor_backend)
            )
            return [
                (cell.design, cell.scenario, cell.defect.describe(),
                 cell.rank_of_defect, cell.resolution)
                for cell in report
            ]

        assert sweep(backend) == sweep("serial")
