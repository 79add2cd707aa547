"""The design-and-setup artefacts of ATPG, memoised per model
(:mod:`repro.atpg.artefacts`), and the design memos that keep them alive
across runs: a campaign's, a session's and a server's.

The oracle is a cold run: every scenario run on a model whose memos are
warm must equal the same run on a freshly prepared design, in its exported
pattern text, its fault list's bookkeeping and its ATPG statistics.
"""

from __future__ import annotations

import pickle
import sys
import threading
from dataclasses import replace

import pytest

from repro.api import Campaign, scenarios
from repro.api.design import DesignSpec, prepare_from_spec, register_design, unregister_design
from repro.api.pipeline import execute_scenario
from repro.atpg import AtpgOptions, PodemEngine, StuckAtAtpg
from repro.atpg.artefacts import ProcedureEngines, atpg_artefacts, collapsed_universe
from repro.atpg.timeframe import build_timeframe_view
from repro.clocking.domains import ClockDomainMap
from repro.logic import Logic
from repro.runtime import Executor
from repro.serve import ServeClient, ServeServer

OPTIONS = AtpgOptions(random_pattern_batches=2, patterns_per_batch=16, backtrack_limit=8)
#: Table 1 (a)-(e), a path-delay scenario, and a mixed one, whose stuck-at
#: and transition runs query one set of PODEM tables with and without
#: required objectives.
SCENARIOS = [spec.name for spec in scenarios.table1()] + [
    "path-delay-simple-cpf", "mixed-constrained-sweep",
]


def fingerprint(run) -> dict:
    """Everything a scenario run must reproduce, wall clocks excluded."""
    result = run.result
    stats = None if result is None else result.stats.as_dict()
    if stats is not None:
        stats.pop("runtime_seconds")
    return {
        "stil": run.stil,
        "extras": {k: v for k, v in run.extras.items() if k != "export"},
        "stats": stats,
        "faults": None if result is None else [
            (r.fault, r.status, r.detected_by, r.num_uncollapsed, r.group)
            for r in result.fault_list.records()
        ],
    }


def run_on(prepared, name: str, options: AtpgOptions = OPTIONS) -> dict:
    spec = replace(scenarios.get_scenario(name), export_patterns=True)
    return fingerprint(execute_scenario(prepared, options, spec))


@pytest.fixture(scope="module")
def cold_runs() -> dict:
    """Each scenario on its own freshly prepared ``tiny``."""
    return {name: run_on(prepare_from_spec("tiny"), name) for name in SCENARIOS}


class TestWarmEqualsCold:
    def test_every_scenario_twice_on_one_model(self, cold_runs):
        prepared = prepare_from_spec("tiny")
        for name in SCENARIOS:
            assert run_on(prepared, name) == cold_runs[name], name
        memo = atpg_artefacts(prepared.model)
        sizes = (len(memo.universes), len(memo.views), len(memo.tables))
        outcomes = sum(len(tables.outcomes) for tables in memo.tables.values())
        assert outcomes > 0
        for name in SCENARIOS:
            assert run_on(prepared, name) == cold_runs[name], name
        # The warm pass built nothing and searched nothing new.
        assert (len(memo.universes), len(memo.views), len(memo.tables)) == sizes
        assert sum(len(t.outcomes) for t in memo.tables.values()) == outcomes

    def test_another_seed_shares_the_artefacts_and_matches_its_cold_run(self):
        prepared = prepare_from_spec("tiny")
        run_on(prepared, "table1-c")
        memo = atpg_artefacts(prepared.model)
        tables = dict(memo.tables)
        reseeded = replace(OPTIONS, random_seed=77)
        assert run_on(prepared, "table1-c", reseeded) == run_on(
            prepare_from_spec("tiny"), "table1-c", reseeded
        )
        assert memo.tables == tables  # the seed is no part of any key

    def test_another_backtrack_limit_gets_its_own_tables(self):
        prepared = prepare_from_spec("tiny")
        run_on(prepared, "table1-b")
        before = len(atpg_artefacts(prepared.model).tables)
        deeper = replace(OPTIONS, backtrack_limit=9)
        assert run_on(prepared, "table1-b", deeper) == run_on(
            prepare_from_spec("tiny"), "table1-b", deeper
        )
        assert len(atpg_artefacts(prepared.model).tables) == 2 * before

    @pytest.mark.parametrize("change", [
        {"observe_pos": True}, {"hold_pis": False},
        {"pin_constraints": {"io_in_0": Logic.ONE}}, {"constrain_scan_enable": False},
    ])
    def test_each_setup_field_a_view_reads_keys_it(self, change):
        prepared = prepare_from_spec("tiny")
        base = scenarios.get_scenario("table1-d").build_setup(prepared, OPTIONS)
        variant = replace(base, **change)
        procedure = base.procedures[-1]
        for setup in (base, variant):
            view, _ = ProcedureEngines(prepared.model, prepared.domain_map, setup)(procedure)
            fresh = build_timeframe_view(prepared.model, prepared.domain_map, procedure, setup)
            assert view_fields(view) == view_fields(fresh)
        assert len(atpg_artefacts(prepared.model).views) == 2

    def test_the_clock_domain_of_each_flop_keys_a_view(self):
        prepared = prepare_from_spec("tiny")
        setup = scenarios.get_scenario("table1-d").build_setup(prepared, OPTIONS)
        nets = {"fast": "clk_slow", "slow": "clk_fast"}
        swapped = ClockDomainMap.from_netlist(prepared.netlist, [
            replace(domain, clock_net=nets.get(domain.name, domain.clock_net))
            for domain in prepared.soc.domains
        ])
        procedure = setup.procedures[0]
        for domain_map in (prepared.domain_map, swapped):
            view, _ = ProcedureEngines(prepared.model, domain_map, setup)(procedure)
            fresh = build_timeframe_view(prepared.model, domain_map, procedure, setup)
            assert view_fields(view) == view_fields(fresh)
        assert len(atpg_artefacts(prepared.model).views) == 2

    def test_threads_on_one_model_match_the_serial_runs(self, cold_runs):
        """More threads than cores, each in its own scenario order, share one
        model's artefacts under a short switch interval."""
        prepared = prepare_from_spec("tiny")
        orders = [SCENARIOS, SCENARIOS[::-1], SCENARIOS[3:] + SCENARIOS[:3]]
        results: list[dict] = [{} for _ in orders]
        failures: list[BaseException] = []
        barrier = threading.Barrier(len(orders))

        def work(slot: int) -> None:
            try:
                barrier.wait()
                for name in orders[slot]:
                    results[slot][name] = run_on(prepared, name)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(orders))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert all(result == cold_runs for result in results)


class TestRunOwnership:
    def test_each_run_owns_its_fault_list_and_engines(self):
        prepared = prepare_from_spec("tiny")
        setup = scenarios.get_scenario("table1-a").build_setup(prepared, OPTIONS)
        first = StuckAtAtpg(prepared.model, prepared.domain_map, setup)
        second = StuckAtAtpg(prepared.model, prepared.domain_map, setup)
        template = collapsed_universe(prepared.model, "stuck-at")
        assert first.fault_list is not second.fault_list
        assert first.fault_list._faults is second.fault_list._faults is template._faults
        assert first.fault_list._index is template._index
        for arrays in ("_status", "_detected_by", "_sizes"):
            owned = {id(getattr(flist, arrays)) for flist in (first.fault_list,
                                                               second.fault_list, template)}
            assert len(owned) == 3, arrays
        procedure = setup.procedures[0]
        view_a, engine_a = first.engines(procedure)
        view_b, engine_b = second.engines(procedure)
        assert view_a is view_b and engine_a.tables is engine_b.tables
        assert engine_a is not engine_b
        first.run()
        assert template.coverage().undetected == len(template)
        untouched = second.fault_list.coverage()
        assert untouched.undetected == len(second.fault_list)  # not written by the run

    def test_target_memoises_the_verdict_without_a_second_search(self, monkeypatch):
        prepared = prepare_from_spec("tiny")
        setup = scenarios.get_scenario("table1-a").build_setup(prepared, OPTIONS)
        atpg = StuckAtAtpg(prepared.model, prepared.domain_map, setup)
        view, engine = atpg.engines(setup.procedures[0])
        fault = view.expanded_stuck_at(next(iter(atpg.fault_list)))
        searches = []
        original = PodemEngine.run
        monkeypatch.setattr(
            PodemEngine, "run", lambda self, *a: searches.append(a) or original(self, *a)
        )
        first = engine.target(fault)
        again = PodemEngine.over(engine.tables).target(fault)
        assert again is first and len(searches) == 1

    def test_a_pickled_model_carries_no_artefacts(self):
        prepared = prepare_from_spec("tiny")
        run_on(prepared, "table1-a")
        assert "_atpg_artefacts" in prepared.model.__dict__
        clone = pickle.loads(pickle.dumps(prepared))
        assert "_atpg_artefacts" not in clone.model.__dict__


class TestDesignMemos:
    def test_processes_campaign_on_a_warm_model_matches_serial(self):
        prepared = prepare_from_spec("tiny")
        run_on(prepared, "table1-a")
        serial = Campaign([prepared], ["a", "b"], options=OPTIONS).run()
        pooled = Campaign([prepared], ["a", "b"], options=OPTIONS).run(
            executor=Executor(backend="processes", max_workers=2)
        )
        assert pooled.same_results(serial)

    def test_a_campaign_reuses_its_design_across_runs(self, monkeypatch):
        builds = count_builds(monkeypatch)
        campaign = Campaign(["tiny"], ["a"], options=OPTIONS)
        campaign.run()
        second = campaign.with_options(replace(OPTIONS, random_seed=9)).run()
        assert len(builds) == 1
        assert second.same_results(
            Campaign(["tiny"], ["a"], options=replace(OPTIONS, random_seed=9)).run()
        )

    def test_server_builds_a_design_once_per_identity(self, tmp_path):
        spec = DesignSpec(name="memo-probe", size=1, seed=3, num_chains=2)
        register_design(spec, replace_existing=True)
        server = ServeServer(tmp_path / "root", poll_seconds=0.02, telemetry=True)
        server.start()
        try:
            client = ServeClient(server.address)

            def write(seed: int):
                options = replace(OPTIONS, random_seed=seed)
                campaign = Campaign(["memo-probe"], ["a"], options=options)
                served = campaign.submit(client, tenant="memo").report(timeout=120)
                local = Campaign(["memo-probe"], ["a"], options=options).run()
                assert served.same_results(local)
                assert served.cache_hits() == 0
                return len(server.telemetry.trace().find("design:model"))

            assert write(1) == 1
            assert write(2) == 1  # one design identity, one build
            register_design(replace(spec, seed=4), replace_existing=True)
            assert write(3) == 2  # same name, another design
        finally:
            server.stop()
            unregister_design("memo-probe")


def view_fields(view) -> tuple:
    return (view.frame_map, view.controllable, view.fixed, view.observation,
            view.scan_state_node, view.pi_nodes, view.observed_flops)


def count_builds(monkeypatch) -> list:
    """Record every design the plan runtime builds."""
    import repro.api.pipeline as pipeline

    builds: list = []
    original = pipeline.prepare_from_spec

    def counted(spec, *args, **kwargs):
        builds.append(spec)
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(pipeline, "prepare_from_spec", counted)
    return builds
