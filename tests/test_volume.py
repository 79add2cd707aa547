"""Volume mode end to end: fail-log stores, the compiled volume plan,
kill/resume from the result cache, serve submission, adaptive ATPG, and
the session/campaign front doors.
"""

from __future__ import annotations

import itertools
import json
import sqlite3
import time

import pytest

from repro.api import Campaign, TestSession
from repro.api.scenarios import table1_scenario
from repro.atpg import AtpgOptions
from repro.diagnose import (
    PO_CHAIN,
    DefectSpec,
    DiagnosisSpec,
    FailBit,
    FailLog,
    capture_fail_log,
    parse_fail_log,
)
from repro.engine.cache import ResultCache
from repro.faults.fault_list import FaultStatus
from repro.obs import Telemetry
from repro.runtime import Executor, PlanCancelled
from repro.serve import ServeClient, ServeServer, ServeWorker
from repro.volume import (
    BpDiagnosisReport,
    BpDiagnosisResult,
    FailLogRecord,
    FailLogStore,
    VolumeSpec,
    adaptive_diagnose,
    execute_volume_plan,
)

ULTRA = AtpgOptions(
    random_pattern_batches=1, patterns_per_batch=16, backtrack_limit=8,
    max_patterns=24,
)

_ENV: list = []


def tiny_env():
    """One executed tiny/table1-a cell, cached for the module."""
    if not _ENV:
        session = TestSession.for_design("tiny", options=ULTRA)
        spec = table1_scenario("a")
        session.run_scenario(spec)
        run = session.artifacts[spec.name]
        setup = spec.build_setup(session.prepared, ULTRA)
        _ENV.append((session, spec, run, setup))
    return _ENV[0]


_DEFECTS: list[DefectSpec] = []


def visible_defects(count: int) -> list[DefectSpec]:
    """``count`` stuck-at defects on *distinct nets* tiny/a provably exposes.

    Distinct nets keep the seeded multi-defect scenarios meaningful: two
    pins of one gate can union into a syndrome a single gate-output
    candidate explains whole, which is a masking study, not a recovery one.
    """
    session, spec, run, setup = tiny_env()
    while len(_DEFECTS) < count:
        prepared = session.prepared
        detected = session.result_of(spec.name).fault_list.with_status(
            FaultStatus.DETECTED
        )
        start = len(detected) // 2
        for fault in detected[start:] + detected[:start]:
            defect = DefectSpec.from_fault(prepared.model, fault)
            if any(defect.net == seen.net for seen in _DEFECTS):
                continue
            log = capture_fail_log(
                prepared.model, prepared.domain_map, prepared.scan, setup,
                run.patterns, defect,
            )
            if log.num_fails:
                _DEFECTS.append(defect)
            if len(_DEFECTS) >= count:
                break
        else:
            raise AssertionError(f"fewer than {count} visible defects on tiny/a")
    return _DEFECTS[:count]


def make_log(defects: list[DefectSpec]) -> FailLog:
    """One multi-defect capture, stamped with the registry design name."""
    session, spec, run, setup = tiny_env()
    prepared = session.prepared
    return capture_fail_log(
        prepared.model, prepared.domain_map, prepared.scan, setup,
        run.patterns, defects, design_name="tiny",
    )


def small_store(tmp_path, suffix="logs.sqlite") -> FailLogStore:
    """Three distinct two-defect logs under the campaign scenario label."""
    _, spec, _, _ = tiny_env()
    defects = visible_defects(3)
    store = FailLogStore(tmp_path / suffix)
    for index, pair in enumerate(itertools.combinations(defects, 2)):
        store.add(f"die-{index}", make_log(list(pair)), scenario=spec.name)
    return store


# --------------------------------------------------------------------------
# FailLogStore
# --------------------------------------------------------------------------
def synthetic_log(name_suffix: str, design: str = "tiny") -> FailLog:
    return FailLog(
        design=design,
        pattern_count=4,
        fails=[FailBit(0, "chain0", 1, f"u{name_suffix}.q", "0", "1")],
    )


@pytest.mark.parametrize("suffix", ["store.sqlite"])
class TestFailLogStore:
    def test_round_trip_and_order(self, tmp_path, suffix):
        store = FailLogStore(tmp_path / suffix)
        for i in range(5):
            store.add(f"die-{i}", synthetic_log(str(i)), scenario="table1-a")
        assert len(store) == 5
        assert store.names() == [f"die-{i}" for i in range(5)]
        record = store.get("die-3")
        assert record.design == "tiny"
        assert record.scenario == "table1-a"
        assert record.log == synthetic_log("3")
        assert [r.name for r in store] == store.names()
        # A reopened store sees the same records.
        again = FailLogStore(tmp_path / suffix)
        assert again.names() == store.names()

    def test_duplicate_and_empty_names_raise(self, tmp_path, suffix):
        store = FailLogStore(tmp_path / suffix)
        store.add("die-0", synthetic_log("0"))
        with pytest.raises(ValueError, match="already stored"):
            store.add("die-0", synthetic_log("1"))
        with pytest.raises(ValueError, match="non-empty name"):
            store.add("", synthetic_log("2"))
        with pytest.raises(KeyError):
            store.get("missing")

    def test_add_many_keeps_insertion_order(self, tmp_path, suffix):
        store = FailLogStore(tmp_path / suffix)
        store.add("die-9", synthetic_log("9"))
        names = ["die-3", "die-0", "die-7"]
        added = store.add_many(
            ((name, synthetic_log(name)) for name in names), scenario="s"
        )
        assert added == 3
        assert store.names() == ["die-9", *names]
        assert [r.scenario for r in store.records()] == ["", "s", "s", "s"]
        assert store.get("die-7").log == synthetic_log("die-7")

    @pytest.mark.parametrize("clash", ["stored", "in batch", "empty"])
    def test_add_many_duplicate_stores_nothing(self, tmp_path, suffix, clash):
        store = FailLogStore(tmp_path / suffix)
        store.add("die-0", synthetic_log("0"))
        batch = {
            "stored": ["die-1", "die-0", "die-2"],
            "in batch": ["die-1", "die-2", "die-1"],
            "empty": ["die-1", ""],
        }[clash]
        expected = {
            "stored": "'die-0' already stored",
            "in batch": "'die-1' already stored",
            "empty": "non-empty name",
        }[clash]
        with pytest.raises(ValueError, match=expected):
            store.add_many((name, synthetic_log(name)) for name in batch)
        assert store.names() == ["die-0"]

    def test_filters(self, tmp_path, suffix):
        store = FailLogStore(tmp_path / suffix)
        store.add("t-0", synthetic_log("0", design="tiny"), scenario="a")
        store.add("w-0", synthetic_log("1", design="wide-edt"), scenario="a")
        store.add("t-1", synthetic_log("2", design="tiny"), scenario="b")
        assert [r.name for r in store.records(design="tiny")] == ["t-0", "t-1"]
        assert [r.name for r in store.records(scenario="a")] == ["t-0", "w-0"]
        assert [r.name for r in store.records(design="tiny", scenario="b")] == ["t-1"]

    def test_export_import_crosses_backends(self, tmp_path, suffix):
        store = FailLogStore(tmp_path / suffix)
        for i in range(3):
            store.add(f"die-{i}", synthetic_log(str(i)), scenario="s")
        dump = tmp_path / "dump.jsonl"
        assert store.export_jsonl(dump) == 3
        other = FailLogStore(tmp_path / "other.db")
        assert other.import_jsonl(dump) == 3
        assert [r.to_dict() for r in other] == [r.to_dict() for r in store]


def tracked_connections(monkeypatch, *stores) -> list:
    """Every connection the stores' ``_connect`` opens from now on."""
    opened = []
    for store in stores:
        connect = store._connect
        monkeypatch.setattr(
            store, "_connect", lambda connect=connect: opened.append(connect()) or opened[-1]
        )
    return opened


def is_closed(connection) -> bool:
    try:
        connection.execute("SELECT 1")
    except sqlite3.ProgrammingError:
        return True
    return False


def test_fail_log_store_closes_every_connection(tmp_path, monkeypatch):
    """``with connection:`` only commits; every call must also close."""
    store = FailLogStore(tmp_path / "store.sqlite")
    other = FailLogStore(tmp_path / "other.sqlite")
    opened = tracked_connections(monkeypatch, store, other)
    store.add("die-0", synthetic_log("0"))
    with pytest.raises(ValueError, match="already stored"):
        store.add("die-0", synthetic_log("1"))
    store.add_many([("die-1", synthetic_log("1"))])
    assert len(store) == 2
    assert [record.name for record in store.records()] == ["die-0", "die-1"]
    assert store.names() == ["die-0", "die-1"]
    assert store.get("die-1").log == synthetic_log("1")
    store.export_jsonl(tmp_path / "dump.jsonl")
    assert other.import_jsonl(tmp_path / "dump.jsonl") == 2
    assert len(opened) == 10
    assert all(is_closed(connection) for connection in opened)


def test_jsonl_path_is_refused(tmp_path):
    with pytest.raises(ValueError, match=r"import_jsonl\(\)"):
        FailLogStore(tmp_path / "store.jsonl")
    assert not (tmp_path / "store.jsonl").exists()


class TestJsonlStoreAdd:
    """`add` on a store path that several instances share."""

    def test_duplicate_appended_by_another_instance_is_rejected(self, tmp_path):
        first = FailLogStore(tmp_path / "shared.sqlite")
        second = FailLogStore(tmp_path / "shared.sqlite")
        first.add("die-0", synthetic_log("0"))
        second.add("die-1", synthetic_log("1"))
        with pytest.raises(ValueError, match="already stored"):
            second.add("die-0", synthetic_log("2"))
        with pytest.raises(ValueError, match="already stored"):
            first.add("die-1", synthetic_log("3"))
        assert FailLogStore(tmp_path / "shared.sqlite").names() == ["die-0", "die-1"]

    def test_add_decodes_no_stored_record(self, tmp_path, monkeypatch):
        store = FailLogStore(tmp_path / "store.sqlite")
        decoded = []
        from_dict = FailLogRecord.from_dict.__func__
        monkeypatch.setattr(
            FailLogRecord, "from_dict",
            classmethod(lambda cls, data: decoded.append(data) or from_dict(cls, data)),
        )
        for i in range(20):
            store.add(f"die-{i}", synthetic_log(str(i)))
        assert decoded == []
        assert len(store) == 20


# --------------------------------------------------------------------------
# VolumeSpec
# --------------------------------------------------------------------------
class TestVolumeSpec:
    def test_json_round_trip(self):
        spec = VolumeSpec(
            scenario="table1-a", candidate_kinds=("stuck-at",),
            max_sites=64, backend="compiled",
        )
        assert VolumeSpec.from_json(spec.to_json()) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            VolumeSpec(scenario="")
        with pytest.raises(ValueError):
            VolumeSpec(scenario="a", candidate_kinds=("bogus",))
        with pytest.raises(ValueError):
            VolumeSpec(scenario="a", batch_size=0)
        with pytest.raises(ValueError):
            VolumeSpec(scenario="a", backend="gpu")

    def test_lowering_and_overrides(self):
        spec = VolumeSpec(scenario="table1-a", max_sites=9)
        lowered = spec.diagnosis_spec()
        assert lowered.scenario == "table1-a"
        assert lowered.defect is None
        assert lowered.max_sites == 9
        assert spec.diagnosis_spec("table1-c").scenario == "table1-c"
        assert spec.with_overrides(batch_size=32).batch_size == 32
        # Mapping-shaped BP knobs (e.g. straight from JSON) are coerced.
        coerced = VolumeSpec(scenario="a", bp={"iterations": 5})
        assert coerced.bp.iterations == 5


# --------------------------------------------------------------------------
# Campaign front door
# --------------------------------------------------------------------------
class TestCampaignVolume:
    def test_diagnose_volume_streams_and_is_backend_invariant(self, tmp_path):
        store = small_store(tmp_path)
        campaign = Campaign(designs=["tiny"], scenarios=["a"], options=ULTRA)
        streamed = []
        report = campaign.diagnose_volume(store, on_cell=streamed.append)
        assert campaign.volume_report is report
        assert len(report) == len(streamed) == 3
        assert [cell.log for cell in report] == ["die-0", "die-1", "die-2"]
        for cell in report:
            assert cell.recovered_all, cell.log
            assert cell.converged
            assert len(cell.defects) == 2
        assert "recovered all defects: 3/3" in report.summary()
        pooled = Campaign(
            designs=["tiny"], scenarios=["a"], options=ULTRA
        ).diagnose_volume(store, executor=Executor(backend="processes", max_workers=2))
        assert pooled.same_results(report)

    def test_report_json_round_trip(self, tmp_path):
        store = small_store(tmp_path)
        campaign = Campaign(designs=["tiny"], scenarios=["a"], options=ULTRA)
        report = campaign.diagnose_volume(store)
        restored = BpDiagnosisReport.from_json(report.to_json())
        assert restored.same_results(report)
        assert restored.cell("die-1").defects == report.cell("die-1").defects

    def test_resume_from_cache_with_fresh_campaign(self, tmp_path):
        store = small_store(tmp_path)
        cold = (
            Campaign(designs=["tiny"], scenarios=["a"], options=ULTRA)
            .with_cache(tmp_path / "cache")
            .diagnose_volume(store)
        )
        assert cold.cache_hits() == 0
        warm = (
            Campaign(designs=["tiny"], scenarios=["a"], options=ULTRA)
            .with_cache(tmp_path / "cache")
            .diagnose_volume(store)
        )
        assert warm.cache_hits() == 3
        assert warm.same_results(cold)

    def test_telemetry_counters(self, tmp_path):
        store = small_store(tmp_path)
        telemetry = Telemetry.on()
        campaign = Campaign(
            designs=["tiny"], scenarios=["a"], options=ULTRA
        ).with_telemetry(telemetry)
        report = campaign.diagnose_volume(store)
        counters = report.campaign["telemetry"]["metrics"]["counters"]
        assert counters["volume.bp_iterations"] >= 1
        assert counters["volume.converged"] >= 1
        assert "volume.ambiguous_pairs" in counters

    def test_second_run_reuses_the_campaign_syndrome_dictionary(
        self, tmp_path, monkeypatch
    ):
        """volume_plan binds the campaign's memos: a second run on one
        campaign (cache off) simulates no fault again, and a campaign whose
        options change its patterns shares no dictionary with the first."""
        from repro.engine.scheduler import FaultSimScheduler

        entries: list[int] = []
        syndrome_batch = FaultSimScheduler.syndrome_batch

        def counting(self, final, faults, observation, launch=None):
            entries.append(len(faults))
            return syndrome_batch(self, final, faults, observation, launch=launch)

        monkeypatch.setattr(FaultSimScheduler, "syndrome_batch", counting)
        store = small_store(tmp_path)
        campaign = Campaign(designs=["tiny"], scenarios=["a"], options=ULTRA)
        first = campaign.diagnose_volume(store)
        assert sum(entries) > 0
        entries.clear()
        second = campaign.diagnose_volume(store)
        assert sum(entries) == 0
        assert second.same_results(first)
        assert second.to_json().count('"cache_hit": false') == len(second)

        keys = set(campaign._syndromes)
        campaign.with_options(random_seed=ULTRA.random_seed + 1)
        assert not campaign._syndromes
        entries.clear()
        campaign.diagnose_volume(store)
        assert sum(entries) > 0
        assert campaign._syndromes and not keys & set(campaign._syndromes)

    def test_store_without_campaign_designs_raises(self, tmp_path):
        store = FailLogStore(tmp_path / "foreign.sqlite")
        store.add("x-0", synthetic_log("0", design="not-in-campaign"))
        campaign = Campaign(designs=["tiny"], scenarios=["a"], options=ULTRA)
        with pytest.raises(ValueError, match="no records"):
            campaign.volume_plan(store)


# --------------------------------------------------------------------------
# Volume plan keys and the per-design memos
# --------------------------------------------------------------------------
def _stable_fingerprint(fail_log: FailLog) -> str:
    """The fail-log fingerprint through the generic ``_stable`` lowering."""
    from repro.engine.cache import _digest, _stable

    return _digest("faillog|" + json.dumps(_stable(fail_log.to_dict()), sort_keys=True))


class TestVolumePlanKeys:
    def test_fail_log_fingerprint_matches_the_stable_lowering(self):
        from repro.engine.cache import fail_log_fingerprint

        logs = {
            "empty": FailLog(design="tiny", pattern_count=3),
            "po": FailLog(design="tiny", pattern_count=4, fails=[
                FailBit(0, PO_CHAIN, 0, "out0", "0", "1"),
                FailBit(3, PO_CHAIN, 0, "out1", "1", "0"),
            ]),
            "scan": synthetic_log("7"),
            "two-defect": make_log(visible_defects(2)),
        }
        logs["two-defect, re-parsed"] = parse_fail_log(logs["two-defect"].to_text())
        chains = {bit.chain for bit in logs["two-defect"].fails}
        assert len(logs["two-defect"].defects) == 2 and chains - {PO_CHAIN}
        digests = set()
        for name, log in logs.items():
            assert fail_log_fingerprint(log) == _stable_fingerprint(log), name
            digests.add(fail_log_fingerprint(log))
        assert len(digests) == len(logs) - 1  # the re-parsed log is the same content

    def test_every_job_key_matches_the_per_log_formula(self, tmp_path):
        """Fingerprinting the scenario once per row keeps every job's cache
        key byte-identical to the formula evaluated per log."""
        from repro.engine.cache import (
            ENGINE_VERSION,
            _digest,
            design_identity,
            spec_fingerprint,
        )
        from repro.volume import volume_plan

        session, spec, _, _ = tiny_env()
        store = small_store(tmp_path)
        store.add("die-po", FailLog(design="tiny", pattern_count=4, fails=[
            FailBit(1, PO_CHAIN, 0, session.prepared.model.po_nodes[0][0], "0", "1"),
        ]), scenario=spec.name)
        plan = volume_plan(
            store, {"tiny": session.prepared}, {spec.name: spec},
            VolumeSpec(scenario=spec.name), options=ULTRA,
        )
        jobs = [job for job in plan.jobs if job.kind == "bp-diagnosis"]
        assert len(jobs) == len(store) == 4
        design_fp = design_identity(session.prepared)
        for job in jobs:
            inputs = {"spec": job.params["spec"], "bp": job.params["bp"]}
            log = plan.resources["fail_logs"][job.params["log"]]
            want = _digest(
                f"diagnosis|engine={ENGINE_VERSION}|design={design_fp}|"
                f"scenario={spec_fingerprint(spec, ULTRA)}|"
                f"spec={spec_fingerprint(inputs)}|log={_stable_fingerprint(log)}"
            )
            assert job.cache_key == want, job.id
        assert len({job.cache_key for job in jobs}) == len(jobs)

    def test_processes_run_ships_a_model_with_a_warm_universe(self, tmp_path):
        """The shipped design's model already holds a candidate universe
        (and compiled kernels) from a serial run; pickling drops both, so
        the processes run neither fails to ship nor falls back, and its
        report equals the serial one."""
        import pickle

        from repro.volume import volume_plan

        session, spec, _, _ = tiny_env()
        store = small_store(tmp_path)

        def plan():
            return volume_plan(
                store, {"tiny": session.prepared}, {spec.name: spec},
                VolumeSpec(scenario=spec.name), options=ULTRA,
            )

        serial = execute_volume_plan(plan())
        model = session.prepared.model
        assert "_candidate_universe" in model.__dict__
        shipped = pickle.loads(pickle.dumps(session.prepared))
        assert "_candidate_universe" not in shipped.model.__dict__
        assert "_engine_compiled" not in shipped.model.__dict__
        pooled = execute_volume_plan(
            plan(), executor=Executor(backend="processes", max_workers=2)
        )
        assert not pooled.degraded, pooled.backend_fallbacks
        assert pooled.same_results(serial)
        assert len(pooled) == len(store)


# --------------------------------------------------------------------------
# Kill / resume on a >=100-log store (the acceptance bar)
# --------------------------------------------------------------------------
class TestVolumeKillResume:
    def big_store(self, tmp_path, count: int = 100) -> FailLogStore:
        """``count`` distinct logs: variants of one two-defect capture with
        differing fail-bit subsets removed (distinct content fingerprints)."""
        _, spec, _, _ = tiny_env()
        base = make_log(visible_defects(2))
        assert base.num_fails >= 3
        store = FailLogStore(tmp_path / "volume.sqlite")
        store.add("die-base", base, scenario=spec.name)
        added = 1
        for drop in itertools.chain(
            itertools.combinations(range(base.num_fails), 1),
            itertools.combinations(range(base.num_fails), 2),
            itertools.combinations(range(base.num_fails), 3),
        ):
            if added >= count:
                break
            fails = [
                bit for index, bit in enumerate(base.fails) if index not in drop
            ]
            variant = FailLog(
                design=base.design, pattern_count=base.pattern_count,
                fails=fails, defects=base.defects,
            )
            store.add(f"die-{added}", variant, scenario=spec.name)
            added += 1
        assert len(store) >= count
        return store

    def test_kill_then_resume_reruns_nothing(self, tmp_path):
        store = self.big_store(tmp_path)
        campaign = Campaign(designs=["tiny"], scenarios=["a"], options=ULTRA)
        plan = campaign.volume_plan(store)
        bp_ids = {job.id for job in plan.jobs if job.kind == "bp-diagnosis"}
        assert len(bp_ids) >= 100

        cache = ResultCache(tmp_path / "cache")
        executor = Executor(cache=cache)
        finished: list[str] = []

        def killer(event) -> None:
            if event.kind == "job_finished" and event.job in bp_ids:
                finished.append(event.job)
                if len(finished) == 10:
                    executor.cancel()

        with pytest.raises(PlanCancelled, match="'volume-diagnosis' cancelled before"):
            execute_volume_plan(plan, executor=executor, on_event=killer)
        assert executor.cancelled
        assert len(finished) >= 10

        # Fresh executor, same cache: every previously landed log must be
        # served from the cache — zero re-runs of completed work.
        resumed_exec = Executor(cache=cache)
        report = execute_volume_plan(plan, executor=resumed_exec)
        assert len(report) == len(bp_ids)
        result = resumed_exec.execute(plan, cache=cache)
        del result  # third pass below is the assertion surface

        # And a third pass over the now fully cached store executes nothing.
        third_exec = Executor(cache=cache)
        events: list = []
        third = execute_volume_plan(
            plan, executor=third_exec, cache=cache,
            on_event=events.append,
        )
        executed = [e.job for e in events if e.kind == "job_finished"]
        assert executed == []
        assert all(cell.cache_hit for cell in third)
        assert third.same_results(report)


# --------------------------------------------------------------------------
# Serve submission (byte-identity with the local backends)
# --------------------------------------------------------------------------
class TestVolumeServe:
    def test_submitted_volume_report_matches_local_run(self, tmp_path):
        store = small_store(tmp_path)
        campaign = Campaign(designs=["tiny"], scenarios=["a"], options=ULTRA)
        reference = campaign.diagnose_volume(store)

        server = ServeServer(tmp_path / "root", poll_seconds=0.02)
        server.start()
        workers = [
            ServeWorker(server_address=server.address, register_seconds=0.2).start()
            for _ in range(2)
        ]
        try:
            client = ServeClient(server.address)
            deadline = time.time() + 10
            while time.time() < deadline and len(client.workers()) < 2:
                time.sleep(0.05)
            assert len(client.workers()) == 2

            handle = campaign.submit_volume(client, store, tenant="volume")
            cells = []
            report = handle.report(timeout=600, on_cell=cells.append)

            assert report.same_results(reference)
            assert len(cells) == 3  # streamed while the server executed
            assert report.campaign["backend"] == "serve"
            # The per-cell verdicts line up row for row with the local run.
            for cell, ref in zip(report, reference):
                assert cell.deterministic_dict() == ref.deterministic_dict()
        finally:
            for worker in workers:
                worker.stop()
            server.stop()


# --------------------------------------------------------------------------
# Adaptive diagnostic ATPG
# --------------------------------------------------------------------------
class TestAdaptive:
    def _pool(self, count: int) -> list[DefectSpec]:
        """Visible defects *including same-net specs* — resolvable ambiguity
        typically sits between related-but-distinguishable hypotheses (two
        input pins of one gate), which the distinct-net pool excludes."""
        session, spec, run, setup = tiny_env()
        prepared = session.prepared
        detected = session.result_of(spec.name).fault_list.with_status(
            FaultStatus.DETECTED
        )
        start = len(detected) // 2
        pool: list[DefectSpec] = []
        for fault in detected[start:] + detected[:start]:
            defect = DefectSpec.from_fault(prepared.model, fault)
            if any(defect == seen for seen in pool):
                continue
            log = capture_fail_log(
                prepared.model, prepared.domain_map, prepared.scan, setup,
                run.patterns, defect,
            )
            if log.num_fails:
                pool.append(defect)
            if len(pool) >= count:
                return pool
        raise AssertionError(f"fewer than {count} visible defects on tiny/a")

    def test_adaptive_reduces_ambiguous_pairs(self):
        """The seeded scenario the acceptance bar names: at least one
        two-defect injection leaves BP with ambiguous pairs that one round
        of distinguishing patterns then separates.

        Not every pair qualifies — ambiguity between *structural
        equivalents* (identical syndromes under every possible pattern)
        is unresolvable by construction and the generator correctly
        returns no pattern for it — so the seed searches defect pairs
        until one with resolvable ambiguity appears.
        """
        session, spec, run, setup = tiny_env()
        improved = None
        for d1, d2 in itertools.combinations(self._pool(6), 2):
            outcome = adaptive_diagnose(
                session.prepared, setup, run.patterns,
                DiagnosisSpec(scenario=spec.name, backend="compiled"),
                defects=[d1, d2], options=ULTRA,
                max_rounds=4, pairs_per_round=3,
            )
            assert outcome.history[0] == outcome.initial_ambiguous
            assert outcome.history[-1] == outcome.final_ambiguous
            if outcome.improved:
                improved = outcome
                break
        assert improved is not None, "no defect pair with resolvable ambiguity"
        assert improved.initial_ambiguous > 0
        assert improved.final_ambiguous < improved.initial_ambiguous
        assert improved.patterns_added >= 1
        assert improved.rounds >= 1
        assert improved.result.recovered_all_defects()
        assert "adaptive ATPG:" in improved.summary()

    def test_validation(self):
        session, spec, run, setup = tiny_env()
        with pytest.raises(ValueError):
            adaptive_diagnose(
                session.prepared, setup, run.patterns,
                DiagnosisSpec(scenario=spec.name), max_rounds=-1,
            )
        with pytest.raises(ValueError):
            adaptive_diagnose(
                session.prepared, setup, run.patterns,
                DiagnosisSpec(scenario=spec.name), pairs_per_round=0,
            )

    def test_open_loop_log_runs_zero_rounds(self):
        """Without injected defects there is no device to re-capture: the
        loop must degrade to a single plain BP pass."""
        session, spec, run, setup = tiny_env()
        log = make_log(visible_defects(2))
        open_log = FailLog(
            design=log.design, pattern_count=log.pattern_count, fails=log.fails
        )
        outcome = adaptive_diagnose(
            session.prepared, setup, run.patterns,
            DiagnosisSpec(scenario=spec.name, backend="compiled"),
            fail_log=open_log, options=ULTRA,
        )
        assert outcome.rounds == 0
        assert outcome.patterns_added == 0
        assert outcome.final_ambiguous == outcome.initial_ambiguous


# --------------------------------------------------------------------------
# Session front door
# --------------------------------------------------------------------------
class TestSessionBpDiagnose:
    def test_bp_flag_returns_bp_result(self):
        session, spec, run, setup = tiny_env()
        (defect,) = visible_defects(1)
        result = session.diagnose(defect, scenario="a", bp=True)
        assert isinstance(result, BpDiagnosisResult)
        assert result.rank_of_defect == 1
        assert result.converged

    def test_defect_list_implies_bp(self):
        session, spec, run, setup = tiny_env()
        d1, d2 = visible_defects(2)
        result = session.diagnose([d1, d2], scenario="a")
        assert isinstance(result, BpDiagnosisResult)
        assert result.defects == [d1, d2]
        assert result.recovered_all_defects()

    def test_defect_list_conflicts_rejected(self):
        session, spec, run, setup = tiny_env()
        d1, d2 = visible_defects(2)
        with pytest.raises(ValueError, match="not both"):
            session.diagnose([d1], scenario="a", defects=[d2])
        with pytest.raises(ValueError, match="empty"):
            session.diagnose([], scenario="a")

    def test_bp_diagnosis_keeps_its_pattern_run(self):
        """The BP path records the provider's run like the classical one: a
        second diagnosis is seeded from the artifact instead of re-running
        ATPG, and ``result_of`` works afterwards."""
        (defect,) = visible_defects(1)
        session = TestSession.for_design("tiny", options=ULTRA)
        first = session.diagnose(defect, scenario="a", bp=True)
        assert sorted(session.artifacts) == ["table1-a"]
        kept = session.artifacts["table1-a"]
        assert session.result_of("table1-a").pattern_count == len(kept.patterns)

        events: list = []
        second = session.diagnose(
            defect, scenario="a", bp=True, on_event=events.append
        )
        provider = session.diagnosis_plan(defect, scenario="a").jobs[0].id
        assert [e.reason for e in events if e.job == provider] == ["seed"]
        assert not any(e.kind == "job_started" and e.job == provider for e in events)
        assert session.artifacts["table1-a"] is kept
        assert second.same_ranking(first)

    def test_bp_results_cache_across_sessions(self, tmp_path):
        (defect,) = visible_defects(1)
        cold = (
            TestSession.for_design("tiny", options=ULTRA)
            .with_cache(tmp_path / "cache")
            .diagnose(defect, scenario="a", bp=True)
        )
        assert not cold.cache_hit
        warm = (
            TestSession.for_design("tiny", options=ULTRA)
            .with_cache(tmp_path / "cache")
            .diagnose(defect, scenario="a", bp=True)
        )
        assert warm.cache_hit
        assert warm.same_ranking(cold)


def test_volume_records_compile_without_a_store(tmp_path):
    """volume_plan accepts any record iterable, not just FailLogStore."""
    _, spec, _, _ = tiny_env()
    records = [
        FailLogRecord(
            name="inline-0", design="tiny", scenario=spec.name,
            log=make_log(visible_defects(2)),
        )
    ]
    campaign = Campaign(designs=["tiny"], scenarios=["a"], options=ULTRA)
    report = campaign.diagnose_volume(records)
    assert len(report) == 1
    assert report.cell("inline-0").recovered_all
