"""Unit tests for the engine: kernel compiler, scheduler plumbing, cache."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.api import ScenarioSpec, TestSession
from repro.api.scenarios import table1_scenario
from repro.atpg import AtpgOptions
from repro.atpg.random_fill import derive_rng
from repro.circuits import random_combinational, random_sequential
from repro.diagnose import DefectSpec, DiagnosisSpec, FailBit, FailLog
from repro.engine import (
    BACKENDS,
    ENGINE_VERSION,
    FaultSimScheduler,
    ResultCache,
    campaign_cell_key,
    compile_circuit,
    design_fingerprint,
    diagnosis_key,
    fail_log_fingerprint,
    spec_fingerprint,
)
from repro.engine.cache import _digest
from repro.faults import all_stuck_at_faults, collapse_faults
from repro.fault_sim.stuck_at import propagate_fault_packed
from repro.logic import Logic
from repro.runtime import Executor
from repro.simulation import build_model
from repro.simulation.parallel_sim import pack_patterns, simulate_packed
from repro.volume.bp import BpOptions


#: The message every engine-backend check raises for an unknown name.
_REJECTED = r"unknown engine backend '{}' \(expected one of \('serial', 'compiled'\)\)"


def _random_assignments(model, rng, num_patterns=48):
    """Random batches with a 0/1/X mix on every source node."""
    patterns = []
    for _ in range(num_patterns):
        assignment = {}
        for idx in model.pi_nodes + model.ppi_nodes + model.ram_out_nodes:
            roll = rng.random()
            assignment[idx] = (
                Logic.ONE if roll < 0.4 else Logic.ZERO if roll < 0.8 else Logic.X
            )
        patterns.append(assignment)
    return patterns


def _random_packed(model, rng, num_patterns=48):
    return pack_patterns(model, _random_assignments(model, rng, num_patterns))


class TestKernelCompiler:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_compiled_simulation_matches_interpreted(self, seed):
        model = build_model(random_combinational(8, 60, 6, seed=seed))
        compiled = compile_circuit(model)
        assignments = _random_assignments(model, random.Random(seed), num_patterns=64)
        reference = pack_patterns(model, assignments)
        candidate = pack_patterns(model, assignments)
        simulate_packed(model, reference)
        compiled.simulate(candidate)
        assert candidate.can0 == reference.can0
        assert candidate.can1 == reference.can1

    @pytest.mark.parametrize("seed", [3, 11])
    def test_compiled_propagation_matches_interpreted(self, seed):
        model = build_model(random_sequential(6, 8, 70, 4, seed=seed))
        compiled = compile_circuit(model)
        packed = _random_packed(model, random.Random(seed))
        simulate_packed(model, packed)
        observation = model.observation_nodes()
        faults = collapse_faults(model, all_stuck_at_faults(model)).representatives
        for fault in faults:
            expected = propagate_fault_packed(model, packed, fault, observation)
            assert compiled.detect_batch(packed, (fault,), observation)[0] == expected

    def test_compile_is_memoised_per_model(self):
        model = build_model(random_combinational(4, 10, 2, seed=5))
        assert compile_circuit(model) is compile_circuit(model)

    def test_compiled_memo_survives_pickling(self):
        import pickle

        model = build_model(random_combinational(4, 10, 2, seed=5))
        compile_circuit(model)
        clone = pickle.loads(pickle.dumps(model))
        assert "_engine_compiled" not in clone.__dict__
        assert compile_circuit(clone).num_nodes == model.num_nodes


class TestSchedulerPlumbing:
    def test_unknown_backend_rejected(self):
        model = build_model(random_combinational(4, 10, 2, seed=5))
        for backend in ("gpu", "processes"):
            with pytest.raises(ValueError, match=_REJECTED.format(backend)):
                FaultSimScheduler(model, backend=backend)

    def test_scenario_spec_backend_validated(self):
        for backend in ("quantum", "processes"):
            with pytest.raises(ValueError, match=_REJECTED.format(backend)):
                ScenarioSpec(
                    name="bad-backend",
                    description="",
                    procedures=lambda prepared: [],
                    backend=backend,
                )

    def test_session_options_select_engine_backend(self):
        session = TestSession.for_soc(size=1).with_options(sim_backend="serial")
        assert session.options.sim_backend == "serial"
        with pytest.raises(ValueError, match="unknown engine backend"):
            session.with_options(sim_backend="gpu")

    def test_options_validate_engine_knobs_where_they_are_set(self):
        """A bad ``sim_backend`` fails at construction, not in the first
        job; the executor's pool backends are not engine backends."""
        for backend in ("threads", "processes"):
            with pytest.raises(ValueError, match=_REJECTED.format(backend)):
                AtpgOptions(sim_backend=backend)

    def test_run_backend_validated(self):
        session = TestSession.for_soc(size=1).add_scenario("table1-a")
        with pytest.raises(ValueError, match="unknown executor backend"):
            session.run(executor=Executor(backend="fpga"))

    def test_spec_backend_reaches_setup_options(self):
        spec = replace(table1_scenario("a"), backend="serial", rng_seed=99)
        session = TestSession.for_soc(size=1)
        setup = spec.build_setup(session.prepared, session.options)
        assert setup.options.sim_backend == "serial"
        assert setup.options.random_seed == 99
        assert "serial" in BACKENDS


class TestDeriveRng:
    def test_default_stream_is_bit_compatible_with_plain_seeding(self):
        assert derive_rng(2005).random() == random.Random(2005).random()

    def test_named_streams_are_independent_and_deterministic(self):
        a1 = [derive_rng(7, "alpha").random() for _ in range(3)]
        a2 = [derive_rng(7, "alpha").random() for _ in range(3)]
        b = [derive_rng(7, "beta").random() for _ in range(3)]
        assert a1 == a2
        assert a1 != b


class TestFingerprints:
    def test_design_fingerprint_is_content_addressed(self):
        model_a = build_model(random_combinational(6, 30, 3, seed=2))
        model_b = build_model(random_combinational(6, 30, 3, seed=2))
        model_c = build_model(random_combinational(6, 30, 3, seed=3))
        assert design_fingerprint(model_a) == design_fingerprint(model_b)
        assert design_fingerprint(model_a) != design_fingerprint(model_c)

    def test_spec_fingerprint_tracks_spec_and_options(self):
        spec = table1_scenario("a")
        base = spec_fingerprint(spec, AtpgOptions())
        assert base == spec_fingerprint(spec, AtpgOptions())
        assert base != spec_fingerprint(replace(spec, rng_seed=1), AtpgOptions())
        assert base != spec_fingerprint(spec, AtpgOptions(backtrack_limit=99))

    def test_closure_factories_fingerprint_by_captured_values(self):
        def make_procs(count):
            def factory(prepared):
                return count

            return factory

        spec = table1_scenario("a")
        two = replace(spec, procedures=make_procs(2))
        four = replace(spec, procedures=make_procs(4))
        # Same __qualname__, different captured cells: must not collide.
        assert spec_fingerprint(two) != spec_fingerprint(four)
        # And the fingerprint must be stable for equal captures.
        assert spec_fingerprint(two) == spec_fingerprint(
            replace(spec, procedures=make_procs(2))
        )

    @pytest.mark.parametrize("variant", ["spec", "bp", "defects", "fail_log"])
    def test_diagnosis_key_matches_the_generic_lowering(self, variant):
        """``diagnosis_key`` lowers its JSON-safe verdict inputs (built like
        ``lower_diagnoses`` builds them) with one ``json.dumps``; the key
        must equal the one the generic ``spec_fingerprint`` walk gives."""
        defects = [
            DefectSpec(kind="stuck-at", net="scan_en", value=1),
            DefectSpec(kind="transition", net="n7", polarity="slow-to-fall"),
        ]
        spec = DiagnosisSpec(
            scenario="table1-c",
            defect=defects[0] if variant == "defects" else None,
            max_sites=12,
        )
        inputs: dict = {"spec": spec.to_dict()}
        if variant in ("bp", "defects"):
            inputs["bp"] = BpOptions(damping=0.25).to_dict()
        if variant == "defects":
            inputs["defects"] = [defect.to_dict() for defect in defects]
        log_fp = None
        if variant == "fail_log":
            log = FailLog("tiny", 4, [FailBit(1, "chain0", 3, "ff3", "0", "1")])
            log_fp = fail_log_fingerprint(log)
        expected = _digest(
            f"diagnosis|engine={ENGINE_VERSION}|design=design|scenario=scenario|"
            f"spec={spec_fingerprint(inputs)}|log={log_fp}"
        )
        assert diagnosis_key("design", "scenario", inputs, log_fp=log_fp) == expected

    def test_partial_factories_fingerprint_without_addresses(self):
        import functools

        def factory(count, prepared):
            return count

        spec = table1_scenario("a")
        p2 = replace(spec, procedures=functools.partial(factory, 2))
        p2_again = replace(spec, procedures=functools.partial(factory, 2))
        p4 = replace(spec, procedures=functools.partial(factory, 4))
        assert spec_fingerprint(p2) == spec_fingerprint(p2_again)
        assert spec_fingerprint(p2) != spec_fingerprint(p4)

    def test_scenario_key_covers_engine_version(self):
        model = build_model(random_combinational(6, 30, 3, seed=2))
        key = campaign_cell_key(design_fingerprint(model), table1_scenario("a"), AtpgOptions())
        assert len(key) == 64
        assert ENGINE_VERSION  # the key embeds it; bumping it must invalidate


class TestResultCache:
    def test_roundtrip_and_management(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.put("ab" * 32, {"planes": [1, 2, 3]}, label="unit")
        assert cache.contains("ab" * 32)
        assert cache.get("ab" * 32) == {"planes": [1, 2, 3]}
        entries = cache.entries()
        assert len(entries) == 1 and entries[0]["label"] == "unit"
        assert cache.clear() == 1
        assert cache.get("ab" * 32) is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("cd" * 32, [1, 2])
        payload_path = tmp_path / "cd" / ("cd" * 32 + ".pkl")
        payload_path.write_bytes(b"not a pickle")
        assert cache.get("cd" * 32) is None

    def test_unpicklable_payload_is_skipped(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert not cache.put("ef" * 32, lambda: None)
        assert not cache.contains("ef" * 32)

    def test_env_var_overrides_root(self, tmp_path, monkeypatch):
        from repro.engine.cache import CACHE_ENV_VAR, default_cache_root

        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "elsewhere"))
        assert default_cache_root() == tmp_path / "elsewhere"


class TestSessionCache:
    def _session(self, tmp_path):
        options = AtpgOptions(
            random_pattern_batches=1,
            patterns_per_batch=16,
            backtrack_limit=8,
            max_patterns=12,
        )
        return (
            TestSession.for_soc(size=1)
            .with_options(options)
            .with_cache(tmp_path)
            .add_scenario("table1-a")
        )

    def test_rerun_is_served_from_cache_with_identical_results(self, tmp_path):
        first = self._session(tmp_path).run()
        second_session = self._session(tmp_path)
        second = second_session.run()
        run = second_session.artifacts["table1-a"]
        assert run.cache_info is not None and run.cache_info["hit"] is True
        assert first.same_results(second)
        assert first.outcomes[0].test_coverage == second.outcomes[0].test_coverage
        assert first.outcomes[0].pattern_count == second.outcomes[0].pattern_count

    def test_option_change_invalidates(self, tmp_path):
        self._session(tmp_path).run()
        session = self._session(tmp_path).with_options(backtrack_limit=9)
        session.run()
        run = session.artifacts["table1-a"]
        assert run.cache_info is not None and run.cache_info["hit"] is False

    def test_with_cache_false_detaches(self, tmp_path):
        self._session(tmp_path).run()
        session = self._session(tmp_path).with_cache(False)
        session.run()
        # No cache in effect: the run carries no cache provenance at all.
        assert session.artifacts["table1-a"].cache_info is None
