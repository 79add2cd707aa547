"""Unit tests for repro.diagnose: defects, fail logs, candidates, ranking."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import TestSession
from repro.api.scenarios import table1_scenario
from repro.atpg import AtpgOptions, TestSetup
from repro.clocking import ClockDomain, ClockDomainMap, external_clock_procedures
from repro.diagnose import (
    DEFECT_KINDS,
    PO_CHAIN,
    Candidate,
    CandidateSet,
    DefectInjector,
    DefectSpec,
    DiagnosisResult,
    DiagnosisSpec,
    FailBit,
    FailLog,
    SyndromeDictionary,
    SyndromeEvidence,
    candidate_universe,
    capture_fail_log,
    extract_candidates,
    failing_observation_nodes,
    observed_fail_pairs,
    parse_fail_log,
    run_diagnosis,
    simulate_candidate_syndromes,
)
from repro.dft import insert_scan
from repro.engine import compile_circuit
from repro.faults import StuckAtFault, FaultSite, TransitionFault, TransitionKind
from repro.faults.fault_list import FaultStatus
from repro.logic import Logic
from repro.netlist import NetlistBuilder
from repro.patterns import TestPattern
from repro.simulation import build_model
from repro.simulation.model import NodeKind

#: ATPG effort small enough for unit tests, big enough to detect most faults.
CHEAP = AtpgOptions(random_pattern_batches=2, patterns_per_batch=32, backtrack_limit=20)


@pytest.fixture(scope="module")
def diagnosis_env():
    """A small scan design plus one executed stuck-at scenario."""
    session = TestSession.for_design("tiny", options=CHEAP)
    spec = table1_scenario("a")
    session.run_scenario(spec)
    run = session.artifacts[spec.name]
    setup = spec.build_setup(session.prepared, CHEAP)
    return session, spec, run, setup


def detected_defect(session, result, kind="stuck-at", inter_domain=False):
    """A defect the generated pattern set provably detects."""
    model = session.prepared.model
    detected = result.fault_list.with_status(FaultStatus.DETECTED)
    assert detected, "the cheap ATPG run detected nothing"
    fault = detected[len(detected) // 2]
    if kind == "stuck-at":
        return DefectSpec.from_fault(model, fault)
    raise AssertionError(kind)


# --------------------------------------------------------------------------
# DefectSpec
# --------------------------------------------------------------------------
class TestDefectSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown defect kind"):
            DefectSpec(kind="bridge", net="n")
        with pytest.raises(ValueError, match="value 0 or 1"):
            DefectSpec(kind="stuck-at", net="n", value=2)
        with pytest.raises(ValueError, match="polarity"):
            DefectSpec(kind="transition", net="n")
        with pytest.raises(ValueError, match="no polarity"):
            DefectSpec(kind="stuck-at", net="n", value=0, polarity="slow-to-rise")
        with pytest.raises(ValueError, match="no stuck value"):
            DefectSpec(kind="inter-domain", net="n", value=1, polarity="slow-to-rise")

    def test_json_round_trip(self):
        for spec in (
            DefectSpec(kind="stuck-at", net="u1_y", pin=1, value=0),
            DefectSpec(kind="transition", net="u1_y", polarity="slow-to-rise"),
            DefectSpec(kind="inter-domain", net="x", polarity="slow-to-fall"),
        ):
            assert DefectSpec.from_json(spec.to_json()) == spec

    def test_site_resolution_errors(self, diagnosis_env):
        session, _, _, _ = diagnosis_env
        model = session.prepared.model
        with pytest.raises(KeyError, match="does not exist"):
            DefectSpec(kind="stuck-at", net="no_such_net", value=0).site(model)
        gate_net = next(
            node.net for node in model.nodes if node.fanin and len(node.fanin) >= 1
        )
        with pytest.raises(ValueError, match="out of range"):
            DefectSpec(kind="stuck-at", net=gate_net, pin=99, value=0).site(model)

    def test_from_fault_round_trips_through_site(self, diagnosis_env):
        session, _, _, _ = diagnosis_env
        model = session.prepared.model
        gate = next(node for node in model.nodes if len(node.fanin) == 2)
        fault = StuckAtFault(site=FaultSite(node=gate.index, pin=1), value=1)
        spec = DefectSpec.from_fault(model, fault)
        assert spec.site(model) == fault.site
        assert spec.as_fault(model) == fault


# --------------------------------------------------------------------------
# Injection
# --------------------------------------------------------------------------
class TestDefectInjector:
    @pytest.fixture()
    def sr_design(self):
        builder = NetlistBuilder("sr2")
        clk = builder.clock("clk")
        d = builder.input("d")
        q0 = builder.flop(d, clk, q="q0", name="ff0")
        mid = builder.buf(q0, output="mid")
        builder.flop(mid, clk, q="q1", name="ff1")
        builder.output_from("q1", "out")
        netlist, scan = insert_scan(builder.build(), num_chains=1)
        model = build_model(netlist)
        domain_map = ClockDomainMap.from_netlist(
            netlist, [ClockDomain("clk", "clk", 100.0)]
        )
        setup = TestSetup(
            name="inject",
            procedures=external_clock_procedures(["clk"], max_pulses=2),
            observe_pos=True,
            scan_enable_net="scan_en",
        )
        return netlist, scan, model, domain_map, setup

    def test_syndrome_or_equals_detect_mask(self, sr_design):
        """OR of the per-node syndrome reproduces the detect mask exactly."""
        _, _, model, domain_map, setup = sr_design
        from repro.engine import FaultSimScheduler
        from repro.fault_sim import FrameSimulator

        scheduler = FaultSimScheduler(model, backend="compiled")
        frames_sim = FrameSimulator(model, domain_map, setup, scheduler)
        procedure = setup.procedures[0]
        pattern = TestPattern(
            procedure=procedure,
            scan_load={"ff0": Logic.ZERO, "ff1": Logic.ZERO},
            pi_frames=[{"d": Logic.ONE, "scan_en": Logic.ZERO}] * procedure.num_frames,
        )
        frames = frames_sim.frame_values_packed([pattern], procedure)
        final = frames[procedure.capture_frame]
        observation = frames_sim.observation_nodes(procedure)
        defect = DefectSpec(kind="stuck-at", net="mid", value=0)
        injector = DefectInjector(model, defect)
        masks = injector.syndrome(final, observation)
        compiled = compile_circuit(model)
        merged = 0
        for mask in masks:
            merged |= mask
        assert merged == compiled.detect_batch(
            final, (defect.as_fault(model),), observation
        )[0]

    def test_inter_domain_defect_silent_on_intra_domain_procedure(self, sr_design):
        """The same slow-to-rise site that a transition defect fails under
        this launch-on-capture procedure stays silent as an inter-domain
        defect: every pulse clocks the one domain."""
        _, _, model, domain_map, setup = sr_design
        from repro.engine import FaultSimScheduler
        from repro.fault_sim import FrameSimulator

        scheduler = FaultSimScheduler(model, backend="compiled")
        frames_sim = FrameSimulator(model, domain_map, setup, scheduler)
        procedure = next(p for p in setup.procedures if p.num_frames == 2)
        assert not procedure.is_inter_domain
        pattern = TestPattern(
            procedure=procedure,
            scan_load={"ff0": Logic.ZERO, "ff1": Logic.ZERO},
            pi_frames=[{"d": Logic.ONE, "scan_en": Logic.ZERO}] * procedure.num_frames,
        )
        frames = frames_sim.frame_values_packed([pattern], procedure)
        final = frames[procedure.capture_frame]
        launch = frames[procedure.launch_frame]
        observation = frames_sim.observation_nodes(procedure)

        def masks(kind):
            defect = DefectSpec(kind=kind, net="mid", polarity="slow-to-rise")
            return DefectInjector(model, defect).syndrome(
                final, observation, launch, procedure
            )

        assert any(masks("transition"))
        assert masks("inter-domain") == [0] * len(observation)

    def test_model_is_not_mutated(self, sr_design):
        _, _, model, domain_map, setup = sr_design
        before = [(node.net, node.fanin) for node in model.nodes]
        DefectInjector(model, DefectSpec(kind="stuck-at", net="mid", value=1))
        assert [(node.net, node.fanin) for node in model.nodes] == before


# --------------------------------------------------------------------------
# Fail logs
# --------------------------------------------------------------------------
class TestFailLog:
    def _sample(self):
        return FailLog(
            design="soc",
            pattern_count=7,
            fails=[
                FailBit(pattern=2, chain="chain0", cycle=3, signal="ff_a",
                        expected="1", observed="0"),
                FailBit(pattern=2, chain=PO_CHAIN, cycle=0, signal="out1",
                        expected="0", observed="1"),
                FailBit(pattern=5, chain="chain1", cycle=0, signal="ff_b",
                        expected="0", observed="1"),
            ],
            defect=DefectSpec(kind="transition", net="u1_y", pin=0,
                              polarity="slow-to-fall"),
        )

    def test_json_round_trip(self):
        log = self._sample()
        assert FailLog.from_json(log.to_json()) == log

    def test_text_round_trip(self):
        log = self._sample()
        assert parse_fail_log(log.to_text()) == log

    def test_text_round_trip_without_defect(self):
        log = self._sample()
        log.defect = None
        assert parse_fail_log(log.to_text()) == log

    def test_parse_rejects_garbage_and_corruption(self):
        with pytest.raises(ValueError, match="missing Header"):
            parse_fail_log("STIL 1.0;\n")
        log = self._sample()
        truncated = "\n".join(log.to_text().splitlines()[:-2]) + "\n"
        with pytest.raises(ValueError, match="header declares"):
            parse_fail_log(truncated)

    def test_queries(self):
        log = self._sample()
        assert log.failing_patterns() == [2, 5]
        assert len(log.fails_of(2)) == 2
        assert [(bit.pattern, bit.signal) for bit in log.fails_of(5)] == [(5, "ff_b")]


class TestCaptureFailLog:
    def test_capture_is_consistent_with_scan_geometry(self, diagnosis_env):
        session, _, run, setup = diagnosis_env
        prepared = session.prepared
        result = session.result_of("table1-a")
        defect = detected_defect(session, result)
        log = capture_fail_log(
            prepared.model, prepared.domain_map, prepared.scan, setup,
            run.patterns, defect,
        )
        assert log.num_fails > 0
        assert log.pattern_count == len(run.patterns)
        assert log.defect == defect
        chains = {chain.name: chain for chain in prepared.scan.chains}
        for bit in log.fails:
            assert bit.expected != bit.observed
            assert 0 <= bit.pattern < log.pattern_count
            if bit.chain == PO_CHAIN:
                assert bit.signal in dict(prepared.model.po_nodes)
            else:
                chain = chains[bit.chain]
                assert bit.signal in chain.cells
                # cycle is the unload position: last cell comes out first.
                assert chain.cells[chain.length - 1 - bit.cycle] == bit.signal
        assert parse_fail_log(log.to_text()) == log

    def test_undetected_defect_produces_empty_log(self, diagnosis_env):
        session, _, run, setup = diagnosis_env
        prepared = session.prepared
        # reset is constrained inactive (0) during capture: s-a-0 is invisible.
        defect = DefectSpec(
            kind="stuck-at", net=prepared.soc.reset_net, value=0
        )
        log = capture_fail_log(
            prepared.model, prepared.domain_map, prepared.scan, setup,
            run.patterns, defect,
        )
        assert log.num_fails == 0


# --------------------------------------------------------------------------
# Candidates
# --------------------------------------------------------------------------
class TestCandidates:
    def test_cone_intersection_reaches_every_failing_observation(self, diagnosis_env):
        session, _, run, setup = diagnosis_env
        prepared = session.prepared
        result = session.result_of("table1-a")
        defect = detected_defect(session, result)
        log = capture_fail_log(
            prepared.model, prepared.domain_map, prepared.scan, setup,
            run.patterns, defect,
        )
        model = prepared.model
        candidate_set = extract_candidates(model, log)
        failing = failing_observation_nodes(model, log)
        assert failing == candidate_set.failing_observation
        compiled = compile_circuit(model)
        for site in candidate_set.sites:
            for obs in failing:
                assert site.node == obs or obs in compiled.cone_indices(site.node)
        # The true defect's site is always among the candidates.
        assert defect.site(model) in candidate_set.sites

    def test_kind_filter_and_truncation(self, diagnosis_env):
        session, _, run, setup = diagnosis_env
        prepared = session.prepared
        result = session.result_of("table1-a")
        defect = detected_defect(session, result)
        log = capture_fail_log(
            prepared.model, prepared.domain_map, prepared.scan, setup,
            run.patterns, defect,
        )
        full = extract_candidates(prepared.model, log)
        stuck_only = extract_candidates(prepared.model, log, kinds=("stuck-at",))
        assert stuck_only.candidate_count == 2 * stuck_only.site_count
        assert full.candidate_count == 6 * full.site_count
        truncated = extract_candidates(prepared.model, log, max_sites=1)
        assert truncated.site_count == 1
        assert truncated.truncated_sites == full.site_count - 1
        with pytest.raises(ValueError, match="unknown defect kind"):
            extract_candidates(prepared.model, log, kinds=("bridge",))

    def test_empty_fail_log_yields_no_candidates(self, diagnosis_env):
        session, _, _, _ = diagnosis_env
        log = FailLog(design="soc", pattern_count=3, fails=[])
        candidate_set = extract_candidates(session.prepared.model, log)
        assert candidate_set.site_count == 0
        assert candidate_set.candidate_count == 0


# --------------------------------------------------------------------------
# Candidate universe: the per-log construction it replaced is the oracle
# --------------------------------------------------------------------------
def _per_log_candidates(model, fail_log, kinds=DEFECT_KINDS, max_sites=None, mode="intersection"):
    """Candidate extraction as it ran before the candidate universe: signal
    maps rebuilt per log, one fan-in walk per failing observation, and new
    sites and candidates made for every log."""
    po_node_of_net = dict(model.po_nodes)
    element_by_name = {e.name: e for e in model.state_elements}
    failing_obs = sorted({
        po_node_of_net[bit.signal] if bit.chain == PO_CHAIN
        else element_by_name[bit.signal].d_node
        for bit in fail_log.fails
    })
    nodes = None
    for obs in failing_obs:
        cone = set(model.transitive_fanin(obs)) | {obs}
        if nodes is None:
            nodes = cone
        elif mode == "union":
            nodes |= cone
        else:
            nodes &= cone
    keep = (NodeKind.PI, NodeKind.PPI, NodeKind.RAM_OUT, NodeKind.GATE)
    nodes = sorted(node for node in nodes or () if model.nodes[node].kind in keep)
    sites = []
    for node in nodes:
        sites.append(FaultSite(node=node, pin=None))
        if model.nodes[node].kind is NodeKind.GATE:
            sites += [FaultSite(node=node, pin=pin) for pin in range(len(model.nodes[node].fanin))]
    truncated = 0
    if max_sites is not None and len(sites) > max_sites:
        truncated = len(sites) - max_sites
        sites = sites[:max_sites]
    candidates = []
    for site in sites:
        if "stuck-at" in kinds:
            candidates += [
                Candidate("stuck-at", StuckAtFault(site=site, value=value)) for value in (0, 1)
            ]
        for kind in ("transition", "inter-domain"):
            if kind in kinds:
                candidates += [
                    Candidate(kind, TransitionFault(site=site, kind=polarity))
                    for polarity in (TransitionKind.SLOW_TO_RISE, TransitionKind.SLOW_TO_FALL)
                ]
    return CandidateSet(
        sites=sites, candidates=candidates, truncated_sites=truncated,
        failing_observation=failing_obs,
    )


def _assert_matches_oracle(model, log, **options):
    got = extract_candidates(model, log, **options)
    want = _per_log_candidates(model, log, **options)
    assert got.sites == want.sites
    assert got.candidates == want.candidates
    assert got.truncated_sites == want.truncated_sites
    assert got.failing_observation == want.failing_observation
    # The universe's ids and labels belong to the candidates they ride with.
    assert got.universe is candidate_universe(model)
    assert len(got.fault_ids) == len(got.labels) == len(got.candidates)
    for candidate, fault_id, label in zip(got.candidates, got.fault_ids, got.labels):
        assert got.universe.faults[fault_id] == candidate.fault
        spec = candidate.spec(model)
        assert label == (spec.kind, spec.net, spec.pin, spec.value, spec.polarity)
    return got


_EXTRACTION_OPTIONS = [
    {"mode": "union"},
    {"mode": "intersection"},
    {"mode": "union", "kinds": ("stuck-at",)},
    {"mode": "union", "kinds": ("inter-domain", "transition")},
    {"mode": "intersection", "kinds": ("transition",), "max_sites": 5},
    {"mode": "union", "max_sites": 7},
    {"mode": "union", "kinds": (), "max_sites": 3},
]


def _random_logs(seed):
    """A random scan design and fail logs naming random PO and scan-cell
    signals (including an empty log)."""
    import random

    from repro.circuits import random_sequential

    netlist, _ = insert_scan(random_sequential(5, 8, 60, 3, seed=seed), num_chains=2)
    model = build_model(netlist)
    rng = random.Random(seed)
    signals = [(PO_CHAIN, net) for net, _ in model.po_nodes] + [
        ("chain0", e.name) for e in model.state_elements if e.d_node is not None
    ]
    logs = [FailLog(design=model.name, pattern_count=8, fails=[])]
    for _ in range(4):
        picked = rng.sample(signals, rng.randint(1, min(4, len(signals))))
        logs.append(FailLog(design=model.name, pattern_count=8, fails=[
            FailBit(rng.randrange(8), chain, 0, signal, "0", "1") for chain, signal in picked
        ]))
    return model, logs


class TestCandidateUniverseOracle:
    """extract_candidates from the memoised universe equals the per-log
    construction field by field, across modes, kind subsets and max_sites,
    on cold and warm universes."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_circuits(self, seed):
        model, logs = _random_logs(seed)
        for _ in range(2):  # the second pass reads a warm universe
            for log in logs:
                for options in _EXTRACTION_OPTIONS:
                    _assert_matches_oracle(model, log, **options)

    def test_tiny(self, dictionary_cases):
        for prepared, _, _, logs in dictionary_cases:
            for log in logs:
                for options in _EXTRACTION_OPTIONS:
                    got = _assert_matches_oracle(prepared.model, log, **options)
                    if options == {"mode": "union"}:
                        assert got.candidate_count > 0

    def test_pickled_model_carries_no_memo(self, dictionary_cases):
        import pickle

        prepared, _, _, logs = dictionary_cases[0]
        extract_candidates(prepared.model, logs[0])
        assert "_candidate_universe" in prepared.model.__dict__
        copy = pickle.loads(pickle.dumps(prepared.model))
        assert "_candidate_universe" not in copy.__dict__
        assert candidate_universe(copy) is not candidate_universe(prepared.model)
        _assert_matches_oracle(copy, logs[0], mode="union")

    def test_concurrent_extraction_interns_one_candidate_per_fault(
        self, dictionary_cases
    ):
        """12 threads extract from one cold universe with a 1 µs switch
        interval: every result equals the oracle, and each (kind, fault)
        is one Candidate object with one fault id."""
        import pickle
        import sys
        import threading

        prepared, _, _, logs = dictionary_cases[1]
        model = pickle.loads(pickle.dumps(prepared.model))  # a cold universe
        jobs = [(log, mode) for log in logs for mode in ("union", "intersection")]
        results: dict[int, list] = {}
        start = threading.Barrier(12)

        def work(worker):
            order = jobs[worker % len(jobs):] + jobs[:worker % len(jobs)]
            start.wait(timeout=60)
            results[worker] = [
                (log, mode, extract_candidates(model, log, mode=mode))
                for log, mode in order
            ]

        threads = [threading.Thread(target=work, args=(worker,)) for worker in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(12))
        interned: dict = {}
        ids: dict = {}
        for runs in results.values():
            for log, mode, got in runs:
                want = _per_log_candidates(model, log, mode=mode)
                assert got.sites == want.sites and got.candidates == want.candidates
                assert got.universe is candidate_universe(model)
                for candidate, fault_id in zip(got.candidates, got.fault_ids):
                    key = (candidate.kind, candidate.fault)
                    assert interned.setdefault(key, candidate) is candidate
                    assert ids.setdefault(candidate.fault, fault_id) == fault_id
        assert len(set(ids.values())) == len(ids)
        assert len(candidate_universe(model).faults) == len(ids)


# --------------------------------------------------------------------------
# Diagnosis
# --------------------------------------------------------------------------
class TestDiagnosis:
    def test_diagnosis_spec_validation_and_json(self):
        with pytest.raises(ValueError, match="scenario"):
            DiagnosisSpec(scenario="")
        with pytest.raises(ValueError, match="unknown candidate kind"):
            DiagnosisSpec(scenario="s", candidate_kinds=("bridge",))
        with pytest.raises(ValueError, match="unknown engine backend"):
            DiagnosisSpec(scenario="s", backend="gpu")
        with pytest.raises(
            ValueError, match=r"'processes' \(expected one of \('serial', 'compiled'\)\)"
        ):
            DiagnosisSpec(scenario="s", backend="processes")
        spec = DiagnosisSpec(
            scenario="table1-a",
            defect=DefectSpec(kind="stuck-at", net="n", value=0),
            candidate_kinds=("stuck-at",),
            max_sites=50,
        )
        assert DiagnosisSpec.from_json(spec.to_json()) == spec

    def test_injected_defect_recovered_at_rank_1(self, diagnosis_env):
        session, spec, run, setup = diagnosis_env
        result = session.result_of("table1-a")
        defect = detected_defect(session, result)
        diagnosis = run_diagnosis(
            session.prepared, setup, run.patterns,
            DiagnosisSpec(scenario=spec.name, defect=defect), options=CHEAP,
        )
        assert diagnosis.rank_of_defect == 1
        assert diagnosis.recovered_at_rank_1
        assert diagnosis.resolution >= 1
        top = diagnosis.candidates[0]
        assert top.rank == 1 and top.misses == 0 and top.false_alarms == 0
        # Result is JSON-round-trippable.
        assert DiagnosisResult.from_json(diagnosis.to_json()).to_json() == \
            diagnosis.to_json()

    def test_external_fail_log_replay_matches_injection(self, diagnosis_env):
        """A log serialized to text and parsed back diagnoses identically."""
        session, spec, run, setup = diagnosis_env
        prepared = session.prepared
        result = session.result_of("table1-a")
        defect = detected_defect(session, result)
        log = capture_fail_log(
            prepared.model, prepared.domain_map, prepared.scan, setup,
            run.patterns, defect,
        )
        replayed = parse_fail_log(log.to_text())
        dspec = DiagnosisSpec(scenario=spec.name, defect=defect)
        direct = run_diagnosis(prepared, setup, run.patterns, dspec, options=CHEAP)
        via_log = run_diagnosis(
            prepared, setup, run.patterns, dspec, fail_log=replayed, options=CHEAP
        )
        assert direct.same_ranking(via_log)

    def test_empty_fail_log_diagnoses_to_nothing(self, diagnosis_env):
        session, spec, run, setup = diagnosis_env
        defect = DefectSpec(
            kind="stuck-at", net=session.prepared.soc.reset_net, value=0
        )
        diagnosis = run_diagnosis(
            session.prepared, setup, run.patterns,
            DiagnosisSpec(scenario=spec.name, defect=defect), options=CHEAP,
        )
        assert diagnosis.fail_count == 0
        assert diagnosis.candidate_count == 0
        assert diagnosis.rank_of_defect is None

    def test_missing_defect_and_log_rejected(self, diagnosis_env):
        session, spec, run, setup = diagnosis_env
        with pytest.raises(ValueError, match="fail log or a defect"):
            run_diagnosis(
                session.prepared, setup, run.patterns,
                DiagnosisSpec(scenario=spec.name), options=CHEAP,
            )


# --------------------------------------------------------------------------
# API integration
# --------------------------------------------------------------------------
class TestSessionDiagnose:
    def test_bare_defect_needs_scenario(self):
        session = TestSession.for_design("tiny", options=CHEAP)
        with pytest.raises(ValueError, match="scenario"):
            session.diagnose(DefectSpec(kind="stuck-at", net="scan_en", value=1))
        with pytest.raises(TypeError, match="DiagnosisSpec or DefectSpec"):
            session.diagnose("scan_en stuck-at 1")

    def test_session_diagnose_letters_and_cache(self, tmp_path):
        session = TestSession.for_design("tiny", options=CHEAP).with_cache(
            tmp_path / "cache"
        )
        defect = DefectSpec(kind="stuck-at", net="scan_en", value=1)
        first = session.diagnose(defect, scenario="a")
        assert first.rank_of_defect == 1
        assert not first.cache_hit
        # A fresh session (fresh pattern regeneration) resumes from cache.
        again = TestSession.for_design("tiny", options=CHEAP).with_cache(
            tmp_path / "cache"
        ).diagnose(defect, scenario="a")
        assert again.cache_hit
        assert again.same_ranking(first)

    def test_external_fail_log_is_content_addressed(self, diagnosis_env, tmp_path):
        """A classical diagnosis of a tester log is keyed on the log's
        content: the same log re-diagnosed in a fresh session (here after a
        text round trip) is a cache hit; a different log is not."""
        session, spec, run, setup = diagnosis_env
        prepared = session.prepared
        defect = detected_defect(session, session.result_of("table1-a"))
        log = capture_fail_log(
            prepared.model, prepared.domain_map, prepared.scan, setup,
            run.patterns, defect,
        )
        other = capture_fail_log(
            prepared.model, prepared.domain_map, prepared.scan, setup,
            run.patterns, DefectSpec(kind="stuck-at", net="scan_en", value=1),
        )
        assert other.to_dict() != log.to_dict()

        def diagnose(fail_log):
            return (
                TestSession.for_design("tiny", options=CHEAP)
                .with_cache(tmp_path / "cache")
                .diagnose(DiagnosisSpec(scenario=spec.name), fail_log=fail_log)
            )

        cold = diagnose(log)
        assert not cold.cache_hit
        warm = diagnose(parse_fail_log(log.to_text()))
        assert warm.cache_hit
        assert warm.same_ranking(cold)
        assert not diagnose(other).cache_hit

    def test_ad_hoc_scenario_spec_object(self):
        """An unregistered ScenarioSpec drives diagnosis without a registry hit."""
        session = TestSession.for_design("tiny", options=CHEAP)
        custom = replace(table1_scenario("a"), name="my-custom-a")
        result = session.diagnose(
            DefectSpec(kind="stuck-at", net="scan_en", value=1), scenario=custom
        )
        assert result.scenario == "my-custom-a"
        assert result.rank_of_defect == 1

    def test_scheduler_is_reused_across_diagnoses(self, monkeypatch):
        import repro.engine.scheduler as scheduler_mod

        built = []

        class CountingScheduler(scheduler_mod.FaultSimScheduler):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scheduler_mod, "FaultSimScheduler", CountingScheduler)
        session = TestSession.for_design("tiny", options=CHEAP)
        defect = DefectSpec(kind="stuck-at", net="scan_en", value=1)
        session.diagnose(defect, scenario="a")
        session.diagnose(
            DefectSpec(kind="transition", net="scan_en", polarity="slow-to-fall"),
            scenario="a",
        )
        assert len(built) == 1

    def test_campaign_diagnose_grid(self):
        from repro.api import Campaign

        defects = [
            DefectSpec(kind="stuck-at", net="scan_en", value=1),
            DefectSpec(kind="transition", net="scan_en", polarity="slow-to-fall"),
        ]
        campaign = Campaign(designs=["tiny"], scenarios=["a"], options=CHEAP)
        report = campaign.diagnose(defects)
        assert len(report) == 2
        assert report.cell("tiny", "table1-a", defects[0]).rank_of_defect == 1
        # streaming + JSON round trip
        from repro.diagnose import DiagnosisReport

        assert DiagnosisReport.from_json(report.to_json()).to_json() == \
            report.to_json()
        seen = []
        campaign2 = Campaign(designs=["tiny"], scenarios=["a"], options=CHEAP)
        campaign2.diagnose(defects, on_cell=seen.append)
        assert len(seen) == 2

    def test_campaign_diagnose_resume_never_builds_designs(self, tmp_path, monkeypatch):
        """A fully cached diagnosis sweep must stream without any design build."""
        import repro.api.pipeline as pipeline_mod
        from repro.api import Campaign

        defects = [DefectSpec(kind="stuck-at", net="scan_en", value=1)]
        cold = (Campaign(designs=["tiny"], scenarios=["a"], options=CHEAP)
                .with_cache(tmp_path / "cache").diagnose(defects))
        assert cold.cache_hits() == 0

        def forbidden(*args, **kwargs):
            raise AssertionError("design build during a fully cached resume")

        # Every campaign design build goes through materialize_design.
        monkeypatch.setattr(pipeline_mod, "prepare_from_spec", forbidden)
        warm = (Campaign(designs=["tiny"], scenarios=["a"], options=CHEAP)
                .with_cache(tmp_path / "cache").diagnose(defects))
        assert warm.cache_hits() == len(warm.cells) == 1
        assert warm.cells[0].rank_of_defect == cold.cells[0].rank_of_defect


# --------------------------------------------------------------------------
# Multi-defect capture (the volume plane's evidence source)
# --------------------------------------------------------------------------
class TestMultiDefectCapture:
    def _visible_defects(self, session, spec, run, setup, count=2):
        prepared = session.prepared
        result = session.result_of(spec.name)
        visible = []
        for fault in result.fault_list.with_status(FaultStatus.DETECTED):
            defect = DefectSpec.from_fault(prepared.model, fault)
            log = capture_fail_log(
                prepared.model, prepared.domain_map, prepared.scan, setup,
                run.patterns, defect,
            )
            if log.num_fails and all(defect != seen for seen in visible):
                visible.append(defect)
            if len(visible) == count:
                return visible
        raise AssertionError("not enough visible defects on tiny/a")

    def test_injector_accepts_defect_list(self, diagnosis_env):
        session, spec, run, setup = diagnosis_env
        d1, d2 = self._visible_defects(session, spec, run, setup)
        injector = DefectInjector(session.prepared.model, [d1, d2])
        assert injector.defects == (d1, d2)
        assert injector.defect == d1  # first defect keeps the legacy surface
        assert len(injector.faults) == 2
        with pytest.raises(ValueError):
            DefectInjector(session.prepared.model, [])

    def test_two_defect_capture_unions_the_syndromes(self, diagnosis_env):
        """One two-defect pass logs exactly the union of the single-defect
        miscompares (the injected masks are OR-ed per batch)."""
        session, spec, run, setup = diagnosis_env
        prepared = session.prepared
        d1, d2 = self._visible_defects(session, spec, run, setup)

        def bits(defect):
            log = capture_fail_log(
                prepared.model, prepared.domain_map, prepared.scan, setup,
                run.patterns, defect,
            )
            return {
                (b.pattern, b.chain, b.cycle, b.signal, b.expected, b.observed)
                for b in log.fails
            }

        merged = capture_fail_log(
            prepared.model, prepared.domain_map, prepared.scan, setup,
            run.patterns, [d1, d2],
        )
        assert merged.defects == [d1, d2]
        assert merged.defect == d1
        merged_bits = {
            (b.pattern, b.chain, b.cycle, b.signal, b.expected, b.observed)
            for b in merged.fails
        }
        assert merged_bits == bits(d1) | bits(d2)

    def test_two_defect_log_round_trips(self, diagnosis_env):
        session, spec, run, setup = diagnosis_env
        prepared = session.prepared
        d1, d2 = self._visible_defects(session, spec, run, setup)
        log = capture_fail_log(
            prepared.model, prepared.domain_map, prepared.scan, setup,
            run.patterns, [d1, d2],
        )
        assert FailLog.from_dict(log.to_dict()) == log
        parsed = parse_fail_log(log.to_text())
        assert parsed.defects == [d1, d2]
        assert parsed == log
        assert log.to_text().count("Defect {") == 2


# --------------------------------------------------------------------------
# Syndrome dictionary: the per-log scoring loop it replaced is the oracle
# --------------------------------------------------------------------------
def _per_log_syndromes(
    model, domain_map, setup, patterns, candidate_set, fail_log, batch_size
) -> SyndromeEvidence:
    """Candidate scoring as it ran before the syndrome dictionary: frames and
    every active candidate's syndrome simulated afresh for the log, observed
    masks built by scanning observation x chunk."""
    from repro.engine import FaultSimScheduler
    from repro.fault_sim import FrameSimulator
    from repro.simulation.parallel_sim import mask_to_indices

    items = list(patterns)
    candidates = candidate_set.candidates
    observed = observed_fail_pairs(model, fail_log)
    hit_pairs = [set() for _ in candidates]
    false_alarms = [0] * len(candidates)
    po_nodes = {idx for _, idx in model.po_nodes}
    element_by_name = {e.name: e for e in model.state_elements}
    scheduler = FaultSimScheduler(model, backend="serial")
    frames_sim = FrameSimulator(model, domain_map, setup, scheduler)
    for procedure, observation, chunk, batch, launch, final in (
        frames_sim.iter_batches(items, batch_size)
    ):
        if not observation:
            continue
        captured_d = {
            element_by_name[name].d_node
            for name in frames_sim.observed_scan_flops(procedure)
            if element_by_name[name].d_node is not None
        }
        po_only = [obs in po_nodes and obs not in captured_d for obs in observation]
        active = [
            (index, candidate)
            for index, candidate in enumerate(candidates)
            if candidate.kind != "inter-domain" or procedure.is_inter_domain
        ]
        if not active:
            continue
        full = final.full_mask
        po_gate = 0
        for local, pattern in enumerate(batch):
            if pattern.observe_pos:
                po_gate |= 1 << local
        observed_masks = []
        for obs in observation:
            mask = 0
            for local, pattern_index in enumerate(chunk):
                if (pattern_index, obs) in observed:
                    mask |= 1 << local
            observed_masks.append(mask)
        syndromes = scheduler.syndrome_batch(
            final, [candidate.fault for _, candidate in active], observation,
            launch=launch,
        )
        for (cand_index, _), masks in zip(active, syndromes):
            for obs_index, mask in enumerate(masks):
                if po_only[obs_index]:
                    mask &= po_gate
                if not mask:
                    continue
                obs_mask = observed_masks[obs_index]
                matched = mask & obs_mask
                false_alarms[cand_index] += (mask & ~obs_mask & full).bit_count()
                for local in mask_to_indices(matched):
                    hit_pairs[cand_index].add((chunk[local], observation[obs_index]))
    return SyndromeEvidence(
        observed=observed, hit_pairs=hit_pairs, false_alarms=false_alarms
    )


@pytest.fixture(scope="module")
def dictionary_cases():
    """Fail logs on two pattern sets of tiny, each with its environment.

    * ``table1-a`` (stuck-at procedures) with ``observe_pos`` cleared on
      every third pattern, so PO-only observation nodes are gated per
      pattern; single- and two-defect stuck-at logs;
    * ``table1-d`` (inter-domain procedures among intra-domain ones);
      single- and two-defect transition and inter-domain logs.
    """
    session = TestSession.for_design("tiny", options=CHEAP)
    prepared = session.prepared
    cases = []
    for letter in ("a", "d"):
        spec = table1_scenario(letter)
        session.run_scenario(spec)
        patterns = list(session.artifacts[spec.name].patterns)
        if letter == "a":
            patterns = [
                replace(pattern, observe_pos=index % 3 != 0)
                for index, pattern in enumerate(patterns)
            ]
        setup = spec.build_setup(prepared, CHEAP)
        detected = session.result_of(spec.name).fault_list.with_status(
            FaultStatus.DETECTED
        )
        defects = []
        for fault in detected[len(detected) // 3:]:
            # On table1-d, alternate transition and inter-domain defects.
            defect = DefectSpec.from_fault(
                prepared.model, fault, inter_domain=letter == "d" and len(defects) % 2 == 1
            )
            log = capture_fail_log(
                prepared.model, prepared.domain_map, prepared.scan, setup,
                patterns, defect,
            )
            if log.num_fails and defect.net not in {d.net for d in defects}:
                defects.append(defect)
            if len(defects) == 6:
                break
        groups = [[defect] for defect in defects[:4]] + [defects[2:4], defects[4:6]]
        logs = [
            capture_fail_log(
                prepared.model, prepared.domain_map, prepared.scan, setup,
                patterns, group,
            )
            for group in groups
        ]
        cases.append((prepared, setup, patterns, logs))
    return cases


class TestSyndromeDictionaryOracle:
    """Logs pushed through one shared dictionary, in shuffled order, get the
    evidence of the per-log loop, field by field."""

    @pytest.mark.parametrize("which", [0, 1], ids=["observe-pos-gated", "inter-domain"])
    def test_shared_dictionary_matches_per_log_loop(self, dictionary_cases, which):
        import random

        prepared, setup, patterns, logs = dictionary_cases[which]
        model = prepared.model
        kinds = {defect.kind for log in logs for defect in log.defects}
        assert len(kinds) == (1 if which == 0 else 2), kinds
        assert any(len(log.defects) == 2 for log in logs)
        batch_size = 8
        dictionary = SyndromeDictionary()
        id_of: dict = {}
        order = list(range(len(logs)))
        random.Random(which).shuffle(order)
        for index in order + order:  # a second pass is all dictionary hits
            log = logs[index]
            candidate_set = extract_candidates(model, log, mode="union")
            assert {c.kind for c in candidate_set.candidates} == {
                "stuck-at", "transition", "inter-domain"
            }
            got = simulate_candidate_syndromes(
                model, prepared.domain_map, setup, patterns, candidate_set, log,
                batch_size=batch_size, dictionary=dictionary,
            )
            want = _per_log_syndromes(
                model, prepared.domain_map, setup, patterns, candidate_set, log,
                batch_size,
            )
            assert got.observed == want.observed
            assert got.hit_pairs == want.hit_pairs
            assert got.false_alarms == want.false_alarms
            if index == order[-1]:
                stored = len(dictionary)
            # Keyed by universe id as the parent keyed by fault: one id per
            # fault, across logs, so candidates share an entry exactly when
            # their faults are equal.
            for candidate, fault_id in zip(candidate_set.candidates, candidate_set.fault_ids):
                assert id_of.setdefault(candidate.fault, fault_id) == fault_id
        assert len(dictionary) == stored
        assert dictionary.universe is candidate_universe(model)
        assert len(set(id_of.values())) == len(id_of)
        keys = {fault_id for batch in dictionary.batches for fault_id in batch.syndromes}
        assert keys == set(id_of.values())
        procedures = {pattern.procedure.name for pattern in patterns}
        assert len(dictionary.batches) > len(procedures)

    def test_inter_domain_gate_applies_at_tally_time(self, dictionary_cases):
        """A transition and an inter-domain candidate on one fault share a
        syndrome entry; the inter-domain one counts only on inter-domain
        procedures."""
        prepared, setup, patterns, logs = dictionary_cases[1]
        model = prepared.model
        log = next(log for log in logs if log.defects[0].kind == "inter-domain")
        candidate_set = extract_candidates(model, log, mode="union")
        dictionary = SyndromeDictionary()
        evidence = simulate_candidate_syndromes(
            model, prepared.domain_map, setup, patterns, candidate_set, log,
            dictionary=dictionary,
        )
        candidates = candidate_set.candidates
        faults = {candidate.fault for candidate in candidates}
        intra = {c.fault for c in candidates if c.kind != "inter-domain"}
        assert len(faults) < len(candidates)
        for batch in dictionary.batches:
            expected = faults if batch.procedure.is_inter_domain else intra
            assert len(batch.syndromes) == len(expected)
        inter_domain = [
            index for index, pattern in enumerate(patterns)
            if pattern.procedure.is_inter_domain
        ]
        for candidate, hits in zip(candidates, evidence.hit_pairs):
            if candidate.kind == "inter-domain":
                assert all(pattern in inter_domain for pattern, _ in hits)

    def test_concurrent_fills_simulate_each_fault_once(
        self, dictionary_cases, monkeypatch
    ):
        """More threads than cores fill one dictionary with a short switch
        interval: every thread gets the evidence of a private dictionary,
        and no (batch, fault) entry is simulated twice."""
        import sys
        import threading

        from repro.engine.scheduler import FaultSimScheduler

        prepared, setup, patterns, logs = dictionary_cases[1]
        model = prepared.model
        sets = [extract_candidates(model, log, mode="union") for log in logs]

        def evidence(index, dictionary):
            return simulate_candidate_syndromes(
                model, prepared.domain_map, setup, patterns, sets[index],
                logs[index], batch_size=8, dictionary=dictionary,
            )

        private = [evidence(index, SyndromeDictionary()) for index in range(len(logs))]
        simulated: list[int] = []
        syndrome_batch = FaultSimScheduler.syndrome_batch

        def counting(self, final, faults, observation, launch=None):
            simulated.append(len(faults))
            return syndrome_batch(self, final, faults, observation, launch=launch)

        monkeypatch.setattr(FaultSimScheduler, "syndrome_batch", counting)
        shared = SyndromeDictionary()
        got: dict[int, SyndromeEvidence] = {}
        workers = [
            threading.Thread(
                target=lambda index=index: got.__setitem__(index, evidence(index, shared))
            )
            for index in list(range(len(logs))) * 2
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert sorted(got) == list(range(len(logs)))
        for index, want in enumerate(private):
            assert got[index].hit_pairs == want.hit_pairs
            assert got[index].false_alarms == want.false_alarms
        assert sum(simulated) == len(shared)

    def test_dictionary_rejects_another_candidate_universe(self, dictionary_cases):
        """Fault ids are per universe: candidates drawn from another model's
        universe (here an unpickled copy of the same design) never land in
        a bound dictionary."""
        import pickle

        prepared, setup, patterns, logs = dictionary_cases[0]
        model = prepared.model
        dictionary = SyndromeDictionary()
        simulate_candidate_syndromes(
            model, prepared.domain_map, setup, patterns,
            extract_candidates(model, logs[0]), logs[0],
            batch_size=8, dictionary=dictionary,
        )
        stored = len(dictionary)
        copy = pickle.loads(pickle.dumps(model))
        with pytest.raises(ValueError, match="another candidate universe"):
            simulate_candidate_syndromes(
                copy, prepared.domain_map, setup, patterns,
                extract_candidates(copy, logs[0]), logs[0],
                batch_size=8, dictionary=dictionary,
            )
        assert len(dictionary) == stored

    def test_dictionary_rejects_another_pattern_set_shape(self, dictionary_cases):
        prepared, setup, patterns, logs = dictionary_cases[0]
        model = prepared.model
        candidate_set = extract_candidates(model, logs[0])
        dictionary = SyndromeDictionary()
        simulate_candidate_syndromes(
            model, prepared.domain_map, setup, patterns, candidate_set, logs[0],
            batch_size=8, dictionary=dictionary,
        )
        with pytest.raises(ValueError, match="syndrome dictionary built for"):
            simulate_candidate_syndromes(
                model, prepared.domain_map, setup, patterns, candidate_set,
                logs[0], batch_size=16, dictionary=dictionary,
            )


# --------------------------------------------------------------------------
# DiagnosisReport confidence column (volume-BP interop)
# --------------------------------------------------------------------------
class TestDiagnosisReportConfidence:
    def _cell(self, confidence):
        from repro.diagnose.diagnose import DiagnosisCell

        return DiagnosisCell(
            design="tiny", scenario="table1-a",
            defect=DefectSpec(kind="stuck-at", net="scan_en", value=1),
            rank_of_defect=1, resolution=1, candidate_count=12,
            site_count=4, fail_count=9, pattern_count=24,
            confidence=confidence,
        )

    def test_json_round_trip_keeps_confidence(self):
        from repro.diagnose.diagnose import DiagnosisCell, DiagnosisReport

        report = DiagnosisReport(cells=[self._cell(0.875), self._cell(None)])
        restored = DiagnosisReport.from_json(report.to_json())
        assert [c.confidence for c in restored] == [0.875, None]
        assert restored.cells[0].to_dict() == report.cells[0].to_dict()
        assert DiagnosisCell.from_dict(report.cells[1].to_dict()).confidence is None

    def test_summary_renders_confidence(self):
        from repro.diagnose.diagnose import DiagnosisReport

        lit = DiagnosisReport(cells=[self._cell(0.875)]).summary()
        assert "conf=0.875" in lit
        # The legacy syndrome ranking has no marginals: the column degrades
        # to a placeholder instead of disappearing (fixed-width parity).
        dark = DiagnosisReport(cells=[self._cell(None)]).summary()
        assert "conf=-" in dark

    def test_fallback_note_parity_with_volume_report(self):
        from repro.diagnose.diagnose import DiagnosisReport
        from repro.volume import BpDiagnosisReport

        fallbacks = [
            {"requested": "processes", "used": "threads", "reason": "no fork"}
        ]
        classic = DiagnosisReport(campaign={"backend_fallbacks": fallbacks})
        volume = BpDiagnosisReport(campaign={"backend_fallbacks": fallbacks})
        assert classic.degraded and volume.degraded
        assert classic.backend_fallbacks == volume.backend_fallbacks
        note = "NOTE: backend fallback processes -> threads: no fork"
        assert note in classic.summary()
        assert note in volume.summary()
