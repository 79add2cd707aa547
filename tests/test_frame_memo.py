"""The frame memo of ``FrameSimulator.iter_batches`` and the capture layout
of ``capture_fail_log``: memoised captures against captures framed per
pattern by ``tests/grading_oracle.reference_frames``, and every change of
content that must frame afresh."""

from __future__ import annotations

import copy
import pickle
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.api import TestSession
from repro.api.scenarios import table1_scenario
from repro.atpg import AtpgOptions
from repro.diagnose import PO_CHAIN, DefectInjector, DefectSpec, FailBit, capture_fail_log
from repro.engine import FaultSimScheduler
from repro.fault_sim import FrameSimulator
from repro.faults.fault_list import FaultStatus
from repro.logic import Logic
from repro.obs import Telemetry
from repro.simulation.parallel_sim import mask_to_indices, unpack_value

from grading_oracle import reference_frames

CHEAP = AtpgOptions(random_pattern_batches=2, patterns_per_batch=32, backtrack_limit=20)


def reference_capture(prepared, setup, patterns, defects, batch_size=256):
    """The fail bits of one die, every batch framed pattern by pattern and
    the tester coordinates derived from the model and scan chains here."""
    model, domain_map = prepared.model, prepared.domain_map
    simulator = SimpleNamespace(
        model=model, domain_map=domain_map, setup=setup,
        scheduler=FaultSimScheduler(model, backend="serial"),
    )
    position = {
        cell: (chain.name, chain.length - 1 - index)
        for chain in prepared.scan.chains
        for index, cell in enumerate(chain.cells)
    }
    po_nodes = {idx for _, idx in model.po_nodes}
    injector = DefectInjector(model, defects)
    by_procedure: dict[str, list[int]] = {}
    for index, pattern in enumerate(patterns):
        by_procedure.setdefault(pattern.procedure.name, []).append(index)
    fails = []
    for indices in by_procedure.values():
        procedure = patterns[indices[0]].procedure
        cells_of: dict[int, list[str]] = {}
        for element in model.state_elements:
            if (
                element.flop.is_scan and element.d_node is not None
                and domain_map.domain_of(element.name) in procedure.capture_domains
            ):
                cells_of.setdefault(element.d_node, []).append(element.name)
        observation = sorted(set(cells_of) | (po_nodes if setup.observe_pos else set()))
        for start in range(0, len(indices), batch_size):
            chunk = indices[start:start + batch_size]
            batch = [patterns[i] for i in chunk]
            frames = reference_frames(simulator, batch, procedure)
            launch = frames[procedure.launch_frame]
            final = frames[procedure.capture_frame]
            masks = injector.syndrome(final, observation, launch=launch, procedure=procedure)
            for obs, mask in zip(observation, masks):
                for local in mask_to_indices(mask):
                    expected = str(unpack_value(final, obs, local))
                    observed = {"0": "1", "1": "0"}[expected]
                    for cell in cells_of.get(obs, ()):
                        fails.append(
                            FailBit(chunk[local], *position[cell], cell, expected, observed)
                        )
                    if batch[local].observe_pos:
                        fails.extend(
                            FailBit(chunk[local], PO_CHAIN, 0, net, expected, observed)
                            for net, idx in model.po_nodes if idx == obs
                        )
    return sorted(fails)


def counted(call):
    """``call()`` and the compiled good-machine passes it made."""
    telemetry = Telemetry.on()
    with telemetry.activate():
        result = call()
    return result, telemetry.metrics.snapshot()["counters"].get("engine.tape_passes", 0)


@pytest.fixture(scope="module")
def memo_env():
    """``tiny`` with table1-d, whose 65 patterns use nine capture
    procedures (inter-domain ones among them), plus dies carrying one and
    two stuck-at, transition and inter-domain defects."""
    session = TestSession.for_design("tiny", options=CHEAP)
    spec = table1_scenario("d")
    session.run_scenario(spec)
    prepared = session.prepared
    patterns = list(session.artifacts[spec.name].patterns)
    setup = spec.build_setup(prepared, CHEAP)
    model = prepared.model
    detected = session.result_of(spec.name).fault_list.with_status(FaultStatus.DETECTED)
    pool: dict[str, list[DefectSpec]] = {"stuck-at": [], "transition": [], "inter-domain": []}
    for fault in detected[::3]:
        transition = DefectSpec.from_fault(model, fault)
        for defect in (
            transition,
            DefectSpec.from_fault(model, fault, inter_domain=True),
            DefectSpec(kind="stuck-at", net=transition.net, pin=transition.pin,
                       value=int(transition.polarity == "rise")),
        ):
            kind = pool[defect.kind]
            if len(kind) < 3 and capture_fail_log(
                model, prepared.domain_map, prepared.scan, setup, patterns, defect
            ).num_fails:
                kind.append(defect)
        if all(len(kind) == 3 for kind in pool.values()):
            break
    assert all(len(kind) == 3 for kind in pool.values()), pool
    stuck, trans, inter = pool["stuck-at"], pool["transition"], pool["inter-domain"]
    dies = [[defect] for defects in pool.values() for defect in defects] + [
        [stuck[0], trans[1]], [trans[0], inter[1]], [inter[0], stuck[1]], trans[1:3],
    ]
    return prepared, setup, patterns, dies


def capture(prepared, setup, patterns, defects, **kwargs):
    return capture_fail_log(
        prepared.model, prepared.domain_map, prepared.scan, setup, patterns, defects, **kwargs
    )


class TestMemoisedCapture:
    def test_pattern_set_covers_every_procedure_kind(self, memo_env):
        _, _, patterns, dies = memo_env
        procedures = {pattern.procedure for pattern in patterns}
        assert len(procedures) > 4
        assert any(p.is_inter_domain for p in procedures)
        assert {p.num_frames for p in procedures} >= {2, 3, 4}
        assert {len(defects) for defects in dies} == {1, 2}

    @pytest.mark.parametrize("batch_size", [256, 4])
    def test_memoised_captures_equal_reference(self, memo_env, batch_size):
        """Cold and warm captures of every die equal the per-pattern
        reference; only the first capture frames the good machine."""
        prepared, setup, patterns, dies = memo_env
        prepared.model.__dict__.pop("_frame_memo", None)
        failing_procedures = set()
        for number, defects in enumerate(dies):
            log, passes = counted(lambda: capture(
                prepared, setup, patterns, defects, batch_size=batch_size
            ))
            assert (passes > 0) == (number == 0)
            assert log.fails == reference_capture(prepared, setup, patterns, defects, batch_size)
            assert log.fails and log.defects == defects
            failing_procedures |= {patterns[bit.pattern].procedure for bit in log.fails}
        assert any(procedure.is_inter_domain for procedure in failing_procedures)
        assert len(failing_procedures) > 4

    def test_planes_unchanged_after_fifty_captures(self, memo_env):
        prepared, setup, patterns, dies = memo_env
        capture(prepared, setup, patterns, dies[0])
        memo = prepared.model.__dict__["_frame_memo"]
        planes = [
            (list(launch.can0), list(launch.can1), list(final.can0), list(final.can1))
            for _, _, _, launch, final in memo.batches
        ]
        first = [capture(prepared, setup, patterns, defects).fails for defects in dies]
        for number in range(50 - len(dies)):
            defects = dies[number % len(dies)]
            assert capture(prepared, setup, patterns, defects).fails == first[number % len(dies)]
        assert prepared.model.__dict__["_frame_memo"] is memo
        assert planes == [
            (launch.can0, launch.can1, final.can0, final.can1)
            for _, _, _, launch, final in memo.batches
        ]

    def test_unknown_good_value_raises(self, memo_env, monkeypatch):
        """A miscompare where the good machine is X is an error, not a bit."""
        prepared, setup, patterns, dies = memo_env
        blank = [replace(patterns[0], scan_load={})] + patterns[1:]
        monkeypatch.setattr(
            DefectInjector, "syndrome",
            lambda self, final, observation, **_: [final.full_mask] * len(observation),
        )
        with pytest.raises(RuntimeError, match="unknown"):
            capture(prepared, setup, blank, dies[0])


class TestFreshFrames:
    """After a capture, each change of content frames afresh and gives the
    reference's log."""

    def _recaptures(self, prepared, setup, patterns, defects, batch_size=256):
        log, passes = counted(lambda: capture(
            prepared, setup, patterns, defects, batch_size=batch_size
        ))
        assert passes > 0, "stale frames served"
        assert log.fails == reference_capture(prepared, setup, patterns, defects, batch_size)
        return log

    def _edited(self, memo_env, edit, setup=None):
        """Capture a copy of the pattern set twice (the second from the
        memo), edit its first failing pattern in place, capture again."""
        prepared, base_setup, patterns, dies = memo_env
        setup = setup or base_setup
        patterns = copy.deepcopy(patterns)
        log = capture(prepared, setup, patterns, dies[1])
        assert counted(lambda: capture(prepared, setup, patterns, dies[1]))[1] == 0
        edit(patterns[log.fails[0].pattern])
        self._recaptures(prepared, setup, patterns, dies[1])

    def test_scan_load_bit(self, memo_env):
        def flip(pattern):
            cell = next(iter(pattern.scan_load))
            pattern.scan_load[cell] = (
                Logic.ZERO if pattern.scan_load[cell] is Logic.ONE else Logic.ONE
            )
        self._edited(memo_env, flip)

    def test_pi_frame(self, memo_env):
        def flip(pattern):
            frame = pattern.pi_frames[0]
            frame["io_in_0"] = Logic.ZERO if frame.get("io_in_0") is Logic.ONE else Logic.ONE
        self._edited(memo_env, flip)

    def test_pattern_observe_pos(self, memo_env):
        _, setup, _, _ = memo_env

        def toggle(pattern):
            pattern.observe_pos = not pattern.observe_pos
        self._edited(memo_env, toggle, setup=replace(setup, observe_pos=True))

    def test_other_setup(self, memo_env):
        prepared, setup, patterns, dies = memo_env
        capture(prepared, setup, patterns, dies[1])
        strobed = replace(setup, observe_pos=True)
        assert strobed.observe_pos != setup.observe_pos
        self._recaptures(prepared, strobed, patterns, dies[1])
        capture(prepared, setup, patterns, dies[1])
        held = replace(setup, pin_constraints={**setup.pin_constraints, "io_in_0": Logic.ONE})
        self._recaptures(prepared, held, patterns, dies[1])

    def test_other_batch_size(self, memo_env):
        prepared, setup, patterns, dies = memo_env
        capture(prepared, setup, patterns, dies[1])
        self._recaptures(prepared, setup, patterns, dies[1], batch_size=8)

    def test_serial_framer_gets_its_own_frames(self, memo_env):
        prepared, setup, patterns, dies = memo_env
        capture(prepared, setup, patterns, dies[1])
        compiled = prepared.model.__dict__["_frame_memo"].batches
        scheduler = FaultSimScheduler(prepared.model, backend="serial")
        passes = []
        simulate = scheduler.simulate_good
        scheduler.simulate_good = lambda packed: passes.append(1) or simulate(packed)
        framer = FrameSimulator(prepared.model, prepared.domain_map, setup, scheduler)
        serial = [
            (procedure, observation, chunk, launch, final)
            for procedure, observation, chunk, _, launch, final in framer.iter_batches(patterns)
        ]
        assert passes
        assert len(serial) == len(compiled)
        for (p1, o1, c1, l1, f1), (p2, o2, c2, l2, f2) in zip(serial, compiled):
            assert (p1, o1, c1) == (p2, o2, c2)
            assert (l1.can0, l1.can1, f1.can0, f1.can1) == (l2.can0, l2.can1, f2.can0, f2.can1)
            assert f1 is not f2


def test_pickled_model_carries_no_memo(memo_env):
    prepared, setup, patterns, dies = memo_env
    capture(prepared, setup, patterns, dies[0])
    model = prepared.model
    assert "_frame_memo" in model.__dict__ and "_capture_layout" in model.__dict__
    clone = pickle.loads(pickle.dumps(model))
    assert "_frame_memo" not in clone.__dict__
    assert "_capture_layout" not in clone.__dict__
    assert "_frame_memo" in model.__dict__
    # A clone frames for itself and gets the same log.
    assert capture_fail_log(
        clone, prepared.domain_map, prepared.scan, setup, patterns, dies[0]
    ).fails == capture(prepared, setup, patterns, dies[0]).fails


def test_concurrent_captures_never_share_frames(memo_env):
    """Threads that replay two pattern sets under two setups at once, with
    a 1 us switch interval, each get their own inputs' log: an entry is
    read once and checked whole, so no thread is served another's
    frames."""
    prepared, setup, patterns, dies = memo_env
    edited = copy.deepcopy(patterns)
    for pattern in edited:
        cell = next(iter(pattern.scan_load))
        pattern.scan_load[cell] = Logic.ZERO if pattern.scan_load[cell] is Logic.ONE else Logic.ONE
    strobed = replace(setup, observe_pos=True)
    cases = [
        (each_setup, each_patterns, defects)
        for each_setup in (setup, strobed)
        for each_patterns in (patterns, edited)
        for defects in dies[:3]
    ]
    expected = [capture(prepared, *case).fails for case in cases]
    assert len({tuple(fails) for fails in expected}) > len(dies[:3])
    wrong: list[int] = []

    def worker(offset: int) -> None:
        for step in range(2 * len(cases)):
            at = (offset + step) % len(cases)
            if capture(prepared, *cases[at]).fails != expected[at]:
                wrong.append(at)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(3 * n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
