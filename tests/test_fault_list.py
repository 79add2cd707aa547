"""Unit tests for fault list bookkeeping, coverage reporting and the fault
list's wire form."""

import copy
import pickle

import pytest

from repro.engine.cache import ResultCache
from repro.faults import (
    ClassifierContext,
    FaultClassifier,
    FaultList,
    FaultSite,
    FaultStatus,
    PathDelayFault,
    StuckAtFault,
    TransitionFault,
    TransitionKind,
)
from repro.runtime import Event, event_from_json


def make_faults(n=10):
    return [StuckAtFault(site=FaultSite(node=i), value=i % 2) for i in range(n)]


def test_deduplication():
    faults = make_faults(5) + make_faults(5)
    flist = FaultList(faults)
    assert len(flist) == 5


def test_status_transitions():
    flist = FaultList(make_faults(4))
    fault = flist.faults[0]
    assert flist.status_of(fault) is FaultStatus.UNDETECTED
    flist.mark_detected(fault, pattern_index=3)
    assert flist.status_of(fault) is FaultStatus.DETECTED
    assert flist.record(fault).detected_by == 3


def test_mark_detected_many_counts_new_only():
    flist = FaultList(make_faults(4))
    first_two = flist.faults[:2]
    assert flist.mark_detected_many(first_two, pattern_index=0) == 2
    assert flist.mark_detected_many(flist.faults[:3], pattern_index=1) == 1


def test_remaining_and_with_status():
    flist = FaultList(make_faults(6))
    flist.mark_detected(flist.faults[0])
    flist.set_status(flist.faults[1], FaultStatus.ATPG_UNTESTABLE)
    flist.set_status(flist.faults[2], FaultStatus.ABORTED)
    assert flist.faults[0] not in flist.remaining()
    assert flist.faults[2] in flist.remaining()
    assert flist.with_status(FaultStatus.ATPG_UNTESTABLE) == [flist.faults[1]]


def test_coverage_report_percentages():
    flist = FaultList(make_faults(10))
    for fault in flist.faults[:6]:
        flist.mark_detected(fault)
    flist.set_status(flist.faults[6], FaultStatus.UNTESTABLE)
    flist.set_status(flist.faults[7], FaultStatus.ATPG_UNTESTABLE)
    report = flist.coverage()
    assert report.total_faults == 10
    assert report.detected == 6
    assert report.fault_coverage == pytest.approx(60.0)
    # Test coverage excludes the proven-untestable fault from the denominator.
    assert report.test_coverage == pytest.approx(100.0 * 6 / 9)
    assert report.atpg_effectiveness == pytest.approx(100.0 * 8 / 10)


def test_weighted_coverage_uses_equivalence_class_sizes():
    flist = FaultList(make_faults(2))
    flist.set_uncollapsed_count(flist.faults[0], 9)
    flist.set_uncollapsed_count(flist.faults[1], 1)
    flist.mark_detected(flist.faults[0])
    weighted = flist.coverage(weighted=True)
    assert weighted.total_faults == 10
    assert weighted.detected == 9
    unweighted = flist.coverage()
    assert unweighted.detected == 1


def test_group_histogram():
    flist = FaultList(make_faults(4))
    flist.mark_detected(flist.faults[0])
    flist.set_group(flist.faults[1], "cross-domain")
    flist.set_group(flist.faults[2], "cross-domain")
    histogram = flist.group_histogram()
    assert histogram["cross-domain"] == 2
    assert histogram["unclassified"] == 1


def test_partition():
    flist = FaultList(make_faults(6))
    even, odd = flist.partition(lambda f: f.site.node % 2 == 0)
    assert len(even) == 3 and len(odd) == 3


def test_empty_coverage_is_100_percent():
    report = FaultList([]).coverage()
    assert report.test_coverage == 100.0
    assert report.atpg_effectiveness == 100.0


# --------------------------------------------------------------------------
# Wire form: pickle, result cache and event journal round trips
# --------------------------------------------------------------------------
def pickled(flist, tmp_path):
    return pickle.loads(pickle.dumps(flist))


def cached(flist, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    assert cache.put("fault-list", flist)
    return cache.get("fault-list")


def journaled(flist, tmp_path):
    event = Event(kind="job_finished", plan="p", job="j", value=flist)
    return event_from_json(event.to_json()).value


CARRIERS = [pickled, cached, journaled]


def assert_same_list(restored, original):
    assert len(restored) == len(original)
    assert restored.coverage() == original.coverage()
    assert restored.coverage(weighted=True) == original.coverage(weighted=True)
    assert restored.group_histogram() == original.group_histogram()
    assert restored.records() == original.records()
    assert list(restored) == list(original)
    for fault in original:
        assert fault in restored
        assert restored.record(fault) == original.record(fault)


@pytest.fixture(scope="module")
def tiny_lists(table1_tiny):
    """The stuck-at (table1-a) and transition (table1-d) fault lists of the
    shared ``tiny`` Table 1 run, the transition one classified on a copy."""
    session, _ = table1_tiny
    stuck = session.result_of("table1-a").fault_list
    transition = pickle.loads(pickle.dumps(session.result_of("table1-d").fault_list))
    prepared = session.prepared
    context = ClassifierContext(
        netlist=prepared.netlist,
        model=prepared.model,
        domain_map=prepared.domain_map,
        at_speed_domains=frozenset({"fast", "slow"}),
        inter_domain_allowed=False,
        observe_pos=False,
        scan_enable_net=prepared.scan_enable_net,
        scan_enable_constrained=True,
        constrained_pins={},
    )
    FaultClassifier(context).classify_list(transition)
    return {"stuck-at": stuck, "transition": transition}


def hand_made_list():
    """Duplicates given to the constructor, ``detected_by`` ``None`` vs ``0``,
    class sizes, a group, and a transition fault on an input pin."""
    faults = make_faults(6) + make_faults(3) + [
        TransitionFault(site=FaultSite(node=2, pin=1), kind=TransitionKind.SLOW_TO_FALL)
    ]
    flist = FaultList(faults)
    flist.mark_detected(flist.faults[0], pattern_index=0)
    flist.mark_detected(flist.faults[1])
    flist.set_status(flist.faults[2], FaultStatus.ABORTED)
    flist.set_group(flist.faults[2], "cross-domain")
    flist.set_uncollapsed_count(flist.faults[3], 7)
    return flist


@pytest.mark.parametrize("carrier", CARRIERS)
@pytest.mark.parametrize("kind", ["stuck-at", "transition"])
def test_atpg_fault_lists_round_trip(tiny_lists, kind, carrier, tmp_path):
    original = tiny_lists[kind]
    restored = carrier(original, tmp_path)
    assert_same_list(restored, original)
    assert any(record.num_uncollapsed > 1 for record in original.records())
    assert any(record.detected_by == 0 for record in original.records())
    if kind == "transition":
        assert set(original.group_histogram()) - {"unclassified"}


@pytest.mark.parametrize("carrier", CARRIERS)
def test_hand_made_list_round_trips(carrier, tmp_path):
    original = hand_made_list()
    restored = carrier(original, tmp_path)
    assert_same_list(restored, original)
    assert len(restored) == 7
    assert restored.record(original.faults[0]).detected_by == 0
    assert restored.record(original.faults[1]).detected_by is None
    assert restored.record(original.faults[2]).group == "cross-domain"
    assert restored.record(original.faults[3]).num_uncollapsed == 7
    # The copy owns its state.
    restored.set_status(original.faults[4], FaultStatus.UNTESTABLE)
    assert original.status_of(original.faults[4]) is FaultStatus.UNDETECTED


@pytest.mark.parametrize("carrier", CARRIERS)
def test_path_delay_list_round_trips(carrier, tmp_path):
    original = FaultList([PathDelayFault(nodes=(1, 4, 9), rising=True),
                          PathDelayFault(nodes=(2, 4), rising=False)])
    original.mark_detected(original.faults[1], pattern_index=5)
    restored = carrier(original, tmp_path)
    assert_same_list(restored, original)


def test_copy_shares_no_state():
    original = hand_made_list()
    duplicate = copy.copy(original)
    duplicate.mark_detected(original.faults[5], pattern_index=2)
    duplicate.set_group(original.faults[4], "scan-path")
    assert original.status_of(original.faults[5]) is FaultStatus.UNDETECTED
    assert original.record(original.faults[4]).group is None


def test_compact_blob_names_no_fault_class(tiny_lists):
    for flist in tiny_lists.values():
        blob = pickle.dumps(flist)
        for name in (b"StuckAtFault", b"TransitionFault", b"FaultSite"):
            assert name not in blob
    assert b"PathDelayFault" in pickle.dumps(
        FaultList([PathDelayFault(nodes=(1, 2), rising=True)])
    )


def test_decoded_list_builds_no_fault_for_counts(tiny_lists, monkeypatch):
    blobs = {kind: pickle.dumps(flist) for kind, flist in tiny_lists.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("a fault object was built")

    for cls in (FaultSite, StuckAtFault, TransitionFault):
        monkeypatch.setattr(cls, "__init__", refuse)
    for kind, blob in blobs.items():
        restored = pickle.loads(blob)
        assert len(restored) == len(tiny_lists[kind])
        assert restored.coverage() == tiny_lists[kind].coverage()
        assert restored.group_histogram() == tiny_lists[kind].group_histogram()
        assert pickle.dumps(restored) == blob
    monkeypatch.undo()
    restored = pickle.loads(blobs["stuck-at"])
    assert restored.faults == tiny_lists["stuck-at"].faults


def test_unknown_fault_lookup_raises():
    flist = FaultList(make_faults(3))
    missing = StuckAtFault(site=FaultSite(node=99), value=0)
    assert missing not in flist
    with pytest.raises(KeyError):
        flist.status_of(missing)
    assert flist.mark_detected_many([missing]) == 0
