"""Fault list management, status tracking and coverage statistics.

A :class:`FaultList` owns a set of (collapsed) faults together with a status
per fault — the familiar ATPG bookkeeping (detected, possibly detected,
ATPG-untestable, aborted, undetected) plus an optional *group* tag used by the
fault classifier (:mod:`repro.faults.classify`) to explain *why* an undetected
fault cannot be tested under a given clocking configuration, which is exactly
the analysis the paper's conclusions call for.

The bookkeeping lives in arrays indexed by a fault's position in the list,
and a pickled list carries those arrays plus a compact integer code of the
faults: a cached or streamed ATPG result moves as bytes and small arrays,
and fault objects are built again only when a reader asks for them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Callable, Generic, Iterable, Iterator, TypeVar

from repro.faults.models import FaultSite, StuckAtFault, TransitionFault, TransitionKind


FaultT = TypeVar("FaultT")


class FaultStatus(str, Enum):
    """ATPG/fault-simulation status of a fault."""

    UNDETECTED = "UD"
    DETECTED = "DT"
    POSSIBLY_DETECTED = "PT"
    ATPG_UNTESTABLE = "AU"
    UNTESTABLE = "UT"
    ABORTED = "AB"


#: Status per code of the status array, and code per status.
_STATUSES = tuple(FaultStatus)
_CODE = {status: code for code, status in enumerate(_STATUSES)}
_UD, _DT, _AB = (_CODE[s] for s in (FaultStatus.UNDETECTED, FaultStatus.DETECTED,
                                    FaultStatus.ABORTED))

#: ``detected_by`` entry of a fault with no detecting pattern.
_NO_PATTERN = -1

#: Tags of the compact fault code, and transition kinds by polarity (the
#: kind's equivalent stuck value).
_STUCK_AT, _TRANSITION = 0, 1
_KINDS = (TransitionKind.SLOW_TO_RISE, TransitionKind.SLOW_TO_FALL)


@dataclass(frozen=True)
class FaultRecord(Generic[FaultT]):
    """A read-only snapshot of one fault's bookkeeping.

    :meth:`FaultList.record` and :meth:`FaultList.records` return snapshots;
    later updates go through the list's setters (:meth:`FaultList.set_status`,
    :meth:`FaultList.mark_detected`, :meth:`FaultList.set_group`) and do not
    show in a snapshot taken before them.
    """

    fault: FaultT
    status: FaultStatus = FaultStatus.UNDETECTED
    detected_by: int | None = None  # pattern index
    group: str | None = None  # classifier tag for untested faults
    num_uncollapsed: int = 1  # size of the equivalence class this fault represents


@dataclass
class CoverageReport:
    """Coverage numbers in the style of the paper's Table 1."""

    total_faults: int
    detected: int
    possibly_detected: int
    atpg_untestable: int
    untestable: int
    aborted: int
    undetected: int

    @property
    def fault_coverage(self) -> float:
        """Detected / all faults (percent)."""
        if self.total_faults == 0:
            return 100.0
        return 100.0 * self.detected / self.total_faults

    @property
    def test_coverage(self) -> float:
        """Detected / (all faults - proven untestable) (percent) — the number
        the paper's Table 1 reports."""
        denominator = self.total_faults - self.untestable
        if denominator <= 0:
            return 100.0
        return 100.0 * self.detected / denominator

    @property
    def atpg_effectiveness(self) -> float:
        """(Detected + untestable + ATPG-untestable) / all faults (percent) —
        the "ATPG efficiency above 99%" figure quoted in Section 5.2."""
        if self.total_faults == 0:
            return 100.0
        resolved = self.detected + self.untestable + self.atpg_untestable
        return 100.0 * resolved / self.total_faults

    def as_dict(self) -> dict[str, float | int]:
        return {
            "total_faults": self.total_faults,
            "detected": self.detected,
            "possibly_detected": self.possibly_detected,
            "atpg_untestable": self.atpg_untestable,
            "untestable": self.untestable,
            "aborted": self.aborted,
            "undetected": self.undetected,
            "fault_coverage": self.fault_coverage,
            "test_coverage": self.test_coverage,
            "atpg_effectiveness": self.atpg_effectiveness,
        }


class FaultList(Generic[FaultT]):
    """Ordered collection of faults with status tracking.

    A fault's id is its position in the list.  The faults are one tuple in
    list order; per id the list keeps a status code (a ``bytearray``), the
    first detecting pattern (an ``array``, ``-1`` for none) and the size of
    the fault's equivalence class, and a sparse id -> classifier group map.
    The fault -> id index is built on the first lookup by fault object.  The
    lazy fills are idempotent, so two threads racing on one build equal
    values.

    Pickling ships the arrays and a compact code of the fault tuple (see
    :meth:`__reduce__`).  An unpickled list decodes its fault objects only
    when a caller asks for them: ``len``, :meth:`coverage`,
    :meth:`group_histogram` and a re-pickle never decode.
    """

    def __init__(self, faults: Iterable[FaultT]) -> None:
        self._faults: tuple[FaultT, ...] | None = tuple(dict.fromkeys(faults))
        self._code: array | tuple | None = None
        self._index: dict[FaultT, int] | None = None
        count = len(self._faults)
        self._status = bytearray([_UD]) * count
        self._detected_by = array("i", [_NO_PATTERN]) * count
        self._sizes = array("i", [1]) * count
        self._groups: dict[int, str] = {}

    def blank(self) -> "FaultList[FaultT]":
        """A list of the same faults and class sizes with fresh bookkeeping.

        It shares this list's fault tuple and fault -> id index, which no
        list writes once built, and owns its status, pattern, size and
        group arrays; so many runs can start from one collapsed universe
        (:func:`repro.atpg.artefacts.collapsed_universe`).
        """
        flist: FaultList[FaultT] = FaultList.__new__(FaultList)
        flist._faults = self._fault_tuple()
        flist._code = self._code
        flist._index = self._fault_index()
        count = len(self)
        flist._status = bytearray([_UD]) * count
        flist._detected_by = array("i", [_NO_PATTERN]) * count
        flist._sizes = self._sizes[:]
        flist._groups = {}
        return flist

    def __reduce__(self):
        """Pickle as the arrays plus the compact fault code of :func:`_pack`."""
        if self._code is None:
            self._code = _pack(self._faults)
        return _restore, (self._code, bytes(self._status), self._detected_by,
                          self._sizes, self._groups)

    def _fault_tuple(self) -> tuple[FaultT, ...]:
        faults = self._faults
        if faults is None:
            faults = self._faults = _unpack(self._code)
        return faults

    def _id(self, fault: FaultT) -> int:
        return self._fault_index()[fault]

    def _fault_index(self) -> dict[FaultT, int]:
        index = self._index
        if index is None:
            faults = self._fault_tuple()
            index = self._index = dict(zip(faults, range(len(faults))))
        return index

    def _snapshot(self, fault_id: int) -> FaultRecord[FaultT]:
        pattern = self._detected_by[fault_id]
        return FaultRecord(
            fault=self._fault_tuple()[fault_id],
            status=_STATUSES[self._status[fault_id]],
            detected_by=None if pattern == _NO_PATTERN else pattern,
            group=self._groups.get(fault_id),
            num_uncollapsed=self._sizes[fault_id],
        )

    # ----------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self._status)

    def __iter__(self) -> Iterator[FaultT]:
        return iter(self._fault_tuple())

    def __contains__(self, fault: FaultT) -> bool:
        return fault in self._fault_index()

    @property
    def faults(self) -> list[FaultT]:
        return list(self._fault_tuple())

    def record(self, fault: FaultT) -> FaultRecord[FaultT]:
        """A snapshot of the fault's bookkeeping (see :class:`FaultRecord`)."""
        return self._snapshot(self._id(fault))

    def records(self) -> list[FaultRecord[FaultT]]:
        """Snapshots of every fault's bookkeeping, in list order."""
        return [self._snapshot(fault_id) for fault_id in range(len(self))]

    def status_of(self, fault: FaultT) -> FaultStatus:
        return _STATUSES[self._status[self._id(fault)]]

    def with_status(self, *statuses: FaultStatus) -> list[FaultT]:
        wanted = {_CODE[status] for status in statuses}
        return list(compress(self._fault_tuple(), map(wanted.__contains__, self._status)))

    def remaining(self) -> list[FaultT]:
        """Faults that still need ATPG attention (undetected or aborted)."""
        return self.with_status(FaultStatus.UNDETECTED, FaultStatus.ABORTED,
                                FaultStatus.POSSIBLY_DETECTED)

    def open_or_provisional(self) -> list[FaultT]:
        """The faults a committed pattern is fault simulated against, in list
        order: the undetected and aborted ones, and the provisional ones."""
        return [
            fault
            for fault, code, pattern in zip(self._fault_tuple(), self._status, self._detected_by)
            if code == _UD or code == _AB or (code == _DT and pattern == _NO_PATTERN)
        ]

    def provisional(self) -> list[FaultT]:
        """Faults marked detected with no detecting pattern: a test that
        fault simulation has not confirmed yet, in list order."""
        return [
            fault
            for fault, code, pattern in zip(self._fault_tuple(), self._status, self._detected_by)
            if code == _DT and pattern == _NO_PATTERN
        ]

    # ----------------------------------------------------------------- update
    def set_status(self, fault: FaultT, status: FaultStatus) -> None:
        self._status[self._id(fault)] = _CODE[status]

    def mark_detected(self, fault: FaultT, pattern_index: int | None = None) -> None:
        fault_id = self._id(fault)
        self._status[fault_id] = _DT
        self._detected_by[fault_id] = _NO_PATTERN if pattern_index is None else pattern_index

    def mark_detected_many(
        self, faults: Iterable[FaultT], pattern_index: int | None = None
    ) -> int:
        """Mark several faults detected; returns how many were newly detected."""
        index = self._fault_index()
        status, detected_by = self._status, self._detected_by
        pattern = _NO_PATTERN if pattern_index is None else pattern_index
        newly = 0
        for fault in faults:
            fault_id = index.get(fault)
            if fault_id is None:
                continue
            if status[fault_id] != _DT:
                newly += 1
            status[fault_id] = _DT
            if detected_by[fault_id] == _NO_PATTERN:
                detected_by[fault_id] = pattern
        return newly

    def set_group(self, fault: FaultT, group: str) -> None:
        self._groups[self._id(fault)] = group

    def set_uncollapsed_count(self, fault: FaultT, count: int) -> None:
        self._sizes[self._id(fault)] = count

    # ------------------------------------------------------------------ stats
    def coverage(self, weighted: bool = False) -> CoverageReport:
        """Aggregate coverage statistics.

        Args:
            weighted: Count every fault by the size of its equivalence class
                (i.e. report numbers over the *uncollapsed* universe).
        """
        if weighted:
            counts = [0] * len(_STATUSES)
            for code, size in zip(self._status, self._sizes):
                counts[code] += size
            total = sum(counts)
        else:
            counts = [self._status.count(code) for code in range(len(_STATUSES))]
            total = len(self._status)
        return CoverageReport(
            total_faults=total,
            detected=counts[_DT],
            possibly_detected=counts[_CODE[FaultStatus.POSSIBLY_DETECTED]],
            atpg_untestable=counts[_CODE[FaultStatus.ATPG_UNTESTABLE]],
            untestable=counts[_CODE[FaultStatus.UNTESTABLE]],
            aborted=counts[_AB],
            undetected=counts[_UD],
        )

    def group_histogram(self) -> dict[str, int]:
        """Histogram of classifier groups over non-detected faults."""
        histogram: dict[str, int] = {}
        groups = self._groups
        for fault_id, code in enumerate(self._status):
            if code == _DT:
                continue
            group = groups.get(fault_id) or "unclassified"
            histogram[group] = histogram.get(group, 0) + 1
        return histogram

    def partition(self, predicate: Callable[[FaultT], bool]) -> tuple[list[FaultT], list[FaultT]]:
        """Split faults into (matching, not matching)."""
        yes: list[FaultT] = []
        no: list[FaultT] = []
        for fault in self._fault_tuple():
            (yes if predicate(fault) else no).append(fault)
        return yes, no


def _pack(faults: tuple) -> array | tuple:
    """The compact code of a fault tuple: four ints ``(tag, node, pin,
    polarity)`` per fault (pin ``-1`` for an output site, polarity the stuck
    value or the transition kind's equivalent stuck value) when every fault
    is a stuck-at or transition fault; otherwise the tuple itself, pickled
    as objects."""
    code = array("i")
    for fault in faults:
        kind = type(fault)
        if kind is StuckAtFault:
            tag, polarity = _STUCK_AT, fault.value
        elif kind is TransitionFault:
            tag, polarity = _TRANSITION, _KINDS.index(fault.kind)
        else:
            return faults
        site = fault.site
        code.extend((tag, site.node, -1 if site.pin is None else site.pin, polarity))
    return code


def _unpack(code: array) -> tuple:
    """The fault tuple of a :func:`_pack` int code; no model is needed."""
    faults = []
    append = faults.append
    ints = iter(code)
    for tag, node, pin, polarity in zip(ints, ints, ints, ints):
        site = FaultSite(node, None if pin < 0 else pin)
        if tag == _STUCK_AT:
            append(StuckAtFault(site, polarity))
        else:
            append(TransitionFault(site, _KINDS[polarity]))
    return tuple(faults)


def _restore(code, status, detected_by, sizes, groups) -> FaultList:
    """Unpickle a :class:`FaultList`; its faults stay coded until asked for."""
    flist = FaultList.__new__(FaultList)
    flist._faults = code if isinstance(code, tuple) else None
    flist._code = code
    flist._index = None
    flist._status = bytearray(status)
    # Copies, so that a ``copy.copy`` (which goes through ``__reduce__``)
    # shares no mutable state with its original.
    flist._detected_by = detected_by[:]
    flist._sizes = sizes[:]
    flist._groups = dict(groups)
    return flist
