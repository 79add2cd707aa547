"""Fault list management, status tracking and coverage statistics.

A :class:`FaultList` owns a set of (collapsed) faults together with a status
per fault — the familiar ATPG bookkeeping (detected, possibly detected,
ATPG-untestable, aborted, undetected) plus an optional *group* tag used by the
fault classifier (:mod:`repro.faults.classify`) to explain *why* an undetected
fault cannot be tested under a given clocking configuration, which is exactly
the analysis the paper's conclusions call for.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generic, Iterable, Iterator, TypeVar


FaultT = TypeVar("FaultT")


class FaultStatus(str, Enum):
    """ATPG/fault-simulation status of a fault."""

    UNDETECTED = "UD"
    DETECTED = "DT"
    POSSIBLY_DETECTED = "PT"
    ATPG_UNTESTABLE = "AU"
    UNTESTABLE = "UT"
    ABORTED = "AB"


@dataclass
class FaultRecord(Generic[FaultT]):
    """Status bookkeeping for one fault."""

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
    """Ordered collection of faults with status tracking."""

    def __init__(self, faults: Iterable[FaultT]) -> None:
        self._records: dict[FaultT, FaultRecord[FaultT]] = {}
        for fault in faults:
            if fault not in self._records:
                self._records[fault] = FaultRecord(fault=fault)

    # ----------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[FaultT]:
        return iter(self._records)

    def __contains__(self, fault: FaultT) -> bool:
        return fault in self._records

    @property
    def faults(self) -> list[FaultT]:
        return list(self._records)

    def record(self, fault: FaultT) -> FaultRecord[FaultT]:
        return self._records[fault]

    def records(self) -> list[FaultRecord[FaultT]]:
        return list(self._records.values())

    def status_of(self, fault: FaultT) -> FaultStatus:
        return self._records[fault].status

    def with_status(self, *statuses: FaultStatus) -> list[FaultT]:
        wanted = set(statuses)
        return [f for f, r in self._records.items() if r.status in wanted]

    def remaining(self) -> list[FaultT]:
        """Faults that still need ATPG attention (undetected or aborted)."""
        return self.with_status(FaultStatus.UNDETECTED, FaultStatus.ABORTED,
                                FaultStatus.POSSIBLY_DETECTED)

    # ----------------------------------------------------------------- update
    def set_status(self, fault: FaultT, status: FaultStatus) -> None:
        self._records[fault].status = status

    def mark_detected(self, fault: FaultT, pattern_index: int | None = None) -> None:
        record = self._records[fault]
        record.status = FaultStatus.DETECTED
        record.detected_by = pattern_index

    def mark_detected_many(
        self, faults: Iterable[FaultT], pattern_index: int | None = None
    ) -> int:
        """Mark several faults detected; returns how many were newly detected."""
        newly = 0
        for fault in faults:
            record = self._records.get(fault)
            if record is None:
                continue
            if record.status is not FaultStatus.DETECTED:
                newly += 1
            record.status = FaultStatus.DETECTED
            if record.detected_by is None:
                record.detected_by = pattern_index
        return newly

    def set_group(self, fault: FaultT, group: str) -> None:
        self._records[fault].group = group

    def set_uncollapsed_count(self, fault: FaultT, count: int) -> None:
        self._records[fault].num_uncollapsed = count

    # ------------------------------------------------------------------ stats
    def coverage(self, weighted: bool = False) -> CoverageReport:
        """Aggregate coverage statistics.

        Args:
            weighted: Count every fault by the size of its equivalence class
                (i.e. report numbers over the *uncollapsed* universe).
        """

        def weight(record: FaultRecord[FaultT]) -> int:
            return record.num_uncollapsed if weighted else 1

        counts = Counter()
        total = 0
        for record in self._records.values():
            total += weight(record)
            counts[record.status] += weight(record)
        return CoverageReport(
            total_faults=total,
            detected=counts[FaultStatus.DETECTED],
            possibly_detected=counts[FaultStatus.POSSIBLY_DETECTED],
            atpg_untestable=counts[FaultStatus.ATPG_UNTESTABLE],
            untestable=counts[FaultStatus.UNTESTABLE],
            aborted=counts[FaultStatus.ABORTED],
            undetected=counts[FaultStatus.UNDETECTED],
        )

    def group_histogram(self) -> dict[str, int]:
        """Histogram of classifier groups over non-detected faults."""
        histogram: Counter[str] = Counter()
        for record in self._records.values():
            if record.status is FaultStatus.DETECTED:
                continue
            histogram[record.group or "unclassified"] += 1
        return dict(histogram)

    def partition(self, predicate: Callable[[FaultT], bool]) -> tuple[list[FaultT], list[FaultT]]:
        """Split faults into (matching, not matching)."""
        yes: list[FaultT] = []
        no: list[FaultT] = []
        for fault in self._records:
            (yes if predicate(fault) else no).append(fault)
        return yes, no
