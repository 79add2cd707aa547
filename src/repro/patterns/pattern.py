"""Test pattern data structures.

A :class:`TestPattern` is one scan load plus the capture phase that follows
it: the named capture procedure to apply, the primary-input values per
capture frame, and (after good-machine simulation) the expected unload and
output values.  A :class:`PatternSet` is an ordered collection with the
bookkeeping the paper's Table 1 reports: pattern counts per capture procedure
and per clock domain.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.clocking.named_capture import NamedCaptureProcedure
from repro.logic import Logic


def _logic_map_out(values: dict[str, Logic]) -> dict[str, str]:
    """Serialize a net→Logic mapping to net→character."""
    return {key: str(value) for key, value in values.items()}


def _logic_map_in(values: dict[str, str]) -> dict[str, Logic]:
    """Deserialize a net→character mapping back to net→Logic."""
    return {key: Logic.from_char(value) for key, value in values.items()}


@dataclass
class TestPattern:
    """One scan-load / capture / unload test.

    Attributes:
        procedure: The named capture procedure applied after the scan load.
        scan_load: Value shifted into every scan flip-flop (X = unspecified,
            filled before ATE export).
        pi_frames: Primary-input values, one mapping per capture frame.  When
            the tester has to hold its pins, all frames carry the same values.
        observe_pos: Whether primary outputs are strobed for this pattern.
        expected_unload: Good-machine values captured into the scan flip-flops
            (filled in by simulation before export).
        expected_outputs: Good-machine primary output values at strobe time.
        target_faults: Human-readable identifiers of the faults this pattern
            was generated for (ATPG bookkeeping).
        cube_scan_load: The deterministic care bits of the scan load *before*
            X-filling (the "test cube").  This is what an EDT decompressor has
            to encode; the filled bits come for free from its ring generator.
            ``None`` means "not recorded" (hand-built patterns); an empty
            dict means "no deterministic care bits" (purely random patterns).
    """

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    procedure: NamedCaptureProcedure
    scan_load: dict[str, Logic] = field(default_factory=dict)
    pi_frames: list[dict[str, Logic]] = field(default_factory=list)
    observe_pos: bool = True
    expected_unload: dict[str, Logic] = field(default_factory=dict)
    expected_outputs: dict[str, Logic] = field(default_factory=dict)
    target_faults: list[str] = field(default_factory=list)
    cube_scan_load: dict[str, Logic] | None = None

    def __post_init__(self) -> None:
        if not self.pi_frames:
            self.pi_frames = [dict() for _ in range(self.procedure.num_frames)]
        if len(self.pi_frames) != self.procedure.num_frames:
            raise ValueError(
                f"pattern has {len(self.pi_frames)} PI frames but procedure "
                f"{self.procedure.name!r} needs {self.procedure.num_frames}"
            )

    # ------------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form (Logic values become their characters)."""
        data: dict[str, object] = {
            "procedure": self.procedure.to_dict(),
            "scan_load": _logic_map_out(self.scan_load),
            "pi_frames": [_logic_map_out(frame) for frame in self.pi_frames],
            "observe_pos": self.observe_pos,
            "expected_unload": _logic_map_out(self.expected_unload),
            "expected_outputs": _logic_map_out(self.expected_outputs),
            "target_faults": list(self.target_faults),
            "cube_scan_load": (
                None if self.cube_scan_load is None
                else _logic_map_out(self.cube_scan_load)
            ),
        }
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "TestPattern":
        cube = data.get("cube_scan_load")
        return cls(
            procedure=NamedCaptureProcedure.from_dict(data["procedure"]),  # type: ignore[arg-type]
            scan_load=_logic_map_in(data.get("scan_load") or {}),  # type: ignore[arg-type]
            pi_frames=[
                _logic_map_in(frame)
                for frame in data.get("pi_frames") or []  # type: ignore[union-attr]
            ],
            observe_pos=bool(data.get("observe_pos", True)),
            expected_unload=_logic_map_in(data.get("expected_unload") or {}),  # type: ignore[arg-type]
            expected_outputs=_logic_map_in(data.get("expected_outputs") or {}),  # type: ignore[arg-type]
            target_faults=list(data.get("target_faults") or ()),  # type: ignore[arg-type]
            cube_scan_load=None if cube is None else _logic_map_in(cube),  # type: ignore[arg-type]
        )

    # ----------------------------------------------------------------- access
    @property
    def num_frames(self) -> int:
        return self.procedure.num_frames

    def pi_values(self, frame: int) -> dict[str, Logic]:
        return dict(self.pi_frames[frame])

    def specified_bits(self) -> int:
        """Number of care bits (non-X scan and PI values)."""
        bits = sum(1 for v in self.scan_load.values() if v.is_known)
        for frame in self.pi_frames:
            bits += sum(1 for v in frame.values() if v.is_known)
        return bits

    def total_bits(self) -> int:
        bits = len(self.scan_load)
        for frame in self.pi_frames:
            bits += len(frame)
        return bits

    def care_bit_density(self) -> float:
        total = self.total_bits()
        return self.specified_bits() / total if total else 0.0

    # ------------------------------------------------------------------- fill
    def filled(self, rng: random.Random | None = None, value: Logic | None = None) -> "TestPattern":
        """Return a copy with every X replaced (randomly, or by ``value``)."""
        rng = rng or random.Random(0)

        def fill(v: Logic) -> Logic:
            if v.is_known:
                return v
            if value is not None:
                return value
            return Logic.ONE if rng.random() < 0.5 else Logic.ZERO

        if self.cube_scan_load is not None:
            cube = dict(self.cube_scan_load)
        else:
            cube = {k: v for k, v in self.scan_load.items() if v.is_known}
        return TestPattern(
            procedure=self.procedure,
            scan_load={k: fill(v) for k, v in self.scan_load.items()},
            pi_frames=[{k: fill(v) for k, v in frame.items()} for frame in self.pi_frames],
            observe_pos=self.observe_pos,
            expected_unload=dict(self.expected_unload),
            expected_outputs=dict(self.expected_outputs),
            target_faults=list(self.target_faults),
            cube_scan_load=cube,
        )

    def merged_with(self, other: "TestPattern") -> "TestPattern | None":
        """Merge two patterns if all their specified bits are compatible.

        Used by static compaction: two patterns merge when they use the same
        capture procedure and never assign conflicting values to the same scan
        cell or primary input.  Returns ``None`` when they are incompatible.
        """
        if self.procedure.name != other.procedure.name:
            return None
        if self.observe_pos != other.observe_pos:
            return None
        merged_scan = dict(self.scan_load)
        for key, value in other.scan_load.items():
            existing = merged_scan.get(key, Logic.X)
            if existing.is_known and value.is_known and existing is not value:
                return None
            if value.is_known:
                merged_scan[key] = value
        merged_frames: list[dict[str, Logic]] = []
        for mine, theirs in zip(self.pi_frames, other.pi_frames):
            frame = dict(mine)
            for key, value in theirs.items():
                existing = frame.get(key, Logic.X)
                if existing.is_known and value.is_known and existing is not value:
                    return None
                if value.is_known:
                    frame[key] = value
            merged_frames.append(frame)
        def cube_of(pattern: "TestPattern") -> dict[str, Logic]:
            if pattern.cube_scan_load is not None:
                return dict(pattern.cube_scan_load)
            return {k: v for k, v in pattern.scan_load.items() if v.is_known}

        merged_cube = cube_of(self)
        for key, value in cube_of(other).items():
            if value.is_known:
                merged_cube[key] = value
        return TestPattern(
            procedure=self.procedure,
            scan_load=merged_scan,
            pi_frames=merged_frames,
            observe_pos=self.observe_pos,
            target_faults=self.target_faults + other.target_faults,
            cube_scan_load=merged_cube,
        )


@dataclass
class PatternSetStats:
    """Summary statistics of a pattern set."""

    num_patterns: int
    per_procedure: dict[str, int]
    per_capture_domain: dict[str, int]
    average_care_bit_density: float
    inter_domain_patterns: int

    def as_dict(self) -> dict[str, object]:
        return {
            "num_patterns": self.num_patterns,
            "per_procedure": dict(self.per_procedure),
            "per_capture_domain": dict(self.per_capture_domain),
            "average_care_bit_density": self.average_care_bit_density,
            "inter_domain_patterns": self.inter_domain_patterns,
        }


class PatternSet:
    """An ordered collection of test patterns."""

    def __init__(self, patterns: Iterable[TestPattern] = ()) -> None:
        self._patterns: list[TestPattern] = list(patterns)

    def __len__(self) -> int:
        return len(self._patterns)

    def __iter__(self) -> Iterator[TestPattern]:
        return iter(self._patterns)

    def __getitem__(self, index: int) -> TestPattern:
        return self._patterns[index]

    def add(self, pattern: TestPattern) -> int:
        """Append a pattern; returns its index."""
        self._patterns.append(pattern)
        return len(self._patterns) - 1

    def extend(self, patterns: Iterable[TestPattern]) -> None:
        self._patterns.extend(patterns)

    def patterns(self) -> list[TestPattern]:
        return list(self._patterns)

    def stats(self) -> PatternSetStats:
        per_procedure: Counter[str] = Counter()
        per_domain: Counter[str] = Counter()
        inter_domain = 0
        densities: list[float] = []
        for pattern in self._patterns:
            per_procedure[pattern.procedure.name] += 1
            for domain in sorted(pattern.procedure.capture_domains):
                per_domain[domain] += 1
            if pattern.procedure.is_inter_domain:
                inter_domain += 1
            densities.append(pattern.care_bit_density())
        avg = sum(densities) / len(densities) if densities else 0.0
        return PatternSetStats(
            num_patterns=len(self._patterns),
            per_procedure=dict(per_procedure),
            per_capture_domain=dict(per_domain),
            average_care_bit_density=avg,
            inter_domain_patterns=inter_domain,
        )
