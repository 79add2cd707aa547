"""ATE fail-log capture: run an injected device against a pattern set.

When a failing part hits the tester, the only data diagnosis gets back is
the *fail log*: which patterns miscompared, on which scan chain, at which
unload cycle.  :func:`capture_fail_log` produces exactly that artifact for a
defect injected with :class:`~repro.diagnose.defects.DefectInjector` — the
good machine and the injected device are simulated frame for frame through
the same :class:`~repro.fault_sim.transition.FrameSimulator` the fault
simulators use, so the log is bit-consistent with what candidate scoring
will later predict.

A :class:`FailLog` is plain data: JSON-round-trippable, and serializable
to/from the same STIL-flavoured text family as
:func:`repro.patterns.ate.export_stil` (``to_text`` / ``parse_fail_log``),
so logs can be archived next to exported pattern sets and replayed later.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.atpg.config import TestSetup
from repro.diagnose.defects import DefectInjector, DefectSpec
from repro.dft.scan import ScanArchitecture
from repro.engine.scheduler import FaultSimScheduler
from repro.fault_sim.transition import FrameSimulator
from repro.patterns.pattern import PatternSet, TestPattern
from repro.records import JsonRecord
from repro.simulation.parallel_sim import mask_to_indices

#: Chain label fail bits on primary outputs carry (POs have no scan chain).
PO_CHAIN = "po"


@dataclass(frozen=True, order=True)
class FailBit(JsonRecord):
    """One miscomparing bit of the tester comparator.

    Attributes:
        pattern: Index of the failing pattern in the applied set.
        chain: Scan chain name, or :data:`PO_CHAIN` for a primary output.
        cycle: Unload cycle at which the bit appears (0 == first bit shifted
            out); 0 for primary outputs, which are strobed, not shifted.
        signal: Scan cell instance name, or the primary output net.
        expected: Good-machine value ("0"/"1").
        observed: Value the injected device produced ("0"/"1").
    """

    pattern: int
    chain: str
    cycle: int
    signal: str
    expected: str
    observed: str


@dataclass
class FailLog(JsonRecord):
    """Per-pattern, per-chain, per-cycle failing bits of one tester run."""

    nested = {"fails": FailBit, "defects": DefectSpec}

    design: str
    pattern_count: int
    fails: list[FailBit] = field(default_factory=list)
    #: Every injected defect (empty for real silicon).  Multi-defect captures
    #: list one spec per defect present in the device.
    defects: list[DefectSpec] = field(default_factory=list)

    def __init__(
        self,
        design: str,
        pattern_count: int,
        fails: "list[FailBit] | None" = None,
        defect: DefectSpec | None = None,
        defects: "Sequence[DefectSpec] | None" = None,
    ) -> None:
        self.design = design
        self.pattern_count = pattern_count
        self.fails = list(fails) if fails is not None else []
        if defects:
            self.defects = list(defects)
        elif defect is not None:
            self.defects = [defect]
        else:
            self.defects = []

    @property
    def defect(self) -> DefectSpec | None:
        """Provenance for injected-defect experiments (None for real silicon).

        With several injected defects this is the first of ``defects``; both
        spellings stay assignable for single-defect callers.
        """
        return self.defects[0] if self.defects else None

    @defect.setter
    def defect(self, value: DefectSpec | None) -> None:
        self.defects = [] if value is None else [value]

    # ----------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.fails)

    def __iter__(self):
        return iter(self.fails)

    @property
    def num_fails(self) -> int:
        return len(self.fails)

    def failing_patterns(self) -> list[int]:
        """Indices of patterns with at least one miscompare, ascending."""
        return sorted({bit.pattern for bit in self.fails})

    def fails_of(self, pattern: int) -> list[FailBit]:
        return [bit for bit in self.fails if bit.pattern == pattern]

    # ------------------------------------------------------------ serialization
    def to_dict(self) -> dict[str, Any]:
        """The fields, plus the derived ``defect`` key (``defects[0]``)."""
        data = super().to_dict()
        data["defect"] = data["defects"][0] if data["defects"] else None
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailLog":
        """Rebuild a log; one that carries only ``defect`` (the
        single-defect form) loads as a one-element ``defects``."""
        payload = dict(data)
        defect = payload.pop("defect", None)
        if defect is not None and not payload.get("defects"):
            payload["defects"] = [defect]
        return super().from_dict(payload)

    # ------------------------------------------------------------- text format
    def to_text(self) -> str:
        """Serialize to the STIL-flavoured fail-log text format.

        Same dialect family as :func:`repro.patterns.ate.export_stil`; the
        inverse is :func:`parse_fail_log`.
        """
        lines: list[str] = []
        lines.append(
            f'FailLog 1.0; // written by repro.diagnose.faillog for "{self.design}"'
        )
        lines.append(
            f"Header {{ Design {self.design}; Patterns {self.pattern_count}; "
            f"Fails {self.num_fails}; }}"
        )
        for spec in self.defects:
            pin = "-" if spec.pin is None else str(spec.pin)
            value = "-" if spec.value is None else str(spec.value)
            polarity = spec.polarity or "-"
            lines.append(
                f"Defect {{ Kind {spec.kind}; Net {spec.net}; Pin {pin}; "
                f"Value {value}; Polarity {polarity}; }}"
            )
        for pattern in self.failing_patterns():
            lines.append(f"Pattern p{pattern} {{")
            for bit in self.fails_of(pattern):
                lines.append(
                    f"  Fail {bit.chain} cycle {bit.cycle} signal {bit.signal} "
                    f"expect {bit.expected} got {bit.observed};"
                )
            lines.append("}")
        return "\n".join(lines) + "\n"


_HEADER_RE = re.compile(
    r"Header \{ Design (?P<design>\S+); Patterns (?P<patterns>\d+); Fails (?P<fails>\d+); \}"
)
_DEFECT_RE = re.compile(
    r"Defect \{ Kind (?P<kind>\S+); Net (?P<net>\S+); Pin (?P<pin>\S+); "
    r"Value (?P<value>\S+); Polarity (?P<polarity>\S+); \}"
)
_PATTERN_RE = re.compile(r"Pattern p(?P<pattern>\d+) \{")
_FAIL_RE = re.compile(
    r"Fail (?P<chain>\S+) cycle (?P<cycle>\d+) signal (?P<signal>\S+) "
    r"expect (?P<expected>[01]) got (?P<observed>[01]);"
)


def parse_fail_log(text: str) -> FailLog:
    """Parse the STIL-flavoured fail-log text back into a :class:`FailLog`.

    Inverse of :meth:`FailLog.to_text`: ``parse_fail_log(log.to_text()) ==
    log`` for any captured log.
    """
    design = ""
    pattern_count = 0
    defects: list[DefectSpec] = []
    fails: list[FailBit] = []
    current_pattern: int | None = None
    declared_fails: int | None = None
    for raw in text.splitlines():
        line = raw.strip()
        match = _HEADER_RE.match(line)
        if match:
            design = match["design"]
            pattern_count = int(match["patterns"])
            declared_fails = int(match["fails"])
            continue
        match = _DEFECT_RE.match(line)
        if match:
            defects.append(
                DefectSpec(
                    kind=match["kind"],
                    net=match["net"],
                    pin=None if match["pin"] == "-" else int(match["pin"]),
                    value=None if match["value"] == "-" else int(match["value"]),
                    polarity=None if match["polarity"] == "-" else match["polarity"],
                )
            )
            continue
        match = _PATTERN_RE.match(line)
        if match:
            current_pattern = int(match["pattern"])
            continue
        match = _FAIL_RE.match(line)
        if match:
            if current_pattern is None:
                raise ValueError(f"fail bit outside a Pattern block: {line!r}")
            fails.append(
                FailBit(
                    pattern=current_pattern,
                    chain=match["chain"],
                    cycle=int(match["cycle"]),
                    signal=match["signal"],
                    expected=match["expected"],
                    observed=match["observed"],
                )
            )
    if not design:
        raise ValueError("not a fail log: missing Header block")
    if declared_fails is not None and declared_fails != len(fails):
        raise ValueError(
            f"corrupt fail log: header declares {declared_fails} fails, "
            f"found {len(fails)}"
        )
    return FailLog(
        design=design, pattern_count=pattern_count, fails=fails, defects=defects
    )


# --------------------------------------------------------------------------
# Tester-side capture
# --------------------------------------------------------------------------
def _unload_position(scan: ScanArchitecture) -> dict[str, tuple[str, int]]:
    """Map every scan cell to its (chain, unload-cycle) tester coordinates.

    The first bit to appear at a chain's scan-out is the content of its
    *last* cell (see :meth:`~repro.dft.scan.ScanChain.unload_values`).
    """
    position: dict[str, tuple[str, int]] = {}
    for chain in scan.chains:
        for index, cell in enumerate(chain.cells):
            position[cell] = (chain.name, chain.length - 1 - index)
    return position


class _CaptureLayout:
    """The per-(design, setup) fixed work of :func:`capture_fail_log`: the
    frame simulator, the PO nets of each node and, per capture procedure,
    the ``(cell, chain, cycle)`` taps of each observed D node."""

    def __init__(self, model, domain_map, scan: ScanArchitecture, setup: TestSetup, key):
        self.model = model
        self.key = key
        self.frames = FrameSimulator(
            model, domain_map, setup, FaultSimScheduler(model, backend="compiled")
        )
        self.position = _unload_position(scan)
        self.po_nets: dict[int, list[str]] = {}
        for net, idx in model.po_nodes:
            self.po_nets.setdefault(idx, []).append(net)
        self._taps: dict = {}

    def taps(self, procedure) -> dict[int, list[tuple[str, str, int]]]:
        taps = self._taps.get(procedure)
        if taps is None:
            position = self.position
            taps = self._taps[procedure] = {
                node: [(cell, *position[cell]) for cell in cells]
                for node, cells in self.frames.captured_cells(procedure).items()
            }
        return taps


def _capture_layout(model, domain_map, scan: ScanArchitecture, setup: TestSetup) -> _CaptureLayout:
    """The model's capture layout for this setup and scan architecture
    (``_capture_layout`` in the model's ``__dict__``, dropped on pickling),
    rebuilt when their content differs from the last call's."""
    key = (
        tuple(setup.effective_pin_constraints().items()),
        setup.observe_pos,
        tuple(domain_map.domain_of(element.name) for element in model.state_elements),
        tuple(scan.chains),
    )
    layout = model.__dict__.get("_capture_layout")
    if layout is None or layout.model is not model or layout.key != key:
        layout = model.__dict__["_capture_layout"] = _CaptureLayout(
            model, domain_map, scan, setup, key
        )
    return layout


def capture_fail_log(
    model,
    domain_map,
    scan: ScanArchitecture,
    setup: TestSetup,
    patterns: "PatternSet | Sequence[TestPattern]",
    defect: "DefectSpec | Sequence[DefectSpec]",
    batch_size: int = 256,
    design_name: str | None = None,
) -> FailLog:
    """Run the injected device against a pattern set and log its miscompares.

    The good machine and the injected device share the frame simulation of
    :class:`~repro.fault_sim.transition.FrameSimulator` (bit-parallel, one
    batch per capture procedure), so every emitted fail bit corresponds to a
    known-value difference an ATE comparator would flag — per pattern, per
    chain, per unload cycle.  The expected value of a bit is read straight
    from the good machine's capture-frame planes; a miscompare on a bit
    the good machine leaves unknown raises ``RuntimeError``.

    A design replays one pattern set for every die, so the replay's fixed
    work is done once: the frame simulator, unload positions, PO nets and
    per-procedure taps once per (design, setup, scan architecture), and
    the good frames once per pattern set through the frame memo of
    :meth:`~repro.fault_sim.transition.FrameSimulator.iter_batches`.  Only
    the injected device is simulated per call.

    ``defect`` may be a sequence of specs: every defect is injected into the
    same device in one pass and the log records their unioned miscompares
    (the multi-defect die of volume diagnosis).
    """
    items = list(patterns)
    injector = DefectInjector(model, defect)
    layout = _capture_layout(model, domain_map, scan, setup)
    po_nets = layout.po_nets
    rows: list[tuple[int, str, int, str, str, str]] = []
    for procedure, observation, chunk, batch, launch, final in layout.frames.iter_batches(
        items, batch_size
    ):
        taps = layout.taps(procedure)
        masks = injector.syndrome(
            final, observation, launch=launch, procedure=procedure
        )
        can0, can1 = final.can0, final.can1
        for obs, mask in zip(observation, masks):
            if not mask:
                continue
            zeros = mask & can0[obs] & ~can1[obs]
            ones = mask & can1[obs] & ~can0[obs]
            if zeros | ones != mask:
                unknown = mask_to_indices(mask & ~(zeros | ones))
                raise RuntimeError(
                    f"miscompare on node {obs} of pattern {chunk[unknown[0]]}, "
                    "where the good machine's value is unknown"
                )
            cells = taps.get(obs, ())
            nets = po_nets.get(obs, ())
            for bits, exp, got in ((zeros, "0", "1"), (ones, "1", "0")):
                for local in mask_to_indices(bits):
                    pattern_index = chunk[local]
                    for cell, chain, cycle in cells:
                        rows.append((pattern_index, chain, cycle, cell, exp, got))
                    if nets and batch[local].observe_pos:
                        for net in nets:
                            rows.append((pattern_index, PO_CHAIN, 0, net, exp, got))
    # FailBit orders by its fields in this order, so sorting the rows sorts
    # the bits.
    rows.sort()
    return FailLog(
        design=design_name or model.name,
        pattern_count=len(items),
        fails=[FailBit(*row) for row in rows],
        defects=list(injector.defects),
    )
