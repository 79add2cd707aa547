"""Testability analyses: SCOAP hotspots, X-source reachability, and the
static untestability prover that feeds ATPG's prune set.

The prover establishes, per fault, one of two *sound* facts derived only
from hard constants (tie cells plus the setup's pin constraints) and
constant-blocked path analysis:

* ``constant-line`` — the faulted line provably holds the stuck value in
  every frame of every constrained pattern, so the fault can never be
  excited (classic constant-propagation redundancy).  For transition
  faults a constant line of *either* polarity suffices: the site can never
  transition at all.
* ``unobservable`` — every path from the fault site to an observation
  point (strobed POs and flip-flop D inputs) crosses a gate whose side
  input is constant at its controlling value, so the fault effect can
  never reach a capture point.  The scan-enable constraint makes every
  scan-mux shift pin such a blocked path during capture, which is exactly
  the classifier's ``scan-path`` population.

Faults so proven are marked :attr:`~repro.faults.fault_list.FaultStatus.UNTESTABLE`
*before* the ATPG phases run — both the random and the deterministic phase
target only UNDETECTED faults, so the pruned faults are never simulated or
targeted, and the coverage accounting (UT excluded from the test-coverage
denominator) is computed from statuses alone and therefore bit-identical
across every simulation backend.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.analyze.report import Finding, Severity
from repro.analyze.rules import AnalysisContext, rule
from repro.analyze.structural import constant_values, observing_nodes, pin_unblocked, x_sources
from repro.atpg.scoap import INFINITE_COST, compute_testability
from repro.faults.fault_list import FaultList, FaultStatus
from repro.faults.models import (
    StuckAtFault,
    TransitionFault,
    all_stuck_at_faults,
)
from repro.logic import Logic
from repro.simulation.model import CircuitModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.atpg.config import TestSetup


# --------------------------------------------------------------------------
# Untestability proofs
# --------------------------------------------------------------------------
#: Group prefix attached to pruned fault records (visible in histograms).
PROOF_GROUP_PREFIX = "proven-"


@dataclass(frozen=True)
class UntestableProof:
    """Why one fault can never be detected under the analyzed constraints."""

    fault: Any
    reason: str  # "constant-line" | "unobservable"
    detail: str

    @property
    def group(self) -> str:
        return f"{PROOF_GROUP_PREFIX}{self.reason}"


@dataclass
class UntestabilityReport:
    """Result of one prover run over one fault universe."""

    design: str
    total_faults: int
    proofs: tuple[UntestableProof, ...]
    seconds: float = 0.0

    @property
    def num_untestable(self) -> int:
        return len(self.proofs)

    def by_reason(self) -> dict[str, int]:
        return dict(Counter(proof.reason for proof in self.proofs))

    def proven_faults(self) -> set[Any]:
        return {proof.fault for proof in self.proofs}

    def as_dict(self) -> dict[str, Any]:
        return {
            "design": self.design,
            "total_faults": self.total_faults,
            "num_untestable": self.num_untestable,
            "by_reason": self.by_reason(),
            "seconds": round(self.seconds, 6),
        }


def _prover_observation(
    model: CircuitModel, setup: "TestSetup | None"
) -> set[int]:
    """Capture points the constrained flow can actually strobe.

    Conservative: every flip-flop D driver counts (non-scan flops still
    capture and can relay an effect into a later frame), plus PO drivers
    unless the setup masks outputs.  Latch state and RAM contents are never
    read by the scan flow, so their inputs are *not* observation points.
    """
    observation = {
        element.d_node
        for element in model.state_elements
        if element.d_node is not None
    }
    if setup is None or setup.observe_pos:
        observation.update(index for _, index in model.po_nodes)
    return observation


def prove_untestable(
    model: CircuitModel,
    faults: Sequence[Any] | None = None,
    *,
    setup: "TestSetup | None" = None,
    constraints: Mapping[str, Logic] | None = None,
) -> UntestabilityReport:
    """Statically prove faults untestable under the setup's constraints.

    Args:
        model: The levelized circuit.
        faults: Fault universe to examine (stuck-at and/or transition);
            defaults to every uncollapsed stuck-at fault of the model.
        setup: ATPG constraint environment; supplies pin constraints and
            output strobing.  ``None`` means unconstrained, all-observing.
        constraints: Explicit net -> value constraints (overrides the
            setup's effective pin constraints when given).

    Returns:
        An :class:`UntestabilityReport` listing one proof per untestable
        fault.  Proofs are sound with respect to the capture-mode flow: a
        proven fault is never detected by any constrained pattern.
    """
    start = time.perf_counter()
    if faults is None:
        faults = all_stuck_at_faults(model)
    if constraints is None and setup is not None:
        constraints = setup.effective_pin_constraints()
    const = constant_values(model, constraints)
    observing = observing_nodes(model, const, _prover_observation(model, setup))

    proofs: list[UntestableProof] = []
    for fault in faults:
        site = fault.site
        node = model.nodes[site.node]
        if site.pin is None:
            line = site.node
            gate_open = True
        else:
            line = node.fanin[site.pin]
            gate_open = pin_unblocked(model, const, site.node, site.pin)
        line_value = const.get(line)
        stuck: StuckAtFault | None = None
        transition: TransitionFault | None = None
        if isinstance(fault, TransitionFault):
            transition = fault
        elif isinstance(fault, StuckAtFault):
            stuck = fault
        else:
            continue  # Path-delay faults: out of the prover's scope.

        if line_value is not None:
            if transition is not None:
                proofs.append(
                    UntestableProof(
                        fault=fault,
                        reason="constant-line",
                        detail=(
                            f"line {model.nodes[line].net!r} is constant "
                            f"{line_value.value} under the pin constraints; "
                            "it can never transition"
                        ),
                    )
                )
                continue
            assert stuck is not None
            if line_value is stuck.stuck_value:
                proofs.append(
                    UntestableProof(
                        fault=fault,
                        reason="constant-line",
                        detail=(
                            f"line {model.nodes[line].net!r} is constant "
                            f"{line_value.value} under the pin constraints; "
                            f"stuck-at-{stuck.value} can never be excited"
                        ),
                    )
                )
                continue
        if not (gate_open and observing[site.node]):
            where = (
                f"{node.net!r}"
                if site.pin is None
                else f"pin {site.pin} of {node.instance or node.net!r}"
            )
            blocked = "the faulted gate itself" if not gate_open else (
                "every path to a strobed output or flop D input"
            )
            proofs.append(
                UntestableProof(
                    fault=fault,
                    reason="unobservable",
                    detail=(
                        f"effect at {where} is blocked at {blocked} by "
                        "constant side inputs"
                    ),
                )
            )
    return UntestabilityReport(
        design=model.name,
        total_faults=len(faults),
        proofs=tuple(proofs),
        seconds=time.perf_counter() - start,
    )


def prune_fault_list(
    fault_list: FaultList,
    model: CircuitModel,
    *,
    setup: "TestSetup | None" = None,
    constraints: Mapping[str, Logic] | None = None,
) -> UntestabilityReport:
    """Mark every provably-untestable fault UNTESTABLE in ``fault_list``.

    Pruned records carry group ``proven-<reason>`` so coverage histograms
    show why each fault left the denominator.  Returns the prover report.
    """
    report = prove_untestable(
        model, list(fault_list.faults), setup=setup, constraints=constraints
    )
    for proof in report.proofs:
        fault_list.set_status(proof.fault, FaultStatus.UNTESTABLE)
        fault_list.set_group(proof.fault, proof.group)
    return report


def cross_check_with_classifier(
    report: UntestabilityReport, classifier: Any
) -> dict[str, int]:
    """Histogram of :class:`~repro.faults.classify.FaultClassifier` groups
    over the proven faults — the agreement view between the static prover
    and the structural fault classifier."""
    histogram: Counter[str] = Counter()
    for proof in report.proofs:
        histogram[str(classifier.classify_fault(proof.fault))] += 1
    return dict(histogram)


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------
@rule(
    "x-source",
    severity=Severity.INFO,
    category="testability",
    description="X generators (non-scan flops, latches, RAMs) reaching observation",
    requires=("model",),
)
def check_x_sources(context: AnalysisContext) -> Iterable[Finding]:
    model = context.model
    assert model is not None
    sources = x_sources(model)
    if not sources:
        return
    observation = set(model.observation_nodes())
    const = constant_values(
        model,
        context.setup.effective_pin_constraints()
        if context.setup is not None
        else None,
    )
    observing = observing_nodes(model, const, observation)
    reaching = sorted(
        (model.nodes[index].net, kind)
        for index, kind in sources.items()
        if observing[index]
    )
    if not reaching:
        return
    by_kind = Counter(kind for _, kind in reaching)
    yield Finding(
        rule="x-source",
        severity=Severity.INFO,
        message=(
            f"{len(reaching)} of {len(sources)} X source(s) reach "
            "observation points and will blank captured responses "
            f"({', '.join(f'{kind}: {count}' for kind, count in sorted(by_kind.items()))})"
        ),
        subject=model.name,
        data={
            "reaching": [net for net, _ in reaching[:10]],
            "num_reaching": len(reaching),
            "num_sources": len(sources),
        },
    )


@rule(
    "scoap-hotspot",
    severity=Severity.INFO,
    category="testability",
    description="Nodes with the worst finite SCOAP controllability/observability",
    requires=("model",),
)
def check_scoap_hotspots(context: AnalysisContext) -> Iterable[Finding]:
    model = context.model
    assert model is not None
    fixed: dict[int, Logic] = {}
    if context.setup is not None:
        for net, value in context.setup.effective_pin_constraints().items():
            index = model.node_of_net.get(net)
            if index is not None:
                fixed[index] = value
    measures = compute_testability(model, fixed=fixed or None)
    hotspots: list[tuple[int, int, dict[str, int]]] = []
    for index in range(model.num_nodes):
        costs = {
            "cc0": measures.cc0[index],
            "cc1": measures.cc1[index],
            "observability": measures.observability[index],
        }
        finite = [c for c in costs.values() if c < INFINITE_COST]
        if not finite:
            continue  # Fully unreachable: the prover's territory, not a hotspot.
        worst = max(finite)
        if worst >= context.hotspot_threshold:
            hotspots.append((worst, index, costs))
    hotspots.sort(key=lambda item: (-item[0], item[1]))
    for worst, index, costs in hotspots[: context.hotspot_limit]:
        yield Finding(
            rule="scoap-hotspot",
            severity=Severity.INFO,
            message=(
                f"hard-to-test node (worst finite SCOAP cost {worst} >= "
                f"{context.hotspot_threshold}): deterministic patterns here "
                "will dominate ATPG effort"
            ),
            subject=model.nodes[index].net,
            data=dict(costs),
        )


@rule(
    "untestable-faults",
    severity=Severity.INFO,
    category="testability",
    description="Statically provable untestable stuck-at faults (prune set)",
    requires=("model",),
)
def check_untestable_faults(context: AnalysisContext) -> Iterable[Finding]:
    model = context.model
    assert model is not None
    report = prove_untestable(model, setup=context.setup)
    if not report.proofs:
        return
    reasons = report.by_reason()
    yield Finding(
        rule="untestable-faults",
        severity=Severity.INFO,
        message=(
            f"{report.num_untestable} of {report.total_faults} stuck-at "
            "fault(s) are provably untestable under the configured "
            "constraints "
            f"({', '.join(f'{k}: {v}' for k, v in sorted(reasons.items()))}); "
            "enable AtpgOptions.prune_untestable to skip them"
        ),
        subject=model.name,
        data=report.as_dict(),
    )
