"""Cone-intersection candidate extraction from tester fail logs.

A defect that explains a fail log must be able to reach *every* failing
observation point structurally.  This module computes that classical
back-cone intersection over the fan-in cones of the failing observations;
:meth:`repro.engine.compile.CompiledCircuit.cone_indices` exposes the
equivalent fanout-side reachability query (the test suite cross-checks the
two directions against each other).

Surviving nodes are expanded into gate-terminal fault *candidates* — one
hypothesis per site, defect kind and value/polarity — which
:mod:`repro.diagnose.diagnose` then scores by fault simulation against the
observed syndrome, propagating through the engine's cached fanout cones
(:meth:`~repro.engine.compile.CompiledCircuit.cone`, computed once per site
and shared with ATPG fault simulation).

Which candidates a node yields depends only on the design, so they live in
a :class:`CandidateUniverse` memoised on the
:class:`~repro.simulation.model.CircuitModel` (:func:`candidate_universe`)
and filled node by node as logs touch them: a fail log pays for its cone
walk and a concatenation, not for building sites, candidates, fault ids
and row labels again.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.diagnose.defects import DEFECT_KINDS, DefectSpec
from repro.diagnose.faillog import PO_CHAIN, FailLog
from repro.faults.models import (
    FaultSite,
    StuckAtFault,
    TransitionFault,
    TransitionKind,
)
from repro.simulation.model import CircuitModel, NodeKind


@dataclass(frozen=True)
class Candidate:
    """One scoreable defect hypothesis.

    ``fault`` is the classical fault whose syndrome the engine simulates;
    ``kind`` distinguishes the inter-domain hypothesis, whose predicted
    syndrome is gated to inter-domain capture procedures by the scorer.
    """

    kind: str
    fault: StuckAtFault | TransitionFault

    @property
    def site(self) -> FaultSite:
        return self.fault.site

    def spec(self, model: CircuitModel) -> DefectSpec:
        """The declarative defect this candidate hypothesizes."""
        return DefectSpec.from_fault(
            model, self.fault, inter_domain=self.kind == "inter-domain"
        )

    def describe(self, model: CircuitModel) -> str:
        return self.spec(model).describe()


#: A candidate's ranking-row label: ``(kind, net, pin, value, polarity)``,
#: the fields of the :class:`~repro.diagnose.defects.DefectSpec` it
#: hypothesizes.
Label = tuple[str, str, int | None, int | None, str | None]


@dataclass
class CandidateSet:
    """The candidates extracted for one fail log.

    ``fault_ids`` and ``labels`` run parallel to ``candidates``: each
    candidate's fault id and row label in ``universe``, the design's
    :class:`CandidateUniverse` they were drawn from.  They are derived from
    the candidates, so equality compares only the extracted content.
    """

    sites: list[FaultSite] = field(default_factory=list)
    candidates: list[Candidate] = field(default_factory=list)
    #: Number of structurally possible sites dropped by ``max_sites``.
    truncated_sites: int = 0
    #: Failing observation nodes the cones were intersected over.
    failing_observation: list[int] = field(default_factory=list)
    fault_ids: list[int] = field(default_factory=list, compare=False, repr=False)
    labels: list[Label] = field(default_factory=list, compare=False, repr=False)
    universe: "CandidateUniverse | None" = field(default=None, compare=False, repr=False)

    @property
    def site_count(self) -> int:
        return len(self.sites)

    @property
    def candidate_count(self) -> int:
        return len(self.candidates)


def observed_fail_pairs(model: CircuitModel, fail_log: FailLog) -> set[tuple[int, int]]:
    """A fail log as ``(pattern index, observation node)`` syndrome bits.

    Scan-cell fails resolve to the cell's D-driver node (what the final
    capture pulse latched); primary-output fails resolve to the PO's driver.
    The single signal-to-node resolver shared by candidate extraction and
    syndrome scoring.
    """
    universe = candidate_universe(model)
    po_node_of_net, d_node_of_cell = universe.po_node_of_net, universe.d_node_of_cell
    pairs: set[tuple[int, int]] = set()
    for bit in fail_log.fails:
        if bit.chain == PO_CHAIN:
            try:
                pairs.add((bit.pattern, po_node_of_net[bit.signal]))
            except KeyError:
                raise KeyError(
                    f"fail log names unknown primary output {bit.signal!r}"
                ) from None
        else:
            try:
                d_node = d_node_of_cell[bit.signal]
            except KeyError:
                raise KeyError(
                    f"fail log names unknown scan cell {bit.signal!r}"
                ) from None
            if d_node is None:
                raise ValueError(
                    f"scan cell {bit.signal!r} has no D driver to observe"
                )
            pairs.add((bit.pattern, d_node))
    return pairs


def failing_observation_nodes(model: CircuitModel, fail_log: FailLog) -> list[int]:
    """Map fail-log signals back to observation node indices (ascending)."""
    return sorted({node for _, node in observed_fail_pairs(model, fail_log)})


def candidate_nodes(
    model: CircuitModel, failing_obs: list[int], mode: str = "intersection"
) -> list[int]:
    """Nodes structurally able to reach the failing observation points.

    ``mode="intersection"`` (the classical single-defect extraction)
    intersects the fan-in cones of the failing observations: a lone defect
    must reach *every* failing bit.  ``mode="union"`` keeps any node
    reaching at least one failing observation — the multi-defect universe,
    where each defect only has to explain its own share of the log.

    The union is one fan-in walk from every failing observation at once;
    the intersection walks each observation's cone.  Both are exact by
    construction (``CircuitModel.fanout`` is the transpose of ``fanin``, so
    fan-in membership *is* reachability).  The equivalent fanout-side
    queries (:meth:`~repro.engine.compile.CompiledCircuit.cone_indices`)
    serve as the independent cross-check in the test suite.
    """
    if mode not in ("intersection", "union"):
        raise ValueError(f"unknown extraction mode {mode!r}")
    if not failing_obs:
        return []
    keep = (NodeKind.PI, NodeKind.PPI, NodeKind.RAM_OUT, NodeKind.GATE)
    if mode == "union":
        reached = set(failing_obs)
        frontier = list(reached)
        model_nodes = model.nodes
        while frontier:
            for prev in model_nodes[frontier.pop()].fanin:
                if prev not in reached:
                    reached.add(prev)
                    frontier.append(prev)
        return sorted(node for node in reached if model_nodes[node].kind in keep)
    nodes: set[int] | None = None
    for obs in failing_obs:
        cone = set(model.transitive_fanin(obs))
        cone.add(obs)
        if nodes is None:
            nodes = cone
        else:
            nodes &= cone
            if not nodes:
                return []
    assert nodes is not None
    return sorted(node for node in nodes if model.nodes[node].kind in keep)


@dataclass(frozen=True)
class NodeCandidates:
    """One node's candidates for one set of defect kinds, in extraction
    order: per site, stuck-at-0/1, then slow-to-rise/fall per delay kind."""

    sites: tuple[FaultSite, ...]
    candidates: tuple[Candidate, ...]
    fault_ids: tuple[int, ...]
    labels: tuple[Label, ...]


class CandidateUniverse:
    """Every candidate one design can yield, filled lazily node by node.

    A node's sites, :class:`Candidate` objects, fault ids and row labels
    depend only on the design, so they are built the first time a fail log
    reaches the node and shared by every later log; a large design is
    never enumerated up front.  A published :class:`NodeCandidates` is
    never changed.  Faults get small integer ids in first-touch order, and
    a ``"transition"`` and an ``"inter-domain"`` candidate on one fault
    share its id: a :class:`~repro.diagnose.diagnose.SyndromeDictionary`
    keys syndromes by these ids and binds to one universe.  The universe
    also keeps the signal-to-observation-node maps of
    :func:`observed_fail_pairs`.  Concurrent extractions fill it under its
    lock.
    """

    def __init__(self, model: CircuitModel) -> None:
        self.model = model
        self._lock = threading.Lock()
        #: Node -> its sites and, per site and defect kind, the
        #: ``(candidate, fault id, label)`` entries.
        self._rows: dict[int, tuple[tuple[FaultSite, ...], list[dict[str, tuple]]]] = {}
        #: Canonical kinds -> node -> :class:`NodeCandidates`.
        self._views: dict[tuple[str, ...], dict[int, NodeCandidates]] = {}
        #: Fault id -> fault.
        self.faults: list[StuckAtFault | TransitionFault] = []
        self.po_node_of_net: dict[str, int] = dict(model.po_nodes)
        self.d_node_of_cell: dict[str, int | None] = {
            element.name: element.d_node for element in model.state_elements
        }

    def node(self, node: int, kinds: tuple[str, ...]) -> NodeCandidates:
        """``node``'s candidates of ``kinds`` (a subsequence of
        :data:`~repro.diagnose.defects.DEFECT_KINDS`), built on first use."""
        view = self._views.get(kinds, {}).get(node)
        if view is None:
            with self._lock:
                views = self._views.setdefault(kinds, {})
                view = views.get(node)
                if view is None:
                    view = views[node] = self._view(node, kinds)
        return view

    def _view(self, node: int, kinds: tuple[str, ...]) -> NodeCandidates:
        if node not in self._rows:
            sites = [FaultSite(node=node, pin=None)]
            if self.model.nodes[node].kind is NodeKind.GATE:
                sites += [
                    FaultSite(node=node, pin=pin)
                    for pin in range(len(self.model.nodes[node].fanin))
                ]
            self._rows[node] = (tuple(sites), [self._site_rows(site) for site in sites])
        sites, rows = self._rows[node]
        picked = [entry for row in rows for kind in kinds for entry in row[kind]]
        return NodeCandidates(
            sites=sites,
            candidates=tuple(candidate for candidate, _, _ in picked),
            fault_ids=tuple(fault_id for _, fault_id, _ in picked),
            labels=tuple(label for _, _, label in picked),
        )

    def _site_rows(self, site: FaultSite) -> dict[str, tuple]:
        stuck = (StuckAtFault(site=site, value=0), StuckAtFault(site=site, value=1))
        delay = (
            TransitionFault(site=site, kind=TransitionKind.SLOW_TO_RISE),
            TransitionFault(site=site, kind=TransitionKind.SLOW_TO_FALL),
        )
        first = len(self.faults)
        self.faults += (*stuck, *delay)
        rows = {}
        for kind in DEFECT_KINDS:
            faults, base = (stuck, first) if kind == "stuck-at" else (delay, first + 2)
            entries = []
            for offset, fault in enumerate(faults):
                spec = DefectSpec.from_fault(
                    self.model, fault, inter_domain=kind == "inter-domain"
                )
                label = (spec.kind, spec.net, spec.pin, spec.value, spec.polarity)
                entries.append((Candidate(kind, fault), base + offset, label))
            rows[kind] = tuple(entries)
        return rows


#: Serializes the creation of a model's candidate universe, so concurrent
#: first extractions on one model share one universe (and its fault ids).
_UNIVERSE_LOCK = threading.Lock()


def candidate_universe(model: CircuitModel) -> CandidateUniverse:
    """The model's :class:`CandidateUniverse` (memoised on the instance,
    like :func:`repro.engine.compile.compile_circuit`; dropped when the
    model is pickled)."""
    universe = model.__dict__.get("_candidate_universe")
    if universe is None or universe.model is not model:
        with _UNIVERSE_LOCK:
            universe = model.__dict__.get("_candidate_universe")
            if universe is None or universe.model is not model:
                universe = model.__dict__["_candidate_universe"] = CandidateUniverse(model)
    return universe


def extract_candidates(
    model: CircuitModel,
    fail_log: FailLog,
    kinds: tuple[str, ...] = DEFECT_KINDS,
    max_sites: int | None = None,
    mode: str = "intersection",
) -> CandidateSet:
    """Extract the scoreable candidates for one fail log.

    The log's failing observations pick the cone nodes
    (:func:`candidate_nodes`); each node's sites and candidates come from
    the design's :class:`CandidateUniverse` and are concatenated in node
    order, so the result carries the universe's interned
    :class:`Candidate` objects with their fault ids and row labels.

    Args:
        model: The failing design's circuit model.
        fail_log: The tester's miscompare log.
        kinds: Defect families to hypothesize (subset of
            :data:`~repro.diagnose.defects.DEFECT_KINDS`); each site yields
            two candidates per family (stuck-at-0/1 or both polarities).
        max_sites: Optional cap on the number of candidate sites (lowest
            node indices kept); the number dropped is recorded on the result
            so callers never mistake a truncated search for an exhaustive one.
        mode: Cone combination rule (see :func:`candidate_nodes`) —
            ``"intersection"`` for the single-defect universe, ``"union"``
            for the multi-defect universe BP diagnosis selects sets from.
    """
    for kind in kinds:
        if kind not in DEFECT_KINDS:
            raise ValueError(
                f"unknown defect kind {kind!r} (expected a subset of {DEFECT_KINDS})"
            )
    kinds = tuple(kind for kind in DEFECT_KINDS if kind in kinds)
    universe = candidate_universe(model)
    failing_obs = failing_observation_nodes(model, fail_log)
    sites: list[FaultSite] = []
    candidates: list[Candidate] = []
    fault_ids: list[int] = []
    labels: list[Label] = []
    for node in candidate_nodes(model, failing_obs, mode=mode):
        part = universe.node(node, kinds)
        sites += part.sites
        candidates += part.candidates
        fault_ids += part.fault_ids
        labels += part.labels
    truncated = 0
    if max_sites is not None and len(sites) > max_sites:
        truncated = len(sites) - max_sites
        sites = sites[:max_sites]
        kept = max_sites * 2 * len(kinds)
        candidates, fault_ids, labels = candidates[:kept], fault_ids[:kept], labels[:kept]
    return CandidateSet(
        sites=sites,
        candidates=candidates,
        truncated_sites=truncated,
        failing_observation=failing_obs,
        fault_ids=fault_ids,
        labels=labels,
        universe=universe,
    )
