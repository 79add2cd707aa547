"""Candidate x failing-bit factor graphs and BP-based diagnosis.

The volume subsystem's answer to "what is wrong with this die": build a
bipartite factor graph — one binary variable per candidate defect, one OR
factor per observed failing bit, an edge wherever the candidate's
engine-simulated syndrome covers the bit — and run damped max-product
loopy BP (:func:`repro.volume.bp.max_product_bp`) to select the cheapest
*set* of candidates explaining the log.  Unlike the classical
single-defect ranking of :mod:`repro.diagnose.diagnose`, the selected set
may hold several defects, which is what tester-floor volume diagnosis
needs.

Evidence comes from the same kernels as the legacy ranking
(:func:`repro.diagnose.diagnose.simulate_candidate_syndromes`, i.e.
``FaultSimScheduler.syndrome_batch`` over
``CompiledCircuit.syndrome_batch``), so BP verdicts are
bit-identical across the serial/compiled backends.  Candidates are extracted in *union*-cone mode: a
multi-defect die only requires each candidate to reach its own share of
the failing observations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.atpg.config import AtpgOptions, TestSetup
from repro.diagnose.defects import DefectSpec
from repro.diagnose.diagnose import (
    DiagnosisSpec,
    ScoredCandidate,
    SyndromeDictionary,
    SyndromeEvidence,
    diagnosis_inputs,
    simulate_candidate_syndromes,
)
from repro.diagnose.faillog import FailLog
from repro.engine.scheduler import FaultSimScheduler
from repro.obs.telemetry import active_metrics, active_tracer
from repro.patterns.pattern import PatternSet, TestPattern
from repro.records import JsonRecord
from repro.volume.bp import BpOptions, BpOutcome, max_product_bp


@dataclass
class CandidateFactorGraph:
    """The cover factor graph distilled from syndrome evidence.

    Attributes:
        costs: Per-candidate unary selection cost (base cost plus the
            false-alarm penalty — overpredicting candidates pay more).
        factors: Per observed-and-explained failing bit, the candidate
            indices whose predicted syndrome covers it (adjacency order is
            ascending, making message sweeps deterministic).
        factor_bits: The ``(pattern, node)`` coordinate of each factor,
            sorted — the graph's evidence universe.
        unexplained: Observed failing bits no candidate explains (dropped
            from the graph; reported so a thin candidate universe is never
            mistaken for a clean cover).
        classes: Syndrome-equivalence classes — candidates with identical
            hit sets and false-alarm counts, i.e. indistinguishable under
            the applied patterns.  Each class lists member indices
            ascending; adaptive ATPG exists to split the plural ones.
    """

    costs: list[float]
    factors: list[tuple[int, ...]]
    factor_bits: list[tuple[int, int]]
    unexplained: int
    classes: list[list[int]]


def build_factor_graph(
    evidence: SyndromeEvidence, options: BpOptions
) -> CandidateFactorGraph:
    """Distill syndrome evidence into the BP-ready cover graph."""
    explainers: dict[tuple[int, int], list[int]] = {}
    for index, hits in enumerate(evidence.hit_pairs):
        for pair in hits:
            explainers.setdefault(pair, []).append(index)
    factor_bits = sorted(pair for pair in evidence.observed if pair in explainers)
    factors = [tuple(sorted(explainers[pair])) for pair in factor_bits]
    unexplained = len(evidence.observed) - len(factor_bits)
    costs = [
        options.base_cost + options.false_alarm_weight * fa
        for fa in evidence.false_alarms
    ]
    grouped: dict[tuple[frozenset[tuple[int, int]], int], list[int]] = {}
    for index, hits in enumerate(evidence.hit_pairs):
        key = (frozenset(hits), evidence.false_alarms[index])
        grouped.setdefault(key, []).append(index)
    classes = sorted(grouped.values(), key=lambda members: members[0])
    return CandidateFactorGraph(
        costs=costs,
        factors=factors,
        factor_bits=factor_bits,
        unexplained=unexplained,
        classes=classes,
    )


@dataclass
class BpScoredCandidate(ScoredCandidate):
    """One BP-ranked defect hypothesis: a scored candidate plus its
    calibrated marginal and cover-selection verdict."""

    confidence: float = 0.0
    selected: bool = False

    def describe(self) -> str:
        mark = " *" if self.selected else ""
        return f"{super().describe()} conf={self.confidence:.3f}{mark}"


@dataclass
class BpDiagnosisResult(JsonRecord):
    """The outcome of one loopy-BP multi-defect diagnosis (JSON-safe).

    ``candidates`` is the full confidence-ranked universe;
    ``selected_candidates()`` is the diagnosis — the greedy LP-rounded
    cover of the evidence.  ``ambiguous_pairs`` lists candidate-row index
    pairs whose marginal gap stayed under the ambiguity threshold (plural
    equivalence classes appear as chains of adjacent members): exactly the
    worklist :mod:`repro.volume.adaptive` generates distinguishing
    patterns for.
    """

    nested = {"candidates": BpScoredCandidate, "defects": DefectSpec}

    design: str
    scenario: str
    backend: str
    pattern_count: int
    fail_count: int
    site_count: int
    candidate_count: int
    truncated_sites: int
    unexplained: int
    candidates: list[BpScoredCandidate] = field(default_factory=list)
    defects: list[DefectSpec] = field(default_factory=list)
    resolution: int = 0
    ranks_of_defects: list[int | None] = field(default_factory=list)
    converged: bool = False
    bp_iterations: int = 0
    objective: float = 0.0
    lp_objective: float = 0.0
    ambiguous_pairs: list[dict[str, object]] = field(default_factory=list)
    wall_seconds: float = 0.0
    cache_hit: bool = False

    # ----------------------------------------------------------------- queries
    @property
    def defect(self) -> DefectSpec | None:
        return self.defects[0] if self.defects else None

    @property
    def rank_of_defect(self) -> int | None:
        return self.ranks_of_defects[0] if self.ranks_of_defects else None

    @property
    def recovered_at_rank_1(self) -> bool:
        return self.rank_of_defect == 1

    @property
    def confidence_of_defect(self) -> float | None:
        """Marginal of the first injected defect's candidate row."""
        if not self.defects:
            return None
        for row in self.candidates:
            if row.matches(self.defects[0]):
                return row.confidence
        return None

    def selected_candidates(self) -> list[BpScoredCandidate]:
        return [row for row in self.candidates if row.selected]

    def top(self, count: int = 5) -> list[BpScoredCandidate]:
        return self.candidates[:count]

    def recovered_all_defects(self) -> bool:
        """Does the selected set explain every injected defect?

        A defect counts as recovered when a selected candidate matches it
        *or* shares its confidence tie group (syndrome equivalence — the
        applied patterns cannot tell the pair apart, which is adaptive
        ATPG's job, not selection's).
        """
        selected_ranks = {row.rank for row in self.candidates if row.selected}
        for spec in self.defects:
            matched = next(
                (row for row in self.candidates if row.matches(spec)), None
            )
            if matched is None:
                return False
            if not matched.selected and matched.rank not in selected_ranks:
                return False
        return True

    def summary(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        lines = [
            f"BP diagnosis of {self.design} / {self.scenario}: "
            f"{self.fail_count} failing bits over {self.pattern_count} patterns, "
            f"{self.candidate_count} candidates at {self.site_count} sites "
            f"({status} in {self.bp_iterations} sweeps, "
            f"objective {self.objective:.2f}, backend={self.backend}, "
            f"{self.wall_seconds:.2f}s)"
        ]
        if self.unexplained:
            lines.append(f"  WARNING: {self.unexplained} failing bits unexplained")
        for spec, rank in zip(self.defects, self.ranks_of_defects):
            where = "NOT FOUND" if rank is None else f"rank {rank}"
            lines.append(f"  injected defect {spec.describe()}: {where}")
        for row in self.selected_candidates() or self.top():
            lines.append(f"  {row.describe()}")
        if self.ambiguous_pairs:
            lines.append(f"  ambiguous pairs: {len(self.ambiguous_pairs)}")
        return "\n".join(lines)

    def same_ranking(self, other: "BpDiagnosisResult") -> bool:
        """Deterministic-field equality of the full ranking (ignores timing,
        backend and cache provenance — the backend-equivalence contract)."""
        if len(self.candidates) != len(other.candidates):
            return False
        return all(
            mine.to_dict() == theirs.to_dict()
            for mine, theirs in zip(self.candidates, other.candidates)
        )


def _select_cover(
    graph: CandidateFactorGraph,
    evidence: SyndromeEvidence,
    rounded: Sequence[float],
) -> set[int]:
    """Round the LP marginals into a covering candidate set.

    Greedy cover over syndrome-equivalence classes, most-confident first:
    a class whose hit set still covers an uncovered failing bit is
    selected whole — the applied patterns cannot prefer one member over
    another, so the diagnosis reports every indistinguishable member and
    leaves the split to adaptive ATPG.  ``rounded`` holds the marginals
    rounded to 9 places, as the ranking uses them.
    """
    ordered = sorted(
        (members for members in graph.classes if evidence.hit_pairs[members[0]]),
        key=lambda members: (
            -rounded[members[0]],
            len(evidence.observed) - len(evidence.hit_pairs[members[0]])
            + evidence.false_alarms[members[0]],
            members[0],
        ),
    )
    uncovered = set(graph.factor_bits)
    selected: set[int] = set()
    for members in ordered:
        if not uncovered:
            break
        hits = evidence.hit_pairs[members[0]]
        if uncovered & hits:
            selected.update(members)
            uncovered -= hits
    return selected


def _ambiguous_pairs(
    graph: CandidateFactorGraph,
    evidence: SyndromeEvidence,
    marginals: Sequence[float],
    selected: set[int],
    threshold: float,
    row_of: Mapping[int, int],
) -> list[dict[str, object]]:
    """Candidate pairs the applied patterns cannot separate.

    Two flavors: members of one plural equivalence class (gap exactly 0 —
    listed as a chain of adjacent members), and a selected candidate vs an
    evidence-sharing rival whose marginal sits within the threshold *and*
    whose syndrome error count is identical — rivals the observed
    responses already tell apart are evidence-separated no matter how
    close their posteriors sit, so they are not adaptive ATPG's problem.
    ``row_of`` maps candidate indices to their rows in the ranked list so
    the pairs survive serialization.
    """
    pairs: list[dict[str, object]] = []
    seen: set[tuple[int, int]] = set()

    def emit(a: int, b: int) -> None:
        key = (min(row_of[a], row_of[b]), max(row_of[a], row_of[b]))
        if key not in seen:
            seen.add(key)
            pairs.append(
                {
                    "a": key[0],
                    "b": key[1],
                    "gap": round(abs(marginals[a] - marginals[b]), 9),
                }
            )

    class_of = {}
    for class_id, members in enumerate(graph.classes):
        for index in members:
            class_of[index] = class_id
    for members in graph.classes:
        if len(members) > 1 and any(index in selected for index in members):
            for a, b in zip(members, members[1:]):
                emit(a, b)
    total = evidence.total_observed
    errors = [
        (total - len(evidence.hit_pairs[j])) + evidence.false_alarms[j]
        for j in range(len(marginals))
    ]
    for a in sorted(selected):
        for b in range(len(marginals)):
            if b == a or class_of[b] == class_of[a] or b in selected:
                continue
            if errors[b] != errors[a]:
                continue
            if not evidence.hit_pairs[a] & evidence.hit_pairs[b]:
                continue
            if abs(marginals[a] - marginals[b]) < threshold:
                emit(a, b)
    pairs.sort(key=lambda pair: (pair["a"], pair["b"]))
    return pairs


def run_bp_diagnosis(
    prepared,
    setup: TestSetup,
    patterns: "PatternSet | Sequence[TestPattern]",
    spec: DiagnosisSpec,
    bp: BpOptions | None = None,
    *,
    fail_log: FailLog | None = None,
    defects: Sequence[DefectSpec] | None = None,
    options: AtpgOptions | None = None,
    scheduler: FaultSimScheduler | None = None,
    dictionary: SyndromeDictionary | None = None,
) -> BpDiagnosisResult:
    """One full BP diagnosis: capture (if needed), extract, infer, select.

    The multi-defect analogue of :func:`repro.diagnose.diagnose.run_diagnosis`:
    same seams (``spec.backend``/``options`` engine knobs, an optional
    externally owned ``scheduler`` amortized across a log stream), but the
    ranking comes from loopy-BP marginals over the union-cone candidate
    universe and the result carries a *selected set*, not just an order.

    Args:
        prepared: The :class:`~repro.api.design.PreparedDesign` under test.
        setup: The constraint environment the patterns were generated under.
        patterns: The pattern set the failing device ran on the tester.
        spec: The declarative diagnosis configuration.
        bp: Inference knobs (:class:`~repro.volume.bp.BpOptions`).
        fail_log: An externally captured fail log; ``None`` injects
            ``defects`` (or ``spec.defect``) and captures one.
        defects: Defects to inject for closed-loop experiments — a *list*,
            captured in one multi-defect pass.
        options: Engine execution knobs; ``spec.backend`` overrides.
        scheduler: Externally owned scoring scheduler (caller closes it).
        dictionary: The pattern set's
            :class:`~repro.diagnose.diagnose.SyndromeDictionary` (``None``:
            a throwaway one).
    """
    started = time.perf_counter()
    bp = bp or BpOptions()
    injected: list[DefectSpec] = list(defects or ([spec.defect] if spec.defect else []))
    backend, items, fail_log, candidate_set = diagnosis_inputs(
        prepared, setup, patterns, spec, fail_log, injected, options, scheduler,
        mode="union",
    )
    injected = injected or list(fail_log.defects)
    model = prepared.model
    evidence = simulate_candidate_syndromes(
        model,
        prepared.domain_map,
        setup,
        items,
        candidate_set,
        fail_log,
        backend=backend,
        batch_size=spec.batch_size,
        scheduler=scheduler,
        dictionary=dictionary,
    )
    graph = build_factor_graph(evidence, bp)
    with active_tracer().span(
        "volume:bp", design=model.name, candidates=len(graph.costs),
        factors=len(graph.factors),
    ):
        outcome: BpOutcome = max_product_bp(graph.costs, graph.factors, bp)
    rounded = [round(marginal, 9) for marginal in outcome.marginals]
    selected = _select_cover(graph, evidence, rounded)

    # ------------------------------------------------------------------ ranking
    total_observed = evidence.total_observed
    hit_counts = [len(hits) for hits in evidence.hit_pairs]
    # The stable sort over ascending indices breaks key ties by index;
    # candidates with equal keys share a rank.
    keys = [
        (-confidence, (total_observed - hits) + false_alarms, -hits)
        for confidence, hits, false_alarms in zip(
            rounded, hit_counts, evidence.false_alarms
        )
    ]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rows: list[BpScoredCandidate] = []
    row_of: dict[int, int] = {}
    rank = 0
    previous_key: tuple | None = None
    for position, index in enumerate(order):
        key = keys[index]
        if key != previous_key:
            rank = position + 1
            previous_key = key
        kind, net, pin, value, polarity = candidate_set.labels[index]
        row_of[index] = position
        rows.append(
            BpScoredCandidate(
                rank=rank,
                kind=kind,
                net=net,
                pin=pin,
                value=value,
                polarity=polarity,
                hits=hit_counts[index],
                misses=total_observed - hit_counts[index],
                false_alarms=evidence.false_alarms[index],
                score=rounded[index],
                confidence=rounded[index],
                selected=index in selected,
            )
        )
    pairs = _ambiguous_pairs(
        graph, evidence, outcome.marginals, selected,
        bp.ambiguity_threshold, row_of,
    )
    ranks_of_defects: list[int | None] = []
    for defect_spec in injected:
        found = next((row.rank for row in rows if row.matches(defect_spec)), None)
        ranks_of_defects.append(found)
    class_cost = {
        members[0]: graph.costs[members[0]] for members in graph.classes
    }
    objective = sum(
        cost for index, cost in class_cost.items() if index in selected
    )
    lp_objective = sum(
        cost * marginal
        for cost, marginal in zip(graph.costs, outcome.marginals)
    )
    metrics = active_metrics()
    if metrics is not None:
        metrics.inc("volume.bp_iterations", outcome.iterations)
        if outcome.converged:
            metrics.inc("volume.converged")
        metrics.inc("volume.ambiguous_pairs", len(pairs))
    return BpDiagnosisResult(
        design=model.name,
        scenario=spec.scenario,
        backend=backend,
        pattern_count=len(items),
        fail_count=fail_log.num_fails,
        site_count=candidate_set.site_count,
        candidate_count=candidate_set.candidate_count,
        truncated_sites=candidate_set.truncated_sites,
        unexplained=graph.unexplained,
        candidates=rows,
        defects=injected,
        resolution=sum(1 for row in rows if row.rank == 1),
        ranks_of_defects=ranks_of_defects,
        converged=outcome.converged,
        bp_iterations=outcome.iterations,
        objective=round(objective, 9),
        lp_objective=round(lp_objective, 9),
        ambiguous_pairs=pairs,
        wall_seconds=time.perf_counter() - started,
    )
