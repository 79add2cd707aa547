"""Volume fault diagnosis: score candidate defects against a fail log.

The diagnosis loop is the inverse of test generation: given the syndrome a
failing device produced on the tester (a :class:`~repro.diagnose.faillog.FailLog`),
rank the candidate defects that best explain it.  The structure mirrors
iterative message-passing inference: every candidate *predicts* a syndrome
(one fault simulation through the engine's compiled kernels), prediction and
observation exchange evidence (per-bit match/miss/false-alarm counts), and
tied candidates are re-ranked by reweighting each observed failing bit by
how many of its explaining candidates remain — rare evidence counts for
more, exactly like a belief-propagation message.

Predictions come from a :class:`SyndromeDictionary`, one per pattern set:
a candidate's syndrome depends only on the design, the patterns, the
capture procedures and its fault, so each fault is simulated once per
pattern set (per-observation-node ``syndrome_batch`` on the
serial/compiled backends of
:class:`~repro.engine.scheduler.FaultSimScheduler`) and every later log
only tallies against it.  Results flow through the persistent engine cache
so re-diagnosing an unchanged (design, scenario, defect) cell is a disk
read.

Both backends produce bit-identical syndrome scores and therefore
identical rankings — ``tests/test_diagnose_backends.py`` holds them to
exactly that.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.atpg.config import AtpgOptions, TestSetup
from repro.clocking.named_capture import NamedCaptureProcedure
from repro.diagnose.candidates import (
    Candidate,
    CandidateSet,
    CandidateUniverse,
    extract_candidates,
    observed_fail_pairs,
)
from repro.diagnose.defects import DEFECT_KINDS, DefectSpec
from repro.diagnose.faillog import FailLog, capture_fail_log
from repro.engine.scheduler import BACKENDS, FaultSimScheduler
from repro.fault_sim.transition import FrameSimulator
from repro.obs.telemetry import active_metrics, active_tracer
from repro.patterns.pattern import PatternSet, TestPattern
from repro.records import JsonRecord
from repro.runtime.report import PlanReport
from repro.simulation.model import CircuitModel
from repro.simulation.parallel_sim import PackedPatterns, mask_to_indices


@dataclass(frozen=True)
class DiagnosisSpec(JsonRecord):
    """One declarative diagnosis configuration (JSON-round-trippable).

    Attributes:
        scenario: Name of the registered scenario whose pattern set the
            failing device ran (the paper letters "a".."e" are accepted by
            the API front doors).
        defect: The defect to inject for closed-loop experiments; ``None``
            when diagnosing an externally captured fail log.
        candidate_kinds: Defect families to hypothesize per candidate site.
        max_sites: Optional cap on candidate sites (None == exhaustive).
        rerank_iterations: Evidence-reweighting rounds applied to tied
            candidates (0 == plain match/miss ordering).
        batch_size: Patterns per bit-parallel scoring batch.
        backend: Engine backend override for candidate simulation (``None``
            == follow ``AtpgOptions.sim_backend``).
    """

    nested = {"defect": DefectSpec}
    json_indent = None

    scenario: str
    defect: DefectSpec | None = None
    candidate_kinds: tuple[str, ...] = DEFECT_KINDS
    max_sites: int | None = None
    rerank_iterations: int = 2
    batch_size: int = 256
    backend: str | None = None

    def __post_init__(self) -> None:
        if not self.scenario:
            raise ValueError("a diagnosis needs a scenario name")
        for kind in self.candidate_kinds:
            if kind not in DEFECT_KINDS:
                raise ValueError(
                    f"unknown candidate kind {kind!r} "
                    f"(expected a subset of {DEFECT_KINDS})"
                )
        if not self.candidate_kinds:
            raise ValueError("a diagnosis needs at least one candidate kind")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.rerank_iterations < 0:
            raise ValueError("rerank_iterations must be non-negative")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown engine backend {self.backend!r} "
                f"(expected one of {BACKENDS})"
            )
        if isinstance(self.candidate_kinds, list):
            object.__setattr__(self, "candidate_kinds", tuple(self.candidate_kinds))


@dataclass
class ScoredCandidate(JsonRecord):
    """One ranked defect hypothesis (JSON-safe).

    ``rank`` is competition-style: 1 plus the number of candidates with a
    strictly better (misses+false_alarms, hits) key, so equivalent
    candidates — ones predicting the identical syndrome — share a rank.
    """

    rank: int
    kind: str
    net: str
    pin: int | None
    value: int | None
    polarity: str | None
    hits: int
    misses: int
    false_alarms: int
    score: float

    @property
    def errors(self) -> int:
        """Symmetric difference between predicted and observed syndromes."""
        return self.misses + self.false_alarms

    def describe(self) -> str:
        terminal = self.net if self.pin is None else f"{self.net}.in{self.pin}"
        if self.kind == "stuck-at":
            what = f"{terminal} stuck-at-{self.value}"
        else:
            what = f"{terminal} {self.kind} {self.polarity}"
        return (
            f"#{self.rank} {what}  hits={self.hits} "
            f"miss={self.misses} fa={self.false_alarms}"
        )

    def matches(self, defect: DefectSpec) -> bool:
        """Is this candidate exactly the given defect hypothesis?"""
        if self.kind != defect.kind or self.net != defect.net or self.pin != defect.pin:
            return False
        if defect.kind == "stuck-at":
            return self.value == defect.value
        return self.polarity == defect.polarity


@dataclass
class DiagnosisResult(JsonRecord):
    """The ranked outcome of one diagnosis run (JSON-round-trippable)."""

    nested = {"candidates": ScoredCandidate, "defect": DefectSpec}

    design: str
    scenario: str
    backend: str
    pattern_count: int
    fail_count: int
    site_count: int
    candidate_count: int
    truncated_sites: int
    candidates: list[ScoredCandidate] = field(default_factory=list)
    defect: DefectSpec | None = None
    #: Size of the rank-1 tie group — the classical diagnosis "resolution".
    resolution: int = 0
    #: Rank of the injected/known defect (None when unknown or not found).
    rank_of_defect: int | None = None
    wall_seconds: float = 0.0
    cache_hit: bool = False

    @property
    def recovered_at_rank_1(self) -> bool:
        return self.rank_of_defect == 1

    def top(self, count: int = 5) -> list[ScoredCandidate]:
        return self.candidates[:count]

    def summary(self) -> str:
        lines = [
            f"diagnosis of {self.design} / {self.scenario}: "
            f"{self.fail_count} failing bits over {self.pattern_count} patterns, "
            f"{self.candidate_count} candidates at {self.site_count} sites "
            f"(backend={self.backend}, {self.wall_seconds:.2f}s)"
        ]
        if self.defect is not None:
            where = "NOT FOUND" if self.rank_of_defect is None else f"rank {self.rank_of_defect}"
            lines.append(f"  injected defect {self.defect.describe()}: {where} "
                         f"(resolution {self.resolution})")
        for row in self.top():
            lines.append(f"  {row.describe()}")
        return "\n".join(lines)

    def same_ranking(self, other: "DiagnosisResult") -> bool:
        """Deterministic-field equality of the full ranking (ignores timing,
        backend and cache provenance — the backend-equivalence contract)."""
        if len(self.candidates) != len(other.candidates):
            return False
        return all(
            mine.to_dict() == theirs.to_dict()
            for mine, theirs in zip(self.candidates, other.candidates)
        )


# --------------------------------------------------------------------------
# Campaign-facing report
# --------------------------------------------------------------------------
@dataclass
class DiagnosisCell(JsonRecord):
    """One completed (design, scenario, defect) diagnosis grid cell."""

    nested = {"defect": DefectSpec}

    design: str
    scenario: str
    defect: DefectSpec
    rank_of_defect: int | None
    resolution: int
    candidate_count: int
    site_count: int
    fail_count: int
    pattern_count: int
    wall_seconds: float = 0.0
    cache_hit: bool = False
    #: Calibrated BP marginal of the injected defect's candidate (None for
    #: the legacy syndrome ranking, which produces no marginals).
    confidence: float | None = None

    @classmethod
    def from_result(
        cls, design: str, spec: DiagnosisSpec, result: DiagnosisResult
    ) -> "DiagnosisCell":
        """Fold one streamed :class:`DiagnosisResult` into its grid cell.

        The campaign runner builds every cell — executed or served from the
        cache — through this one constructor, so cell fields can never
        drift from the result they summarize.
        """
        assert spec.defect is not None, "diagnosis grid cells inject a defect"
        return cls(
            design=design,
            scenario=spec.scenario,
            defect=spec.defect,
            rank_of_defect=result.rank_of_defect,
            resolution=result.resolution,
            candidate_count=result.candidate_count,
            site_count=result.site_count,
            fail_count=result.fail_count,
            pattern_count=result.pattern_count,
            wall_seconds=result.wall_seconds,
            cache_hit=result.cache_hit,
            confidence=getattr(result, "confidence_of_defect", None),
        )


class DiagnosisReport(PlanReport):
    """Streaming design x scenario x defect diagnosis sweep results."""

    cell_type = DiagnosisCell

    def cell(self, design: str, scenario: str, defect: DefectSpec) -> DiagnosisCell:
        for cell in self.cells:
            if (
                cell.design == design
                and cell.scenario == scenario
                and cell.defect == defect
            ):
                return cell
        raise KeyError(
            f"no diagnosis cell for ({design!r}, {scenario!r}, {defect.describe()!r})"
        )

    def rank_one_count(self) -> int:
        return sum(1 for cell in self.cells if cell.rank_of_defect == 1)

    def summary(self) -> str:
        lines = []
        for cell in self.cells:
            rank = "-" if cell.rank_of_defect is None else str(cell.rank_of_defect)
            origin = "cache" if cell.cache_hit else "run"
            conf = "-" if cell.confidence is None else f"{cell.confidence:.3f}"
            lines.append(
                f"{cell.design:<20} {cell.scenario:<12} "
                f"{cell.defect.describe():<40} rank={rank:<3} "
                f"conf={conf:<6} res={cell.resolution:<3} "
                f"cands={cell.candidate_count:<5} "
                f"{origin:<5} {cell.wall_seconds:7.2f}s"
            )
        lines.append(
            f"recovered at rank 1: {self.rank_one_count()}/{len(self.cells)}"
        )
        return "\n".join(lines + self.fallback_notes())


# --------------------------------------------------------------------------
# Scoring
# --------------------------------------------------------------------------
def rerank_tied_scores(
    group: Sequence[int],
    hit_pairs: Sequence[set[tuple[int, int]]],
    iterations: int,
) -> dict[int, float]:
    """Message-passing style evidence reweighting for one tie group.

    This is the *cheap path* of candidate inference: only candidates inside
    one already-tied rank group exchange messages, so the cost is a few
    dict sweeps over the group's evidence instead of full factor-graph
    inference over every candidate.  Each observed failing bit sends its
    explaining candidates a message worth ``1 / (sum of the strengths of
    the candidates explaining it)``; candidate strengths are re-estimated
    from the received evidence each round.  Rare evidence — a failing bit
    only one candidate explains — dominates the final score, separating
    otherwise tied hypotheses.

    This is the degenerate single-defect form of the full factor-graph
    schedule in :func:`repro.volume.bp.max_product_bp`: evidence factors
    reweight their variable neighborhoods, but no cover constraint is
    enforced and no marginal is calibrated.  :func:`score_candidates` uses
    it for the tie groups of an already-ranked list.
    """
    strengths = {index: 1.0 for index in group}
    raw = dict(strengths)
    for _ in range(max(1, iterations)):
        weight: dict[tuple[int, int], float] = {}
        for index in group:
            for pair in hit_pairs[index]:
                weight[pair] = weight.get(pair, 0.0) + strengths[index]
        raw = {
            index: sum(1.0 / weight[pair] for pair in hit_pairs[index])
            for index in group
        }
        peak = max(raw.values(), default=0.0)
        strengths = {
            index: (raw[index] / peak if peak else 1.0) for index in group
        }
    return raw


@dataclass
class SyndromeEvidence:
    """Per-candidate syndrome/fail-log agreement for one pattern set.

    The shared evidence layer between the legacy single-defect ranking
    (:func:`score_candidates`) and the volume subsystem's factor graph
    (:mod:`repro.volume.graph`): both consume the identical engine-produced
    bit sets, so their verdicts can never disagree about the data.

    Attributes:
        observed: Every ``(pattern, node)`` failing bit of the log.
        hit_pairs: Per candidate, the observed bits its predicted syndrome
            explains.
        false_alarms: Per candidate, the number of predicted-but-unobserved
            failing bits.
    """

    observed: set[tuple[int, int]]
    hit_pairs: list[set[tuple[int, int]]]
    false_alarms: list[int]

    @property
    def total_observed(self) -> int:
        return len(self.observed)


class SyndromeDictionary:
    """A cause-effect fault dictionary for one pattern set, filled lazily.

    A candidate's predicted syndrome depends only on the design, the
    pattern set, the scenario's capture procedures and the candidate's
    fault; only the tally against the observed bits belongs to a fail log.
    So the dictionary keeps, for every homogeneous batch of
    :meth:`~repro.fault_sim.transition.FrameSimulator.iter_batches`, the
    launch/final good frames, the observation list with its ``po_only``
    flags and ``po_gate``, and every simulated fault's sparse syndrome: the
    nonzero ``(observation index, mask)`` pairs after PO gating, stored
    flat.  The good frames are the frame memo's (see
    :meth:`~repro.fault_sim.transition.FrameSimulator.iter_batches`), so a
    dictionary bound to a pattern set that fail-log capture has replayed
    on the same model simulates no good machine, and shares its planes
    read-only.  Syndromes are keyed by the fault ids of the design's
    :class:`~repro.diagnose.candidates.CandidateUniverse`, which every
    :class:`~repro.diagnose.candidates.CandidateSet` carries, so no fault
    is hashed per log, and a ``"transition"`` and an ``"inter-domain"``
    candidate on one transition fault share an entry.

    The first :meth:`fill` binds the dictionary to its pattern set, batch
    size and candidate universe; a later fill with another shape or from
    another universe raises ``ValueError`` rather than mixing ids.  Callers
    key dictionaries by content and never mix pattern sets in one: the
    diagnosis job kinds keep one per (pattern provider cache key, scenario,
    batch size) in the plan resources.  Concurrent diagnoses fill one
    dictionary under its lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._shape: tuple[int, int] | None = None
        #: The candidate universe whose fault ids key the syndromes.
        self.universe: CandidateUniverse | None = None
        self.batches: list[DictionaryBatch] = []
        #: Pattern index -> (batch position, bit within the batch).
        self.slot: dict[int, tuple[int, int]] = {}

    def __len__(self) -> int:
        """Number of (batch, fault) syndromes stored."""
        return sum(len(batch.syndromes) for batch in self.batches)

    def fill(
        self,
        frames_sim: FrameSimulator,
        items: Sequence[TestPattern],
        batch_size: int,
        candidate_set: CandidateSet,
        scheduler: FaultSimScheduler,
    ) -> None:
        """Make sure every candidate's syndrome is stored.

        Binds the dictionary on the first call (good frames of every
        batch, and the candidate set's universe), then simulates the faults
        each batch is missing in one ``syndrome_batch`` call.  Counts the
        (batch, fault) entries found and simulated as the
        ``diagnose.dictionary.hits``/``.misses`` metrics, once per call.
        """
        hits = misses = 0
        ids = candidate_set.fault_ids
        with self._lock:
            self._bind(frames_sim, items, batch_size, candidate_set.universe)
            every = list(dict.fromkeys(ids))
            intra = list(dict.fromkeys(
                fault_id for fault_id, label in zip(ids, candidate_set.labels)
                if label[0] != "inter-domain"
            ))
            faults_of = candidate_set.universe.faults
            for batch in self.batches:
                needed = every if batch.procedure.is_inter_domain else intra
                missing = [fault_id for fault_id in needed if fault_id not in batch.syndromes]
                if missing:
                    faults = [faults_of[fault_id] for fault_id in missing]
                    batch.store(missing, scheduler.syndrome_batch(
                        batch.final, faults, batch.observation, launch=batch.launch
                    ))
                misses += len(missing)
                hits += len(needed) - len(missing)
        metrics = active_metrics()
        if metrics is not None:
            metrics.inc("diagnose.dictionary.hits", hits)
            metrics.inc("diagnose.dictionary.misses", misses)

    def observed_masks(self, observed: set[tuple[int, int]]) -> list[list[int]]:
        """A log's failing ``(pattern, node)`` bits as per-batch,
        per-observation masks, in O(fails)."""
        masks = [[0] * len(batch.observation) for batch in self.batches]
        for pattern_index, node in observed:
            where = self.slot.get(pattern_index)
            if where is None:
                continue
            position, local = where
            obs_index = self.batches[position].obs_index.get(node)
            if obs_index is not None:
                masks[position][obs_index] |= 1 << local
        return masks

    def _bind(
        self,
        frames_sim: FrameSimulator,
        items: Sequence[TestPattern],
        batch_size: int,
        universe: CandidateUniverse | None,
    ) -> None:
        shape = (len(items), batch_size)
        if self._shape is not None:
            if shape != self._shape:
                raise ValueError(
                    f"syndrome dictionary built for {self._shape[0]} patterns "
                    f"in batches of {self._shape[1]}, used with {shape[0]} "
                    f"in batches of {shape[1]}"
                )
            if universe is not self.universe:
                raise ValueError(
                    "syndrome dictionary bound to another candidate universe "
                    f"(design {self.universe.model.name!r}); its fault ids "
                    "do not mix"
                )
            return
        if universe is None:
            raise ValueError("candidates carry no candidate universe")
        po_nodes = {idx for _, idx in frames_sim.model.po_nodes}
        batches: list[DictionaryBatch] = []
        slot: dict[int, tuple[int, int]] = {}
        for procedure, observation, chunk, batch, launch, final in (
            frames_sim.iter_batches(items, batch_size)
        ):
            if not observation:
                continue
            captured_d = frames_sim.captured_cells(procedure)
            po_gate = 0
            for local, pattern in enumerate(batch):
                if pattern.observe_pos:
                    po_gate |= 1 << local
            for local, pattern_index in enumerate(chunk):
                slot[pattern_index] = (len(batches), local)
            batches.append(
                DictionaryBatch(
                    procedure=procedure,
                    observation=observation,
                    obs_index={obs: index for index, obs in enumerate(observation)},
                    chunk=chunk,
                    # PO-only observation nodes are gated per pattern by
                    # observe_pos, mirroring what the tester (and
                    # capture_fail_log) compares.
                    po_only=[
                        obs in po_nodes and obs not in captured_d
                        for obs in observation
                    ],
                    po_gate=po_gate,
                    launch=launch,
                    final=final,
                )
            )
        self.batches, self.slot, self._shape = batches, slot, shape
        self.universe = universe


@dataclass
class DictionaryBatch:
    """One homogeneous pattern batch of a :class:`SyndromeDictionary`."""

    procedure: NamedCaptureProcedure
    observation: list[int]
    obs_index: dict[int, int]
    chunk: list[int]
    po_only: list[bool]
    po_gate: int
    launch: PackedPatterns
    final: PackedPatterns
    #: Fault id -> flat ``(obs index, mask, obs index, mask, ...)`` syndrome.
    syndromes: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def store(self, fault_ids: Sequence[int], rows: Sequence[Sequence[int]]) -> None:
        """Keep the nonzero masks of ``syndrome_batch`` rows, PO-gated and
        clipped to the batch."""
        full = self.final.full_mask
        for fault_id, masks in zip(fault_ids, rows):
            flat: list[int] = []
            for obs_index, mask in enumerate(masks):
                if self.po_only[obs_index]:
                    mask &= self.po_gate
                mask &= full
                if mask:
                    flat += (obs_index, mask)
            self.syndromes[fault_id] = tuple(flat)


def simulate_candidate_syndromes(
    model: CircuitModel,
    domain_map,
    setup: TestSetup,
    patterns: "PatternSet | Sequence[TestPattern]",
    candidate_set: CandidateSet,
    fail_log: FailLog,
    *,
    backend: str = "compiled",
    batch_size: int = 256,
    scheduler: FaultSimScheduler | None = None,
    dictionary: SyndromeDictionary | None = None,
) -> SyndromeEvidence:
    """Look up every candidate's syndrome and tally it against the log.

    Two parts.  The pattern set's :class:`SyndromeDictionary` holds each
    batch's good frames and every fault's sparse syndrome; the faults of
    this log's candidates it does not hold yet are simulated with the
    engine's per-observation-node kernels
    (:meth:`FaultSimScheduler.syndrome_batch`, one call per batch) and
    stored.  The tally is the log's own: its failing bits become per-batch
    masks in O(fails), and each candidate's hits and false alarms are
    counted in O(nonzero syndrome bits).  Inter-domain candidates count
    only on inter-domain procedures.

    ``dictionary`` is shared across the logs of one pattern set (the
    diagnosis job kinds keep one per pattern set in the plan resources);
    without one the call fills a throwaway dictionary.  The evidence is
    bit-identical either way, and across backends.  Pass an externally
    owned ``scheduler`` to reuse one compiled circuit over many diagnoses;
    ``backend`` is then ignored.
    """
    candidates: list[Candidate] = candidate_set.candidates
    if dictionary is None:
        dictionary = SyndromeDictionary()
    if scheduler is None:
        scheduler = FaultSimScheduler(model, backend=backend)
    dictionary.fill(
        FrameSimulator(model, domain_map, setup, scheduler),
        list(patterns), batch_size, candidate_set, scheduler,
    )

    observed = observed_fail_pairs(model, fail_log)
    hit_pairs: list[set[tuple[int, int]]] = [set() for _ in candidates]
    false_alarms = [0] * len(candidates)
    every = list(enumerate(candidate_set.fault_ids))
    intra = [
        (cand_index, fault_id) for cand_index, fault_id in every
        if candidate_set.labels[cand_index][0] != "inter-domain"
    ]
    for batch, obs_masks in zip(dictionary.batches, dictionary.observed_masks(observed)):
        syndromes, chunk, observation = batch.syndromes, batch.chunk, batch.observation
        for cand_index, fault_id in every if batch.procedure.is_inter_domain else intra:
            flat = syndromes[fault_id]
            alarms = 0
            for at in range(0, len(flat), 2):
                mask = flat[at + 1]
                matched = mask & obs_masks[flat[at]]
                alarms += (mask ^ matched).bit_count()
                if matched:
                    obs = observation[flat[at]]
                    hit_pairs[cand_index].update(
                        (chunk[local], obs) for local in mask_to_indices(matched)
                    )
            false_alarms[cand_index] += alarms
    return SyndromeEvidence(
        observed=observed, hit_pairs=hit_pairs, false_alarms=false_alarms
    )


def score_candidates(
    model: CircuitModel,
    domain_map,
    setup: TestSetup,
    patterns: "PatternSet | Sequence[TestPattern]",
    candidate_set: CandidateSet,
    fail_log: FailLog,
    *,
    backend: str = "compiled",
    batch_size: int = 256,
    rerank_iterations: int = 2,
    scheduler: FaultSimScheduler | None = None,
    dictionary: SyndromeDictionary | None = None,
) -> list[ScoredCandidate]:
    """Rank candidate defects by syndrome match against the fail log.

    The evidence layer (:func:`simulate_candidate_syndromes`) is shared
    with volume BP diagnosis; scores are bit-identical across backends.
    ``scheduler`` and ``dictionary`` are passed through to it.
    """
    score_started = time.perf_counter()
    items = list(patterns)
    candidates: list[Candidate] = candidate_set.candidates
    evidence = simulate_candidate_syndromes(
        model,
        domain_map,
        setup,
        items,
        candidate_set,
        fail_log,
        backend=backend,
        batch_size=batch_size,
        scheduler=scheduler,
        dictionary=dictionary,
    )
    hit_pairs = evidence.hit_pairs
    false_alarms = evidence.false_alarms
    total_observed = evidence.total_observed

    # ------------------------------------------------------------------ ranking
    order = sorted(
        range(len(candidates)),
        key=lambda index: (
            (total_observed - len(hit_pairs[index])) + false_alarms[index],
            -len(hit_pairs[index]),
            index,
        ),
    )
    keyed = [
        (
            (total_observed - len(hit_pairs[index])) + false_alarms[index],
            -len(hit_pairs[index]),
        )
        for index in order
    ]
    # Competition ranks over the primary key, then message-passing re-ranking
    # inside each tie group.
    rows: list[ScoredCandidate] = []
    position = 0
    while position < len(order):
        end = position
        while end < len(order) and keyed[end] == keyed[position]:
            end += 1
        group = order[position:end]
        if len(group) > 1 and rerank_iterations > 0:
            scores = rerank_tied_scores(group, hit_pairs, rerank_iterations)
            group = sorted(group, key=lambda index: (-scores[index], index))
        else:
            scores = {index: float(len(hit_pairs[index])) for index in group}
        rank = position + 1
        for index in group:
            kind, net, pin, value, polarity = candidate_set.labels[index]
            rows.append(
                ScoredCandidate(
                    rank=rank,
                    kind=kind,
                    net=net,
                    pin=pin,
                    value=value,
                    polarity=polarity,
                    hits=len(hit_pairs[index]),
                    misses=total_observed - len(hit_pairs[index]),
                    false_alarms=false_alarms[index],
                    score=round(scores[index], 9),
                )
            )
        position = end
    metrics = active_metrics()
    if metrics is not None:
        metrics.inc("diagnose.score_runs")
        metrics.inc("diagnose.candidates_scored", len(candidates))
    active_tracer().record(
        "diagnose:score",
        start=score_started,
        candidates=len(candidates),
        patterns=len(items),
    )
    return rows


def diagnosis_inputs(
    prepared,
    setup: TestSetup,
    patterns: "PatternSet | Sequence[TestPattern]",
    spec: DiagnosisSpec,
    fail_log: FailLog | None,
    injected: Sequence[DefectSpec],
    options: AtpgOptions | None,
    scheduler: FaultSimScheduler | None,
    *,
    mode: str = "intersection",
) -> tuple[str, list[TestPattern], FailLog, CandidateSet]:
    """The preamble :func:`run_diagnosis` and the BP plane's
    :func:`~repro.volume.graph.run_bp_diagnosis` share.

    Returns ``(backend, patterns, fail_log, candidates)``: the engine
    backend (``scheduler``'s, else ``spec.backend``, else ``options``),
    the patterns as a list, the fail log (captured from the ``injected``
    defects in one pass when none is given) and its candidates
    (``mode`` as in :func:`~repro.diagnose.candidates.extract_candidates`).
    """
    options = options or setup.options
    backend = (
        scheduler.backend_name if scheduler is not None
        else spec.backend or options.sim_backend
    )
    items = list(patterns)
    if fail_log is None:
        if not injected:
            raise ValueError("a diagnosis needs either a fail log or a defect to inject")
        fail_log = capture_fail_log(
            prepared.model,
            prepared.domain_map,
            prepared.scan,
            setup,
            items,
            injected,
            batch_size=spec.batch_size,
        )
    candidate_set = extract_candidates(
        prepared.model,
        fail_log,
        kinds=spec.candidate_kinds,
        max_sites=spec.max_sites,
        mode=mode,
    )
    return backend, items, fail_log, candidate_set


def run_diagnosis(
    prepared,
    setup: TestSetup,
    patterns: "PatternSet | Sequence[TestPattern]",
    spec: DiagnosisSpec,
    fail_log: FailLog | None = None,
    options: AtpgOptions | None = None,
    scheduler: FaultSimScheduler | None = None,
    dictionary: SyndromeDictionary | None = None,
) -> DiagnosisResult:
    """Execute one full diagnosis: capture (if needed), extract, score, rank.

    Args:
        prepared: The :class:`~repro.api.design.PreparedDesign` under test.
        setup: The constraint environment the patterns were generated under.
        patterns: The pattern set the failing device ran on the tester.
        spec: The declarative diagnosis configuration.
        fail_log: An externally captured fail log; ``None`` injects
            ``spec.defect`` and captures one (the closed-loop experiment).
        options: Engine execution knobs (``sim_backend``);
            ``spec.backend`` overrides the backend.
        scheduler: An externally owned scoring scheduler, reused across
            diagnoses to amortize one compiled circuit over a whole device
            stream (volume diagnosis); overrides the backend knob.
        dictionary: The pattern set's :class:`SyndromeDictionary`, shared
            across diagnoses on the same pattern set and batch size
            (``None``: a throwaway one).
    """
    started = time.perf_counter()
    backend, items, fail_log, candidate_set = diagnosis_inputs(
        prepared, setup, patterns, spec, fail_log,
        [spec.defect] if spec.defect else [], options, scheduler,
    )
    model = prepared.model
    rows = score_candidates(
        model,
        prepared.domain_map,
        setup,
        items,
        candidate_set,
        fail_log,
        backend=backend,
        batch_size=spec.batch_size,
        rerank_iterations=spec.rerank_iterations,
        scheduler=scheduler,
        dictionary=dictionary,
    )
    resolution = sum(1 for row in rows if row.rank == 1)
    defect = spec.defect or fail_log.defect
    rank_of_defect = None
    if defect is not None:
        for row in rows:
            if row.matches(defect):
                rank_of_defect = row.rank
                break
    metrics = active_metrics()
    if metrics is not None:
        metrics.inc("diagnose.runs")
        metrics.observe("diagnose.run_seconds", time.perf_counter() - started)
    active_tracer().record(
        "diagnose:run",
        start=started,
        design=model.name,
        scenario=spec.scenario,
        backend=backend,
        fails=fail_log.num_fails,
    )
    return DiagnosisResult(
        design=model.name,
        scenario=spec.scenario,
        backend=backend,
        pattern_count=len(items),
        fail_count=fail_log.num_fails,
        site_count=candidate_set.site_count,
        candidate_count=candidate_set.candidate_count,
        truncated_sites=candidate_set.truncated_sites,
        candidates=rows,
        defect=defect,
        resolution=resolution,
        rank_of_defect=rank_of_defect,
        wall_seconds=time.perf_counter() - started,
    )
