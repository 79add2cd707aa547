"""Adaptive diagnostic ATPG — distinguishing patterns for ambiguous pairs.

When BP cannot separate two candidates (their marginal gap stays under
``BpOptions.ambiguity_threshold``, i.e. the applied pattern set predicts
near-identical syndromes for both), the fix is not more inference — it is
*more evidence*.  This module closes that loop through the existing ATPG
seam: for each ambiguous pair it asks the pattern generator for a test
targeting one hypothesis, keeps it only if the two hypotheses' captured
responses actually differ on it, re-captures the device on the extended
pattern set and re-runs BP — until the pair count stops improving or the
round budget is exhausted.

Closed-loop only: re-capturing needs the injected defects (on a real
tester floor this round trip is a re-test of the die; here the
:class:`~repro.diagnose.DefectInjector` plays the die).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.atpg.config import TestSetup
from repro.diagnose.defects import DefectSpec
from repro.diagnose.diagnose import DiagnosisSpec
from repro.diagnose.faillog import FailLog, capture_fail_log
from repro.engine.scheduler import FaultSimScheduler
from repro.obs.telemetry import active_metrics, active_tracer
from repro.patterns.pattern import PatternSet, TestPattern
from repro.volume.bp import BpOptions
from repro.volume.graph import BpDiagnosisResult, run_bp_diagnosis


@dataclass
class AdaptiveOutcome:
    """The result of one adaptive-ATPG separation loop (JSON-safe apart
    from the embedded result)."""

    result: BpDiagnosisResult
    rounds: int
    patterns_added: int
    initial_ambiguous: int
    final_ambiguous: int
    #: Ambiguous-pair count after each re-diagnosis (index 0 == initial).
    history: list[int] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        """Did the loop reduce the ambiguous-pair count at all?"""
        return self.final_ambiguous < self.initial_ambiguous

    @property
    def resolved(self) -> bool:
        """Did the loop separate every ambiguous pair?"""
        return self.final_ambiguous == 0

    def summary(self) -> str:
        trail = " -> ".join(str(count) for count in self.history)
        return (
            f"adaptive ATPG: {self.rounds} round(s), "
            f"{self.patterns_added} pattern(s) added, "
            f"ambiguous pairs {trail}"
        )


def _spec_of_row(row) -> DefectSpec:
    """The defect hypothesis a ranked candidate row encodes."""
    return DefectSpec(
        kind=row.kind, net=row.net, pin=row.pin,
        value=row.value, polarity=row.polarity,
    )


def _atpg_engine(prepared, setup: TestSetup, kind: str):
    """A single-fault pattern generator through the standard ATPG seam."""
    from repro.atpg.stuck_at import StuckAtAtpg
    from repro.atpg.transition import TransitionAtpg

    if kind == "stuck-at":
        return StuckAtAtpg(prepared.model, prepared.domain_map, setup)
    # Transition and inter-domain hypotheses both lower to transition
    # faults (DefectSpec.as_fault); the at-speed generator targets them.
    return TransitionAtpg(prepared.model, prepared.domain_map, setup)


def generate_distinguishing_pattern(
    prepared,
    setup: TestSetup,
    spec_a: DefectSpec,
    spec_b: DefectSpec,
    *,
    engines: "dict[str, object] | None" = None,
    batch_size: int = 256,
) -> "TestPattern | None":
    """One pattern on which the two hypotheses miscompare differently.

    Asks the generator for a test targeting each hypothesis in turn and
    keeps the first whose *captured* responses (per-pattern, per-chain,
    per-cycle fail bits — exactly the ATE comparison) differ between the
    two injected devices.  Returns ``None`` when neither target yields a
    separating pattern (untestable site or backtrack budget exhausted) —
    the pair is unresolvable with this generator budget.
    """
    engines = engines if engines is not None else {}
    for target in (spec_a, spec_b):
        if target.kind not in engines:
            try:
                engines[target.kind] = _atpg_engine(prepared, setup, target.kind)
            except ValueError:
                # The scenario's procedures cannot drive this fault family
                # (e.g. a transition hypothesis under a 1-pulse stuck-at
                # setup) — this target is simply not generatable here.
                engines[target.kind] = None
        engine = engines[target.kind]
        if engine is None:
            continue
        pattern, _statuses = engine._generate_for_fault(
            target.as_fault(prepared.model)
        )
        if pattern is None:
            continue
        responses = [
            capture_fail_log(
                prepared.model, prepared.domain_map, prepared.scan, setup,
                [pattern], [candidate], batch_size=batch_size,
            ).fails
            for candidate in (spec_a, spec_b)
        ]
        if responses[0] != responses[1]:
            return pattern
    return None


def adaptive_diagnose(
    prepared,
    setup: TestSetup,
    patterns: "PatternSet | Sequence[TestPattern]",
    spec: DiagnosisSpec,
    bp: "BpOptions | None" = None,
    *,
    defects: "Sequence[DefectSpec] | None" = None,
    fail_log: "FailLog | None" = None,
    options: object = None,
    scheduler: "FaultSimScheduler | None" = None,
    max_rounds: int = 3,
    pairs_per_round: int = 2,
) -> AdaptiveOutcome:
    """Diagnose, then iteratively separate BP's ambiguous pairs.

    Runs :func:`~repro.volume.graph.run_bp_diagnosis` once, then while
    ambiguous pairs remain: generate up to ``pairs_per_round``
    distinguishing patterns (one per pair, verified to actually split the
    pair's captured responses), extend the pattern set, re-capture the
    injected device and re-diagnose.  Stops when the pairs are gone, a
    round adds no pattern (generator budget/untestability), or
    ``max_rounds`` is spent.

    Args:
        prepared: The :class:`~repro.api.design.PreparedDesign` under test.
        setup: The constraint environment of the original pattern set.
        patterns: The scenario pattern set the device originally ran.
        spec: The per-log diagnosis configuration.
        bp: BP inference knobs (the ambiguity threshold lives here).
        defects: The injected defects (closed loop); defaults to
            ``fail_log.defects`` or ``spec.defect``.
        fail_log: The initial captured log; ``None`` captures one.
        options: Engine execution knobs.
        scheduler: Externally owned scoring scheduler (caller closes it).
        max_rounds: Re-capture/re-diagnose budget.
        pairs_per_round: Ambiguous pairs targeted per round.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    if pairs_per_round < 1:
        raise ValueError("pairs_per_round must be positive")
    items = list(patterns)
    result = run_bp_diagnosis(
        prepared, setup, items, spec, bp,
        fail_log=fail_log, defects=defects, options=options,
        scheduler=scheduler,
    )
    injected = list(result.defects)
    history = [len(result.ambiguous_pairs)]
    rounds = 0
    added = 0
    if injected:
        engines: dict[str, object] = {}
        metrics = active_metrics()
        tracer = active_tracer()
        while result.ambiguous_pairs and rounds < max_rounds:
            fresh: list[TestPattern] = []
            with tracer.span(
                "volume:adaptive", round=rounds + 1,
                ambiguous=len(result.ambiguous_pairs),
            ):
                for pair in result.ambiguous_pairs[:pairs_per_round]:
                    row_a = result.candidates[int(pair["a"])]
                    row_b = result.candidates[int(pair["b"])]
                    pattern = generate_distinguishing_pattern(
                        prepared, setup,
                        _spec_of_row(row_a), _spec_of_row(row_b),
                        engines=engines, batch_size=spec.batch_size,
                    )
                    if pattern is not None:
                        fresh.append(pattern)
            if not fresh:
                break
            items = items + fresh
            added += len(fresh)
            rounds += 1
            if metrics is not None:
                metrics.inc("volume.adaptive_rounds")
                metrics.inc("volume.adaptive_patterns", len(fresh))
            result = run_bp_diagnosis(
                prepared, setup, items, spec, bp,
                defects=injected, options=options, scheduler=scheduler,
            )
            history.append(len(result.ambiguous_pairs))
    return AdaptiveOutcome(
        result=result,
        rounds=rounds,
        patterns_added=added,
        initial_ambiguous=history[0],
        final_ambiguous=history[-1],
        history=history,
    )
