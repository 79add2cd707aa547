"""Message-passing kernels for candidate-selection inference.

This is the numeric core of :mod:`repro.volume`: damped max-product
(min-sum) loopy belief propagation over the candidate x failing-bit factor
graph, posed as the LP relaxation of weighted set cover — select the
cheapest set of candidate defects whose predicted syndromes jointly cover
every observed failing bit (Gelfand/Shin, "Belief Propagation for Linear
Programming").  The optional convexified schedule splits each candidate's
unary cost uniformly across its factor neighborhood, the reweighting that
makes the free energy convex and the marginals usable as confidences
(Weiss et al., "MAP Estimation, Linear Programming and Belief Propagation
with Convex Free Energies").

The module is deliberately a leaf: pure Python over plain lists and dicts,
importing nothing from the diagnosis or engine planes.  (The cheap
tie-only re-ranker, :func:`repro.diagnose.diagnose.rerank_tied_scores`, is
a separate kernel and lives next to its one caller.)  Every operation
iterates in a fixed order over the adjacency lists, so results are
bit-identical for a given graph regardless of which engine backend
produced the evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.records import JsonRecord

#: Belief magnitudes beyond this are saturated before the logistic squash.
_BELIEF_CLIP = 50.0


# --------------------------------------------------------------------------
# Loopy max-product BP over the cover factor graph
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class BpOptions(JsonRecord):
    """Knobs of the loopy-BP inference (JSON-round-trippable).

    Attributes:
        iterations: Maximum message-update sweeps.
        damping: Fraction of the previous factor-to-variable message kept
            per sweep (0 == undamped); damping stabilizes the loopy graph's
            oscillations around symmetric candidates.
        convexified: Split each candidate's unary cost uniformly across its
            factor neighborhood (Weiss-style convex free energy) instead of
            charging it whole on every edge.
        tolerance: Sweep-to-sweep max message delta declaring convergence.
        base_cost: Unary cost of turning any candidate on (the model-
            complexity prior of the LP objective).
        false_alarm_weight: Extra unary cost per predicted-but-unobserved
            failing bit — candidates that overpredict pay to be selected.
        ambiguity_threshold: Marginal gap below which two evidence-sharing
            candidates count as an ambiguous pair (adaptive ATPG's worklist).
    """

    json_indent = None

    iterations: int = 48
    damping: float = 0.5
    convexified: bool = True
    tolerance: float = 1e-9
    base_cost: float = 1.0
    false_alarm_weight: float = 0.25
    ambiguity_threshold: float = 0.05

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("BP needs at least one iteration")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.base_cost <= 0.0:
            raise ValueError("base_cost must be positive")
        if self.false_alarm_weight < 0.0:
            raise ValueError("false_alarm_weight must be non-negative")
        if self.ambiguity_threshold < 0.0:
            raise ValueError("ambiguity_threshold must be non-negative")


@dataclass
class BpOutcome:
    """The inference output of one :func:`max_product_bp` run.

    Attributes:
        beliefs: Per-candidate min-sum belief ``cost(on) - cost(off)`` —
            negative means the LP wants the candidate selected.
        marginals: Calibrated confidences ``1 / (1 + exp(belief))``.
        iterations: Sweeps actually run.
        converged: Whether the message deltas dropped under tolerance.
        max_delta: Final sweep's largest message change.
    """

    beliefs: list[float]
    marginals: list[float]
    iterations: int
    converged: bool
    max_delta: float


def max_product_bp(
    costs: Sequence[float],
    factors: Sequence[Sequence[int]],
    options: BpOptions | None = None,
) -> BpOutcome:
    """Damped max-product loopy BP on the candidate-cover factor graph.

    The graph is bipartite: one binary variable per candidate (``costs[j]``
    is the unary cost of switching it on) and one OR factor per observed
    failing bit (``factors[e]`` lists the candidates whose predicted
    syndrome covers that bit; every listed index must be in range, and a
    factor with no explainers must be dropped by the caller).

    Min-sum messages, all normalized so the OFF state is 0:

    * variable to factor: ``mu = c_j - sum of other factors' messages``
      (with ``c_j`` split across edges under the convexified schedule);
    * factor to variable: ``m = clip(min of the other explainers' mu, 0,
      CAP)`` — the extra cost the factor charges candidate ``j`` for being
      off, capped at CAP (just above the costliest candidate) so a sole
      explainer is forced on rather than driven to infinity.

    Each factor's leave-one-out minima come from its two smallest ``mu``
    values: ``low`` at the first argmin (a strict ``<`` scan, as ``min``
    does) and ``second``, the minimum over every other slot.  The
    first-argmin slot receives ``second`` and every other slot ``low``.
    Since ``min`` keeps the first of equal values, these are the very
    floats — ties and signed zeros included — that a per-edge ``min`` over
    the other explainers returns, so the result is bit-identical to that
    textbook O(d^2)-per-factor form at O(d) per factor: a sweep costs
    O(edges).  The clip runs once per factor on the two values, and the
    convexified unary split is computed once before the sweeps.

    Twin candidates — the same cost and the same factors — are collapsed
    to one representative before the sweeps.  Twins start with the same
    messages, their ``mu`` is the same float in every factor they share,
    so every update they receive is the same too: their messages stay
    bit-identical in every sweep.  Only the leave-one-out minimum sees the
    difference between one twin and several: when a representative that
    stands for two or more twins is a factor's first argmin, the twin it
    hides still holds ``low``, so it receives ``low`` rather than
    ``second``.  A factor keeps its original size for the sole-explainer
    cap.  This only drops variable-side duplicates and keeps the factor
    sweep order, so it is exact.  Merging duplicate *factors* is not: a
    merged factor updates once where its copies updated one after another,
    which changes the floats of every later message.

    Deterministic: messages update in factor order, sums run in adjacency
    order, no randomness — the same graph yields bit-identical beliefs on
    every platform, which is what lets volume diagnosis promise backend
    equivalence end to end.
    """
    opts = options or BpOptions()
    cost_list = [float(cost) for cost in costs]
    if any(cost <= 0.0 for cost in cost_list):
        raise ValueError("BP candidate costs must be positive")
    adjacency = [tuple(factor) for factor in factors]
    # members[j]: the factors candidate j explains, in factor order; a
    # candidate listed twice in one factor never joins a twin group.
    members: list[list[int]] = [[] for _ in cost_list]
    repeated: set[int] = set()
    for e, factor in enumerate(adjacency):
        if not factor:
            raise ValueError("an evidence factor needs at least one explainer")
        for j in factor:
            if not 0 <= j < len(cost_list):
                raise ValueError(f"factor references unknown candidate {j}")
            where = members[j]
            if where and where[-1] == e:
                repeated.add(j)
            where.append(e)
    cap = (max(cost_list) if cost_list else 1.0) + 1.0
    unary = [
        cost / len(where) if opts.convexified and where else cost
        for cost, where in zip(cost_list, members)
    ]
    twin_of, plural = _twin_groups(cost_list, members, repeated)
    # One slot per twin group: the representative's, flagged plural.
    sweep = [tuple(j for j in factor if j not in twin_of) for factor in adjacency]
    flags: list[tuple[bool, ...] | None] = [
        tuple(j in plural for j in factor)
        if any(j in plural for j in factor) else None
        for factor in sweep
    ]
    keep = opts.damping
    take = 1.0 - keep
    # messages[e][k] pairs with sweep[e][k]: factor e -> candidate j.
    messages = [[0.0] * len(factor) for factor in sweep]
    incoming = [0.0] * len(cost_list)  # sum of factor->variable messages
    sweeps = 0
    max_delta = math.inf
    converged = False
    for sweeps in range(1, opts.iterations + 1):
        max_delta = 0.0
        for factor, row, original, flag in zip(sweep, messages, adjacency, flags):
            # mu_{j->e}: unary cost (possibly split) minus the other
            # factors' pressure; subtracting this factor's own previous
            # message keeps the exchange extrinsic.
            mu = [unary[j] - (incoming[j] - old) for j, old in zip(factor, row)]
            if len(original) == 1:
                first, low, second = 0, cap, cap
            else:
                # Leave-one-out minima: slot ``first`` sees ``second``,
                # every other slot ``low`` (bit-identical; see docstring).
                low = min(mu)
                first = mu.index(low)
                if flag is not None and flag[first]:
                    second = low  # a hidden twin of ``first`` holds ``low``
                else:
                    second = min(mu[:first] + mu[first + 1:])
                low = min(max(low, 0.0), cap)
                second = min(max(second, 0.0), cap)
            for k, j in enumerate(factor):
                old = row[k]
                updated = take * (second if k == first else low) + keep * old
                delta = abs(updated - old)
                if delta > max_delta:
                    max_delta = delta
                incoming[j] += updated - old
                row[k] = updated
        if max_delta < opts.tolerance:
            converged = True
            break
    for j, representative in twin_of.items():
        incoming[j] = incoming[representative]
    beliefs = [cost_list[j] - incoming[j] for j in range(len(cost_list))]
    marginals = [
        1.0 / (1.0 + math.exp(min(max(belief, -_BELIEF_CLIP), _BELIEF_CLIP)))
        for belief in beliefs
    ]
    return BpOutcome(
        beliefs=beliefs,
        marginals=marginals,
        iterations=sweeps,
        converged=converged,
        max_delta=max_delta,
    )


def _twin_groups(
    costs: Sequence[float], members: Sequence[Sequence[int]], repeated: set[int]
) -> tuple[dict[int, int], set[int]]:
    """Twin groups of candidates with equal cost and equal factors.

    Returns ``(twin_of, plural)``: every twin but the first of its group
    maps to that first one, its representative; ``plural`` holds the
    representatives with at least one twin.
    """
    leaders: dict[tuple[float, tuple[int, ...]], int] = {}
    twin_of: dict[int, int] = {}
    for j, where in enumerate(members):
        if not where or j in repeated:
            continue
        leader = leaders.setdefault((costs[j], tuple(where)), j)
        if leader != j:
            twin_of[j] = leader
    return twin_of, set(twin_of.values())
