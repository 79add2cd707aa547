"""Unit tests for the loopy max-product BP kernel (`repro.volume.bp`).

These drive the message kernel directly on tiny hand-built factor graphs
where the LP optimum is obvious, so regressions in the schedule show up
as wrong selections rather than as subtle accuracy drift downstream.
"""

import math
import random

import pytest

from repro.volume import BpOptions, max_product_bp, rerank_tied_scores


class TestBpOptions:
    def test_defaults_are_valid(self):
        opts = BpOptions()
        assert opts.convexified
        assert 0.0 <= opts.damping < 1.0

    @pytest.mark.parametrize(
        "changes",
        [
            {"iterations": 0},
            {"damping": 1.0},
            {"damping": -0.1},
            {"tolerance": 0.0},
            {"base_cost": 0.0},
            {"false_alarm_weight": -1.0},
            {"ambiguity_threshold": -0.01},
        ],
    )
    def test_validation(self, changes):
        with pytest.raises(ValueError):
            BpOptions(**changes)

    def test_json_round_trip(self):
        opts = BpOptions(iterations=12, damping=0.25, convexified=False)
        assert BpOptions.from_json(opts.to_json()) == opts

    def test_with_overrides(self):
        opts = BpOptions().with_overrides(iterations=7)
        assert opts.iterations == 7
        assert opts.damping == BpOptions().damping


class TestMaxProductBp:
    def test_sole_explainer_is_forced_on(self):
        out = max_product_bp([1.0], [[0]])
        assert out.converged
        assert out.beliefs[0] < 0.0  # LP wants it selected
        assert out.marginals[0] > 0.5

    def test_symmetric_tie_stays_symmetric(self):
        out = max_product_bp([1.0, 1.0], [[0, 1]])
        assert out.converged
        assert out.beliefs[0] == out.beliefs[1]
        assert out.marginals[0] == out.marginals[1]
        # A shared bit is weaker evidence than sole ownership.
        sole = max_product_bp([1.0], [[0]])
        assert out.marginals[0] < sole.marginals[0]

    def test_multi_defect_cover_beats_redundant_candidate(self):
        # Candidate 0 solely explains bits 0 and 1; candidate 1 solely
        # explains bit 2; candidate 2 only re-explains bit 1.  The optimal
        # cover is {0, 1}.
        out = max_product_bp([1.0, 1.0, 1.0], [[0], [0, 2], [1]])
        assert out.converged
        assert out.marginals[0] > 0.5
        assert out.marginals[1] > 0.5
        assert out.marginals[2] < out.marginals[0]
        assert out.marginals[2] < out.marginals[1]

    def test_cheaper_candidate_wins_the_shared_bit(self):
        # Both cover the single bit; the false-alarm-laden one costs more.
        out = max_product_bp([1.0, 3.0], [[0, 1]])
        assert out.marginals[0] > out.marginals[1]

    def test_deterministic_and_schedule_invariant_selection(self):
        costs = [1.0, 1.25, 2.0, 1.0]
        factors = [[0, 1], [0], [1, 2], [3], [3, 2]]
        first = max_product_bp(costs, factors)
        second = max_product_bp(costs, factors)
        assert first.beliefs == second.beliefs
        assert first.marginals == second.marginals
        # Undamped / non-convexified schedules calibrate the marginals
        # differently but must agree on the candidate ordering here.
        plain = max_product_bp(
            costs, factors, BpOptions(damping=0.0, convexified=False)
        )

        def order(marginals):
            return sorted(range(len(marginals)), key=lambda j: -marginals[j])

        assert order(plain.marginals) == order(first.marginals)

    def test_validation(self):
        with pytest.raises(ValueError):
            max_product_bp([0.0], [[0]])
        with pytest.raises(ValueError):
            max_product_bp([1.0], [[]])
        with pytest.raises(ValueError):
            max_product_bp([1.0], [[1]])

    def test_iteration_budget_reported(self):
        out = max_product_bp([1.0, 1.0], [[0, 1]], BpOptions(iterations=2))
        assert out.iterations <= 2


def _reference_bp(costs, factors, opts):
    """The textbook O(d^2)-per-factor sweep: each message is the minimum
    over the other explainers, recomputed per edge.  The oracle the
    O(d) kernel must match bit for bit."""
    cost_list = [float(cost) for cost in costs]
    adjacency = [tuple(factor) for factor in factors]
    cap = (max(cost_list) if cost_list else 1.0) + 1.0
    degree = [0] * len(cost_list)
    for factor in adjacency:
        for j in factor:
            degree[j] += 1
    messages = [[0.0] * len(factor) for factor in adjacency]
    incoming = [0.0] * len(cost_list)
    sweeps = 0
    max_delta = math.inf
    converged = False
    for sweeps in range(1, opts.iterations + 1):
        max_delta = 0.0
        for e, factor in enumerate(adjacency):
            row = messages[e]
            mu = []
            for k, j in enumerate(factor):
                unary = cost_list[j] / degree[j] if opts.convexified else cost_list[j]
                mu.append(unary - (incoming[j] - row[k]))
            for k, j in enumerate(factor):
                if len(factor) == 1:
                    raw = cap
                else:
                    best = min(mu[i] for i in range(len(factor)) if i != k)
                    raw = min(max(best, 0.0), cap)
                updated = (1.0 - opts.damping) * raw + opts.damping * row[k]
                delta = abs(updated - row[k])
                if delta > max_delta:
                    max_delta = delta
                incoming[j] += updated - row[k]
                row[k] = updated
        if max_delta < opts.tolerance:
            converged = True
            break
    beliefs = [cost_list[j] - incoming[j] for j in range(len(cost_list))]
    marginals = [
        1.0 / (1.0 + math.exp(min(max(belief, -50.0), 50.0)))
        for belief in beliefs
    ]
    return beliefs, marginals, sweeps, converged, max_delta


def _random_graph(seed, *, equal_costs=False, singletons=False,
                  duplicates=False, orphan=False, twins=0, near_twins=0,
                  twin_factors=False):
    rng = random.Random(seed)
    n = rng.randint(3, 24)
    if equal_costs:
        costs = [1.0] * n
    else:
        costs = [rng.choice((1.0, 1.25, 1.5)) + 0.25 * rng.randint(0, 6)
                 for _ in range(n)]
    used = n - 1 if orphan else n  # the last candidate explains nothing
    factors = []
    for _ in range(rng.randint(2, 3 * n)):
        size = 1 if singletons and rng.random() < 0.3 else rng.randint(1, min(used, 8))
        factors.append(rng.sample(range(used), size))
        if duplicates and rng.random() < 0.4:
            factors.append(list(factors[-1]))
    for index in range(twins + near_twins):
        # A clone of an original candidate: same cost, and a slot at a
        # random position in every factor the original explains.  A near
        # twin also explains one factor its original does not.
        base = rng.randrange(used)
        clone = len(costs)
        costs.append(costs[base])
        for factor in factors:
            if base in factor:
                factor.insert(rng.randint(0, len(factor)), clone)
        if index >= twins:
            outside = [factor for factor in factors if base not in factor]
            if outside:
                rng.choice(outside).append(clone)
            else:
                factors.append([clone])
        elif twin_factors:
            # A factor made only of the twin group.
            group = [j for j in range(len(costs)) if costs[j] == costs[base]
                     and _members(factors, j) == _members(factors, base)]
            factors.insert(rng.randint(0, len(factors)), rng.sample(group, len(group)))
    return costs, factors


def _members(factors, j):
    return [e for e, factor in enumerate(factors) if j in factor]


def _assert_matches_reference(costs, factors, opts):
    out = max_product_bp(costs, factors, opts)
    beliefs, marginals, iterations, converged, max_delta = _reference_bp(
        costs, factors, opts
    )
    assert out.beliefs == beliefs
    assert out.marginals == marginals
    assert out.iterations == iterations
    assert out.converged == converged
    assert out.max_delta == max_delta
    # ``==`` equates -0.0 and 0.0; the sign bits must agree too.
    assert [math.copysign(1.0, b) for b in out.beliefs] == [
        math.copysign(1.0, b) for b in beliefs
    ]
    return out


class TestLeaveOneOutOracle:
    """The two-smallest kernel is bit-identical to the O(d^2) schedule."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs(self, seed):
        _assert_matches_reference(*_random_graph(seed), BpOptions())

    @pytest.mark.parametrize("seed", range(8))
    def test_equal_costs_tie_mu(self, seed):
        _assert_matches_reference(
            *_random_graph(100 + seed, equal_costs=True), BpOptions()
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_singleton_factors(self, seed):
        _assert_matches_reference(
            *_random_graph(200 + seed, singletons=True), BpOptions()
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_identical_factors(self, seed):
        _assert_matches_reference(
            *_random_graph(300 + seed, duplicates=True, equal_costs=seed % 2 == 0),
            BpOptions(),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_candidate_in_no_factor(self, seed):
        costs, factors = _random_graph(400 + seed, orphan=True)
        out = _assert_matches_reference(costs, factors, BpOptions())
        assert out.beliefs[-1] == costs[-1]

    @pytest.mark.parametrize("seed", range(6))
    def test_not_convexified(self, seed):
        _assert_matches_reference(
            *_random_graph(500 + seed, equal_costs=seed % 2 == 0),
            BpOptions(convexified=False),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_undamped(self, seed):
        _assert_matches_reference(
            *_random_graph(600 + seed, equal_costs=seed % 2 == 0),
            BpOptions(damping=0.0),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_budget_ends_unconverged(self, seed):
        costs, factors = _random_graph(700 + seed, duplicates=True)
        out = _assert_matches_reference(costs, factors, BpOptions(iterations=2))
        assert out.iterations == 2
        assert not out.converged


class TestTwinCollapse:
    """Candidates with the same cost and the same factors are swept as one
    representative; the result stays bit-identical to the O(d^2) oracle."""

    @pytest.mark.parametrize("seed", range(12))
    def test_plain_twins(self, seed):
        _assert_matches_reference(*_random_graph(800 + seed, twins=4), BpOptions())

    @pytest.mark.parametrize("seed", range(8))
    def test_equal_cost_different_membership(self, seed):
        costs, factors = _random_graph(900 + seed, near_twins=4, equal_costs=True)
        _assert_matches_reference(costs, factors, BpOptions())

    @pytest.mark.parametrize("seed", range(8))
    def test_factor_made_only_of_twins(self, seed):
        _assert_matches_reference(
            *_random_graph(1000 + seed, twins=3, twin_factors=True), BpOptions()
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_equal_costs_ties(self, seed):
        _assert_matches_reference(
            *_random_graph(1100 + seed, twins=5, near_twins=2, equal_costs=True,
                           twin_factors=seed % 2 == 0),
            BpOptions(),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_undamped(self, seed):
        _assert_matches_reference(
            *_random_graph(1200 + seed, twins=4, equal_costs=seed % 2 == 0,
                           twin_factors=True),
            BpOptions(damping=0.0),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_not_convexified(self, seed):
        _assert_matches_reference(
            *_random_graph(1300 + seed, twins=4, equal_costs=seed % 2 == 0,
                           singletons=True),
            BpOptions(convexified=False),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_factors_and_budget(self, seed):
        _assert_matches_reference(
            *_random_graph(1400 + seed, twins=3, duplicates=True),
            BpOptions(iterations=3),
        )

    def test_unsorted_factor_order(self):
        # Twins 0 and 2 sit in opposite orders around a rival with the
        # same cost; the lone factor of 2 and 0 is one made only of twins.
        costs = [1.0, 1.0, 1.0, 1.5]
        factors = [[2, 1, 0], [0, 3, 2], [2, 0], [1, 3], [3]]
        out = _assert_matches_reference(costs, factors, BpOptions())
        assert out.beliefs[0] == out.beliefs[2]

    def test_candidate_listed_twice(self):
        # 0 and 1 share cost and factors but repeat inside factor 0, so
        # their slots there may be summed in different orders: no collapse.
        costs = [1.0, 1.0, 1.0, 1.0]
        factors = [[0, 1, 1, 0], [1, 2, 0], [3, 2], [2, 3]]
        _assert_matches_reference(costs, factors, BpOptions())

    def test_groups(self):
        from repro.volume.bp import _twin_groups

        costs = [1.0, 1.0, 1.0, 2.0, 1.0, 1.0]
        members = [[0, 2], [0, 2], [0, 1], [0, 2], [], []]
        assert _twin_groups(costs, members, set()) == ({1: 0}, {0})
        # A candidate listed twice in one factor stays on its own.
        members = [[0, 0], [0, 0], [1], [1]]
        assert _twin_groups([1.0] * 4, members, {0, 1}) == ({3: 2}, {2})


class TestRerankDelegation:
    """The classical ranking's tie re-ranker, `rerank_tied_scores`, as
    `repro.volume` re-exports it."""

    def _case(self):
        hit_pairs = [
            {(0, "a"), (1, "b"), (2, "c")},  # owns the rare bit (2, "c")
            {(0, "a"), (1, "b")},
            {(0, "a")},
        ]
        return [0, 1, 2], hit_pairs

    def test_rare_evidence_dominates(self):
        group, hit_pairs = self._case()
        scores = rerank_tied_scores(group, hit_pairs, 2)
        assert scores[0] > scores[1] > scores[2]
