"""Executor semantics: events, skipping, pruning, cancellation, retry, spill.

These tests drive the executor with cheap synthetic job kinds (registered
below at module level, so forked process-pool workers resolve them too);
the heavyweight scenario/diagnosis kinds are covered by the equivalence
suite and the API tests.
"""

from __future__ import annotations

import collections
import gc
import threading
import time
import weakref

import pytest

from repro.engine.cache import ResultCache
from repro.obs import Telemetry
from repro.runtime import (
    EXECUTOR_BACKENDS,
    Event,
    Executor,
    Job,
    Plan,
    PlanCancelled,
    register_backend,
    register_job_kind,
)


# --------------------------------------------------------------------------
# Synthetic job kinds
# --------------------------------------------------------------------------
@register_job_kind("echo")
def _echo(resources, params, deps):
    return params.get("value")


@register_job_kind("sum-deps")
def _sum_deps(resources, params, deps):
    return params.get("base", 0) + sum(deps.values())


@register_job_kind("flaky")
def _flaky(resources, params, deps):
    counter = resources.setdefault("attempts", {"n": 0})
    counter["n"] += 1
    if counter["n"] < params["succeed_on"]:
        raise RuntimeError(f"attempt {counter['n']} failed")
    return counter["n"]


@register_job_kind("boom")
def _boom(resources, params, deps):
    raise RuntimeError("boom")


@register_job_kind("unpicklable")
def _unpicklable(resources, params, deps):
    return lambda: params["value"]  # lambdas cannot cross a process boundary


@register_job_kind("sleep")
def _sleep(resources, params, deps):
    time.sleep(params["seconds"])
    return params["seconds"]


@register_job_kind("tallied")
def _tallied(resources, params, deps):
    """Appends its key to a tally file (visible from any worker process)."""
    with open(params["tally"], "a", encoding="utf-8") as handle:
        handle.write(params["key"] + "\n")
    if params.get("fail"):
        raise RuntimeError(f"tallied {params['key']} failed")
    return params["value"]


class Boxed:
    """A job value a weak reference can watch."""

    def __init__(self, value) -> None:
        self.value = value


@register_job_kind("boxed")
def _boxed(resources, params, deps):
    return Boxed(params["value"])


def echo_plan(count: int = 3, *, keys: bool = False, name: str = "echo-plan") -> Plan:
    return Plan(
        name=name,
        jobs=tuple(
            Job(
                id=f"echo:{i}", kind="echo", params={"value": i},
                cache_key=f"{name}-key-{i}" if keys else None,
            )
            for i in range(count)
        ),
    )


# --------------------------------------------------------------------------
# Scheduling + events
# --------------------------------------------------------------------------
class TestExecutionBasics:
    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_values_identical_on_every_backend(self, backend):
        result = Executor(backend=backend).execute(echo_plan(5))
        assert [result.value_of(f"echo:{i}") for i in range(5)] == list(range(5))
        assert result.backend == backend
        assert not result.cancelled and not result.fallbacks

    def test_dependency_values_flow_between_waves(self):
        plan = Plan(
            name="waves",
            jobs=(
                Job(id="a", kind="echo", params={"value": 2}),
                Job(id="b", kind="echo", params={"value": 3}),
                Job(id="total", kind="sum-deps", params={"base": 10},
                    deps=("a", "b")),
            ),
        )
        result = Executor(backend="threads").execute(plan)
        assert result.value_of("total") == 15

    def test_event_stream_shape(self):
        events: list[Event] = []
        Executor(on_event=events.append).execute(echo_plan(2))
        kinds = [event.kind for event in events]
        assert kinds == [
            "plan_started",
            "job_started", "job_finished", "plan_progress",
            "job_started", "job_finished", "plan_progress",
            "plan_finished",
        ]
        assert events[2].completed == 1 and events[2].total == 2
        finished = [e for e in events if e.kind == "job_finished"]
        assert [e.value for e in finished] == [0, 1]
        assert all(event.describe() for event in events)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            Executor(backend="warp-drive")

    @pytest.mark.parametrize("name", EXECUTOR_BACKENDS)
    def test_builtin_names_cannot_be_registered(self, name):
        """A plugin must never silently replace a built-in pool (``_run_wave``
        consults registered factories before the thread path)."""
        with pytest.raises(ValueError, match="reserved for a built-in"):
            register_backend(name, lambda **kwargs: None)

    def test_pool_knob_validation_shares_the_common_message(self):
        with pytest.raises(ValueError, match=r"workers must be a positive integer \(got 0\)"):
            Executor(backend="threads", max_workers=0)

    def test_job_failure_propagates_after_job_failed_event(self):
        events: list[Event] = []
        plan = Plan(name="fail", jobs=(Job(id="x", kind="boom"),))
        with pytest.raises(RuntimeError, match="boom"):
            Executor(on_event=events.append).execute(plan)
        assert any(e.kind == "job_failed" and e.job == "x" for e in events)


class TestRetries:
    def test_job_level_retries_rerun_next_to_the_work(self):
        plan = Plan(
            name="retry",
            jobs=(Job(id="f", kind="flaky", params={"succeed_on": 3}, retries=2),),
        )
        result = Executor().execute(plan, {"attempts": {"n": 0}})
        assert result["f"].value == 3
        assert result["f"].attempts == 3

    def test_executor_default_retries_apply_when_job_pins_none(self):
        plan = Plan(name="retry", jobs=(Job(id="f", kind="flaky",
                                            params={"succeed_on": 2}),))
        with pytest.raises(RuntimeError):
            Executor().execute(plan, {"attempts": {"n": 0}})
        result = Executor(retries=1).execute(plan, {"attempts": {"n": 0}})
        assert result["f"].attempts == 2


# --------------------------------------------------------------------------
# Cache-aware skipping, seeds, pruning
# --------------------------------------------------------------------------
class TestSkipping:
    def test_cache_hits_skip_jobs_and_misses_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = echo_plan(3, keys=True)
        first = Executor(cache=cache).execute(plan)
        assert first.executed() == ["echo:0", "echo:1", "echo:2"]
        second = Executor(cache=cache).execute(plan)
        assert second.executed() == []
        assert second.skipped("cache") == ["echo:0", "echo:1", "echo:2"]
        assert [second.value_of(f"echo:{i}") for i in range(3)] == [0, 1, 2]

    def test_seeds_short_circuit_like_cache_hits(self):
        result = Executor().execute(echo_plan(2), seeds={"echo:1": 99})
        assert result["echo:1"].skipped and result["echo:1"].reason == "seed"
        assert result.value_of("echo:1") == 99
        assert result.executed() == ["echo:0"]

    def test_if_needed_provider_pruned_when_consumers_satisfied(self):
        plan = Plan(
            name="prune",
            jobs=(
                Job(id="provider", kind="echo", params={"value": 1}, if_needed=True),
                Job(id="consumer", kind="sum-deps", deps=("provider",),
                    cache_key="prune-consumer"),
            ),
        )
        events: list[Event] = []
        result = Executor(on_event=events.append).execute(
            plan, seeds={"consumer": 41}
        )
        assert result["provider"].reason == "unneeded"
        assert result.executed() == []
        skip_reasons = {e.job: e.reason for e in events if e.kind == "job_skipped"}
        assert skip_reasons == {"consumer": "seed", "provider": "unneeded"}

    def test_executor_attached_cache_works_without_plan_level_cache(self, tmp_path):
        """A cache configured on the Executor itself must not be inert."""
        cache = ResultCache(tmp_path)
        plan = echo_plan(3, keys=True, name="executor-cache")
        first = Executor(cache=cache).execute(plan)
        assert len(first.executed()) == 3
        second = Executor(cache=cache).execute(plan)
        assert second.skipped("cache") == ["echo:0", "echo:1", "echo:2"]

    def test_cached_provider_pruned_without_touching_its_cache_entry(self, tmp_path):
        """Prune wins over probe: a provider whose consumers are all cached
        must be skipped as 'unneeded', never deserialized from the cache."""
        cache = ResultCache(tmp_path)
        plan = Plan(
            name="warm",
            jobs=(
                Job(id="provider", kind="echo", params={"value": 1},
                    cache_key="warm-provider", if_needed=True),
                Job(id="consumer", kind="sum-deps", deps=("provider",),
                    cache_key="warm-consumer"),
            ),
        )
        Executor(cache=cache).execute(plan)  # cold: both stored
        warm = Executor(cache=cache).execute(plan)
        assert warm["consumer"].reason == "cache"
        assert warm["provider"].reason == "unneeded"
        assert warm["provider"].value is None

    def test_pooled_failure_blames_the_job_that_raised(self):
        plan = Plan(
            name="blame",
            jobs=(
                Job(id="slow-ok", kind="sleep", params={"seconds": 0.2}),
                Job(id="fast-boom", kind="boom"),
            ),
        )
        events: list[Event] = []
        with pytest.raises(RuntimeError, match="boom"):
            Executor(backend="threads", on_event=events.append).execute(plan)
        failed = [e for e in events if e.kind == "job_failed"]
        assert [e.job for e in failed] == ["fast-boom"]

    def test_if_needed_provider_runs_when_a_consumer_must_run(self):
        plan = Plan(
            name="needed",
            jobs=(
                Job(id="provider", kind="echo", params={"value": 21}, if_needed=True),
                Job(id="consumer", kind="sum-deps", deps=("provider",)),
            ),
        )
        result = Executor().execute(plan)
        assert result.value_of("consumer") == 21
        assert set(result.executed()) == {"provider", "consumer"}


# --------------------------------------------------------------------------
# Cancellation + kill-and-resume
# --------------------------------------------------------------------------
class TestCancellation:
    def test_unknown_job_lookup_is_a_key_error_not_cancellation(self):
        result = Executor().execute(echo_plan(2))
        with pytest.raises(KeyError, match="has no job 'typo'"):
            result["typo"]
        with pytest.raises(KeyError):
            result.value_of("typo")

    def test_cancel_from_event_callback_stops_scheduling(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = Executor(cache=cache)
        seen: list[str] = []

        def killer(event: Event) -> None:
            if event.kind == "job_finished":
                seen.append(event.job)
                if len(seen) == 2:
                    executor.cancel()

        plan = echo_plan(5, keys=True, name="killable")
        result = executor.execute(plan, on_event=killer)
        assert result.cancelled
        assert len(result.results) == 2
        with pytest.raises(PlanCancelled, match="echo:4"):
            result["echo:4"]

    def test_kill_and_resume_reruns_zero_completed_jobs(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = Executor(cache=cache)

        def killer(event: Event) -> None:
            if event.kind == "job_finished" and event.job == "echo:1":
                executor.cancel()

        plan = echo_plan(5, keys=True, name="resumable")
        first = executor.execute(plan, on_event=killer)
        assert first.cancelled and len(first.results) == 2

        # Fresh executor, same cache: the completed prefix must be served
        # entirely from the cache — zero re-runs — and only the remainder
        # executes.
        resumed = Executor(cache=cache).execute(plan)
        assert not resumed.cancelled
        assert resumed.skipped("cache") == ["echo:0", "echo:1"]
        assert resumed.executed() == ["echo:2", "echo:3", "echo:4"]
        assert [resumed.value_of(f"echo:{i}") for i in range(5)] == list(range(5))

    def test_processes_cancel_mid_wave_leaves_no_orphans(self):
        """Cancelling while a process wave is in flight must retire the pool
        (no orphaned workers) and close the event stream with exactly one
        plan_finished."""
        executor = Executor(backend="processes", max_workers=2)
        events: list[Event] = []

        def killer(event: Event) -> None:
            events.append(event)
            if event.kind == "job_finished":
                executor.cancel()

        plan = Plan(
            name="mid-wave-cancel",
            jobs=tuple(
                Job(id=f"nap:{i}", kind="sleep", params={"seconds": 0.3})
                for i in range(8)
            ),
        )
        result = executor.execute(plan, on_event=killer)
        assert result.cancelled
        assert len(result.results) < 8
        finishes = [e for e in events if e.kind == "plan_finished"]
        assert len(finishes) == 1
        assert finishes[-1] is events[-1]
        # The pool is gone: no live process-pool children remain.
        import multiprocessing

        for _ in range(50):
            if not multiprocessing.active_children():
                break
            time.sleep(0.1)
        assert not multiprocessing.active_children()
        # Starts never exceed finishes+fails by more than the cancelled tail,
        # and every started job either finished or was abandoned cleanly.
        started = {e.job for e in events if e.kind == "job_started"}
        finished = {e.job for e in events if e.kind == "job_finished"}
        assert finished <= started


# --------------------------------------------------------------------------
# Spill fallback + cache concurrency
# --------------------------------------------------------------------------
class TestSpill:
    def test_unpicklable_results_spill_to_threads_and_are_recorded(self):
        plan = Plan(
            name="spill",
            jobs=tuple(
                Job(id=f"fn:{i}", kind="unpicklable", params={"value": i})
                for i in range(3)
            ),
        )
        events: list[Event] = []
        with pytest.warns(RuntimeWarning, match="falling back to the threads backend"):
            result = Executor(backend="processes", max_workers=2).execute(
                plan, on_event=events.append
            )
        assert [result.value_of(f"fn:{i}")() for i in range(3)] == [0, 1, 2]
        assert result.fallbacks and result.fallbacks[0]["requested"] == "processes"
        assert result.fallbacks[0]["used"] == "threads"
        # Starts pair 1:1 with finishes even across the spill — the fallback
        # wave must not announce jobs a second time.
        starts = [e.job for e in events if e.kind == "job_started"]
        assert sorted(starts) == sorted(j.id for j in plan.jobs)

    def test_pooled_wall_seconds_exclude_queue_wait(self):
        plan = Plan(
            name="timing",
            jobs=tuple(
                Job(id=f"nap:{i}", kind="sleep", params={"seconds": 0.05})
                for i in range(4)
            ),
        )
        result = Executor(backend="threads", max_workers=1).execute(plan)
        # With one worker the wave takes ~0.2s wall; each job's own time
        # must stay ~0.05s (measured at the work, not from wave submission).
        for i in range(4):
            assert result[f"nap:{i}"].wall_seconds < 0.15


class TestEventSinks:
    def test_sinks_see_every_event_and_detach_cleanly(self):
        executor = Executor()
        seen: list[str] = []
        token = executor.add_event_sink(lambda e: seen.append(e.kind))
        executor.execute(echo_plan(2))
        assert seen[0] == "plan_started" and seen[-1] == "plan_finished"
        count = len(seen)
        assert executor.remove_event_sink(token)
        assert not executor.remove_event_sink(token)  # idempotent
        executor.execute(echo_plan(2))
        assert len(seen) == count  # detached sinks observe nothing

    def test_sink_detached_mid_run_stops_observing(self):
        executor = Executor()
        kinds: list[str] = []
        token = executor.add_event_sink(lambda e: kinds.append(e.kind))

        def detach(event: Event) -> None:
            if event.kind == "job_finished":
                executor.remove_event_sink(token)

        executor.execute(echo_plan(3), on_event=detach)
        # Detachment applies to the very event that triggered it: listeners
        # run before the sink snapshot, so nothing past the detach point —
        # including that first job_finished — reaches the sink.
        assert kinds == ["plan_started", "job_started"]

    def test_raising_sink_never_fails_the_run(self):
        executor = Executor()

        def broken(event: Event) -> None:
            raise RuntimeError("observer crashed")

        executor.add_event_sink(broken)
        result = executor.execute(echo_plan(3))
        assert [result.value_of(f"echo:{i}") for i in range(3)] == [0, 1, 2]


class TestCacheConcurrency:
    def test_concurrent_prune_and_stats_under_threads_executor(self, tmp_path):
        """ResultCache maintenance must be safe while an executor writes."""
        cache = ResultCache(tmp_path)
        stop = threading.Event()
        failures: list[BaseException] = []

        def churn() -> None:
            while not stop.is_set():
                try:
                    cache.stats()
                    cache.prune(max_bytes=256)
                except BaseException as exc:  # pragma: no cover - the assertion
                    failures.append(exc)
                    return
                time.sleep(0.001)

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for round_index in range(3):
                plan = echo_plan(8, keys=True, name=f"churn-{round_index}")
                result = Executor(backend="threads", cache=cache).execute(plan)
                assert len(result.results) == 8
        finally:
            stop.set()
            thread.join()
        assert not failures
        stats = cache.stats()
        assert stats["entries"] == len(cache.entries())


# --------------------------------------------------------------------------
# In-plan coalescing: one run per distinct cache key
# --------------------------------------------------------------------------
class CountingCache(ResultCache):
    def __init__(self, root) -> None:
        super().__init__(root)
        self.puts: collections.Counter = collections.Counter()

    def put(self, key, value, **kwargs):
        self.puts[key] += 1
        return super().put(key, value, **kwargs)


def tallied_plan(tally, *, fail: bool = False) -> Plan:
    """Keys A, B, A, A, B in plan order, plus a consumer of a follower."""
    keys = ["A", "B", "A", "A", "B"]
    jobs = [
        Job(id=f"t:{i}", kind="tallied", cache_key=f"coalesce-{key}",
            params={"tally": str(tally), "key": key, "value": ord(key),
                    "fail": fail and key == "A"})
        for i, key in enumerate(keys)
    ]
    jobs.append(Job(id="consumer", kind="sum-deps", params={"base": 1},
                    deps=("t:2",)))
    return Plan(name="coalesce", jobs=tuple(jobs))


class TestCoalescing:
    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_one_run_per_distinct_key(self, backend, tmp_path):
        tally = tmp_path / "tally.txt"
        cache = CountingCache(tmp_path / "cache")
        events: list[Event] = []
        result = Executor(backend=backend, cache=cache, max_workers=2).execute(
            tallied_plan(tally), on_event=events.append
        )
        assert collections.Counter(tally.read_text().split()) == {"A": 1, "B": 1}
        assert [result.value_of(f"t:{i}") for i in range(5)] == [65, 66, 65, 65, 66]
        assert result.value_of("consumer") == 66  # a follower's dependent runs
        followers = ["t:2", "t:3", "t:4"]
        for job_id in followers:
            landed = result[job_id]
            assert landed.reason == "coalesced" and not landed.skipped
            assert landed.wall_seconds == 0.0
        assert sorted(result.executed()) == ["consumer", "t:0", "t:1"]
        assert result.skipped() == []
        assert cache.puts == {"coalesce-A": 1, "coalesce-B": 1}
        for job_id in result.jobs:
            kinds = [e.kind for e in events if e.job == job_id]
            assert kinds == ["job_started", "job_finished"], (job_id, kinds)
        finished = [e for e in events if e.kind == "job_finished"]
        reasons = {e.job: e.reason for e in finished}
        assert {job for job, reason in reasons.items() if reason} == set(followers)
        order = [e.job for e in finished]
        assert order.index("t:0") < order.index("t:2") < order.index("t:3")
        assert order.index("t:1") < order.index("t:4")

    def test_followers_are_not_cache_hits_on_a_warm_run(self, tmp_path):
        tally = tmp_path / "tally.txt"
        cache = ResultCache(tmp_path / "cache")
        Executor(cache=cache).execute(tallied_plan(tally))
        warm = Executor(cache=cache).execute(tallied_plan(tally))
        assert sorted(warm.skipped("cache")) == [f"t:{i}" for i in range(5)]
        assert warm.executed() == ["consumer"]
        assert len(tally.read_text().split()) == 2

    def test_follower_spans_are_zero_length(self, tmp_path):
        telemetry = Telemetry.on()
        Executor(telemetry=telemetry).execute(tallied_plan(tmp_path / "tally.txt"))
        spans = {span.name: span for span in telemetry.trace().find("job:")}
        assert len(spans) == 6
        for job_id in ("t:2", "t:3", "t:4"):
            assert spans[f"job:{job_id}"].duration == 0.0

    def test_landed_values_die_with_the_result_without_the_collector(self):
        """Executing a plan leaves no reference cycle holding its values, so
        dropping the result frees them at once (a long-running server
        would otherwise carry every finished plan's values until the cyclic
        collector runs)."""
        plan = Plan(name="boxed", jobs=tuple(
            Job(id=f"b:{i}", kind="boxed", params={"value": i % 2},
                cache_key=f"boxed-{i % 2}")
            for i in range(4)
        ))
        gc.disable()
        try:
            result = Executor().execute(plan)
            assert result["b:2"].reason == "coalesced"
            watched = [weakref.ref(result.value_of(f"b:{i}")) for i in range(2)]
            del result
            assert [ref() for ref in watched] == [None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_provider_only_a_follower_needs_is_pruned(self, backend, tmp_path):
        """Followers group before the prune pass: the provider feeding only
        a follower never runs, and the follower still lands."""
        tally = tmp_path / "tally.txt"
        providers = [
            Job(id=f"p:{i}", kind="tallied", if_needed=True,
                params={"tally": str(tally), "key": f"P{i}", "value": 10 + i})
            for i in range(2)
        ]
        consumers = [
            Job(id=f"c:{i}", kind="sum-deps", params={"base": 1},
                deps=(f"p:{i}",), cache_key="coalesce-consumer")
            for i in range(2)
        ]
        events: list[Event] = []
        result = Executor(backend=backend, max_workers=2).execute(
            Plan(name="prune-follower", jobs=tuple(providers + consumers)),
            on_event=events.append,
        )
        assert tally.read_text().split() == ["P0"]
        assert result["p:1"].reason == "unneeded" and result["p:1"].skipped
        assert result["c:1"].reason == "coalesced" and not result["c:1"].skipped
        assert result.value_of("c:1") == result.value_of("c:0") == 11
        assert sorted(result.executed()) == ["c:0", "p:0"]
        skipped = {e.job: e.reason for e in events if e.kind == "job_skipped"}
        assert skipped == {"p:1": "unneeded"}

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_failing_leader_raises_and_followers_never_land(self, backend, tmp_path):
        events: list[Event] = []
        with pytest.raises(RuntimeError, match="tallied A failed"):
            Executor(backend=backend, max_workers=2).execute(
                tallied_plan(tmp_path / "tally.txt", fail=True),
                on_event=events.append,
            )
        failed = [e.job for e in events if e.kind == "job_failed"]
        assert failed == ["t:0"]
        landed = {e.job for e in events if e.kind == "job_finished"}
        assert not landed & {"t:2", "t:3"}
