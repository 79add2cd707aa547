"""Plan/Job structure: validation, JSON round trips, registry, key helpers."""

from __future__ import annotations

import pytest

from repro.engine.cache import plan_fingerprint
from repro.runtime import (
    Job,
    JobKindNotFound,
    Plan,
    chain,
    handler_for,
    register_job_kind,
)


def _job(job_id: str, **kwargs) -> Job:
    kwargs.setdefault("kind", "noop")
    return Job(id=job_id, **kwargs)


class TestJob:
    def test_requires_id_and_kind(self):
        with pytest.raises(ValueError, match="non-empty id"):
            Job(id="", kind="noop")
        with pytest.raises(ValueError, match="needs a kind"):
            Job(id="a", kind="")

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries must be non-negative"):
            Job(id="a", kind="noop", retries=-1)

    def test_deps_coerced_to_tuple(self):
        job = Job(id="b", kind="noop", deps=["a"])
        assert job.deps == ("a",)

    def test_dict_round_trip(self):
        job = Job(
            id="cell:tiny:a", kind="scenario",
            params={"design": "tiny", "scenario": "a"},
            deps=("patterns:tiny:a",), cache_key="deadbeef",
            label="tiny::a", retries=2, if_needed=True,
        )
        assert Job.from_dict(job.to_dict()) == job


class TestPlanValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate job ids"):
            Plan(name="p", jobs=(_job("a"), _job("a")))

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError, match="unknown job 'ghost'"):
            Plan(name="p", jobs=(_job("a", deps=("ghost",)),))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="dependency cycle"):
            Plan(name="p", jobs=(_job("a", deps=("b",)), _job("b", deps=("a",))))

    def test_topological_order_respects_deps(self):
        plan = Plan(
            name="p",
            jobs=(
                _job("late", deps=("mid",)),
                _job("mid", deps=("early",)),
                _job("early"),
            ),
        )
        assert [job.id for job in plan.topological_order()] == ["early", "mid", "late"]

    def test_dependents_reverse_edges(self):
        plan = Plan(name="p", jobs=(_job("a"), _job("b", deps=("a",)),
                                    _job("c", deps=("a",))))
        assert plan.dependents()["a"] == ("b", "c")
        assert plan.dependents()["c"] == ()


class TestPlanSerialization:
    def _plan(self) -> Plan:
        return Plan(
            name="session:soc",
            jobs=(
                _job("patterns:a", if_needed=True, cache_key="k1", label="a"),
                _job("diagnose:a", deps=("patterns:a",), cache_key="k2",
                     params={"spec": {"scenario": "a"}}),
            ),
            metadata={"design": "soc"},
        )

    def test_json_round_trip_is_lossless(self):
        plan = self._plan()
        restored = Plan.from_json(plan.to_json())
        assert restored == plan
        assert restored.metadata == plan.metadata
        assert [j.to_dict() for j in restored.jobs] == [j.to_dict() for j in plan.jobs]

    def test_resources_never_serialize(self):
        plan = self._plan().with_resources({"designs": {"soc": object()}})
        restored = Plan.from_json(plan.to_json())
        assert restored.resources is None
        assert restored == plan  # resources excluded from equality

    def test_fingerprint_ignores_resources_but_not_structure(self):
        plan = self._plan()
        assert plan.fingerprint == plan.with_resources({"x": 1}).fingerprint
        reshaped = Plan(name=plan.name, jobs=plan.jobs[:1], metadata=plan.metadata)
        assert plan.fingerprint != reshaped.fingerprint
        assert plan.fingerprint == plan_fingerprint(plan.to_dict())

    def test_job_lookup(self):
        plan = self._plan()
        assert plan.job("patterns:a").if_needed
        with pytest.raises(KeyError, match="no job 'nope'"):
            plan.job("nope")


class TestChain:
    def test_chain_links_sequentially(self):
        linked = chain([_job("a"), _job("b"), _job("c", deps=("a",))])
        assert linked[1].deps == ("a",)
        assert set(linked[2].deps) == {"a", "b"}


class TestRegistry:
    def test_unknown_kind_raises(self):
        with pytest.raises(JobKindNotFound, match="no job handler registered"):
            handler_for("definitely-not-registered")

    def test_register_and_resolve(self):
        def handler(resources, params, deps):
            return params["x"]

        register_job_kind("plan-test-kind", handler)
        assert handler_for("plan-test-kind") is handler

    def test_builtin_kinds_registered_by_api_import(self):
        import repro.api  # noqa: F401 - registration side effect

        assert handler_for("scenario").__module__ == "repro.api.pipeline"
        assert handler_for("diagnosis").__module__ == "repro.api.pipeline"
