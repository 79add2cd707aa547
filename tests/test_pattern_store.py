"""Tests for the disk-spilling pattern store (PR-10 tentpole).

Covers the sqlite store, the lazy view, JSON-lines interchange, and
the session/campaign wiring that spills executed scenarios' patterns.
"""

from __future__ import annotations

import pickle
import shutil
import sqlite3

import pytest

from repro.api import TestSession
from repro.api.campaign import Campaign
from repro.atpg import AtpgOptions
from repro.logic import Logic
from repro.clocking import CapturePulse, NamedCaptureProcedure
from repro.patterns.pattern import PatternSet, TestPattern
from repro.patterns.store import PatternStore, StoredPatternView
from repro.runtime import Executor

BACKEND_PATHS = {"sqlite": "store.db"}

CHEAP = AtpgOptions(
    random_pattern_batches=1, patterns_per_batch=8, backtrack_limit=4,
    max_patterns=4,
)


def _procedure(name="stuck", at_speed=False):
    return NamedCaptureProcedure(
        name=name, pulses=(CapturePulse.of("fast", at_speed=at_speed),)
    )


def _pattern(index, procedure=None):
    procedure = procedure or _procedure()
    load = {f"ff_{i}": (Logic.ONE if (index >> i) & 1 else Logic.ZERO) for i in range(4)}
    return TestPattern(
        procedure=procedure,
        scan_load=load,
        pi_frames=[{"in_0": Logic.ZERO}],
        target_faults=[f"fault_{index}"],
    )


@pytest.fixture(params=sorted(BACKEND_PATHS))
def store(request, tmp_path):
    return PatternStore(tmp_path / BACKEND_PATHS[request.param])


class TestPatternStoreBackends:
    def test_backend_picked_from_suffix(self, tmp_path):
        with pytest.raises(ValueError, match=r"import_jsonl\(\)"):
            PatternStore(tmp_path / "a.jsonl")
        assert not (tmp_path / "a.jsonl").exists()
        store = PatternStore(tmp_path / "nested" / "deep.db")
        assert store.path.read_bytes().startswith(b"SQLite format 3")

    def test_append_extend_count(self, store):
        assert store.append(_pattern(0), design="d", scenario="s") == 0
        assert store.append(_pattern(1), design="d", scenario="s") == 1
        written = store.extend(
            (_pattern(i) for i in range(2, 5)), design="d", scenario="t"
        )
        assert written == 3
        assert store.count(design="d", scenario="s") == 2
        assert store.count(design="d", scenario="t") == 3
        assert store.count() == len(store) == 5

    def test_groups_in_first_appearance_order(self, store):
        store.extend([_pattern(0)], design="b", scenario="z")
        store.extend([_pattern(1)], design="a", scenario="y")
        store.extend([_pattern(2)], design="b", scenario="z")
        assert store.groups() == [("b", "z"), ("a", "y")]

    def test_view_is_lazy_and_ordered(self, store):
        originals = [_pattern(i) for i in range(6)]
        store.spill(PatternSet(originals), design="d", scenario="s")
        store.extend([_pattern(99)], design="other", scenario="s")
        view = store.view(design="d", scenario="s")
        assert view._keys is None  # index built on first access, not init
        assert len(view) == 6
        assert view[2].scan_load == originals[2].scan_load
        assert [p.target_faults for p in view] == [p.target_faults for p in originals]
        assert len(view.patterns()) == 6

    def test_load_materializes_pattern_set(self, store):
        store.extend([_pattern(i) for i in range(3)], design="d", scenario="s")
        loaded = store.load(design="d", scenario="s")
        assert isinstance(loaded, PatternSet)
        assert len(loaded) == 3

    def test_stats_parity_with_pattern_set(self, store):
        originals = [
            _pattern(i, procedure=_procedure("p1" if i % 2 else "p2"))
            for i in range(5)
        ]
        store.spill(PatternSet(originals), design="d", scenario="s")
        expected = PatternSet(originals).stats()
        assert store.view(design="d", scenario="s").stats() == expected

    def test_view_survives_pickling(self, store):
        store.extend([_pattern(i) for i in range(3)], design="d", scenario="s")
        view = store.view(design="d", scenario="s")
        clone = pickle.loads(pickle.dumps(view))
        assert isinstance(clone, StoredPatternView)
        assert len(clone) == 3
        assert clone[0].scan_load == view[0].scan_load

    def test_export_import_jsonl_round_trip(self, store, tmp_path):
        store.extend([_pattern(i) for i in range(4)], design="d", scenario="s")
        store.extend([_pattern(9)], design="e", scenario="s")
        dump = tmp_path / "dump.jsonl"
        assert store.export_jsonl(dump) == 5
        other = PatternStore(tmp_path / "other.db")
        assert other.import_jsonl(dump) == 5
        assert other.groups() == store.groups()
        assert other.view(design="d", scenario="s")[1].scan_load == _pattern(1).scan_load


def test_pattern_store_closes_every_connection(tmp_path, monkeypatch):
    """``with connection:`` only commits; every call must also close."""
    store = PatternStore(tmp_path / "store.db")
    other = PatternStore(tmp_path / "other.db")
    opened = []
    for each in (store, other):
        connect = each._connect
        monkeypatch.setattr(
            each, "_connect", lambda connect=connect: opened.append(connect()) or opened[-1]
        )
    store.extend([_pattern(0), _pattern(1)], design="d", scenario="s")
    assert store.append(_pattern(2), design="d", scenario="t") == 0
    assert len(store) == 3 and store.count(design="d", scenario="s") == 2
    assert store.groups() == [("d", "s"), ("d", "t")]
    view = store.view(design="d", scenario="s")
    assert view[1] == _pattern(1) and list(view) == [_pattern(0), _pattern(1)]
    assert len(store.load()) == 3
    assert store.export_jsonl(tmp_path / "dump.jsonl") == 3
    assert other.import_jsonl(tmp_path / "dump.jsonl") == 3
    assert len(opened) >= 10
    for connection in opened:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            connection.execute("SELECT 1")


class TestSessionStoreStage:
    def _session(self, store):
        return (
            TestSession.for_soc(size=1, seed=17)
            .add_scenario("table1-a")
            .with_pattern_store(store)
        )

    def test_store_stage_spills_and_dedups(self, tmp_path):
        store = PatternStore(tmp_path / "session.db")
        session = self._session(store)
        report = session.run()
        run = session.artifacts["table1-a"]
        assert report is not None
        count = run.extras["store"]["patterns"]
        assert count == store.count(scenario="table1-a") > 0
        # A rerun finds the group present and leaves the store untouched.
        session2 = self._session(store)
        session2.run()
        assert store.count(scenario="table1-a") == count

    def test_stream_mode_serves_lazy_view(self, tmp_path):
        store = PatternStore(tmp_path / "session.db")
        session = (
            TestSession.for_soc(size=1, seed=17)
            .add_scenario("table1-a")
            .with_pattern_store(store, stream=True)
        )
        session.run()
        run = session.artifacts["table1-a"]
        assert isinstance(run.patterns, StoredPatternView)
        assert len(run.patterns) == store.count(scenario="table1-a")

    def test_detach_removes_stage(self, tmp_path):
        store = PatternStore(tmp_path / "session.db")
        session = self._session(store).with_pattern_store(None)
        session.run()
        assert len(store) == 0
        assert "store" not in session.artifacts["table1-a"].extras

    def test_cache_hit_spills_to_its_own_store(self, tmp_path):
        """A cached run is the plain in-memory run: a session on another
        store is never served the first session's lazy view."""

        def session(store: str, stream: bool) -> TestSession:
            return (
                TestSession.for_design("tiny", options=CHEAP)
                .with_cache(tmp_path / "cache")
                .add_scenario("table1-a")
                .with_pattern_store(tmp_path / store, stream=stream)
            )

        session("p.db", True).run()
        second = session("q.db", False)
        second.run()
        run = second.artifacts["table1-a"]
        assert run.cache_info is not None and run.cache_info["hit"] is True
        assert not isinstance(run.patterns, StoredPatternView)
        assert run.extras["store"]["path"] == str(tmp_path / "q.db")
        stored = PatternStore(tmp_path / "q.db").count(scenario="table1-a")
        assert stored == len(run.patterns) > 0


class TestCampaignStore:
    def test_campaign_groups_by_design_name(self, tmp_path):
        store_path = tmp_path / "campaign.db"
        campaign = Campaign(
            ["tiny", "wide-edt"], ["table1-a"]
        ).with_pattern_store(PatternStore(store_path))
        campaign.run(executor=Executor(backend="serial"))
        store = PatternStore(store_path)
        groups = store.groups()
        assert ("tiny", "table1-a") in groups
        assert ("wide-edt", "table1-a") in groups
        assert all(store.count(design=d, scenario=s) > 0 for d, s in groups)

    def test_plain_campaign_never_served_another_campaigns_store(self, tmp_path):
        """A streaming campaign's cache entries hold plain runs, so a later
        campaign without a store survives that store's deletion."""
        store_dir = tmp_path / "stores"
        store_dir.mkdir()

        def campaign() -> Campaign:
            return Campaign(["tiny"], ["table1-a"], CHEAP).with_cache(tmp_path / "cache")

        streamed = campaign().with_pattern_store(store_dir / "grid.db", stream=True)
        first = streamed.run()
        assert isinstance(
            streamed.artifacts[("tiny", "table1-a")].patterns, StoredPatternView
        )
        shutil.rmtree(store_dir)
        plain = campaign()
        report = plain.run()
        assert report.cache_hits() == 1
        cell, first_cell = report.cell("tiny", "a"), first.cell("tiny", "a")
        assert cell.outcome.pattern_count == first_cell.outcome.pattern_count > 0
        run = plain.artifacts[("tiny", "table1-a")]
        assert not isinstance(run.patterns, StoredPatternView)
        assert "store" not in run.extras

    def test_session_and_campaign_share_one_group(self, tmp_path):
        """A session labels its design like a one-design campaign does (the
        spec name), so both front doors spill one pattern set to one group."""
        store = PatternStore(tmp_path / "shared.db")
        session = (
            TestSession.for_design("tiny", options=CHEAP)
            .add_scenario("table1-a")
            .with_pattern_store(store)
        )
        session.run()
        Campaign(["tiny"], ["table1-a"], CHEAP).with_pattern_store(store).run()
        assert store.groups() == [("tiny", "table1-a")]
        assert store.count() == len(session.artifacts["table1-a"].patterns)

    def test_diagnosis_providers_spill(self, tmp_path):
        """A campaign diagnosis keeps its pattern provider's run and spills
        it, as a session diagnosis does."""
        from repro.diagnose import DefectSpec

        store = PatternStore(tmp_path / "diagnose.db")
        campaign = Campaign(["tiny"], ["table1-a"], CHEAP).with_pattern_store(store)
        campaign.diagnose([DefectSpec(kind="stuck-at", net="scan_en", value=1)])
        run = campaign.artifacts[("tiny", "table1-a")]
        assert store.groups() == [("tiny", "table1-a")]
        assert run.extras["store"]["patterns"] == store.count() == len(run.patterns) > 0
