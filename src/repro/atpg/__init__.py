"""Automatic test pattern generation: PODEM, stuck-at, transition, path delay."""

from repro.atpg.compaction import (
    CompactionStats,
    DynamicCompactor,
    compact_pattern_set,
    static_compaction,
)
from repro.atpg.config import AtpgOptions, TestSetup
from repro.atpg.generator import AtpgGenerator, AtpgResult, AtpgStatistics
from repro.atpg.path_delay import PathDelayAtpg, PathDelayTest, select_critical_paths
from repro.atpg.podem import PodemEngine, PodemResult, PodemStatus, PodemTables
from repro.atpg.random_fill import fill_pattern, random_pattern, random_pattern_batch
from repro.atpg.scoap import INFINITE_COST, TestabilityMeasures, compute_testability
from repro.atpg.stuck_at import StuckAtAtpg, run_stuck_at_atpg
from repro.atpg.timeframe import TimeFrameView, build_timeframe_view
from repro.atpg.transition import TransitionAtpg, run_transition_atpg

__all__ = [
    "AtpgGenerator",
    "AtpgOptions",
    "AtpgResult",
    "AtpgStatistics",
    "CompactionStats",
    "DynamicCompactor",
    "INFINITE_COST",
    "PathDelayAtpg",
    "PathDelayTest",
    "PodemEngine",
    "PodemResult",
    "PodemStatus",
    "PodemTables",
    "StuckAtAtpg",
    "TestSetup",
    "TestabilityMeasures",
    "TimeFrameView",
    "TransitionAtpg",
    "build_timeframe_view",
    "compact_pattern_set",
    "compute_testability",
    "fill_pattern",
    "random_pattern",
    "random_pattern_batch",
    "run_stuck_at_atpg",
    "run_transition_atpg",
    "select_critical_paths",
    "static_compaction",
]
