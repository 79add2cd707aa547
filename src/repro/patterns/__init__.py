"""Test patterns, application procedures, ATE export and statistics."""

from repro.patterns.ate import (
    VectorMemoryReport,
    export_stil,
    parse_pattern_text,
    parse_stil_pattern_count,
    vector_memory_report,
)
from repro.patterns.pattern import PatternSet, PatternSetStats, TestPattern
from repro.patterns.procedures import (
    PatternApplication,
    PatternExecution,
    elaborate_pattern,
    execute_pattern,
)
from repro.patterns.statistics import (
    TableRow,
    format_table,
    table_rows,
)

__all__ = [
    "PatternApplication",
    "PatternExecution",
    "PatternSet",
    "PatternSetStats",
    "TableRow",
    "TestPattern",
    "VectorMemoryReport",
    "elaborate_pattern",
    "execute_pattern",
    "export_stil",
    "format_table",
    "parse_pattern_text",
    "parse_stil_pattern_count",
    "table_rows",
    "vector_memory_report",
]
