"""Disk-spilling pattern stores — memory-bounded streaming at SoC scale.

At 10⁵ gates a scan load carries tens of thousands of cells; holding a full
campaign's pattern sets in memory is what actually bounds design size, not
simulation speed.  :class:`PatternStore` spills patterns to a sqlite3
database, the random-access format that makes the lazy
:class:`StoredPatternView` cheap.  JSON lines, one pattern per line, are
the archival/interchange format: :meth:`PatternStore.export_jsonl` writes
them and :meth:`PatternStore.import_jsonl` reads them back.

Patterns are grouped by ``(design, scenario)`` and kept in insertion order
within a group — the order a :class:`~repro.patterns.pattern.PatternSet`
would have.  :meth:`PatternStore.view` returns a sequence-shaped *lazy*
view over a group: ``len()``/indexing/iteration without materializing
payloads, so a :class:`~repro.fault_sim.transition.FrameSimulator` batch loop
touches one batch of patterns at a time while the rest stay on disk.
"""

from __future__ import annotations

import json
import sqlite3
from collections import Counter
from contextlib import closing
from pathlib import Path
from typing import Iterable, Iterator

from repro.patterns.pattern import PatternSet, PatternSetStats, TestPattern


class PatternStore:
    """Scan patterns by the thousand behind one path.

    The path opens (creating if needed) a sqlite3 database with
    insertion-ordered iteration per ``(design, scenario)`` group and lazy
    sequence views.  A ``.jsonl`` path is refused: that is the dump format
    of :meth:`export_jsonl`, loaded with :meth:`import_jsonl`.
    """

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        if self.path.suffix == ".jsonl":
            raise ValueError(
                f"{self.path} is a JSON-lines dump, not a pattern store: open a"
                " sqlite path and load the dump with import_jsonl()"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with closing(self._connect()) as connection, connection:
            connection.execute(
                "CREATE TABLE IF NOT EXISTS patterns ("
                "  id INTEGER PRIMARY KEY AUTOINCREMENT,"
                "  design TEXT NOT NULL,"
                "  scenario TEXT NOT NULL,"
                "  payload TEXT NOT NULL)"
            )
            connection.execute(
                "CREATE INDEX IF NOT EXISTS patterns_group"
                " ON patterns (design, scenario, id)"
            )

    def _connect(self) -> sqlite3.Connection:
        return sqlite3.connect(self.path)

    # ------------------------------------------------------------------- write
    def append(
        self, pattern: TestPattern, *, design: str = "", scenario: str = ""
    ) -> int:
        """Store one pattern; returns its index within its group."""
        self.extend([pattern], design=design, scenario=scenario)
        return self.count(design=design, scenario=scenario) - 1

    def extend(
        self,
        patterns: Iterable[TestPattern],
        *,
        design: str = "",
        scenario: str = "",
    ) -> int:
        """Store patterns in order; returns how many were written.

        The iterable is consumed lazily — an ATPG generator can stream
        straight to disk without a full in-memory pattern list.
        """
        count = 0
        with closing(self._connect()) as connection, connection:
            for pattern in patterns:
                connection.execute(
                    "INSERT INTO patterns (design, scenario, payload)"
                    " VALUES (?, ?, ?)",
                    (design, scenario, json.dumps(pattern.to_dict(), sort_keys=True)),
                )
                count += 1
        return count

    def spill(
        self, patterns: PatternSet, *, design: str = "", scenario: str = ""
    ) -> int:
        """Spill a whole :class:`PatternSet` into the store."""
        return self.extend(iter(patterns), design=design, scenario=scenario)

    # -------------------------------------------------------------------- read
    def groups(self) -> list[tuple[str, str]]:
        """Distinct ``(design, scenario)`` groups, first-appearance order."""
        with closing(self._connect()) as connection:
            rows = connection.execute(
                "SELECT design, scenario, MIN(id) FROM patterns"
                " GROUP BY design, scenario ORDER BY MIN(id)"
            ).fetchall()
        return [(row[0], row[1]) for row in rows]

    def count(self, design: str | None = None, scenario: str | None = None) -> int:
        query = "SELECT COUNT(*) FROM patterns"
        clauses, params = self._filters(design, scenario)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        with closing(self._connect()) as connection:
            (count,) = connection.execute(query, params).fetchone()
        return int(count)

    def __len__(self) -> int:
        return self.count()

    def __iter__(self) -> Iterator[TestPattern]:
        return iter(self.view())

    @staticmethod
    def _filters(
        design: str | None, scenario: str | None
    ) -> tuple[list[str], list[str]]:
        clauses: list[str] = []
        params: list[str] = []
        if design is not None:
            clauses.append("design = ?")
            params.append(design)
        if scenario is not None:
            clauses.append("scenario = ?")
            params.append(scenario)
        return clauses, params

    def view(
        self, design: str | None = None, scenario: str | None = None
    ) -> "StoredPatternView":
        """A lazy, sequence-shaped view over one group (or everything)."""
        return StoredPatternView(self, design=design, scenario=scenario)

    def load(
        self, design: str | None = None, scenario: str | None = None
    ) -> PatternSet:
        """Materialize a group back into an in-memory :class:`PatternSet`."""
        return PatternSet(iter(self.view(design=design, scenario=scenario)))

    # ------------------------------------------------------------- interchange
    def export_jsonl(self, path: "Path | str") -> int:
        """Dump every stored pattern to a JSON-lines file; returns the count."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        count = 0
        with target.open("w", encoding="utf-8") as handle, closing(
            self._connect()
        ) as connection:
            rows = connection.execute(
                "SELECT design, scenario, payload FROM patterns ORDER BY id"
            )
            for design, scenario, payload in rows:
                row = {
                    "design": design,
                    "scenario": scenario,
                    "pattern": json.loads(payload),
                }
                handle.write(json.dumps(row, sort_keys=True) + "\n")
                count += 1
        return count

    def import_jsonl(self, path: "Path | str") -> int:
        """Load every pattern of a JSON-lines dump; returns the count."""
        count = 0
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                pattern = TestPattern.from_dict(row["pattern"])
                self.extend(
                    [pattern],
                    design=str(row.get("design", "")),
                    scenario=str(row.get("scenario", "")),
                )
                count += 1
        return count


class StoredPatternView:
    """Lazy sequence of one group's patterns, payloads fetched on demand.

    Mirrors the read side of :class:`~repro.patterns.pattern.PatternSet`
    (``len``/indexing/iteration/``patterns()``/``stats()``), so batch loops
    written against pattern sets — notably
    ``FrameSimulator.iter_batches`` — run unchanged while only the
    patterns of the current batch are resident.

    Only the group's row ids stay in memory, read once on first access.
    """

    def __init__(
        self,
        store: PatternStore,
        design: str | None = None,
        scenario: str | None = None,
    ) -> None:
        self._store = store
        self._design = design
        self._scenario = scenario
        self._keys: list[int] | None = None  # row ids

    # ------------------------------------------------------------------ keying
    def _index(self) -> list[int]:
        if self._keys is None:
            query = "SELECT id FROM patterns"
            clauses, params = PatternStore._filters(self._design, self._scenario)
            if clauses:
                query += " WHERE " + " AND ".join(clauses)
            query += " ORDER BY id"
            with closing(self._store._connect()) as connection:
                self._keys = [row[0] for row in connection.execute(query, params)]
        return self._keys

    def _fetch(self, key: int) -> TestPattern:
        with closing(self._store._connect()) as connection:
            row = connection.execute(
                "SELECT payload FROM patterns WHERE id = ?", (key,)
            ).fetchone()
        if row is None:
            raise KeyError(f"pattern row {key} disappeared from {self._store.path}")
        return TestPattern.from_dict(json.loads(row[0]))

    # ---------------------------------------------------------------- sequence
    def __len__(self) -> int:
        return len(self._index())

    def __getitem__(self, index: int) -> TestPattern:
        return self._fetch(self._index()[index])

    def __iter__(self) -> Iterator[TestPattern]:
        for key in self._index():
            yield self._fetch(key)

    def patterns(self) -> list[TestPattern]:
        return list(self)

    def stats(self) -> PatternSetStats:
        """Streaming equivalent of :meth:`PatternSet.stats`."""
        per_procedure: Counter[str] = Counter()
        per_domain: Counter[str] = Counter()
        inter_domain = 0
        total = 0
        density_sum = 0.0
        for pattern in self:
            per_procedure[pattern.procedure.name] += 1
            for domain in sorted(pattern.procedure.capture_domains):
                per_domain[domain] += 1
            if pattern.procedure.is_inter_domain:
                inter_domain += 1
            density_sum += pattern.care_bit_density()
            total += 1
        return PatternSetStats(
            num_patterns=total,
            per_procedure=dict(per_procedure),
            per_capture_domain=dict(per_domain),
            average_care_bit_density=density_sum / total if total else 0.0,
            inter_domain_patterns=inter_domain,
        )
