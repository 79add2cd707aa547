"""Persistent fail-log stores for volume diagnosis.

The tester floor produces fail logs by the thousand; volume diagnosis
needs them durable, enumerable and cheap to stream.  :class:`FailLogStore`
provides exactly that behind one path-shaped constructor with two
stdlib-only backends:

* ``*.jsonl`` — an append-only JSON-lines file, one record per log: the
  archival/interchange format (folds straight into ``import_jsonl`` /
  ``export_jsonl`` on either backend);
* anything else — a sqlite3 database with a unique name index: the
  random-access format for stores too big to rescan per lookup.

Records are keyed by a caller-chosen unique ``name`` (lot/wafer/die ids on
a real floor) and carry the design name plus an optional scenario label,
so one store can hold several designs' logs and a volume plan can filter
its share (:meth:`FailLogStore.records`).
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.diagnose.faillog import FailLog


@dataclass(frozen=True)
class FailLogRecord:
    """One stored fail log plus its store-side identity."""

    name: str
    design: str
    scenario: str
    log: FailLog

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "design": self.design,
            "scenario": self.scenario,
            "log": self.log.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "FailLogRecord":
        return cls(
            name=str(data["name"]),
            design=str(data["design"]),
            scenario=str(data.get("scenario", "")),
            log=FailLog.from_dict(data["log"]),  # type: ignore[arg-type]
        )


class FailLogStore:
    """Thousands of captured fail logs behind one path.

    The backend is picked from the suffix: ``.jsonl`` appends JSON lines,
    anything else opens (creating if needed) a sqlite3 database.  Both
    honor the same contract: unique names, insertion-ordered iteration,
    and design/scenario filtering — so tests, examples and the serve plane
    can swap formats freely.
    """

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        self.kind = "jsonl" if self.path.suffix == ".jsonl" else "sqlite"
        # ``.jsonl`` duplicate check: the names stored in the file's first
        # ``_scanned`` bytes (lines other writers append are read on demand).
        self._names: set[str] = set()
        self._scanned = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.kind == "sqlite":
            with self._connect() as connection:
                connection.execute(
                    "CREATE TABLE IF NOT EXISTS fail_logs ("
                    "  id INTEGER PRIMARY KEY AUTOINCREMENT,"
                    "  name TEXT NOT NULL UNIQUE,"
                    "  design TEXT NOT NULL,"
                    "  scenario TEXT NOT NULL,"
                    "  payload TEXT NOT NULL)"
                )
        elif not self.path.exists():
            self.path.touch()

    # ----------------------------------------------------------------- backend
    def _connect(self) -> sqlite3.Connection:
        return sqlite3.connect(self.path)

    def _jsonl_records(self) -> Iterator[FailLogRecord]:
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield FailLogRecord.from_dict(json.loads(line))

    def _jsonl_names(self) -> set[str]:
        """Every stored name, reading only the lines appended (by this or
        any other writer) since the last call and decoding just their name."""
        with self.path.open("rb") as handle:
            handle.seek(self._scanned)
            for line in handle:
                if not line.endswith(b"\n"):
                    break  # another writer is mid-append; read it next time
                self._scanned += len(line)
                if line.strip():
                    self._names.add(json.loads(line)["name"])
        return self._names

    # ------------------------------------------------------------------- write
    def add(
        self,
        name: str,
        log: FailLog,
        *,
        scenario: str = "",
    ) -> FailLogRecord:
        """Store one log under a unique name; raises on duplicates."""
        if not name:
            raise ValueError("a fail log record needs a non-empty name")
        record = FailLogRecord(
            name=name, design=log.design, scenario=scenario, log=log
        )
        if self.kind == "jsonl":
            if name in self._jsonl_names():
                raise ValueError(f"fail log {name!r} already stored")
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        else:
            try:
                with self._connect() as connection:
                    connection.execute(
                        "INSERT INTO fail_logs (name, design, scenario, payload)"
                        " VALUES (?, ?, ?, ?)",
                        (
                            name,
                            record.design,
                            scenario,
                            json.dumps(log.to_dict(), sort_keys=True),
                        ),
                    )
            except sqlite3.IntegrityError:
                raise ValueError(f"fail log {name!r} already stored") from None
        return record

    def add_many(
        self, records: Iterable[tuple[str, FailLog]], *, scenario: str = ""
    ) -> int:
        count = 0
        for name, log in records:
            self.add(name, log, scenario=scenario)
            count += 1
        return count

    # -------------------------------------------------------------------- read
    def names(self) -> list[str]:
        if self.kind == "jsonl":
            return [record.name for record in self._jsonl_records()]
        with self._connect() as connection:
            rows = connection.execute(
                "SELECT name FROM fail_logs ORDER BY id"
            ).fetchall()
        return [row[0] for row in rows]

    def __len__(self) -> int:
        if self.kind == "jsonl":
            return sum(1 for _ in self._jsonl_records())
        with self._connect() as connection:
            (count,) = connection.execute(
                "SELECT COUNT(*) FROM fail_logs"
            ).fetchone()
        return int(count)

    def __iter__(self) -> Iterator[FailLogRecord]:
        return iter(self.records())

    def get(self, name: str) -> FailLogRecord:
        if self.kind == "jsonl":
            for record in self._jsonl_records():
                if record.name == name:
                    return record
            raise KeyError(f"no fail log named {name!r}")
        with self._connect() as connection:
            row = connection.execute(
                "SELECT name, design, scenario, payload FROM fail_logs"
                " WHERE name = ?",
                (name,),
            ).fetchone()
        if row is None:
            raise KeyError(f"no fail log named {name!r}")
        return FailLogRecord(
            name=row[0],
            design=row[1],
            scenario=row[2],
            log=FailLog.from_json(row[3]),
        )

    def records(
        self, design: str | None = None, scenario: str | None = None
    ) -> list[FailLogRecord]:
        """All records in insertion order, optionally filtered."""
        if self.kind == "jsonl":
            found = list(self._jsonl_records())
        else:
            with self._connect() as connection:
                rows = connection.execute(
                    "SELECT name, design, scenario, payload FROM fail_logs"
                    " ORDER BY id"
                ).fetchall()
            found = [
                FailLogRecord(
                    name=row[0],
                    design=row[1],
                    scenario=row[2],
                    log=FailLog.from_json(row[3]),
                )
                for row in rows
            ]
        if design is not None:
            found = [record for record in found if record.design == design]
        if scenario is not None:
            found = [record for record in found if record.scenario == scenario]
        return found

    # ------------------------------------------------------------- interchange
    def export_jsonl(self, path: "Path | str") -> int:
        """Dump every record to a JSON-lines file; returns the count."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        records = self.records()
        with target.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        return len(records)

    def import_jsonl(self, path: "Path | str") -> int:
        """Load every record of a JSON-lines dump; returns the count."""
        count = 0
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = FailLogRecord.from_dict(json.loads(line))
                self.add(record.name, record.log, scenario=record.scenario)
                count += 1
        return count
