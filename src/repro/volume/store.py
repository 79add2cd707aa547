"""Persistent fail-log stores for volume diagnosis.

The tester floor produces fail logs by the thousand; volume diagnosis
needs them durable, enumerable and cheap to stream.  :class:`FailLogStore`
keeps them in a sqlite3 database with a unique name index, the
random-access format for stores too big to rescan per lookup.  JSON lines,
one record per log, are the archival/interchange format:
:meth:`FailLogStore.export_jsonl` writes them and
:meth:`FailLogStore.import_jsonl` reads them back.

Records are keyed by a caller-chosen unique ``name`` (lot/wafer/die ids on
a real floor) and carry the design name plus an optional scenario label,
so one store can hold several designs' logs and a volume plan can filter
its share (:meth:`FailLogStore.records`).
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.diagnose.faillog import FailLog
from repro.records import JsonRecord


@dataclass(frozen=True)
class FailLogRecord(JsonRecord):
    """One stored fail log plus its store-side identity."""

    nested = {"log": FailLog}

    name: str
    design: str
    scenario: str
    log: FailLog


class FailLogStore:
    """Thousands of captured fail logs behind one path.

    The path opens (creating if needed) a sqlite3 database with unique
    names, insertion-ordered iteration and design/scenario filtering.  A
    ``.jsonl`` path is refused: that is the dump format of
    :meth:`export_jsonl`, loaded with :meth:`import_jsonl`.
    """

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        if self.path.suffix == ".jsonl":
            raise ValueError(
                f"{self.path} is a JSON-lines dump, not a fail-log store: open a"
                " sqlite path and load the dump with import_jsonl()"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with closing(self._connect()) as connection, connection:
            connection.execute(
                "CREATE TABLE IF NOT EXISTS fail_logs ("
                "  id INTEGER PRIMARY KEY AUTOINCREMENT,"
                "  name TEXT NOT NULL UNIQUE,"
                "  design TEXT NOT NULL,"
                "  scenario TEXT NOT NULL,"
                "  payload TEXT NOT NULL)"
            )

    def _connect(self) -> sqlite3.Connection:
        return sqlite3.connect(self.path)

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
        try:
            with closing(self._connect()) as connection, connection:
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
        """Store many logs in one transaction; returns the count.

        Raises :meth:`add`'s ``ValueError`` on an empty name, or on a name
        already stored or repeated in the batch; then nothing of the batch
        is stored.
        """
        rows = []
        for name, log in records:
            if not name:
                raise ValueError("a fail log record needs a non-empty name")
            rows.append(
                (name, log.design, scenario, json.dumps(log.to_dict(), sort_keys=True))
            )
        with closing(self._connect()) as connection:
            try:
                with connection:
                    connection.executemany(
                        "INSERT INTO fail_logs (name, design, scenario, payload)"
                        " VALUES (?, ?, ?, ?)",
                        rows,
                    )
            except sqlite3.IntegrityError:
                seen: set[str] = set()
                for name, *_ in rows:
                    if name in seen or connection.execute(
                        "SELECT 1 FROM fail_logs WHERE name = ?", (name,)
                    ).fetchone():
                        raise ValueError(f"fail log {name!r} already stored") from None
                    seen.add(name)
                raise
        return len(rows)

    # -------------------------------------------------------------------- read
    def names(self) -> list[str]:
        with closing(self._connect()) as connection:
            rows = connection.execute(
                "SELECT name FROM fail_logs ORDER BY id"
            ).fetchall()
        return [row[0] for row in rows]

    def __len__(self) -> int:
        with closing(self._connect()) as connection:
            (count,) = connection.execute(
                "SELECT COUNT(*) FROM fail_logs"
            ).fetchone()
        return int(count)

    def __iter__(self) -> Iterator[FailLogRecord]:
        return iter(self.records())

    def get(self, name: str) -> FailLogRecord:
        with closing(self._connect()) as connection:
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
        with closing(self._connect()) as connection:
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
