"""The durable, self-healing schedule corpus: one SQLite file.

``ScheduleCorpus`` persists learned :class:`~repro.core.schedule.
CommSchedule` records content-addressed by ``(program, protocol,
placement)`` so later runs warm-start and pre-send from iteration 1.  A
persisted schedule is an *input* to future runs, so disk contents are
never trusted: every row carries a checksum over its key *and* body,
checked on every read; opening quarantines untrusted rows and sets an
unreadable file aside; each store is one durable transaction; and no
public method raises — a failure degrades to the cold start the run would
have had with no corpus.  ``docs/CORPUS.md`` has the format, the damage
table and the migration note.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path

from repro.corpus.signature import canonical, checksum

__all__ = ["CORPUS_VERSION", "MAX_ENTRIES", "ScheduleCorpus", "NullCorpus",
           "open_corpus", "validate_entry"]

#: bump only for incompatible format changes; it names the corpus file
CORPUS_VERSION = 2

#: keys kept; the least recently stored are evicted first
MAX_ENTRIES = 256

#: seconds a store waits for another process's transaction (no lock file)
BUSY_TIMEOUT_S = 30.0

#: the file's tables, exactly as ``sqlite_master`` must hold them
_TABLES = (
    "CREATE TABLE entries (key TEXT PRIMARY KEY, body BLOB, sum TEXT, "
    "used INTEGER)",
    "CREATE TABLE quarantine (id INTEGER PRIMARY KEY, reason TEXT, key, "
    "detail TEXT, body)",
)

_QUARANTINE = ("INSERT INTO quarantine (reason, key, detail, body) "
               "VALUES (?, ?, ?, ?)")

#: what a failing operation may raise, absorbed by every public method
#: (TypeError/ValueError: unencodable JSON or an undecodable SQLite message)
_ERRORS = (sqlite3.Error, OSError, TypeError, ValueError)

_ENTRY_KINDS = frozenset(("read", "write", "conflict"))


def validate_entry(entry) -> list[str]:
    """Structural sanity of one corpus entry; returns problems (empty = ok).

    Mirrors what the in-memory machinery guarantees by construction: node
    ids within the recorded placement, legal entry kinds, non-negative
    blocks/cooldowns, and per-kind shape (a READ anticipation needs
    readers, a WRITE needs a writer — ``purge_node`` deletes anything
    else, so a valid learned schedule never contains them).
    """
    problems: list[str] = []
    if not isinstance(entry, dict):
        return [f"entry is {type(entry).__name__}, not a dict"]
    n_nodes = entry.get("n_nodes")
    if not isinstance(n_nodes, int) or n_nodes < 1:
        return [f"bad n_nodes {n_nodes!r}"]
    if not isinstance(entry.get("protocol"), str):
        problems.append(f"bad protocol {entry.get('protocol')!r}")
    records = entry.get("records")
    if not isinstance(records, list):
        return problems + [f"records is {type(records).__name__}, not a list"]

    def node_ok(n) -> bool:
        return isinstance(n, int) and 0 <= n < n_nodes

    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if not isinstance(rec, dict):
            problems.append(f"{where}: not a dict")
            continue
        directive = rec.get("directive")
        if not isinstance(directive, int) or directive < 0:
            problems.append(f"{where}: bad directive {directive!r}")
        cooldown = rec.get("cooldown", 0)
        if not isinstance(cooldown, int) or cooldown < 0:
            problems.append(f"{where}: bad cooldown {cooldown!r}")
        ents = rec.get("entries")
        if not isinstance(ents, list):
            problems.append(f"{where}: entries not a list")
            continue
        for ent in ents:
            if not isinstance(ent, dict):
                problems.append(f"{where}: entry not a dict")
                continue
            block = ent.get("block")
            if not isinstance(block, int) or block < 0:
                problems.append(f"{where}: bad block {block!r}")
            kind = ent.get("kind")
            if kind not in _ENTRY_KINDS:
                problems.append(f"{where}: bad kind {kind!r}")
            readers = ent.get("readers")
            if (not isinstance(readers, list)
                    or not all(node_ok(r) for r in readers)):
                problems.append(f"{where} block {block!r}: bad readers "
                                f"{readers!r} for {n_nodes} node(s)")
                readers = []
            writer = ent.get("writer")
            if writer is not None and not node_ok(writer):
                problems.append(f"{where} block {block!r}: bad writer "
                                f"{writer!r} for {n_nodes} node(s)")
                writer = None
            if kind == "read" and not readers:
                problems.append(f"{where} block {block!r}: READ with no "
                                f"readers")
            elif kind == "write" and writer is None:
                problems.append(f"{where} block {block!r}: WRITE with no "
                                f"writer")
            pre = ent.get("pre_conflict")
            if pre is not None and pre not in _ENTRY_KINDS:
                problems.append(f"{where} block {block!r}: bad pre_conflict "
                                f"{pre!r}")
    return problems


def row_sum(key: bytes, body: bytes) -> bytes:
    """The checksum stored with a row: over the key *and* the body, so a
    row read back under any other key fails it."""
    return checksum(b"%d:%s%s" % (len(key), key, body)).encode()


def _decode(key, body, total) -> tuple[dict | None, str]:
    """The entry one row holds, or None and why it cannot be trusted.
    TEXT columns come back as bytes, so a column damaged into invalid
    UTF-8 or another type is a bad row, not an error."""
    if (not all(isinstance(v, bytes) for v in (key, body, total))
            or total != row_sum(key, body)):
        return None, "checksum-mismatch"
    try:
        entry = json.loads(body)
    except ValueError as exc:
        return None, f"undecodable: {exc}"
    problems = validate_entry(entry)
    if problems:
        return None, "validation: " + "; ".join(problems[:8])
    return entry, ""


class NullCorpus:
    """The inert corpus: every operation is a no-op.

    Returned by :func:`open_corpus` when the directory cannot be used at
    all, so callers never need a ``corpus is not None and corpus.ok``
    dance — the degraded path has the same shape as the healthy one.
    """

    ok = False

    def __init__(self, reason: str = "corpus disabled"):
        self.reason = reason

    def lookup(self, key: str, n_nodes: int | None = None):
        return None

    def store(self, key: str, entry: dict) -> bool:
        return False

    def compact(self) -> int:
        return 0

    def scrub(self) -> int:
        return 0

    def stats(self) -> dict:
        return {"ok": False, "reason": self.reason}

    def close(self) -> None:
        pass


class ScheduleCorpus:
    """One corpus directory.  A failing operation counts a failure, records
    :attr:`last_error`, and returns what :class:`NullCorpus` would."""

    ok = True

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.path = self.root / f"corpus-v{CORPUS_VERSION}.sqlite3"
        self.quarantine_dir = self.root / ".quarantine"
        self.last_error: str | None = None
        self.counters = {"hits": 0, "misses": 0, "stores": 0,
                         "quarantined": 0, "evictions": 0, "moved_aside": 0,
                         "failures": 0}
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            self.db = self._connect()
        except (sqlite3.DatabaseError, UnicodeDecodeError) as exc:
            if "locked" in str(exc):
                raise  # another process outlasted the busy timeout
            # SQLite cannot read the file (a damaged schema can even yield
            # an undecodable error message): set it aside, start afresh
            self._move_aside()
            self.db = self._connect()

    def _connect(self) -> sqlite3.Connection:
        """Open the file, create its tables and quarantine untrusted rows."""
        db = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_S,
                             isolation_level=None)
        db.text_factory = bytes
        try:
            db.execute("PRAGMA synchronous=FULL")
            for table in _TABLES:
                db.execute(table.replace("TABLE", "TABLE IF NOT EXISTS", 1))
            schema = db.execute("SELECT sql FROM sqlite_master "
                                "WHERE type = 'table'").fetchall()
            if sorted(schema) != sorted((t.encode(),) for t in _TABLES):
                raise sqlite3.DatabaseError(f"unexpected schema {schema!r}")
            self._scan(db)
        except BaseException:
            db.close()
            raise
        return db

    def _fail(self, where: str, exc: BaseException) -> None:
        self.counters["failures"] += 1
        self.last_error = f"{where}: {type(exc).__name__}: {exc}"

    def _scan(self, db: sqlite3.Connection) -> None:
        """Move every row that cannot be trusted into ``quarantine``."""
        bad = []
        # every column is read, so a damaged record fails here, not later
        for rowid, key, body, total, used in db.execute(
                "SELECT rowid, key, body, sum, used FROM entries").fetchall():
            entry, reason = _decode(key, body, total)
            if entry is not None and not isinstance(used, int):
                entry, reason = None, f"bad-recency: {used!r}"
            if entry is None:
                bad.append((rowid, key, body, reason))
        if not bad:
            return
        with db:
            db.execute("BEGIN IMMEDIATE")
            for rowid, key, body, reason in bad:
                kind, _, detail = reason.partition(": ")
                db.execute(_QUARANTINE, (kind, key, detail, body))
                # by rowid: a damaged key index may not find the row
                db.execute("DELETE FROM entries WHERE rowid = ?", (rowid,))
        self.counters["quarantined"] += len(bad)

    def _move_aside(self) -> None:
        """Sideline an unreadable file (and its journal) unmodified."""
        self.quarantine_dir.mkdir(exist_ok=True)
        n = 1
        while (dest := self.quarantine_dir / f"{self.path.name}.{n}").exists():
            n += 1
        journal = self.path.with_name(self.path.name + "-journal")
        if journal.exists():
            # a hot journal belongs to the file it would roll back
            os.replace(journal, self.quarantine_dir / f"{journal.name}.{n}")
        os.replace(self.path, dest)
        self.counters["moved_aside"] += 1

    def lookup(self, key: str, n_nodes: int | None = None):
        """The entry stored under ``key``, or None; a pure read.  With
        ``n_nodes``, an entry of another placement is a miss."""
        try:
            row = self.db.execute("SELECT body, sum FROM entries "
                                  "WHERE key = ?", (key,)).fetchone()
            entry = _decode(key.encode(), *row)[0] if row else None
        except _ERRORS as exc:
            self._fail("lookup", exc)
            entry = None
        if entry is not None and (n_nodes is None
                                  or entry["n_nodes"] == n_nodes):
            self.counters["hits"] += 1
            return entry
        self.counters["misses"] += 1
        return None

    def entries(self) -> list[tuple[str, dict]]:
        """Trusted (key, entry) pairs, least- to most-recently stored."""
        try:
            rows = self.db.execute(
                "SELECT key, body, sum FROM entries ORDER BY used").fetchall()
        except _ERRORS as exc:
            self._fail("entries", exc)
            return []
        decoded = [(key, _decode(key, body, total)[0])
                   for key, body, total in rows]
        return [(key.decode(), entry) for key, entry in decoded
                if entry is not None]

    def stats(self) -> dict:
        entries = quarantine_rows = disk_bytes = 0
        try:
            (entries,), = self.db.execute("SELECT COUNT(*) FROM entries")
            (quarantine_rows,), = self.db.execute(
                "SELECT COUNT(*) FROM quarantine")
            disk_bytes = self.path.stat().st_size
        except _ERRORS as exc:
            self._fail("stats", exc)
        return {"ok": True, "root": str(self.root), "entries": entries,
                "disk_bytes": disk_bytes, "quarantine_rows": quarantine_rows,
                "last_error": self.last_error, **self.counters}

    def store(self, key: str, entry: dict) -> bool:
        """Durably commit ``entry`` under ``key`` as the most recently used
        (identical re-stores too), evicting past :data:`MAX_ENTRIES`;
        True on commit.  An invalid entry is rejected into ``quarantine``,
        so no process can poison the shared corpus."""
        problems = validate_entry(entry)
        try:
            with self.db:
                self.db.execute("BEGIN IMMEDIATE")
                if problems:
                    self.db.execute(_QUARANTINE, ("store-rejected", key,
                                                  "; ".join(problems[:8]),
                                                  None))
                else:
                    body = canonical(entry)
                    self.db.execute(
                        "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, "
                        "(SELECT COALESCE(MAX(used), 0) + 1 FROM entries))",
                        (key, body, row_sum(key.encode(), body).decode()))
                    evicted = self.db.execute(
                        "DELETE FROM entries WHERE rowid IN (SELECT rowid "
                        "FROM entries ORDER BY used DESC LIMIT -1 OFFSET ?)",
                        (MAX_ENTRIES,)).rowcount
        except _ERRORS as exc:
            self._fail("store", exc)
            return False
        if problems:
            self.counters["quarantined"] += 1
            return False
        self.counters["stores"] += 1
        self.counters["evictions"] += evicted
        return True

    def compact(self) -> int:
        """Rebuild the key index from the table, then ``VACUUM`` the file;
        returns the number of entries kept."""
        try:
            self.db.execute("REINDEX")
            self.db.execute("VACUUM")
        except _ERRORS as exc:
            self._fail("compact", exc)
            return 0
        return self.stats()["entries"]

    def scrub(self) -> int:
        """Empty the quarantine table; returns how many rows were removed."""
        try:
            with self.db:
                self.db.execute("BEGIN IMMEDIATE")
                return self.db.execute("DELETE FROM quarantine").rowcount
        except _ERRORS as exc:
            self._fail("scrub", exc)
            return 0

    def close(self) -> None:
        self.db.close()


def open_corpus(root: str | Path):
    """Open (creating if needed) a corpus directory; never raises: an
    unusable directory gives a :class:`NullCorpus`, and the run proceeds
    as if no corpus had been configured."""
    try:
        return ScheduleCorpus(root)
    except Exception as exc:
        return NullCorpus(f"cannot open corpus at {root}: "
                          f"{type(exc).__name__}: {exc}")
