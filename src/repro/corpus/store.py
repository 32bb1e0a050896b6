"""The durable, self-healing schedule corpus.

``ScheduleCorpus`` persists learned :class:`~repro.core.schedule.
CommSchedule` records content-addressed by ``(program, protocol,
placement)`` so later runs — and other farm workers sharing the directory —
warm-start and pre-send from iteration 1 instead of relearning every
directive site from scratch.

Robustness is the headline contract, because a persisted schedule is an
*input* to future runs and disk contents cannot be trusted the way process
memory can:

* **Append-only segments, checksummed per record.**  A segment file is a
  sequence of length-prefixed frames — ``[4-byte BE length][canonical JSON
  {"body", "sum"}]`` — where ``sum`` is a truncated SHA-256 of the body's
  canonical encoding (:func:`repro.corpus.signature.checksum`, the digest
  that also content-addresses corpus keys).  The first frame is a
  version-pinned header; a wrong magic or version quarantines the whole
  segment unread (it may belong to a future format — never destroyed,
  never trusted).
* **Torn-tail recovery.**  Appends can tear on crash/kill -9.  On open,
  frames are replayed in order; a frame whose *length field* is implausible
  or that extends past end-of-file marks the torn tail — the tail bytes are
  quarantined and the segment is truncated back to the last good frame
  boundary.  A frame whose framing is intact but whose payload fails the
  checksum or JSON-decode is quarantined *individually* and scanning
  continues, so one flipped bit costs one record, not the suffix.
* **Validation on load.**  Every surviving record passes the same
  structural sanity the in-memory poisoned-schedule defenses assume
  (:func:`validate_entry`): node ids within the recorded placement, legal
  entry kinds, non-negative blocks and cooldowns.  Failures land in the
  ``.quarantine/`` sidecar with a reason, visible to ``repro corpus
  doctor`` and counted in :meth:`ScheduleCorpus.stats`.
* **Advisory locking.**  Concurrent farm workers sharing one corpus
  directory serialize appends, truncation, and compaction on an
  ``fcntl.flock`` over ``<dir>/.lock``, so writers never interleave
  frames.
* **Atomic rewrites.**  Compaction builds the replacement segment through
  :mod:`repro.util.atomicio` (write-temp + fsync + rename); readers see
  the old segment set or the new one, never a half-written file.
* **LRU + size budgets.**  The corpus keeps at most ``max_entries`` keys
  (least-recently-stored/used evicted first) and compacts itself when the
  segment bytes exceed ``max_bytes``.
* **Graceful degradation.**  No corpus failure may ever surface inside a
  simulation: every public method catches everything, counts a failure,
  emits a ``corpus.fallback`` event, and degrades to doing nothing — the
  run merely relearns, exactly as with no corpus at all.
  :func:`open_corpus` returns a :class:`NullCorpus` when the directory
  itself is unusable.
"""

from __future__ import annotations

import os
import struct
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

from repro.corpus.signature import canonical, checksum
from repro.obs.events import EventKind as Ev
from repro.util.atomicio import atomic_write_bytes, atomic_write_json, fsync_dir

__all__ = ["CORPUS_MAGIC", "CORPUS_VERSION", "ScheduleCorpus", "NullCorpus",
           "open_corpus", "validate_entry"]

CORPUS_MAGIC = "repro.corpus"
#: bump only for incompatible record-format changes
CORPUS_VERSION = 1

#: hard upper bound on one frame; anything larger is corruption
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")

_ENTRY_KINDS = frozenset(("read", "write", "conflict"))


def _frame(body: dict) -> bytes:
    payload = canonical(body)
    framed = canonical({"body": body, "sum": checksum(payload)})
    return _LEN.pack(len(framed)) + framed


def _header_frame() -> bytes:
    return _frame({"magic": CORPUS_MAGIC, "version": CORPUS_VERSION})


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
    """One corpus directory (see module docstring for the contract).

    Public methods never raise; a corpus that hits an unexpected internal
    error disables itself (:attr:`disabled`) and degrades to
    :class:`NullCorpus` behaviour, counting the failure.
    """

    ok = True

    def __init__(self, root: str | Path, *, max_entries: int = 256,
                 max_bytes: int = 16 * 1024 * 1024, tracer=None):
        self.root = Path(root)
        self.max_entries = max(1, int(max_entries))
        self.max_bytes = max(4096, int(max_bytes))
        self.tracer = tracer
        self.disabled = False
        self.last_error: str | None = None
        self.counters = {
            "hits": 0, "misses": 0, "stores": 0, "quarantined": 0,
            "recovered_tails": 0, "skipped_segments": 0, "evictions": 0,
            "failures": 0,
        }
        #: key -> entry, least- to most-recently used
        self._index: "OrderedDict[str, dict]" = OrderedDict()
        self._gen = 0
        self.root.mkdir(parents=True, exist_ok=True)
        self._quarantine_dir.mkdir(exist_ok=True)
        with self._locked():
            self._replay_segments()

    # -- plumbing --------------------------------------------------------------

    @property
    def _quarantine_dir(self) -> Path:
        return self.root / ".quarantine"

    def _segments(self) -> list[Path]:
        return sorted(self.root.glob("seg-*.log"))

    def _active_segment(self) -> Path:
        segments = self._segments()
        if segments and not self._is_foreign(segments[-1]):
            return segments[-1]
        if segments:
            # the newest segment belongs to another format/version: never
            # append into it — start a fresh one alongside
            return self._next_segment()
        return self.root / "seg-000001.log"

    def _next_segment(self) -> Path:
        segments = self._segments()
        n = 1
        if segments:
            try:
                n = int(segments[-1].stem.split("-")[1]) + 1
            except (IndexError, ValueError):
                n = len(segments) + 1
        return self.root / f"seg-{n:06d}.log"

    @contextmanager
    def _locked(self):
        """Advisory exclusive lock over the whole directory's writers."""
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX fallback
            yield
            return
        with open(self.root / ".lock", "a+b") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def _emit(self, kind: str, **attrs) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(kind, 0.0, **attrs)

    def _fail(self, where: str, exc: BaseException) -> None:
        self.counters["failures"] += 1
        self.last_error = f"{where}: {type(exc).__name__}: {exc}"
        self._emit(Ev.CORPUS_FALLBACK, where=where, error=str(exc))

    def _quarantine(self, reason: str, *, segment: str, offset: int,
                    detail: str = "", body=None, data: bytes | None = None
                    ) -> None:
        """Sideline one bad record/tail; counting must survive write failure."""
        self.counters["quarantined"] += 1
        self._emit(Ev.CORPUS_QUARANTINE, reason=reason, segment=segment,
                   offset=offset)
        doc = {"reason": reason, "segment": segment, "offset": offset,
               "detail": detail}
        if body is not None:
            doc["body"] = body
        if data is not None:
            doc["data_hex"] = data[:4096].hex()
            doc["data_bytes"] = len(data)
        try:
            seq = sum(1 for _ in self._quarantine_dir.glob("q-*.json")) + 1
            atomic_write_json(self._quarantine_dir / f"q-{seq:06d}.json", doc)
        except Exception as exc:
            self._fail("quarantine", exc)

    # -- open: replay + recover ------------------------------------------------

    def _replay_segments(self) -> None:
        puts: list[tuple[int, str, dict]] = []
        for segment in self._segments():
            puts.extend(self._replay_one(segment))
        puts.sort(key=lambda item: item[0])
        for gen, key, entry in puts:
            self._gen = max(self._gen, gen)
            self._index[key] = entry
            self._index.move_to_end(key)
        while len(self._index) > self.max_entries:
            evicted, _ = self._index.popitem(last=False)
            self.counters["evictions"] += 1
            self._emit(Ev.CORPUS_EVICT, key=evicted)

    def _replay_one(self, segment: Path) -> list[tuple[int, str, dict]]:
        """Replay one segment's frames; recover/quarantine damage in place."""
        try:
            data = segment.read_bytes()
        except OSError as exc:
            self._fail(f"read {segment.name}", exc)
            return []
        out: list[tuple[int, str, dict]] = []
        offset = 0
        saw_header = False
        while offset < len(data):
            if offset + 4 > len(data):
                self._recover_tail(segment, data, offset, "torn length prefix")
                return out
            (length,) = _LEN.unpack(data[offset:offset + 4])
            if length > MAX_FRAME_BYTES or offset + 4 + length > len(data):
                self._recover_tail(
                    segment, data, offset,
                    f"frame length {length} past end of segment"
                    if length <= MAX_FRAME_BYTES else
                    f"implausible frame length {length}")
                return out
            raw = data[offset + 4:offset + 4 + length]
            frame_at = offset
            offset += 4 + length
            body = self._decode_frame(segment, raw, frame_at)
            if body is None:
                continue  # quarantined individually; framing is intact
            if not saw_header:
                saw_header = True
                if (body.get("magic") != CORPUS_MAGIC
                        or body.get("version") != CORPUS_VERSION):
                    self.counters["skipped_segments"] += 1
                    self._quarantine(
                        "version-mismatch", segment=segment.name, offset=0,
                        detail=f"header {body!r}; this build reads "
                               f"{CORPUS_MAGIC} v{CORPUS_VERSION}",
                        body=body)
                    return out  # foreign segment: skip, do not modify
                continue
            out.extend(self._accept_put(segment, body, frame_at))
        return out

    def _decode_frame(self, segment: Path, raw: bytes, offset: int):
        import json

        try:
            frame = json.loads(raw)
            body = frame["body"]
            declared = frame["sum"]
        except (ValueError, KeyError, TypeError) as exc:
            self._quarantine("undecodable-frame", segment=segment.name,
                             offset=offset, detail=str(exc), data=raw)
            return None
        if checksum(canonical(body)) != declared:
            self._quarantine("checksum-mismatch", segment=segment.name,
                             offset=offset, body=body)
            return None
        return body

    def _accept_put(self, segment: Path, body, offset: int
                    ) -> list[tuple[int, str, dict]]:
        if (not isinstance(body, dict) or body.get("op") != "put"
                or not isinstance(body.get("key"), str)
                or not isinstance(body.get("gen"), int)):
            self._quarantine("malformed-op", segment=segment.name,
                             offset=offset, body=body)
            return []
        entry = body.get("entry")
        problems = validate_entry(entry)
        if problems:
            self._quarantine("validation", segment=segment.name,
                             offset=offset, detail="; ".join(problems[:8]),
                             body=body)
            return []
        return [(body["gen"], body["key"], entry)]

    def _recover_tail(self, segment: Path, data: bytes, offset: int,
                      detail: str) -> None:
        """Quarantine a torn tail and truncate back to the good prefix."""
        self.counters["recovered_tails"] += 1
        self._quarantine("torn-tail", segment=segment.name, offset=offset,
                         detail=detail, data=data[offset:])
        self._emit(Ev.CORPUS_RECOVER, segment=segment.name, offset=offset,
                   dropped=len(data) - offset)
        try:
            with open(segment, "r+b") as fh:
                fh.truncate(offset)
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            self._fail(f"truncate {segment.name}", exc)

    # -- reads -----------------------------------------------------------------

    def lookup(self, key: str, n_nodes: int | None = None):
        """The entry stored under ``key``, or None; marks the key used.

        ``n_nodes`` optionally cross-checks the entry against the machine
        about to be warmed — a stale-placement entry (however it got under
        this key) is a miss, never an exception.
        """
        if self.disabled:
            return None
        try:
            entry = self._index.get(key)
            if entry is not None and (n_nodes is None
                                      or entry.get("n_nodes") == n_nodes):
                self._index.move_to_end(key)
                self.counters["hits"] += 1
                self._emit(Ev.CORPUS_HIT, key=key,
                           records=len(entry.get("records", [])))
                return entry
            self.counters["misses"] += 1
            self._emit(Ev.CORPUS_MISS, key=key)
            return None
        except Exception as exc:
            self._fail("lookup", exc)
            return None

    def stats(self) -> dict:
        segments = entries = disk_bytes = quarantine_files = 0
        try:
            segs = self._segments()
            segments = len(segs)
            disk_bytes = sum(s.stat().st_size for s in segs)
            entries = len(self._index)
            quarantine_files = sum(
                1 for _ in self._quarantine_dir.glob("q-*.json"))
        except Exception as exc:
            self._fail("stats", exc)
        return {
            "ok": not self.disabled,
            "root": str(self.root),
            "segments": segments,
            "entries": entries,
            "disk_bytes": disk_bytes,
            "quarantine_files": quarantine_files,
            "last_error": self.last_error,
            **self.counters,
        }

    # -- writes ----------------------------------------------------------------

    def store(self, key: str, entry: dict) -> bool:
        """Durably append ``entry`` under ``key``; returns True on commit.

        Rejects (and counts) entries that fail validation — a process must
        not be able to poison the shared corpus with records the loader
        would quarantine anyway.
        """
        if self.disabled:
            return False
        try:
            problems = validate_entry(entry)
            if problems:
                self._quarantine("store-rejected", segment="(in-memory)",
                                 offset=-1, detail="; ".join(problems[:8]),
                                 body={"key": key})
                return False
            if self._index.get(key) == entry:
                # identical re-store (every rerun of a converged workload):
                # just refresh recency, no segment growth
                self._index.move_to_end(key)
                return True
            with self._locked():
                self._gen += 1
                segment = self._active_segment()
                body = {"op": "put", "gen": self._gen, "key": key,
                        "entry": entry}
                data = _frame(body)
                new_file = not segment.exists()
                with open(segment, "ab") as fh:
                    if new_file or fh.tell() == 0:
                        fh.write(_header_frame())
                    fh.write(data)
                    fh.flush()
                    os.fsync(fh.fileno())
                if new_file:
                    fsync_dir(self.root)
            self._index[key] = entry
            self._index.move_to_end(key)
            self.counters["stores"] += 1
            self._emit(Ev.CORPUS_STORE, key=key,
                       records=len(entry.get("records", [])))
            while len(self._index) > self.max_entries:
                evicted, _ = self._index.popitem(last=False)
                self.counters["evictions"] += 1
                self._emit(Ev.CORPUS_EVICT, key=evicted)
            if self._disk_bytes() > self.max_bytes:
                self.compact()
            return True
        except Exception as exc:
            self._fail("store", exc)
            return False

    def _disk_bytes(self) -> int:
        return sum(s.stat().st_size for s in self._segments())

    def compact(self) -> int:
        """Rewrite live entries into one fresh segment; drop dead frames.

        Returns the number of live entries kept.  The replacement segment
        is committed atomically (write-temp + fsync + rename) before the
        old segments are unlinked, so a crash at any point leaves either
        the old segment set or the new one.  Skips (does not delete)
        version-mismatched foreign segments.
        """
        if self.disabled:
            return 0
        try:
            with self._locked():
                old = [s for s in self._segments()
                       if not self._is_foreign(s)]
                while len(self._index) > self.max_entries:
                    evicted, _ = self._index.popitem(last=False)
                    self.counters["evictions"] += 1
                    self._emit(Ev.CORPUS_EVICT, key=evicted)
                chunks = [_header_frame()]
                self._gen = 0
                for key, entry in self._index.items():  # LRU -> MRU order
                    self._gen += 1
                    chunks.append(_frame({"op": "put", "gen": self._gen,
                                          "key": key, "entry": entry}))
                fresh = self._next_segment()
                atomic_write_bytes(fresh, b"".join(chunks))
                for segment in old:
                    if segment != fresh:
                        segment.unlink(missing_ok=True)
                fsync_dir(self.root)
            return len(self._index)
        except Exception as exc:
            self._fail("compact", exc)
            return 0

    def _is_foreign(self, segment: Path) -> bool:
        """True when the segment's header names another format/version."""
        try:
            with open(segment, "rb") as fh:
                head = fh.read(4)
                if len(head) < 4:
                    return False
                (length,) = _LEN.unpack(head)
                if length > MAX_FRAME_BYTES:
                    return False
                import json

                frame = json.loads(fh.read(length))
                body = frame["body"]
                return (body.get("magic") != CORPUS_MAGIC
                        or body.get("version") != CORPUS_VERSION)
        except Exception:
            return False

    def scrub(self) -> int:
        """Delete quarantined sidecar files; returns how many were removed."""
        if self.disabled:
            return 0
        removed = 0
        try:
            with self._locked():
                for path in sorted(self._quarantine_dir.glob("q-*.json")):
                    path.unlink(missing_ok=True)
                    removed += 1
        except Exception as exc:
            self._fail("scrub", exc)
        return removed

    def close(self) -> None:
        """Nothing held open between operations; kept for API symmetry."""

    # -- iteration (doctor) ----------------------------------------------------

    def entries(self):
        """(key, entry) pairs, least- to most-recently used."""
        return list(self._index.items())


def open_corpus(root: str | Path, *, max_entries: int = 256,
                max_bytes: int = 16 * 1024 * 1024, tracer=None):
    """Open (creating if needed) a corpus directory; never raises.

    Any failure to open — unwritable path, a file where the directory
    should be, an interrupted recovery — degrades to :class:`NullCorpus`
    with a ``corpus.fallback`` event, so the caller's run proceeds exactly
    as if no corpus had been configured.
    """
    try:
        return ScheduleCorpus(root, max_entries=max_entries,
                              max_bytes=max_bytes, tracer=tracer)
    except Exception as exc:
        if tracer is not None and tracer.enabled:
            tracer.emit(Ev.CORPUS_FALLBACK, 0.0, where="open",
                        error=str(exc))
        return NullCorpus(f"cannot open corpus at {root}: "
                          f"{type(exc).__name__}: {exc}")
