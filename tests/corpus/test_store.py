"""ScheduleCorpus behaviour: roundtrip, budgets, quarantine, degradation."""

from __future__ import annotations

import json
import shutil
import sqlite3
from contextlib import closing

import pytest

from repro.corpus import NullCorpus, open_corpus, validate_entry
from repro.corpus import store as corpus_store
from repro.corpus.signature import canonical, checksum, placement_signature
from repro.corpus.store import row_sum
from repro.util.config import MachineConfig
from tests.corpus.helpers import CORPUS_FILE, entry_for, raw_sql


class TestCanonicalEncoding:
    """Row checksums and key signatures share one canonical digest."""

    def test_canonical_is_key_order_independent(self):
        assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})
        body = json.loads(canonical({"a": [1, 2], "b": None}))
        assert checksum(canonical(body)) == checksum(
            canonical({"b": None, "a": [1, 2]}))

    def test_digests_are_pinned(self):
        # keys and rows written by earlier builds must still match
        assert checksum(canonical({"a": [1, 2], "b": None})) \
            == "f25109c4111335e4"
        assert placement_signature(MachineConfig(
            n_nodes=8, block_size=32, page_size=512)) == "fc73bc4dc0a4589c"
        assert row_sum(b"key/a", canonical({"a": 1})) == b"ef981795e8b6c7bf"


class TestRoundtrip:
    def test_store_then_lookup(self, tmp_path):
        corpus = open_corpus(tmp_path / "c")
        assert corpus.ok
        entry = entry_for()
        assert corpus.store("k1", entry)
        assert corpus.lookup("k1") == entry
        assert corpus.lookup("k1", n_nodes=2) == entry
        assert corpus.lookup("absent") is None

    def test_reopen_preserves_entries(self, tmp_path):
        root = tmp_path / "c"
        open_corpus(root).store("k1", entry_for(directive=3))
        reopened = open_corpus(root)
        assert reopened.lookup("k1") == entry_for(directive=3)
        assert reopened.stats()["quarantined"] == 0

    def test_last_write_wins_across_reopen(self, tmp_path):
        root = tmp_path / "c"
        corpus = open_corpus(root)
        corpus.store("k1", entry_for(blocks=(1,)))
        corpus.store("k1", entry_for(blocks=(1, 2, 3)))
        assert open_corpus(root).lookup("k1") == entry_for(blocks=(1, 2, 3))

    def test_placement_mismatch_is_a_miss(self, tmp_path):
        corpus = open_corpus(tmp_path / "c")
        corpus.store("k1", entry_for(n_nodes=2))
        assert corpus.lookup("k1", n_nodes=4) is None
        assert corpus.stats()["misses"] == 1

    def test_identical_restore_does_not_grow_segments(self, tmp_path):
        root = tmp_path / "c"
        corpus = open_corpus(root)
        corpus.store("k1", entry_for())
        size = (root / CORPUS_FILE).stat().st_size
        for _ in range(5):
            assert corpus.store("k1", entry_for())
        assert (root / CORPUS_FILE).stat().st_size == size
        assert open_corpus(root).lookup("k1") == entry_for()


class TestBudgets:
    def test_lru_eviction_by_entry_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus_store, "MAX_ENTRIES", 2)
        corpus = open_corpus(tmp_path / "c")
        corpus.store("a", entry_for(directive=0))
        corpus.store("b", entry_for(directive=1))
        assert corpus.store("a", entry_for(directive=0))  # b is now LRU
        corpus.lookup("b")  # a pure read: refreshes nothing
        corpus.store("c", entry_for(directive=2))
        assert corpus.lookup("b") is None
        assert corpus.lookup("a") is not None
        assert corpus.lookup("c") is not None
        assert corpus.stats()["evictions"] == 1

    def test_reopen_respects_entry_budget(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus_store, "MAX_ENTRIES", 2)
        root = tmp_path / "c"
        corpus = open_corpus(root)
        for i in range(4):
            corpus.store(f"k{i}", entry_for(directive=i))
        kept = dict(open_corpus(root).entries())
        assert set(kept) == {"k2", "k3"}  # eviction persisted with the store

    def test_compact_keeps_entries_and_drops_dead_frames(self, tmp_path):
        root = tmp_path / "c"
        corpus = open_corpus(root)
        corpus.store("k", entry_for(blocks=tuple(range(4000))))
        corpus.store("k", entry_for(blocks=(9,)))  # frees the big row's pages
        corpus.store("other", entry_for(directive=9))
        before = (root / CORPUS_FILE).stat().st_size
        assert corpus.compact() == 2
        assert (root / CORPUS_FILE).stat().st_size < before
        reopened = open_corpus(root)
        assert reopened.lookup("k") == entry_for(blocks=(9,))
        assert reopened.lookup("other") == entry_for(directive=9)


class TestValidation:
    def test_validate_accepts_good_entry(self):
        assert validate_entry(entry_for()) == []

    @pytest.mark.parametrize("mutate, needle", [
        (lambda e: e.update(n_nodes=0), "n_nodes"),
        (lambda e: e.update(records="nope"), "records"),
        (lambda e: e["records"][0].update(directive=-1), "directive"),
        (lambda e: e["records"][0].update(cooldown=-2), "cooldown"),
        (lambda e: e["records"][0]["entries"][0].update(kind="evict"), "kind"),
        (lambda e: e["records"][0]["entries"][0].update(block=-5), "block"),
        (lambda e: e["records"][0]["entries"][0].update(readers=[7]),
         "readers"),
        (lambda e: e["records"][0]["entries"][0].update(writer=9), "writer"),
        (lambda e: e["records"][0]["entries"][0].update(readers=[]),
         "READ with no readers"),
        (lambda e: e["records"][0]["entries"][0].update(pre_conflict="x"),
         "pre_conflict"),
    ])
    def test_validate_rejects(self, mutate, needle):
        entry = entry_for()
        mutate(entry)
        problems = validate_entry(entry)
        assert problems and any(needle in p for p in problems)

    def test_store_rejects_invalid_entry(self, tmp_path):
        corpus = open_corpus(tmp_path / "c")
        bad = entry_for()
        bad["records"][0]["entries"][0]["readers"] = [99]
        assert not corpus.store("k", bad)
        assert corpus.lookup("k") is None
        assert corpus.stats()["quarantined"] == 1
        assert corpus.stats()["quarantine_rows"] == 1


def flip_body_byte(root, key: str, at: int = 20) -> None:
    """Flip one byte of ``key``'s stored body, leaving its checksum stale."""
    ((body,),) = raw_sql(root, ("SELECT body FROM entries WHERE key = ?",
                                (key,)))
    body = bytearray(body)
    body[at] ^= 0x01
    raw_sql(root, ("UPDATE entries SET body = ? WHERE key = ?",
                   (bytes(body), key)))


class TestDamage:
    def test_flipped_byte_costs_one_record_not_the_suffix(self, tmp_path):
        root = tmp_path / "c"
        seeded = open_corpus(root)
        seeded.store("a", entry_for(directive=0))
        seeded.store("b", entry_for(directive=1))
        seeded.close()
        flip_body_byte(root, "a")
        corpus = open_corpus(root)
        assert corpus.lookup("a") is None
        assert corpus.lookup("b") == entry_for(directive=1)
        stats = corpus.stats()
        assert stats["quarantined"] == 1 and stats["quarantine_rows"] == 1
        assert stats["moved_aside"] == 0
        # the damaged row left ``entries``; a second open is clean
        assert open_corpus(root).stats()["quarantined"] == 0

    def test_foreign_segment_is_skipped_untouched(self, tmp_path):
        # the segment log of earlier builds, and corpus files of other
        # versions: never opened, modified or deleted, and never trusted
        root = tmp_path / "c"
        (root / ".quarantine").mkdir(parents=True)
        foreign = {
            "seg-000001.log": b"\x00\x00\x00F{\"body\":{\"magic\":"
                              b"\"repro.corpus\",\"version\":1}}",
            ".lock": b"",
            ".quarantine/q-000001.json": b'{"reason": "torn-tail"}\n',
            "corpus-v1.sqlite3": b"not ours",
            "corpus-v3.sqlite3": b"SQLite format 3\x00 of the future",
        }
        for name, data in foreign.items():
            (root / name).write_bytes(data)
        corpus = open_corpus(root)
        assert corpus.ok and corpus.entries() == []
        assert corpus.stats()["quarantined"] == 0
        assert corpus.store("new", entry_for())
        corpus.compact()
        corpus.scrub()
        corpus.close()
        for name, data in foreign.items():
            assert (root / name).read_bytes() == data, name

    def test_scrub_removes_quarantine_files(self, tmp_path):
        root = tmp_path / "c"
        open_corpus(root).store("k", entry_for())
        flip_body_byte(root, "k")
        corpus = open_corpus(root)
        assert corpus.stats()["quarantine_rows"] == 1
        assert corpus.scrub() == 1
        assert corpus.stats()["quarantine_rows"] == 0

    def test_unreadable_file_is_set_aside_whole(self, tmp_path):
        root = tmp_path / "c"
        open_corpus(root).store("k", entry_for())
        garbage = bytes(range(256)) * 16
        (root / CORPUS_FILE).write_bytes(garbage)
        # a journal belongs to the file it would roll back: it travels too
        (root / f"{CORPUS_FILE}-journal").write_bytes(garbage[:512])
        corpus = open_corpus(root)
        assert corpus.ok and corpus.lookup("k") is None
        assert corpus.stats()["moved_aside"] == 1
        # moved, never deleted or rewritten; the fresh file works
        aside = root / ".quarantine"
        assert (aside / f"{CORPUS_FILE}.1").read_bytes() == garbage
        assert (aside / f"{CORPUS_FILE}-journal.1").read_bytes() \
            == garbage[:512]
        assert corpus.store("k", entry_for())
        assert open_corpus(root).stats()["moved_aside"] == 0


class TestDegradation:
    def test_open_on_a_file_degrades_to_null(self, tmp_path):
        path = tmp_path / "not-a-dir"
        path.write_text("hello")
        corpus = open_corpus(path)
        assert isinstance(corpus, NullCorpus)
        assert not corpus.ok
        assert corpus.lookup("k") is None
        assert not corpus.store("k", entry_for())
        assert corpus.compact() == 0 and corpus.scrub() == 0
        assert corpus.stats()["ok"] is False

    def test_locked_file_degrades_and_is_left_alone(self, tmp_path,
                                                    monkeypatch):
        # a writer that outlasts the busy timeout is not damage: the run
        # goes cold and the healthy file stays where it is
        root = tmp_path / "c"
        open_corpus(root).store("k", entry_for())
        data = (root / CORPUS_FILE).read_bytes()
        monkeypatch.setattr(corpus_store, "BUSY_TIMEOUT_S", 0.05)
        with closing(sqlite3.connect(root / CORPUS_FILE,
                                     isolation_level=None)) as writer:
            writer.execute("BEGIN EXCLUSIVE")
            corpus = open_corpus(root)
            assert isinstance(corpus, NullCorpus) and "locked" in corpus.reason
            writer.execute("ROLLBACK")
        assert (root / CORPUS_FILE).read_bytes() == data
        assert not (root / ".quarantine").exists()
        assert open_corpus(root).lookup("k") == entry_for()

    def test_store_failure_never_raises(self, tmp_path):
        root = tmp_path / "c"
        corpus = open_corpus(root)
        corpus.store("k", entry_for())
        shutil.rmtree(root)  # rip the directory out from under the corpus
        assert not corpus.store("k2", entry_for(directive=1))
        assert corpus.stats()["failures"] >= 1
        assert corpus.last_error is not None
