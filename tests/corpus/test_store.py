"""ScheduleCorpus behaviour: roundtrip, budgets, quarantine, degradation."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.corpus import NullCorpus, open_corpus, validate_entry
from repro.corpus.signature import canonical, checksum, placement_signature
from repro.corpus.store import _frame, _header_frame
from repro.util.config import MachineConfig
from tests.corpus.helpers import entry_for


class TestCanonicalEncoding:
    """Segment checksums and key signatures share one canonical digest."""

    def test_canonical_is_key_order_independent(self):
        assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})
        body = json.loads(canonical({"a": [1, 2], "b": None}))
        assert checksum(canonical(body)) == checksum(
            canonical({"b": None, "a": [1, 2]}))

    def test_digests_are_pinned(self):
        # segment and key bytes written by earlier builds must still match
        assert checksum(canonical({"a": [1, 2], "b": None})) \
            == "f25109c4111335e4"
        assert placement_signature(MachineConfig(
            n_nodes=8, block_size=32, page_size=512)) == "fc73bc4dc0a4589c"
        assert _header_frame() == (
            b'\x00\x00\x00F{"body":{"magic":"repro.corpus","version":1},'
            b'"sum":"b409e65dfe0eb7b0"}')


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
        size = sum(p.stat().st_size for p in root.glob("seg-*.log"))
        for _ in range(5):
            assert corpus.store("k1", entry_for())
        assert sum(p.stat().st_size for p in root.glob("seg-*.log")) == size


class TestBudgets:
    def test_lru_eviction_by_entry_count(self, tmp_path):
        corpus = open_corpus(tmp_path / "c", max_entries=2)
        corpus.store("a", entry_for(directive=0))
        corpus.store("b", entry_for(directive=1))
        corpus.lookup("a")  # refresh: b is now least recently used
        corpus.store("c", entry_for(directive=2))
        assert corpus.lookup("b") is None
        assert corpus.lookup("a") is not None
        assert corpus.lookup("c") is not None
        assert corpus.stats()["evictions"] == 1

    def test_reopen_respects_entry_budget(self, tmp_path):
        root = tmp_path / "c"
        corpus = open_corpus(root, max_entries=16)
        for i in range(4):
            corpus.store(f"k{i}", entry_for(directive=i))
        reopened = open_corpus(root, max_entries=2)
        kept = dict(reopened.entries())
        assert set(kept) == {"k2", "k3"}  # most recently stored survive

    def test_size_budget_triggers_compaction(self, tmp_path):
        root = tmp_path / "c"
        corpus = open_corpus(root, max_bytes=4096)
        for i in range(40):
            corpus.store("hot", entry_for(blocks=tuple(range(i % 7 + 1))))
        # dead frames were rewritten away; the one live entry survives
        assert sum(p.stat().st_size for p in root.glob("seg-*.log")) < 4096
        assert open_corpus(root).lookup("hot") is not None

    def test_compact_keeps_entries_and_drops_dead_frames(self, tmp_path):
        root = tmp_path / "c"
        corpus = open_corpus(root)
        for i in range(10):
            corpus.store("k", entry_for(blocks=(i,)))
        corpus.store("other", entry_for(directive=9))
        before = sum(p.stat().st_size for p in root.glob("seg-*.log"))
        assert corpus.compact() == 2
        after = sum(p.stat().st_size for p in root.glob("seg-*.log"))
        assert after < before
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
        assert corpus.stats()["quarantine_files"] == 1


class TestDamage:
    def test_torn_tail_is_truncated_and_quarantined(self, tmp_path):
        root = tmp_path / "c"
        open_corpus(root).store("k", entry_for())
        (segment,) = root.glob("seg-*.log")
        good = segment.read_bytes()
        segment.write_bytes(good + b"\x00\x00\x01\xffhalf a frame")
        reopened = open_corpus(root)
        assert reopened.lookup("k") == entry_for()
        assert reopened.stats()["recovered_tails"] == 1
        assert segment.read_bytes() == good  # truncated back to the boundary

    def test_flipped_byte_costs_one_record_not_the_suffix(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        frames = [_header_frame(),
                  _frame({"op": "put", "gen": 1, "key": "a",
                          "entry": entry_for(directive=0)}),
                  _frame({"op": "put", "gen": 2, "key": "b",
                          "entry": entry_for(directive=1)})]
        # flip a payload byte inside the *first* put frame
        broken = bytearray(frames[1])
        broken[20] ^= 0xFF
        (root / "seg-000001.log").write_bytes(
            frames[0] + bytes(broken) + frames[2])
        corpus = open_corpus(root)
        assert corpus.lookup("a") is None
        assert corpus.lookup("b") == entry_for(directive=1)
        assert corpus.stats()["quarantined"] == 1
        assert corpus.stats()["recovered_tails"] == 0

    def test_foreign_segment_is_skipped_untouched(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        foreign = (_frame({"magic": "repro.corpus", "version": 999})
                   + _frame({"op": "put", "gen": 1, "key": "k",
                             "entry": entry_for()}))
        (root / "seg-000001.log").write_bytes(foreign)
        corpus = open_corpus(root)
        assert corpus.lookup("k") is None
        assert corpus.stats()["skipped_segments"] == 1
        # never modified, never deleted: it may belong to a future build
        assert (root / "seg-000001.log").read_bytes() == foreign
        corpus.store("new", entry_for())
        corpus.compact()
        assert (root / "seg-000001.log").read_bytes() == foreign

    def test_scrub_removes_quarantine_files(self, tmp_path):
        root = tmp_path / "c"
        open_corpus(root).store("k", entry_for())
        (segment,) = root.glob("seg-*.log")
        segment.write_bytes(segment.read_bytes() + b"\xff\xff")
        corpus = open_corpus(root)
        assert corpus.stats()["quarantine_files"] == 1
        assert corpus.scrub() == 1
        assert corpus.stats()["quarantine_files"] == 0


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

    def test_store_failure_never_raises(self, tmp_path):
        root = tmp_path / "c"
        corpus = open_corpus(root)
        corpus.store("k", entry_for())
        shutil.rmtree(root)  # rip the directory out from under the corpus
        assert not corpus.store("k2", entry_for(directive=1))
        assert corpus.stats()["failures"] >= 1
        assert corpus.last_error is not None
