"""``repro corpus doctor``: inspection report, repair actions, exit codes."""

from __future__ import annotations

from repro.corpus import open_corpus
from repro.corpus.doctor import doctor
from tests.corpus.helpers import CORPUS_FILE, entry_for, raw_sql


def seeded_corpus(root):
    corpus = open_corpus(root)
    corpus.store("key/a", entry_for(directive=0))
    corpus.store("key/b", entry_for(directive=1, blocks=(5, 6, 7)))
    corpus.close()


def damage_one_row(root) -> None:
    """Corrupt key/a's body without updating its checksum."""
    raw_sql(root, ("UPDATE entries SET body = CAST(REPLACE("
                   "CAST(body AS TEXT), '\"directive\":0', "
                   "'\"directive\":7') AS BLOB) WHERE key = 'key/a'",))


def test_healthy_corpus_is_status_zero(tmp_path):
    seeded_corpus(tmp_path / "c")
    report, status = doctor(tmp_path / "c")
    assert status == 0
    assert "verdict: healthy" in report
    assert "key/a" in report and "key/b" in report
    assert "entries: 2" in report


def test_damage_is_status_one_and_reported(tmp_path):
    root = tmp_path / "c"
    seeded_corpus(root)
    damage_one_row(root)
    report, status = doctor(root)
    assert status == 1
    assert "quarantined 1 row(s)" in report
    assert "checksum-mismatch 'key/a'" in report
    assert "key/a  [" not in report and "key/b  [" in report
    # opening was the repair; a second doctor pass sees a healed store
    # with the quarantined row still on file
    report2, status2 = doctor(root)
    assert status2 == 1  # quarantine still non-empty
    assert "quarantined 0 row(s)" in report2
    assert "integrity: ok" in report2


def test_scrub_returns_corpus_to_healthy(tmp_path):
    root = tmp_path / "c"
    seeded_corpus(root)
    damage_one_row(root)
    report, status = doctor(root, scrub=True)
    assert status == 1  # this pass still found the damage
    assert "scrubbed: 1 quarantined row removed" in report
    report, status = doctor(root)
    assert status == 0
    assert "quarantine: empty" in report


def test_unreadable_file_is_status_one_and_listed(tmp_path):
    root = tmp_path / "c"
    seeded_corpus(root)
    (root / CORPUS_FILE).write_bytes(b"\xff" * 4096)
    report, status = doctor(root)
    assert status == 1
    assert "set aside 1 unreadable file(s)" in report
    assert f"{CORPUS_FILE}.1" in report
    assert "entries: 0" in report


def test_compact_rewrites_segments(tmp_path):
    root = tmp_path / "c"
    corpus = open_corpus(root)
    corpus.store("hot", entry_for(blocks=tuple(range(4000))))
    corpus.store("hot", entry_for(blocks=(9,)))
    before = (root / CORPUS_FILE).stat().st_size
    report, status = doctor(root, compact=True)
    assert status == 0
    assert "compacted: 1 entry kept" in report
    assert (root / CORPUS_FILE).stat().st_size < before
    assert open_corpus(root).lookup("hot") == entry_for(blocks=(9,))


def test_unusable_corpus_is_status_two(tmp_path):
    path = tmp_path / "not-a-dir"
    path.write_text("")
    report, status = doctor(path)
    assert status == 2
    assert "unusable" in report


def test_cli_corpus_doctor(tmp_path, capsys):
    from repro.cli import main

    seeded_corpus(tmp_path / "c")
    assert main(["corpus", "doctor", str(tmp_path / "c")]) == 0
    out = capsys.readouterr().out
    assert "verdict: healthy" in out


def test_damaged_key_index_misses_and_fails_integrity(tmp_path):
    root = tmp_path / "c"
    seeded_corpus(root)
    ((page,),) = raw_sql(root, ("SELECT rootpage FROM sqlite_master WHERE "
                                "name = 'sqlite_autoindex_entries_1'",))
    data = bytearray((root / CORPUS_FILE).read_bytes())
    start, end = (page - 1) * 4096, page * 4096
    at = data.index(b"key/b", start, end) + len(b"key/b")
    assert data[at] == 2  # the index record's rowid follows its key
    data[at] = 1  # the index now sends key/b to key/a's row
    (root / CORPUS_FILE).write_bytes(bytes(data))
    corpus = open_corpus(root)
    assert corpus.stats()["quarantined"] == 0  # the table itself is intact
    assert corpus.lookup("key/b") is None  # a miss, never key/a's schedule
    assert corpus.lookup("key/a") == entry_for(directive=0)
    corpus.close()
    report, status = doctor(root, compact=True)
    assert status == 1 and "integrity: ok" not in report
    # VACUUM rebuilt the index from the table
    report, status = doctor(root)
    assert status == 0 and "integrity: ok" in report
    assert open_corpus(root).lookup("key/b") == entry_for(
        directive=1, blocks=(5, 6, 7))
