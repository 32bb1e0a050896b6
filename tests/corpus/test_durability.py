"""Durability properties: arbitrary damage never yields a wrong schedule.

The contract under test — for ANY mutilation of a committed corpus file,
``open_corpus``:

* never raises and stays usable (``corpus.ok``; an unreadable file is set
  aside and a fresh one started),
* yields only entries that were actually stored, byte-for-byte, under the
  key they were stored under (a damaged row is quarantined, never silently
  altered or served for another key).

Bit flips, byte stomps and garbage files are driven by Hypothesis; the
truncation sweep cuts the file at every sector boundary.  A writer killed
with SIGKILL mid-store must lose nothing it committed, and two processes
storing at once must both commit everything.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.corpus import open_corpus
from tests.corpus.helpers import CORPUS_FILE, entry_for, raw_sql

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ENTRIES = {
    "key/a": entry_for(directive=0, blocks=(1,)),
    "key/b": entry_for(directive=1, blocks=(2, 3)),
    "key/c": entry_for(directive=2, blocks=(4,), cooldown=3),
}


def committed_file() -> bytes:
    """The bytes of a corpus file holding ENTRIES."""
    with tempfile.TemporaryDirectory(prefix="corpus-seed-") as tmp:
        corpus = open_corpus(Path(tmp))
        for key, entry in sorted(ENTRIES.items()):
            assert corpus.store(key, entry)
        corpus.close()
        return (Path(tmp) / CORPUS_FILE).read_bytes()


FILE = committed_file()


def open_over(tmp, data: bytes):
    root = Path(tmp) / "c"
    if root.exists():
        shutil.rmtree(root)
    root.mkdir()
    (root / CORPUS_FILE).write_bytes(data)
    return open_corpus(root)


@contextmanager
def fresh_root():
    # hypothesis runs many examples per test call; pytest's tmp_path is not
    # reset between them, so damage sweeps make their own directory per
    # example
    with tempfile.TemporaryDirectory(prefix="corpus-prop-") as tmp:
        yield tmp


def assert_no_wrong_schedule(corpus) -> dict:
    """Recovered entries must be exactly what was stored, never altered,
    whether listed or looked up."""
    assert corpus.ok
    recovered = dict(corpus.entries())
    for key, entry in recovered.items():
        assert key in ENTRIES, f"invented key {key!r}"
        assert entry == ENTRIES[key], f"altered entry under {key!r}"
    for key, entry in ENTRIES.items():
        assert corpus.lookup(key) in (None, entry), f"wrong entry for {key!r}"
    return recovered


def assert_damage_detected(corpus, recovered: dict) -> None:
    """A lost entry was quarantined or set aside on open, or (a row made
    invisible by a damaged page header) fails the doctor's integrity
    check."""
    if len(recovered) < len(ENTRIES):
        stats = corpus.stats()
        integrity = corpus.db.execute("PRAGMA integrity_check").fetchall()
        assert (stats["quarantined"] + stats["moved_aside"] >= 1
                or integrity != [(b"ok",)])


def test_truncation_at_every_sector_boundary(tmp_path):
    assert len(FILE) % 4096 == 0  # so the sweep includes every page boundary
    for cut in range(0, len(FILE) + 1, 512):
        corpus = open_over(tmp_path, FILE[:cut])
        recovered = assert_no_wrong_schedule(corpus)
        if cut == len(FILE):
            assert recovered == ENTRIES
        corpus.close()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(FILE) - 1), st.integers(0, 7))
def test_single_bit_flip_never_yields_wrong_schedule(pos, bit):
    mangled = bytearray(FILE)
    mangled[pos] ^= 1 << bit
    with fresh_root() as tmp:
        corpus = open_over(tmp, bytes(mangled))
        assert_damage_detected(corpus, assert_no_wrong_schedule(corpus))
        corpus.close()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_byte_stomps_never_yield_wrong_schedule(data):
    mangled = bytearray(FILE)
    for _ in range(data.draw(st.integers(1, 8))):
        pos = data.draw(st.integers(0, len(FILE) - 1))
        mangled[pos] = data.draw(st.integers(0, 255))
    with fresh_root() as tmp:
        corpus = open_over(tmp, bytes(mangled))
        assert_no_wrong_schedule(corpus)
        corpus.close()


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=0, max_size=512))
def test_pure_garbage_segment_is_survivable(garbage):
    with fresh_root() as tmp:
        corpus = open_over(tmp, garbage)
        assert_no_wrong_schedule(corpus)
        corpus.close()


def test_swapped_rows_miss_and_quarantine(tmp_path):
    # the checksum covers the key: a row read back under another key (a
    # swap here; a damaged key index in the wild) is a miss, never the
    # other key's schedule
    corpus = open_over(tmp_path, FILE)
    root = corpus.root
    rows = {key: (body, total) for key, body, total in raw_sql(
        root, ("SELECT key, body, sum FROM entries",))}
    raw_sql(root,
            ("UPDATE entries SET body = ?, sum = ? WHERE key = 'key/a'",
             rows["key/b"]),
            ("UPDATE entries SET body = ?, sum = ? WHERE key = 'key/b'",
             rows["key/a"]))
    assert corpus.lookup("key/a") is None
    assert corpus.lookup("key/b") is None  # checked on every read
    assert corpus.lookup("key/c") == ENTRIES["key/c"]
    corpus.close()
    reopened = open_corpus(root)
    assert dict(reopened.entries()) == {"key/c": ENTRIES["key/c"]}
    assert reopened.stats()["quarantined"] == 2
    assert reopened.stats()["quarantine_rows"] == 2


def _child(script: str, *args) -> subprocess.Popen:
    """``script`` in a fresh interpreter that imports this ``repro``."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    return subprocess.Popen([sys.executable, "-c", script, *map(str, args)],
                            stdout=subprocess.PIPE, text=True, env=env)


STORE_LOOP = """
import json, sys, time
from repro.corpus import open_corpus
corpus = open_corpus(sys.argv[1])
prefix = sys.argv[2] if len(sys.argv) > 2 else "k"
count = int(sys.argv[3]) if len(sys.argv) > 3 else 250
for i in range(count):
    entry = {"protocol": "predictive", "n_nodes": 2, "records": [
        {"directive": i, "cooldown": 0, "entries": [
            {"block": i, "kind": "read", "readers": [1], "writer": None,
             "pre_conflict": None}]}]}
    assert corpus.store(f"{prefix}{i}", entry)
    print(json.dumps([f"{prefix}{i}", entry]), flush=True)
print(json.dumps(corpus.stats()), flush=True)
time.sleep(60)
"""


def test_kill_mid_store_keeps_committed_keys(tmp_path):
    root = tmp_path / "c"
    writer = _child(STORE_LOOP, root)
    committed = {}
    try:
        while len(committed) < 20:
            line = writer.stdout.readline()
            assert line, "writer died before committing 20 keys"
            key, entry = json.loads(line)
            committed[key] = entry
    finally:
        writer.send_signal(signal.SIGKILL)
        tail, _ = writer.communicate()
    # every key printed before the kill was committed before it
    for line in tail.splitlines():
        doc = json.loads(line)
        if isinstance(doc, list):
            committed[doc[0]] = doc[1]
    corpus = open_corpus(root)
    assert corpus.ok
    stats = corpus.stats()
    assert stats["quarantined"] == 0 and stats["moved_aside"] == 0
    for key, entry in committed.items():
        assert corpus.lookup(key) == entry, key


def test_concurrent_writers_commit_every_key(tmp_path):
    root = tmp_path / "c"
    open_corpus(root).close()
    script = STORE_LOOP.replace("time.sleep(60)", "")
    writers = [_child(script, root, prefix, 40) for prefix in ("p0-", "p1-")]
    outputs = [w.communicate(timeout=120)[0] for w in writers]
    assert [w.returncode for w in writers] == [0, 0]
    for out in outputs:
        assert json.loads(out.splitlines()[-1])["failures"] == 0
    keys = {key for key, _ in open_corpus(root).entries()}
    assert keys == {f"p{p}-{i}" for p in (0, 1) for i in range(40)}
