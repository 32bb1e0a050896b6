"""Shared fixtures for the corpus tests: tiny valid entries, raw SQL."""

from __future__ import annotations

import sqlite3
from contextlib import closing

from repro.corpus.store import CORPUS_VERSION

#: the corpus file's name inside its directory
CORPUS_FILE = f"corpus-v{CORPUS_VERSION}.sqlite3"


def entry_for(n_nodes: int = 2, directive: int = 0, blocks=(1, 2),
              cooldown: int = 0) -> dict:
    """A minimal valid corpus entry (one directive, READ anticipations)."""
    return {
        "protocol": "predictive",
        "n_nodes": n_nodes,
        "records": [{
            "directive": directive,
            "cooldown": cooldown,
            "entries": [
                {"block": b, "kind": "read", "readers": [n_nodes - 1],
                 "writer": None, "pre_conflict": None}
                for b in blocks
            ],
        }],
    }


def raw_sql(root, *statements) -> list:
    """Run SQL straight against a corpus file (no checksums, no corpus
    code), committing; returns the last statement's rows."""
    with closing(sqlite3.connect(root / CORPUS_FILE)) as db, db:
        rows = []
        for sql, *params in statements:
            rows = db.execute(sql, *params).fetchall()
        return rows
