"""``repro corpus doctor``: inspect, compact, and scrub a corpus directory.

Doctoring *is* opening: the doctor opens the corpus exactly as a run does
(quarantining damaged rows, setting an unreadable file aside), runs
``PRAGMA integrity_check``, and reports what survived and what was
sidelined and why.  ``compact`` rebuilds the key index (the repair for an
integrity failure) and runs ``VACUUM``; ``scrub`` empties the quarantine.
"""

from __future__ import annotations

from pathlib import Path

from repro.corpus.store import _ERRORS, NullCorpus, open_corpus

__all__ = ["doctor"]


def _text(value, limit: int = 60) -> str:
    value = (value.decode("utf-8", "replace") if isinstance(value, bytes)
             else str(value or ""))
    return value if len(value) <= limit else value[:limit - 3] + "..."


def doctor(root: str | Path, *, compact: bool = False,
           scrub: bool = False) -> tuple[str, int]:
    """Run the doctor; returns (report text, exit status).

    Status 0: healthy.  Status 1: usable, but damage was found — rows
    quarantined now or still on file, a file set aside, or an integrity
    check other than ``ok``.  Status 2: not openable as a corpus at all.
    """
    corpus = open_corpus(root)
    if isinstance(corpus, NullCorpus):
        return f"corpus: UNUSABLE -- {corpus.reason}", 2

    try:
        integrity = "; ".join(_text(row[0]) for row in corpus.db.execute(
            "PRAGMA integrity_check"))
        quarantine = corpus.db.execute(
            "SELECT id, reason, key, detail FROM quarantine ORDER BY id "
            "LIMIT 20").fetchall()
    except _ERRORS as exc:
        integrity, quarantine = f"failed: {type(exc).__name__}: {exc}", []
    set_aside = sorted(p.name for p in corpus.quarantine_dir.glob(
        f"{corpus.path.name}.*"))
    stats = corpus.stats()
    lines = [f"corpus: {corpus.path}",
             f"  entries: {stats['entries']}  disk: {stats['disk_bytes']} "
             f"bytes  integrity: {integrity}",
             f"  this open: quarantined {stats['quarantined']} row(s), set "
             f"aside {stats['moved_aside']} unreadable file(s), "
             f"{stats['failures']} failure(s)" + (
                 f" (last: {stats['last_error']})" if stats["failures"]
                 else "")]
    for key, entry in corpus.entries():
        records = entry["records"]
        sites = sum(len(r["entries"]) for r in records)
        lines.append(f"  {key}  [{entry['protocol']}, "
                     f"{entry['n_nodes']} node(s), {len(records)} "
                     f"schedule(s), {sites} block entr"
                     f"{'y' if sites == 1 else 'ies'}]")
    lines.append(f"  quarantine ({stats['quarantine_rows']} row(s)):"
                 if quarantine else "  quarantine: empty")
    lines.extend(f"    #{qid}: {_text(reason)} {_text(key)!r}"
                 + (f" -- {_text(detail)}" if detail else "")
                 for qid, reason, key, detail in quarantine)
    if set_aside:
        lines.append(f"  set aside in {corpus.quarantine_dir} (never "
                     f"deleted; remove by hand): {', '.join(set_aside)}")
    if compact:
        kept = corpus.compact()
        lines.append(f"  compacted: {kept} entr"
                     f"{'y' if kept == 1 else 'ies'} kept")
    if scrub:
        removed = corpus.scrub()
        lines.append(f"  scrubbed: {removed} quarantined row"
                     f"{'' if removed == 1 else 's'} removed")
    corpus.close()

    damaged = (stats["quarantined"] or stats["moved_aside"]
               or stats["failures"] or quarantine or set_aside
               or integrity != "ok")
    lines.append("  verdict: " + ("DAMAGE FOUND (see integrity and "
                                  "quarantine above)" if damaged
                                  else "healthy"))
    return "\n".join(lines), (1 if damaged else 0)
