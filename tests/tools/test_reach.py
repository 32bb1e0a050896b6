"""Tests for the reachability report (``tests/tools/reach.py``) and its
allow-list ratchet."""

import os

import pytest

from repro import cli
from repro.farm import coordinator
from tests.tools.reach import (
    CLASSES, ROOT, check, inventory, load_allow, reach, unreached,
)


def _key(fn) -> tuple[str, int]:
    code = fn.__code__
    return (os.path.realpath(code.co_filename), code.co_firstlineno)


def test_audit_reaches_the_cli_entry_and_not_the_farm(tmp_path):
    found = inventory()
    keys = reach(["audit"], str(tmp_path), log=None)
    missing = {(path, line) for path, line, _, _ in unreached(found, keys)}
    main, run_farm = _key(cli.main), _key(coordinator.run_farm)
    assert main in found and run_farm in found
    assert main not in missing
    assert run_farm in missing


def test_check_flags_unlisted_and_stale_entries(tmp_path):
    allow_file = tmp_path / "allow.txt"
    allow_file.write_text(
        "# path qualname class\n"
        "src/repro/a.py Kept.method public-api  # a comment\n"
        "src/repro/a.py Gone.method test-oracle\n"
    )
    allow = load_allow(allow_file)
    a = str(ROOT / "src/repro/a.py")
    missing = [(a, 3, "Kept.method", 12), (a, 40, "New.method", 10),
               (a, 70, "short", 9)]
    assert check(missing, allow) == [
        "unreached, not on the allow list: src/repro/a.py New.method",
        "allow-list entry names no unreached function of >= 10 lines: "
        "src/repro/a.py Gone.method",
    ]
    assert check(missing[:1] + missing[2:], {
        ("src/repro/a.py", "Kept.method"): "public-api"}) == []


def test_allow_list_lines_must_be_classified(tmp_path):
    allow_file = tmp_path / "allow.txt"
    allow_file.write_text("src/repro/a.py Kept.method unused\n")
    with pytest.raises(ValueError, match="allow.txt:1"):
        load_allow(allow_file)


def test_committed_allow_list_parses():
    allow = load_allow(ROOT / "tests/tools/reach_allow.txt")
    assert allow and set(allow.values()) <= set(CLASSES)
    for path, _ in allow:
        assert (ROOT / path).is_file(), path
