"""Smoke test for the reachability report (``tests/tools/reach.py``)."""

import os

from repro import cli
from repro.farm import coordinator
from tests.tools.reach import inventory, reach, unreached


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
