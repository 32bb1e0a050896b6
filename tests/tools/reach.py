"""List every ``src/repro`` function that no user-visible command enters.

A stdlib-only reachability report (the container this repo is developed in
has no ``coverage`` package).  It runs a named list of ``repro`` command
lines in this process, through :func:`repro.cli.main`, with a profile hook
(``sys.setprofile`` / ``threading.setprofile``) recording every code object
entered, and compares that set with an ``ast`` inventory of the functions
under ``src/repro``.  A decorated function's code object starts at its
first decorator line, so the inventory keys functions the same way.

The commands run at the default ``--jobs 1`` except the two farmed lines;
their forked workers inherit the hook and report what they entered when
they stop (fork start method only).  Output: one
``path:line qualname (n lines)`` line per unreached function, then totals.

Run from anywhere (the commands run from the repository root, and write
only to a temporary directory)::

    PYTHONPATH=src python tests/tools/reach.py            # every command
    PYTHONPATH=src python tests/tools/reach.py audit run  # a named subset
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: name -> repro argv; ``{tmp}`` is a scratch directory shared by the run
#: (the corpus lines depend on their order: verify creates it first)
COMMANDS: dict[str, list[str]] = {
    "audit": ["audit"],
    "compile": ["compile", "examples/programs/jacobi.cstar", "-v",
                "--dump-ast"],
    "run": ["run", "examples/programs/jacobi.cstar", "--nodes", "4",
            "--json", "{tmp}/run.json", "--metrics-out", "{tmp}/m.json",
            "--trace", "{tmp}/run-trace.json"],
    "run-table": ["run", "examples/programs/convergence.cstar",
                  "--protocol", "stache"],
    "trace": ["trace", "examples/programs/jacobi.cstar", "--nodes", "4",
              "-o", "{tmp}/trace.json", "--jsonl", "{tmp}/trace.jsonl"],
    "profile": ["profile", "examples/programs/jacobi.cstar", "--nodes", "4",
                "--json", "{tmp}/profile.json"],
    "figure": ["figure", "table1"],
    "reproduce": ["reproduce", "--output", "{tmp}/REPORT.txt",
                  "--json", "{tmp}/report.json"],
    "ablation-coalescing": ["ablation", "coalescing"],
    "ablation-incremental": ["ablation", "incremental"],
    "ablation-flush": ["ablation", "flush"],
    "ablation-blocks": ["ablation", "blocks"],
    "verify": ["verify", "--seeds", "6", "--report-out",
               "{tmp}/verify.json"],
    "verify-dfs": ["verify", "--dfs", "6", "--dfs-seeds", "1",
                   "--no-traces", "--seeds", "0"],
    "verify-replay": ["verify", "--replay", "3"],
    "verify-corpus": ["verify", "--seeds", "4", "--no-traces",
                      "--corpus", "{tmp}/corpus"],
    "verify-jobs": ["verify", "--seeds", "4", "--jobs", "2",
                    "--farm-events", "{tmp}/farm.jsonl"],
    "verify-regen": ["verify", "--regen-traces", "--traces",
                     "{tmp}/traces"],
    "faults": ["faults", "--seeds", "1", "--report-out",
               "{tmp}/faults.json", "--metrics-out", "{tmp}/fm.json",
               "--trace", "{tmp}/faults-trace.json"],
    "faults-crash": ["faults", "--crash", "--seeds", "1", "--variants", "2"],
    "faults-corpus": ["faults", "--seeds", "1", "--no-traces",
                      "--corpus", "{tmp}/corpus"],
    "faults-jobs": ["faults", "--seeds", "1", "--jobs", "2"],
    "faults-list": ["faults", "--list-plans"],
    "corpus-doctor": ["corpus", "doctor", "{tmp}/corpus"],
    "sweep": ["sweep", "water", "--axis", "msg_latency=500,1000",
              "--out", "{tmp}/sweep.json"],
    "sweep-model": ["sweep", "water", "--model", "--axis",
                    "protocol=stache,predictive", "--axis",
                    "block_size=32,64", "--out", "{tmp}/grid.csv"],
    "model": ["model", "water", "--validate", "--json",
              "{tmp}/model.json"],
    "model-check": ["model", "--suite", "--quick", "--check"],
    "model-write": ["model", "--suite", "--quick", "--timing", "--write",
                    "--dir", "{tmp}", "--calibration",
                    "benchmarks/MODEL_calibration.json"],
    "model-calibrate": ["model", "--calibrate", "--dir", "{tmp}/cal"],
}


def inventory(src: Path = SRC) -> dict[tuple[str, int], tuple[str, int]]:
    """``(path, first line) -> (qualname, lines)`` for every function."""
    found: dict[tuple[str, int], tuple[str, int]] = {}

    def visit(node, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[(path, first)] = (prefix + child.name,
                                        child.end_lineno - first + 1)
                visit(child, f"{prefix}{child.name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()), "", str(path.resolve()))
    return found


def _keys(codes) -> set[tuple[str, int]]:
    return {(os.path.realpath(c.co_filename), c.co_firstlineno)
            for c in codes}


def reach(names, tmp: str, log=sys.stderr) -> set[tuple[str, int]]:
    """Run the named commands in-process; the ``(path, line)`` keys of
    every code object entered, forked farm workers included."""
    from repro import cli
    from repro.farm import coordinator

    seen: set = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    real_worker_main = coordinator.worker_main

    def reporting_worker_main(wid, conn):
        try:
            real_worker_main(wid, conn)
        finally:
            sys.setprofile(None)
            with open(os.path.join(tmp, f"worker-{os.getpid()}.json"),
                      "w") as fh:
                json.dump(sorted(_keys(seen)), fh)

    coordinator.worker_main = reporting_worker_main
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for name in names:
            argv = [a.replace("{tmp}", tmp) for a in COMMANDS[name]]
            t0 = time.perf_counter()
            threading.setprofile(hook)
            sys.setprofile(hook)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
            print(f"[reach] {name}: exit {status} "
                  f"({time.perf_counter() - t0:.1f} s)", file=log)
    finally:
        os.chdir(cwd)
        coordinator.worker_main = real_worker_main
    keys = _keys(seen)
    for path in Path(tmp).glob("worker-*.json"):
        keys.update(tuple(k) for k in json.loads(path.read_text()))
    return keys


def unreached(found: dict, keys: set) -> list[tuple]:
    """``(path, line, qualname, lines)`` of every inventoried function whose
    key was never entered."""
    return [(path, line, qualname, lines)
            for (path, line), (qualname, lines) in sorted(found.items())
            if (path, line) not in keys]


def main(argv: list[str]) -> int:
    names = argv or list(COMMANDS)
    unknown = [n for n in names if n not in COMMANDS]
    if unknown:
        print(f"unknown command name(s): {', '.join(unknown)}; "
              f"known: {', '.join(COMMANDS)}", file=sys.stderr)
        return 2
    found = inventory()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        missing = unreached(found, reach(names, tmp))
    for path, line, qualname, lines in missing:
        print(f"{os.path.relpath(path, ROOT)}:{line} {qualname} "
              f"({lines} lines)")
    total_lines = sum(lines for _, lines in found.values())
    print(f"{len(missing)} of {len(found)} src/ functions never entered "
          f"({sum(m[3] for m in missing)} of {total_lines} function lines) "
          f"by {len(names)} command line(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
