"""Layering rules for the simulator core, checked on the source.

``repro.sim`` is the bottom of the simulator: it imports nothing from the
packages built on it, and its engine dispatches a step entry only through
``obj.step(horizon, token)`` — it interprets no trace op and reads no
processor field.  A second rule guards the whole of ``src/``: there is one
engine, so no code path may be chosen by engine type.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
SIM = SRC / "repro" / "sim"
ENGINE = SIM / "engine.py"

#: the layers ``repro.sim`` may import from
ALLOWED = ("repro.sim", "repro.util")

#: fields of ``repro.tempest.machine.ReplayProcessor`` (and the crash
#: guard's) that an op interpreter reads; the engine must use none of them
PROCESSOR_FIELDS = {
    "_data", "_acc", "_hits", "_hit", "_accessed", "_pwrites", "_hooks",
    "_n", "index", "crash_at", "ops", "crash_controller", "_nid", "done",
}

#: the trace-op kinds
OP_KINDS = {"r", "w", "c"}

#: identifiers of the retired second engine and of engine-type dispatch
RETIRED_NAMES = ("ExplorerEngine", "use_fastpath", "_next_event")
RETIRED_TEXT = re.compile("|".join(RETIRED_NAMES) + r"|isinstance\([^)]*Engine\b")


def repro_imports(path: Path, package: str = "repro.sim") -> list[tuple[int, str]]:
    """Every ``repro`` module ``path`` imports, at any depth of the file
    (function bodies and ``if TYPE_CHECKING:`` blocks included); a
    relative import is resolved against ``package``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package = package.split(".")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[:len(package) - node.level + 1]
                names = [".".join(base + ([node.module] if node.module else []))]
            else:
                names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names
                  if n == "repro" or n.startswith("repro.")]
    return found


def layering_violations(path: Path) -> list[tuple[int, str]]:
    """``repro`` imports in ``path`` from outside :data:`ALLOWED`."""
    return [(lineno, name) for lineno, name in repro_imports(path)
            if not any(name == a or name.startswith(a + ".") for a in ALLOWED)]


def engine_violations(path: Path) -> list[tuple[int, str]]:
    """Processor fields read and trace-op kinds named in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PROCESSOR_FIELDS:
            out.append((node.lineno, "." + node.attr))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in OP_KINDS):
            out.append((node.lineno, repr(node.value)))
    return sorted(out)


def _isinstance_engine(tokens: list, k: int) -> str | None:
    """The ``...Engine`` name inside the ``isinstance(...)`` call whose
    name is ``tokens[k]``, if any."""
    depth = 0
    for tok in tokens[k + 1:]:
        if tok.type == tokenize.OP and tok.string in "([{":
            depth += 1
        elif tok.type == tokenize.OP and tok.string in ")]}":
            depth -= 1
            if depth == 0:
                return None
        elif depth == 0:
            return None  # ``isinstance`` not called here
        elif tok.type == tokenize.NAME and tok.string.endswith("Engine"):
            return tok.string
    return None


def engine_dispatch_violations(path: Path) -> list[tuple[int, str]]:
    """Uses of a retired engine name, or an ``isinstance`` test against an
    ``...Engine`` class, in ``path``'s tokens (comments and strings are
    matched as text, like code)."""
    text = path.read_text()
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    out = []
    for k, tok in enumerate(tokens):
        line = tok.start[0]
        if tok.type == tokenize.NAME:
            if any(r in tok.string for r in RETIRED_NAMES):
                out.append((line, tok.string))
            elif tok.string == "isinstance":
                engine = _isinstance_engine(tokens, k)
                if engine is not None:
                    out.append((line, f"isinstance(..., {engine})"))
        elif tok.type in (tokenize.COMMENT, tokenize.STRING):
            if RETIRED_TEXT.search(tok.string):
                out.append((line, tok.string))
    return out


def _report(rule, paths) -> list[str]:
    return [f"{path.relative_to(SRC)}:{line}: {what}"
            for path in paths for line, what in rule(path)]


def test_sim_imports_nothing_above_itself():
    assert repro_imports(ENGINE), "the scan must see the engine's imports"
    assert _report(layering_violations, sorted(SIM.rglob("*.py"))) == []


def test_engine_knows_no_ops_and_no_processor_fields():
    assert _report(engine_violations, [ENGINE]) == []


def test_one_engine_no_dispatch_on_engine_type():
    assert _report(engine_dispatch_violations, sorted(SRC.rglob("*.py"))) == []


class TestRulesCatch:
    """Each rule flags what it exists to forbid."""

    def test_function_level_and_type_checking_imports(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "from typing import TYPE_CHECKING\n"
            "from repro.util.errors import SimulationError\n"
            "from repro.sim.stats import RunStats\n"
            "if TYPE_CHECKING:\n"
            "    from repro.verify.interleave import FifoPolicy\n"
            "def f():\n"
            "    from repro.tempest import machine\n"
            "    import repro.obs.events\n"
            "    from . import stats\n"
            "    from ..tempest import machine\n"
        )
        assert sorted(layering_violations(path)) == [
            (5, "repro.verify.interleave"),
            (7, "repro.tempest"),
            (8, "repro.obs.events"),
            (10, "repro.tempest"),
        ]

    def test_processor_field_and_op_kind(self, tmp_path):
        path = tmp_path / "engine.py"
        path.write_text("def f(proc):\n"
                        "    return proc._acc if proc.ops[0][0] == 'r' else 0\n")
        assert engine_violations(path) == [(2, "'r'"), (2, "._acc"), (2, ".ops")]

    def test_engine_dispatch_alternatives(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("\n".join([
            "from x import HeapExplorerEngine",
            "def f(use_fastpath=False): pass",
            "e = q._next_event()",
            "ok = isinstance(eng, (tuple, CalendarEngine))",
            "# a comment naming ExplorerEngine",
            "s = 'isinstance(e, Engine)'",
            "fine = isinstance(eng.engine, dict) and CalendarEngine",
            "also_fine = isinstance",
        ]) + "\n")
        assert sorted({line for line, _ in engine_dispatch_violations(path)}) \
            == [1, 2, 3, 4, 5, 6]
