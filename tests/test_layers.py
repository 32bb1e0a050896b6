"""The layer order of ``src/repro``, and the rules that keep retired code out.

Every ``repro`` package sits on one layer, bottom to top::

    util < sim < obs < farm < tempest < protocols < core < corpus < cstar
         < apps < model < verify < faults < bench < cli

and may import only from its own layer and the ones below it — at any
depth of a file, so deferred (function-level) and ``if TYPE_CHECKING:``
imports count too.  The substrate therefore knows nothing of what runs on
it: a fault plan arms the machine (``FaultPlan.install``), a farm job
carries its own function, and the model's experiments against the
simulator live in ``repro.bench``.

The other rules, each checked on the source with ``ast`` or ``tokenize``:

* ``repro.sim`` dispatches a step entry only through
  ``obj.step(horizon, token)``: its engine reads no processor field and
  names no trace-op kind; and there is one engine, so no code path is
  chosen by engine type.  Comments do not count.
* Retired names stay retired (:data:`RETIRED`): the second engine and its
  pass pipeline, the socket wire, farm preemption, work stealing and its
  per-worker decks, the segment-log corpus, the ``fast`` timing switch,
  the per-home schedule scan, the engine's second entry kind (``Event``
  and the closure-scheduling ``schedule`` / ``schedule_after`` /
  ``schedule_node_event``), the model walk's hand-mirrored copies of
  the predictive protocol, and the ``repro.recovery`` package (checkpoint
  and restore are the tests' oracle, ``tests/checkpoint.py``), Water's
  ``splash-naive`` variant, the fault cell's observables round trip and the
  ``repro trace`` verb.
  They are matched on code tokens and string literals, never on comments.
* The stable directory step is stated once, on ``DirEntry``: no file under
  ``model/``, ``core/`` or ``protocols/`` but ``protocols/directory.py``
  assigns an owner, or a stable state, to an attribute.
* Each shared CLI option is declared once, in its option group.

``TestRulesCatch`` shows each rule flagging what it exists to forbid.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
REPRO = SRC / "repro"
ENGINE = REPRO / "sim" / "engine.py"

#: the layers, bottom to top; ``repro/__init__.py`` re-exports ``util``
#: names, and ``cli.py`` / ``__main__.py`` are the top
LAYERS = ("util", "sim", "obs", "farm", "tempest", "protocols", "core",
          "corpus", "cstar", "apps", "model", "verify", "faults", "bench",
          "cli")

#: imports allowed to point up, as {(file under src/, module): reason}; a
#: stale entry fails the test
EXCEPTIONS: dict[tuple[str, str], str] = {}


def layer_of(module: str) -> str:
    """The layer of a dotted ``repro`` module name."""
    parts = module.split(".")
    if len(parts) == 1:
        return "util"
    return "cli" if parts[1] in ("cli", "__main__") else parts[1]


def module_name(path: Path) -> str:
    """The dotted module name of a file under ``src/``."""
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def repro_imports(path: Path, module: str) -> list[tuple[int, str]]:
    """Every ``repro`` module ``path`` imports, at any depth of the file
    (function bodies and ``if TYPE_CHECKING:`` blocks included), as
    ``(line, module)``; relative imports resolve against ``module``, and
    ``from repro import x`` names ``repro.x``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package = module.split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[:len(package) - node.level + 1]
                name = ".".join(base + ([node.module] if node.module else []))
            else:
                name = node.module
            names = ([f"{name}.{a.name}" for a in node.names]
                     if name == "repro" else [name])
        else:
            continue
        found += [(node.lineno, n) for n in names
                  if n == "repro" or n.startswith("repro.")]
    return found


def upward_imports(path: Path, module: str) -> list[tuple[int, str]]:
    """The imports in ``path`` (the source of ``module``) that point above
    its layer."""
    rank = LAYERS.index(layer_of(module))
    return [(line, name) for line, name in repro_imports(path, module)
            if LAYERS.index(layer_of(name)) > rank]


# -- the simulator core --------------------------------------------------------

#: fields of ``repro.tempest.machine.ReplayProcessor`` (and the crash
#: guard's) that an op interpreter reads; the engine must use none of them
PROCESSOR_FIELDS = {
    "_data", "_acc", "_hits", "_hit", "_accessed", "_pwrites", "_hooks",
    "_n", "index", "crash_at", "ops", "crash_controller", "_nid", "done",
}

#: the trace-op kinds
OP_KINDS = {"r", "w", "c"}

#: identifiers of the retired second engine and of engine-type dispatch
RETIRED_ENGINE_NAMES = ("ExplorerEngine", "use_fastpath", "_next_event")
RETIRED_ENGINE_TEXT = re.compile(
    "|".join(RETIRED_ENGINE_NAMES) + r"|isinstance\([^)]*Engine\b")


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


@functools.lru_cache(maxsize=None)
def _tokens(path: Path) -> list[tokenize.TokenInfo]:
    return list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))


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
    ``...Engine`` class, in ``path``'s tokens (strings are matched as
    text, like code; comments never count)."""
    tokens = _tokens(path)
    out = []
    for k, tok in enumerate(tokens):
        line = tok.start[0]
        if tok.type == tokenize.NAME:
            if any(r in tok.string for r in RETIRED_ENGINE_NAMES):
                out.append((line, tok.string))
            elif tok.string == "isinstance":
                engine = _isinstance_engine(tokens, k)
                if engine is not None:
                    out.append((line, f"isinstance(..., {engine})"))
        elif tok.type == tokenize.STRING:
            if RETIRED_ENGINE_TEXT.search(tok.string):
                out.append((line, tok.string))
    return out


# -- retired names ---------------------------------------------------------------

#: the source tree each retired text must stay out of: ``model`` is
#: ``src/repro/model``, ``src`` all of ``src/repro``
RETIRED: dict[str, tuple[str, ...]] = {
    # the model walk runs repro.core.presend and DirEntry's step, not copies
    "model": ("_walk_presend", "_register_presend", "_warm_seed",
              "_push_program", "_DEGRADE_PATIENCE", "_MAX_SCHEDULES",
              "_IDLE, _SHARED", "_classify_read", "_classify_write"),
    "src": (
        # one timing path: no fast switch
        "--fast", '"fast"',
        # repro.fastpath, its pass pipeline, the typing.Protocol twin of
        # BaseProtocol and the BitVector wrapper
        "repro.fastpath", "FastEngine", "FastPathPipeline", "PhaseProgram",
        "AnalyzeTracePass", "CoherenceProtocolAPI", "BitVector",
        "crash_shared_states", "crash_rebuild_shared_state",
        # run_jobs is the one farm-or-inline fork; the socket wire is gone
        "farm_transport is not None or (jobs",
        "SocketTransport", "ChaosTransport", "HostLedger", "farm-worker",
        "repro.farm.frames",
        # farm preemption and its sliced replay loop
        "sliced_run", "FarmController", "preemptible", "farm_controller",
        "should_preempt", "FARM_PREEMPT", "repro.farm.preempt", "tracestats",
        # work stealing: one job queue in run_farm, which returns a dict
        "WorkStealingScheduler", "repro.farm.scheduler", "partition_jobs",
        "stolen_from", "FARM_STEAL", "farm.steal", "FarmResult",
        # pre-send slices the schedule by home once per group, not per home
        "entries_for_home",
        # one kind of engine entry: (obj, token) step entries that cancel
        # removes, never a closure in a flagged, cancellable Event
        ".schedule(", "schedule_after", "schedule_node_event", ".cancelled",
        # the segment-log corpus, its flock and its corpus.* events
        "seg-*", "_recover_tail", "fcntl", "CORPUS_MAGIC", "max_bytes",
        "CORPUS_HIT", "CORPUS_MISS", "CORPUS_STORE", "CORPUS_QUARANTINE",
        "CORPUS_EVICT", "CORPUS_RECOVER", "CORPUS_FALLBACK",
        # checkpoint/restore is the tests' oracle (tests/checkpoint.py)
        "repro.recovery",
        # one drain consults the policy at choice points; explore_dfs runs
        # a ReplayPolicy
        "_drain_policy", "DfsPolicy",
        # Water has two variants (Figure 7's), a fault cell keeps its
        # Observables in memory, and `repro run --trace` is the traced run
        "splash-naive", "splash_naive", "serialize_observables",
        "deserialize_observables", "_cmd_trace",
    ),
}

#: retired identifiers that are also English words or parts of live names,
#: kept out of all of ``src/repro``: only a NAME token equal to one counts
#: (the ``fast=`` / ``fast: bool`` switch; the engine's ``Event`` class,
#: not ``EventKind``, ``TraceEvent`` or ``FaultEvent``)
RETIRED_WORDS = ("fast", "Event")

_STRING_TYPES = {tokenize.STRING} | (
    {tokenize.FSTRING_MIDDLE} if hasattr(tokenize, "FSTRING_MIDDLE") else set())
_CODE_TYPES = {tokenize.NAME, tokenize.OP, tokenize.NUMBER} | _STRING_TYPES


def _token_texts(text: str) -> list[str]:
    """The code tokens of a retired text (which may be a fragment, such
    as one with an unclosed bracket)."""
    out = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type in _CODE_TYPES:
                out.append(tok.string)
    except tokenize.TokenError:
        pass  # the fragment ends inside a bracket
    return out


def _phrase_at(code: list, k: int, phrase: list[str]) -> bool:
    """Whether the token run ``phrase`` occurs in ``code`` from token
    ``k``: the first token may end, and the last begin, with its phrase
    token (so a name embedding a retired name matches, as a substring
    would); the tokens between must be equal."""
    if not code[k].string.endswith(phrase[0]):
        return False
    texts = [t.string for t in code[k:k + len(phrase)]]
    return (len(texts) == len(phrase) and texts[-1].startswith(phrase[-1])
            and texts[1:-1] == phrase[1:-1])


def _any_of(texts) -> re.Pattern | None:
    return re.compile("|".join(map(re.escape, texts))) if texts else None


def retired_name_violations(path: Path, names=(), words=()) -> list[tuple[int, str]]:
    """Lines of ``path`` that use a retired text (``names``: inside a
    string literal, or as code — inside one token, or as a run of tokens)
    or a retired word (``words``: as a whole NAME token); comments never
    count."""
    phrases = {name: _token_texts(name) for name in names}
    in_string = _any_of(names)
    in_token = _any_of([n for n, p in phrases.items() if len(p) == 1])
    runs = [p for p in phrases.values() if len(p) > 1]
    code = [t for t in _tokens(path) if t.type in _CODE_TYPES]
    out = set()
    for k, tok in enumerate(code):
        pattern = in_string if tok.type in _STRING_TYPES else in_token
        match = pattern.search(tok.string) if pattern is not None else None
        if match is not None:
            out.add((tok.start[0], match.group()))
        elif tok.type == tokenize.NAME and tok.string in words:
            out.add((tok.start[0], tok.string))
        for phrase in runs:
            if _phrase_at(code, k, phrase):
                out.add((tok.start[0], " ".join(phrase)))
    return sorted(out)


# -- the stable directory step --------------------------------------------------

#: where stable-state writes are checked, and the one file allowed them
STEP_TREES = ("model", "core", "protocols")
DIRECTORY = REPRO / "protocols" / "directory.py"

#: the stable states (and the protocol's name for its shared one); the
#: handlers' transient BUSY_* states are not among them
STABLE = {"IDLE", "SHARED", "EXCLUSIVE", "UPDATE_SHARED", "shared_state"}
_STABLE_WORD = re.compile(r"\b(" + "|".join(sorted(STABLE)) + r")\b")


def _targets(node: ast.AST):
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)
    else:
        yield node


def _names_stable(value: ast.AST | None) -> bool:
    for node in ast.walk(value) if value is not None else ():
        if isinstance(node, ast.Name) and node.id in STABLE:
            return True
        if isinstance(node, ast.Attribute) and node.attr in STABLE:
            return True
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and _STABLE_WORD.search(node.value)):
            return True
    return False


def stable_write_violations(path: Path) -> list[tuple[int, str]]:
    """Assignments in ``path`` to an attribute ``owner``, or to an
    attribute ``state`` of a value naming a stable state."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in (t for top in targets for t in _targets(top)):
            if not isinstance(target, ast.Attribute):
                continue
            if target.attr == "owner" or (target.attr == "state"
                                          and _names_stable(node.value)):
                out.append((node.lineno, "." + target.attr))
    return sorted(out)


# -- CLI option declarations ----------------------------------------------------

CLI = REPRO / "cli.py"

#: options several verbs share, each declared once in its option group
SHARED_OPTIONS = ("--jobs", "--report-out", "--farm-events", "--protocols",
                  "--corpus")


def option_declarations(path: Path, flag: str) -> int:
    """How many ``add_argument`` calls in ``path`` declare ``flag``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sum(
        1 for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        and any(isinstance(a, ast.Constant) and a.value == flag
                for a in node.args))


# -- the rules on the tree -------------------------------------------------------

def _sources(tree: str = "src") -> list[Path]:
    root = REPRO if tree == "src" else REPRO / tree
    return sorted(root.rglob("*.py"))


def _report(rule, paths) -> list[str]:
    return [f"{path.relative_to(SRC)}:{line}: {what}"
            for path in paths for line, what in rule(path)]


def test_every_import_points_down():
    assert repro_imports(ENGINE, "repro.sim.engine"), \
        "the scan must see the engine's imports"
    found = {}
    for path in _sources():
        module = module_name(path)
        for line, name in upward_imports(path, module):
            key = (str(path.relative_to(SRC)), name)
            found.setdefault(key, []).append(line)
    stale = sorted(set(EXCEPTIONS) - set(found))
    assert stale == [], f"exceptions that no longer apply: {stale}"
    upward = [f"{path}:{line}: {layer_of(module_name(SRC / path))} imports "
              f"{name} ({layer_of(name)})"
              for (path, name), lines in sorted(found.items())
              if (path, name) not in EXCEPTIONS for line in lines]
    assert upward == []


def test_engine_knows_no_ops_and_no_processor_fields():
    assert _report(engine_violations, [ENGINE]) == []


def test_one_engine_no_dispatch_on_engine_type():
    assert _report(engine_dispatch_violations, _sources()) == []


def test_retired_names_stay_retired():
    for tree, names in RETIRED.items():
        words = RETIRED_WORDS if tree == "src" else ()
        assert _report(lambda p: retired_name_violations(p, names, words),
                       _sources(tree)) == []


def test_stable_state_writes_stay_in_directory():
    paths = [p for tree in STEP_TREES for p in _sources(tree)
             if p != DIRECTORY]
    assert _report(stable_write_violations, paths) == []
    assert stable_write_violations(DIRECTORY), \
        "the scan must see the directory's own writes"


def test_shared_cli_options_declared_once():
    assert {flag: option_declarations(CLI, flag)
            for flag in SHARED_OPTIONS} == dict.fromkeys(SHARED_OPTIONS, 1)


class TestRulesCatch:
    """Each rule flags what it exists to forbid, on a written snippet."""

    def test_function_level_and_type_checking_imports(self, tmp_path):
        path = tmp_path / "machine.py"
        path.write_text(
            "from typing import TYPE_CHECKING\n"
            "from repro.util.errors import SimulationError\n"
            "from repro.sim.stats import RunStats\n"
            "from repro.protocols.base import BaseProtocol\n"
            "if TYPE_CHECKING:\n"
            "    from repro.verify.interleave import FifoPolicy\n"
            "class Machine:\n"
            "    def install(self, plan):\n"
            "        from repro.faults.inject import FaultInjector\n"
            "        import repro.obs.events\n"
            "        from . import network\n"
            "        from ..cli import main\n"
            "        from repro import bench, util\n"
        )
        assert sorted(upward_imports(path, "repro.tempest.machine")) == [
            (4, "repro.protocols.base"),
            (6, "repro.verify.interleave"),
            (9, "repro.faults.inject"),
            (12, "repro.cli"),
            (13, "repro.bench"),
        ]

    def test_layer_of_the_package_roots(self):
        assert [layer_of(m) for m in ("repro", "repro.cli", "repro.__main__",
                                      "repro.farm.worker")] \
            == ["util", "cli", "cli", "farm"]

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
            == [1, 2, 3, 4, 6]

    #: one use of every retired text and word, one per line
    RETIRED_USES = [
        "x = self._walk_presend(b)",
        "def _register_presend(): pass",
        "_warm_seed = 1",
        "p._push_program(q)",
        "_DEGRADE_PATIENCE = 3",
        "from repro.core.predictive import _MAX_SCHEDULES",
        "_IDLE, _SHARED = DirState.IDLE, DirState.SHARED",
        "kind = _classify_read(e)",
        "kind = _classify_write(e)",
        "p.add_argument('--fast', action='store_true')",
        'mode = "fast"',
        "fast = True",
        "def run(spec, fast: bool = False): pass",
        "import repro.fastpath.calqueue",
        "engine = FastEngine()",
        "pipe = FastPathPipeline()",
        "prog: PhaseProgram = None",
        "passes = [AnalyzeTracePass()]",
        "class P(CoherenceProtocolAPI): pass",
        "bits = BitVector(8)",
        "states = proto.crash_shared_states()",
        "proto.crash_rebuild_shared_state(e)",
        "if farm_transport is not None or (jobs > 1): pass",
        "t = SocketTransport(port)",
        "t = ChaosTransport(t)",
        "ledger = HostLedger()",
        "sub.add_parser('farm-worker')",
        "from repro.farm.frames import read_frame",
        "sliced_run(job)",
        "ctl = FarmController()",
        "preemptible = True",
        "self.farm_controller = None",
        "if should_preempt(): pass",
        "k = EventKind.FARM_PREEMPT",
        "import repro.farm.preempt",
        "from repro.tempest import tracestats",
        "sched = WorkStealingScheduler(jobs, 2)",
        "from repro.farm.scheduler import Assignment",
        "decks = partition_jobs(8, 2)",
        "if a.stolen_from is not None: pass",
        "k = EventKind.FARM_STEAL",
        "kinds = {'farm.steal'}",
        "def run_farm(jobs) -> FarmResult: pass",
        "mine = sched.entries_for_home(home_of, node)",
        "self.engine.schedule(arrival, _arrive)",
        "ev = eng.schedule_after(1.0, fn)",
        "machine.schedule_node_event(node, done, fn)",
        "if e.cancelled: pass",
        "from repro.sim.engine import Event",
        "paths = root.glob('seg-*.log')",
        "c._recover_tail()",
        "import fcntl",
        "header = CORPUS_MAGIC",
        "def open_corpus(d, max_bytes=0): pass",
        "k = EventKind.CORPUS_HIT",
        "k = EventKind.CORPUS_MISS",
        "k = EventKind.CORPUS_STORE",
        "k = EventKind.CORPUS_QUARANTINE",
        "k = EventKind.CORPUS_EVICT",
        "k = EventKind.CORPUS_RECOVER",
        "k = EventKind.CORPUS_FALLBACK",
        "from repro.recovery.checkpoint import snapshot_machine",
        "return self._drain_policy(until, max_events)",
        "policy = DfsPolicy(prefix)",
        "build(variant='splash-naive')",
        "def splash_naive_body(ctx, env): pass",
        "wire = serialize_observables(obs)",
        "obs = deserialize_observables(wire)",
        "p.set_defaults(fn=_cmd_trace)",
        "doc = f'{n} FastEngine dispatches'",
    ]

    #: lines that only mention a retired text in a comment, or use a name
    #: that merely resembles one
    RETIRED_LOOKALIKES = [
        "# FastEngine and repro.fastpath are retired; no fast=True here",
        "breakfast = fastest = LOC_IDLE = 1",
        "note = 'the fault-free fast path'",
        "seg = segments - 1",
        "k = EventKind.MSG_RECV",
        "ev = TraceEvent(kind, t)",
        "s = CommSchedule(entries)",
        "self.schedule = list(schedule)",
    ]

    def test_retired_name_alternatives(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("\n".join(self.RETIRED_USES + self.RETIRED_LOOKALIKES)
                        + "\n")
        names = RETIRED["model"] + RETIRED["src"]
        flagged = {line for line, _ in retired_name_violations(
            path, names, RETIRED_WORDS)}
        assert flagged == set(range(1, len(self.RETIRED_USES) + 1))
        # each entry of the table is caught on its own
        for name in names:
            assert retired_name_violations(path, (name,)), name
        assert retired_name_violations(path, (), RETIRED_WORDS)

    def test_one_engine_entry_kind(self, tmp_path):
        """A closure handed to ``engine.schedule(`` or an ``Event(`` is
        flagged; a step entry and the live names that merely contain
        ``Event`` or ``Schedule`` are not."""
        path = tmp_path / "network.py"
        path.write_text("\n".join([
            "self.engine.schedule(arrival, _arrive)",
            "ev = Event(t, seq, fn)",
            "entry = self.engine.push_step(arrival, self, msg)",
            "self.engine.cancel(pend.due, pend.timer)",
            "k = EventKind.MSG_RECV",
            "ev = TraceEvent(kind, t)",
            "s = CommSchedule(entries)",
        ]) + "\n")
        flagged = {line for line, _ in retired_name_violations(
            path, RETIRED["src"], RETIRED_WORDS)}
        assert flagged == {1, 2}

    #: assignments the stable-step rule must flag, then ones it must not
    STABLE_WRITES = [
        "e.owner = 3",
        "a, e.owner = 1, 2",
        "entries[b].owner, x = None, 0",
        "e.state = DirState.SHARED",
        "e.state = IDLE",
        "e.state, n = EXCLUSIVE, 1",
        "self.dir[b].state = UPDATE_SHARED",
        "e.state = self.shared_state",
        "e.owner += 1",
        "e.owner: int = 0",
    ]
    STABLE_FINE = [
        "e.state = BUSY_SHARED",
        "e.state = old_state",
        "ok = e.owner == 3",
        "owner = e.owner",
        "# e.owner = 3",
    ]

    def test_stable_state_write_alternatives(self, tmp_path):
        path = tmp_path / "walk.py"
        path.write_text("\n".join(self.STABLE_WRITES + self.STABLE_FINE)
                        + "\n")
        assert [line for line, _ in stable_write_violations(path)] \
            == list(range(1, len(self.STABLE_WRITES) + 1))

    def test_option_declarations_are_counted(self, tmp_path):
        path = tmp_path / "cli.py"
        path.write_text(
            "def groups(p, q):\n"
            "    p.add_argument('--jobs', type=int)\n"
            "    q.add_argument(\"--jobs\", type=int)\n"
            "    p.add_argument('--protocols')\n"
            "    # p.add_argument('--corpus')\n"
            "    p.add_argument('--report-out-dir')\n"
        )
        assert [option_declarations(path, flag) for flag in SHARED_OPTIONS] \
            == [2, 0, 0, 1, 0]
