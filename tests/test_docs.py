"""The tracked Markdown cites only verbs, flags and modules that exist.

Every backticked ``repro <verb>`` / ``python -m repro <verb>`` command —
inline code spans and fenced code blocks alike — must name a parser verb,
and every ``--flag`` in it must be an option of that verb.  Every
backticked ``repro.<module>[.<attr>]`` must import or resolve; schema ids
such as ``repro.run-stats/v1`` are not module paths and are skipped.
"""

import argparse
import importlib
import pathlib
import re
import subprocess

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: still describes the retired engine switch; re-pointing the benchmark
#: (ROADMAP item 7) owns that file
SKIPPED = {"benchmarks/e2e/README.md"}

_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_SPAN = re.compile(r"`([^`\n]+)`")
_COMMAND = re.compile(r"(?:^|[\s(])(?:python3? -m )?repro ([a-z][\w-]*)(.*)")
_MODULE = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+(?![\w/*-])")


def _docs() -> list[str]:
    try:
        listed = subprocess.run(["git", "ls-files", "*.md"], cwd=ROOT,
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    # a top-level document the README does not link is history or notes
    # (change log, roadmap, paper digests), which quote names the code
    # used to have or has yet to get
    readme = (ROOT / "README.md").read_text()
    return [name for name in listed.stdout.split()
            if name not in SKIPPED
            and ("/" in name or name == "README.md" or name in readme)]


def _snippets(text: str) -> list[str]:
    """Every backticked piece of ``text``: fenced lines (with ``\\``
    continuations joined) and inline code spans outside the fences."""
    found = []
    for block in _FENCE.findall(text):
        body = block.split("\n", 1)[1].rsplit("```", 1)[0]
        found += body.replace("\\\n", " ").splitlines()
    found += _SPAN.findall(_FENCE.sub("", text))
    return found


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def _flags(parser: argparse.ArgumentParser) -> set[str]:
    return {opt for a in parser._actions for opt in a.option_strings}


def _command_problems(snippet: str, verbs: dict) -> list[str]:
    match = _COMMAND.search(snippet)
    if match is None:
        return []
    verb, rest = match.groups()
    if verb not in verbs:
        return [f"`repro {verb}` is not a verb"]
    parser = verbs[verb]
    words = re.split(r"\s*(?:\||&&|;|#|\)|>)", rest)[0].split()
    if _subcommands(parser) and words and words[0] in _subcommands(parser):
        verb = f"{verb} {words[0]}"
        parser = _subcommands(parser)[words[0]]
    known = _flags(parser)
    return [f"`repro {verb}` has no {flag}"
            for flag in (w.split("=", 1)[0] for w in words)
            if flag.startswith("--") and flag != "--" and flag not in known]


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("doc", _docs())
def test_doc_cites_what_exists(doc):
    verbs = _subcommands(build_parser())
    problems = []
    for snippet in _snippets((ROOT / doc).read_text()):
        problems += _command_problems(snippet, verbs)
        problems += [f"`{name}` does not resolve"
                     for name in _MODULE.findall(snippet)
                     if not _resolves(name)]
    assert not problems, f"{doc}:\n  " + "\n  ".join(sorted(set(problems)))


class TestChecker:
    """The checker itself catches what it is for."""

    def test_flags_unknown_verb_and_flag(self):
        verbs = _subcommands(build_parser())
        assert _command_problems("repro bench --check", verbs)
        assert _command_problems("python -m repro figure fig5 --paper-scale",
                                 verbs)
        assert not _command_problems(
            "PYTHONPATH=src python -m repro verify --seeds 6 --jobs=2", verbs)
        assert not _command_problems("repro corpus doctor DIR --compact",
                                     verbs)
        assert _command_problems("repro corpus doctor DIR --jobs 2", verbs)

    def test_modules_and_schema_ids(self):
        assert _MODULE.findall("repro.run-stats/v1 repro.metrics/v1") == []
        assert _resolves("repro.farm.run_jobs")
        assert _resolves("repro.apps.water")
        assert not _resolves("repro.apps.splash_water")

    def test_fenced_continuations_join(self):
        text = "```bash\nrepro sweep water \\\n    --axis n_nodes=4\n```\n"
        assert _snippets(text) == ["repro sweep water      --axis n_nodes=4"]
