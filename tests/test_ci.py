"""The CI workflow runs checked-in scripts, not inline programs.

A check written as a heredoc in ``.github/workflows/ci.yml`` runs only
in CI; one in ``benchmarks/smoke/`` runs locally with the same command.
The workflow is read as text, since PyYAML is not a test dependency.
A ``benchmarks/smoke/*.py`` whose name starts with ``_`` is a helper
the scripts import, not a check.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"
#: the most body lines a heredoc in a step may hold
MAX_HEREDOC_LINES = 5

_HEREDOC = re.compile(r"<<-?\s*(['\"]?)(\w+)\1")
_SMOKE_PATH = re.compile(r"benchmarks/smoke/[\w./-]*\w")


def _lines():
    return CI.read_text().splitlines()


def heredocs(lines):
    """``(line number, body lines)`` of every heredoc in ``lines``."""
    found, marker = [], None
    for number, line in enumerate(lines, 1):
        if marker is None:
            match = _HEREDOC.search(line)
            if match:
                marker, start, body = match.group(2), number, []
        elif line.strip() == marker:
            found.append((start, body))
            marker = None
        else:
            body.append(line)
    assert marker is None, f"the heredoc at line {start} never ends"
    return found


def test_no_heredoc_holds_a_program():
    long = [(start, len(body)) for start, body in heredocs(_lines())
            if len(body) > MAX_HEREDOC_LINES]
    assert not long, (
        f"heredocs (line, body lines) longer than {MAX_HEREDOC_LINES} "
        f"lines: {long}; move each into a script under benchmarks/smoke/"
    )


def test_every_smoke_script_runs_in_some_step():
    # the shell lines of the steps, less their comments
    commands = "\n".join(line.split("#", 1)[0] for line in _lines())
    scripts = sorted(path.relative_to(ROOT).as_posix() for path in
                     (ROOT / "benchmarks" / "smoke").glob("*.py")
                     if not path.name.startswith("_"))
    assert [script for script in scripts
            if f"python {script}" not in commands] == []


def test_every_smoke_path_a_step_names_exists():
    named = set(_SMOKE_PATH.findall(CI.read_text()))
    assert sorted(path for path in named
                  if not (ROOT / path).exists()) == []

