"""The command line's surface, pinned byte for byte: ``elang --help``, each
subcommand's ``--help``, ``--version``, and the text and exit code of every
usage error.  ``cli_surface.txt`` holds the transcript; none of these calls
reads a domain file.  argparse words some errors differently across Python
versions; the transcript is Python 3.11's."""

import shlex
from pathlib import Path

import pytest

from elang import __version__
from elang.cli import main

TRANSCRIPT = Path(__file__).with_name("cli_surface.txt")

QUERY = ["query", "corpus:bulb.e"]
GOAL = ["--mode", "credulous", "--goal", "light holds-at 3"]

CALLS = [
    ["--help"],
    ["--version"],
    ["check", "--help"],
    ["query", "--help"],
    ["ground", "--help"],
    ["bench", "--help"],
    ["corpus", "--help"],
    # errors argparse reports, with the usage line
    [],
    ["--bogus"],
    ["no_such_command"],
    ["check"],
    ["check", "corpus:bulb.e", "--horizon", "x"],
    ["check", "corpus:bulb.e", "--budget", "-1"],
    ["query"],
    [*QUERY, "--mode", "maybe"],
    [*QUERY, "--backend", "z3"],
    [*QUERY, "--slice", "sometimes"],
    [*QUERY, "--budget", "many"],
    [*QUERY, *GOAL, "--budget", "-1"],
    [*QUERY, "--frobnicate"],
    ["ground", "corpus:bulb.e", "--horizon"],
    ["bench", "x.spec"],
    ["bench", "x.spec", "--out", "o", "--repeats", "many"],
    ["corpus", "bogus"],
    ["corpus", "verify", "--budget", "-1"],
    # errors the commands report before reading any file
    QUERY,
    [*QUERY, "--goal", "light holds-at 3"],
    [*QUERY, "--mode", "credulous"],
    [*QUERY, "--query", "goal.q", "--goal", "light holds-at 3"],
    [*QUERY, "--query", "goal.q", "--mode", "skeptical"],
    ["corpus", "show"],
    ["corpus", "generate"],
]


def call(argv, capsys):
    """The exit code of ``elang ARGV``, returned or raised, and its output."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def render(argv, code, out, err) -> str:
    """One call in the transcript: the command, its exit code, then its
    standard output and error line by line after ``1|`` and ``2|``."""
    lines = ["$ " + shlex.join(["elang", *argv]), "exit %s" % code]
    for fd, text in ((1, out), (2, err)):
        lines += [("%d| %s" % (fd, line)).rstrip() for line in text.splitlines()]
        if text and not text.endswith("\n"):
            lines.append("%d\\ no newline at end" % fd)
    return "\n".join(lines) + "\n"


@pytest.fixture
def fixed_width(monkeypatch):
    # argparse wraps its help to the terminal width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")


def test_the_cli_surface_matches_its_transcript(fixed_width, capsys):
    got = "\n".join(render(argv, *call(argv, capsys)) for argv in CALLS)
    want = TRANSCRIPT.read_text().replace("{version}", __version__)
    assert got == want


def test_calls_in_one_process_share_no_state(fixed_width, capsys):
    plain = call([*QUERY, *GOAL], capsys)
    assert plain == (0, "true\n", "")
    usage = call([*QUERY, *GOAL, "--budget", "-1"], capsys)
    assert usage[0] == 3 and "--budget must not be negative" in usage[2]
    # --backend and --json do not carry over to the next call
    code, out, _ = call([*QUERY, *GOAL, "--backend", "sat", "--json"], capsys)
    assert code == 0 and '"backend": "sat"' in out
    assert call([*QUERY, *GOAL], capsys) == plain
    code, out, _ = call([*QUERY, *GOAL, "--json"], capsys)
    assert code == 0 and '"backend": "engine"' in out
    # nor does a usage error, before or after a valid call
    assert call([*QUERY, *GOAL, "--budget", "-1"], capsys) == usage
    assert call(["--help"], capsys)[0] == 0
    assert call([*QUERY, *GOAL], capsys) == plain
    assert call([*QUERY, *GOAL, "--budget", "-1"], capsys) == usage
