"""The CLI's argparse texts, pinned byte for byte.

``tests/cli_usage.expected`` holds the transcript below: every subcommand
with no arguments, the construct subcommands missing an argument or given
a bad choice, and the ``-h`` text of the program and of every subcommand
at 80 columns.  Re-record it, after a deliberate change to the parser,
with ``PYTHONPATH=src python tests/test_cli_usage.py > tests/cli_usage.expected``.
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path
from unittest import mock

from cspace.cli import run_command

EXPECTED = Path(__file__).with_name("cli_usage.expected")

SUBCOMMANDS = [
    "new", "pi1", "hom", "monoid", "reflect", "check", "product", "sum", "op",
    "restrict", "quotient", "cover-validate", "cover-lift", "cover-bijection", "report",
]

USAGE_ERRORS = [
    [],
    *([name] for name in SUBCOMMANDS),
    ["product", "a.json"],
    ["restrict", "a.json"],
    ["reflect", "a.json"],
    ["reflect", "a.json", "zz"],
]

HELP = [["-h"], *([name, "-h"] for name in SUBCOMMANDS)]


def _run(argv: list[str]) -> str:
    """One invocation as ``$ cspace ARGV``, the exit code and the text;
    ``-h`` leaves ``run_command`` by ``SystemExit`` after writing stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code, text = run_command(argv)
        except SystemExit as stop:
            code, text = stop.code, out.getvalue().rstrip("\n")
    return f"$ {' '.join(['cspace', *argv])}\nexit {code}\n{text}\n"


def transcript() -> str:
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return "\n".join(_run(argv) for argv in USAGE_ERRORS + HELP)


def test_usage_texts_match_the_recording():
    assert transcript() == EXPECTED.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(transcript())
