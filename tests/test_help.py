"""The help texts, pinned: ``arithgenus -h`` and every ``<verb> -h`` at 80
columns, as recorded in ``help_py311.txt``.  argparse lays help out
differently across Python minor versions, so the texts are recorded under
Python 3.11 and checked only there."""

import sys
from pathlib import Path

import pytest

from arithgenus import cli

HELP = Path(__file__).with_name("help_py311.txt")


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help recorded under Python 3.11")
def test_help_texts_are_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    shown = []
    for argv in [["-h"]] + [[verb, "-h"] for verb in cli._VERBS]:
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        shown.append(f"$ arithgenus {' '.join(argv)}\n{capsys.readouterr().out}")
    assert "".join(shown) == HELP.read_text()
