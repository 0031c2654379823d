"""README's command-line transcripts, run in order and compared line by line.

Every ```sh block of the "Command line" section that holds `$ fqdirections`
lines is a transcript: each such line is a command, and the lines under it,
up to the next command, are its stdout.  A `...` line stands for the rest of
the output.  A block with no output lines, such as `sweep campaign.json`,
is skipped.  The first transcript prints the paraboloid that later ones read
as parab.fset, so its output is saved there.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from fqdirections.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _transcripts() -> list[list[tuple[str, list[str]]]]:
    """Each transcript block's (command, expected stdout lines), in README order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    transcripts = []
    for block in re.findall(r"^```sh\n(.*?)^```$", section, flags=re.M | re.S):
        commands: list[tuple[str, list[str]]] = []
        for line in block.splitlines():
            if line.startswith("$ fqdirections "):
                commands.append((line[2:], []))
            elif commands:
                commands[-1][1].append(line)
        if any(output for _, output in commands):
            transcripts.append(commands)
    return transcripts


def test_readme_command_transcripts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    transcripts = _transcripts()
    commands = [command for transcript in transcripts for command in transcript]
    assert [command.split()[1] for command, _ in commands] == [
        "gen", "directions", "directions", "nu", "salem", "diff", "verify",
    ]
    runner = CliRunner()
    for number, (command, expected) in enumerate(commands):
        result = runner.invoke(main, shlex.split(command)[1:], catch_exceptions=False)
        assert result.exit_code == 0, command
        lines = result.stdout.splitlines()
        if "..." in expected:
            shown = expected.index("...")
            assert lines[:shown] == expected[:shown] and len(lines) > shown, command
        else:
            assert lines == expected, command
        if number == 0:
            (tmp_path / "parab.fset").write_text(result.stdout)
