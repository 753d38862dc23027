"""The README's list of subcommands matches the CLI's command table."""

import re
from pathlib import Path

from isolab import cli

README = Path(__file__).resolve().parents[1] / "README.md"

#: A backticked command span such as `base map-so4 | map-so6 | oracle`.
COMMAND_SPAN = re.compile(r"`([a-z]+) ([a-z0-9-]+(?: \| [a-z0-9-]+)*)`")


def readme_command_paths(text: str) -> set:
    section = text.split("\nSubcommands:\n", 1)[1].split("\nExit codes", 1)[0]
    return {
        f"{group} {command}"
        for group, commands in COMMAND_SPAN.findall(section)
        for command in commands.split(" | ")
    }


def test_readme_subcommands_match_command_table():
    documented = readme_command_paths(README.read_text(encoding="utf-8"))
    assert documented == set(cli.COMMANDS) | {"verify all"}
