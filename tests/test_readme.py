"""The README's list of subcommands matches the CLI's command table, and
its "modules loaded" table matches the sets that
``tests/test_lazy_imports.py`` pins."""

import re
from pathlib import Path

from isolab import cli
from test_lazy_imports import GROUP_MODULES, SUBMODULES

README = Path(__file__).resolve().parents[1] / "README.md"

#: A backticked command span such as `base map-so4 | map-so6 | oracle`.
COMMAND_SPAN = re.compile(r"`([a-z]+) ([a-z0-9-]+(?: \| [a-z0-9-]+)*)`")
#: A backticked group or module name.
NAME = re.compile(r"`([a-z_]+)`")


def readme_command_paths(text: str) -> set:
    section = text.split("\nSubcommands:\n", 1)[1].split("\nExit codes", 1)[0]
    return {
        f"{group} {command}"
        for group, commands in COMMAND_SPAN.findall(section)
        for command in commands.split(" | ")
    }


def readme_module_table(text: str) -> dict:
    """Group -> the modules its row lists, plus ``cli``, which the table
    leaves out; "every module except" a list means the rest."""
    rows = text.split("\n| group | modules loaded |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    table = {}
    for row in rows.splitlines():
        groups, modules = row.strip("|").split("|")
        names = set(NAME.findall(modules))
        if modules.strip().startswith("every module except "):
            names = SUBMODULES - names
        for group in NAME.findall(groups):
            table[group] = names | {"cli"}
    return table


def test_readme_subcommands_match_command_table():
    documented = readme_command_paths(README.read_text(encoding="utf-8"))
    assert documented == set(cli.COMMANDS) | {"verify all"}


def test_scan_reads_a_module_table():
    text = (
        "\n| group | modules loaded |\n| --- | --- |\n"
        "| `a`, `b` | `covers_prym`, `serialize` |\n"
        "| `c` | every module except `serialize` |\n\nprose\n"
    )
    assert readme_module_table(text) == {
        "a": {"cli", "covers_prym", "serialize"},
        "b": {"cli", "covers_prym", "serialize"},
        "c": SUBMODULES - {"serialize"},
    }


def test_readme_module_table_matches_the_pinned_imports():
    assert readme_module_table(README.read_text(encoding="utf-8")) == GROUP_MODULES
