"""Properties of the source tree itself rather than of its computations."""

import argparse
import re
from pathlib import Path

import loopalg
from loopalg import cli

ROOT = Path(__file__).resolve().parents[1]
MAX_LINE = 100


def test_no_source_line_is_longer_than_the_limit():
    long_lines = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted((ROOT / "src" / "loopalg").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def test_package_version_matches_pyproject():
    (version,) = re.findall(r'^version = "([^"]*)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert loopalg.__version__ == version


def test_readme_command_line_names_every_option_of_the_parser():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    (subcommands,) = [
        action
        for action in cli._parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        option
        for subparser in subcommands.choices.values()
        for action in subparser._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    assert documented == options - {"--help"}
