"""Properties of the source tree itself rather than of its computations."""

import re
from pathlib import Path

import loopalg

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
