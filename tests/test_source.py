"""Properties of the source tree itself rather than of its computations."""

import argparse
import ast
import re
import sys
from pathlib import Path

import loopalg
from loopalg import cli

ROOT = Path(__file__).resolve().parents[1]
MAX_LINE = 100


def _package_trees():
    for path in sorted((ROOT / "src" / "loopalg").rglob("*.py")):
        yield path.relative_to(ROOT), ast.parse(path.read_text(), filename=str(path))


def test_no_source_line_is_longer_than_the_limit():
    long_lines = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted((ROOT / "src" / "loopalg").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def test_package_version_matches_pyproject():
    """The cache key hashes ``__version__``, so it must follow every release."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        (version,) = re.findall(r'^version = "([^"]*)"$', text, re.M)
    else:
        version = tomllib.loads(text)["project"]["version"]
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


def test_package_imports_only_the_standard_library():
    outside = []
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_package_has_no_float_arithmetic():
    floats = [
        f"{path}:{node.lineno}"
        for path, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ]
    assert floats == []


def test_no_module_imports_a_name_it_never_reads():
    """Every imported name is read in its module; ``__init__`` re-exports its names."""
    unread = []
    for path, tree in _package_trees():
        if path.name == "__init__.py":
            continue
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        unread.append(f"{path}:{node.lineno} {name}")
    assert unread == []


def test_every_memo_of_the_package_is_bounded():
    """A process serving a long request stream holds a bounded number of results.

    Each ``lru_cache`` names a finite ``maxsize``; ``functools.cache``
    (unbounded) is allowed only on a function of no parameter, which holds
    one result.
    """
    unbounded = []
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for decorator in node.decorator_list:
                call = decorator if isinstance(decorator, ast.Call) else None
                name = ast.unparse(call.func if call else decorator).rpartition(".")[2]
                if name == "lru_cache" and call:
                    sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
                    bounded = not any(ast.unparse(size) == "None" for size in sizes)
                elif name == "cache":
                    bounded = not ast.unparse(node.args)
                else:
                    continue
                if not bounded:
                    unbounded.append(f"{path}:{node.lineno} {node.name}")
    assert unbounded == []
