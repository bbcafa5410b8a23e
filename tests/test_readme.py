"""README.md states what the package does, so tier-1 runs what it shows.

* Every fenced ``python`` block runs in a fresh namespace and prints, and
  imports from ``triqw`` only names of ``triqw.__all__``.
* Every ``triqw <command>`` line of the synopsis names exactly the options
  of that subcommand's parser.  A shown value is the option's default,
  converted by the option's type; an ``a|b`` list is the option's choices,
  the default first; ``PATH`` is the metavar of ``--out``.
* Every synopsis command runs through ``triqw.cli.main`` with the shown
  values, once per choice of each listed option, without ``--out``, and
  exits 0 with output and no error.
* Every ``tests/*.py`` script that README names exists and has a
  ``Usage:`` line in its docstring.
* README stays short and names no private identifier of ``src/``.
"""

import ast
import contextlib
import io
import itertools
import re
from pathlib import Path

import pytest

import triqw
from triqw.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
MAX_LINES = 160


def fenced(language: str) -> list[str]:
    """The text of every fenced block of README opened by ```language."""
    blocks, current = [], None
    for line in README.splitlines(keepends=True):
        if current is None and line.startswith("```"):
            current = [line[3:].strip()]
        elif current is not None and line.rstrip() == "```":
            blocks.append(current)
            current = None
        elif current is not None:
            current.append(line)
    return ["".join(body) for opened, *body in blocks if opened == language]


PYTHON_BLOCKS = fenced("python")
SYNOPSIS = [line for block in fenced("") for line in block.splitlines() if line.startswith("triqw ")]


def synopsis_options(line: str) -> tuple[str, dict[str, str | None]]:
    """(command, {option: shown value or None}) of one synopsis line."""
    _, command, rest = line.split(maxsplit=2)
    shown = re.findall(r"\[(--[\w-]+)(?: ([^\]]+))?\]", rest)
    return command, {option: value or None for option, value in shown}


def subparser_actions(command: str) -> dict[str, object]:
    """{option string: action} of one subcommand, without ``-h``."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    actions = sub.choices[command]._actions
    return {opt: a for a in actions for opt in a.option_strings if opt not in ("-h", "--help")}


def test_readme_has_python_blocks_and_a_synopsis():
    assert PYTHON_BLOCKS
    assert [synopsis_options(line)[0] for line in SYNOPSIS] == ["chi", "phi-scan", "walk", "snapshot"]


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=lambda block: block.splitlines()[0][:30])
def test_python_block_runs_and_prints(block):
    for node in ast.walk(ast.parse(block)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "triqw":
            assert node.module == "triqw", node.module
            for alias in node.names:
                assert alias.name in triqw.__all__, alias.name
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert out.getvalue().strip()


@pytest.mark.parametrize("line", SYNOPSIS, ids=lambda line: line.split()[1])
def test_synopsis_matches_the_parser(line):
    command, shown = synopsis_options(line)
    actions = subparser_actions(command)
    assert set(shown) == set(actions)
    for option, value in shown.items():
        action = actions[option]
        if action.choices is not None:
            listed = value.split("|")
            assert sorted(listed) == sorted(action.choices), option
            assert listed[0] == action.default, option
        elif value == action.metavar:
            assert action.default is None, option
        else:
            convert = action.type or str
            assert convert(value) == action.default, option


def synopsis_runs():
    """The argv of every run of the synopsis: the shown values, and each
    choice of every listed option."""
    for line in SYNOPSIS:
        command, shown = synopsis_options(line)
        actions = subparser_actions(command)
        fixed, listed = [command], []
        for option, value in shown.items():
            action = actions.get(option)  # an unknown option fails the run, not collection
            if action is not None and action.choices is not None:
                listed.append([(option, choice) for choice in value.split("|")])
            elif action is None or value != action.metavar:
                fixed += [option, value]
        for picked in itertools.product(*listed):
            yield fixed + [token for pair in picked for token in pair]


@pytest.mark.parametrize("argv", list(synopsis_runs()), ids=" ".join)
def test_synopsis_command_runs(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().strip()


def test_named_tools_exist_with_usage():
    tools = set(re.findall(r"tests/\w+\.py", README))
    assert tools
    for tool in sorted(tools):
        path = ROOT / tool
        assert path.is_file(), tool
        assert "\nUsage: " in (ast.get_docstring(ast.parse(path.read_text())) or ""), tool


def test_readme_is_short_and_names_no_private_identifier():
    assert len(README.splitlines()) <= MAX_LINES
    private = set()
    for path in (ROOT / "src" / "triqw").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = next(filter(None, (getattr(node, a, None) for a in ("name", "id", "attr"))), None)
            if isinstance(name, str) and re.fullmatch(r"_[A-Za-z]\w*", name):
                private.add(name)
    assert private
    named = {name for name in private if re.search(rf"(?<!\w){name}\b", README)}
    assert not named
