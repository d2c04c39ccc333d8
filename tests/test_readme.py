"""The README's examples run as printed.

The Quick tour block is executed and its three printed results checked; every
``vcgames ...`` line of the Command line block runs through ``main()`` and
must end in exit 0 or 1 (a negative finding) with nothing on stderr.  Every
backticked dotted name that starts at a ``vcgames`` module or class, such as
``market._bundles``, names an attribute that exists.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import vcgames
from vcgames.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str) -> str:
    """The first fenced code block after the given ``## `` heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


def _commands() -> list[list[str]]:
    text = _block("Command line").replace("\\\n", " ")
    return [
        shlex.split(line, comments=True)[1:]
        for line in text.splitlines()
        if line.startswith("vcgames ")
    ]


COMMANDS = _commands()


def test_quick_tour_prints_its_results():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("Quick tour"), {})
    assert out.getvalue().splitlines() == ["0", "cycle 4", "11/6 1"]


def test_every_command_line_example_is_found():
    assert {argv[0] for argv in COMMANDS} == {
        "check", "table", "ne", "poa", "brd", "cdsp", "bestresp", "verify", "gen",
    }


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_command_line_example_runs(capsys, argv):
    code = main(argv)
    assert code in (0, 1)
    assert capsys.readouterr().err == ""


def _roots() -> dict:
    """The package, its modules (``__main__`` would run the CLI) and the
    classes they define, by the name a README name starts with."""
    roots = {"vcgames": vcgames}
    for info in pkgutil.iter_modules(vcgames.__path__):
        if info.name.startswith("__"):
            continue
        module = importlib.import_module(f"vcgames.{info.name}")
        roots[info.name] = module
        roots.update(
            (name, obj)
            for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
        )
    return roots


def test_every_dotted_name_resolves():
    roots = _roots()
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`", README)
    ours = [name for name in names if name.split(".")[0] in roots]
    assert {"market._bundles", "Valuation.exhaustive_checks"} <= set(ours)
    missing = []
    for name in ours:
        head, *attrs = name.split(".")
        obj = roots[head]
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []
