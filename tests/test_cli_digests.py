"""CLI output pinned by digest: for each command, the sha256 of stdout and of
stderr and the exit code of ``cli.main``, run in process.

The digests in ``tests/data/digests/cli_digests.json`` were recorded from
the tree before a change meant to keep outputs byte-identical.  A change
that alters output on purpose re-records them with
``PYTHONPATH=src python tests/test_cli_digests.py`` and says why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from vcgames.cli import main

# a subdirectory, since every tests/data/*.json is read as an instance
DIGESTS = Path(__file__).parent / "data" / "digests" / "cli_digests.json"
CE = ("--gen", "counterexample")
RANDOM = ("--gen", "random:2,7,3")
SHAVED = "a=2.601,c=2.201"

COMMANDS = [
    ("table", *CE, "--format", "csv"),
    ("table", *CE, "--format", "json"),
    ("table", *CE, "--format", "csv", "--eps", "1/7"),
    ("table", *CE, "--format", "json", "--eps", "1/7"),
    *(
        (cmd, "--gen", spec, "--format", fmt)
        for spec in ("harmonic:3,4", "pos:2,3,1/100", "cdsp_random:4,7,3,3")
        for cmd in ("ne", "poa")
        for fmt in ("text", "json")
    ),
    ("ne", "--gen", "random:5,9,2", "--format", "text", "--eps", "1/7"),
    ("ne", "--gen", "random:5,9,2", "--format", "json", "--eps", "1/7"),
    *(
        ("bestresp", *RANDOM, "--vendor", str(vendor), "--method", method, *prices)
        for method in ("candidate", "exact", "grid")
        for vendor in range(3)
        for prices in ((), ("--prices", "a=1/3,b=2/7,c=5"))
    ),
    *(("verify", *CE, "--prices", SHAVED, "--method", m) for m in ("candidate", "exact", "grid")),
    ("brd", *CE, "--mode", "discrete"),
    ("brd", *CE, "--mode", "continuous", "--format", "json"),
    ("brd", "--gen", "random:8,7,3", "--mode", "discrete", "--format", "json"),
    ("brd", "--gen", "random:8,7,3", "--mode", "continuous"),
    ("cdsp", "--gen", "cdsp_random:4,7,3,3", "--verify"),
    ("check", *CE),
    ("bestresp", *CE, "--vendor", "5"),
    ("table", *CE, "--eps", "0"),
    *(
        (cmd, "--gen", spec, "--format", fmt)
        for spec in ("harmonic:1,13", "random:8,8,3,additive-concave")
        for cmd in ("ne", "poa")
        for fmt in ("text", "json")
    ),
    *(
        ("ne", "--gen", spec, "--format", fmt, "--eps", "1/7")
        for spec in ("cdsp_random:4,7,3,3", "random:8,8,3,additive-concave")
        for fmt in ("text", "json")
    ),
    ("table", "--gen", "harmonic:2,3", "--format", "csv", "--eps", "1/7"),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _key(argv) -> str:
    return " ".join(argv)


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue()), "code": code}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


def test_every_command_has_a_recorded_digest(recorded):
    assert sorted(recorded) == sorted(map(_key, COMMANDS))


@pytest.mark.parametrize("argv", COMMANDS, ids=_key)
def test_cli_output_matches_recorded_digest(recorded, argv):
    assert _run(argv) == recorded[_key(argv)]


if __name__ == "__main__":
    digests = {_key(argv): _run(argv) for argv in COMMANDS}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
