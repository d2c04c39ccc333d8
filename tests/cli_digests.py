"""The CLI commands pinned by digest, and how each is run: the sha256 of
stdout and of stderr and the exit code of ``cli.main``, run in process.

The digests in ``tests/data/digests/cli_digests.json`` were recorded from
the tree before a change meant to keep outputs byte-identical.  This module
imports nothing but the standard library and the package, so any
interpreter can replay them without pytest:

    PYTHONPATH=src python tests/cli_digests.py --check

exits 1 and names each command whose output differs.  A change that alters
output on purpose re-records them with ``PYTHONPATH=src python
tests/cli_digests.py`` (or ``tests/test_cli_digests.py``) and says why.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from vcgames.cli import main

# a subdirectory, since every tests/data/*.json is read as an instance
DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "digests" / "cli_digests.json"
CE = ("--gen", "counterexample")
RANDOM = ("--gen", "random:2,7,3")
SHAVED = "a=2.601,c=2.201"
# the exact tier's LPs: one vendor owning 12 items, where every target but
# the first is ruled out by its singleton rows; and a target, {c,d,e}, whose
# LP value 53/5 is below its singleton sum 72/5, so the simplex must run
HARMONIC_EXACT = ("bestresp", "--gen", "harmonic:1,12", "--vendor", "0", "--method", "exact")
RANDOM_EXACT = (
    "bestresp", "--gen", "random:0,6,3", "--vendor", "0",
    "--prices", "a=32,b=18,f=19", "--method", "exact",
)

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
    HARMONIC_EXACT,
    RANDOM_EXACT,
    # the category-divided generator (its default vendor count, a --seed
    # override), the closed form, and the discrete best reply on part tables
    ("gen", "cdsp_random:4,7,3,3"),
    ("gen", "cdsp_random:1,6,2"),
    ("gen", "cdsp_random:0,5,2", "--seed", "9"),
    ("cdsp", "--gen", "cdsp_random:1,6,2", "--format", "json"),
    ("cdsp", "--gen", "cdsp_random:1,6,2", "--format", "json", "--verify"),
    ("brd", "--gen", "harmonic:4,5"),
    ("brd", "--gen", "pos:3,4,1/100", "--format", "json"),
    # the continuous trace as JSON lines: a run with moves, and the head
    # and trailer alone when no move is allowed
    ("brd", "--gen", "random:8,7,3", "--mode", "continuous", "--format", "json"),
    ("brd", *CE, "--mode", "continuous", "--format", "json", "--max-steps", "0"),
    # the offer game's payoffs over several rests per call: a two-vendor
    # undercut, many parts, discrete dynamics, and an uncertified table
    ("ne", "--gen", "random:3,12,2", "--eps", "1/7", "--format", "json"),
    ("poa", "--gen", "random:5,12,3"),
    ("brd", "--gen", "random:5,12,3", "--mode", "discrete", "--format", "json"),
    ("ne", "data/supermodular.json", "--format", "json"),
    # listings whose blocks run over the joint offers of several last
    # vendors: harmonic groups, a two-vendor cap, random and category-divided
    # games with one item per vendor, an undercut, and the 20-item JSON
    ("poa", "--gen", "harmonic:6,3"),
    ("ne", "--gen", "harmonic:10,2", "--format", "json"),
    ("poa", "--gen", "pos:10,2,1/100"),
    ("poa", "--gen", "random:1,12,12"),
    ("poa", "--gen", "cdsp_random:1,12,4,12"),
    ("ne", "--gen", "harmonic:4,4", "--eps", "1/7"),
    ("poa", "--gen", "harmonic:4,5", "--format", "json"),
]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def key(argv) -> str:
    return " ".join(argv)


def run(argv) -> dict:
    """Run ``argv``, a file named ``data/...`` read from ``DATA``: the key
    names it relative to tests/, so it holds on any checkout."""
    argv = [str(DATA / a.removeprefix("data/")) if a.startswith("data/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"stdout": sha(out.getvalue()), "stderr": sha(err.getvalue()), "code": code}


def record() -> None:
    digests = {key(argv): run(argv) for argv in COMMANDS}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def check() -> int:
    """Replay every recorded command; 1, naming each mismatch, if any
    differs or is not one of ``COMMANDS``."""
    recorded = json.loads(DIGESTS.read_text())
    commands = {key(argv): argv for argv in COMMANDS}
    bad = sorted(set(recorded) ^ set(commands))
    bad += [k for k, argv in commands.items() if k in recorded and run(argv) != recorded[k]]
    for k in bad:
        print(f"mismatch: {k}")
    print(f"{len(bad)} mismatches among {len(set(recorded) | set(commands))} commands")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:]:
        sys.exit("usage: cli_digests.py [--check]")
    record()
