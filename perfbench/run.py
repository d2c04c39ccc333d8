"""The vcgames benchmark: named workloads through the ``vcgames`` CLI.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is taken from ``src/`` beside this
directory.  Each workload runs the CLI in child processes, one at a time,
for about ``--seconds`` seconds (at least one invocation), and checks every
output against values the benchmark derives itself (see ``checks.py``).

With ``--trace 0`` it reports the end-to-end metrics:

* ``wall_s``: median wall time of one CLI invocation, process start to exit;
* ``setup_s``: median wall time of a child that runs the same command but
  exits at the CLI's first analysis call (interpreter start, import,
  instance load and certification), measured ``SETUP_PROBES`` times;
* ``peak_rss_mb``: the workload's peak resident memory, the largest over
  its invocations, each read by the invocation itself at exit (see
  ``child.py``);
* ``ok_ratio``: operations that passed over operations attempted, where an
  operation (an invocation or a set-up probe) fails on a nonzero exit code
  or an output that fails its check.  ``fail_ratio`` is its complement and
  is printed in the summary.

With ``--trace 1`` each invocation runs twice, untraced and traced, and the
per-layer metrics of ``spans.py`` are reported as medians over the traced
invocations, with ``trace.overhead_ratio`` = traced / untraced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run metadata and
every sample go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple

import checks
import gen
import spans

PROCESS_T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 9
HARD_LIMIT_S = 170  # a child still running then is killed and counts as failed

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class Workload(NamedTuple):
    args: Callable[[str], list[str]]  # CLI arguments, given the instance path
    first_call: str  # the analysis function of vcgames.cli that ends set-up
    expect: tuple[str, ...]  # spans that must fire in a traced invocation
    check: Callable[[gen.Instance | None, str], str | None]


def _text(check):
    def run(inst, path):
        with open(path, encoding="utf-8") as fh:
            return check(inst, fh.read())

    return run


COMMON = ("valuation.certify", "valuation.dense", "serialize.render")
WORKLOADS = {
    "poa-harmonic": Workload(
        lambda path: ["poa", "--gen", "harmonic:4,5"],
        "equilibrium_report",
        COMMON + ("pmvc.pure_ne", "analysis.report"),
        lambda inst, path: checks.check_poa(path),
    ),
    "table-demand": Workload(
        lambda path: ["table", path, "--format", "csv"],
        "payoff_table",
        COMMON + ("serialize.load", "pmvc.table", "market.demand"),
        _text(checks.check_table),
    ),
    "bestresp-large": Workload(
        lambda path: ["bestresp", path, "--vendor", "0", "--method", "exact", "--format", "json"],
        "vc_best_response",
        COMMON + ("serialize.load", "vcgame.best_response", "exactlp.maximize", "market.demand"),
        _text(checks.check_bestresp),
    ),
    "brd-continuous": Workload(
        lambda path: ["brd", path, "--mode", "continuous", "--format", "json"],
        "br_dynamics",
        COMMON + ("serialize.load", "vcgame.dynamics", "exactlp.maximize", "market.demand"),
        _text(checks.check_brd),
    ),
}


class Child(NamedTuple):
    code: int
    wall_s: float


def spawn(argv: list[str], out_path: Path) -> Child:
    """Run one child to its end; wall time from spawn to reaping."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    limit = max(1.0, HARD_LIMIT_S - (time.perf_counter() - PROCESS_T0))
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
    return Child(proc.returncode, wall)


def failure(child: Child, out: Path, check, inst: gen.Instance | None = None) -> str | None:
    """Why one operation failed, or None: a nonzero exit code, or an output
    that fails its check or cannot be read."""
    if child.code != 0:
        return f"exit code {child.code}"
    try:
        return check(inst, str(out))
    except Exception as e:  # a malformed output is a failed operation
        return f"unreadable output: {type(e).__name__}: {e}"


def git_state() -> dict | None:
    if not (ROOT / ".git").exists():
        return None

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return {
            "revision": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.CalledProcessError):
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)
    load_before = os.getloadavg()
    start = time.perf_counter()
    ops: list[dict] = []

    def instance(index: int) -> tuple[gen.Instance | None, str]:
        if name not in gen.SHAPES:
            return None, ""
        inst = gen.Instance(name, seed, index)
        path = WORK / f"{name}.json"
        path.write_text(inst.to_json(), encoding="utf-8")
        return inst, str(path)

    def record(kind: str, index: int, child: Child, reason: str | None) -> dict:
        op = {"kind": kind, "instance": index, "wall_s": child.wall_s, "failure": reason}
        ops.append(op)
        if reason:
            print(f"{name}: {kind} on instance {index} failed: {reason}", file=sys.stderr)
        return op

    layer_samples: list[dict] = []
    out = WORK / f"{name}.out"
    if not trace:
        inst, path = instance(0)
        argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), "probe", wl.first_call,
                "--", *wl.args(path)]
        for _ in range(SETUP_PROBES):
            child = spawn(argv, out)
            record("setup", 0, child, failure(child, out, lambda _, path: (
                None if Path(path).read_text(encoding="utf-8") == "setup-done\n"
                else "did not reach the first analysis call"
            )))
    index = 0
    while True:
        began = time.perf_counter()
        inst, path = instance(index)
        peak = WORK / f"{name}.peak"
        peak.unlink(missing_ok=True)
        child = spawn([sys.executable, str(ROOT / "perfbench" / "child.py"), "run", str(peak),
                       "--", *wl.args(path)], out)
        plain = record("run", index, child, failure(child, out, wl.check, inst))
        plain["rss_mb"] = int(peak.read_text()) / 1024 if peak.exists() else None
        if trace:
            spans_path = WORK / f"{name}.spans.json"
            argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), "trace",
                    str(spans_path), "--", *wl.args(path)]
            child = spawn(argv, out)
            record("traced", index, child, failure(child, out, wl.check, inst))
            if child.code != 0:
                raise SystemExit(f"error: traced {name} exited with {child.code}; see {out.with_suffix('.err')}")
            data = json.loads(spans_path.read_text(encoding="utf-8"))
            fired = {s[0] for s in data["spans"]}
            silent = [s for s in wl.expect if s not in fired]
            if silent:
                raise SystemExit(
                    f"error: traced {name} recorded no call to {', '.join(silent)}; "
                    "was a traced function renamed?"
                )
            metrics = spans.layer_metrics(data["spans"], data["counts"], child.wall_s, out.stat().st_size)
            metrics["trace.overhead_ratio"] = child.wall_s / plain["wall_s"]
            layer_samples.append(metrics)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - began) > seconds:
            break

    runs = [op for op in ops if op["kind"] == "run"]
    failed = sum(1 for op in ops if op["failure"])
    if trace:
        metrics = {}
        for key, unit in spans.LAYER_UNITS.items():
            values = [sample[key] for sample in layer_samples]
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[key] = {"value": median(values), "unit": unit}
    else:
        values = {
            "wall_s": statistics.median(op["wall_s"] for op in runs),
            "setup_s": statistics.median(op["wall_s"] for op in ops if op["kind"] == "setup"),
            "peak_rss_mb": max(op["rss_mb"] or 0.0 for op in runs),
            "ok_ratio": (len(ops) - failed) / len(ops),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    cpus = os.cpu_count()
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "cpu_count": cpus,
        "git": git_state(),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "load_high": load_before[0] > (cpus or 1),
        "elapsed_s": time.perf_counter() - start,
    }
    print(f"{name}: python {meta['python']}, {cpus} cores, git {meta['git']}, load "
          f"{load_before[0]:.2f} -> {meta['load_after'][0]:.2f}", file=sys.stderr)
    if meta["load_high"]:
        print(f"warning: load {load_before[0]:.2f} above {cpus} cores at the start of {name}",
              file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    report = {"meta": meta, "result": result, "ops": ops, "layers": layer_samples}
    path = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return result


def summary_line(name: str, result: dict) -> str:
    m = result["metrics"]
    cells = [f"{key} {m[key]['value']:.6g} {m[key]['unit']}" for key in m if key != "ok_ratio"]
    if "ok_ratio" in m:
        cells.append(f"fail_ratio {result['failed'] / result['attempted']:.6g} "
                     f"({result['failed']}/{result['attempted']})")
    return f"{name:<15} " + "  ".join(cells)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "vcgames" / "cli.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'vcgames'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(summary_line(name, results[name]), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": value
                for name, r in results.items()
                for key, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
