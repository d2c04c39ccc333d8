"""Child process that runs the ``vcgames`` CLI under the benchmark's eye.

    python3 child.py run PEAK_FILE -- CLI_ARGS...
        Run the CLI as ``python3 -m vcgames`` would, then write this
        process's peak resident memory in KiB (VmHWM) to PEAK_FILE.  The
        benchmark cannot take it from ``wait4``: Python spawns children with
        vfork, so a child's ``ru_maxrss`` starts at the parent's own peak.
    python3 child.py probe STOP_AT -- CLI_ARGS...
        Run the CLI until it calls ``vcgames.cli.STOP_AT`` (its first
        analysis call), print "setup-done" and exit at once.  The process's
        wall time is the workload's set-up time.
    python3 child.py trace SPANS_JSON -- CLI_ARGS...
        Run the CLI to the end with spans around the program's public
        functions; write the spans to SPANS_JSON and exit with the CLI's code.

The program is imported from ``src`` next to this directory.
"""

import os
import sys
import time

T0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def run(peak_path: str, argv: list[str]) -> int:
    import vcgames.cli as cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open("/proc/self/status", encoding="ascii") as fh:
            peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
        with open(peak_path, "w", encoding="ascii") as fh:
            fh.write(peak + "\n")


def probe(stop_at: str, argv: list[str]) -> int:
    import vcgames.cli as cli

    def stop(*args, **kwargs):
        sys.stdout.write("setup-done\n")
        sys.stdout.flush()
        os._exit(0)

    if not hasattr(cli, stop_at):
        print(f"error: vcgames.cli has no {stop_at!r}", file=sys.stderr)
        return 3
    setattr(cli, stop_at, stop)
    return cli.main(argv)


def trace(spans_path: str, argv: list[str]) -> int:
    from spans import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    import vcgames.cli as cli

    tracer.record("cli.import", start, time.perf_counter())
    missing = tracer.install()
    if missing:
        print(f"error: cannot trace {', '.join(missing)}", file=sys.stderr)
        return 3
    try:
        code = cli.main(argv)
    finally:
        import json

        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"t0": T0, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    mode, arg, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("run", "probe", "trace"):
        sys.exit("usage: child.py run|probe|trace ARG -- CLI_ARGS...")
    sys.exit({"run": run, "probe": probe, "trace": trace}[mode](arg, cli_args))
