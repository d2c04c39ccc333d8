"""Command-line front end.

Exit codes: 0 on success, 1 when an analysis comes back negative (a failed
validation, a refuted equilibrium, a golden-file mismatch), 2 for usage or
parse problems, and 141 (128 + SIGPIPE), silently, when stdout is closed
before the output is written (``| head``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize
from .analysis import equilibrium_report, welfare
from .instances import (
    cdsp_equilibrium,
    counterexample_instance,
    harmonic_instance,
    pos_instance,
    random_cdsp_instance,
    random_instance,
)
from .pmvc import (
    DEFAULT_PROFILE_CAP,
    EnumerationCapExceeded,
    GameInstance,
    StrategyProfile,
    payoff_table,
    pmvc_pure_ne,
)
from .rationals import format_rational, parse_rational
from .vcgame import br_dynamics, vc_best_response, vc_verify_ne

_METHOD_NAMES = {
    "candidate": "candidate-set",
    "exact": "target-set-exact",
    "grid": "grid",
}


class CliError(Exception):
    """Usage-level failure; message goes to stderr, exit code 2."""


_SEEDED_GENERATORS = ("random", "cdsp_random")
_SEED_REFUSAL = "--seed applies only to the random and cdsp_random generators"


def _parse_gen(spec: str, seed_override: int | None) -> GameInstance:
    name, _, argtext = spec.partition(":")
    if seed_override is not None and name not in _SEEDED_GENERATORS:
        raise CliError(_SEED_REFUSAL)
    args = [a for a in argtext.split(",") if a] if argtext else []

    def integers(n_min: int, n_max: int, ints: int | None = None) -> list[int]:
        """The first ``ints`` arguments (all by default) as ints."""
        if not n_min <= len(args) <= n_max:
            raise CliError(f"generator {name!r} takes {n_min}..{n_max} arguments")
        try:
            return [int(a) for a in args[:ints]]
        except ValueError as e:
            raise CliError(f"generator {name!r}: {e}") from None

    try:
        if name == "counterexample":
            if args:
                raise CliError("generator 'counterexample' takes no arguments")
            return counterexample_instance()
        if name == "harmonic":
            k, m = integers(2, 2)
            return harmonic_instance(k, m)
        if name == "pos":
            if len(args) != 3:
                raise CliError("generator 'pos' takes k,m,eps")
            k, m = int(args[0]), int(args[1])
            return pos_instance(k, m, parse_rational(args[2]))
        # the optional last argument, when given, goes through as it is, so
        # its default lives in the generator
        if name == "random":
            seed, n, k = integers(3, 4, ints=3)
            if seed_override is not None:
                seed = seed_override
            return random_instance(seed, n, k, *args[3:])
        if name == "cdsp_random":
            seed, *rest = integers(3, 4)
            if seed_override is not None:
                seed = seed_override
            return random_cdsp_instance(seed, *rest)
    except ValueError as e:
        raise CliError(f"generator {spec!r}: {e}") from None
    raise CliError(
        f"unknown generator {name!r}; expected counterexample, harmonic:k,m, "
        f"pos:k,m,eps, random:seed,n,k[,generator], or cdsp_random:seed,n,r[,k]"
    )


def _load(args: argparse.Namespace) -> GameInstance:
    if args.gen:
        if args.instance:
            raise CliError("give either an instance file or --gen, not both")
        return _parse_gen(args.gen, args.seed)
    if not args.instance:
        raise CliError("no input: give an instance file or --gen SPEC")
    if args.seed is not None:
        raise CliError(_SEED_REFUSAL)
    return serialize.load_instance(args.instance)


def _parse_prices(g: GameInstance, text: str | None):
    sent = g.sentinel
    if not text:
        return serialize.prices_from_obj(g.universe, {}, sent)
    pairs = {}
    for part in text.split(","):
        name, eq, raw = part.partition("=")
        if not eq:
            raise CliError(f"price {part!r}: expected item=value")
        name = name.strip()
        if name in pairs:
            raise CliError(f"price for item {name!r} given twice")
        pairs[name] = raw.strip()
    return serialize.prices_from_obj(g.universe, pairs, sent)


def _write_text(pieces) -> None:
    """Write a listing as its pieces are rendered, then a final newline."""
    sys.stdout.writelines(pieces)
    sys.stdout.write("\n")


def _emit(args: argparse.Namespace, text_out: str, obj) -> None:
    if args.format == "json":
        print(json.dumps(obj, indent=2))
    else:
        print(text_out)


# -- commands --------------------------------------------------------------


def cmd_check(args) -> int:
    g = _load(args)
    v = g.valuation
    mono, sub = v.exhaustive_checks()
    for label, rep in (("monotone", mono), ("submodular", sub)):
        if rep.ok:
            print(f"{label}: PASS")
        else:
            print(f"{label}: FAIL  {rep.detail}")
    return 0 if mono.ok and sub.ok else 1


def cmd_table(args) -> int:
    g = _load(args)
    eps = parse_rational(args.eps) if args.eps else None
    table = payoff_table(g, cap=args.cap, undercut=eps)
    if args.golden:
        with open(args.golden, "r", encoding="utf-8") as fh:
            expected = fh.read()
        if serialize.payoff_table_csv(g, table) != expected:
            print("golden mismatch", file=sys.stderr)
            return 1
        print(f"golden match: {args.golden}")
        return 0
    if args.format == "csv":
        sys.stdout.write(serialize.payoff_table_csv(g, table))
    elif args.format == "json":
        # joined first: pricing may refuse a profile part-way through
        print("".join(serialize.payoff_table_json(g, table)))
    else:
        print(serialize.payoff_table_text(g, table))
    return 0


def cmd_ne(args) -> int:
    g = _load(args)
    eps = parse_rational(args.eps) if args.eps else None
    nes = pmvc_pure_ne(g, cap=args.cap, undercut=eps)
    if args.format == "json":
        _write_text(serialize.equilibria_to_json(g, nes))
    else:
        _write_text(serialize.equilibria_to_text(g, nes))
    return 0


def cmd_poa(args) -> int:
    g = _load(args)
    report = equilibrium_report(g, cap=args.cap)
    if args.format == "json":
        _write_text(serialize.report_to_json(g, report))
    else:
        _write_text(serialize.report_to_text(g, report))
    return 0


def cmd_brd(args) -> int:
    g = _load(args)
    if args.start:
        try:
            start: StrategyProfile | None = g.parse_profile(args.start)
        except (KeyError, ValueError) as e:
            raise CliError(f"bad --start: {e.args[0]}") from None
    else:
        start = StrategyProfile(tuple(g.vendor_masks))
    trace = br_dynamics(g, start, mode=args.mode, max_steps=args.max_steps)
    if args.format == "json":
        _write_text(serialize.trace_to_jsonl(g, trace))
    else:
        period = "" if trace.period is None else f" (period {trace.period})"
        print(f"{trace.status} after {len(trace.steps)} moves{period}")
    return 0


def cmd_cdsp(args) -> int:
    g = _load(args)
    p = cdsp_equilibrium(g)
    prices = serialize.prices_to_obj(p)
    obj = {"prices": prices}
    lines = [f"{name} = {q}" for name, q in prices.items()]
    code = 0
    if args.verify:
        res = vc_verify_ne(g, p, method="target-set-exact")
        achieved = welfare(g, p)
        optimal = g.valuation.value_mask(g.universe.full_mask)
        obj["verification"] = serialize.verification_to_obj(g, res)
        obj["welfare"] = format_rational(achieved)
        obj["optimal_welfare"] = format_rational(optimal)
        if res.certified and achieved == optimal:
            lines.append("equilibrium certified; welfare optimal")
        else:
            lines.append(f"verification {res.status}; welfare {format_rational(achieved)} of {format_rational(optimal)}")
            code = 1
    _emit(args, "\n".join(lines), obj)
    return code


def cmd_gen(args) -> int:
    g = _parse_gen(args.spec, args.seed)
    print(serialize.dump_instance(g))
    return 0


def cmd_bestresp(args) -> int:
    g = _load(args)
    method = _METHOD_NAMES[args.method]
    p = _parse_prices(g, args.prices)
    br = vc_best_response(g, args.vendor, p, method)
    obj = serialize.best_response_to_obj(g, br)
    lines = [
        f"vendor {br.vendor} best response ({br.method})",
        f"revenue = {format_rational(br.revenue)}",
        f"realized = {format_rational(br.realized_revenue)}",
    ] + [f"  {name} = {q}" for name, q in obj["prices"].items()]
    _emit(args, "\n".join(lines), obj)
    return 0


def cmd_verify(args) -> int:
    g = _load(args)
    method = _METHOD_NAMES[args.method]
    p = _parse_prices(g, args.prices)
    res = vc_verify_ne(g, p, method)
    obj = serialize.verification_to_obj(g, res)
    lines = [f"{res.status} ({res.method})"]
    for c in res.checks:
        lines.append(
            f"  vendor {c.vendor}: current {format_rational(c.current_revenue)}, "
            f"best {format_rational(c.best_revenue)}"
        )
    if res.certificate is not None:
        cert = res.certificate
        lines.append(
            f"  deviation: vendor {cert.vendor} can earn "
            f"{format_rational(cert.new_revenue)} > {format_rational(cert.old_revenue)}"
        )
    _emit(args, "\n".join(lines), obj)
    return 0 if res.certified else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcgames",
        description="Exact analysis of vendor pricing games with a submodular buyer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, formats=("text", "json"), instance_arg: bool = True):
        p = sub.add_parser(name, help=help_text)
        if instance_arg:
            p.add_argument("instance", nargs="?", help="instance JSON file")
            p.add_argument("--gen", help="generator spec, e.g. harmonic:2,3")
        p.add_argument(
            "--seed", type=int, help="override the seed of a random or cdsp_random generator"
        )
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        return p

    add("check", "validate monotonicity and submodularity", formats=())
    p = add("table", "print the offer-game payoff table", formats=("text", "json", "csv"))
    p.add_argument("--cap", type=int, default=DEFAULT_PROFILE_CAP)
    p.add_argument("--eps", help="undercut offered prices by this amount")
    p.add_argument("--golden", help="compare CSV output against this file")
    p = add("ne", "enumerate pure Nash equilibria of the offer game")
    p.add_argument("--cap", type=int, default=DEFAULT_PROFILE_CAP)
    p.add_argument("--eps", help="undercut offered prices by this amount")
    p = add("poa", "equilibrium welfare report (PoA / PoS)")
    p.add_argument("--cap", type=int, default=DEFAULT_PROFILE_CAP)
    p = add("brd", "run best-response dynamics")
    p.add_argument("--start", help="starting profile, e.g. '{a}|{c}'")
    p.add_argument("--mode", choices=("discrete", "continuous"), default="discrete")
    p.add_argument("--max-steps", type=int, default=1000)
    p = add("cdsp", "closed-form equilibrium of a category-max instance")
    p.add_argument("--verify", action="store_true", help="certify it as an equilibrium")
    p = add("gen", "emit a generated instance as JSON", formats=(), instance_arg=False)
    p.add_argument("spec", help="e.g. counterexample | harmonic:2,3 | pos:2,3,1/100")
    p = add("bestresp", "best response of one vendor to fixed prices")
    p.add_argument("--vendor", type=int, required=True)
    p.add_argument("--prices", help="competitor prices, e.g. 'a=2.601,b=8.6045'")
    p.add_argument("--method", choices=sorted(_METHOD_NAMES), default="exact")
    p = add("verify", "check a price vector for equilibrium")
    p.add_argument("--prices", help="prices, e.g. 'a=2.601,b=0'; omitted items are withheld")
    p.add_argument("--method", choices=sorted(_METHOD_NAMES), default="exact")
    return parser


_COMMANDS = {
    "check": cmd_check,
    "table": cmd_table,
    "ne": cmd_ne,
    "poa": cmd_poa,
    "brd": cmd_brd,
    "cdsp": cmd_cdsp,
    "gen": cmd_gen,
    "bestresp": cmd_bestresp,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader left: point stdout at devnull so the exit flush passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (CliError, ValueError, OSError, EnumerationCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
