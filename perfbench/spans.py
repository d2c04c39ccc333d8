"""Spans around calls into the program, and the per-layer metrics from them.

The traced child (``child.py trace``) wraps public functions of the program
from outside, so the program's source stays unchanged.  A span is
``[name, parent index or -1, start, end, attrs]``; spans stay in memory and
are written out once, when the child ends.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import sys
import time

# Span name -> (module, attribute); "Valuation.x" names a method on the class.
SPANNED = {
    "serialize.load": [("vcgames.serialize", "load_instance")],
    "valuation.certify": [("vcgames.valuation", "Valuation.certify")],
    "valuation.dense": [("vcgames.valuation", "Valuation.dense_scaled")],
    "market.demand": [("vcgames.market", "demand")],
    "pmvc.pure_ne": [("vcgames.pmvc", "pmvc_pure_ne")],
    "pmvc.table": [("vcgames.pmvc", "payoff_table")],
    "analysis.report": [("vcgames.analysis", "equilibrium_report")],
    "vcgame.best_response": [("vcgames.vcgame", "vc_best_response")],
    "vcgame.dynamics": [("vcgames.vcgame", "br_dynamics")],
    "exactlp.maximize": [("vcgames.exactlp", "maximize")],
    "serialize.render": [
        ("vcgames.serialize", name)
        for name in (
            "report_to_text",
            "report_to_obj",
            "payoff_table_csv",
            "payoff_table_obj",
            "trace_to_jsonl",
            "best_response_to_obj",
            "verification_to_obj",
            "dump_instance",
        )
    ],
}
# Calls counted without a span: too small and too many to time one by one.
COUNTED = {"pmvc.outcome": ("vcgames.pmvc", "pmvc_outcome")}


def _lp_attrs(args, kwargs, result):
    c, rows, rhs = args
    m = len(rows)
    return {
        "rows": m,
        "cells": m * (len(c) + m + 1),
        "rhs_bits": max((b.denominator.bit_length() for b in rhs), default=0),
    }


ATTRS = {
    "market.demand": lambda a, k, r: {"subsets": 1 << a[0].universe.n},
    "pmvc.pure_ne": lambda a, k, r: {"profiles": 1 << a[0].universe.n, "equilibria": len(r)},
    "vcgame.dynamics": lambda a, k, r: {"moves": len(r.steps)},
    "exactlp.maximize": _lp_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._dense_built: set[int] = set()

    def record(self, name: str, start: float, end: float, parent: int = -1, attrs=None):
        self.spans.append([name, parent, start, end, attrs])

    def spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs_of = ATTRS.get(name)
        built = self._dense_built

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if attrs_of is not None:
                rec[4] = attrs_of(args, kwargs, result)
            elif name == "valuation.dense" and id(args[0]) not in built:
                built.add(id(args[0]))
                rec[4] = {"build": 1}
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target and rebind it wherever the program bound it.

        Functions imported by name (``demand`` into pmvc, vcgame, analysis
        and cli, say) are rebound in every loaded ``vcgames`` module.
        Returns the targets that could not be found.
        """
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "vcgames"]
        missing = []
        targets = [(name, t, self.spanned) for name, ts in SPANNED.items() for t in ts]
        targets += [(name, t, self.counted) for name, t in COUNTED.items()]
        for name, (module, attr), make in targets:
            owner = sys.modules.get(module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module}.{attr}")
                continue
            wrapper = make(name, original)
            setattr(owner, attr, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        return missing


# -- analysis ------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, parent, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


# Per-layer metric name -> unit, in report order.
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "serialize.load_s": "s",
    "valuation.certify_s": "s",
    "valuation.dense_s": "s",
    "valuation.dense_calls": "count",
    "market.demand_calls": "count",
    "market.subsets_scanned": "count",
    "market.demand_s": "s",
    "pmvc.pure_ne_s": "s",
    "pmvc.profiles": "count",
    "pmvc.equilibria": "count",
    "pmvc.outcome_calls": "count",
    "pmvc.table_self_s": "s",
    "analysis.report_self_s": "s",
    "serialize.render_s": "s",
    "serialize.bytes_out": "bytes",
    "vcgame.best_response_calls": "count",
    "vcgame.best_response_self_s": "s",
    "vcgame.dynamics_self_s": "s",
    "vcgame.moves": "count",
    "exactlp.calls": "count",
    "exactlp.solve_s": "s",
    "exactlp.rows_total": "count",
    "exactlp.rows_max": "count",
    "exactlp.cells": "count",
    "exactlp.rhs_bits_max": "bits",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans, counts, wall_s: float, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.

    Times ending in ``_s`` are self times, except ``exactlp.solve_s`` (the
    solver calls nothing traced) and ``cli.self_s``: the traced wall time
    minus every top-level span, the import included.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    attr_sum: dict[str, int] = {}
    attr_max: dict[str, int] = {}
    dense_build = 0.0
    top = 0.0
    for (name, parent, start, end, attrs), own in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if parent < 0:
            top += end - start
        for key, value in (attrs or {}).items():
            attr_sum[key] = attr_sum.get(key, 0) + value
            attr_max[key] = max(attr_max.get(key, 0), value)
        if name == "valuation.dense" and attrs:
            dense_build += own
    return {
        "cli.import_s": self_s.get("cli.import", 0.0),
        "cli.self_s": wall_s - top,
        "serialize.load_s": self_s.get("serialize.load", 0.0),
        "valuation.certify_s": self_s.get("valuation.certify", 0.0),
        "valuation.dense_s": dense_build,
        "valuation.dense_calls": calls.get("valuation.dense", 0),
        "market.demand_calls": calls.get("market.demand", 0),
        "market.subsets_scanned": attr_sum.get("subsets", 0),
        "market.demand_s": self_s.get("market.demand", 0.0),
        "pmvc.pure_ne_s": self_s.get("pmvc.pure_ne", 0.0),
        "pmvc.profiles": attr_sum.get("profiles", 0),
        "pmvc.equilibria": attr_sum.get("equilibria", 0),
        "pmvc.outcome_calls": counts.get("pmvc.outcome", 0),
        "pmvc.table_self_s": self_s.get("pmvc.table", 0.0),
        "analysis.report_self_s": self_s.get("analysis.report", 0.0),
        "serialize.render_s": self_s.get("serialize.render", 0.0),
        "serialize.bytes_out": bytes_out,
        "vcgame.best_response_calls": calls.get("vcgame.best_response", 0),
        "vcgame.best_response_self_s": self_s.get("vcgame.best_response", 0.0),
        "vcgame.dynamics_self_s": self_s.get("vcgame.dynamics", 0.0),
        "vcgame.moves": attr_sum.get("moves", 0),
        "exactlp.calls": calls.get("exactlp.maximize", 0),
        "exactlp.solve_s": self_s.get("exactlp.maximize", 0.0),
        "exactlp.rows_total": attr_sum.get("rows", 0),
        "exactlp.rows_max": attr_max.get("rows", 0),
        "exactlp.cells": attr_sum.get("cells", 0),
        "exactlp.rhs_bits_max": attr_max.get("rhs_bits", 0),
    }
