"""JSON and CSV encodings for instances, tables, reports, and traces.

All numbers travel as strings: exact decimals when the denominator allows,
"num/den" otherwise.  Loading accepts both forms everywhere, so files
round-trip bit-exactly.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from functools import cache
from itertools import chain
from operator import add
from typing import Any, Iterator

from .analysis import EquilibriumReport
from .items import Universe
from .market import PriceVector
from .pmvc import GameInstance, ProfileSequence, StrategyProfile
from .rationals import format_rational, parse_rational
from .valuation import (
    AdditiveGroupsValuation,
    CategoryMaxValuation,
    TableValuation,
    Valuation,
    _harmonic_curve,
)
from .vcgame import BestResponse, DynamicsTrace, VerificationResult

__all__ = [
    "SchemaError",
    "valuation_to_obj",
    "valuation_from_obj",
    "instance_to_obj",
    "instance_from_obj",
    "load_instance",
    "dump_instance",
    "prices_to_obj",
    "prices_from_obj",
    "payoff_table_csv",
    "payoff_table_obj",
    "payoff_table_text",
    "payoff_table_json",
    "equilibria_to_obj",
    "equilibria_to_text",
    "equilibria_to_json",
    "report_to_obj",
    "report_to_text",
    "report_to_json",
    "trace_to_jsonl",
    "verification_to_obj",
    "best_response_to_obj",
]


class SchemaError(ValueError):
    """Structurally invalid instance or report data."""


def _fmt(q: Fraction) -> str:
    return format_rational(q)


def _rational_texts():
    """A ``_fmt`` that formats each distinct rational once, keyed on its
    terms (a Fraction's own hash runs a modular pow)."""
    texts: dict[tuple[int, int], str] = {}

    def fmt(q: Fraction) -> str:
        key = (q.numerator, q.denominator)
        text = texts.get(key)
        if text is None:
            text = texts[key] = _fmt(q)
        return text

    return fmt


def _line_texts():
    """A function from one line's rationals to their texts that keeps only
    the texts of the line before: a rational that line held is not
    formatted again, and the cache never outgrows a line."""
    before: dict[tuple[int, int], str] = {}

    def line(qs) -> list[str]:
        nonlocal before
        now: dict[tuple[int, int], str] = {}
        texts = []
        for q in qs:
            key = (q.numerator, q.denominator)
            text = now[key] = before.get(key) or _fmt(q)
            texts.append(text)
        before = now
        return texts

    return line


def _need(data: dict, key: str, kind: type, where: str):
    if key not in data:
        raise SchemaError(f"{where}: missing required field {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def _name_lists(data: dict, key: str, where: str) -> list[list[str]]:
    """``data[key]`` as a list of item-name lists; anything else is refused."""
    lists = _need(data, key, list, where)
    if not all(isinstance(names, list) for names in lists):
        raise SchemaError(f"{where}: each entry of {key!r} must be a list of item names")
    for names in lists:
        _check_names(names, key, where)
    return lists


def _check_names(names: list, key: str, where: str) -> None:
    """Refuse a name that is not a string, rather than load ``str`` of it."""
    for name in names:
        if not isinstance(name, str):
            raise SchemaError(f"{where}: item names in {key!r} must be strings, got {name!r}")


def _masks_of(u: Universe, data: dict, key: str, where: str) -> tuple[int, ...]:
    """One mask per item-name list in ``data[key]``; no list names an item twice."""
    masks = []
    for names in _name_lists(data, key, where):
        try:
            masks.append(u.mask_of(names))
        except KeyError as e:
            raise SchemaError(f"{where}: {key} entry {names!r}: {e.args[0]}") from None
        except ValueError as e:
            raise SchemaError(f"{where}: {key} entry {names!r} {e}") from None
    return tuple(masks)


# -- valuations ------------------------------------------------------------


def valuation_to_obj(v: Valuation) -> dict[str, Any]:
    u = v.universe
    if isinstance(v, TableValuation):
        entries = {}
        for mask in range(1, 1 << u.n):
            entries[",".join(u.names_of(mask))] = _fmt(v.value_mask(mask))
        return {"type": "table", "items": list(u.names), "entries": entries}
    if isinstance(v, AdditiveGroupsValuation):
        return {
            "type": "additive_groups",
            "items": list(u.names),
            "groups": [list(u.names_of(g)) for g in v.group_masks],
            "curve": {"kind": "explicit", "values": [_fmt(q) for q in v.curve]},
        }
    if isinstance(v, CategoryMaxValuation):
        return {
            "type": "category_max",
            "items": list(u.names),
            "categories": [list(u.names_of(c)) for c in v.category_masks],
            "item_values": dict(zip(u.names, map(_fmt, v.item_values))),
        }
    raise SchemaError(f"cannot serialize valuation of type {type(v).__name__}")


def _universe_for(data: dict[str, Any]) -> Universe:
    """Item order: explicit "items" wins, else vendor order, else the
    type-specific structure, else sorted entry names."""
    if "items" in data:
        items = _need(data, "items", list, "instance")
        _check_names(items, "items", "instance")
        return Universe(tuple(items))
    if "vendors" in data:
        field, where = "vendors", "instance"
    else:
        where = _need(data, "type", str, "valuation")
        field = {"additive_groups": "groups", "category_max": "categories"}.get(where)
    if field:
        return Universe(tuple(n for names in _name_lists(data, field, where) for n in names))
    entries = _need(data, "entries", dict, where)
    names: set[str] = set()
    for key in entries:
        names.update(part for part in str(key).split(",") if part)
    return Universe(tuple(sorted(names)))


def _parse_value(text: Any, where: str) -> Fraction:
    if isinstance(text, (int, str)):
        try:
            return parse_rational(str(text))
        except ValueError as e:
            raise SchemaError(f"{where}: {e}") from None
    raise SchemaError(f"{where}: numbers must be strings, got {type(text).__name__}")


def valuation_from_obj(data: dict[str, Any], universe: Universe | None = None) -> Valuation:
    if not isinstance(data, dict):
        raise SchemaError("valuation must be a JSON object")
    u = universe or _universe_for(data)
    vtype = _need(data, "type", str, "valuation")
    if vtype == "table":
        entries = _need(data, "entries", dict, "table valuation")
        values = [Fraction(0)] * (1 << u.n)
        seen = [False] * (1 << u.n)
        for key, raw in entries.items():
            try:
                mask = u.parse_set(str(key))
            except (KeyError, ValueError) as e:
                raise SchemaError(f"table entry {key!r}: {e.args[0]}") from None
            if seen[mask]:
                raise SchemaError(f"table entry {key!r}: duplicate subset")
            seen[mask] = True
            values[mask] = _parse_value(raw, f"table entry {key!r}")
        seen[0] = True  # the empty set may be left out
        missing = [m for m in range(1 << u.n) if not seen[m]]
        if missing:
            raise SchemaError(
                f"table valuation: missing {len(missing)} subsets, "
                f"first {u.format_set(missing[0])}"
            )
        if values[0] != 0:
            raise SchemaError("table valuation: the empty set must have value 0")
        return TableValuation(u, values)
    if vtype == "additive_groups":
        masks = _masks_of(u, data, "groups", "additive_groups")
        curve_spec = _need(data, "curve", dict, "additive_groups")
        kind = _need(curve_spec, "kind", str, "curve")
        if kind == "harmonic":
            curve = _harmonic_curve(max((mask.bit_count() for mask in masks), default=0))
        elif kind == "explicit":
            raw = _need(curve_spec, "values", list, "curve")
            curve = [_parse_value(x, f"curve value {i}") for i, x in enumerate(raw)]
        else:
            raise SchemaError(f"curve kind must be harmonic or explicit, got {kind!r}")
        try:
            return AdditiveGroupsValuation(u, masks, curve)
        except ValueError as e:
            raise SchemaError(f"additive_groups: {e}") from None
    if vtype == "category_max":
        masks = _masks_of(u, data, "categories", "category_max")
        raw_vals = _need(data, "item_values", dict, "category_max")
        unknown = sorted(set(raw_vals) - set(u.names))
        if unknown:
            raise SchemaError(f"category_max: value for unknown item {unknown[0]!r}")
        values = []
        for name in u.names:
            if name not in raw_vals:
                raise SchemaError(f"category_max: no value for item {name!r}")
            values.append(_parse_value(raw_vals[name], f"value of {name!r}"))
        try:
            return CategoryMaxValuation(u, masks, tuple(values))
        except ValueError as e:
            raise SchemaError(f"category_max: {e}") from None
    raise SchemaError(f"unknown valuation type {vtype!r}")


# -- instances -------------------------------------------------------------


def instance_to_obj(g: GameInstance) -> dict[str, Any]:
    obj = valuation_to_obj(g.valuation)
    obj["vendors"] = [list(g.universe.names_of(mask)) for mask in g.vendor_masks]
    return obj


def instance_from_obj(data: dict[str, Any]) -> GameInstance:
    """Build an instance from its JSON object.

    Without a "vendors" field a single vendor owns everything (enough for
    validation-only workflows).  Uncertified valuations load, so the
    checkers can report on them.  The price-game entry points of
    ``vcgame`` (``bestresp``, ``verify`` and ``brd``) and ``cdsp`` refuse
    them through ``GameInstance.require_certified``; the offer game
    (``table``, ``ne``, ``poa``) answers on them by the demand route.
    """
    if not isinstance(data, dict):
        raise SchemaError("instance must be a JSON object")
    u = _universe_for(data)
    v = valuation_from_obj(data, u)
    masks = _masks_of(u, data, "vendors", "instance") if "vendors" in data else (u.full_mask,)
    try:
        return GameInstance(v, masks, allow_uncertified=True)
    except ValueError as e:
        raise SchemaError(str(e)) from None


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's pairs as a dict, refusing a repeated key."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise SchemaError(f"key {key!r} repeated in one JSON object")
        out[key] = value
    return out


def load_instance(path: str) -> GameInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    return instance_from_obj(data)


def dump_instance(g: GameInstance) -> str:
    return json.dumps(instance_to_obj(g), indent=2, sort_keys=True)


# -- prices ----------------------------------------------------------------


def prices_to_obj(p: PriceVector) -> dict[str, str]:
    return dict(zip(p.universe.names, map(_fmt, p.prices)))


def prices_from_obj(u: Universe, data: dict[str, Any], default: Fraction) -> PriceVector:
    """Prices keyed by item name; unnamed items get the default."""
    prices = [default] * u.n
    for name, raw in data.items():
        try:
            idx = u.index(str(name))
        except KeyError:
            raise SchemaError(f"price for unknown item {name!r}") from None
        prices[idx] = _parse_value(raw, f"price of {name!r}")
    return PriceVector(u, tuple(prices))


# -- JSON listings ---------------------------------------------------------


def _json_text(text: str) -> str:
    """``text`` as ``json.dumps`` writes it between its quotes.  JSON
    escapes one character at a time, so the escape of a concatenation is
    the concatenation of the escapes."""
    return json.dumps(text)[1:-1]


def _json_listing(obj: dict[str, Any], key: str, elements: Iterator[str]) -> Iterator[str]:
    """``json.dumps(obj, indent=2)`` with the list ``elements`` in place of
    the empty list ``obj[key]``, as pieces that join to exactly that text:
    the text of ``obj`` split at ``"key": []``, then ``elements`` as they
    are read.  ``key`` is a top-level key, and ``elements`` yields runs of
    the list's entries as ``json.dumps`` indents them two levels deep,
    each led by ",\\n    "; the first run's comma is dropped.  A string
    in the text has its quotes escaped, so only the key matches."""
    before, marker, after = json.dumps(obj, indent=2).partition(f'"{key}": []')
    first = next(elements, None)
    if first is None:
        yield before + marker + after
        return
    yield before + f'"{key}": ['
    yield first[1:]
    yield from elements
    yield "\n  ]" + after


# -- payoff tables ---------------------------------------------------------


def _table_rows(g: GameInstance, outcomes, encode=str) -> Iterator[tuple[str, list[str]]]:
    """Each outcome's profile text and payoff texts, as the outcomes are
    read.  Each vendor offer and each distinct payoff is formatted once.
    An offer's text is ``encode`` of it; a rational's text, digits and
    "-./", needs no escape."""
    u = g.universe
    offer = cache(lambda mask: encode(u.format_set(mask)))
    fmt = _rational_texts()
    for o in outcomes:
        yield "|".join(map(offer, o.profile.offers)), list(map(fmt, o.vendor_payoffs))


def payoff_table_text(g: GameInstance, outcomes) -> str:
    return "\n".join(f"{key}\t{'  '.join(payoffs)}" for key, payoffs in _table_rows(g, outcomes))


def payoff_table_csv(g: GameInstance, outcomes) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["profile"] + [f"vendor_{i}" for i in range(g.n_vendors)])
    for key, payoffs in _table_rows(g, outcomes):
        writer.writerow([key] + payoffs)
    return out.getvalue()


def payoff_table_obj(g: GameInstance, outcomes) -> dict[str, Any]:
    return {
        "vendors": g.n_vendors,
        "rows": [
            {"profile": key, "payoffs": payoffs}
            for key, payoffs in _table_rows(g, outcomes)
        ],
    }


def payoff_table_json(g: GameInstance, outcomes) -> Iterator[str]:
    """``json.dumps(payoff_table_obj(g, outcomes), indent=2)`` as pieces, a
    row at a time as the outcomes are read."""
    rows = (
        f',\n    {{\n      "profile": "{key}",\n      "payoffs": [\n        "'
        + '",\n        "'.join(payoffs)
        + '"\n      ]\n    }'
        for key, payoffs in _table_rows(g, outcomes, _json_text)
    )
    return _json_listing({"vendors": g.n_vendors, "rows": []}, "rows", rows)


# -- reports ---------------------------------------------------------------


def _equilibrium_blocks(g: GameInstance, nes: ProfileSequence, line=None,
                        encode=str) -> Iterator:
    """Each block of ``nes`` as its prefix's text (the offer of each head
    vendor, ``nes.heads``, followed by "|") and a list with one entry per
    equilibrium in it: the run vendors' offers' texts joined by "|", or
    with ``line``, ``line(offers text, welfare text)``.  An offer's text
    is ``encode`` of it.

    Each vendor's offer and each distinct welfare is formatted once.  A
    block's run is formatted once per context c = p & tail of its prefix
    p, and its list once per context and base welfare v(p & ~tail),
    summed over the valuation's part tables
    (``ProfileSequence.value_blocks``): v adds up across ``tail``, and
    v(empty) = 0, so v(p + o) = v(p & ~tail) + v(c + o).  The lists kept
    for reuse hold at most about 65,536 texts, so a game whose contexts
    never repeat (one part, say) is still streamed.
    """
    u = g.universe

    def texts_of(owned: int, form: str) -> dict[int, str]:
        return {offer: form.format(encode(u.format_set(offer))) for offer in g.offers_in(owned)}

    head_masks = g.vendor_masks[:nes.heads]
    head_texts = [texts_of(owned, "{}|") for owned in head_masks]
    first, *later = g.vendor_masks[nes.heads:]
    first_texts = texts_of(first, "{}")
    later_texts = [texts_of(owned, "|{}") for owned in later]
    tail = nes.tail
    if line is None:
        blocks = ((prefix, block, 0, None) for prefix, block in nes.blocks)
    else:
        values = g.valuation.part_tables()
        blocks = nes.value_blocks()
        value = cache(lambda w: _fmt(Fraction(w, values.scale)))
    runs: dict[int, list[str]] = {}
    built: dict[tuple[int, int], list] = {}
    held = 0
    for prefix, block, base, rest in blocks:
        context = prefix & tail
        texts = built.get((context, base))
        if texts is None:
            if held > 1 << 16:
                runs.clear()
                built.clear()
                held = 0
            texts = runs.get(context)
            if texts is None:
                joined = map(first_texts.__getitem__, map(first.__and__, block))
                for owned, led in zip(later, later_texts):
                    joined = map(add, joined, map(led.__getitem__, map(owned.__and__, block)))
                texts = runs[context] = list(joined)
                held += len(block)
            if line is not None:
                texts = list(map(line, texts, map(value, map(base.__add__, rest))))
                held += len(block)
            built[context, base] = texts
        yield "".join(map(dict.__getitem__, head_texts, map(prefix.__and__, head_masks))), texts


def _equilibrium_lines(g: GameInstance, nes: ProfileSequence, lead: str, line=None,
                       encode=str, close: str = "") -> Iterator[str]:
    """One line per equilibrium, ``lead``, the profile's text, what
    ``line`` adds (``_equilibrium_blocks``) and ``close``, in pieces of up to
    4,096 lines.  A piece packs consecutive blocks, each joined with one
    ``str.join`` and put in the piece as the head, that text and the close,
    so it is copied once more only when the piece is joined; a block longer
    than a piece is split.  Neither the whole text nor all the lines are
    held."""
    piece: list[str] = []
    size = 0
    for prefix, texts in _equilibrium_blocks(g, nes, line, encode):
        head = lead + prefix
        glue = close + head
        for i in range(0, len(texts), 4096):
            run = texts[i:i + 4096]
            if size + len(run) > 4096:
                yield "".join(piece)
                piece, size = [], 0
            piece += (head, glue.join(run), close)
            size += len(run)
    if piece:
        yield "".join(piece)


def equilibria_to_obj(g: GameInstance, nes: ProfileSequence) -> dict[str, Any]:
    return {
        "count": len(nes),
        "equilibria": [
            prefix + offer for prefix, texts in _equilibrium_blocks(g, nes) for offer in texts
        ],
    }


def equilibria_to_text(g: GameInstance, nes: ProfileSequence) -> Iterator[str]:
    """The ``ne`` text listing as an iterator of pieces, rendered as they are
    read: the count line, then the equilibria a piece at a time, each line
    led by its newline.  ``"".join`` of the pieces gives the text, without
    a final newline."""
    return chain([f"{len(nes)} pure Nash equilibria"], _equilibrium_lines(g, nes, "\n  "))


def equilibria_to_json(g: GameInstance, nes: ProfileSequence) -> Iterator[str]:
    """``json.dumps(equilibria_to_obj(g, nes), indent=2)`` as pieces,
    rendered as they are read."""
    lines = _equilibrium_lines(g, nes, ',\n    "', encode=_json_text, close='"')
    return _json_listing({"count": len(nes), "equilibria": []}, "equilibria", lines)


def _report_fields(report: EquilibriumReport) -> dict[str, Any]:
    """The ``poa`` report's JSON object with an empty list of equilibria."""
    return {
        "equilibria": [],
        "optimal_welfare": _fmt(report.optimal_welfare),
        "poa": None if report.poa is None else _fmt(report.poa),
        "pos": None if report.pos is None else _fmt(report.pos),
        "welfare_ratio_bound": _fmt(report.welfare_ratio_bound),
        "bound_satisfied": report.bound_satisfied,
    }


def report_to_obj(g: GameInstance, report: EquilibriumReport) -> dict[str, Any]:
    obj = _report_fields(report)
    obj["equilibria"] = [
        {"profile": prefix + offer, "welfare": w}
        for prefix, pairs in _equilibrium_blocks(g, report.profiles, lambda o, w: (o, w))
        for offer, w in pairs
    ]
    return obj


def report_to_json(g: GameInstance, report: EquilibriumReport) -> Iterator[str]:
    """``json.dumps(report_to_obj(g, report), indent=2)`` as pieces,
    rendered as they are read."""
    lines = _equilibrium_lines(
        g, report.profiles, ',\n    {\n      "profile": "',
        '{}",\n      "welfare": "{}"\n    }}'.format, _json_text,
    )
    return _json_listing(_report_fields(report), "equilibria", lines)


def report_to_text(g: GameInstance, report: EquilibriumReport) -> Iterator[str]:
    """The ``poa`` text listing as an iterator of pieces, rendered as they
    are read: the count line, the equilibria with their welfare a piece at
    a time, then the optimum and the PoA/PoS lines, each led by its
    newline.  ``"".join`` of the pieces gives the text, without a final
    newline."""
    m = g.max_vendor_size
    tail = [f"optimal welfare = {_fmt(report.optimal_welfare)}"]
    if report.poa is None:
        tail.append("PoA undefined (no pure NE)")
        tail.append("PoS undefined (no pure NE)")
    else:
        verdict = "satisfied" if report.bound_satisfied else "VIOLATED"
        tail.append(
            f"PoA = {_fmt(report.poa)}, bound H_{m}+1 = "
            f"{_fmt(report.welfare_ratio_bound)}, {verdict}"
        )
        tail.append(f"PoS = {_fmt(report.pos)}")
    head = f"{len(report.profiles)} pure Nash equilibria"
    lines = _equilibrium_lines(g, report.profiles, "\n  ", "{}  welfare {}".format)
    return chain([head], lines, ["\n" + text for text in tail])


def trace_to_jsonl(g: GameInstance, trace: DynamicsTrace) -> Iterator[str]:
    """The ``brd`` trace as JSON lines, an iterator of pieces rendered as
    they are read: the head line (mode and start), then each step's line
    led by its newline, then a newline and the trailer (status, period,
    moves).  ``"".join`` of the pieces gives the text, without a final
    newline.

    A move leaves most prices and payoffs the same rationals as the step
    before, so prices and payoffs are each formatted through a cache that
    holds only the texts of the line before (``_line_texts``)."""
    names = g.universe.names
    price_texts, payoff_texts = _line_texts(), _line_texts()

    def priced(p: PriceVector) -> dict[str, str]:
        return dict(zip(names, price_texts(p.prices)))

    if isinstance(trace.start, StrategyProfile):
        start: Any = trace.start.format(g.universe)
    else:
        start = priced(trace.start)
    yield json.dumps({"mode": trace.mode, "start": start})
    for i, step in enumerate(trace.steps):
        yield "\n" + json.dumps(
            {
                "step": i,
                "vendor": step.vendor,
                "profile": None if step.profile is None else step.profile.format(g.universe),
                "prices": None if step.prices is None else priced(step.prices),
                "payoffs": payoff_texts(step.payoffs),
            }
        )
    yield "\n" + json.dumps(
        {"status": trace.status, "period": trace.period, "moves": len(trace.steps)}
    )


def _priced_items(g: GameInstance, prices: dict[int, Fraction]) -> dict[str, str]:
    return {g.universe.names[item]: _fmt(q) for item, q in sorted(prices.items())}


def best_response_to_obj(g: GameInstance, br: BestResponse) -> dict[str, Any]:
    return {
        "vendor": br.vendor,
        "method": br.method,
        "prices": _priced_items(g, br.prices),
        "revenue": _fmt(br.revenue),
        "realized_revenue": _fmt(br.realized_revenue),
        "target": g.universe.format_set(br.target_mask),
    }


def verification_to_obj(g: GameInstance, res: VerificationResult) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "status": res.status,
        "method": res.method,
        "vendors": [
            {
                "vendor": c.vendor,
                "current_revenue": _fmt(c.current_revenue),
                "best_revenue": _fmt(c.best_revenue),
            }
            for c in res.checks
        ],
    }
    if res.certificate is not None:
        cert = res.certificate
        obj["deviation"] = {
            "vendor": cert.vendor,
            "prices": _priced_items(g, cert.prices),
            "old_revenue": _fmt(cert.old_revenue),
            "new_revenue": _fmt(cert.new_revenue),
            "undercut": None if cert.undercut is None else _fmt(cert.undercut),
        }
    return obj
