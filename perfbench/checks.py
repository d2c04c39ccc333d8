"""Output checks, derived from the generated values and from closed forms.

Nothing here imports the program.  Every check returns ``None`` when the
output is right and a one-line reason when it is not; a reason makes the
operation count as failed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from itertools import product

from gen import Instance, cents_text

MAX_STEPS = 1000  # the CLI's default move cap for ``brd``

# Results the program gave at the seed commit for the first instances of the
# default seed (0); checked on top of the independent checks below.
BESTRESP_REFERENCE = {(0, 0): "1222.6", (0, 1): "1295.87", (0, 2): "1347.66"}
BRD_REFERENCE = {(0, i): ("cap", MAX_STEPS) for i in range(16)}


def format_q(q: Fraction) -> str:
    """Exact text of a rational: a finite decimal when one exists, else n/d."""
    if q.denominator == 1:
        return str(q.numerator)
    rest, twos, fives = q.denominator, 0, 0
    while rest % 2 == 0:
        rest, twos = rest // 2, twos + 1
    while rest % 5 == 0:
        rest, fives = rest // 5, fives + 1
    if rest != 1:
        return f"{q.numerator}/{q.denominator}"
    digits = max(twos, fives)
    whole, frac = divmod(abs(q.numerator) * 10**digits // q.denominator, 10**digits)
    sign = "-" if q < 0 else ""
    return f"{sign}{whole}.{frac:0{digits}d}".rstrip("0")


def set_text(names: list[str]) -> str:
    return "{" + ",".join(names) + "}"


# -- poa-harmonic ------------------------------------------------------------


def harmonic(m: int) -> Fraction:
    return sum((Fraction(1, t) for t in range(1, m + 1)), Fraction(0))


def poa_expected(k: int, m: int) -> tuple[int, str, str]:
    """Equilibrium count, sha256 of the full text output, and its summary.

    In ``harmonic:k,m`` every nonempty offer earns its vendor exactly 1 and
    the empty offer earns 0, so the equilibria are the profiles where every
    vendor offers something, listed vendor 0 outermost with each vendor's
    subsets in ascending local bitmask order.  A profile's welfare is the sum
    of H_|offer| over vendors.
    """
    offers = []  # per vendor: (text, size) of each nonempty local subset
    for v in range(k):
        names = [f"{chr(ord('a') + v)}{j + 1}" for j in range(m)]
        offers.append([
            (set_text([names[j] for j in range(m) if lm >> j & 1]), lm.bit_count())
            for lm in range(1, 1 << m)
        ])
    h = [harmonic(t) for t in range(m + 1)]
    count = (2**m - 1) ** k
    digest = hashlib.sha256(f"{count} pure Nash equilibria\n".encode())
    welfare_text: dict[tuple[int, ...], str] = {}
    *outer, last = offers
    for prefix in product(*outer):
        head = "  " + "|".join(text for text, _ in prefix) + "|"
        sizes = tuple(size for _, size in prefix)
        lines = []
        for text, size in last:
            key = sizes + (size,)
            w = welfare_text.get(key)
            if w is None:
                w = welfare_text[key] = format_q(sum((h[s] for s in key), Fraction(0)))
            lines.append(f"{head}{text}  welfare {w}\n")
        digest.update("".join(lines).encode())
    optimal = k * h[m]
    poa = optimal / k  # the worst equilibrium sells one item per vendor
    summary = (
        f"optimal welfare = {format_q(optimal)}\n"
        f"PoA = {format_q(poa)}, bound H_{m}+1 = {format_q(h[m] + 1)}, satisfied\n"
        f"PoS = 1\n"
    )
    digest.update(summary.encode())
    return count, digest.hexdigest(), summary


_POA_CACHE: dict[tuple[int, int], tuple[int, str, str]] = {}


def check_poa(path: str, k: int = 4, m: int = 5) -> str | None:
    if (k, m) not in _POA_CACHE:
        _POA_CACHE[k, m] = poa_expected(k, m)
    count, digest, summary = _POA_CACHE[k, m]
    h = hashlib.sha256()
    tail = b""
    with open(path, "rb") as fh:
        first = fh.readline()
        h.update(first)
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
            tail = (tail + chunk)[-4096:]
    if first.decode() != f"{count} pure Nash equilibria\n":
        return f"equilibrium count line {first[:60]!r}, expected {count}"
    if not tail.decode().endswith(summary):
        return f"summary differs from closed forms: {tail[-200:]!r}"
    if h.hexdigest() != digest:
        return "equilibrium list differs from the closed-form list"
    return None


# -- table-demand -------------------------------------------------------------


def check_table(inst: Instance, text: str) -> str | None:
    """Each vendor earns the sum of its offered items' marginals in the
    jointly offered set; rows come vendor 0 outermost, local masks ascending."""
    rows = list(csv.reader(io.StringIO(text)))
    k = len(inst.vendors)
    if rows[0] != ["profile"] + [f"vendor_{i}" for i in range(k)]:
        return f"header {rows[0]!r}"
    if len(rows) != 1 + (1 << inst.n):
        return f"{len(rows) - 1} rows, expected {1 << inst.n}"
    v = inst.values
    local = [
        [lm << (mask & -mask).bit_length() - 1 for lm in range(1 << mask.bit_count())]
        for mask in inst.vendors
    ]
    for row, offers in zip(rows[1:], product(*local)):
        union = 0
        for o in offers:
            union |= o
        expected = ["|".join(set_text(inst.names_of(o)) for o in offers)]
        for o in offers:
            pay = sum(v[union] - v[union ^ (1 << i)] for i in range(inst.n) if o >> i & 1)
            expected.append(cents_text(pay))
        if row != expected:
            return f"row {row!r}, expected {expected!r}"
    return None


# -- demand replay --------------------------------------------------------------


def block_sums(ints: list[int], sizes) -> list[int]:
    """Subset sums of ``ints`` for every mask, items in contiguous blocks."""
    sums = [0]
    start = 0
    for size in sizes:
        block = [0] * (1 << size)
        for lm in range(1, 1 << size):
            low = lm & -lm
            block[lm] = block[lm ^ low] + ints[start + low.bit_length() - 1]
        sums = [b + a for b in block for a in sums]
        start += size
    return sums


def demand(inst: Instance, prices: list[Fraction]) -> int:
    """The buyer's bundle: the union of utility maximizers when it is one,
    else the maximizer with the largest bitmask."""
    scale = math.lcm(100, *(q.denominator for q in prices))
    per_cent = scale // 100
    paid = block_sums([q.numerator * (scale // q.denominator) for q in prices], inst.sizes)
    utils = [v * per_cent - p for v, p in zip(inst.values, paid)]
    best = max(utils)
    maximizers = [m for m, u in enumerate(utils) if u == best]
    union = 0
    for m in maximizers:
        union |= m
    return union if utils[union] == best else maximizers[-1]


def revenues(inst: Instance, prices: list[Fraction]) -> list[Fraction]:
    sold = demand(inst, prices)
    return [
        sum((prices[i] for i in range(inst.n) if (sold & owned) >> i & 1), Fraction(0))
        for owned in inst.vendors
    ]


def sentinel(inst: Instance) -> Fraction:
    return Fraction(inst.values[-1], 100) + 1


# -- bestresp-large -------------------------------------------------------------


def bestresp_supremum(inst: Instance) -> Fraction:
    """Vendor 0's best revenue when every competitor item is withheld.

    The buyer then chooses among vendor 0's items only.  Selling target B
    needs x(W) <= v(B) - v(B - W) for every W in B; for submodular v the
    right side is supermodular in W, so the singleton rows bind and the best
    revenue for B is the sum of its items' marginals in B.
    """
    v = inst.values
    own = inst.vendors[0]
    best = 0
    for b in range(1, own + 1):
        if b & ~own:
            continue
        best = max(best, sum(v[b] - v[b ^ (1 << i)] for i in range(inst.n) if b >> i & 1))
    return Fraction(best, 100)


def check_bestresp(inst: Instance, text: str) -> str | None:
    obj = json.loads(text)
    own = inst.names_of(inst.vendors[0])
    if obj.get("vendor") != 0 or obj.get("method") != "target-set-exact":
        return f"vendor/method {obj.get('vendor')!r}/{obj.get('method')!r}"
    if sorted(obj["prices"]) != own:
        return f"priced items {sorted(obj['prices'])}, expected {own}"
    revenue = Fraction(obj["revenue"])
    expected = bestresp_supremum(inst)
    if revenue != expected:
        return f"supremum {revenue}, expected {expected}"
    ref = BESTRESP_REFERENCE.get((inst.seed, inst.index))
    if ref is not None and obj["revenue"] != ref:
        return f"supremum {obj['revenue']}, reference {ref}"
    target = obj["target"].strip("{}")
    target_names = target.split(",") if target else []
    own_prices = {name: Fraction(q) for name, q in obj["prices"].items()}
    if sum((own_prices[name] for name in target_names), Fraction(0)) != revenue:
        return "target prices do not add up to the supremum"
    prices = [own_prices.get(name, sentinel(inst)) for name in inst.names]
    realized = revenues(inst, prices)[0]
    if Fraction(obj["realized_revenue"]) != realized:
        return f"realized {obj['realized_revenue']}, replay gives {realized}"
    if realized > revenue:
        return "realized revenue above the supremum"
    return None


# -- brd-continuous -------------------------------------------------------------


def check_brd(inst: Instance, text: str) -> str | None:
    """Replay the trace through the demand scan, step by step."""
    lines = [json.loads(line) for line in text.splitlines()]
    head, steps, tail = lines[0], lines[1:-1], lines[-1]
    v = inst.values
    full = len(v) - 1
    start = [Fraction(v[full] - v[full ^ (1 << i)], 100) for i in range(inst.n)]
    if head != {"mode": "continuous", "start": dict(zip(inst.names, map(format_q, start)))}:
        return "start is not the all-offered marginal pricing"
    states = [start]
    pays = revenues(inst, start)
    for i, step in enumerate(steps):
        vendor = step["vendor"]
        prices = [Fraction(step["prices"][name]) for name in inst.names]
        moved = [j for j in range(inst.n) if prices[j] != states[-1][j]]
        if step["step"] != i or any(not inst.vendors[vendor] >> j & 1 for j in moved):
            return f"step {i}: prices moved outside vendor {vendor}"
        new_pays = revenues(inst, prices)
        if [format_q(q) for q in new_pays] != step["payoffs"]:
            return f"step {i}: payoffs {step['payoffs']}, replay gives {new_pays}"
        if new_pays[vendor] <= pays[vendor]:
            return f"step {i}: vendor {vendor} did not gain"
        states.append(prices)
        pays = new_pays
    moves, status, period = tail["moves"], tail["status"], tail["period"]
    if moves != len(steps):
        return f"{moves} moves reported, {len(steps)} listed"
    if status == "cap" and moves != MAX_STEPS:
        return f"cap after {moves} moves"
    if status == "cycle" and not (
        0 < period <= moves and states[moves] == states[moves - period]
    ):
        return f"cycle of period {period} does not repeat a state"
    if status not in ("cap", "cycle", "converged"):
        return f"status {status!r}"
    ref = BRD_REFERENCE.get((inst.seed, inst.index))
    if ref is not None and (status, moves) != ref:
        return f"{status} after {moves} moves, reference {ref}"
    return None
