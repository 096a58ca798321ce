"""Seeded benchmark inputs whose expected answers are known by construction.

Nothing here asks the library for a label.  Accepted inputs are degree
sequences of real graphs with a planted bowtie (or members of the closed
family shapes the realizer builds directly); rejected inputs come from the
rule formulas, with the failure reason and the cond-4 ``(k, i)`` they were
built from.  Graphicality, where a construction does not already prove it,
is certified by the Erdos-Gallai check below.

Input sizes and strata are drawn from a two-dimensional low-discrepancy
(R2) sequence with a seeded offset, so every block of consecutive inputs
holds nearly the same mix of sizes and strata whatever the seed.  That
keeps per-run aggregates steady across seeds while the sequences
themselves change.

Run as a script, it writes one workload's pool as JSON lines
``[text, label, stratum]``, so a benchmark run can build its pool in a
separate process and keep only the text:

    python3 bench/gen.py decide 1 512
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from itertools import accumulate

# Expected report as (potentially, failure value, cond4 k, cond4 i).
Label = tuple[bool, str | None, int | None, int | None]
ACCEPTED: Label = (True, None, None, None)

_PLASTIC = 1.32471795724474602596
_STEP = (1 / _PLASTIC, 1 / _PLASTIC**2)


@dataclass(frozen=True)
class Case:
    """One generated input: the text handed to the library, plus its truth."""

    text: str
    label: Label
    stratum: str

    @property
    def degrees(self) -> tuple[int, ...]:
        """The nonincreasing degrees that ``text`` spells out."""
        return tuple(expand_run_length(self.text))


def run_length_text(degrees: list[int] | tuple[int, ...]) -> str:
    """Run-length text for a nonincreasing degree list, e.g. ``4,3^2,2``."""
    parts: list[str] = []
    i = 0
    while i < len(degrees):
        j = i
        while j < len(degrees) and degrees[j] == degrees[i]:
            j += 1
        parts.append(str(degrees[i]) if j - i == 1 else f"{degrees[i]}^{j - i}")
        i = j
    return ",".join(parts)


def expand_run_length(text: str) -> list[int]:
    """Inverse of ``run_length_text``."""
    degrees: list[int] = []
    for part in text.split(","):
        value, _, count = part.partition("^")
        degrees += [int(value)] * int(count or 1)
    return degrees


def erdos_gallai(degrees: list[int] | tuple[int, ...]) -> bool:
    """Whether a nonincreasing list of positive degrees is graphic.

    Erdos-Gallai in O(n): for each k the tail sum of min(d_i, k) splits at
    the last index whose degree is still >= k, tracked by one pointer.
    """
    n = len(degrees)
    if sum(degrees) % 2:
        return False
    suffix = [0] * (n + 1)
    for idx in range(n - 1, -1, -1):
        suffix[idx] = suffix[idx + 1] + degrees[idx]
    at_least_k = n
    lhs = 0
    for k in range(1, n + 1):
        lhs += degrees[k - 1]
        while at_least_k > 0 and degrees[at_least_k - 1] < k:
            at_least_k -= 1
        rhs = k * (k - 1) + k * max(0, at_least_k - k) + suffix[max(at_least_k, k)]
        if lhs > rhs:
            return False
    return True


def _points(rng: random.Random, count: int) -> list[tuple[float, float]]:
    o1, o2 = rng.random(), rng.random()
    return [((o1 + j * _STEP[0]) % 1.0, (o2 + j * _STEP[1]) % 1.0) for j in range(count)]


def _log_uniform(u: float, lo: int, hi: int) -> int:
    return min(hi, max(lo, round(lo * (hi / lo) ** u)))


def _pick(v: float, weights: list[tuple[str, float]]) -> str:
    total = 0.0
    for name, w in weights:
        total += w
        if v < total:
            return name
    return weights[-1][0]


def _degrees_of(n: int, edges: set[tuple[int, int]]) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _cover_isolated(rng: random.Random, deg: list[int], edges: set, cap: int) -> None:
    """Join every isolated vertex to a random vertex of degree < cap."""
    n = len(deg)
    for v in range(n):
        if deg[v]:
            continue
        u = v
        while u == v or deg[u] >= cap:
            u = rng.randrange(n)
        edges.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1


def planted_bowtie(rng: random.Random, n: int) -> list[int]:
    """Degrees of a random graph on n >= 5 vertices with a planted bowtie.

    Endpoints are drawn with Pareto weights, so degrees spread widely and
    the run-length text has many runs.  The planted bowtie makes the
    sequence accepted by construction.
    """
    avg = min(rng.uniform(3.0, 8.0), (n - 1) / 2)
    weights = list(accumulate(rng.paretovariate(2.0) for _ in range(n)))
    c, a, b, d, e = rng.sample(range(n), 5)
    edges = {(min(x, y), max(x, y)) for x, y in ((c, a), (c, b), (c, d), (c, e), (a, b), (d, e))}
    target = max(6, round(n * avg / 2))
    vertices = range(n)
    while len(edges) < target:
        ends = rng.choices(vertices, cum_weights=weights, k=2 * (target - len(edges)))
        for u, v in zip(ends[::2], ends[1::2]):
            if u != v:
                edges.add((min(u, v), max(u, v)))
    deg = _degrees_of(n, edges)
    _cover_isolated(rng, deg, edges, cap=n)
    return sorted(deg, reverse=True)


def _max_degree_three(rng: random.Random, n: int) -> list[int]:
    """Degrees of a random graph with maximum degree 3 (fails rule 1)."""
    deg = [0] * n
    edges: set[tuple[int, int]] = set()
    target = round(n * rng.uniform(1.0, 1.4))
    for _ in range(4 * target):
        if len(edges) >= target:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and deg[u] < 3 and deg[v] < 3 and key not in edges:
            edges.add(key)
            deg[u] += 1
            deg[v] += 1
    _cover_isolated(rng, deg, edges, cap=3)
    return sorted(deg, reverse=True)


def _four_hubs(rng: random.Random, n: int) -> list[int]:
    """Degrees of a graph with four hubs and n - 4 leaves (fails rule 2).

    Leaves hang off the hubs or pair up with each other, so at most four
    vertices have degree >= 2, while the hubs reach degree >= 4.
    """
    deg = [0] * n
    hubs = range(4)
    for x in hubs:
        for y in range(x + 1, 4):
            if rng.random() < 0.5:
                deg[x] += 1
                deg[y] += 1
    leaves = n - 4
    pairs = rng.randrange((leaves // 4) + 1)
    hanging = leaves - 2 * pairs
    for j in range(hanging):
        deg[j % 4 if j < 4 else rng.randrange(4)] += 1
    for leaf in range(4, n):
        deg[leaf] = 1
    return sorted(deg, reverse=True)


def _not_graphic(rng: random.Random, n: int) -> list[int]:
    """An even-sum sequence with all terms < n that Erdos-Gallai refutes.

    h hubs of degree d over a tail of ones and twos fail the inequality at
    k = h once h*d exceeds h*(h-1) plus the tail sum.
    """
    while True:
        h = rng.randint(2, max(2, min(30, n // 4)))
        twos = rng.randrange(n // 2)
        ones = n - h - twos
        if ones < 1:
            continue
        d = min(n - 1, h + (ones + 2 * twos) // h + rng.randrange(3))
        if (h * d + ones + 2 * twos) % 2:
            ones, twos = ones - 1, twos + 1
        degrees = sorted([d] * h + [2] * twos + [1] * ones, reverse=True)
        if not erdos_gallai(degrees):
            return degrees


def _rule_shape(degrees: list[int], label: Label) -> tuple[list[int], Label]:
    """Keep a rule shape's label only if the shape is graphic."""
    if not erdos_gallai(degrees):
        return degrees, (False, "not_graphic", None, None)
    return degrees, label


DECIDE_N = (100, 3000)
DECIDE_STRATA = [
    ("planted", 0.50),
    ("cond4", 0.15),
    ("cond3", 0.05),
    ("cond1", 0.10),
    ("cond2", 0.10),
    ("not_graphic", 0.10),
]


def decide_cases(seed: int, count: int) -> list[Case]:
    """Inputs for ``decide``: half accepted, half rejected with known reason."""
    rng = random.Random(f"decide/{seed}")
    cases = []
    for u, v in _points(rng, count):
        n = _log_uniform(u, *DECIDE_N)
        stratum = _pick(v, DECIDE_STRATA)
        if stratum == "planted":
            degrees, label = planted_bowtie(rng, n), ACCEPTED
        elif stratum == "cond1":
            degrees, label = _max_degree_three(rng, n), (False, "cond1", None, None)
        elif stratum == "cond2":
            degrees, label = _four_hubs(rng, n), (False, "cond2", None, None)
        elif stratum == "cond3":
            degrees, label = _rule_shape([n - 2, n - 2] + [2] * (n - 2), (False, "cond3", None, None))
        elif stratum == "cond4":
            k = rng.randint(1, (n - 1) // 2 - 1)
            i = rng.randint(3, n - 2 * k)
            degrees = [n - k, k + i] + [2] * i + [1] * (n - i - 2)
            degrees, label = _rule_shape(degrees, (False, "cond4", k, i))
        else:
            degrees, label = _not_graphic(rng, n), (False, "not_graphic", None, None)
        cases.append(Case(run_length_text(degrees), label, stratum))
    return cases


def _family(rng: random.Random, name: str, n: int) -> list[int]:
    """A member of one of the eleven closed family shapes, n >= 11.

    Shapes and parameter ranges are the realizer's family table, rewritten
    from its documented formulas; n is nudged by one where a shape needs
    a parity.
    """
    odd = n if n % 2 else n + 1
    even = n if n % 2 == 0 else n + 1
    if name == "F1_433":
        return [4, 4, 4] + [3] * (odd - 3)
    if name == "F2_43":
        return [4, 4] + [3] * (even - 2)
    if name == "F3_4":
        return [4] + [3] * (odd - 1)
    if name == "F4_432":
        a = 2 * rng.randint(1, (n - 3) // 2)
        return [4, 4] + [3] * a + [2] * (n - 2 - a)
    if name == "F7_432":
        a = 2 * rng.randint(1, (n - 2) // 2)
        return [4] + [3] * a + [2] * (n - 1 - a)
    if name == "F11_4321":
        while True:
            a = rng.randint(1, n - 3)
            b = rng.randint(1, n - 2 - a)
            c = n - 1 - a - b
            if a + b >= 4 and c >= 1 and (a + c) % 2 == 0:
                return [4] + [3] * a + [2] * b + [1] * c
    if name == "F18_431":
        a = rng.randint(4, n - 2)
        c = n - 1 - a
        if (a + c) % 2:
            c += 1
        return [4] + [3] * a + [1] * c
    if name == "C3_TAIL":
        return [n - 2, n - 3] + [2] * (n - 3) + [1]
    if name == "SQ_42":
        return [4, 4] + [2] * (n - 2)
    if name == "S_42":
        return [4] + [2] * (n - 1)
    if name == "S_4221":
        c = 2 * rng.randint(1, (n - 5) // 2)
        return [4] + [2] * (n - 1 - c) + [1] * c
    raise ValueError(f"unknown family {name}")


FAMILIES = (
    "F1_433", "F2_43", "F3_4", "F4_432", "F7_432", "F11_4321",
    "F18_431", "C3_TAIL", "SQ_42", "S_42", "S_4221",
)
REALIZE_N = (11, 200)
REALIZE_STRATA = [("planted", 0.80), ("family", 0.20)]


def realize_cases(seed: int, count: int) -> list[Case]:
    """Accepted inputs for ``realize``: planted-bowtie graphs and family members."""
    rng = random.Random(f"realize/{seed}")
    cases = []
    for j, (u, v) in enumerate(_points(rng, count)):
        n = _log_uniform(u, *REALIZE_N)
        if _pick(v, REALIZE_STRATA) == "planted":
            degrees, stratum = planted_bowtie(rng, n), "planted"
        else:
            name = FAMILIES[j % len(FAMILIES)]
            degrees, stratum = _family(rng, name, n), f"family:{name}"
        cases.append(Case(run_length_text(degrees), ACCEPTED, stratum))
    return cases


POOLS = {"decide": decide_cases, "realize": realize_cases}


def main(argv: list[str]) -> int:
    workload, seed, count = argv[0], int(argv[1]), int(argv[2])
    for case in POOLS[workload](seed, count):
        print(json.dumps([case.text, case.label, case.stratum]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
