"""Constructive realizations containing a bowtie, for accepted sequences.

``realize_with_bowtie`` places the bowtie first: a centre c joined to wings
a, b, d, e, with the wing edges ab and de and some of the cross edges ad,
ae, bd and be.  For each placement up to equal degrees (``_placements``),
one greedy step on one max-heap of the outside demands does the rest: it
joins a vertex to the outside vertices of largest remaining demand, the
lowest index first among equals.  Each bowtie vertex takes that step in
turn; then the outside vertex of largest demand takes it until no demand is
left, which is Havel–Hakimi and decides the outside exactly.  The first
placement that completes is the realization.

This is exact, by the switching argument of ``tests/_placement.py``.  If a
realization holds the placement and joins a bowtie vertex v to an outside
vertex x but not to an outside y of larger remaining demand, then y has a
neighbour z, not x, that x lacks, and trading vx, yz for vy, xz keeps every
degree and every bowtie edge.  So v may take the largest demands (the
lay-off of Kleitman & Wang 1973, kept outside the bowtie), and after the
fifth bowtie vertex what is left is a graph on the outside vertices alone,
which Havel–Hakimi builds if it exists.

The result must have exactly the input degrees and a bowtie.  A failed
validation, or an accepted sequence with no placement, raises
InternalExhaustion: the characterization itself has been falsified, so the
alarm must never be swallowed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush
from itertools import combinations, groupby

from .characterize import check_potentially
from .graphs import SimpleGraph, TraceMismatch, attach_by_degrees, contains_bowtie
from .sequences import DegreeSequence, LayoffTrace


class BadParams(ValueError):
    """Family parameters are outside the family's valid range."""


class NotPotentially(ValueError):
    """The sequence has no bowtie-containing realization."""


class InternalExhaustion(RuntimeError):
    """An accepted sequence defeated every construction branch.

    This is a falsification alarm for the characterization, not a normal
    error; it must be allowed to propagate.
    """


class FamilyId(Enum):
    """The eleven closed shapes whose lay-off child can be rejected.

    Digits name the degree values in the family's sequence shape, e.g.
    F11_4321 is the shape (4, 3^a, 2^b, 1^c); ``_SHAPES`` spells each out.
    """

    F1_433 = "F1_433"
    F2_43 = "F2_43"
    F3_4 = "F3_4"
    F4_432 = "F4_432"
    F7_432 = "F7_432"
    F11_4321 = "F11_4321"
    F18_431 = "F18_431"
    C3_TAIL = "C3_TAIL"
    SQ_42 = "SQ_42"
    S_42 = "S_42"
    S_4221 = "S_4221"


@dataclass(frozen=True)
class FamilyPattern:
    """One family member: the family id plus its free parameters.

    ``a`` and ``b`` are run lengths where the family has them (see
    ``_SHAPES``); the remaining run length is determined by ``n``.
    """

    id: FamilyId
    n: int
    a: int | None = None
    b: int | None = None


# Each shape as runs (value, length) over the values 4..1; a length is a
# number, a parameter of FamilyPattern, or "rest" (whatever n leaves).  The
# tail shape (n-2, n-3, 2^(n-3), 1) has values that depend on n: see _runs.
_SHAPES = {
    FamilyId.F1_433: ((4, 3), (3, "rest")),
    FamilyId.F2_43: ((4, 2), (3, "rest")),
    FamilyId.F3_4: ((4, 1), (3, "rest")),
    FamilyId.F4_432: ((4, 2), (3, "a"), (2, "rest")),
    FamilyId.F7_432: ((4, 1), (3, "a"), (2, "rest")),
    FamilyId.F11_4321: ((4, 1), (3, "a"), (2, "b"), (1, "rest")),
    FamilyId.F18_431: ((4, 1), (3, "a"), (1, "rest")),
    FamilyId.SQ_42: ((4, 2), (2, "rest")),
    FamilyId.S_42: ((4, 1), (2, "rest")),
    FamilyId.S_4221: ((4, 1), (2, "a"), (1, "rest")),
}


def _runs(pattern: FamilyPattern) -> list[tuple[int, int]]:
    """The pattern's runs (value, length), unchecked; BadParams if the
    family has a parameter the pattern leaves out."""
    n = pattern.n
    if pattern.id is FamilyId.C3_TAIL:
        return [(n - 2, 1), (n - 3, 1), (2, n - 3), (1, 1)]
    params = {"a": pattern.a, "b": pattern.b}
    runs = [(value, params.get(length, length)) for value, length in _SHAPES[pattern.id]]
    if any(length is None for _, length in runs):
        raise BadParams(f"{pattern!r} lacks a parameter")
    rest = n - sum(length for _, length in runs if length != "rest")
    return [(value, rest if length == "rest" else length) for value, length in runs]


def family_sequence(pattern: FamilyPattern) -> DegreeSequence:
    """The degree sequence a pattern denotes (without validating ranges)."""
    return DegreeSequence(value for value, length in _runs(pattern) for _ in range(length))


def _in_range(pattern: FamilyPattern) -> bool:
    """Whether the pattern is a family member: every run non-empty with a
    positive value, F1_433 from n = 7 (the one bound the decision rules do
    not decide: (4^3, 3^2) is accepted) and the rules accept the sequence."""
    return (
        all(value >= 1 and length >= 1 for value, length in _runs(pattern))
        and not (pattern.id is FamilyId.F1_433 and pattern.n < 7)
        and check_potentially(family_sequence(pattern)).potentially
    )


def match_family(seq: DegreeSequence) -> FamilyPattern | None:
    """Classify a sequence into a family, or None.

    The tail family (n-2, n-3, 2^(n-3), 1) is tried first because at n = 6
    it coincides with the (4, 3^a, 2^b, 1^c) shape.  Otherwise the shape is
    the one whose run values are the sequence's and whose fixed run lengths
    equal the sequence's run lengths.  A match must be in the family's
    range, the one ``construct_family`` accepts.
    """
    runs = [(value, len(list(group))) for value, group in groupby(seq.terms)]
    n = len(seq)
    candidates = [FamilyPattern(FamilyId.C3_TAIL, n)]
    for family, shape in _SHAPES.items():
        if [value for value, _ in shape] == [value for value, _ in runs]:
            params = {length: size for (_, length), (_, size) in zip(shape, runs)}
            candidates.append(FamilyPattern(family, n, params.get("a"), params.get("b")))
    return next(
        (pattern for pattern in candidates if _runs(pattern) == runs and _in_range(pattern)),
        None,
    )


def construct_family(pattern: FamilyPattern) -> SimpleGraph:
    """Realize a family member with a bowtie, through ``realize_with_bowtie``.

    Raises BadParams when the pattern is outside the family's range: a
    parameter is missing, a run is empty or a value not positive, the
    decision procedure rejects the sequence, or the pattern is F1_433 below
    n = 7.
    """
    if not _in_range(pattern):
        raise BadParams(f"invalid parameters {pattern!r}")
    return realize_with_bowtie(family_sequence(pattern))


def reattach(graph: SimpleGraph, trace: LayoffTrace) -> SimpleGraph:
    """Invert one lay-off step on a concrete realization.

    The graph must realize ``trace.child`` (TraceMismatch otherwise).  One
    vertex is added, joined to the lowest-index vertex of each decremented
    degree; required zeros first restore vertices the lay-off dropped.  Any
    bowtie in the input survives because edges are only added.
    """
    child_degrees = tuple(sorted(graph.degrees(), reverse=True))
    if child_degrees != trace.child.terms:
        raise TraceMismatch(
            f"graph degrees {child_degrees} do not realize child {trace.child}"
        )
    return attach_by_degrees(graph, trace.decremented_degrees)


def _placements(terms: tuple[int, ...]) -> Iterator[tuple[list[int], list[tuple[int, int]]]]:
    """Every bowtie placement up to equal degrees, as (vertices c, a, b, d, e;
    edges): each centre value >= 4 and multiset of four wing values >= 2,
    from the largest values down, each of the three wing pairings, and each
    subset of the cross edges, from all four down.  Vertex i has degree
    terms[i], and a value goes on the lowest free vertices of its class."""
    first: dict[int, int] = {}  # each value's lowest vertex, largest value first
    for v, value in enumerate(terms):
        first.setdefault(value, v)
    for centre in [value for value in first if value >= 4]:
        c = first[centre]
        # the wing candidates: the lowest four vertices of each class but c
        pool = [
            v
            for v, value in enumerate(terms)
            if value >= 2 and v != c and v - first[value] < 4 + (value == centre)
        ]
        placed: set[tuple[int, ...]] = set()  # the wing values placed so far
        for w, x, y, z in combinations(pool, 4):
            values = (terms[w], terms[x], terms[y], terms[z])
            if values in placed:
                continue
            placed.add(values)
            for a, b, d, e in ((w, x, y, z), (w, y, x, z), (w, z, x, y)):
                star = [(c, a), (c, b), (c, d), (c, e), (a, b), (d, e)]
                cross = ((a, d), (a, e), (b, d), (b, e))
                for mask in range(15, -1, -1):
                    yield [c, w, x, y, z], star + [cross[j] for j in range(4) if mask >> j & 1]


def _complete(
    terms: tuple[int, ...], bowtie: list[int], inner: list[tuple[int, int]]
) -> SimpleGraph | None:
    """A realization that holds one bowtie placement, or None if there is none.

    ``join(u, need)`` joins u to the ``need`` outside vertices of largest
    remaining demand, the lowest index first among equals, and fails if
    fewer than ``need`` have demand left.  Each bowtie vertex joins in turn,
    then the outside vertex of largest demand, until none has any.
    """
    demand = list(terms)
    for u, v in inner:
        demand[u] -= 1
        demand[v] -= 1
    if min(demand[v] for v in bowtie) < 0:
        return None
    heap = [(-demand[v], v) for v in range(len(terms)) if v not in bowtie]
    heapify(heap)
    edges = list(inner)

    def join(u: int, need: int) -> bool:
        if need > len(heap):
            return False
        for left, v in [heappop(heap) for _ in range(need)]:
            edges.append((u, v))
            if left < -1:
                heappush(heap, (left + 1, v))
        return True

    if not all(join(v, demand[v]) for v in bowtie):
        return None
    while heap:
        need, u = heappop(heap)
        if not join(u, -need):
            return None
    return SimpleGraph(len(terms), edges)


def realize_with_bowtie(seq: DegreeSequence) -> SimpleGraph:
    """Construct a realization of an accepted sequence containing a bowtie.

    Raises NotPotentially for rejected sequences.  For accepted input the
    construction always succeeds; InternalExhaustion would mean the
    decision procedure itself is wrong.
    """
    report = check_potentially(seq)
    if not report.potentially:
        detail = report.failure.value if report.failure is not None else "rejected"
        raise NotPotentially(f"{seq} is not potentially bowtie-graphic ({detail})")
    for placement in _placements(seq.terms):
        graph = _complete(seq.terms, *placement)
        if graph is not None:
            break
    else:
        raise InternalExhaustion(f"accepted sequence {seq} has no bowtie placement")
    # vertex i carries term i, so the degrees must match label for label
    if graph.degrees() != list(seq.terms) or contains_bowtie(graph) is None:
        raise InternalExhaustion(f"realization of {seq} failed final validation")
    return graph
