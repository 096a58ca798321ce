"""Constructive realizations containing a bowtie, for accepted sequences.

``realize_with_bowtie`` builds a realization by vertex deletions alone.
While the sequence is longer than ENUMERATION_LIMIT, it deletes the first
candidate of ``_deletions`` whose child is accepted (one exists: a bowtie
realization has a vertex outside its bowtie).  The candidates take the
degree classes from the smallest value up and, within a class, every
decrement pattern once, starting with the lay-off onto the largest other
terms.  Each child is proved graphic by the Erdős–Gallai test first; a
lay-off always passes (Kleitman & Wang 1973).  The short sequence left
takes the first bowtie realization of the exhaustive walk, and the deleted
vertices are added back, last first, joined to vertices of the degrees
their deletions decremented; adding edges never loses a bowtie.

The result must have exactly the input degrees and a bowtie.  A failed
validation, or an accepted sequence with no accepted child, raises
InternalExhaustion: the characterization itself has been falsified, so the
alarm must never be swallowed.  ``construct_family`` realizes a member of
the family vocabulary through ``realize_with_bowtie``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import groupby

from .characterize import _rule_report, check_potentially
from .graphs import (
    SimpleGraph,
    TraceMismatch,
    ZeroDegreeVertex,
    _attach,
    _erdos_gallai_ok,
    _first_bowtie_adjacency,
    attach_by_degrees,
    contains_bowtie,
    degree_sequence,
    ENUMERATION_LIMIT,
)
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


def match_family(seq: DegreeSequence) -> FamilyPattern | None:
    """Classify a sequence into a family, or None.

    The tail family (n-2, n-3, 2^(n-3), 1) is tried first because at n = 6
    it coincides with the (4, 3^a, 2^b, 1^c) shape.  Otherwise the shape is
    the one whose run values are the sequence's and whose fixed run lengths
    equal the sequence's run lengths.
    """
    runs = [(value, len(list(group))) for value, group in groupby(seq.terms)]
    n = len(seq)
    candidates = [FamilyPattern(FamilyId.C3_TAIL, n)]
    for family, shape in _SHAPES.items():
        if [value for value, _ in shape] == [value for value, _ in runs]:
            params = {length: size for (_, length), (_, size) in zip(shape, runs)}
            candidates.append(FamilyPattern(family, n, params.get("a"), params.get("b")))
    return next((pattern for pattern in candidates if _runs(pattern) == runs), None)


def construct_family(pattern: FamilyPattern) -> SimpleGraph:
    """Realize a family member with a bowtie, through ``realize_with_bowtie``.

    Raises BadParams when the parameters fall outside the family's range:
    a parameter is missing, a run is empty or a value not positive, the
    decision procedure rejects the sequence, or the pattern is F1_433 below
    n = 7 (the one bound the rules do not decide: (4^3, 3^2) is accepted).
    """
    runs = _runs(pattern)
    if any(value < 1 or length < 1 for value, length in runs) or (
        pattern.id is FamilyId.F1_433 and pattern.n < 7
    ):
        raise BadParams(f"invalid parameters {pattern!r}")
    try:
        return realize_with_bowtie(family_sequence(pattern))
    except NotPotentially as exc:
        raise BadParams(f"{pattern!r} denotes a rejected sequence") from exc


def _realizes_with_bowtie(graph: SimpleGraph, expected: DegreeSequence) -> bool:
    """Post-validation: right degrees (no isolated vertices) and a bowtie."""
    try:
        actual = degree_sequence(graph)
    except ZeroDegreeVertex:
        return False
    return actual == expected and contains_bowtie(graph) is not None


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


def _fill(free: list[int], total: int) -> list[int]:
    """Spread ``total`` over places with room ``free``, first places first."""
    counts = []
    for room in free:
        counts.append(min(room, total))
        total -= counts[-1]
    return counts


def _patterns(free: list[int], total: int) -> Iterator[tuple[int, ...]]:
    """Every count vector c with 0 <= c[j] <= free[j] and sum total, in
    decreasing lexicographic order (so ``_fill(free, total)`` comes first)."""
    if total > sum(free):
        return
    counts = _fill(free, total)
    while True:
        yield tuple(counts)
        room = held = 0  # free places and counts to the right of j
        for j in range(len(counts) - 1, -1, -1):
            if counts[j] and room > held:
                break
            room += free[j]
            held += counts[j]
        else:
            return
        counts[j] -= 1
        counts[j + 1 :] = _fill(free[j + 1 :], held + 1)


def _deletions(seq: DegreeSequence) -> Iterator[tuple[DegreeSequence, tuple[int, ...]]]:
    """Every one-vertex deletion of ``seq``, as (child, neighbour degrees).

    A deletion removes one vertex of a degree class and decrements the
    first positions of each class, so equal terms are never told apart;
    the neighbour degrees are the decremented values (0 for a vertex the
    child drops).  The classes go from the smallest value up, each through
    ``_patterns`` in its order, so the first candidate is ``lay_off(seq)``.
    """
    runs = [(value, len(list(group))) for value, group in groupby(seq.terms)]
    for k in reversed(range(len(runs))):
        free = [size for _, size in runs]
        free[k] -= 1
        for counts in _patterns(free, runs[k][0]):
            rest: list[int] = []  # nonincreasing, as value - 1 >= the next run's value
            neighbours: list[int] = []
            for (value, _), room, c in zip(runs, free, counts):
                rest += [value] * (room - c)
                if value > 1:
                    rest += [value - 1] * c
                neighbours += [value - 1] * c
            yield DegreeSequence._from_sorted(tuple(rest)), tuple(neighbours)


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

    removed: list[tuple[int, ...]] = []  # neighbour degrees of each deleted vertex
    current = seq
    while len(current) > ENUMERATION_LIMIT:
        for child, neighbour_degrees in _deletions(current):
            if _erdos_gallai_ok(child.terms) and _rule_report(child).potentially:
                break
        else:
            raise InternalExhaustion(f"{current} is accepted but has no accepted deletion")
        removed.append(neighbour_degrees)
        current = child
    adjacency = _first_bowtie_adjacency(current.terms)
    if adjacency is None:
        raise InternalExhaustion(f"accepted sequence {current} has no bowtie realization")
    m = len(current)
    degrees = list(current.terms)
    edges = [(u, v) for u in range(m) for v in range(u + 1, m) if adjacency[u] >> v & 1]
    for neighbour_degrees in reversed(removed):
        _attach(degrees, edges, neighbour_degrees)
    graph = SimpleGraph(len(degrees), edges)
    if not _realizes_with_bowtie(graph, seq):
        raise InternalExhaustion(f"realization of {seq} failed final validation")
    return graph
