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
    F11_4321 is the shape (4, 3^a, 2^b, 1^c).
    """

    F1_433 = "F1_433"      # (4, 4, 4, 3^(n-3)), n odd >= 7
    F2_43 = "F2_43"        # (4, 4, 3^(n-2)), n even >= 6
    F3_4 = "F3_4"          # (4, 3^(n-1)), n odd >= 5
    F4_432 = "F4_432"      # (4, 4, 3^a, 2^(n-2-a)), a >= 2 even
    F7_432 = "F7_432"      # (4, 3^a, 2^(n-1-a)), a >= 2 even
    F11_4321 = "F11_4321"  # (4, 3^a, 2^b, 1^(n-1-a-b))
    F18_431 = "F18_431"    # (4, 3^a, 1^(n-1-a)), a >= 4
    C3_TAIL = "C3_TAIL"    # (n-2, n-3, 2^(n-3), 1), n >= 6
    SQ_42 = "SQ_42"        # (4, 4, 2^(n-2)), n >= 7
    S_42 = "S_42"          # (4, 2^(n-1)), n = 5 or n >= 8
    S_4221 = "S_4221"      # (4, 2^a, 1^(n-1-a)), a >= 4


@dataclass(frozen=True)
class FamilyPattern:
    """One family member: the family id plus its free parameters.

    ``a`` and ``b`` are run lengths where the family has them (see
    FamilyId comments); remaining run lengths are determined by ``n``.
    """

    id: FamilyId
    n: int
    a: int | None = None
    b: int | None = None


def family_sequence(pattern: FamilyPattern) -> DegreeSequence:
    """The degree sequence a pattern denotes (without validating ranges)."""
    f, n, a, b = pattern.id, pattern.n, pattern.a, pattern.b
    if f is FamilyId.F1_433:
        return DegreeSequence((4, 4, 4) + (3,) * (n - 3))
    if f is FamilyId.F2_43:
        return DegreeSequence((4, 4) + (3,) * (n - 2))
    if f is FamilyId.F3_4:
        return DegreeSequence((4,) + (3,) * (n - 1))
    if f is FamilyId.F4_432:
        assert a is not None
        return DegreeSequence((4, 4) + (3,) * a + (2,) * (n - 2 - a))
    if f is FamilyId.F7_432:
        assert a is not None
        return DegreeSequence((4,) + (3,) * a + (2,) * (n - 1 - a))
    if f is FamilyId.F11_4321:
        assert a is not None and b is not None
        return DegreeSequence((4,) + (3,) * a + (2,) * b + (1,) * (n - 1 - a - b))
    if f is FamilyId.F18_431:
        assert a is not None
        return DegreeSequence((4,) + (3,) * a + (1,) * (n - 1 - a))
    if f is FamilyId.C3_TAIL:
        return DegreeSequence((n - 2, n - 3) + (2,) * (n - 3) + (1,))
    if f is FamilyId.SQ_42:
        return DegreeSequence((4, 4) + (2,) * (n - 2))
    if f is FamilyId.S_42:
        return DegreeSequence((4,) + (2,) * (n - 1))
    if f is FamilyId.S_4221:
        assert a is not None
        return DegreeSequence((4,) + (2,) * a + (1,) * (n - 1 - a))
    raise BadParams(f"unknown family {f!r}")


def match_family(seq: DegreeSequence) -> FamilyPattern | None:
    """Classify a sequence into a family, or None.

    The tail family (n-2, n-3, 2^(n-3), 1) is tried first because at n = 6
    it coincides with the (4, 3^a, 2^b, 1^c) shape; after that, the shapes
    are disjoint and are recognized from the run lengths of values 4..1.
    """
    terms = seq.terms
    n = len(terms)
    if n >= 6 and terms == (n - 2, n - 3) + (2,) * (n - 3) + (1,):
        return FamilyPattern(FamilyId.C3_TAIL, n)
    if n == 0 or terms[0] != 4:
        return None
    c4 = terms.count(4)
    c3 = terms.count(3)
    c2 = terms.count(2)
    c1 = terms.count(1)
    if (c4, c3, c2, c1) == (3, n - 3, 0, 0):
        return FamilyPattern(FamilyId.F1_433, n)
    if (c4, c3, c2, c1) == (2, n - 2, 0, 0):
        return FamilyPattern(FamilyId.F2_43, n)
    if (c4, c3, c2, c1) == (1, n - 1, 0, 0):
        return FamilyPattern(FamilyId.F3_4, n)
    if c4 == 2 and c3 >= 1 and c2 >= 1 and c1 == 0:
        return FamilyPattern(FamilyId.F4_432, n, a=c3)
    if c4 == 1 and c3 >= 1 and c2 >= 1 and c1 >= 1:
        return FamilyPattern(FamilyId.F11_4321, n, a=c3, b=c2)
    if c4 == 1 and c3 >= 1 and c2 >= 1 and c1 == 0:
        return FamilyPattern(FamilyId.F7_432, n, a=c3)
    if c4 == 1 and c3 >= 1 and c2 == 0 and c1 >= 1:
        return FamilyPattern(FamilyId.F18_431, n, a=c3)
    if (c4, c3, c2, c1) == (2, 0, n - 2, 0):
        return FamilyPattern(FamilyId.SQ_42, n)
    if (c4, c3, c2, c1) == (1, 0, n - 1, 0):
        return FamilyPattern(FamilyId.S_42, n)
    if c4 == 1 and c3 == 0 and c2 >= 1 and c1 >= 1:
        return FamilyPattern(FamilyId.S_4221, n, a=c2)
    return None


def _validate_params(pattern: FamilyPattern) -> None:
    f, n, a, b = pattern.id, pattern.n, pattern.a, pattern.b
    ok = True
    if f is FamilyId.F1_433:
        ok = n >= 7 and n % 2 == 1
    elif f is FamilyId.F2_43:
        ok = n >= 6 and n % 2 == 0
    elif f is FamilyId.F3_4:
        ok = n >= 5 and n % 2 == 1
    elif f is FamilyId.F4_432:
        ok = a is not None and a >= 2 and a % 2 == 0 and n - 2 - a >= 1
    elif f is FamilyId.F7_432:
        ok = a is not None and a >= 2 and a % 2 == 0 and n - 1 - a >= 1
    elif f is FamilyId.F11_4321:
        ok = (
            a is not None
            and b is not None
            and a >= 1
            and b >= 1
            and a + b >= 4
            and n - 1 - a - b >= 1
            and (a + (n - 1 - a - b)) % 2 == 0
        )
    elif f is FamilyId.F18_431:
        ok = a is not None and a >= 4 and n - 1 - a >= 1 and (a + (n - 1 - a)) % 2 == 0
    elif f is FamilyId.C3_TAIL:
        ok = n >= 6
    elif f is FamilyId.SQ_42:
        ok = n >= 7
    elif f is FamilyId.S_42:
        ok = n == 5 or n >= 8
    elif f is FamilyId.S_4221:
        ok = a is not None and a >= 4 and n - 1 - a >= 2 and (n - 1 - a) % 2 == 0
    if not ok:
        raise BadParams(f"invalid parameters {pattern!r}")


def construct_family(pattern: FamilyPattern) -> SimpleGraph:
    """Realize a family member with a bowtie, through ``realize_with_bowtie``.

    Raises BadParams when the parameters fall outside the family's range
    (which includes denoting a sequence the decision procedure rejects).
    """
    _validate_params(pattern)
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
