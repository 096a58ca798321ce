"""Constructive realizations containing a bowtie, for accepted sequences.

``realize_with_bowtie`` places the bowtie first: a centre c joined to wings
a, b, d, e, with the wing edges ab and de and those of the cross edges ad,
ae, bd and be that the wing degrees allow.  The placements are the
oracle's, put on vertices (``graphs._placements``), and the lay-off kernel
``graphs._complete`` completes them: each bowtie vertex in turn joins the
outside vertices of largest remaining demand, then Havel–Hakimi completes
the outside, and the neighbour sets it returns become the graph's rows.
The first placement that completes is the realization; the switching
argument that makes the search exact is in ``graphs._complete``.

The search comes before the decision.  A completed placement is a
realization, so it proves the sequence graphic, and only the rules
(``characterize._rule_report``) run on it.  Once the first placement
fails to complete, Erdős–Gallai (``graphs._erdos_gallai_ok``, the oracle's
proof) decides graphicality and the rules run after it, to tell a rejected
sequence (NotPotentially) from one that a later placement realizes; the
quadratic lay-off test behind ``check_potentially`` is not on this path.

The result must have exactly the input degrees and the placed bowtie's six
edges.  A failed validation, rules that reject a sequence just realized
with a bowtie, or an accepted sequence with no placement raises
InternalExhaustion: the characterization itself has been falsified, so the
alarm must never be swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby

from .characterize import Failure, _rule_report, check_potentially
from .graphs import (
    SimpleGraph,
    TraceMismatch,
    _complete,
    _erdos_gallai_ok,
    _placements,
    attach_by_degrees,
)
from .sequences import DegreeSequence, LayoffTrace, _quote, format_sequence


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


def realize_with_bowtie(seq: DegreeSequence) -> SimpleGraph:
    """Construct a realization of an accepted sequence containing a bowtie.

    Certificate first: the placements are tried before any decision.  A
    completed placement proves the sequence graphic, so only the rules
    (``_rule_report``) run on it, not the quadratic lay-off test.  When the
    first placement fails to complete (or there is none), the sequence is
    decided once, as ``check_potentially`` decides it but with Erdős–Gallai
    (``_erdos_gallai_ok``) as the graphicality test; if that rejects,
    NotPotentially names the failure, and otherwise the first placement
    left that completes is taken.  For accepted input the construction
    always succeeds.  InternalExhaustion means the library itself is wrong:
    the rules reject a sequence just realized with a bowtie, an accepted
    sequence has no placement, or the graph fails its final validation.
    """
    terms = seq.terms
    pairs = ((inner, _complete(terms, bowtie, inner)) for bowtie, inner in _placements(terms))
    inner, adj = next(pairs, ([], None))
    if adj is None:
        # Erdős–Gallai proves the sequence graphic with no graph built, where
        # the lay-off test behind check_potentially is quadratic
        failure = _rule_report(terms).failure if _erdos_gallai_ok(terms) else Failure.NOT_GRAPHIC
        if failure is not None:
            raise NotPotentially(
                f"{_quote(format_sequence(seq))} is not potentially bowtie-graphic"
                f" ({failure.value})"
            )
        inner, adj = next((pair for pair in pairs if pair[1] is not None), ([], None))
        if adj is None:
            raise InternalExhaustion(
                f"accepted sequence {_quote(format_sequence(seq))} has no bowtie placement"
            )
    graph = SimpleGraph._of(adj)
    # vertex i carries term i, so the degrees must match label for label, and
    # the placed bowtie's six edges (the first six of inner) must be present
    if graph.degrees() != list(terms) or not all(
        graph.has_edge(u, v) for u, v in inner[:6]
    ):
        raise InternalExhaustion(
            f"realization of {_quote(format_sequence(seq))} failed final validation"
        )
    if not _rule_report(terms).potentially:
        raise InternalExhaustion(
            f"the rules reject {_quote(format_sequence(seq))}, realized with a bowtie"
        )
    return graph
