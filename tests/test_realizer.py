"""Tests for the placement realizer and its search, the lay-off inverse step and the family vocabulary."""

from __future__ import annotations

import re
from itertools import combinations

import pytest

import bowtieseq.realizer as realizer_module
from _brute import nonincreasing_positive_sequences
from realize_sweep import certificate_problem
from bowtieseq import (
    CheckReport,
    DegreeSequence,
    Failure,
    InternalExhaustion,
    NotPotentially,
    SimpleGraph,
    check_potentially,
    contains_bowtie,
    degree_sequence,
    parse_sequence,
    realize_with_bowtie,
)
from bowtieseq.graphs import TraceMismatch, _complete, _placements, enumerate_realizations
from bowtieseq.realizer import (
    BadParams,
    FamilyId,
    FamilyPattern,
    construct_family,
    family_sequence,
    match_family,
    reattach,
)
from bowtieseq.sequences import lay_off
from bowtieseq.verify import enumerate_graphic_sequences


def pat(family: FamilyId, n: int, a: int | None = None, b: int | None = None) -> FamilyPattern:
    return FamilyPattern(family, n, a=a, b=b)


# ------------------------------------------------------------- family sequences


def test_family_sequence_shapes():
    cases = [
        (pat(FamilyId.F1_433, 7), "4^3,3^4"),
        (pat(FamilyId.F2_43, 6), "4^2,3^4"),
        (pat(FamilyId.F3_4, 5), "4,3^4"),
        (pat(FamilyId.F4_432, 8, a=2), "4^2,3^2,2^4"),
        (pat(FamilyId.F7_432, 7, a=4), "4,3^4,2^2"),
        (pat(FamilyId.F11_4321, 8, a=3, b=3), "4,3^3,2^3,1"),
        (pat(FamilyId.F18_431, 7, a=4), "4,3^4,1^2"),
        (pat(FamilyId.C3_TAIL, 8), "6,5,2^5,1"),
        (pat(FamilyId.SQ_42, 7), "4^2,2^5"),
        (pat(FamilyId.S_42, 9), "4,2^8"),
        (pat(FamilyId.S_4221, 8, a=5), "4,2^5,1^2"),
    ]
    for pattern, text in cases:
        assert family_sequence(pattern) == parse_sequence(text), pattern


# ------------------------------------------------------------------- matching


def test_match_family_recovers_shape_and_parameters():
    cases = [
        ("4^3,3^6", FamilyId.F1_433, None, None),
        ("4^2,3^6", FamilyId.F2_43, None, None),
        ("4,3^8", FamilyId.F3_4, None, None),
        ("4^2,3^4,2^3", FamilyId.F4_432, 4, None),
        ("4,3^2,2^5", FamilyId.F7_432, 2, None),
        ("4,3^3,2^2,1^3", FamilyId.F11_4321, 3, 2),
        ("4,3^5,1^3", FamilyId.F18_431, 5, None),
        ("7,6,2^6,1", FamilyId.C3_TAIL, None, None),
        ("4^2,2^9", FamilyId.SQ_42, None, None),
        ("4,2^11", FamilyId.S_42, None, None),
        ("4,2^6,1^2", FamilyId.S_4221, 6, None),
    ]
    for text, family, a, b in cases:
        seq = parse_sequence(text)
        found = match_family(seq)
        assert found is not None, text
        assert found.id is family
        assert found.n == len(seq)
        assert found.a == a and found.b == b
        assert family_sequence(found) == seq


def test_match_family_prefers_the_tail_shape_at_six_vertices():
    seq = parse_sequence("4,3,2^3,1")
    found = match_family(seq)
    assert found is not None and found.id is FamilyId.C3_TAIL
    # the same sequence is also a valid member of the 4-3-2-1 family
    assert family_sequence(pat(FamilyId.F11_4321, 6, a=1, b=3)) == seq


def test_match_family_rejects_foreign_shapes():
    foreign = ("5,3,2^5", "4^4,3^2", "5,2^6", "3^6", "4,4,4,2,2,2", "2^5", "4", "4^2", "4^3")
    # a family's runs, but outside its range: not graphic, or F1_433 below n = 7
    out_of_range = ("4,3^2", "4,3,2", "4^2,2", "4^3,3^2")
    for text in foreign + out_of_range:
        assert match_family(parse_sequence(text)) is None, text


# ---------------------------------------------------------------- construction


def test_construct_family_builds_every_sampled_member():
    samples = [
        pat(FamilyId.F1_433, 7), pat(FamilyId.F1_433, 9), pat(FamilyId.F1_433, 15),
        pat(FamilyId.F2_43, 6), pat(FamilyId.F2_43, 8), pat(FamilyId.F2_43, 14),
        pat(FamilyId.F3_4, 5), pat(FamilyId.F3_4, 7), pat(FamilyId.F3_4, 9),
        pat(FamilyId.F3_4, 13),
        pat(FamilyId.F4_432, 5, a=2), pat(FamilyId.F4_432, 6, a=2),
        pat(FamilyId.F4_432, 7, a=2), pat(FamilyId.F4_432, 7, a=4),
        pat(FamilyId.F4_432, 9, a=6), pat(FamilyId.F4_432, 12, a=8),
        pat(FamilyId.F7_432, 5, a=2), pat(FamilyId.F7_432, 6, a=2),
        pat(FamilyId.F7_432, 6, a=4), pat(FamilyId.F7_432, 7, a=4),
        pat(FamilyId.F7_432, 8, a=6), pat(FamilyId.F7_432, 10, a=6),
        pat(FamilyId.F11_4321, 6, a=1, b=3), pat(FamilyId.F11_4321, 7, a=1, b=4),
        pat(FamilyId.F11_4321, 7, a=2, b=2), pat(FamilyId.F11_4321, 8, a=2, b=3),
        pat(FamilyId.F11_4321, 6, a=3, b=1), pat(FamilyId.F11_4321, 7, a=3, b=2),
        pat(FamilyId.F11_4321, 8, a=4, b=1), pat(FamilyId.F11_4321, 9, a=4, b=2),
        pat(FamilyId.F11_4321, 8, a=5, b=1), pat(FamilyId.F11_4321, 10, a=6, b=1),
        pat(FamilyId.F11_4321, 10, a=7, b=1), pat(FamilyId.F11_4321, 12, a=7, b=3),
        pat(FamilyId.F18_431, 7, a=4), pat(FamilyId.F18_431, 7, a=5),
        pat(FamilyId.F18_431, 9, a=6), pat(FamilyId.F18_431, 9, a=7),
        pat(FamilyId.F18_431, 11, a=8), pat(FamilyId.F18_431, 13, a=9),
        pat(FamilyId.F18_431, 13, a=10), pat(FamilyId.F18_431, 15, a=12),
        pat(FamilyId.C3_TAIL, 6), pat(FamilyId.C3_TAIL, 7), pat(FamilyId.C3_TAIL, 8),
        pat(FamilyId.C3_TAIL, 12),
        pat(FamilyId.SQ_42, 7), pat(FamilyId.SQ_42, 8), pat(FamilyId.SQ_42, 11),
        pat(FamilyId.S_42, 5), pat(FamilyId.S_42, 8), pat(FamilyId.S_42, 9),
        pat(FamilyId.S_42, 12),
        pat(FamilyId.S_4221, 7, a=4), pat(FamilyId.S_4221, 8, a=5),
        pat(FamilyId.S_4221, 11, a=6), pat(FamilyId.S_4221, 10, a=5),
    ]
    for pattern in samples:
        graph = construct_family(pattern)
        assert degree_sequence(graph) == family_sequence(pattern), pattern
        assert contains_bowtie(graph) is not None, pattern


def test_construct_family_rejects_out_of_range_parameters():
    bad = [
        pat(FamilyId.F1_433, 8),              # needs odd n
        pat(FamilyId.F1_433, 5),              # too small
        pat(FamilyId.F2_43, 7),               # needs even n
        pat(FamilyId.F3_4, 6),                # needs odd n
        pat(FamilyId.F4_432, 7, a=3),         # odd run of threes
        pat(FamilyId.F4_432, 6, a=4),         # no twos left
        pat(FamilyId.F4_432, 7),              # missing a
        pat(FamilyId.F7_432, 4, a=2),         # denotes a non-graphic sequence
        pat(FamilyId.F11_4321, 7, a=1, b=2),  # a + b too small
        pat(FamilyId.F11_4321, 8, a=2, b=2),  # parity violation
        pat(FamilyId.F11_4321, 8, a=2),       # missing b
        pat(FamilyId.F18_431, 6, a=3),        # a too small
        pat(FamilyId.F18_431, 8, a=4),        # parity violation
        pat(FamilyId.C3_TAIL, 5),             # too small
        pat(FamilyId.SQ_42, 6),               # that sequence is rejected
        pat(FamilyId.S_42, 6),                # sporadic rejection
        pat(FamilyId.S_42, 7),                # sporadic rejection
        pat(FamilyId.S_4221, 8, a=4),         # odd count of ones
        pat(FamilyId.S_4221, 6, a=4),         # fewer than two ones
    ]
    for pattern in bad:
        with pytest.raises(BadParams):
            construct_family(pattern)


def test_failed_construction_raises_the_alarm(monkeypatch):
    # force a wrong graph (one edge) out of the placement step: the final
    # validation must notice
    def one_edge(terms, bowtie, inner):
        return [(0, 1)]

    monkeypatch.setattr(realizer_module, "_complete", one_edge)
    with pytest.raises(InternalExhaustion, match="final validation"):
        construct_family(pat(FamilyId.S_42, 8))
    with pytest.raises(InternalExhaustion, match="final validation"):
        realize_with_bowtie(parse_sequence("4,2^10"))


def test_an_accepted_sequence_with_no_way_down_raises_the_alarm(monkeypatch):
    # every completion refuted: the search tries each placement, then runs out
    seq = parse_sequence("5,3,2^9")
    completions = []

    def refute(terms, bowtie, inner):
        completions.append(_complete(terms, bowtie, inner))
        return None

    monkeypatch.setattr(realizer_module, "_complete", refute)
    with pytest.raises(InternalExhaustion, match="no bowtie placement"):
        realize_with_bowtie(seq)
    assert len(completions) == len(list(_placements(seq.terms)))
    assert any(edges is not None for edges in completions)


def test_a_placement_whose_outside_runs_short_is_skipped():
    # the first placement of 10^2,4^5,2^4 (all four cross edges) passes the
    # picks of its five bowtie vertices, but leaves the outside demands 2,2,
    # which Havel–Hakimi cannot join; a later placement completes
    seq = parse_sequence("10^2,4^5,2^4")
    bowtie, inner = next(_placements(seq.terms))
    assert len(inner) == 10
    assert _complete(seq.terms, bowtie, inner) is None
    assert certificate_problem(realize_with_bowtie(seq), seq) is None


def test_placements_take_each_choice_of_degrees_once():
    # centre 5; wings 3,2^3 or 2^4; three pairings; no cross edge, since a
    # wing of degree 2 has no room for one and each cross edge of the
    # degree-3 wing would end at a degree-2 wing: 2 * 3 * 1
    placements = list(_placements(parse_sequence("5,3,2^9").terms))
    assert len(placements) == 2 * 3 * 1
    star = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]
    assert placements[0] == ([0, 1, 2, 3, 4], star)
    # at most four wings per value, the centre's class one short: 4^6 has
    # one choice of degrees, three pairings and all 16 cross-edge subsets.
    # A wing of degree 3 takes at most one cross edge, so 4^5,3^2 adds wings
    # 4^3,3 (three pairings, 16 - 4 subsets each) and 4^2,3^2: the 3s paired
    # (3 * 3 subsets), or apart as a and d in two pairings (ad alone or any
    # of ae, bd; each with or without be: (1 + 4) * 2)
    assert len(list(_placements(parse_sequence("4^6").terms))) == 3 * 16
    assert len(list(_placements(parse_sequence("4^5,3^2").terms))) == (
        3 * 16 + 3 * 12 + (3 * 3 + 2 * (1 + 4) * 2)
    )
    for bowtie, edges in placements:
        assert len(set(bowtie)) == 5 and len(set(edges)) == 6
        assert {v for edge in edges for v in edge} == set(bowtie)


def all_cross_edge_placements(terms: tuple[int, ...]):
    """The placements with every subset of the cross edges, degrees aside:
    the reference the degree filter of ``_placements`` is checked against."""
    first: dict[int, int] = {}
    for v, value in enumerate(terms):
        first.setdefault(value, v)
    for centre in [value for value in first if value >= 4]:
        c = first[centre]
        pool = [
            v
            for v, value in enumerate(terms)
            if value >= 2 and v != c and v - first[value] < 4 + (value == centre)
        ]
        placed: set[tuple[int, ...]] = set()
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


def leaves_no_negative_demand(terms, bowtie, edges) -> bool:
    """The test ``_complete`` made before the degree filter: no bowtie vertex
    has more bowtie edges than its degree."""
    demand = list(terms)
    for u, v in edges:
        demand[u] -= 1
        demand[v] -= 1
    return min(demand[v] for v in bowtie) >= 0


def test_placements_are_exactly_those_that_leave_no_negative_demand():
    # the filter moved out of _complete: a placement whose bowtie edges
    # exceed a vertex's degree is the only kind the degrees now rule out.
    # n = 9 (3069 sequences, 5 million reference placements) takes half a
    # minute and passes too; n <= 8 keeps the suite quick
    checked = 0
    for n in range(5, 9):
        for seq in enumerate_graphic_sequences(n):
            if not check_potentially(seq).potentially:
                continue
            terms = seq.terms
            assert list(_placements(terms)) == [
                placement
                for placement in all_cross_edge_placements(terms)
                if leaves_no_negative_demand(terms, *placement)
            ], seq
            checked += 1
    assert checked == 6 + 41 + 199 + 808


# ------------------------------------------------------------------- reattach


def test_reattach_inverts_a_lay_off_step():
    trace = lay_off(parse_sequence("4,3,2^2,1"))
    assert trace.child == parse_sequence("3^2,2^2")
    child_graph = SimpleGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    parent_graph = reattach(child_graph, trace)
    assert degree_sequence(parent_graph) == parse_sequence("4,3,2^2,1")


def test_reattach_restores_a_bowtie_parent():
    trace = lay_off(parse_sequence("5,3,2^5"))
    assert trace.child == parse_sequence("4,2^5")
    child_graph = SimpleGraph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 4)])
    parent_graph = reattach(child_graph, trace)
    assert degree_sequence(parent_graph) == parse_sequence("5,3,2^5")


def test_reattach_grows_from_the_empty_graph():
    trace = lay_off(parse_sequence("1,1"))
    assert reattach(SimpleGraph(0), trace).degrees() == [1, 1]


def test_reattach_restores_vertices_dropped_at_zero():
    trace = lay_off(DegreeSequence([1, 1, 1, 1]))
    child_graph = SimpleGraph(2, [(0, 1)])
    parent_graph = reattach(child_graph, trace)
    assert sorted(parent_graph.degrees()) == [1, 1, 1, 1]


def test_reattach_refuses_a_graph_of_the_wrong_degrees():
    trace = lay_off(parse_sequence("4,3,2^2,1"))
    triangle = SimpleGraph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(TraceMismatch):
        reattach(triangle, trace)


# ------------------------------------------------------------------- realizer


def test_realize_rejects_non_members():
    # every candidate with n <= 8 and terms <= n + 1, graphic or not: the
    # realizer decides only once a placement fails, and must then name the
    # failure check_potentially names
    rejected = set()
    for n in range(1, 9):
        for terms in nonincreasing_positive_sequences(n, n + 1):
            seq = DegreeSequence(terms)
            report = check_potentially(seq)
            if report.potentially:
                assert certificate_problem(realize_with_bowtie(seq), seq) is None, seq
                continue
            with pytest.raises(NotPotentially, match=re.escape(f"({report.failure.value})")):
                realize_with_bowtie(seq)
            rejected.add(seq)
    for text in ("4,2^5", "4,2^6", "2^3", "3,1,1", "4^2,2^4", "3^6", "4,1^4", "5,1^4"):
        assert parse_sequence(text) in rejected, text


def test_rules_that_reject_a_realized_sequence_raise_the_alarm(monkeypatch):
    # a completed placement shows the sequence has a bowtie realization, so
    # rules that reject it would be falsified
    rejecting = CheckReport(graphic=True, potentially=False, failure=Failure.COND3)
    monkeypatch.setattr(realizer_module, "_rule_report", lambda seq: rejecting)
    with pytest.raises(InternalExhaustion, match="rules reject"):
        realize_with_bowtie(parse_sequence("5,3,2^9"))


def test_a_realization_without_the_placed_bowtie_fails_final_validation(monkeypatch):
    # the input degrees, label for label, and a bowtie, but not the placed
    # one: the validation tests the placed bowtie's six edges
    seq = parse_sequence("4,2^8")
    _, inner = next(_placements(seq.terms))
    elsewhere = next(
        graph
        for graph in enumerate_realizations(seq)
        if contains_bowtie(graph) is not None
        and not all(graph.has_edge(*edge) for edge in inner[:6])
    )
    assert elsewhere.degrees() == list(seq.terms)
    edges = elsewhere.sorted_edges()
    monkeypatch.setattr(realizer_module, "_complete", lambda terms, bowtie, inner: edges)
    with pytest.raises(InternalExhaustion, match="final validation"):
        realize_with_bowtie(seq)


def test_realize_every_accepted_sequence_up_to_six_vertices():
    realized = 0
    for n in (5, 6):
        for seq in enumerate_graphic_sequences(n):
            if not check_potentially(seq).potentially:
                continue
            graph = realize_with_bowtie(seq)
            assert degree_sequence(graph) == seq
            assert contains_bowtie(graph) is not None
            realized += 1
    assert realized == 6 + 41  # accepted counts at five and six vertices


def test_realize_steps_past_a_rejected_lay_off_child():
    # the lay-off child of (4, 2^10) loses its degree-4 vertex, and that of
    # the tail shape at n = 60 is rejected too; the placement never needs it
    for seq in (parse_sequence("4,2^10"), family_sequence(pat(FamilyId.C3_TAIL, 60))):
        assert not check_potentially(lay_off(seq).child).potentially
        graph = realize_with_bowtie(seq)
        assert degree_sequence(graph) == seq
        assert contains_bowtie(graph) is not None


def test_realize_unwinds_multiple_lay_off_levels():
    for text in ("5,3,2^9", "6,4,2^31", "7,5,2^32", "12,11,10,9,8,7,6,5,4,3,2^14,1^3"):
        seq = parse_sequence(text)
        graph = realize_with_bowtie(seq)
        assert degree_sequence(graph) == seq
        assert contains_bowtie(graph) is not None


def test_realize_handles_large_members_of_every_family():
    texts = [
        "4^3,3^26", "4^2,3^26", "4,3^28", "4^2,3^10,2^17", "4,3^12,2^16",
        "4,3^9,2^14,1^5", "4,3^10,1^6", "27,26,2^26,1", "4^2,2^27", "4,2^28",
        "4,2^20,1^8",
    ]
    for text in texts:
        seq = parse_sequence(text)
        graph = realize_with_bowtie(seq)
        assert degree_sequence(graph) == seq
        assert contains_bowtie(graph) is not None
