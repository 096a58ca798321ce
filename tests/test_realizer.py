"""Tests for the placement realizer, the lay-off inverse step and the family vocabulary."""

from __future__ import annotations

import pytest

import bowtieseq.realizer as realizer_module
from bowtieseq import (
    DegreeSequence,
    InternalExhaustion,
    NotPotentially,
    SimpleGraph,
    check_potentially,
    contains_bowtie,
    degree_sequence,
    parse_sequence,
    realize_with_bowtie,
)
from bowtieseq.graphs import TraceMismatch
from bowtieseq.realizer import (
    BadParams,
    FamilyId,
    FamilyPattern,
    _placements,
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
        return SimpleGraph(len(terms), [(0, 1)])

    monkeypatch.setattr(realizer_module, "_complete", one_edge)
    with pytest.raises(InternalExhaustion, match="final validation"):
        construct_family(pat(FamilyId.S_42, 8))
    with pytest.raises(InternalExhaustion, match="final validation"):
        realize_with_bowtie(parse_sequence("4,2^10"))


def test_an_accepted_sequence_with_no_way_down_raises_the_alarm(monkeypatch):
    seq = parse_sequence("5,3,2^9")
    with monkeypatch.context() as m:
        m.setattr(realizer_module, "_complete", lambda terms, bowtie, inner: None)
        with pytest.raises(InternalExhaustion, match="no bowtie placement"):
            realize_with_bowtie(seq)
    # every outside residual refuted: the real search tries each placement
    # that survives the picks, then runs out
    refuted = []

    def refute(demands):
        refuted.append(demands)
        return False

    monkeypatch.setattr(realizer_module, "_erdos_gallai_ok", refute)
    with pytest.raises(InternalExhaustion, match="no bowtie placement"):
        realize_with_bowtie(seq)
    assert 0 < len(refuted) <= len(list(_placements(seq.terms)))


def test_placements_take_each_choice_of_degrees_once():
    # centre 5; wings 3,2^3 or 2^4; three pairings; 16 cross-edge subsets
    placements = list(_placements(parse_sequence("5,3,2^9").terms))
    assert len(placements) == 2 * 3 * 16
    star = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]
    assert placements[0] == ([0, 1, 2, 3, 4], star + [(1, 3), (1, 4), (2, 3), (2, 4)])
    assert placements[15] == ([0, 1, 2, 3, 4], star)
    # at most four wings per value, the centre's class one short: 4^6 has
    # one choice of degrees, 4^5,3^2 has three
    assert len(list(_placements(parse_sequence("4^6").terms))) == 48
    assert len(list(_placements(parse_sequence("4^5,3^2").terms))) == 3 * 48
    for bowtie, edges in placements:
        assert len(set(bowtie)) == 5 and 6 <= len(set(edges)) <= 10
        assert {v for edge in edges for v in edge} == set(bowtie)


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
    for text in ("4,2^5", "2^3", "3,1,1", "4^2,2^4", "3^6", "4,1^4"):
        with pytest.raises(NotPotentially):
            realize_with_bowtie(parse_sequence(text))


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
