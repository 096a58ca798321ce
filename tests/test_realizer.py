"""Tests for the deletion realizer, its inverse step and the family vocabulary."""

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
from bowtieseq.graphs import (
    TraceMismatch,
    _erdos_gallai_ok,
    _realizations,
    enumerate_realizations,
)
from bowtieseq.realizer import (
    BadParams,
    FamilyId,
    FamilyPattern,
    _deletions,
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
    for text in ("5,3,2^5", "4^4,3^2", "5,2^6", "3^6", "4,4,4,2,2,2", "2^5"):
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
    # force a wrong base-case graph (one edge): the final validation must
    # notice, also after the deleted vertices are added back
    monkeypatch.setattr(
        realizer_module,
        "_first_bowtie_adjacency",
        lambda terms: [0b10] + [0] * (len(terms) - 1),
    )
    with pytest.raises(InternalExhaustion, match="final validation"):
        construct_family(pat(FamilyId.S_42, 8))
    with pytest.raises(InternalExhaustion, match="final validation"):
        realize_with_bowtie(parse_sequence("4,2^10"))


def test_an_accepted_sequence_with_no_way_down_raises_the_alarm(monkeypatch):
    seq = parse_sequence("5,3,2^9")
    monkeypatch.setattr(realizer_module, "_first_bowtie_adjacency", lambda terms: None)
    with pytest.raises(InternalExhaustion, match="no bowtie realization"):
        realize_with_bowtie(seq)
    # every deletion child rejected, by the rules or as not graphic: the
    # full search runs out
    with monkeypatch.context() as m:
        m.setattr(realizer_module, "_erdos_gallai_ok", lambda terms: False)
        with pytest.raises(InternalExhaustion, match="no accepted deletion"):
            realize_with_bowtie(seq)
    rejected = check_potentially(parse_sequence("3^6"))
    monkeypatch.setattr(realizer_module, "_rule_report", lambda child: rejected)
    with pytest.raises(InternalExhaustion, match="no accepted deletion"):
        realize_with_bowtie(seq)


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


def test_realize_small_sequences_use_the_first_oracle_witness():
    realized = 0
    for n in range(5, 9):
        for seq in enumerate_graphic_sequences(n):
            if not check_potentially(seq).potentially:
                continue
            expected = next(
                g for g in enumerate_realizations(seq) if contains_bowtie(g) is not None
            )
            assert realize_with_bowtie(seq) == expected, seq
            realized += 1
    assert realized == 6 + 41 + 199 + 808


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
    # the tail shape at n = 60 is rejected too: another deletion must serve
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


# ------------------------------------------------------------------ deletions


def test_deletions_start_with_the_lay_off_and_never_touch_the_removed_vertex():
    for text in ("4,2^10", "5,3,2^9", "6,4,3^3,2^5,1^2", "7,5,2^32", "3^12"):
        seq = parse_sequence(text)
        traces = list(_deletions(seq))
        assert traces[0] == lay_off(seq)
        children = set()
        for trace in traces:
            positions = trace.decremented_positions
            assert trace.parent == seq
            assert len(positions) == trace.removed_degree
            assert list(positions) == sorted(set(positions))
            # the removed vertex is the last of its class, never decremented
            removed = max(p for p, t in enumerate(seq.terms) if t == trace.removed_degree)
            assert removed not in positions and positions[-1] < len(seq)
            rest = [t - (p in positions) for p, t in enumerate(seq.terms) if p != removed]
            assert trace.child == DegreeSequence(t for t in rest if t > 0)
            children.add((trace.removed_degree, trace.child))
        assert len(children) == len(traces)  # no pattern comes twice


def test_deletions_reach_every_child_of_every_realization():
    # Brute force: delete each vertex of each labelled realization and
    # record the degree sequence left.  The graphic children of the
    # deletion order must be exactly these, so its full search is complete.
    checked = 0
    for n in range(6, 9):
        for seq in enumerate_graphic_sequences(n):
            if not check_potentially(seq).potentially:
                continue
            terms = seq.terms
            deletions = set()  # (vertex, neighbour bitmask) over all realizations
            for adj in _realizations(terms):
                deletions.update(enumerate(adj))
            brute = set()
            for v, around in deletions:
                rest = [terms[u] - (around >> u & 1) for u in range(n) if u != v]
                brute.add(DegreeSequence(d for d in rest if d > 0))
            generated = {
                trace.child for trace in _deletions(seq) if _erdos_gallai_ok(trace.child.terms)
            }
            assert generated == brute, seq
            checked += 1
    assert checked == 41 + 199 + 808
