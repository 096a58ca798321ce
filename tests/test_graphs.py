"""Tests for the graph type, bowtie detection, the exhaustive walk and the oracle."""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement, permutations
from math import comb

import pytest

import bowtieseq.graphs as graphs_module
from _brute import (
    all_graphs,
    brute_all_witnesses,
    brute_contains_bowtie,
    degree_multiset_census,
    erdos_gallai_graphic,
    nonincreasing_positive_sequences,
)
from bowtieseq import (
    BowtieWitness,
    DegreeSequence,
    SimpleGraph,
    ZeroDegreeVertex,
    contains_bowtie,
    degree_sequence,
    dot_text,
    edge_list_text,
    is_graphic,
    parse_sequence,
)
from bowtieseq.graphs import (
    ENUMERATION_LIMIT,
    NotGraphic,
    TooLarge,
    TraceMismatch,
    _erdos_gallai_ok,
    _greedy_realization,
    _least_bowtie,
    _placements,
    attach_by_degrees,
    enumerate_realizations,
    oracle_has_bowtie_realization,
)

BOWTIE = SimpleGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])

_census_cache: dict[int, dict[tuple[int, ...], list[SimpleGraph]]] = {}


def census(n: int) -> dict[tuple[int, ...], list[SimpleGraph]]:
    if n not in _census_cache:
        _census_cache[n] = degree_multiset_census(n)
    return _census_cache[n]


# ----------------------------------------------------------------- SimpleGraph


def test_edges_are_normalised_and_deduplicated():
    g = SimpleGraph(3, [(1, 0), (0, 1), (1, 2)])
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.edge_count == 2
    assert g.sorted_edges() == [(0, 1), (1, 2)]


def test_has_edge_is_orientation_free():
    g = SimpleGraph(3, [(0, 2)])
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 1)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 1.5)])
    with pytest.raises(ValueError):
        SimpleGraph(3, [(True, 2)])
    with pytest.raises(ValueError):
        SimpleGraph(-1)


def test_degrees_and_adjacency():
    assert BOWTIE.degrees() == [4, 2, 2, 2, 2]
    adj = BOWTIE.adjacency()
    assert adj[0] == {1, 2, 3, 4}
    assert adj[1] == {0, 2}
    assert adj[3] == {0, 4}


def test_graph_equality_and_hash():
    a = SimpleGraph(3, [(0, 1)])
    b = SimpleGraph(3, [(1, 0)])
    c = SimpleGraph(4, [(0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_degree_sequence_requires_positive_degrees():
    assert degree_sequence(BOWTIE) == parse_sequence("4,2^4")
    with pytest.raises(ZeroDegreeVertex):
        degree_sequence(SimpleGraph(3, [(0, 1)]))


# -------------------------------------------------------------- the bowtie shape


def test_bowtie_is_complete_graph_on_five_minus_a_four_cycle():
    # remove a 4-cycle's edges from the complete graph on five vertices
    removed = {(0, 1), (1, 2), (2, 3), (0, 3)}
    k5_minus_c4 = SimpleGraph(
        5, [e for e in combinations(range(5), 2) if e not in removed]
    )
    assert sorted(k5_minus_c4.degrees(), reverse=True) == [4, 2, 2, 2, 2]
    # explicit isomorphism search against the two-triangles graph
    target = BOWTIE.edges
    assert any(
        frozenset(
            tuple(sorted((phi[u], phi[v]))) for u, v in k5_minus_c4.edges
        )
        == target
        for phi in permutations(range(5))
    )


def test_witness_edges_are_the_six_bowtie_edges():
    w = BowtieWitness(center=0, wing1=(1, 2), wing2=(3, 4))
    assert sorted(w.edges()) == BOWTIE.sorted_edges()


# ------------------------------------------------------------- bowtie detection


def test_contains_bowtie_on_the_canonical_bowtie():
    w = contains_bowtie(BOWTIE)
    assert w == BowtieWitness(center=0, wing1=(1, 2), wing2=(3, 4))


def test_contains_bowtie_needs_disjoint_wings():
    # two triangles sharing an edge (a "book"), then a diamond plus pendant:
    # high degree without two vertex-disjoint triangles on one centre
    book = SimpleGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert contains_bowtie(book) is None


def test_contains_bowtie_matches_brute_force_on_all_small_graphs():
    # every labelled graph on up to 6 vertices, against an independent scan
    checked = 0
    for n in range(0, 7):
        for g in all_graphs(n):
            witnesses = brute_all_witnesses(g)
            found = contains_bowtie(g)
            if not witnesses:
                assert found is None
            else:
                c, w1, w2 = min(witnesses)
                assert found == BowtieWitness(center=c, wing1=w1, wing2=w2)
            checked += 1
    assert checked == sum(1 << (n * (n - 1) // 2) for n in range(0, 7))


def test_contains_bowtie_matches_brute_force_on_random_larger_graphs():
    rng = random.Random(70113)
    hits = 0
    for _ in range(120):
        n = rng.randint(5, 60)
        p = rng.uniform(0.02, 0.35)
        g = SimpleGraph(
            n, [e for e in combinations(range(n), 2) if rng.random() < p]
        )
        witnesses = brute_all_witnesses(g)
        found = contains_bowtie(g)
        if not witnesses:
            assert found is None
        else:
            c, w1, w2 = witnesses[0]
            assert found == BowtieWitness(center=c, wing1=w1, wing2=w2)
            hits += 1
    assert 0 < hits < 120


def test_adding_edges_never_loses_the_bowtie():
    rng = random.Random(90401)
    grown = 0
    for _ in range(150):
        # random 6-vertex graph conditioned to contain a bowtie
        base = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]
        extra = [
            e
            for e in combinations(range(6), 2)
            if e not in base and rng.random() < 0.4
        ]
        g = SimpleGraph(6, base + extra)
        assert contains_bowtie(g) is not None
        absent = [e for e in combinations(range(6), 2) if not g.has_edge(*e)]
        for e in absent:
            assert contains_bowtie(SimpleGraph(6, list(g.edges) + [e])) is not None
            grown += 1
    assert grown > 0


# ----------------------------------------------------------------- construction


def test_attach_by_degrees_picks_lowest_index_targets():
    triangle = SimpleGraph(3, [(0, 1), (0, 2), (1, 2)])
    g = attach_by_degrees(triangle, (2, 2))
    assert g.vertex_count == 4
    assert g.degrees() == [3, 3, 2, 2]
    assert g.has_edge(0, 3) and g.has_edge(1, 3)
    # equal degrees take the lowest unused vertices, whatever lies between
    mixed = SimpleGraph(5, [(0, 2), (0, 4), (2, 4), (1, 3)])
    g = attach_by_degrees(mixed, (1, 2, 1, 2))
    assert [v for v in range(5) if g.has_edge(v, 5)] == [0, 1, 2, 3]


def test_attach_by_degrees_spawns_fresh_vertices_for_zeros():
    triangle = SimpleGraph(3, [(0, 1), (0, 2), (1, 2)])
    g = attach_by_degrees(triangle, (2, 0))
    assert g.vertex_count == 5
    assert sorted(g.degrees()) == [1, 2, 2, 2, 3]
    assert g.has_edge(3, 4) and g.has_edge(0, 4)


def test_attach_by_degrees_reports_missing_targets():
    triangle = SimpleGraph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(TraceMismatch):
        attach_by_degrees(triangle, (3,))
    with pytest.raises(TraceMismatch):
        attach_by_degrees(triangle, (2, 2, 2, 2))


# ------------------------------------------------------------------ enumeration


def test_enumerate_counts_on_tiny_sequences():
    assert len(list(enumerate_realizations(parse_sequence("1,1")))) == 1
    assert len(list(enumerate_realizations(parse_sequence("2^3")))) == 1
    graphs = list(enumerate_realizations(parse_sequence("4,2^4")))
    assert len(graphs) == 3
    assert all(contains_bowtie(g) is not None for g in graphs)


def test_enumeration_matches_the_labelled_census_exactly():
    # vertex i carries the i-th term, so compare against the labelled graphs
    # whose degree vector (not just multiset) equals the sorted sequence
    for n in range(2, 7):
        buckets = census(n)
        for terms in nonincreasing_positive_sequences(n, n - 1):
            seq = DegreeSequence(terms)
            if not is_graphic(seq):
                assert terms not in buckets
                continue
            enumerated = list(enumerate_realizations(seq))
            expected = [
                g for g in buckets.get(terms, []) if tuple(g.degrees()) == terms
            ]
            assert len(enumerated) == len(expected), terms
            assert set(enumerated) == set(expected), terms


def test_enumeration_is_deterministic_and_duplicate_free():
    seq = parse_sequence("3^2,2^4")
    first = list(enumerate_realizations(seq))
    second = list(enumerate_realizations(seq))
    assert first == second
    assert len(set(first)) == len(first)


def test_enumeration_order_is_pinned():
    # first and last realization in the stream, so a change of search order
    # shows even where the set of realizations stays the same
    golden = {
        "3^8": (
            19355,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)],
            [(0, 5), (0, 6), (0, 7), (1, 5), (1, 6), (1, 7),
             (2, 3), (2, 4), (2, 7), (3, 4), (3, 6), (4, 5)],
        ),
        "4,3^6,2": (
            11760,
            [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3),
             (2, 3), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7)],
            [(0, 4), (0, 5), (0, 6), (0, 7), (1, 5), (1, 6),
             (1, 7), (2, 3), (2, 4), (2, 6), (3, 4), (3, 5)],
        ),
    }
    for text, (count, first, last) in golden.items():
        graphs = list(enumerate_realizations(parse_sequence(text)))
        assert len(graphs) == count, text
        assert graphs[0] == SimpleGraph(8, first), text
        assert graphs[-1] == SimpleGraph(8, last), text


def test_feasibility_prune_is_the_full_erdos_gallai_test():
    # the prune tests only the ends of runs; it must still answer exactly
    # what every inequality together answers, zeros and any order included
    rng = random.Random(4101)
    checked = 0
    for n in range(0, 10):
        for terms in nonincreasing_positive_sequences(n, n):
            residual = [d - 1 for d in terms]  # terms 0..n-1
            rng.shuffle(residual)
            assert _erdos_gallai_ok(residual) == erdos_gallai_graphic(residual), residual
            checked += 1
    assert checked == sum(comb(2 * n - 1, n) for n in range(1, 10)) + 1


def test_enumeration_guards():
    with pytest.raises(TooLarge):
        list(enumerate_realizations(DegreeSequence([2] * (ENUMERATION_LIMIT + 1))))
    with pytest.raises(NotGraphic):
        list(enumerate_realizations(parse_sequence("3,1")))


# ----------------------------------------------------------------------- oracle


def test_oracle_on_known_sequences():
    assert oracle_has_bowtie_realization(parse_sequence("4,2^4"))
    assert not oracle_has_bowtie_realization(parse_sequence("4,4,2,2,2"))
    assert not oracle_has_bowtie_realization(parse_sequence("4,2^5"))
    assert oracle_has_bowtie_realization(parse_sequence("4,3^2,2^2"))


def test_oracle_matches_brute_force_over_all_small_sequences():
    for n in range(5, 7):
        buckets = census(n)
        for terms, graphs in sorted(buckets.items()):
            if 0 in terms:
                continue
            expected = any(brute_contains_bowtie(g) for g in graphs)
            assert oracle_has_bowtie_realization(DegreeSequence(terms)) == expected, terms


_public_verdicts: list[tuple[DegreeSequence, bool]] = []


def _assert_oracle_agrees_with_the_public_route():
    # the oracle searches bowtie placements; the public route builds a graph
    # per realization and runs contains_bowtie on it (computed once, shared)
    if not _public_verdicts:
        for n in range(5, 9):
            for terms in nonincreasing_positive_sequences(n, n - 1):
                if erdos_gallai_graphic(list(terms)):
                    seq = DegreeSequence(terms)
                    realizations = enumerate_realizations(seq)
                    expected = any(contains_bowtie(g) is not None for g in realizations)
                    _public_verdicts.append((seq, expected))
    assert len(_public_verdicts) == 1202
    for seq, expected in _public_verdicts:
        assert oracle_has_bowtie_realization(seq) == expected, seq


def test_oracle_agrees_with_the_public_enumeration_and_detector():
    _assert_oracle_agrees_with_the_public_route()


def test_the_search_alone_decides_every_sequence(monkeypatch):
    # a greedy realization with no edges holds no bowtie, so every "yes"
    # must come from the search (None would mean "not graphic")
    monkeypatch.setattr(graphs_module, "_greedy_realization", lambda terms: [0] * len(terms))
    _assert_oracle_agrees_with_the_public_route()


def _forbidden(*args):
    raise AssertionError(f"called on {args}")


@pytest.mark.parametrize("text", ["3^10", "4^4,1^6", "4^2,2^2,1^2", "4,2^3,1^2"])
def test_oracle_degree_gate_answers_without_walking(monkeypatch, text):
    # no vertex of degree >= 4, or fewer than five of degree >= 2: the
    # placement search has nothing to try, so no separate gate is needed
    seq = parse_sequence(text)
    assert list(_placements(seq.terms)) == []
    monkeypatch.setattr(graphs_module, "enumerate_realizations", _forbidden)
    assert oracle_has_bowtie_realization(seq) is False


def _realizes(adj, terms):
    """Whether the bitmask adjacency is a simple graph with these degrees."""
    n = len(terms)
    if adj is None or len(adj) != n:
        return False
    loop_free = all(not adj[u] >> u & 1 for u in range(n))
    symmetric = all(
        adj[u] >> v & 1 == adj[v] >> u & 1 for u in range(n) for v in range(u)
    )
    return loop_free and symmetric and [row.bit_count() for row in adj] == list(terms)


@pytest.mark.parametrize("text", ["4^2,2^4", "4^2,2^3", "4,2^5", "4,2^6"])
def test_oracle_walks_every_sequence_past_the_gate(monkeypatch, text):
    # rules 3..6: these pass the degree gate, so each "no" comes from walking
    # every bowtie placement and finding that none completes
    seq = parse_sequence(text)
    assert not any(contains_bowtie(g) is not None for g in enumerate_realizations(seq))
    tried = []
    original = graphs_module._complete

    def complete(terms, bowtie, inner):
        tried.append((tuple(bowtie), tuple(inner)))
        return original(terms, bowtie, inner)

    monkeypatch.setattr(graphs_module, "_complete", complete)
    monkeypatch.setattr(graphs_module, "enumerate_realizations", _forbidden)
    assert oracle_has_bowtie_realization(seq) is False
    walked = [(tuple(bowtie), tuple(inner)) for bowtie, inner in _placements(seq.terms)]
    assert walked and tried == walked


def test_oracle_agrees_with_the_walk_without_walking(monkeypatch):
    # reference: the degree gate, then the greedy certificate, else a bowtie
    # in any realization the exhaustive walk visits
    reference = []
    for n in range(5, 11):
        for terms in nonincreasing_positive_sequences(n, n - 1):
            if not erdos_gallai_graphic(list(terms)):
                continue
            seq = DegreeSequence(terms)
            if terms[0] < 4 or terms[4] < 2:
                expected = False
            elif _least_bowtie(_greedy_realization(terms)) is not None:
                expected = True
            else:
                realizations = enumerate_realizations(seq)
                expected = any(contains_bowtie(g) is not None for g in realizations)
            reference.append((seq, expected))
    assert len(reference) == 16005
    # with the walk forbidden, every "no" (rules 3..6 among them) comes from
    # the placement search
    monkeypatch.setattr(graphs_module, "enumerate_realizations", _forbidden)
    for seq, expected in reference:
        assert oracle_has_bowtie_realization(seq) == expected, seq


@pytest.mark.parametrize("text", ["4,2^4", "4,3^2,2^2"])
def test_oracle_says_yes_from_the_greedy_realization(monkeypatch, text):
    # the greedy realization holds a bowtie: a certificate, no search needed
    monkeypatch.setattr(graphs_module, "_placements", _forbidden)
    seq = parse_sequence(text)
    assert oracle_has_bowtie_realization(seq) is True
    adj = _greedy_realization(seq.terms)
    assert _realizes(adj, seq.terms)
    assert _least_bowtie(adj) is not None


def test_greedy_realization_exists_exactly_for_graphic_candidates():
    # the verify enumerator's candidates: every nonincreasing positive tuple
    graphic = 0
    for n in range(1, 9):
        for terms in combinations_with_replacement(range(n - 1, 0, -1), n):
            adj = _greedy_realization(terms)
            assert (adj is not None) == _erdos_gallai_ok(terms), terms
            if adj is not None:
                assert _realizes(adj, terms), terms
                graphic += 1
    assert graphic == 10 + 1202  # n = 2..4, then the verify sweep's n = 5..8


@pytest.mark.parametrize("text", ["4^4,2", "3^2,1^2"])
def test_oracle_rejects_non_graphic_input_before_the_gate(monkeypatch, text):
    # 4^4,2 has placements to search; 3^2,1^2 has none
    monkeypatch.setattr(graphs_module, "_placements", _forbidden)
    with pytest.raises(NotGraphic):
        oracle_has_bowtie_realization(parse_sequence(text))


def test_oracle_proves_graphicality_without_erdos_gallai(monkeypatch):
    # the greedy realization is exact, so the oracle's NotGraphic needs no
    # second graphicality test
    monkeypatch.setattr(graphs_module, "_erdos_gallai_ok", _forbidden)
    checked = 0
    for n in range(1, 9):
        for terms in nonincreasing_positive_sequences(n, n):
            seq = DegreeSequence(terms)
            if erdos_gallai_graphic(list(terms)):
                assert type(oracle_has_bowtie_realization(seq)) is bool, terms
            else:
                with pytest.raises(NotGraphic):
                    oracle_has_bowtie_realization(seq)
            checked += 1
    assert checked == sum(comb(2 * n - 1, n) for n in range(1, 9))


def test_oracle_not_graphic_message_stays_short_for_a_long_sequence():
    seq = DegreeSequence(range(3000, 0, -1))
    with pytest.raises(NotGraphic) as caught:
        oracle_has_bowtie_realization(seq)
    message = str(caught.value)
    assert message.startswith("'3000,2999,") and message.endswith(" is not graphic")
    assert len(message) < 200


def test_oracle_answers_beyond_the_enumeration_limit_without_walking(monkeypatch):
    # the walk's limit bounds only the walk: at n = 30 a "yes" comes from the
    # greedy certificate and the rule 4 and rule 3 shapes' "no"s from the
    # placement search
    monkeypatch.setattr(graphs_module, "enumerate_realizations", _forbidden)
    assert oracle_has_bowtie_realization(parse_sequence("4^30")) is True
    assert oracle_has_bowtie_realization(parse_sequence("29^2,2^28")) is False
    assert oracle_has_bowtie_realization(parse_sequence("28^2,2^28")) is False


# ----------------------------------------------------------------- wire formats


def test_edge_list_text_formats():
    w = contains_bowtie(BOWTIE)
    assert edge_list_text(BOWTIE, w) == (
        "# bowtie center 0 wings 1,2 3,4\n"
        "0 1\n0 2\n0 3\n0 4\n1 2\n3 4\n"
    )
    assert edge_list_text(SimpleGraph(2, [(0, 1)])) == "0 1\n"


def test_dot_text_formats():
    w = contains_bowtie(BOWTIE)
    assert dot_text(BOWTIE, w) == (
        "graph {\n"
        "  // bowtie center 0 wings 1,2 3,4\n"
        "  0 -- 1;\n"
        "  0 -- 2;\n"
        "  0 -- 3;\n"
        "  0 -- 4;\n"
        "  1 -- 2;\n"
        "  3 -- 4;\n"
        "}\n"
    )


def test_dot_text_lists_isolated_vertices():
    assert dot_text(SimpleGraph(3, [(0, 1)])) == "graph {\n  2;\n  0 -- 1;\n}\n"
