"""Tests for the graph type, bowtie detection, the exhaustive walk and the oracle."""

from __future__ import annotations

import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations, combinations_with_replacement, islice, permutations
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
from _kernel import compare_with_reference
from _scale import wrong_answers
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
    realize_with_bowtie,
)
from bowtieseq.graphs import (
    ENUMERATION_LIMIT,
    NotGraphic,
    TooLarge,
    TraceMismatch,
    _complete,
    _erdos_gallai_ok,
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


def test_graph_rejects_a_bad_vertex_count():
    # a float count used to construct and fail later in degrees(); True
    # used to construct SimpleGraph(True, [])
    with pytest.raises(ValueError):
        SimpleGraph(2.5, [(0, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(True)


def test_has_edge_is_false_outside_the_graph():
    g = SimpleGraph(3, [(0, 2)])
    # -1 must not wrap around to vertex 2, whose row holds 0
    assert not g.has_edge(-1, 0) and not g.has_edge(0, -1)
    assert not g.has_edge(0, 3) and not g.has_edge(3, 0)
    assert not g.has_edge(2, 2)


def test_graph_from_rows_checks_them():
    assert SimpleGraph._of([{1}, {0}, set()]) == SimpleGraph(3, [(0, 1)])
    with pytest.raises(ValueError):
        SimpleGraph._of([{1}, set()])  # asymmetric: 1 does not list 0
    with pytest.raises(ValueError):
        SimpleGraph._of([{0, 1}, {0}])  # a self-loop at 0
    with pytest.raises(ValueError):
        SimpleGraph._of([{2}, set()])  # 2 is out of range
    with pytest.raises(ValueError):
        SimpleGraph._of([{1}, {0, -1}])  # -1 would wrap around to 1


def test_graph_from_rows_equals_and_hashes_like_from_edges():
    rows = SimpleGraph._of(BOWTIE.adjacency())
    assert rows == BOWTIE and hash(rows) == hash(BOWTIE)
    assert rows.edges == BOWTIE.edges and repr(rows) == repr(BOWTIE)
    assert SimpleGraph._of([set(), set()]) == SimpleGraph(2) != SimpleGraph(3)


def test_adjacency_returns_copies():
    g = SimpleGraph(3, [(0, 1), (1, 2)])
    adj = g.adjacency()
    adj[0].add(2)
    adj[2].clear()
    adj.append({0})
    assert g == SimpleGraph(3, [(0, 1), (1, 2)])
    assert not g.has_edge(0, 2) and g.has_edge(2, 1)
    assert g.degrees() == [1, 2, 1] and g.adjacency() == [{1}, {0, 2}, {1}]


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
    graphs = []
    for _ in range(120):
        n = rng.randint(5, 60)
        p = rng.uniform(0.02, 0.35)
        graphs.append(
            SimpleGraph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        )
    # the book K_{1,1,8}: 0 and 1 joined to each other and to leaves 2..9.
    # Every triangle holds the edge 01, so there is no bowtie, and each of
    # the many wing pairs on 0 and 1 walks the centre's other neighbours;
    # one leaf-leaf edge makes the last two leaves the second wing
    book = [(0, 1)] + [(hub, leaf) for hub in (0, 1) for leaf in range(2, 10)]
    graphs += [SimpleGraph(10, book), SimpleGraph(10, book + [(8, 9)])]
    hits = 0
    for g in graphs:
        witnesses = brute_all_witnesses(g)
        found = contains_bowtie(g)
        if not witnesses:
            assert found is None
        else:
            c, w1, w2 = witnesses[0]
            assert found == BowtieWitness(center=c, wing1=w1, wing2=w2)
            hits += 1
    assert 0 < hits < len(graphs)


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


def test_contains_bowtie_runs_in_linear_memory():
    # one neighbour set per vertex: about 4 MiB on the 20 000 vertices of
    # 4^20000, where an n-bit row per vertex would take about 50 MiB
    graph = realize_with_bowtie(parse_sequence("4^20000"))
    tracemalloc.start()
    try:
        witness = contains_bowtie(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert witness == BowtieWitness(center=0, wing1=(1, 2), wing2=(3, 4))
    assert peak < 16 * 2**20


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


def _forbidden(*args):
    raise AssertionError(f"called on {args}")


# the walk and the graph path (the lay-off kernel, the bowtie search and the
# graph type): the oracle decides on degrees and calls none of them
_WALK_AND_GRAPH = ("enumerate_realizations", "_complete", "_least_bowtie", "SimpleGraph")

_reference: list[tuple[DegreeSequence, bool]] = []


def _walk_reference() -> list[tuple[DegreeSequence, bool]]:
    # every graphic sequence of length 5..10 with its answer: the degree
    # gate, then a bowtie in the Havel–Hakimi realization, else the public
    # route, a bowtie in some realization the exhaustive walk visits
    # (computed once, shared)
    if not _reference:
        for n in range(5, 11):
            for terms in nonincreasing_positive_sequences(n, n - 1):
                if not erdos_gallai_graphic(list(terms)):
                    continue
                seq = DegreeSequence(terms)
                if terms[0] < 4 or terms[4] < 2:
                    expected = False
                elif _least_bowtie(_complete(terms, [], [])) is not None:
                    expected = True
                else:
                    realizations = enumerate_realizations(seq)
                    expected = any(contains_bowtie(g) is not None for g in realizations)
                _reference.append((seq, expected))
    lengths = Counter(len(seq) for seq, _ in _reference)
    assert lengths == {5: 20, 6: 71, 7: 240, 8: 871, 9: 3148, 10: 11655}  # 16 005
    return _reference


def test_oracle_agrees_with_the_public_enumeration_and_detector():
    # on the 1202 of length 5..8 the reference's two shortcuts are checked
    # against the public route itself, and the oracle agrees with both
    small = [(seq, expected) for seq, expected in _walk_reference() if len(seq) <= 8]
    assert len(small) == 1202
    for seq, expected in small:
        realizations = enumerate_realizations(seq)
        assert any(contains_bowtie(g) is not None for g in realizations) == expected, seq
        assert oracle_has_bowtie_realization(seq) == expected, seq


def test_oracle_agrees_with_the_walk_without_walking(monkeypatch):
    # with the walk made to fail, every "no" (rules 3..6 among them) comes
    # from the placement search; with the graph path made to fail as well,
    # it decides each placement on degrees and builds no graph
    reference = _walk_reference()
    for name in _WALK_AND_GRAPH:
        monkeypatch.setattr(graphs_module, name, _forbidden)
    for seq, expected in reference:
        assert oracle_has_bowtie_realization(seq) == expected, seq


@pytest.mark.parametrize("text", ["3^10", "4^4,1^6", "4^2,2^2,1^2", "4,2^3,1^2"])
def test_oracle_degree_gate_answers_without_walking(monkeypatch, text):
    # no vertex of degree >= 4, or fewer than five of degree >= 2: the
    # placement search has nothing to try, so no separate gate is needed
    # and no placement is decided
    seq = parse_sequence(text)
    assert list(_placements(seq.terms)) == []
    monkeypatch.setattr(graphs_module, "_fits", _forbidden)
    assert oracle_has_bowtie_realization(seq) is False


def _degree_tests(terms):
    """The degree test of each vertex-level placement, in order: the outside
    vertices' degrees, and what each bowtie vertex still needs outside."""
    for bowtie, inner in _placements(terms):
        inside = dict.fromkeys(bowtie, 0)
        for u, v in inner:
            inside[u] += 1
            inside[v] += 1
        outside = [t for v, t in enumerate(terms) if v not in inside]
        yield outside, tuple(terms[v] - inside[v] for v in bowtie)


def _spy_on_degree_tests(monkeypatch):
    """Record the oracle's degree tests; building a graph fails."""
    tried = []
    original = graphs_module._fits

    def fits(outside, needs):
        tried.append((list(outside), tuple(needs)))
        return original(outside, needs)

    monkeypatch.setattr(graphs_module, "_fits", fits)
    monkeypatch.setattr(graphs_module, "_complete", _forbidden)
    return tried


def _realizes(adj, terms):
    """Whether the neighbour sets are a simple graph with these degrees."""
    n = len(terms)
    if adj is None or len(adj) != n:
        return False
    loop_free = all(u not in adj[u] for u in range(n))
    symmetric = all(0 <= v < n and u in adj[v] for u in range(n) for v in adj[u])
    return loop_free and symmetric and [len(row) for row in adj] == list(terms)


@pytest.mark.parametrize("text", ["4^2,2^4", "4^2,2^3", "4,2^5", "4,2^6"])
def test_oracle_walks_every_sequence_past_the_gate(monkeypatch, text):
    # rules 3..6: these have bowtie placements to try, so each "no" comes
    # from deciding every placement, in the order the realizer tries them,
    # and finding that none completes
    seq = parse_sequence(text)
    assert not any(contains_bowtie(g) is not None for g in enumerate_realizations(seq))
    tried = _spy_on_degree_tests(monkeypatch)
    assert oracle_has_bowtie_realization(seq) is False
    walked = list(_degree_tests(seq.terms))
    assert walked and tried == walked


@pytest.mark.parametrize("text", ["4,2^4", "4,3^2,2^2", "10^2,4^5,2^4"])
def test_oracle_says_yes_at_the_first_placement_that_fits(monkeypatch, text):
    # the oracle stops at the first placement the lay-off kernel completes:
    # the first of 4,2^4, the second of 4,3^2,2^2 and the fifth of
    # 10^2,4^5,2^4 (of 3, 5 and 343)
    seq = parse_sequence(text)
    first = next(
        i
        for i, (bowtie, inner) in enumerate(_placements(seq.terms))
        if _complete(seq.terms, bowtie, inner) is not None
    )
    tried = _spy_on_degree_tests(monkeypatch)
    assert oracle_has_bowtie_realization(seq) is True
    assert tried == list(islice(_degree_tests(seq.terms), first + 1))
    assert first == {"4,2^4": 0, "4,3^2,2^2": 1, "10^2,4^5,2^4": 4}[text]


def test_the_kernel_realizes_exactly_the_graphic_candidates():
    # the verify enumerator's candidates: every nonincreasing positive tuple.
    # With nothing placed the kernel is Havel–Hakimi, so it fails exactly on
    # the non-graphic ones; every completion of a placement realizes the
    # terms label for label and holds the placed edges
    graphic = completed = 0
    for n in range(1, 9):
        for terms in combinations_with_replacement(range(n - 1, 0, -1), n):
            adj = _complete(terms, [], [])
            assert (adj is not None) == _erdos_gallai_ok(terms), terms
            if adj is None:
                continue
            assert _realizes(adj, terms), terms
            graphic += 1
            for bowtie, inner in _placements(terms):
                adj = _complete(terms, bowtie, inner)
                if adj is not None:
                    assert _realizes(adj, terms), (terms, inner)
                    assert all(v in adj[u] for u, v in inner), (terms, inner)
                    completed += 1
            # the oracle's degree test answers what the kernel builds
            completes = any(_complete(terms, b, i) is not None for b, i in _placements(terms))
            assert oracle_has_bowtie_realization(DegreeSequence(terms)) == completes, terms
    assert graphic == 10 + 1202  # n = 2..4, then the verify sweep's n = 5..8
    assert completed == 80276  # of 400 608 placements


def test_the_kernel_builds_the_rows_of_the_documented_lay_off():
    # the kernel's rows against the plain reference's (see _kernel): with
    # nothing placed on every graphic sequence up to n = 9; with every
    # placement up to n = 7, and the first 12 placements of each sequence
    # of length 8 and 9 (the full n <= 9 sweep, 3.4 million placements,
    # runs in CI)
    sequences, compared = compare_with_reference(9, every_up_to=7)
    assert sequences == 10 + 1202 + 3148  # n = 2..4, the verify sweep's 5..8, then 9
    assert compared == 119 + 2554 + 35550 + 9537 + 36576


@pytest.mark.parametrize(
    "text",
    ["4^4,2", "3^2,1^2", pytest.param(",".join(map(str, range(3000, 0, -1))), id="3000,...,1")],
)
def test_oracle_rejects_non_graphic_input_before_the_gate(monkeypatch, text):
    # graphicality is tested before the placement search: 4^4,2 has
    # placements; 3^2,1^2 has none; 3000,2999,...,1 has over 3·10^12
    # choices of wings, so searching first would fail here rather than hang
    monkeypatch.setattr(graphs_module, "_choices", _forbidden)
    with pytest.raises(NotGraphic):
        oracle_has_bowtie_realization(parse_sequence(text))


def test_oracle_proves_graphicality_by_erdos_gallai(monkeypatch):
    # the oracle's graphicality proof is the run-end Erdős–Gallai test: its
    # NotGraphic matches the direct inequality check on every candidate,
    # and no realization is built
    monkeypatch.setattr(graphs_module, "_complete", _forbidden)
    monkeypatch.setattr(graphs_module, "_least_bowtie", _forbidden)
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
    # the walk's limit bounds only the walk: at n = 30 the shared scale
    # table (see _scale) is answered with the walk and the graph path made
    # to fail
    for name in _WALK_AND_GRAPH:
        monkeypatch.setattr(graphs_module, name, _forbidden)
    assert wrong_answers(30) == []


def test_oracle_answers_at_scale(monkeypatch):
    # the shared scale table at n = 20000, with the walk and the graph path
    # made to fail: about 0.05 s for the six on a shared 2-vCPU VM
    # (Python 3.11), where the rule 3 and rule 4 shapes took about 100 s
    # when the oracle searched their Havel–Hakimi realization, a book graph,
    # for a bowtie first
    for name in _WALK_AND_GRAPH:
        monkeypatch.setattr(graphs_module, name, _forbidden)
    start = time.perf_counter()
    assert wrong_answers(20000) == []
    assert time.perf_counter() - start < 5


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
