"""Brute-force reference implementations for the unit tests.

Everything here is written directly from definitions and kept independent
of the library's algorithms (only the SimpleGraph value type is shared),
so a bug in the package cannot hide behind the same bug in its tests.
"""

from __future__ import annotations

from itertools import combinations

from bowtieseq import SimpleGraph


def all_graphs(n: int):
    """Every labelled simple graph on n vertices, via the edge bitmask."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield SimpleGraph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def brute_contains_bowtie(graph: SimpleGraph) -> bool:
    """Bowtie containment by scanning all 5-vertex subsets and centers."""
    for sub in combinations(range(graph.vertex_count), 5):
        for c in sub:
            rest = [v for v in sub if v != c]
            if not all(graph.has_edge(c, v) for v in rest):
                continue
            a, b, d, e = rest
            for p1, p2 in (((a, b), (d, e)), ((a, d), (b, e)), ((a, e), (b, d))):
                if graph.has_edge(*p1) and graph.has_edge(*p2):
                    return True
    return False


def brute_all_witnesses(graph: SimpleGraph) -> list[tuple[int, tuple[int, int], tuple[int, int]]]:
    """All bowtie embeddings as (center, wing1, wing2) with wing1 < wing2,
    wings as sorted pairs, the whole list sorted."""
    found = []
    n = graph.vertex_count
    for c in range(n):
        neighbours = [v for v in range(n) if graph.has_edge(c, v)]
        adjacent_pairs = [
            (a, b) for a, b in combinations(neighbours, 2) if graph.has_edge(a, b)
        ]
        for p1, p2 in combinations(adjacent_pairs, 2):
            if set(p1) & set(p2):
                continue
            found.append((c, p1, p2))
    return sorted(found)


def erdos_gallai_graphic(terms: list[int]) -> bool:
    """Direct Erdos-Gallai inequality test (independent of repeated lay-off)."""
    degs = sorted(terms, reverse=True)
    if any(d < 0 for d in degs):
        return False
    if sum(degs) % 2 != 0:
        return False
    n = len(degs)
    for k in range(1, n + 1):
        lhs = sum(degs[:k])
        rhs = k * (k - 1) + sum(min(d, k) for d in degs[k:])
        if lhs > rhs:
            return False
    return True


def degree_multiset_census(n: int) -> dict[tuple[int, ...], list[SimpleGraph]]:
    """All labelled graphs on n vertices, bucketed by sorted degree multiset."""
    census: dict[tuple[int, ...], list[SimpleGraph]] = {}
    for graph in all_graphs(n):
        key = tuple(sorted(graph.degrees(), reverse=True))
        census.setdefault(key, []).append(graph)
    return census


def nonincreasing_positive_sequences(n: int, max_term: int):
    """Every nonincreasing sequence of n terms drawn from 1..max_term."""

    def extend(prefix: list[int], remaining: int, cap: int):
        if remaining == 0:
            yield tuple(prefix)
            return
        for term in range(cap, 0, -1):
            prefix.append(term)
            yield from extend(prefix, remaining - 1, term)
            prefix.pop()

    yield from extend([], n, max_term)


def lay_off_completion(
    terms: tuple[int, ...], bowtie: list[int], inner: list[tuple[int, int]]
) -> list[set[int]] | None:
    """The realization of ``terms`` that the documented lay-off builds
    around the edges ``inner`` placed on the vertices ``bowtie``, as
    neighbour sets, or None where a vertex finds too few partners.

    Written from the statement, re-sorting at every step: the vertices
    outside the bowtie wait in a list, sorted by remaining demand, largest
    first, ties in vertex order to begin with.  Each bowtie vertex in turn,
    then the front vertex of the list, is joined to the ``need`` vertices of
    largest demand after it, and in the block of equal demand where the
    picks end, to the last members of the block.  Each re-sort is stable,
    so vertices of equal demand keep their order from the step before.
    """
    adj = [set() for _ in terms]
    demand = list(terms)
    for u, v in inner:
        adj[u].add(v)
        adj[v].add(u)
        demand[u] -= 1
        demand[v] -= 1

    def by_demand(v: int) -> int:
        return -demand[v]

    def join(u: int, waiting: list[int]) -> bool:
        need = demand[u]
        live = [v for v in sorted(waiting, key=by_demand) if demand[v] > 0]
        if need > len(live):
            return False
        if need:
            least = demand[live[need - 1]]
            above = [v for v in live if demand[v] > least]
            block = [v for v in live if demand[v] == least]
            for v in above + block[len(block) - (need - len(above)) :]:
                adj[u].add(v)
                adj[v].add(u)
                demand[v] -= 1
            demand[u] = 0
        return True

    waiting = sorted((v for v in range(len(terms)) if v not in bowtie), key=by_demand)
    for u in bowtie:
        if not join(u, waiting):
            return None
    while waiting:
        waiting.sort(key=by_demand)
        u = waiting.pop(0)
        if not join(u, waiting):
            return None
    return adj
