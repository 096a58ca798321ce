"""Simple labelled graphs and the bowtie machinery.

Provides the graph type (one neighbour set per vertex), degree extraction,
bowtie detection, the step that adds one vertex by its neighbours' degrees
(a lay-off run in reverse), the bowtie placement search and its oracle.
The oracle is deliberately independent of the rule-based decision procedure
in the characterize module so the two can cross-validate each other.  The
bowtie placements are enumerated once, by value (``_choices``).  The oracle
decides each one on degrees alone, after Erdős–Gallai has proved the input
graphic: "yes" when some placement completes to a realization, "no" when
none does; it builds no graph.  The realizer puts the placements on
vertices (``_placements``) and builds the first that completes with the one
lay-off kernel, ``_complete``.  The exhaustive enumerator of labelled
realizations for small sequences is on no library path: it is the
reference the search is tested against.

A bowtie is two triangles sharing one vertex: a centre c with four distinct
neighbours a, b, d, e such that ab and de are edges.  Equivalently it is the
5-vertex complete graph minus the edges of a 4-cycle (the tests verify that
isomorphism by brute force).  Both are written once, on the positions
(c, a, b, d, e): ``_BOWTIE`` and ``_CROSS``, the 4-cycle a–d–b–e it lacks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .sequences import DegreeSequence, _quote, format_sequence

ENUMERATION_LIMIT = 10


class ZeroDegreeVertex(ValueError):
    """A graph with an isolated vertex has no positive degree sequence."""


class NotGraphic(ValueError):
    """The sequence admits no realization at all."""


class TooLarge(ValueError):
    """Exhaustive enumeration is capped at ENUMERATION_LIMIT vertices."""


class TraceMismatch(ValueError):
    """The graph's degrees do not fit the lay-off trace being inverted."""


# the bowtie's six edges, centre first, and the cross edges ad, ae, bd and
# be that may join its wings, on the positions (c, a, b, d, e)
_BOWTIE = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4))
_CROSS = ((1, 3), (1, 4), (2, 3), (2, 4))


class SimpleGraph:
    """Immutable labelled simple graph on vertices 0..vertex_count-1, stored as
    rows: row u is the set of u's neighbours, the form ``_complete`` builds."""

    __slots__ = ("_adj",)

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if type(vertex_count) is not int or vertex_count < 0:
            raise ValueError(f"vertex_count must be an int >= 0, got {vertex_count!r}")
        adj: list[set[int]] = [set() for _ in range(vertex_count)]
        for u, v in edges:
            if type(u) is not int or type(v) is not int:  # bool is an int subclass
                raise ValueError(f"edge ({u!r}, {v!r}) has a non-integer endpoint")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) outside 0..{vertex_count - 1}")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = adj

    @classmethod
    def _of(cls, adj: list[set[int]]) -> SimpleGraph:
        """Take over rows of integers, checked as the constructor checks edges."""
        n = len(adj)
        for u, row in enumerate(adj):
            for v in row:
                if not (0 <= v < n and v != u and u in adj[v]):
                    raise ValueError(f"vertex {u} lists {v}: not another vertex that lists {u}")
        graph = cls.__new__(cls)
        graph._adj = adj
        return graph

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges())

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    def sorted_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, row in enumerate(self._adj) for v in sorted(row) if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return type(u) is type(v) is int and 0 <= u < len(self._adj) and v in self._adj[u]

    def degrees(self) -> list[int]:
        return list(map(len, self._adj))

    def adjacency(self) -> list[set[int]]:
        return [set(row) for row in self._adj]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SimpleGraph):
            return self._adj == other._adj
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(map(frozenset, self._adj)))

    def __repr__(self) -> str:
        return f"SimpleGraph({self.vertex_count}, {self.sorted_edges()!r})"


@dataclass(frozen=True)
class BowtieWitness:
    """Vertices of an embedded bowtie: centre plus two disjoint wing pairs."""

    center: int
    wing1: tuple[int, int]
    wing2: tuple[int, int]

    def edges(self) -> list[tuple[int, int]]:
        ends = (self.center, *self.wing1, *self.wing2)
        return [(min(ends[i], ends[j]), max(ends[i], ends[j])) for i, j in _BOWTIE]


def degree_sequence(graph: SimpleGraph) -> DegreeSequence:
    """The graph's degrees as a DegreeSequence; isolated vertices are errors."""
    degs = graph.degrees()
    for v, d in enumerate(degs):
        if d == 0:
            raise ZeroDegreeVertex(f"vertex {v} is isolated")
    return DegreeSequence(degs)


def _least_bowtie(adj: list[set[int]]) -> tuple[int, tuple[int, int], tuple[int, int]] | None:
    """The least bowtie in neighbour sets (adj[u] is the set of u's
    neighbours) as (center, wing1, wing2), for ``contains_bowtie``.

    Centres go in increasing order; for each, the wing pairs (a, b), a < b,
    in lexicographic order, and the first with a vertex-disjoint later pair
    (d, e) wins with the least one: the first d above a, not b, with a
    neighbour e above it, not b.  So the result is the minimum under tuple
    order.  Memory is linear in the edge count; each triangle on a centre
    costs at most one walk of its neighbours (quadratic in its degree on the
    book graph K_{1,1,m}).
    """
    for center, around in enumerate(adj):
        if len(around) < 4:
            continue
        ns = sorted(around)
        for i, a in enumerate(ns):
            partners = adj[a] & around
            if not partners:  # spares the slice: a star's centre stays linear
                continue
            later = ns[i + 1 :]
            for b in sorted(partners):
                if b < a:
                    continue
                rest = set(later)  # the second wing lies above a and avoids b
                rest.discard(b)
                for d in later:
                    rest.discard(d)
                    if d != b and not rest.isdisjoint(adj[d]):
                        return center, (a, b), (d, min(rest & adj[d]))
    return None


def contains_bowtie(graph: SimpleGraph) -> BowtieWitness | None:
    """Find the least bowtie embedding, or None.

    The witness is the minimum under (center, wing1, wing2) tuple order, so
    adding edges to the graph can never lose it.
    """
    found = _least_bowtie(graph._adj)
    return BowtieWitness(*found) if found else None


def attach_by_degrees(graph: SimpleGraph, neighbour_degrees: Iterable[int]) -> SimpleGraph:
    """Add one vertex adjacent to distinct vertices with the given degrees.

    For each required degree (largest first) the lowest-index unused vertex
    currently of that degree is chosen; required zeros create fresh isolated
    vertices first.  This inverts a lay-off step at the degree level and is
    what ``reattach`` does.  Equal required degrees come in a row; each
    looks above the last pick.
    """
    degrees = graph.degrees()
    edges = list(graph.edges)
    picks: list[int] = []
    for target in sorted(neighbour_degrees, reverse=True):
        if target == 0:
            picks.append(len(degrees))
            degrees.append(0)
            continue
        start = picks[-1] + 1 if picks and degrees[picks[-1]] == target else 0
        try:
            picks.append(degrees.index(target, start))
        except ValueError:
            raise TraceMismatch(f"no unused vertex of degree {target}") from None
    edges.extend((v, len(degrees)) for v in picks)
    return SimpleGraph(len(degrees) + 1, edges)


def _erdos_gallai_ok(residual: Sequence[int]) -> bool:
    """Whether the residual demands (zeros allowed, any order) extend to a
    simple graph.

    The parity of the sum is tested first: it refutes about half of the
    verify module's candidates before anything is sorted.  The positive
    demands are the m sorted ones left once the zeros are trimmed from the
    tail.  If any Erdős–Gallai inequality fails, one fails where a run of
    equal degrees ends (Tripathi & Vijay, Discrete Math. 2003), so only
    those k are tested, and the tail sum is skipped where prefix <= k(k-1)
    holds on its own.  The last run ends at k = m, where the inequality,
    total <= m(m-1), follows from the test that no term exceeds m - 1.  The
    answer is the one the full set of inequalities gives.  It is the
    graphicality proof of the oracle, of each placement it decides, of the
    walk's prune and of the verify module's enumerator.  The realizer needs
    none: ``_complete`` decides graphicality as it builds the realization.
    """
    if sum(residual) % 2:
        return False
    degs = sorted(residual, reverse=True)
    m = len(degs)
    while m and not degs[m - 1]:
        m -= 1
    if m and degs[0] >= m:
        return False
    prefix = 0
    for k in range(1, m):
        d = degs[k - 1]
        prefix += d
        if d == degs[k] or prefix <= k * (k - 1):
            continue
        bound = k * (k - 1)
        for x in degs[k:m]:
            bound += x if x < k else k
        if prefix > bound:
            return False
    return True


def enumerate_realizations(seq: DegreeSequence) -> Iterator[SimpleGraph]:
    """Yield every labelled realization of the sequence, deterministically.

    Vertex i carries the i-th term of the (nonincreasing) sequence.  The
    search is a plain recursion: vertex u, in increasing order, picks its
    neighbours among the higher vertices that still have demand, as
    combinations in lexicographic order; a pick is kept only if the
    remaining demands pass the exact Erdős–Gallai prune, and the edges
    chosen so far are passed down.  So the stream is duplicate-free,
    exhaustive, and identical between runs.  It is exponential, so no
    library path runs it: the tests compare the placement search against it.

    Raises TooLarge beyond ENUMERATION_LIMIT vertices and NotGraphic for
    sequences with no realization.
    """
    n = len(seq)
    if n > ENUMERATION_LIMIT:
        raise TooLarge(f"enumeration is limited to {ENUMERATION_LIMIT} vertices, got {n}")
    if not _erdos_gallai_ok(seq.terms):
        raise NotGraphic(f"{seq} is not graphic")

    def walk(u: int, residual: list[int], edges: list[tuple[int, int]]) -> Iterator[SimpleGraph]:
        while u < n and residual[u] == 0:
            u += 1
        if u == n:
            yield SimpleGraph(n, edges)
            return
        candidates = [v for v in range(u + 1, n) if residual[v]]
        for chosen in combinations(candidates, residual[u]):
            rest = list(residual)
            for v in chosen:
                rest[v] -= 1
            if _erdos_gallai_ok(rest[u + 1 :]):
                yield from walk(u + 1, rest, edges + [(u, v) for v in chosen])

    yield from walk(0, list(seq.terms), [])


_Layout = tuple[tuple[tuple[int, int], ...], tuple[int, ...]]


@cache
def _layouts(room: tuple[int, int, int, int]) -> tuple[_Layout, ...]:
    """Every way to lay out a bowtie on the positions 0..4 of a centre and
    wings w, x, y and z that may take room[i] cross edges each, as (edges,
    inside): each of the three pairings of the wings into (a, b, d, e), then
    each subset of ``_CROSS`` that fits the room, from all four down (as
    bits 0..3 of a mask), with the edges as position pairs, ``_BOWTIE``'s
    first, and the degree each position then has inside the bowtie."""
    if room != (2, 2, 2, 2):  # each layout is built once, in the room that takes all 48
        every = _layouts((2, 2, 2, 2))
        return tuple(lay for lay in every if all(i - 2 <= r for i, r in zip(lay[1][1:], room)))
    found = []
    for ends in ((0, 1, 2, 3, 4), (0, 1, 3, 2, 4), (0, 1, 4, 2, 3)):  # c, a, b, d, e
        for mask in range(15, -1, -1):
            pairs = _BOWTIE + tuple(edge for bit, edge in enumerate(_CROSS) if mask >> bit & 1)
            edges = tuple((ends[i], ends[j]) for i, j in pairs)
            found.append((edges, tuple(sum(p in edge for edge in edges) for p in range(5))))
    return tuple(found)


# bounded: its keys are degrees.  Looking ``_layouts`` up by room instead
# was slower on the bench's verify+sigma op (N = 5..8, in-process) in 9 of 10
# alternating pairs: 28.3-45.7 against 25.3-29.6 ms (Python 3.11, 2-vCPU VM)
@lru_cache(maxsize=1024)
def _arrangements(wings: tuple[int, int, int, int]) -> tuple[_Layout, ...]:
    """The ``_layouts`` of wings of the degrees ``wings``: a wing of degree
    t takes at most t - 2 cross edges (and no wing has more than two)."""
    return _layouts(tuple(min(t - 2, 2) for t in wings))


def _choices(terms: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...], tuple]]:
    """Every bowtie placement up to equal degrees that the degrees allow, by
    value, as (centre, wings, arrangements): each centre value >= 4 and each
    multiset of four wing values >= 2 among the other terms, nonincreasing,
    both from the largest values down, with the ``_arrangements`` of those
    wings.  Without a term >= 4 and four more >= 2 there is none."""
    for centre in dict.fromkeys(terms):  # the values, largest first
        if centre < 4:
            return
        rest = list(terms)
        rest.remove(centre)
        # at most four of a value: a term is kept unless the one four places
        # before it is equal
        values = [t for t, before in zip(rest, (0, 0, 0, 0, *rest)) if t != before and t >= 2]
        # the combinations of a nonincreasing list come in decreasing
        # lexicographic order; each multiset is taken at its first one
        seen = set()
        for wings in combinations(values, 4):
            if wings not in seen:
                seen.add(wings)
                yield centre, wings, _arrangements(wings)


def _placements(terms: tuple[int, ...]) -> Iterator[tuple[list[int], list[tuple[int, int]]]]:
    """The ``_choices`` on vertices, as (vertices c, w, x, y, z; edges):
    vertex i has degree terms[i], and each value goes on the lowest free
    vertices of its class.  The edges are the ``_layouts``' position pairs,
    ``_BOWTIE``'s six and then the cross edges, put on those vertices."""
    first: dict[int, int] = {}  # each value's lowest vertex
    for v, value in enumerate(terms):
        first.setdefault(value, v)
    for centre, wings, arrangements in _choices(terms):
        # the j-th wing of a value skips the earlier ones, and the centre
        bowtie = [first[centre]] + [
            first[value] + j - wings.index(value) + (value == centre)
            for j, value in enumerate(wings)
        ]
        for edges, _ in arrangements:
            yield bowtie, [(bowtie[i], bowtie[j]) for i, j in edges]


def _complete(
    terms: tuple[int, ...], bowtie: list[int], inner: list[tuple[int, int]]
) -> list[set[int]] | None:
    """A realization of the nonincreasing ``terms`` that holds the edges
    ``inner`` placed on the vertices ``bowtie``, as neighbour sets (the form
    ``SimpleGraph.adjacency`` returns and ``_least_bowtie`` reads), or None
    if there is none: the realizer's builder.  With nothing placed it is
    Havel–Hakimi's realization, so it is None exactly when the terms are
    not graphic.  The oracle decides the same question on degrees alone
    (``_fits``), with no graph.

    The outside vertices wait in one list, stably sorted by remaining
    demand, largest first; with nothing placed that is the vertices in
    order.  Each bowtie vertex in turn, then the front vertex of the list,
    takes the ``need`` vertices of largest demand after it, and fails if
    fewer than ``need`` have demand left.  In the block of equal demand
    where the picks end it takes the last members, so the list stays sorted
    once their demands drop; vertices whose demand reaches zero are then at
    its tail, and a walk back from the end trims them (the end only moves
    down, so the walks cost linear time in all).

    This is exact, by a switching argument.  If a realization holds the
    placement and joins a bowtie vertex v to an outside vertex x but not to
    an outside y of larger remaining demand, then y has a neighbour z, not
    x, that x lacks, and trading vx, yz for vy, xz keeps every degree and
    every bowtie edge.  So v may take the largest demands (the lay-off of
    Kleitman & Wang 1973, kept outside the bowtie), and after the fifth
    bowtie vertex what is left is a graph on the outside vertices alone,
    which Havel–Hakimi builds if it exists.  Outside vertices of equal
    demand trade places by relabelling, since no vertex still to lay off is
    joined to either, so any tie rule is exact.  A bowtie in any
    realization is one of the ``_placements`` after relabelling equal
    degrees, so a graphic sequence has a realization with a bowtie exactly
    when some placement completes.  What decides a placement is only the
    demands: those the bowtie vertices lay off and the outside demands that
    remain, which Havel–Hakimi, like Erdős–Gallai, accepts exactly when they
    are graphic.
    """
    adj: list[set[int]] = [set() for _ in terms]
    short = [-t for t in terms]  # minus the remaining demands: a key in C
    for u, v in inner:
        adj[u].add(v)
        adj[v].add(u)
        short[u] += 1
        short[v] += 1
    key = short.__getitem__
    # the bowtie vertices lay off first, then each outside vertex from the
    # front; order[:size] is what the trimming leaves.  Nonincreasing terms
    # are already sorted when nothing is placed
    if bowtie:
        order = bowtie + sorted([v for v in range(len(terms)) if v not in bowtie], key=key)
    else:
        order = list(range(len(terms)))
    size = len(order)
    placed = len(bowtie)
    for at, u in enumerate(order):
        if at >= size:  # every vertex past the trimmed end has no demand left
            break
        need = -short[u]
        if not need:
            continue
        first = at + 1 if at >= placed else placed  # candidates from here
        end = first + need
        if end > size:
            return None
        least = short[order[end - 1]]  # the key of the block the picks end in
        if end == size or short[order[end]] != least:
            picks = order[first:end]
        else:  # the block runs past the picks: take its last members
            lo = bisect_left(order, least, first, end, key=key)
            hi = bisect_right(order, least, end, size, key=key)
            picks = order[first:lo] + order[hi - end + lo : hi]
        adj[u].update(picks)
        for v in picks:
            adj[v].add(u)
            short[v] += 1
        while size > first and not short[order[size - 1]]:  # trim the zeros
            size -= 1
    return adj


def _fits(outside: list[int], needs: tuple[int, ...]) -> bool:
    """Whether bowtie vertices that still need ``needs`` outside neighbours
    complete to a realization with outside vertices of the demands
    ``outside`` (nonincreasing, positive): ``_complete``'s answer, decided
    on degrees.  Each need in turn takes the largest demands left, as the
    switching argument of ``_complete`` allows, and Erdős–Gallai decides
    the outside demands that remain."""
    demands = list(outside)
    for need in needs:
        if not need:
            continue
        if need > len(demands):
            return False
        for j in range(need):
            demands[j] -= 1
        demands.sort(reverse=True)
        while demands and not demands[-1]:
            demands.pop()
    return not demands or _erdos_gallai_ok(demands)


def oracle_has_bowtie_realization(seq: DegreeSequence) -> bool:
    """Rules-free ground truth: does any realization contain a bowtie?

    Erdős–Gallai proves the input graphic first (NotGraphic otherwise).
    Then each bowtie placement of ``_choices``, in order, is decided on
    degrees by ``_fits``: "yes" at the first one that completes to a
    realization, "no" when none does.  That is exact by the switching
    argument of ``_complete``, and no graph is built.  Graphicality must
    come first: a non-graphic input with many distinct terms has
    placements in the fifth power of their number.  Each step is
    polynomial, so it answers at any length; the characterize module's
    rules are validated against this oracle, so it uses none of them.
    """
    terms = seq.terms
    if not _erdos_gallai_ok(terms):
        raise NotGraphic(f"{_quote(format_sequence(seq))} is not graphic")
    for centre, (w, x, y, z), arrangements in _choices(terms):
        outside = list(terms)
        for value in (centre, w, x, y, z):
            outside.remove(value)
        for _, (ic, iw, ix, iy, iz) in arrangements:
            if _fits(outside, (centre - ic, w - iw, x - ix, y - iy, z - iz)):
                return True
    return False


def _witness_header(witness: BowtieWitness) -> str:
    """The witness as one comment text, shared by both output formats."""
    (a, b), (d, e) = witness.wing1, witness.wing2
    return f"bowtie center {witness.center} wings {a},{b} {d},{e}"


def edge_list_text(graph: SimpleGraph, witness: BowtieWitness | None = None) -> str:
    """Edge list wire format: one "u v" line per edge, 0-based, sorted.

    A witness, when given, is recorded as a leading '#' comment line.
    """
    lines = [] if witness is None else [f"# {_witness_header(witness)}"]
    lines.extend(f"{u} {v}" for u, row in enumerate(graph._adj) for v in sorted(row) if u < v)
    return "\n".join(lines) + "\n"


def dot_text(graph: SimpleGraph, witness: BowtieWitness | None = None) -> str:
    """Undirected DOT rendering with plain integer node ids."""
    lines = ["graph {"]
    if witness is not None:
        lines.append(f"  // {_witness_header(witness)}")
    lines.extend(f"  {v};" for v, row in enumerate(graph._adj) if not row)
    lines.extend(f"  {u} -- {v};" for u, v in graph.sorted_edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
