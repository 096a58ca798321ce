"""Simple labelled graphs and the bowtie machinery.

Provides the graph value type, degree extraction, bowtie-subgraph detection,
the step that adds one vertex by its neighbours' degrees (a lay-off run in
reverse), the exact bowtie placement search and the oracle built on it.
The oracle is deliberately independent of the rule-based decision procedure
in the characterize module so the two can cross-validate each other.  A
"yes" is certified by one greedy realization that holds a bowtie, or else
by a bowtie placement that completes; a "no" means no placement completes.
The realizer builds its realizations with the same search.  The exhaustive
enumerator of labelled realizations for small sequences is on no library
path: it is the reference the search is tested against.

A bowtie is two triangles sharing one vertex: a centre c with four distinct
neighbours a, b, d, e such that ab and de are edges.  Equivalently it is the
5-vertex complete graph minus the edges of a 4-cycle (the tests verify that
isomorphism by brute force).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Iterable, Iterator

from .sequences import DegreeSequence

ENUMERATION_LIMIT = 10


class ZeroDegreeVertex(ValueError):
    """A graph with an isolated vertex has no positive degree sequence."""


class NotGraphic(ValueError):
    """The sequence admits no realization at all."""


class TooLarge(ValueError):
    """Exhaustive enumeration is capped at ENUMERATION_LIMIT vertices."""


class TraceMismatch(ValueError):
    """The graph's degrees do not fit the lay-off trace being inverted."""


class SimpleGraph:
    """Immutable labelled simple graph on vertices 0..vertex_count-1."""

    __slots__ = ("_n", "_edges")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if vertex_count < 0:
            raise ValueError(f"vertex_count must be >= 0, got {vertex_count}")
        normalized = set()
        for u, v in edges:
            if type(u) is not int or type(v) is not int:  # bool is an int subclass
                raise ValueError(f"edge ({u!r}, {v!r}) has a non-integer endpoint")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) outside 0..{vertex_count - 1}")
            normalized.add((u, v) if u < v else (v, u))
        self._n = vertex_count
        self._edges = frozenset(normalized)

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edges

    def degrees(self) -> list[int]:
        degs = [0] * self._n
        for u, v in self._edges:
            degs[u] += 1
            degs[v] += 1
        return degs

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self._n)]
        for u, v in self._edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SimpleGraph):
            return self._n == other._n and self._edges == other._edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"SimpleGraph({self._n}, {self.sorted_edges()!r})"


@dataclass(frozen=True)
class BowtieWitness:
    """Vertices of an embedded bowtie: centre plus two disjoint wing pairs."""

    center: int
    wing1: tuple[int, int]
    wing2: tuple[int, int]

    def edges(self) -> list[tuple[int, int]]:
        c = self.center
        a, b = self.wing1
        d, e = self.wing2
        pairs = [(c, a), (c, b), (c, d), (c, e), (a, b), (d, e)]
        return [(u, v) if u < v else (v, u) for u, v in pairs]


def degree_sequence(graph: SimpleGraph) -> DegreeSequence:
    """The graph's degrees as a DegreeSequence; isolated vertices are errors."""
    degs = graph.degrees()
    for v, d in enumerate(degs):
        if d == 0:
            raise ZeroDegreeVertex(f"vertex {v} is isolated")
    return DegreeSequence(degs)


def _least_bowtie(adj: list[int]) -> BowtieWitness | None:
    """Least bowtie in a bitmask adjacency (bit v of adj[u] is the edge uv).

    Centres are scanned in increasing order.  For each centre the wing pairs
    (a, b), a < b, come in lexicographic order, and the first one that has a
    vertex-disjoint later pair (d, e) wins together with the least such
    pair.  The result is therefore the minimum witness under (center, wing1,
    wing2) tuple order.  Neighbours are read off the set bits, so the work
    per centre depends on its degree, not on the vertex count.
    """
    for center, around in enumerate(adj):
        if around.bit_count() < 4:
            continue
        above = around  # neighbours of the centre above the current a
        while above:
            low = above & -above
            above ^= low
            a = low.bit_length() - 1
            partners = adj[a] & above
            while partners:
                b_bit = partners & -partners
                partners ^= b_bit
                # a later disjoint pair lies above a and avoids b
                seconds = above & ~b_bit
                while seconds:
                    d_bit = seconds & -seconds
                    seconds ^= d_bit
                    mates = adj[d_bit.bit_length() - 1] & seconds
                    if mates:
                        return BowtieWitness(
                            center=center,
                            wing1=(a, b_bit.bit_length() - 1),
                            wing2=(
                                d_bit.bit_length() - 1,
                                (mates & -mates).bit_length() - 1,
                            ),
                        )
    return None


def contains_bowtie(graph: SimpleGraph) -> BowtieWitness | None:
    """Find the least bowtie embedding, or None.

    The witness is the minimum under (center, wing1, wing2) tuple order, so
    adding edges to the graph can never lose it.
    """
    bit = [1 << v for v in range(graph.vertex_count)]
    adj = [0] * graph.vertex_count
    for u, v in graph.edges:
        adj[u] |= bit[v]
        adj[v] |= bit[u]
    return _least_bowtie(adj)


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


def _erdos_gallai_ok(residual: Iterable[int]) -> bool:
    """Whether the residual demands (zeros allowed) extend to a simple graph.

    If any Erdős–Gallai inequality fails, one fails where a run of equal
    degrees ends (Tripathi & Vijay, Discrete Math. 2003), so only those k
    are tested, and the tail sum is skipped where prefix <= k(k-1) holds
    on its own.  The answer is the one the full set of inequalities gives.
    This is the graphicality proof of the walk's prune, of the oracle's
    guard and of the verify module's enumerator alike; the placement search
    needs none, since its Havel–Hakimi completion decides the outside as it
    builds it.
    """
    degs = sorted(residual, reverse=True)
    degs.append(0)  # sentinel: closes the last run and bounds the positives
    if sum(degs) % 2 != 0:
        return False
    m = degs.index(0)
    if m and degs[0] >= m:
        return False
    prefix = 0
    for k in range(1, m + 1):
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


def _check_enumerable(seq: DegreeSequence) -> None:
    n = len(seq)
    if n > ENUMERATION_LIMIT:
        raise TooLarge(f"enumeration is limited to {ENUMERATION_LIMIT} vertices, got {n}")
    if not _erdos_gallai_ok(seq.terms):
        raise NotGraphic(f"{seq} is not graphic")


def enumerate_realizations(seq: DegreeSequence) -> Iterator[SimpleGraph]:
    """Yield every labelled realization of the sequence, deterministically.

    Vertex i carries the i-th term of the (nonincreasing) sequence.
    Vertex u, in increasing order, picks its neighbours among the higher
    vertices that still have demand, as combinations in lexicographic
    order; a pick is kept only if the remaining demands pass the exact
    Erdős–Gallai prune.  So the stream is duplicate-free, exhaustive, and
    identical between runs.  The walk keeps one frame per vertex on an
    explicit stack and updates ``residual`` and the bitmask adjacency
    ``adj`` (bit v of adj[u] is the edge uv) in place.  It is exponential,
    so no library path runs it: the tests compare the placement search
    against it.

    Raises TooLarge beyond ENUMERATION_LIMIT vertices and NotGraphic for
    sequences with no realization.
    """
    _check_enumerable(seq)
    n = len(seq)
    residual = list(seq.terms)
    adj = [0] * n
    # frame: [vertex, its demand, its remaining picks, its current pick]
    stack: list[list] = []
    u = 0
    while True:
        while u < n and residual[u] == 0:
            u += 1
        if u == n:
            yield SimpleGraph(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]
            )
        else:
            need = residual[u]
            residual[u] = 0
            candidates = [v for v in range(u + 1, n) if residual[v]]
            stack.append([u, need, combinations(candidates, need), ()])
        # Move the top frame on to its next surviving pick; drop spent frames.
        while stack:
            frame = stack[-1]
            u, need, picks, chosen = frame
            bit = 1 << u
            for v in chosen:
                residual[v] += 1
                adj[v] ^= bit
            adj[u] &= bit - 1
            for chosen in picks:
                for v in chosen:
                    residual[v] -= 1
                if _erdos_gallai_ok(residual[u + 1 :]):
                    break
                for v in chosen:
                    residual[v] += 1
            else:
                residual[u] = need
                stack.pop()
                continue
            for v in chosen:
                adj[v] |= bit
                adj[u] |= 1 << v
            frame[3] = chosen
            u += 1
            break
        else:
            return


def _greedy_realization(terms: tuple[int, ...]) -> list[int] | None:
    """One realization of ``terms`` as a bitmask adjacency, or None.

    Vertices go in index order; each joins as many later vertices as it
    still needs, those of largest residual demand first and the lowest
    index among equals.  This lays off every vertex in turn in the manner
    of Kleitman & Wang (1973), so it fails, returning None, only when the
    terms are not graphic: some vertex finds too few later vertices with
    demand left.
    """
    n = len(terms)
    residual = list(terms)
    adj = [0] * n
    for u in range(n):
        need = residual[u]
        if not need:
            continue
        # sorted is stable under reverse, so equal demands keep index order
        picks = sorted(range(u + 1, n), key=residual.__getitem__, reverse=True)[:need]
        if len(picks) < need or not residual[picks[-1]]:
            return None
        for v in picks:
            residual[v] -= 1
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


@cache
def _cross_subsets(room: tuple[int, ...]) -> tuple[int, ...]:
    """The subsets of the cross edges ad, ae, bd and be, as bits 0..3 of a
    mask from all four down, that leave wings a, b, d and e at most room[i]
    cross edges each.  Wing a's cross edges are the bits of 3, b's of 12,
    d's of 5 and e's of 10."""
    return tuple(
        mask
        for mask in range(15, -1, -1)
        if all(bin(mask & bits).count("1") <= r for bits, r in zip((3, 12, 5, 10), room))
    )


def _placements(terms: tuple[int, ...]) -> Iterator[tuple[list[int], list[tuple[int, int]]]]:
    """Every bowtie placement up to equal degrees that the degrees allow, as
    (vertices c, a, b, d, e; edges): each centre value >= 4 and multiset of
    four wing values >= 2, from the largest values down, each of the three
    wing pairings, and each subset of the cross edges, from all four down,
    that leaves a wing of degree t at most t - 2 of them.  Vertex i has degree
    terms[i], and a value goes on the lowest free vertices of its class.
    Without a vertex of degree >= 4 and four more of degree >= 2 there is
    none."""
    first: dict[int, int] = {}  # each value's lowest vertex, largest value first
    for v, value in enumerate(terms):
        first.setdefault(value, v)
    for centre in [value for value in first if value >= 4]:
        c = first[centre]
        # the wing candidates: the lowest four vertices of each class but c
        pool = [
            v
            for v, value in enumerate(terms)
            if value >= 2 and v != c and v - first[value] < 4 + (value == centre)
        ]
        placed: set[tuple[int, ...]] = set()  # the wing values placed so far
        for w, x, y, z in combinations(pool, 4):
            values = (terms[w], terms[x], terms[y], terms[z])
            if values in placed:
                continue
            placed.add(values)
            for a, b, d, e in ((w, x, y, z), (w, y, x, z), (w, z, x, y)):
                star = [(c, a), (c, b), (c, d), (c, e), (a, b), (d, e)]
                cross = ((a, d), (a, e), (b, d), (b, e))
                # no wing takes more than two cross edges, so 3^4 rooms at most
                room = tuple(min(terms[v] - 2, 2) for v in (a, b, d, e))
                for mask in _cross_subsets(room):
                    yield [c, w, x, y, z], star + [cross[j] for j in range(4) if mask >> j & 1]


def _complete(
    terms: tuple[int, ...], bowtie: list[int], inner: list[tuple[int, int]]
) -> SimpleGraph | None:
    """A realization that holds one bowtie placement, or None if there is none.

    ``join(u, need)`` joins u to the ``need`` outside vertices of largest
    remaining demand, the lowest index first among equals, and fails if
    fewer than ``need`` have demand left.  Each bowtie vertex joins in turn,
    then the outside vertex of largest demand, until none has any.

    This is exact, by a switching argument.  If a realization holds the
    placement and joins a bowtie vertex v to an outside vertex x but not to
    an outside y of larger remaining demand, then y has a neighbour z, not
    x, that x lacks, and trading vx, yz for vy, xz keeps every degree and
    every bowtie edge.  So v may take the largest demands (the lay-off of
    Kleitman & Wang 1973, kept outside the bowtie), and after the fifth
    bowtie vertex what is left is a graph on the outside vertices alone,
    which Havel–Hakimi builds if it exists.  A bowtie in any realization is
    one of the ``_placements`` after relabelling equal degrees, so a graphic
    sequence has a realization with a bowtie exactly when some placement
    completes.
    """
    demand = list(terms)
    for u, v in inner:
        demand[u] -= 1
        demand[v] -= 1
    heap = [(-demand[v], v) for v in range(len(terms)) if v not in bowtie]
    heapify(heap)
    edges = list(inner)

    def join(u: int, need: int) -> bool:
        if need > len(heap):
            return False
        for left, v in [heappop(heap) for _ in range(need)]:
            edges.append((u, v))
            if left < -1:
                heappush(heap, (left + 1, v))
        return True

    if not all(join(v, demand[v]) for v in bowtie):
        return None
    while heap:
        need, u = heappop(heap)
        if not join(u, -need):
            return None
    return SimpleGraph(len(terms), edges)


def oracle_has_bowtie_realization(seq: DegreeSequence) -> bool:
    """Rules-free ground truth: does any realization contain a bowtie?

    One greedy realization comes first: it proves the input graphic (the
    Erdős–Gallai test runs only when it fails), and a bowtie in it is a
    concrete certificate for "yes".  Otherwise the placement search
    decides, exactly by the switching argument of ``_complete``: "yes"
    when some placement completes to a realization, "no" when none does.
    Usable only within the enumeration limit; the characterize module's
    rules are validated against this oracle, so it uses none of them.
    """
    terms = seq.terms
    greedy = _greedy_realization(terms) if len(terms) <= ENUMERATION_LIMIT else None
    if greedy is None:
        _check_enumerable(seq)  # TooLarge, or NotGraphic if Erdős–Gallai fails too
    if greedy is not None and _least_bowtie(greedy) is not None:
        return True
    return any(_complete(terms, bowtie, inner) is not None for bowtie, inner in _placements(terms))


def _witness_header(witness: BowtieWitness) -> str:
    """The witness as one comment text, shared by both output formats."""
    (a, b), (d, e) = witness.wing1, witness.wing2
    return f"bowtie center {witness.center} wings {a},{b} {d},{e}"


def edge_list_text(graph: SimpleGraph, witness: BowtieWitness | None = None) -> str:
    """Edge list wire format: one "u v" line per edge, 0-based, sorted.

    A witness, when given, is recorded as a leading '#' comment line.
    """
    lines = [] if witness is None else [f"# {_witness_header(witness)}"]
    lines.extend(f"{u} {v}" for u, v in graph.sorted_edges())
    return "\n".join(lines) + "\n"


def dot_text(graph: SimpleGraph, witness: BowtieWitness | None = None) -> str:
    """Undirected DOT rendering with plain integer node ids."""
    lines = ["graph {"]
    if witness is not None:
        lines.append(f"  // {_witness_header(witness)}")
    touched = [False] * graph.vertex_count
    for u, v in graph.sorted_edges():
        touched[u] = touched[v] = True
    for v, seen in enumerate(touched):
        if not seen:
            lines.append(f"  {v};")
    lines.extend(f"  {u} -- {v};" for u, v in graph.sorted_edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
