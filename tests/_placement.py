"""Bowtie realizability by placing the bowtie first: a reference decider.

    PYTHONPATH=src python tests/_placement.py MAX_N

compares ``has_bowtie_realization`` with the decision rules and with the
oracle ``oracle_has_bowtie_realization`` on every rule 3 or rule 4 shape of
length 11..MAX_N and on every graphic neighbour of one, realizes each
accepted one with ``realize_with_bowtie`` and checks the graph's
certificate, and exits 1 on any disagreement or bad graph.  Tier-1 calls
``rule_shape_report(20)``; CI runs MAX_N = 30.

The decider uses nothing of the package, only the bowtie's definition, one
switching argument and the Erdős–Gallai test of ``_brute``.  A bowtie is a
centre c joined to wings a, b, d, e, with the wing edges ab and de.  Its
five vertices induce the bowtie plus some of the four cross edges ad, ae,
bd and be, so a graph has a bowtie exactly when, for some choice of

- a centre degree >= 4 and four wing degrees >= 2 from the sequence,
- a pairing of the wings, and
- a subset of the cross edges,

the rest of the graph exists: a graph H on all n vertices in which the five
bowtie vertices are pairwise non-adjacent, each bowtie vertex v has degree
r(v) = d(v) minus its degree inside the bowtie, and each outside vertex its
own degree.

H is decided greedily.  Say H exists, a bowtie vertex v is joined to the
outside vertex x but not to the outside vertex y, and d_H(y) > d_H(x).  Then
N(y) minus x has at least as many vertices as N(x) minus y, and lacks v,
which N(x) has, so y has a neighbour z, not x, that x lacks.  Trading the
edges vx, yz for vy, xz keeps every degree and adds no edge between two
bowtie vertices, since x and y are outside.  Outside vertices of equal
demand trade places by relabelling.  So v may take the r(v) outside vertices
of largest demand: the lay-off of Kleitman & Wang, kept outside the bowtie.
Removing v leaves the same kind of problem, and after the fifth bowtie
vertex what is left must be a graph on the outside vertices alone, which
Erdős–Gallai decides exactly.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from collections.abc import Iterator, Sequence
from itertools import combinations

from _brute import erdos_gallai_graphic

# the four cross edges as (wing, wing) positions in (a, b, d, e)
CROSS_EDGES = ((0, 2), (0, 3), (1, 2), (1, 3))


def _wing_choices(pool: Counter) -> set[tuple[int, ...]]:
    """Every multiset of four wing degrees >= 2 the pool can supply."""
    values = [v for v in sorted(pool, reverse=True) if v >= 2 for _ in range(min(pool[v], 4))]
    return set(combinations(values, 4))


def _outside_is_realizable(outside: list[int], needs: Sequence[int]) -> bool:
    """Join each bowtie vertex in turn to the outside vertices of largest
    demand, then test what the outside vertices still demand."""
    demands = list(outside)
    for need in needs:
        if need > len(demands):
            return False
        demands.sort(reverse=True)
        for j in range(need):
            demands[j] -= 1
    return erdos_gallai_graphic(demands)


def has_bowtie_realization(terms: Sequence[int]) -> bool:
    """Does some realization of the degrees ``terms`` contain a bowtie?"""
    counts = Counter(terms)
    for centre in [v for v in counts if v >= 4]:
        pool = counts.copy()
        pool[centre] -= 1
        for p, q, r, s in _wing_choices(pool):
            outside = list((pool - Counter((p, q, r, s))).elements())
            for wings in ((p, q, r, s), (p, r, q, s), (p, s, q, r)):
                for mask in range(16):
                    inside = [2, 2, 2, 2]
                    for bit, (x, y) in enumerate(CROSS_EDGES):
                        if mask >> bit & 1:
                            inside[x] += 1
                            inside[y] += 1
                    needs = [centre - 4] + [w - i for w, i in zip(wings, inside)]
                    if min(needs) >= 0 and _outside_is_realizable(outside, needs):
                        return True
    return False


def rule_shapes(n: int) -> Iterator[tuple[int, ...]]:
    """The shapes of length n that rules 3 and 4 reject, written from the
    rules' statement: (n-2, n-2, 2^(n-2)) and (n-k, k+i, 2^i, 1^(n-i-2))."""
    yield (n - 2, n - 2) + (2,) * (n - 2)
    for k in range(1, (n - 1) // 2):
        for i in range(3, n - 2 * k + 1):
            yield (n - k, k + i) + (2,) * i + (1,) * (n - i - 2)


def _bump(terms: tuple[int, ...], *steps: tuple[int, int]) -> tuple[int, ...]:
    bumped = list(terms)
    for index, delta in steps:
        bumped[index] += delta
    return tuple(bumped)


def neighbours(terms: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every sequence one step away from the nonincreasing ``terms``, up to
    the order of terms: one term +1 and another -1, one term +2, or two
    terms +1 each (terms may drop to 0; the caller filters)."""
    # equal terms give equal neighbours, so two places per value suffice
    places = [j for j in range(len(terms)) if j < 2 or terms[j] != terms[j - 2]]
    for x in places:
        yield _bump(terms, (x, 2))
        for y in places:
            if y != x:
                yield _bump(terms, (x, 1), (y, -1))
            if y > x:
                yield _bump(terms, (x, 1), (y, 1))


def rule_shape_neighbourhood(n: int) -> set[tuple[int, ...]]:
    """The graphic rule 3/4 shapes of length n and their graphic neighbours
    with positive terms, each sorted nonincreasing."""
    found = set()
    for shape in rule_shapes(n):
        for terms in (shape, *neighbours(shape)):
            terms = tuple(sorted(terms, reverse=True))
            if terms[-1] >= 1 and terms not in found and erdos_gallai_graphic(list(terms)):
                found.add(terms)
    return found


def rule_shape_report(max_n: int) -> tuple[int, int, list[str], list[str]]:
    """Compare the rules and the oracle with ``has_bowtie_realization`` on
    every sequence of ``rule_shape_neighbourhood(n)`` for n = 11..max_n, and
    realize each accepted one and check its certificate.  Return the number
    of sequences, the number realized, the rules' mismatches (with any bad
    realization) and the oracle's mismatches."""
    # the rules, the oracle and the realizer under test
    from bowtieseq import DegreeSequence, check_potentially, realize_with_bowtie
    from bowtieseq.graphs import oracle_has_bowtie_realization
    from realize_sweep import certificate_problem

    checked = realized = 0
    mismatches = []
    oracle_mismatches = []
    for n in range(11, max_n + 1):
        for terms in sorted(rule_shape_neighbourhood(n)):
            seq = DegreeSequence(terms)
            found = has_bowtie_realization(terms)
            if oracle_has_bowtie_realization(seq) != found:
                oracle_mismatches.append(f"oracle mismatch: {seq}")
            accepted = check_potentially(seq).potentially
            if found != accepted:
                mismatches.append(f"mismatch: {seq}")
            elif accepted:
                problem = certificate_problem(realize_with_bowtie(seq), seq)
                if problem is not None:
                    mismatches.append(f"realization of {seq}: {problem}")
                realized += 1
            checked += 1
    return checked, realized, mismatches, oracle_mismatches


def main(argv: list[str]) -> int:
    max_n = int(argv[0])
    started = time.monotonic()
    checked, realized, mismatches, oracle_mismatches = rule_shape_report(max_n)
    elapsed = time.monotonic() - started
    print(
        f"n=11..{max_n} sequences={checked} realized={realized} "
        f"mismatches={len(mismatches)} oracle_mismatches={len(oracle_mismatches)} "
        f"seconds={elapsed:.1f}"
    )
    for line in (mismatches + oracle_mismatches)[:10]:
        print(line)
    return 1 if mismatches or oracle_mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
