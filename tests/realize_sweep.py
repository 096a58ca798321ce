"""Realize and validate every accepted sequence of one length.

    PYTHONPATH=src python tests/realize_sweep.py N COUNT

exits 1 unless exactly COUNT graphic sequences of length N are accepted and
each one is realized by a graph with exactly its degrees and an explicit
bowtie whose six edges are present.  The acceptance suite runs N = 11; CI
also runs N = 12 (162 589 sequences).
"""

from __future__ import annotations

import sys
import time

from bowtieseq import (
    DegreeSequence,
    SimpleGraph,
    check_potentially,
    contains_bowtie,
    realize_with_bowtie,
)
from bowtieseq.verify import enumerate_graphic_sequences


def certificate_problem(graph: SimpleGraph, seq: DegreeSequence) -> str | None:
    """Why the graph is not a bowtie realization of seq, or None if it is."""
    if tuple(sorted(graph.degrees(), reverse=True)) != seq.terms:
        return f"degrees {sorted(graph.degrees(), reverse=True)} are not {seq}"
    witness = contains_bowtie(graph)
    if witness is None:
        return "no bowtie"
    if len({witness.center, *witness.wing1, *witness.wing2}) != 5:
        return f"bowtie {witness} repeats a vertex"
    missing = [e for e in witness.edges() if not graph.has_edge(*e)]
    if missing:
        return f"bowtie {witness} lacks the edges {missing}"
    return None


def realize_every_accepted_sequence(n: int) -> int:
    """Realize each accepted sequence of length n; return how many there are.

    Raises AssertionError on the first realization that fails its
    certificate.
    """
    count = 0
    for seq in enumerate_graphic_sequences(n):
        if not check_potentially(seq).potentially:
            continue
        problem = certificate_problem(realize_with_bowtie(seq), seq)
        if problem is not None:
            raise AssertionError(f"realization of {seq}: {problem}")
        count += 1
    return count


def main(argv: list[str]) -> int:
    n, expected = (int(arg) for arg in argv)
    started = time.monotonic()
    count = realize_every_accepted_sequence(n)
    elapsed = time.monotonic() - started
    print(f"n={n} accepted={count} expected={expected} seconds={elapsed:.1f}")
    return 0 if count == expected else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
