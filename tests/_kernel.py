"""The lay-off kernel against its plain reference.

    PYTHONPATH=src python tests/_kernel.py MAX_N

compares the rows ``graphs._complete`` builds with those of
``_brute.lay_off_completion``, which re-sorts at every step where the kernel
keeps one list sorted by its tie rule and trims it from the tail, on every
graphic sequence of length 1..MAX_N, with nothing placed and with each
bowtie placement; and the oracle, which decides each placement on degrees,
with whether some placement completes.  It prints the number of completions
compared, or fails an assertion.  The acceptance suite compares every
placement up to n = 7 and the first 12 beyond, up to 9; CI runs MAX_N = 9
(3.4 million placements, a few minutes).
"""

from __future__ import annotations

import sys
from itertools import islice

from _brute import erdos_gallai_graphic, lay_off_completion, nonincreasing_positive_sequences
from bowtieseq import DegreeSequence
from bowtieseq.graphs import _complete, _placements, oracle_has_bowtie_realization


def compare_with_reference(max_n: int, every_up_to: int | None = None) -> tuple[int, int]:
    """Compare on the graphic sequences of length 1..max_n: every placement
    up to length ``every_up_to`` (all by default), with the oracle there,
    and the first 12 beyond.  Returns how many sequences and placements."""
    every_up_to = max_n if every_up_to is None else every_up_to
    sequences = placements = 0
    for n in range(1, max_n + 1):
        for terms in nonincreasing_positive_sequences(n, n - 1):
            if not erdos_gallai_graphic(list(terms)):
                continue
            assert _complete(terms, [], []) == lay_off_completion(terms, [], []), terms
            sequences += 1
            every = n <= every_up_to
            completes = False
            for bowtie, inner in islice(_placements(terms), None if every else 12):
                expected = lay_off_completion(terms, bowtie, inner)
                assert _complete(terms, bowtie, inner) == expected, (terms, inner)
                completes |= expected is not None
                placements += 1
            if every:
                assert oracle_has_bowtie_realization(DegreeSequence(terms)) == completes, terms
    return sequences, placements


if __name__ == "__main__":
    sequences, placements = compare_with_reference(int(sys.argv[1]))
    print(f"{sequences + placements} completions match the reference")
