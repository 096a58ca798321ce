"""The oracle's bowtie choices against the placement reference's.

    PYTHONPATH=src python tests/_choices.py MAX_N

compares ``graphs._choices`` with ``_placement._wing_choices``, which uses
nothing of the package, on every nonincreasing tuple of length n <= MAX_N
over 1..n-1, graphic or not.  For each centre value >= 4, largest first,
the choices must be the reference's multisets of four wing values, each
once, in decreasing order, and the first choice, when there is one, must be
the largest term with the next four.  It prints the number of tuples
compared, or fails an assertion.  The graphs tests run MAX_N = 9
(15 521 tuples); CI runs MAX_N = 11 (227 239 tuples).
"""

from __future__ import annotations

import sys
from collections import Counter

from _brute import nonincreasing_positive_sequences
from _placement import _wing_choices
from bowtieseq.graphs import _choices


def expected_choices(terms: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """The (centre, wings) the reference allows, in decreasing order."""
    counts = Counter(terms)
    expected = []
    for centre in sorted((v for v in counts if v >= 4), reverse=True):
        pool = counts.copy()
        pool[centre] -= 1
        expected.extend((centre, wings) for wings in sorted(_wing_choices(pool), reverse=True))
    return expected


def compare_with_wing_choices(max_n: int) -> int:
    """Compare on every tuple of length 1..max_n; returns how many."""
    checked = 0
    for n in range(1, max_n + 1):
        for terms in nonincreasing_positive_sequences(n, n - 1):
            choices = [(centre, wings) for centre, wings, _ in _choices(terms)]
            assert choices == expected_choices(terms), terms
            if choices:
                assert choices[0] == (terms[0], terms[1:5]), terms
            checked += 1
    return checked


if __name__ == "__main__":
    print(f"{compare_with_wing_choices(int(sys.argv[1]))} tuples match the wing choices")
