"""The run-end Erdős–Gallai test against the direct inequality check.

    PYTHONPATH=src python tests/_erdos_gallai.py MAX_N

compares ``graphs._erdos_gallai_ok``, which tests only where runs of equal
terms end and stops at the Durfee square, with the direct check
``_brute.erdos_gallai_graphic``, which tests every inequality, on every
list of length n <= MAX_N with terms 0..n-1 (each nonincreasing list,
shuffled, so zeros and any order are included).  It prints the number of
lists compared, or fails an assertion.  The graphs tests run MAX_N = 9
(33 099 lists); CI runs MAX_N = 11 (478 193 lists, about 5 s).
"""

from __future__ import annotations

import random
import sys

from _brute import erdos_gallai_graphic, nonincreasing_positive_sequences
from bowtieseq.graphs import _erdos_gallai_ok


def compare_with_inequalities(max_n: int) -> int:
    """Compare on every list of length 0..max_n over 0..n-1, in a seeded
    shuffled order; returns how many lists were compared."""
    rng = random.Random(4101)
    checked = 0
    for n in range(0, max_n + 1):
        for terms in nonincreasing_positive_sequences(n, n):
            residual = [d - 1 for d in terms]  # terms 0..n-1
            rng.shuffle(residual)
            assert _erdos_gallai_ok(residual) == erdos_gallai_graphic(residual), residual
            checked += 1
    return checked


if __name__ == "__main__":
    print(f"{compare_with_inequalities(int(sys.argv[1]))} lists match the inequalities")
