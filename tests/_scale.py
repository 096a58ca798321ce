"""The oracle's answers at scale.

    PYTHONPATH=src python tests/_scale.py N

asks ``oracle_has_bowtie_realization`` about six sequences of even length
N >= 8 and exits 1 on a wrong answer.  The rule 3 and rule 4 shapes among
them, whose Havel–Hakimi realization is a book graph, took about 4 s each
at N = 4000 when the oracle searched that graph first; deciding each bowtie
placement on degrees, it answers in about 0.1 s at N = 10^5.  The
acceptance suite runs N = 30, past the exhaustive walk's limit, and
N = 20000; CI runs N = 100000.
"""

from __future__ import annotations

import sys
import time

from bowtieseq import parse_sequence
from bowtieseq.graphs import oracle_has_bowtie_realization


def cases(n: int) -> dict[str, bool]:
    """The six sequences of length n, as texts, with the right answer: 3^n
    has no vertex of degree 4, then the rule 3 shape and two rule 4 shapes."""
    half = n // 2
    return {
        f"4^{n}": True,
        f"3^{n}": False,
        f"4^2,2^{n - 2}": True,
        f"{n - 2}^2,2^{n - 2}": False,
        f"{n - 1}^2,2^{n - 2}": False,
        f"{n - 1},{half + 1},2^{half},1^{half - 2}": False,
    }


def wrong_answers(n: int) -> list[str]:
    """The texts of ``cases(n)`` that the oracle answers wrongly."""
    return [
        text
        for text, expected in cases(n).items()
        if oracle_has_bowtie_realization(parse_sequence(text)) is not expected
    ]


if __name__ == "__main__":
    started = time.monotonic()
    wrong = wrong_answers(int(sys.argv[1]))
    print(f"wrong answers: {wrong}, in {time.monotonic() - started:.2f} s")
    sys.exit(1 if wrong else 0)
