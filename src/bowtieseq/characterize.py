"""Decision procedure for bowtie-realizable degree sequences.

A graphic sequence of length n >= 5 has a realization containing a bowtie
(two triangles sharing one vertex; degree sequence (4, 2, 2, 2, 2)) exactly
when it clears six rules:

1. the largest term is at least 4,
2. the fifth term is at least 2,
3. it is not (n-2, n-2, 2^(n-2)) for n >= 6,
4. it is not (n-k, k+i, 2^i, 1^(n-i-2)) for any k in 1..floor((n-1)/2)-1
   and i in 3..n-2k,
5. it is not (4, 2^5),
6. it is not (4, 2^6).

``check_potentially`` applies the rules in that order after graphicality
and length screening, and reports the first failure.  The verify module
cross-checks the whole decision procedure against a brute-force search
over labelled realizations.

The same characterization yields a closed-form threshold: 4n - 4 is the
smallest even bound such that every graphic length-n sequence whose sum
reaches it is accepted, witnessed one step below the bound by
(n-1, n-1, 2^(n-2)), which rule 4 rejects at (k=1, i=n-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .sequences import DegreeSequence, is_graphic


class Failure(Enum):
    """Why a sequence is not accepted; values appear in structured output."""

    NOT_GRAPHIC = "not_graphic"
    TOO_SHORT = "too_short"
    COND1 = "cond1"
    COND2 = "cond2"
    COND3 = "cond3"
    COND4 = "cond4"
    COND5 = "cond5"
    COND6 = "cond6"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of the decision procedure for one sequence.

    ``potentially`` is True exactly when ``failure`` is None, which requires
    the sequence to be graphic with length at least 5.  When ``failure`` is
    ``Failure.COND4`` the matched parameters are carried in ``cond4_k`` and
    ``cond4_i``; they are None otherwise.
    """

    graphic: bool
    potentially: bool
    failure: Failure | None
    cond4_k: int | None = None
    cond4_i: int | None = None


@dataclass(frozen=True)
class SigmaReport:
    """Empirical threshold for one length: every graphic sequence with sum
    >= ``bound`` is accepted, and ``witness`` is rejected at sum bound - 2."""

    n: int
    bound: int
    witness: DegreeSequence


def matches_cond3(seq: DegreeSequence) -> bool:
    """Exact match against (n-2, n-2, 2^(n-2)) for n >= 6."""
    n = len(seq)
    if n < 6:
        return False
    return seq.terms == (n - 2, n - 2) + (2,) * (n - 2)


def matches_cond4(seq: DegreeSequence) -> tuple[int, int] | None:
    """Match against (n-k, k+i, 2^i, 1^(n-i-2)); returns (k, i) or None.

    The first term pins k = n - d1 and the second pins i = d2 - k, so a
    matching (k, i) is unique (hence trivially the lexicographically first).
    """
    n = len(seq)
    if n < 5:
        return None
    k = n - seq[0]
    if k < 1 or k > (n - 1) // 2 - 1:
        return None
    i = seq[1] - k
    if i < 3 or i > n - 2 * k:
        return None
    pattern = (n - k, k + i) + (2,) * i + (1,) * (n - i - 2)
    if seq.terms == pattern:
        return (k, i)
    return None


def check_potentially(seq: DegreeSequence) -> CheckReport:
    """Decide whether the sequence has a bowtie-containing realization.

    Test order: graphicality, length, then rules 1 through 6.  The report
    records the first failure only.
    """
    if not is_graphic(seq):
        return CheckReport(graphic=False, potentially=False, failure=Failure.NOT_GRAPHIC)
    return _rule_report(seq)


def _rule_report(seq: DegreeSequence) -> CheckReport:
    """Length and rules 1 through 6 for a sequence already known graphic.

    ``check_potentially`` reaches this after its own graphicality test; the
    verify enumerator calls it directly on sequences it has proved graphic,
    so each is proved graphic once.
    """
    n = len(seq)
    if n < 5:
        return CheckReport(graphic=True, potentially=False, failure=Failure.TOO_SHORT)
    if seq[0] < 4:
        return CheckReport(graphic=True, potentially=False, failure=Failure.COND1)
    if seq[4] < 2:
        return CheckReport(graphic=True, potentially=False, failure=Failure.COND2)
    if matches_cond3(seq):
        return CheckReport(graphic=True, potentially=False, failure=Failure.COND3)
    ki = matches_cond4(seq)
    if ki is not None:
        return CheckReport(
            graphic=True,
            potentially=False,
            failure=Failure.COND4,
            cond4_k=ki[0],
            cond4_i=ki[1],
        )
    if n == 6 and seq.terms == (4, 2, 2, 2, 2, 2):
        return CheckReport(graphic=True, potentially=False, failure=Failure.COND5)
    if n == 7 and seq.terms == (4, 2, 2, 2, 2, 2, 2):
        return CheckReport(graphic=True, potentially=False, failure=Failure.COND6)
    return CheckReport(graphic=True, potentially=True, failure=None)


def sigma_closed_form(n: int) -> int:
    """The threshold 4n - 4 for lengths n >= 5."""
    if n < 5:
        raise ValueError(f"threshold is defined for n >= 5, got {n}")
    return 4 * n - 4


def sigma_witness(n: int) -> DegreeSequence:
    """The extremal rejected sequence (n-1, n-1, 2^(n-2)) with sum 4n - 6.

    It is graphic and fails rule 4 at (k=1, i=n-2), showing the threshold
    cannot be lowered below 4n - 4.
    """
    if n < 5:
        raise ValueError(f"witness is defined for n >= 5, got {n}")
    return DegreeSequence((n - 1, n - 1) + (2,) * (n - 2))
