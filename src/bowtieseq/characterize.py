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
cross-checks the whole decision procedure against the rules-free
placement search of the graphs module.

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


# the reports that carry no parameters: frozen, so one of each is shared
_ACCEPTED = CheckReport(graphic=True, potentially=True, failure=None)
_NOT_GRAPHIC = CheckReport(graphic=False, potentially=False, failure=Failure.NOT_GRAPHIC)
_TOO_SHORT = CheckReport(graphic=True, potentially=False, failure=Failure.TOO_SHORT)
_COND1 = CheckReport(graphic=True, potentially=False, failure=Failure.COND1)
_COND2 = CheckReport(graphic=True, potentially=False, failure=Failure.COND2)
_COND3 = CheckReport(graphic=True, potentially=False, failure=Failure.COND3)
_COND5 = CheckReport(graphic=True, potentially=False, failure=Failure.COND5)
_COND6 = CheckReport(graphic=True, potentially=False, failure=Failure.COND6)


def matches_cond3(terms: tuple[int, ...]) -> bool:
    """Exact match of the terms against (n-2, n-2, 2^(n-2)) for n >= 6.

    The terms are nonincreasing and positive, so the two ends of the run of
    twos pin all of it.
    """
    n = len(terms)
    return n >= 6 and terms[0] == terms[1] == n - 2 and terms[2] == terms[-1] == 2


def matches_cond4(terms: tuple[int, ...]) -> tuple[int, int] | None:
    """Match the terms against (n-k, k+i, 2^i, 1^(n-i-2)); (k, i) or None.

    The first term pins k = n - d1 and the second pins i = d2 - k, so a
    matching (k, i) is unique (hence trivially the lexicographically first).
    The terms are nonincreasing and positive, so the rest matches when the
    run of twos starts and ends where the pattern puts it and the run of
    ones, if any, starts there too: nothing below 1 can follow it.
    """
    n = len(terms)
    if n < 5:
        return None
    k = n - terms[0]
    if k < 1 or k > (n - 1) // 2 - 1:
        return None
    i = terms[1] - k
    if i < 3 or i > n - 2 * k:
        return None
    if terms[2] == terms[i + 1] == 2 and (i + 2 == n or terms[i + 2] == 1):
        return (k, i)
    return None


def check_potentially(seq: DegreeSequence) -> CheckReport:
    """Decide whether the sequence has a bowtie-containing realization.

    Test order: graphicality, length, then rules 1 through 6.  The report
    records the first failure only.
    """
    if not is_graphic(seq):
        return _NOT_GRAPHIC
    return _rule_report(seq.terms)


def _rule_report(t: tuple[int, ...]) -> CheckReport:
    """Length and rules 1 through 6 for the terms of a sequence already
    known graphic.

    ``check_potentially`` reaches this after its own graphicality test; the
    verify sweep calls it directly on the tuples its enumerator has proved
    graphic, so each is proved graphic once and wrapped in no
    DegreeSequence.  The threshold's rules pass also runs it as a filter on
    candidates not yet proved graphic: the rules read only the shape of the
    nonincreasing terms, so they answer any candidate, and the pass proves
    graphic only what they refuse (``graphic`` in a report is the caller's
    claim).  Every outcome but rule 4, which carries its (k, i), is one
    shared report: a module constant, which ``CheckReport`` being frozen
    makes safe to hand out.
    """
    n = len(t)
    if n < 5:
        return _TOO_SHORT
    if t[0] < 4:
        return _COND1
    if t[4] < 2:
        return _COND2
    if matches_cond3(t):
        return _COND3
    ki = matches_cond4(t)
    if ki is not None:
        return CheckReport(
            graphic=True,
            potentially=False,
            failure=Failure.COND4,
            cond4_k=ki[0],
            cond4_i=ki[1],
        )
    if t == (4, 2, 2, 2, 2, 2):
        return _COND5
    if t == (4, 2, 2, 2, 2, 2, 2):
        return _COND6
    return _ACCEPTED


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
