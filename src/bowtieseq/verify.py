"""Exhaustive empirical verification of the decision procedure.

For a fixed length n this module enumerates every graphic sequence with
positive terms, runs the six-condition decision procedure on each, and
compares against the rules-free oracle of the graphs module.
It also recomputes the extremal degree-sum threshold empirically: the
smallest even bound such that every graphic sequence at or above it is
accepted.  Neither keeps a list of the sequences: the comparison
enumerates them once, and the threshold streams the candidates twice, a
rules pass over every candidate and an oracle pass over the two boundary
sums, so its memory does not grow with the sweep.

Graphicality is proved by the Erdős–Gallai test of the graphs module, at
most once per sequence in each pass.  The comparison's enumerator keeps
only the candidates that pass it, and the rules
(``characterize._rule_report``) and the oracle's placement search
(``graphs._placement_fits``) then run on the kept tuples without a second
proof.  The threshold's rules pass turns that around: only a sequence the
rules refuse can raise the largest rejected sum, so the rules run first,
on every candidate, and the test proves graphic only a refused candidate
whose sum reaches the largest found so far.  A DegreeSequence is built
only for what a report holds: a mismatch or the threshold's witness.  The
lay-off test ``sequences.is_graphic``, which ``check_potentially`` runs
before the rules, is not on this path, so the test suite checks it on its
own.

The oracle says "yes" at the first bowtie placement that its degree test
completes, and "no" when the rules-free placement search of the graphs
module finds none that completes (none to try at all for rules 1 and 2).
It builds no graph, and no labelled realization is enumerated: that
exhaustive walk is only the tests' reference.  The number of candidates
grows as C(2n - 2, n), so a sweep is bounded by SWEEP_LIMIT (n = 12:
162 769 sequences).  The acceptance suite runs n = 5..11.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations_with_replacement, compress
from operator import attrgetter, not_

from .characterize import SigmaReport, _rule_report
from .graphs import _erdos_gallai_ok, _placement_fits
from .sequences import DegreeSequence, ParseError

SWEEP_LIMIT = 12


class CharacterizationMismatch(RuntimeError):
    """The decision procedure disagreed with the exhaustive oracle.

    Raised only from the threshold computation, which cannot return a
    trustworthy bound once a disagreement exists.  The full sweep in
    ``verify_characterization`` reports mismatches in its summary instead
    of raising, so callers can inspect all of them.
    """


@dataclass(frozen=True)
class Mismatch:
    """One sequence on which the decision procedure and oracle disagree."""

    sequence: DegreeSequence
    checker_verdict: bool
    oracle_verdict: bool


@dataclass(frozen=True)
class VerificationSummary:
    """Outcome of comparing the decision procedure against the oracle.

    ``potentially_count`` counts the sequences both routes accepted plus
    any the decision procedure alone accepted (all of which then appear in
    ``mismatches``; an empty mismatch list means full agreement).
    """

    n: int
    sequences_tested: int
    mismatches: tuple[Mismatch, ...]
    potentially_count: int

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def rejected_count(self) -> int:
        return self.sequences_tested - self.potentially_count


def enumerate_graphic_sequences(n: int) -> Iterator[DegreeSequence]:
    """Yield every graphic sequence of length n with positive terms.

    Emission order is decreasing lexicographic on the sorted terms, which
    makes downstream reports and tie-breaks reproducible.  These are the
    tuples of ``_graphic_terms``, each wrapped without sorting it again.
    """
    return map(DegreeSequence._from_sorted, _graphic_terms(n))


def _graphic_terms(n: int) -> Iterator[tuple[int, ...]]:
    """The terms of every graphic length-n sequence with positive terms, in
    decreasing lexicographic order: the comparison's stream.  The
    candidates are the nonincreasing n-tuples over n-1..1, which
    ``combinations_with_replacement`` yields in exactly that order; each is
    kept when the Erdős–Gallai test proves it graphic (odd sums fail it at
    once).  ``filter`` keeps the loop in C: no Python frame per candidate.
    """
    if n < 1:
        return iter(())
    return filter(_erdos_gallai_ok, _candidates(n))


def _candidates(n: int) -> Iterator[tuple[int, ...]]:
    """The nonincreasing n-tuples over n-1..1, in decreasing lexicographic
    order: every graphic length-n sequence with positive terms, and more."""
    return combinations_with_replacement(range(n - 1, 0, -1), n)


def _check_range(n: int) -> None:
    if not 5 <= n <= SWEEP_LIMIT:
        raise ParseError(f"N must be between 5 and {SWEEP_LIMIT}, got {n}")


def verify_characterization(n: int) -> VerificationSummary:
    """Compare the decision procedure against the oracle on every graphic
    sequence of length n, returning all disagreements."""
    _check_range(n)
    tested = 0
    accepted = 0
    mismatches: list[Mismatch] = []
    for terms in _graphic_terms(n):
        tested += 1
        checker = _rule_report(terms).potentially
        oracle = _placement_fits(terms)
        if checker:
            accepted += 1
        if checker != oracle:
            mismatches.append(Mismatch(DegreeSequence._from_sorted(terms), checker, oracle))
    return VerificationSummary(n, tested, tuple(mismatches), accepted)


def sigma_empirical(n: int) -> SigmaReport:
    """Recompute the extremal threshold by exhaustive scan.

    The result's ``bound`` is the smallest even s such that every graphic
    length-n sequence with degree sum >= s is accepted; ``witness`` is the
    first rejected sequence of maximal sum (so its sum is bound - 2).

    The decision procedure locates the largest rejected degree sum; the
    boundary (that sum and the next even value) is then re-decided by the
    exhaustive oracle so the reported threshold does not rest on the
    decision procedure alone.  Raises CharacterizationMismatch if the
    boundary check disagrees.

    Two streamed passes keep no list of sequences.  The first runs the
    rules once on each candidate, graphic or not, and proves graphic only
    a refused one whose sum is at least the largest rejected sum so far:
    no other can change the witness, its sum or the rejected sequences of
    that sum, which it keeps.  The candidates come in decreasing
    lexicographic order, as the graphic sequences do, so the witness is
    the same first one.  The second scans the candidates again and proves
    graphic only those of the two boundary sums; their rules' verdict is
    known without a second run: rejected exactly for the kept sequences,
    since every graphic sequence of a larger sum is accepted.
    """
    _check_range(n)
    worst_sum = -1
    worst: tuple[int, ...] | None = None
    rejected: set[tuple[int, ...]] = set()  # the rejected terms of sum worst_sum
    # the rules' filter runs in C, over a second copy of the candidate stream
    refused = map(not_, map(attrgetter("potentially"), map(_rule_report, _candidates(n))))
    for terms in compress(_candidates(n), refused):
        total = sum(terms)
        if total < worst_sum or not _erdos_gallai_ok(terms):
            continue
        if total > worst_sum:
            worst_sum, worst, rejected = total, terms, {terms}
        elif total == worst_sum:
            rejected.add(terms)
    if worst is None:  # cannot happen for n >= 5, guarded for safety
        raise CharacterizationMismatch(f"no rejected sequence of length {n} found")
    bound = worst_sum + 2
    # the sum filter runs in C, over a second copy of the candidate stream
    at_boundary = map((worst_sum, bound).__contains__, map(sum, _candidates(n)))
    for terms in filter(_erdos_gallai_ok, compress(_candidates(n), at_boundary)):
        checker = terms not in rejected
        oracle = _placement_fits(terms)
        if checker != oracle:
            raise CharacterizationMismatch(
                "decision procedure and oracle disagree on "
                f"{DegreeSequence._from_sorted(terms)}: checker={checker}, oracle={oracle}"
            )
    return SigmaReport(n=n, bound=bound, witness=DegreeSequence._from_sorted(worst))
