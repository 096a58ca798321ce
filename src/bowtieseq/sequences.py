"""Degree sequences: parsing, run-length formatting, lay-off, graphicality.

A degree sequence is a nonincreasing tuple of positive integers.  Values are
immutable; every operation returns a new value.  The empty sequence is
admitted as a degenerate value: it is the degree sequence of the graph with
no vertices, counts as graphic, and is the terminal state of repeated
lay-offs (laying off (1, 1) leaves nothing).  The text grammar never
produces it.

The lay-off operation removes the smallest term d and decrements the d
largest remaining terms.  It preserves graphicality in both directions,
which makes repeated lay-off a complete graphicality test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


MAX_PARSED_TERMS = 10**6
QUOTE_LIMIT = 80  # characters of input text quoted in a ParseError


class ParseError(ValueError):
    """Sequence text does not follow the run-length grammar."""


class LayoffImpossible(ValueError):
    """The smallest term exceeds the number of other terms, so the
    decrement set does not exist (the sequence cannot be graphic)."""


class DegreeSequence:
    """Nonincreasing sequence of positive integer degrees.

    Construction sorts the terms, so callers may pass them in any order.
    Terms larger than ``len(seq) - 1`` are representable (such a sequence
    simply is not graphic); zero or negative terms are rejected.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[int] = ()) -> None:
        items = list(terms)
        for t in items:  # before sorting, which would raise TypeError on mixed types
            if not isinstance(t, int) or isinstance(t, bool):
                raise ValueError(f"degree terms must be integers, got {t!r}")
            if t < 1:
                raise ValueError(f"degree terms must be positive, got {t}")
        items.sort(reverse=True)
        self._terms = tuple(items)

    @classmethod
    def _from_sorted(cls, terms: tuple[int, ...]) -> DegreeSequence:
        """Wrap a tuple nonincreasing and positive by construction, unchecked."""
        seq = cls.__new__(cls)
        seq._terms = terms
        return seq

    @property
    def terms(self) -> tuple[int, ...]:
        return self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[int]:
        return iter(self._terms)

    def __getitem__(self, index: int) -> int:
        return self._terms[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DegreeSequence):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        return f"DegreeSequence({format_sequence(self)!r})"

    def __str__(self) -> str:
        return format_sequence(self)


@dataclass(frozen=True)
class LayoffTrace:
    """Record of one lay-off step, sufficient to invert it.

    ``lay_off`` builds it: it removes the last term and decrements the
    first ``removed_degree`` positions, which ``decremented_positions``
    lists as indices into the parent.  The parent itself is kept so the
    decremented degree values can be recovered when reattaching a vertex.
    """

    parent: DegreeSequence
    removed_degree: int
    decremented_positions: tuple[int, ...]
    child: DegreeSequence

    @property
    def decremented_degrees(self) -> tuple[int, ...]:
        """Degrees the reattached vertex's neighbours must have (may be 0)."""
        return tuple(self.parent[i] - 1 for i in self.decremented_positions)


def _quote(text: str) -> str:
    """Quote text for an error message, cut after QUOTE_LIMIT characters.

    A cut is marked with the full length, so a long input cannot make a
    long error line.
    """
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return f"{text[:QUOTE_LIMIT]!r}... ({len(text)} characters)"


def _positive(part: str, name: str, text: str) -> int:
    """Read a degree or a run count: an optional '-' and ASCII digits, >= 1.

    Stricter than int(), which also takes '+', '_' and non-ASCII digits.
    Whitespace around the part is tolerated.
    """
    unsigned = part.strip().removeprefix("-")
    try:
        if not (unsigned.isascii() and unsigned.isdigit()):
            raise ValueError(part)
        value = int(part)
    except ValueError:  # also past int()'s limit on the number of digits
        raise ParseError(f"bad {name} {_quote(part)} in {_quote(text)}") from None
    if value < 1:
        raise ParseError(
            f"{name}s must be positive, got {_quote(part)} in {_quote(text)}"
        )
    return value


def parse_sequence(text: str) -> DegreeSequence:
    """Parse run-length sequence text such as ``"4^2,2^3"`` or ``"4,3,2"``.

    Each comma-separated item is ``d`` or ``d^count`` in ASCII digits, with
    d >= 1 and count >= 1.  Whitespace around items and around the caret is
    tolerated.  Raises ParseError for anything else, including empty input
    and zero or negative degrees, and for text with more than
    MAX_PARSED_TERMS terms in all (checked before the terms are built, so
    huge run counts fail fast).  Error messages quote the offending item
    and the text, each cut after QUOTE_LIMIT characters.
    """
    if not text or not text.strip():
        raise ParseError("empty sequence text")
    terms: list[int] = []
    for raw in text.split(","):
        item = raw.strip()
        if not item:
            raise ParseError(f"empty item in sequence text {_quote(text)}")
        degree_part, caret, count_part = item.partition("^")
        degree = _positive(degree_part, "degree", text)
        count = _positive(count_part, "run count", text) if caret else 1
        if len(terms) + count > MAX_PARSED_TERMS:
            raise ParseError(f"more than {MAX_PARSED_TERMS} terms")
        terms.extend([degree] * count)
    return DegreeSequence(terms)


def format_sequence(seq: DegreeSequence) -> str:
    """Render canonical run-length text: maximal runs, no whitespace.

    (4, 3, 3, 3, 3) becomes ``"4,3^4"``; runs of length one omit the caret.
    """
    parts: list[str] = []
    terms = seq.terms
    i = 0
    while i < len(terms):
        j = i
        while j < len(terms) and terms[j] == terms[i]:
            j += 1
        run = j - i
        parts.append(str(terms[i]) if run == 1 else f"{terms[i]}^{run}")
        i = j
    return ",".join(parts)


def sigma(seq: DegreeSequence) -> int:
    """Sum of the terms (twice the edge count of any realization)."""
    return sum(seq.terms)


def lay_off(seq: DegreeSequence) -> LayoffTrace:
    """Remove the smallest term d and decrement the d largest remaining terms.

    The child is re-sorted and zeros are dropped.  Raises LayoffImpossible
    when d exceeds the number of remaining terms (in particular for empty
    and single-term sequences); that situation certifies the sequence is
    not graphic.
    """
    n = len(seq)
    if n == 0:
        raise LayoffImpossible("empty sequence has no term to lay off")
    removed = seq[n - 1]
    if removed > n - 1:
        raise LayoffImpossible(
            f"smallest term {removed} exceeds the {n - 1} remaining positions"
        )
    rest = list(seq.terms[:-1])
    for i in range(removed):
        rest[i] -= 1
    child = DegreeSequence(t for t in rest if t > 0)
    return LayoffTrace(
        parent=seq,
        removed_degree=removed,
        decremented_positions=tuple(range(removed)),
        child=child,
    )


def is_graphic(seq: DegreeSequence) -> bool:
    """Whether some simple graph has exactly these degrees.

    Total function: False when the sum is odd, when any term reaches the
    length, or when repeated lay-off gets stuck; True otherwise (and for
    the empty sequence).  The repeated lay-off is the normative test.
    """
    terms = list(seq.terms)
    if sum(terms) % 2 != 0:
        return False
    if terms and terms[0] >= len(terms):
        return False
    while terms:
        terms.sort(reverse=True)
        d = terms.pop()
        if d > len(terms):
            return False
        for i in range(d):
            terms[i] -= 1
        terms = [t for t in terms if t > 0]
    return True
