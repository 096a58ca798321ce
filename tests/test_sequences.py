"""Tests for degree-sequence parsing, formatting, lay-off, and graphicality."""

from __future__ import annotations

import random
import time

import pytest

from _brute import (
    degree_multiset_census,
    erdos_gallai_graphic,
    nonincreasing_positive_sequences,
)
from bowtieseq import (
    DegreeSequence,
    ParseError,
    format_sequence,
    is_graphic,
    parse_sequence,
    sigma,
)
from bowtieseq.sequences import (
    MAX_PARSED_TERMS,
    QUOTE_LIMIT,
    LayoffImpossible,
    lay_off,
)


def seq(*terms: int) -> DegreeSequence:
    return DegreeSequence(terms)


# ---------------------------------------------------------------- DegreeSequence


def test_terms_are_sorted_descending():
    assert seq(2, 4, 3).terms == (4, 3, 2)
    assert seq(1, 1, 5, 1).terms == (5, 1, 1, 1)


def test_already_sorted_input_is_preserved():
    assert seq(4, 4, 2, 2, 2).terms == (4, 4, 2, 2, 2)


def test_empty_sequence_is_allowed():
    empty = DegreeSequence(())
    assert empty.terms == ()
    assert len(empty) == 0


def test_rejects_non_positive_and_non_integer_terms():
    for bad in ([0], [-1], [3, 0], [2.5], ["3"], [True], [False]):
        with pytest.raises((TypeError, ValueError)):
            DegreeSequence(bad)


def test_sequence_behaves_like_a_tuple():
    s = seq(4, 2, 2)
    assert list(s) == [4, 2, 2]
    assert s[0] == 4 and s[-1] == 2
    assert len(s) == 3


def test_equality_and_hashing_follow_the_terms():
    assert seq(3, 1, 2) == seq(1, 2, 3)
    assert seq(2, 2) != seq(2, 2, 2)
    assert hash(seq(3, 1, 2)) == hash(seq(3, 2, 1))
    assert len({seq(2, 1), seq(1, 2), seq(2, 2)}) == 2


def test_sigma_is_the_term_sum():
    assert sigma(seq(4, 4, 2, 2, 2)) == 14
    assert sigma(seq(5, 5, 2, 2, 2, 2)) == 18
    assert sigma(DegreeSequence(())) == 0


# ------------------------------------------------------------------- parsing


def test_parse_run_length_notation():
    assert parse_sequence("4^2,2^3").terms == (4, 4, 2, 2, 2)
    assert parse_sequence("5").terms == (5,)
    assert parse_sequence("4,3^4").terms == (4, 3, 3, 3, 3)


def test_parse_sorts_and_accepts_unsorted_input():
    assert parse_sequence("2,4,3").terms == (4, 3, 2)
    assert parse_sequence("2^2,4").terms == (4, 2, 2)


def test_parse_tolerates_whitespace():
    assert parse_sequence(" 4 , 3^2 ").terms == (4, 3, 3)


def test_parse_rejects_malformed_text():
    for bad in ("", "   ", ",", "4,,2", "4,", ",4", "0", "-1", "4^0", "4^-1",
                "4^", "^3", "x", "4^x", "3.5", "4 3",
                "4_0,2", "4,2^0_4", "+4,2^4", "\u0664,2^4"):
        with pytest.raises(ParseError):
            parse_sequence(bad)


def test_parse_bounds_the_total_term_count():
    assert len(parse_sequence(f"2^{MAX_PARSED_TERMS}")) == MAX_PARSED_TERMS
    started = time.perf_counter()
    for bad in ("4^1000000000000", f"2^{MAX_PARSED_TERMS},2", f"3,1^{MAX_PARSED_TERMS}"):
        with pytest.raises(ParseError, match="more than"):
            parse_sequence(bad)
    assert time.perf_counter() - started < 1.0


def test_parse_errors_quote_a_bounded_excerpt():
    cases = [
        ("1," * 500000 + "x", "'x'"),  # bad item at the end of a long text
        ("x" * 10**6, "characters)"),  # the bad item itself is long
        ("2," * 100 + "0", "got '0'"),
        ("2," * 100 + "3^-1", "got '-1'"),
        ("2," * 100 + ",", "empty item"),
    ]
    for text, named in cases:
        with pytest.raises(ParseError) as exc:
            parse_sequence(text)
        message = str(exc.value)
        assert named in message
        assert len(message) < 2 * QUOTE_LIMIT + 100
        assert f"({len(text)} characters)" in message
    with pytest.raises(ParseError, match=r"^bad degree 'x' in '4,x'$"):
        parse_sequence("4,x")


def test_format_uses_maximal_runs():
    assert format_sequence(seq(4, 4, 2, 2, 2)) == "4^2,2^3"
    assert format_sequence(seq(4, 3, 3, 3, 3)) == "4,3^4"
    assert format_sequence(seq(5)) == "5"
    assert format_sequence(DegreeSequence(())) == ""


def test_parse_format_round_trip_on_handwritten_cases():
    for text in ("4^2,2^3", "7,6,2^5,1^3", "1", "9^9"):
        assert format_sequence(parse_sequence(text)) == text


def test_format_parse_round_trip_is_identity():
    rng = random.Random(20210)
    for _ in range(300):
        terms = [rng.randint(1, 40) for _ in range(rng.randint(1, 25))]
        s = DegreeSequence(terms)
        assert parse_sequence(format_sequence(s)) == s


def test_parse_normalises_non_maximal_runs():
    assert format_sequence(parse_sequence("3^2,3")) == "3^3"
    assert format_sequence(parse_sequence("2,2^2")) == "2^3"


# ------------------------------------------------------------------- lay-off


def test_lay_off_small_example():
    trace = lay_off(seq(2, 1, 1))
    assert trace.parent == seq(2, 1, 1)
    assert trace.removed_degree == 1
    assert trace.child == seq(1, 1)


def test_lay_off_decrements_the_largest_terms():
    trace = lay_off(seq(4, 3, 2, 2, 1))
    assert trace.removed_degree == 1
    assert trace.child == seq(3, 3, 2, 2)
    assert trace.decremented_positions == (0,)
    # decremented_degrees reports the child-side values the reattachment targets
    assert trace.decremented_degrees == (3,)


def test_lay_off_with_removed_degree_two():
    trace = lay_off(parse_sequence("5,3,2^5"))
    assert trace.removed_degree == 2
    assert trace.child == parse_sequence("4,2^5")
    assert trace.decremented_degrees == (4, 2)


def test_lay_off_can_empty_the_sequence():
    trace = lay_off(seq(1, 1))
    assert trace.child == DegreeSequence(())


def test_lay_off_drops_zeros_from_the_child():
    # removing the 1 from (2, 2, 1) decrements one 2; nothing hits zero here,
    # but removing a 1 from (1, 1, 1, 1) leaves (1, 1) plus a dropped zero
    trace = lay_off(seq(1, 1, 1, 1))
    assert trace.child == seq(1, 1)


def test_lay_off_rejects_impossible_cases():
    with pytest.raises(LayoffImpossible):
        lay_off(seq(5, 5))  # smallest degree exceeds the remaining vertices
    with pytest.raises(LayoffImpossible):
        lay_off(DegreeSequence(()))
    with pytest.raises(LayoffImpossible):
        lay_off(seq(3,))


# ---------------------------------------------------------------- graphicality


def test_is_graphic_on_known_cases():
    assert is_graphic(seq(2, 2, 2))
    assert is_graphic(seq(4, 4, 2, 2, 2))
    assert is_graphic(DegreeSequence(()))
    assert not is_graphic(seq(3, 3, 1, 1))
    assert not is_graphic(seq(1,))
    assert not is_graphic(seq(3, 2, 2))  # odd sum


def test_is_graphic_matches_realizability_for_all_small_sequences():
    for n in range(2, 7):
        realizable = set(degree_multiset_census(n))
        for terms in nonincreasing_positive_sequences(n, n - 1):
            assert is_graphic(DegreeSequence(terms)) == (terms in realizable), terms


def test_is_graphic_rejects_degrees_at_least_n():
    assert not is_graphic(seq(5, 3, 1, 1))
    assert not is_graphic(seq(4, 4, 4, 4))


def test_is_graphic_agrees_with_erdos_gallai_on_random_sequences():
    rng = random.Random(77113)
    for _ in range(3000):
        n = rng.randint(1, 24)
        terms = sorted((rng.randint(1, max(1, n - 1)) for _ in range(n)), reverse=True)
        assert is_graphic(DegreeSequence(terms)) == erdos_gallai_graphic(terms), terms


def test_lay_off_preserves_graphicality_spot_checks():
    for text in ("4^2,2^3", "5,3,2^5", "4,3^4", "3^4", "6,5,2^5,1"):
        s = parse_sequence(text)
        assert is_graphic(s) == is_graphic(lay_off(s).child), text
