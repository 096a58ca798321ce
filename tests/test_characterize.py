"""Tests for the six-condition membership test and the closed-form bound."""

from __future__ import annotations

import pytest

from _brute import erdos_gallai_graphic, nonincreasing_positive_sequences
from bowtieseq import (
    CheckReport,
    DegreeSequence,
    Failure,
    check_potentially,
    parse_sequence,
    sigma,
    sigma_closed_form,
)
from bowtieseq.characterize import (
    _rule_report,
    matches_cond3,
    matches_cond4,
    sigma_witness,
)


def report(text: str) -> CheckReport:
    return check_potentially(parse_sequence(text))


# ------------------------------------------------------------ failure ordering


def test_non_graphic_sequences_fail_first():
    r = report("3,1,1")
    assert not r.graphic and not r.potentially
    assert r.failure is Failure.NOT_GRAPHIC


def test_non_graphic_wins_over_too_short():
    # only three terms AND not graphic; gradedness puts graphicality first
    r = report("3,2,2")
    assert r.failure is Failure.NOT_GRAPHIC


def test_short_graphic_sequences_fail_too_short():
    for text in ("2^3", "3^4", "1,1"):
        r = report(text)
        assert r.graphic
        assert r.failure is Failure.TOO_SHORT


# ----------------------------------------------------------- conditions 1 and 2


def test_condition1_requires_a_degree_four_vertex():
    r = report("3^6")
    assert r.graphic
    assert r.failure is Failure.COND1
    assert report("3^4,2^3").failure is Failure.COND1


def test_condition2_requires_five_vertices_of_degree_two():
    assert report("4,1^4").failure is Failure.COND2
    assert report("4,4,2,2,1,1,1,1").failure is Failure.COND2


# ---------------------------------------------------------------- condition 3


def test_condition3_matches_the_two_high_degree_pattern():
    assert matches_cond3(parse_sequence("4^2,2^4"))
    assert matches_cond3(parse_sequence("5^2,2^5"))
    assert not matches_cond3(parse_sequence("4^2,2^3"))  # n = 5 is exempt
    assert not matches_cond3(parse_sequence("4^2,2^5"))  # wrong first terms
    assert not matches_cond3(parse_sequence("4^3,2^3"))


def test_condition3_rejections():
    for n in (6, 7, 10):
        s = DegreeSequence([n - 2, n - 2] + [2] * (n - 2))
        r = check_potentially(s)
        assert r.graphic
        assert r.failure is Failure.COND3


# ---------------------------------------------------------------- condition 4


def test_condition4_pins_k_and_i():
    assert matches_cond4(parse_sequence("4^2,2^3")) == (1, 3)
    assert matches_cond4(parse_sequence("5^2,2^4")) == (1, 4)
    assert matches_cond4(parse_sequence("5,4,2^3,1")) == (1, 3)
    assert matches_cond4(parse_sequence("5^2,2^3,1^2")) == (2, 3)
    assert matches_cond4(parse_sequence("4,2^4")) is None
    assert matches_cond4(parse_sequence("4^2,2^4")) is None  # that one is condition 3


def test_condition4_rejection_reports_k_and_i():
    r = report("4^2,2^3")
    assert r.failure is Failure.COND4
    assert (r.cond4_k, r.cond4_i) == (1, 3)
    r = report("5^2,2^3,1^2")
    assert r.failure is Failure.COND4
    assert (r.cond4_k, r.cond4_i) == (2, 3)


def test_condition4_k_range_is_bounded():
    # at n = 6 only k = 1 is admissible, so the condition-3 shape is not cond4
    assert matches_cond4(parse_sequence("4^2,2^4")) is None
    # k would exceed the bound here: n = 8, d1 = 4 gives k = 4 > 2
    assert matches_cond4(parse_sequence("4,2^7")) is None


def test_cond4_fields_are_none_unless_condition4_fired():
    r = report("4,2^5")
    assert r.failure is Failure.COND5
    assert r.cond4_k is None and r.cond4_i is None


# ------------------------------------------------------------ conditions 5 and 6


def test_conditions_5_and_6_are_the_two_sporadic_rejections():
    assert report("4,2^5").failure is Failure.COND5
    assert report("4,2^6").failure is Failure.COND6
    # the same shape one vertex longer is fine
    assert report("4,2^7").potentially


# ------------------------------------------------------------------ acceptance


def test_accepted_reports_have_no_failure():
    for text in ("4^5", "4,2^4", "4,3^4", "4^2,3^2,2", "4,2^7", "6,5,2^5,1"):
        r = report(text)
        assert r.graphic
        assert r.potentially
        assert r.failure is None
        assert r.cond4_k is None and r.cond4_i is None


def test_base_acceptance_at_five_vertices():
    accepted = {"4^5", "4^3,3^2", "4^2,3^2,2", "4,3^4", "4,3^2,2^2", "4,2^4"}
    for text in accepted:
        assert report(text).potentially, text


# ------------------------------------------------------------------ the bound


def test_closed_form_bound():
    assert sigma_closed_form(5) == 16
    assert sigma_closed_form(6) == 20
    assert sigma_closed_form(7) == 24
    assert sigma_closed_form(8) == 28


def test_closed_form_bound_rejects_small_n():
    with pytest.raises(ValueError):
        sigma_closed_form(4)


def test_sigma_witness_is_an_extremal_rejected_sequence():
    for n in range(5, 13):
        w = sigma_witness(n)
        assert w.terms == tuple([n - 1, n - 1] + [2] * (n - 2))
        assert sigma(w) == sigma_closed_form(n) - 2
        r = check_potentially(w)
        assert r.graphic
        assert r.failure is Failure.COND4
        assert (r.cond4_k, r.cond4_i) == (1, n - 2)


# --------------------------------------------------- graphicality, then rules


def test_check_is_the_graphicality_test_followed_by_the_rules():
    # the verify sweep calls _rule_report directly; this keeps the
    # graphicality step of check_potentially covered on every candidate
    not_graphic = CheckReport(graphic=False, potentially=False, failure=Failure.NOT_GRAPHIC)
    graphic_counts = {}
    rejected = 0
    for n in range(9):
        graphic_counts[n] = 0
        for terms in nonincreasing_positive_sequences(n, n):
            seq = DegreeSequence(terms)
            graphic = erdos_gallai_graphic(list(terms))
            expected = _rule_report(seq) if graphic else not_graphic
            assert check_potentially(seq) == expected, terms
            graphic_counts[n] += graphic
            rejected += not graphic
    assert graphic_counts == {0: 1, 1: 0, 2: 1, 3: 2, 4: 7, 5: 20, 6: 71, 7: 240, 8: 871}
    assert rejected > sum(graphic_counts.values())
