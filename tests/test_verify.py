"""Tests for the exhaustive verification sweep and the empirical threshold."""

from __future__ import annotations

import pytest

import bowtieseq.characterize as characterize_module
import bowtieseq.graphs as graphs_module
import bowtieseq.verify as verify_module
from _brute import erdos_gallai_graphic, nonincreasing_positive_sequences
from bowtieseq import (
    DegreeSequence,
    check_potentially,
    parse_sequence,
    sigma,
    sigma_closed_form,
)
from bowtieseq.verify import (
    Mismatch,
    VerificationSummary,
    enumerate_graphic_sequences,
    sigma_empirical,
    verify_characterization,
)


# ------------------------------------------------------------------ enumeration


def test_enumeration_of_tiny_lengths():
    assert list(enumerate_graphic_sequences(0)) == []
    assert list(enumerate_graphic_sequences(1)) == []
    assert list(enumerate_graphic_sequences(2)) == [DegreeSequence([1, 1])]
    assert list(enumerate_graphic_sequences(3)) == [
        DegreeSequence([2, 2, 2]),
        DegreeSequence([2, 1, 1]),
    ]


def test_enumeration_is_sorted_and_duplicate_free():
    seqs = [s.terms for s in enumerate_graphic_sequences(6)]
    assert seqs == sorted(seqs, reverse=True)
    assert len(set(seqs)) == len(seqs)


def test_enumeration_counts_for_small_lengths():
    counts = {n: sum(1 for _ in enumerate_graphic_sequences(n)) for n in range(2, 8)}
    assert counts == {2: 1, 3: 2, 4: 7, 5: 20, 6: 71, 7: 240}


def test_enumeration_is_the_graphic_filter_of_all_candidates_in_order():
    for n in range(2, 9):
        expected = [
            terms
            for terms in nonincreasing_positive_sequences(n, n - 1)
            if erdos_gallai_graphic(list(terms))
        ]
        assert [s.terms for s in enumerate_graphic_sequences(n)] == expected


def test_enumerated_sequences_are_graphic_with_positive_terms():
    for seq in enumerate_graphic_sequences(5):
        assert len(seq) == 5
        assert all(d >= 1 for d in seq)


# ------------------------------------------------------------------- the sweep


def test_sweep_at_five_vertices_agrees_everywhere():
    summary = verify_characterization(5)
    assert isinstance(summary, VerificationSummary)
    assert summary.n == 5
    assert summary.sequences_tested == 20
    assert summary.potentially_count == 6
    assert summary.rejected_count == 14
    assert summary.mismatches == ()
    assert summary.ok


def test_sweep_at_six_vertices_agrees_everywhere():
    summary = verify_characterization(6)
    assert summary.sequences_tested == 71
    assert summary.potentially_count == 41
    assert summary.ok


def test_sweep_range_is_guarded():
    for bad in (4, 0, 13, -3):
        with pytest.raises(ValueError):
            verify_characterization(bad)


def test_mismatch_record_shape():
    m = Mismatch(parse_sequence("4,2^4"), checker_verdict=True, oracle_verdict=False)
    assert m.sequence == parse_sequence("4,2^4")
    assert m.checker_verdict and not m.oracle_verdict


# ------------------------------------------------------------------- threshold


def test_empirical_threshold_at_five_vertices():
    report = sigma_empirical(5)
    assert report.n == 5
    assert report.bound == 16
    assert report.witness == parse_sequence("4^2,2^3")
    assert sigma(report.witness) == 14
    assert not check_potentially(report.witness).potentially


def test_empirical_threshold_matches_closed_form():
    for n in (5, 6):
        assert sigma_empirical(n).bound == sigma_closed_form(n)


def test_threshold_witness_is_maximal_among_rejected():
    report = sigma_empirical(6)
    worst = max(
        sigma(s)
        for s in enumerate_graphic_sequences(6)
        if not check_potentially(s).potentially
    )
    assert sigma(report.witness) == worst == report.bound - 2


def test_threshold_enumerates_the_sequences_once(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return enumerate_graphic_sequences(n)

    monkeypatch.setattr(verify_module, "enumerate_graphic_sequences", counted)
    assert sigma_empirical(7).bound == 24
    assert calls == [7]


def test_threshold_range_is_guarded():
    for bad in (4, 13):
        with pytest.raises(ValueError):
            sigma_empirical(bad)


# ------------------------------------------------------------ one proof each


def _no_lay_off_test(seq):
    raise AssertionError(f"is_graphic called on {seq}")


def test_sweep_and_threshold_never_run_the_lay_off_test(monkeypatch):
    # graphicality comes from the Erdos-Gallai test alone, never from is_graphic
    for module in (verify_module, characterize_module, graphs_module):
        monkeypatch.setattr(module, "is_graphic", _no_lay_off_test, raising=False)
    summary = verify_characterization(8)
    assert summary.sequences_tested == 871 and summary.ok
    assert sigma_empirical(8).bound == 28


def test_threshold_decides_each_sequence_once(monkeypatch):
    calls = []

    def counted(seq):
        calls.append(seq)
        return characterize_module._rule_report(seq)

    monkeypatch.setattr(verify_module, "_rule_report", counted)
    assert sigma_empirical(8).bound == 28
    assert len(calls) == 871
    assert len(set(calls)) == 871
