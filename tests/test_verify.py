"""Tests for the exhaustive verification sweep and the empirical threshold."""

from __future__ import annotations

import tracemalloc

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
    for bad in (0, -3, 4, 13):
        with pytest.raises(ValueError):
            verify_characterization(bad)


def test_mismatch_record_shape():
    m = Mismatch(parse_sequence("4,2^4"), checker_verdict=True, oracle_verdict=False)
    assert m.sequence == parse_sequence("4,2^4")
    assert m.checker_verdict and not m.oracle_verdict


def test_disagreements_are_reported_as_sequences(monkeypatch):
    # the sweeps run on bare term tuples and wrap one in a DegreeSequence
    # only to report it: an oracle that always says "no" disagrees on the
    # six accepted sequences of length 5 and on the first boundary one
    monkeypatch.setattr(verify_module, "_placement_fits", lambda terms: False)
    accepted = [s for s in enumerate_graphic_sequences(5) if check_potentially(s).potentially]
    assert len(accepted) == 6
    mismatches = tuple(Mismatch(s, checker_verdict=True, oracle_verdict=False) for s in accepted)
    assert verify_characterization(5).mismatches == mismatches
    with pytest.raises(verify_module.CharacterizationMismatch) as raised:
        sigma_empirical(5)
    assert str(raised.value) == (
        "decision procedure and oracle disagree on 4^2,3^2,2: checker=True, oracle=False"
    )


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
    # one scan of the 3003 candidates at n = 8: the rules pass proves
    # graphic only a candidate the rules refuse whose sum reaches the
    # largest rejected sum so far, 37 of them, each once and in order; the
    # boundary pass then proves the 250 candidates of sum 26 or 28, in order
    calls = []
    erdos_gallai_ok = graphs_module._erdos_gallai_ok

    def counted(terms):
        calls.append(terms)
        return erdos_gallai_ok(terms)

    monkeypatch.setattr(verify_module, "_erdos_gallai_ok", counted)
    assert sigma_empirical(8).bound == 28
    boundary = [t for t in nonincreasing_positive_sequences(8, 7) if sum(t) in (26, 28)]
    assert len(boundary) == 250
    rules_pass, boundary_pass = calls[: -len(boundary)], calls[-len(boundary) :]
    assert boundary_pass == boundary
    assert len(rules_pass) == 37
    assert rules_pass == sorted(set(rules_pass), reverse=True)
    assert not any(characterize_module._rule_report(t).potentially for t in rules_pass)


def test_threshold_redecides_both_boundary_sums_with_the_oracle(monkeypatch):
    # the largest rejected sum at n = 8 is 26: the oracle's search re-decides
    # every graphic sequence of sum 26 or 28, each once, in enumeration order
    calls = []

    def counted(terms):
        calls.append(terms)
        return graphs_module._placement_fits(terms)

    monkeypatch.setattr(verify_module, "_placement_fits", counted)
    assert sigma_empirical(8).bound == 28
    boundary = [
        terms
        for terms in nonincreasing_positive_sequences(8, 7)
        if sum(terms) in (26, 28) and erdos_gallai_graphic(list(terms))
    ]
    assert len(boundary) == 155
    assert calls == boundary


def test_threshold_memory_does_not_grow_with_the_sweep():
    # 11 655 graphic sequences at n = 10: a list of them takes megabytes
    tracemalloc.start()
    try:
        assert sigma_empirical(10).bound == 36
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_threshold_range_is_guarded():
    for bad in (0, -3, 4, 13):
        with pytest.raises(ValueError):
            sigma_empirical(bad)


# ------------------------------------------------------------ one proof each


def _no_lay_off_test(seq):
    raise AssertionError(f"is_graphic called on {seq}")


def test_sweep_and_threshold_never_run_the_lay_off_test(monkeypatch):
    # graphicality comes from the Erdos-Gallai test alone, never from
    # is_graphic, and once per sequence: the enumerator's proof is the only
    # one, so the graphs module's test sees only the outside demands that
    # _fits leaves, never a whole 8-term sequence
    for module in (verify_module, characterize_module, graphs_module):
        monkeypatch.setattr(module, "is_graphic", _no_lay_off_test, raising=False)
    lengths = []
    erdos_gallai_ok = graphs_module._erdos_gallai_ok

    def counted(residual):
        lengths.append(len(residual))
        return erdos_gallai_ok(residual)

    monkeypatch.setattr(graphs_module, "_erdos_gallai_ok", counted)
    summary = verify_characterization(8)
    assert summary.sequences_tested == 871 and summary.ok
    assert sigma_empirical(8).bound == 28
    assert lengths and max(lengths) < 8


def test_threshold_decides_each_sequence_once(monkeypatch):
    # the rules run once on each candidate, graphic or not, in candidate
    # order: 3003 at n = 8, of which 871 are graphic
    calls = []

    def counted(terms):
        calls.append(terms)
        return characterize_module._rule_report(terms)

    monkeypatch.setattr(verify_module, "_rule_report", counted)
    assert sigma_empirical(8).bound == 28
    assert calls == list(nonincreasing_positive_sequences(8, 7))
    assert len(calls) == 3003
