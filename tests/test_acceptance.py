"""Acceptance gate: the end-to-end guarantees the package ships under.

Each test here covers one headline property, validates it with routes as
independent of the implementation under test as feasible, and prints one
PASS line with the measured numbers, so a verbose run doubles as a
verification report.
"""

from __future__ import annotations

import random
import time

import pytest

import bowtieseq.cli as cli
import bowtieseq.realizer as realizer
from _brute import brute_contains_bowtie, nonincreasing_positive_sequences
from realize_sweep import certificate_problem, realize_every_accepted_sequence
from bowtieseq import (
    DegreeSequence,
    Failure,
    check_potentially,
    is_graphic,
    parse_sequence,
    realize_with_bowtie,
    sigma,
    sigma_closed_form,
)
from bowtieseq.characterize import sigma_witness
from bowtieseq.realizer import FamilyId, FamilyPattern, family_sequence
from bowtieseq.sequences import lay_off
from bowtieseq.verify import (
    enumerate_graphic_sequences,
    sigma_empirical,
    verify_characterization,
)


def all_family_patterns(max_n: int) -> list[FamilyPattern]:
    """Every valid family member with at most max_n vertices."""
    patterns: list[FamilyPattern] = []
    for n in range(5, max_n + 1):
        if n >= 7 and n % 2 == 1:
            patterns.append(FamilyPattern(FamilyId.F1_433, n))
        if n >= 6 and n % 2 == 0:
            patterns.append(FamilyPattern(FamilyId.F2_43, n))
        if n % 2 == 1:
            patterns.append(FamilyPattern(FamilyId.F3_4, n))
        for a in range(2, n, 2):
            if n - 2 - a >= 1:
                patterns.append(FamilyPattern(FamilyId.F4_432, n, a=a))
            if n - 1 - a >= 1:
                patterns.append(FamilyPattern(FamilyId.F7_432, n, a=a))
        for a in range(1, n):
            for b in range(1, n - a):
                c = n - 1 - a - b
                if c >= 1 and a + b >= 4 and (a + c) % 2 == 0:
                    patterns.append(FamilyPattern(FamilyId.F11_4321, n, a=a, b=b))
        for a in range(4, n):
            c = n - 1 - a
            if c >= 1 and (a + c) % 2 == 0:
                patterns.append(FamilyPattern(FamilyId.F18_431, n, a=a))
        if n >= 6:
            patterns.append(FamilyPattern(FamilyId.C3_TAIL, n))
        if n >= 7:
            patterns.append(FamilyPattern(FamilyId.SQ_42, n))
        if n == 5 or n >= 8:
            patterns.append(FamilyPattern(FamilyId.S_42, n))
        for a in range(4, n):
            c = n - 1 - a
            if c >= 2 and c % 2 == 0:
                patterns.append(FamilyPattern(FamilyId.S_4221, n, a=a))
    return patterns


def test_decision_rules_match_the_exhaustive_oracle():
    started = time.monotonic()
    tested = {}
    accepted = 0
    for n in range(5, 11):
        summary = verify_characterization(n)
        assert summary.ok, summary.mismatches
        assert summary.mismatches == ()
        tested[n] = summary.sequences_tested
        accepted += summary.potentially_count
    elapsed = time.monotonic() - started
    # graphic sequences of length n with positive terms: differences of
    # OEIS A004251, so a sweep that silently drops sequences fails here
    assert tested == {5: 20, 6: 71, 7: 240, 8: 871, 9: 3148, 10: 11655}
    assert elapsed < 300
    print(
        f"PASS: decision rules agree with the brute-force oracle on every "
        f"graphic sequence of length 5..10 ({sum(tested.values())} sequences, "
        f"{accepted} accepted, 0 mismatches, {elapsed:.1f}s)"
    )


def test_empirical_threshold_matches_the_closed_form():
    bounds = {}
    for n in range(5, 11):
        report = sigma_empirical(n)
        assert report.bound == sigma_closed_form(n) == 4 * n - 4
        assert sigma(report.witness) == report.bound - 2
        bounds[n] = report.bound
    assert bounds == {5: 16, 6: 20, 7: 24, 8: 28, 9: 32, 10: 36}
    print(
        "PASS: empirically recomputed degree-sum thresholds for n=5..10 are "
        "16, 20, 24, 28, 32, 36, matching the closed form 4n-4"
    )


def test_extremal_witness_families_are_rejected_for_the_stated_reasons():
    for n in range(5, 13):
        w = sigma_witness(n)
        assert w.terms == tuple([n - 1, n - 1] + [2] * (n - 2))
        r = check_potentially(w)
        assert r.graphic
        assert sigma(w) == 4 * n - 6
        assert r.failure is Failure.COND4
        assert (r.cond4_k, r.cond4_i) == (1, n - 2)
    for n in range(6, 13):
        r = check_potentially(DegreeSequence([n - 2, n - 2] + [2] * (n - 2)))
        assert r.graphic
        assert r.failure is Failure.COND3
    assert check_potentially(parse_sequence("4,2^5")).failure is Failure.COND5
    assert check_potentially(parse_sequence("4,2^6")).failure is Failure.COND6
    print(
        "PASS: the near-threshold witness families are graphic and rejected "
        "for the expected reasons (rules 4 and 3 for n up to 12, plus both "
        "sporadic rejections)"
    )


def test_realizer_is_sound_everywhere_it_can_be_checked(monkeypatch):
    started = time.monotonic()
    # exhaustive half: every accepted sequence on 5..8 vertices, with the
    # bowtie confirmed by an independent brute-force subgraph scan
    realized = 0
    for n in range(5, 9):
        for seq in enumerate_graphic_sequences(n):
            if not check_potentially(seq).potentially:
                continue
            graph = realize_with_bowtie(seq)
            assert tuple(sorted(graph.degrees(), reverse=True)) == seq.terms
            assert brute_contains_bowtie(graph), seq
            realized += 1

    # sweep half: every family member up to 30 vertices, through the general
    # realizer with the family functions made to fail, and through
    # construct_family, which must give the same graph
    construct_family = realizer.construct_family

    def no_family_code(*args):
        raise AssertionError("realize_with_bowtie called family code")

    monkeypatch.setattr(realizer, "match_family", no_family_code)
    monkeypatch.setattr(realizer, "construct_family", no_family_code)
    patterns = all_family_patterns(30)
    assert len(patterns) == 2594
    for pattern in patterns:
        seq = family_sequence(pattern)
        via_realizer = realize_with_bowtie(seq)
        assert certificate_problem(via_realizer, seq) is None, pattern
        assert construct_family(pattern) == via_realizer, pattern
    elapsed = time.monotonic() - started
    print(
        f"PASS: realizer produced a valid bowtie realization for all "
        f"{realized} accepted sequences of length 5..8 and for all "
        f"{len(patterns)} family members up to 30 vertices ({elapsed:.1f}s)"
    )


def test_realizer_builds_every_accepted_sequence_of_length_11():
    started = time.monotonic()
    count = realize_every_accepted_sequence(11)
    assert count == 43_197
    print(
        f"PASS: realizer produced a valid bowtie realization for all {count} "
        f"accepted sequences of length 11 ({time.monotonic() - started:.1f}s)"
    )


def test_laying_off_preserves_graphicality():
    checked = 0
    for n in range(2, 8):
        for terms in nonincreasing_positive_sequences(n, n - 1):
            seq = DegreeSequence(terms)
            assert is_graphic(seq) == is_graphic(lay_off(seq).child), terms
            checked += 1
    rng = random.Random(48151623)
    for _ in range(10_000):
        n = rng.randint(8, 32)
        seq = DegreeSequence(
            sorted((rng.randint(1, n - 1) for _ in range(n)), reverse=True)
        )
        assert is_graphic(seq) == is_graphic(lay_off(seq).child), seq
        checked += 1
    print(
        f"PASS: removing one vertex by lay-off never changes graphicality "
        f"({checked} sequences: exhaustive through length 7 plus 10000 random)"
    )


def test_the_six_accepted_sequences_on_five_vertices():
    accepted = {
        s.terms
        for s in enumerate_graphic_sequences(5)
        if check_potentially(s).potentially
    }
    expected = {
        (4, 4, 4, 4, 4),
        (4, 4, 4, 3, 3),
        (4, 4, 3, 3, 2),
        (4, 3, 3, 3, 3),
        (4, 3, 3, 2, 2),
        (4, 2, 2, 2, 2),
    }
    assert accepted == expected
    print(
        "PASS: exactly six length-5 sequences are accepted, and they are "
        "the expected ones"
    )


def test_round_trips_and_byte_identical_cli_runs(capsys):
    from bowtieseq import format_sequence

    rng = random.Random(314159)
    for _ in range(1000):
        terms = [rng.randint(1, 50) for _ in range(rng.randint(1, 30))]
        seq = DegreeSequence(terms)
        assert parse_sequence(format_sequence(seq)) == seq

    commands = [
        ["check", "4,2^7"],
        ["check", "4,2^7", "--output", "structured"],
        ["check", "4^2,2^3", "--output", "structured"],
        ["realize", "4,2^4"],
        ["realize", "4,2^4", "--output", "structured"],
        ["realize", "4,2^10", "--output", "edges"],
        ["realize", "4,3^4", "--output", "dot"],
        ["verify", "5"],
        ["verify", "6", "--output", "structured"],
        ["sigma", "5"],
        ["sigma", "6", "--output", "structured"],
    ]
    for argv in commands:
        code_a = cli.main(argv)
        out_a = capsys.readouterr()
        code_b = cli.main(argv)
        out_b = capsys.readouterr()
        assert (code_a, out_a.out, out_a.err) == (code_b, out_b.out, out_b.err), argv
    print(
        "PASS: parse/format round-trips held for 1000 random sequences and "
        f"{len(commands)} CLI invocations were byte-identical across repeated runs"
    )


# The structured output of `verify N` and `sigma N` for N = 5..8: the 48
# lines the benchmark's verify workload checks.  A change to these bytes
# changes what the package reports.
GOLDEN_STRUCTURED = {
    ("verify", 5): "n=5\nsequences_tested=20\npotentially=6\nrejected=14\nmismatches=0\nresult=ok\n",
    ("sigma", 5): "n=5\nempirical=16\nclosed_form=16\nagree=yes\nwitness=4^2,2^3\nwitness_sum=14\n",
    ("verify", 6): "n=6\nsequences_tested=71\npotentially=41\nrejected=30\nmismatches=0\nresult=ok\n",
    ("sigma", 6): "n=6\nempirical=20\nclosed_form=20\nagree=yes\nwitness=5^2,2^4\nwitness_sum=18\n",
    ("verify", 7): "n=7\nsequences_tested=240\npotentially=199\nrejected=41\nmismatches=0\nresult=ok\n",
    ("sigma", 7): "n=7\nempirical=24\nclosed_form=24\nagree=yes\nwitness=6^2,2^5\nwitness_sum=22\n",
    ("verify", 8): "n=8\nsequences_tested=871\npotentially=808\nrejected=63\nmismatches=0\nresult=ok\n",
    ("sigma", 8): "n=8\nempirical=28\nclosed_form=28\nagree=yes\nwitness=7^2,2^6\nwitness_sum=26\n",
}


def test_structured_verify_and_sigma_output_is_pinned(capsys):
    lines = 0
    for (command, n), expected in GOLDEN_STRUCTURED.items():
        code = cli.main([command, str(n), "--output", "structured"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (0, expected, ""), (command, n)
        lines += expected.count("\n")
    assert lines == 48
    print(
        "PASS: structured output of verify and sigma for N=5..8 matches the "
        f"recorded {lines} lines byte for byte"
    )
