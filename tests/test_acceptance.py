"""Acceptance gate: the end-to-end guarantees the package ships under.

Each test here covers one headline property, validates it with routes as
independent of the implementation under test as feasible, and prints one
PASS line with the measured numbers, so a verbose run doubles as a
verification report.
"""

from __future__ import annotations

import ast
import random
import time
from pathlib import Path

import bowtieseq.characterize as characterize
import bowtieseq.cli as cli
import bowtieseq.realizer as realizer
from _brute import brute_contains_bowtie, nonincreasing_positive_sequences
from _placement import has_bowtie_realization, rule_shape_report
from realize_sweep import certificate_problem, realize_every_accepted_sequence
from bowtieseq import (
    DegreeSequence,
    Failure,
    SimpleGraph,
    check_potentially,
    contains_bowtie,
    format_sequence,
    is_graphic,
    parse_sequence,
    realize_with_bowtie,
    sigma,
    sigma_closed_form,
)
from bowtieseq.characterize import sigma_witness
from bowtieseq.graphs import enumerate_realizations
from bowtieseq.realizer import FamilyId, FamilyPattern, family_sequence
from bowtieseq.sequences import lay_off
from bowtieseq.verify import (
    enumerate_graphic_sequences,
    sigma_empirical,
    verify_characterization,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "bowtieseq"


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
    for n in range(5, 12):
        summary = verify_characterization(n)
        assert summary.ok, summary.mismatches
        assert summary.mismatches == ()
        tested[n] = summary.sequences_tested
        accepted += summary.potentially_count
    elapsed = time.monotonic() - started
    # graphic sequences of length n with positive terms: differences of
    # OEIS A004251, so a sweep that silently drops sequences fails here
    assert tested == {5: 20, 6: 71, 7: 240, 8: 871, 9: 3148, 10: 11655, 11: 43332}
    assert elapsed < 300
    print(
        f"PASS: decision rules agree with the rules-free oracle on every "
        f"graphic sequence of length 5..11 ({sum(tested.values())} sequences, "
        f"{accepted} accepted, 0 mismatches, {elapsed:.1f}s)"
    )


def test_placement_reference_matches_the_exhaustive_walk():
    started = time.monotonic()
    tested = accepted = 0
    for n in range(5, 9):
        for seq in enumerate_graphic_sequences(n):
            found = has_bowtie_realization(seq.terms)
            walked = any(contains_bowtie(g) is not None for g in enumerate_realizations(seq))
            assert found == walked, seq
            tested += 1
            accepted += found
    assert tested == 1202
    print(
        f"PASS: the bowtie placement reference agrees with the exhaustive "
        f"walk on every graphic sequence of length 5..8 ({tested} sequences, "
        f"{accepted} with a bowtie, {time.monotonic() - started:.1f}s)"
    )


def _package_imports(module: str) -> set[str]:
    """The bowtieseq modules that src/bowtieseq/<module>.py imports."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def test_the_oracle_stays_independent_of_the_rules():
    # the oracle's code is graphs.py and what it imports from the package;
    # none of it may reach the six rules or the realizer that runs them.
    # verify.py runs the rules it checks, so it imports characterize, but it
    # takes its "no"s from the graphs module, not from the realizer
    oracle_modules, todo = set(), ["graphs"]
    while todo:
        module = todo.pop()
        oracle_modules.add(module)
        todo.extend(_package_imports(module) - oracle_modules)
    assert oracle_modules.isdisjoint({"characterize", "realizer"}), oracle_modules
    assert "realizer" not in _package_imports("verify")
    assert "graphs" in _package_imports("verify")
    print(f"PASS: the oracle's modules {sorted(oracle_modules)} import no rules")


def test_rules_match_the_placement_reference_on_rule_shapes_beyond_the_sweep():
    # past n = 10 a graphic sequence is rejected by rules 1-2 (degrees alone)
    # or by the explicit shapes of rules 3-4: check each shape and every
    # graphic sequence one step from one.  The oracle, past the walk's
    # limit, must agree with the reference too, and each accepted sequence
    # is realized: next to a rejected shape is where the first bowtie
    # placements are most likely to fail
    started = time.monotonic()
    report = rule_shape_report(20)
    assert report == (1770, 1350, [], [])
    print(
        f"PASS: decision rules and the oracle agree with the bowtie placement "
        f"reference on every rule 3/4 shape of length 11..20 and its graphic neighbours "
        f"({report[0]} sequences, 0 mismatches), and the realizer built a valid "
        f"bowtie realization for all {report[1]} accepted ones "
        f"({time.monotonic() - started:.1f}s)"
    )


def test_empirical_threshold_matches_the_closed_form():
    bounds = {}
    for n in range(5, 12):
        report = sigma_empirical(n)
        assert report.bound == sigma_closed_form(n) == 4 * n - 4
        assert sigma(report.witness) == report.bound - 2
        bounds[n] = report.bound
    assert bounds == {5: 16, 6: 20, 7: 24, 8: 28, 9: 32, 10: 36, 11: 40}
    print(
        "PASS: empirically recomputed degree-sum thresholds for n=5..11 are "
        "16, 20, 24, 28, 32, 36, 40, matching the closed form 4n-4"
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


FREE_PARAMETERS = {
    FamilyId.F4_432: "a",
    FamilyId.F7_432: "a",
    FamilyId.F11_4321: "ab",
    FamilyId.F18_431: "a",
    FamilyId.S_4221: "a",
}


def test_construct_family_accepts_exactly_the_family_members(monkeypatch):
    # every parameter choice around each range, with the realization stubbed
    # to the decision it stands on: BadParams exactly off the member list
    def decided_realization(seq):
        if not check_potentially(seq).potentially:
            raise realizer.NotPotentially(str(seq))
        return SimpleGraph(len(seq))

    monkeypatch.setattr(realizer, "realize_with_bowtie", decided_realization)
    members = set(all_family_patterns(30))
    tried = rejected = 0
    for family in FamilyId:
        params = FREE_PARAMETERS.get(family, "")
        for n in range(1, 31):
            values = [None, *range(-1, n + 2)]
            for a in values if "a" in params else [None]:
                for b in values if "b" in params else [None]:
                    pattern = FamilyPattern(family, n, a=a, b=b)
                    try:
                        realizer.construct_family(pattern)
                    except realizer.BadParams:
                        assert pattern not in members, pattern
                        rejected += 1
                    else:
                        assert pattern in members, pattern
                    tried += 1
    assert tried - rejected == len(members) == 2594
    print(
        f"PASS: construct_family raised BadParams on {rejected} of {tried} "
        f"parameter choices with n <= 30, exactly those off the member list"
    )


def test_realizer_builds_every_accepted_sequence_of_length_11():
    started = time.monotonic()
    count = realize_every_accepted_sequence(11)
    assert count == 43_197
    print(
        f"PASS: realizer produced a valid bowtie realization for all {count} "
        f"accepted sequences of length 11 ({time.monotonic() - started:.1f}s)"
    )


def planted_bowtie_graph(rng: random.Random, n: int) -> SimpleGraph:
    """A random connected graph on n >= 5 vertices with a bowtie on 0..4.

    Each later vertex joins a random earlier one, so none is isolated; the
    extra edges (up to 2n) have one end skewed towards low labels, so a
    few vertices become hubs and the degrees spread over many values.
    """
    edges = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)}
    edges.update((rng.randrange(v), v) for v in range(5, n))
    for _ in range(rng.randrange(2 * n)):
        u, v = int(n * rng.random() ** 2), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return SimpleGraph(n, edges)


def test_realizer_builds_random_planted_bowtie_sequences():
    # sizes the exhaustive sweeps (n <= 12) do not reach, up to n = 2000
    started = time.monotonic()
    rng = random.Random(11300)
    sizes = []
    for count in range(303):
        n = rng.randint(11, 300) if count < 300 else 2000
        seq = DegreeSequence(planted_bowtie_graph(rng, n).degrees())
        problem = certificate_problem(realize_with_bowtie(seq), seq)
        assert problem is None, f"realization of {seq}: {problem}"
        sizes.append(n)
    assert min(sizes) < 20 and max(sizes[:300]) > 290
    print(
        f"PASS: realizer produced a valid bowtie realization for {len(sizes)} "
        f"degree sequences of random graphs with a planted bowtie, "
        f"n = {min(sizes)}..{max(sizes[:300])} and three with n = 2000 "
        f"({time.monotonic() - started:.1f}s)"
    )


def test_realize_at_scale_skips_the_quadratic_graphicality_test(monkeypatch):
    # a completed placement proves the sequence graphic, so an accepted
    # sequence whose first placement completes never reaches the repeated
    # lay-off test behind check_potentially (quadratic: seconds at this n)
    def no_lay_off_test(seq):
        raise AssertionError("realize_with_bowtie ran is_graphic")

    monkeypatch.setattr(characterize, "is_graphic", no_lay_off_test)
    started = time.monotonic()
    planted = DegreeSequence(planted_bowtie_graph(random.Random(20000), 20_000).degrees())
    for seq in (parse_sequence("4^20000"), planted):
        problem = certificate_problem(realize_with_bowtie(seq), seq)
        assert problem is None, f"realization of {format_sequence(seq)[:80]}: {problem}"
    print(
        f"PASS: realized 4^20000 and a planted sequence of 20000 terms with no "
        f"graphicality test ({time.monotonic() - started:.1f}s)"
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
        ["realize", "4,3^2,2^2", "--output", "edges"],
        ["realize", "4,2^10", "--output", "dot"],
        ["verify", "5"],
        ["verify", "5", "--output", "structured"],
        ["verify", "6", "--output", "structured"],
        ["sigma", "5"],
        ["sigma", "5", "--output", "structured"],
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
