"""Self-checks for the benchmark: each output check rejects a corrupted output.

Run from the repository root:

    python3 -m pytest -q bench/test_checks.py

If a check accepted these corruptions, a broken library could still report
``failed = 0``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

LIB = run.load_library()


def _decide(case: gen.Case):
    seq = LIB["sequences"].parse_sequence(case.text)
    return LIB["characterize"].check_potentially(seq)


def test_decide_check_rejects_a_flipped_verdict_and_a_wrong_k_i():
    cases = gen.decide_cases(seed=7, count=64)
    cond4 = next(c for c in cases if c.label[1] == "cond4")
    report = _decide(cond4)
    assert checks.decide_problem(report, cond4.label) is None
    flipped = dataclasses.replace(report, potentially=not report.potentially)
    assert checks.decide_problem(flipped, cond4.label) is not None
    wrong_k = dataclasses.replace(report, cond4_k=report.cond4_k + 1)
    assert checks.decide_problem(wrong_k, cond4.label) is not None
    accepted = next(c for c in cases if c.label[0])
    assert checks.decide_problem(_decide(accepted), accepted.label) is None
    assert checks.decide_problem(flipped, accepted.label) is not None


def test_realize_check_rejects_an_edge_list_missing_a_bowtie_edge():
    graphs = LIB["graphs"]
    case = gen.realize_cases(seed=7, count=4)[0]
    graph = LIB["realizer"].realize_with_bowtie(LIB["sequences"].parse_sequence(case.text))
    witness = graphs.contains_bowtie(graph)
    text = graphs.edge_list_text(graph, witness)
    assert checks.realize_problem(text, case.degrees) is None
    u, v = witness.edges()[-1]
    missing = text.replace(f"\n{u} {v}\n", "\n", 1)
    assert missing != text
    assert checks.realize_problem(missing, case.degrees) is not None
    doubled = text + f"{u} {v}\n"
    assert checks.realize_problem(doubled, case.degrees) is not None


def test_verify_check_rejects_a_mismatch():
    argv = ["verify", "5"]
    out = io.StringIO()
    with redirect_stdout(out):
        code = LIB["cli"].main([*argv, "--output", "structured"])
    assert checks.verify_problem(argv, code, out.getvalue()) is None
    corrupted = out.getvalue().replace("mismatches=0", "mismatches=1")
    assert corrupted != out.getvalue()
    assert checks.verify_problem(argv, code, corrupted) is not None


def test_erdos_gallai_matches_the_library_on_random_sequences():
    rng = random.Random(3)
    is_graphic = LIB["sequences"].is_graphic
    for _ in range(2000):
        n = rng.randint(1, 12)
        degrees = sorted((rng.randint(1, n) for _ in range(n)), reverse=True)
        expected = is_graphic(LIB["sequences"].DegreeSequence(degrees))
        assert gen.erdos_gallai(degrees) == expected, degrees


def test_labels_hold_on_every_stratum():
    cases = gen.decide_cases(seed=11, count=48)
    assert {c.stratum for c in cases} == {name for name, _ in gen.DECIDE_STRATA}
    for case in cases:
        assert checks.decide_problem(_decide(case), case.label) is None, case.stratum


def test_pools_built_in_a_child_process_equal_the_generator_output():
    assert run.generated_pool("decide", 11, 48) == gen.decide_cases(11, 48)
    assert run.generated_pool("realize", 11, 48) == gen.realize_cases(11, 48)


def test_benchmark_json_lists_exactly_the_metrics_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == spans.metric_units()
    assert [w["name"] for w in spec["workloads"]] == sorted(run.WORKLOADS)
