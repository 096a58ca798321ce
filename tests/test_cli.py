"""Tests for the command-line interface: outputs, exit codes, determinism."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

import bowtieseq.cli as cli
from bowtieseq import DegreeSequence, SigmaReport, parse_sequence
from bowtieseq.verify import CharacterizationMismatch, Mismatch, VerificationSummary


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------- check


def test_check_accepted(capsys):
    code, out, err = run_cli(capsys, "check", "4,2^7")
    assert code == 0 and err == ""
    assert out == (
        "sequence: 4,2^7\n"
        "n: 8\n"
        "sum: 18\n"
        "graphic: yes\n"
        "potentially: yes\n"
    )


def test_check_rejected_sporadic(capsys):
    code, out, _ = run_cli(capsys, "check", "4,2^5")
    assert code == 1
    assert "potentially: no (condition 5)" in out


def test_check_rejected_parameterized(capsys):
    code, out, _ = run_cli(capsys, "check", "4^2,2^3")
    assert code == 1
    assert out.endswith("potentially: no (condition 4, k=1, i=3)\n")


def test_check_rejected_not_graphic(capsys):
    code, out, _ = run_cli(capsys, "check", "3,1,1")
    assert code == 1
    assert "graphic: no\n" in out
    assert "potentially: no (not graphic)" in out


def test_check_rejected_too_short(capsys):
    code, out, _ = run_cli(capsys, "check", "2^3")
    assert code == 1
    assert "potentially: no (too short: n=3 < 5)" in out


def test_check_structured(capsys):
    code, out, _ = run_cli(capsys, "check", "4^2,2^3", "--output", "structured")
    assert code == 1
    assert out == (
        "sequence=4^2,2^3\n"
        "n=5\n"
        "sum=14\n"
        "graphic=yes\n"
        "potentially=no\n"
        "reason=cond4\n"
        "k=1\n"
        "i=3\n"
    )


def test_check_structured_accepted_has_no_reason(capsys):
    _, out, _ = run_cli(capsys, "check", "4,2^4", "--output", "structured")
    assert "reason=" not in out
    assert "potentially=yes\n" in out


def test_check_normalises_the_echoed_sequence(capsys):
    _, out, _ = run_cli(capsys, "check", "2,2,4,2,2")
    assert out.startswith("sequence: 4,2^4\n")


# --------------------------------------------------------------------- realize


def test_realize_text(capsys):
    code, out, err = run_cli(capsys, "realize", "4,2^4")
    assert code == 0 and err == ""
    assert out == (
        "sequence: 4,2^4\n"
        "n: 5\n"
        "edges: 6\n"
        "bowtie: center 0, wings (1,2) and (3,4)\n"
        "adjacency:\n"
        "  0: 1 2 3 4\n"
        "  1: 0 2\n"
        "  2: 0 1\n"
        "  3: 0 4\n"
        "  4: 0 3\n"
    )


def test_realize_structured(capsys):
    code, out, _ = run_cli(capsys, "realize", "4,2^4", "--output", "structured")
    assert code == 0
    assert out == (
        "sequence=4,2^4\n"
        "n=5\n"
        "edge_count=6\n"
        "bowtie_center=0\n"
        "bowtie_wing1=1,2\n"
        "bowtie_wing2=3,4\n"
        "edge=0,1\n"
        "edge=0,2\n"
        "edge=0,3\n"
        "edge=0,4\n"
        "edge=1,2\n"
        "edge=3,4\n"
    )


def test_realize_edges(capsys):
    code, out, _ = run_cli(capsys, "realize", "4,2^4", "--output", "edges")
    assert code == 0
    assert out == (
        "# bowtie center 0 wings 1,2 3,4\n"
        "0 1\n0 2\n0 3\n0 4\n1 2\n3 4\n"
    )


def test_realize_dot(capsys):
    code, out, _ = run_cli(capsys, "realize", "4,2^4", "--output", "dot")
    assert code == 0
    assert out.startswith("graph {\n  // bowtie center 0 wings 1,2 3,4\n")
    assert out.endswith("}\n")
    assert out.count(" -- ") == 6


def test_realize_rejected_writes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "realize", "4,2^5")
    assert code == 1
    assert out == ""
    assert err.startswith("cannot realize: ")
    assert "cond5" in err


def test_realize_rejection_line_stays_short_for_a_long_sequence(capsys):
    text = ",".join(str(d) for d in range(3000, 0, -1))
    code, out, err = run_cli(capsys, "realize", text)
    assert code == 1 and out == ""
    assert err.startswith("cannot realize: '3000,2999,")
    assert err.endswith("(not_graphic)\n")
    assert len(err.encode()) < 300


def test_realize_non_graphic_rejected(capsys):
    code, _, err = run_cli(capsys, "realize", "3,1")
    assert code == 1 and "not_graphic" in err


def test_realize_output_degrees_match_larger_case(capsys):
    code, out, _ = run_cli(capsys, "realize", "4,2^10", "--output", "edges")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    degrees: dict[int, int] = {}
    for line in lines:
        u, v = map(int, line.split())
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    assert sorted(degrees.values(), reverse=True) == [4] + [2] * 10


# ---------------------------------------------------------------------- verify


def test_verify_text(capsys):
    code, out, err = run_cli(capsys, "verify", "5")
    assert code == 0 and err == ""
    assert out == (
        "n: 5\n"
        "sequences tested: 20\n"
        "potentially: 6\n"
        "rejected: 14\n"
        "mismatches: 0\n"
        "result: ok\n"
    )


def test_verify_structured(capsys):
    code, out, _ = run_cli(capsys, "verify", "5", "--output", "structured")
    assert code == 0
    assert out == (
        "n=5\n"
        "sequences_tested=20\n"
        "potentially=6\n"
        "rejected=14\n"
        "mismatches=0\n"
        "result=ok\n"
    )


def test_verify_reports_mismatches_and_exits_3(capsys, monkeypatch):
    fake = VerificationSummary(
        n=5,
        sequences_tested=20,
        mismatches=(
            Mismatch(parse_sequence("4,2^4"), checker_verdict=True, oracle_verdict=False),
        ),
        potentially_count=6,
    )
    monkeypatch.setattr(cli, "verify_characterization", lambda n: fake)
    code, out, err = run_cli(capsys, "verify", "5")
    assert code == 3
    assert "result: falsified" in out
    assert "mismatches: 1" in out
    assert err == "mismatch: 4,2^4 checker=yes oracle=no\n"


# ----------------------------------------------------------------------- sigma


def test_sigma_text(capsys):
    code, out, err = run_cli(capsys, "sigma", "6")
    assert code == 0 and err == ""
    assert out == (
        "n: 6\n"
        "empirical: 20, closed-form: 20, agree: yes\n"
        "witness: 5^2,2^4 (sum 18, rejected)\n"
    )


def test_sigma_structured(capsys):
    code, out, _ = run_cli(capsys, "sigma", "5", "--output", "structured")
    assert code == 0
    assert out == (
        "n=5\n"
        "empirical=16\n"
        "closed_form=16\n"
        "agree=yes\n"
        "witness=4^2,2^3\n"
        "witness_sum=14\n"
    )


def test_sigma_disagreement_exits_3(capsys, monkeypatch):
    fake = SigmaReport(n=5, bound=18, witness=parse_sequence("4^2,2^3"))
    monkeypatch.setattr(cli, "sigma_empirical", lambda n: fake)
    code, out, _ = run_cli(capsys, "sigma", "5")
    assert code == 3
    assert "empirical: 18, closed-form: 16, agree: no" in out


def test_alarm_exception_exits_3(capsys, monkeypatch):
    def boom(n):
        raise CharacterizationMismatch("decision procedure and oracle disagree")

    monkeypatch.setattr(cli, "sigma_empirical", boom)
    code, out, err = run_cli(capsys, "sigma", "5")
    assert code == 3
    assert out == ""
    assert err.startswith("falsification alarm: ")


# ------------------------------------------------------------- errors and usage


def test_parse_errors_exit_2(capsys):
    for bad in ("4,,", "0", "4^", "x", "4_0,2"):
        code, out, err = run_cli(capsys, "check", bad)
        assert code == 2, bad
        assert out == ""
        assert err.startswith("error: ")


def test_out_of_range_n_exits_2(capsys):
    for command, n in (("verify", "4"), ("verify", "13"), ("sigma", "4"), ("sigma", "13")):
        code, _, err = run_cli(capsys, command, n)
        assert code == 2
        assert "between 5 and 12" in err


def test_huge_run_count_exits_2_without_building_the_terms(capsys):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "check", "4^1000000000000")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: more than 1000000 terms")


def test_usage_errors_exit_2(capsys):
    for argv in ([], ["frobnicate"], ["check"], ["check", "4,2^4", "--output", "dot"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


# ---------------------------------------------------------------- determinism


def test_every_command_is_byte_deterministic(capsys):
    commands = [
        ("check", "4,2^7", "--output", "structured"),
        ("check", "4^2,2^3", "--output", "structured"),
        ("realize", "4,2^4", "--output", "structured"),
        ("realize", "4,3^2,2^2", "--output", "edges"),
        ("realize", "4,2^10", "--output", "dot"),
        ("verify", "5", "--output", "structured"),
        ("sigma", "5", "--output", "structured"),
    ]
    for argv in commands:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second, argv


# ------------------------------------------------------------- console script


def test_one_process_answers_as_separate_processes_do(capsys):
    # main builds its parser once per process: a usage error in between
    # must leave the next run's output as a fresh process would write it
    runs = [
        ["check", "4,2^4"],
        ["verify", "5"],
        ["check", "--output", "nope", "4,2^4"],
        ["check", "4,2^4"],
    ]
    codes = []
    for argv in runs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "bowtieseq.cli", *argv], capture_output=True, text=True
        )
        assert (code, captured.out, captured.err) == (
            proc.returncode, proc.stdout, proc.stderr
        ), argv
        codes.append(code)
    assert codes == [0, 0, 2, 0]
    assert cli._build_parser() is cli._build_parser()


def test_installed_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bowtieseq.cli", "check", "4,2^4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "potentially: yes" in proc.stdout


def test_a_closed_stdout_exits_141_without_a_traceback():
    for argv in (("verify", "5"), ("realize", "4,2^4", "--output", "edges")):
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader: the child's first write fails
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bowtieseq.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141, argv
        assert proc.stderr == "", argv


_ALARM = (
    "import bowtieseq.cli as cli\n"
    "from bowtieseq.verify import CharacterizationMismatch\n"
    "def boom(n):\n"
    "    raise CharacterizationMismatch('decision procedure and oracle disagree')\n"
    "cli.sigma_empirical = boom\n"
    "raise SystemExit(cli.main(['sigma', '5']))\n"
)


@pytest.mark.parametrize(
    "argv, code",
    [
        (("-m", "bowtieseq.cli", "check", "4,x"), 2),
        (("-m", "bowtieseq.cli", "realize", "4,2^5"), 1),
        (("-c", _ALARM), 3),
    ],
    ids=["parse-error", "rejected", "alarm"],
)
def test_a_closed_stderr_keeps_the_exit_code(argv, code):
    # as in `bowtieseq check 4,x 2>&1 | true`: the message is lost, the code is not
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            stdout=subprocess.PIPE,
            stderr=write_end,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code, argv
    assert proc.stdout == "", argv


def test_parse_error_line_stays_short_for_a_huge_text(capsys):
    code, out, err = run_cli(capsys, "check", "1," * 500000 + "x")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad degree 'x' in ")
    assert err.count("\n") == 1
    assert len(err) < 200
