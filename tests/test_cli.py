"""Tests for the command-line interface: outputs and exit codes."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time

import pytest

import bowtieseq.cli as cli
from bowtieseq import SigmaReport, parse_sequence
from bowtieseq.verify import CharacterizationMismatch, Mismatch, VerificationSummary


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------- check


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


def test_check_structured_accepted_has_no_reason(capsys):
    _, out, _ = run_cli(capsys, "check", "4,2^4", "--output", "structured")
    assert "reason=" not in out
    assert "potentially=yes\n" in out


# one sequence per outcome of check: the argument, its echo, n, sum, graphic,
# the text verdict and the structured lines after potentially=; the accepted
# argument is unsorted with split runs, so its echo is the normalised form
CHECK_OUTCOMES = {
    "accepted": ("2^3,4,2^4", "4,2^7", 8, 18, "yes", "yes", ""),
    "not_graphic": ("3,1,1", "3,1^2", 3, 5, "no", "no (not graphic)", "reason=not_graphic\n"),
    "too_short": ("2^3", "2^3", 3, 6, "yes", "no (too short: n=3 < 5)", "reason=too_short\n"),
    "cond1": ("3^6", "3^6", 6, 18, "yes", "no (condition 1)", "reason=cond1\n"),
    "cond2": ("4,3^3,1^3", "4,3^3,1^3", 7, 16, "yes", "no (condition 2)", "reason=cond2\n"),
    "cond3": ("4^2,2^4", "4^2,2^4", 6, 16, "yes", "no (condition 3)", "reason=cond3\n"),
    "cond4": (
        "4^2,2^3", "4^2,2^3", 5, 14, "yes", "no (condition 4, k=1, i=3)",
        "reason=cond4\nk=1\ni=3\n",
    ),
    "cond5": ("4,2^5", "4,2^5", 6, 14, "yes", "no (condition 5)", "reason=cond5\n"),
    "cond6": ("4,2^6", "4,2^6", 7, 16, "yes", "no (condition 6)", "reason=cond6\n"),
}


def _pinned_runs():
    for case, (arg, echo, n, total, graphic, verdict, tail) in CHECK_OUTCOMES.items():
        code = 0 if verdict == "yes" else 1
        text = (
            f"sequence: {echo}\nn: {n}\nsum: {total}\ngraphic: {graphic}\n"
            f"potentially: {verdict}\n"
        )
        structured = (
            f"sequence={echo}\nn={n}\nsum={total}\ngraphic={graphic}\n"
            f"potentially={verdict.split()[0]}\n{tail}"
        )
        yield pytest.param(("check", arg), code, text, "", id=f"{case}-text")
        yield pytest.param(
            ("check", arg, "--output", "structured"), code, structured, "", id=f"{case}-structured"
        )
    for command in ("verify", "sigma"):
        for n in (4, 13):
            err = f"error: N must be between 5 and 12, got {n}\n"
            yield pytest.param((command, str(n)), 2, "", err, id=f"{command}-{n}")
    # the table pins the text of verify and sigma too (their structured
    # output is pinned in test_acceptance's GOLDEN_STRUCTURED)
    verify = (
        "n: 5\nsequences tested: 20\npotentially: 6\nrejected: 14\nmismatches: 0\n"
        "result: ok\n"
    )
    yield pytest.param(("verify", "5"), 0, verify, "", id="verify-5-text")
    sigma = (
        "n: 6\nempirical: 20, closed-form: 20, agree: yes\n"
        "witness: 5^2,2^4 (sum 18, rejected)\n"
    )
    yield pytest.param(("sigma", "6"), 0, sigma, "", id="sigma-6-text")


@pytest.mark.parametrize("argv, code, out, err", _pinned_runs())
def test_every_check_outcome_and_range_error_is_pinned(capsys, argv, code, out, err):
    assert run_cli(capsys, *argv) == (code, out, err)


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


# sha256 of the realize output in each format; the last three sequences are
# degree sequences of seeded random graphs with a planted bowtie (n = 200,
# 197 and 109)
REALIZE_DIGESTS = {
    "4,2^4": {
        "text": "44bca274c533e0003097c3bdb3ce7f1644dfc7578716663ef812892e588a4f96",
        "structured": "dbeb125be68c463d8403080e7cfc23d1064d9dd7ae120be2375863abf2f551a6",
        "dot": "010e5452f4c6fe091a80da82a2cb4fa1c295dca99ed165a444b6291e1f275a16",
        "edges": "a5f6962bf1d60027b7b2de09b40e85f0641612d5673e133c51fb58490ab7c50d",
    },
    "4^1000": {
        "text": "7be02b2238e0bb1176cdbce896b1e15fa8e8a7899828aaffa5e7fe780e48e30f",
        "structured": "4dbddd133882fa517d944d2715f110278b9362a1077dfb04e652ec0f47b102f3",
        "dot": "5215736c6bb278977d2eeb4669cdd82c50f7af781ecae5cbc788f6f6942d268b",
        "edges": "73e289b1a9424dc397eb570e414b1b78a0d3edbd2854a1d2982e4389a13a6156",
    },
    "37,26,24,19,15^3,14^5,13,11^3,10^5,9^8,8^7,7^11,6^16,5^25,4^37,3^38,2^24,1^13": {
        "text": "775974807f37f2e42377a41fca9cbabad0c21d32c20b844f8b244523c7bb06f9",
        "structured": "b5063e55245ae574d1eb3e6ea06a7671be9f780254ca18a9c89379e5520f72c8",
        "dot": "f7886a39141954186e0ffdb16561764bd2ed07412e662e71bf7a6de9a987e21e",
        "edges": "2f8fae5fbfa8dfd37887712689561541d8338172fcd0a8a16315abf2733783e2",
    },
    "84,70,38,34,30,28,22,20,19,18,17,16,15^3,14^3,13^2,12^6,11^3,10^3,9^10,8^20,7^18,6^21,5^20,4^34,3^20,2^16,1^6": {
        "text": "5a2da3e3db31659266b638e62cd08c4f027acedbb2124e08f0732a9a8245cc8e",
        "structured": "8eb90d7ebb760ee9ac4ebe7cc06c6198e3d7dec6cb3ea4837dcdd71799ebaa68",
        "dot": "ba4114b684f4b5fd633071df18df6912cd846d0363600dcc7f3d1e5f5f7a15a7",
        "edges": "a0c0467f434fee27f8d70ebf4582a309c2f35cf0062b931dcd66dc87f4e8170d",
    },
    "61,33,27,22,19,16^3,15^2,13^2,12^4,11^2,10^7,9^6,8^7,7^10,6^15,5^10,4^15,3^15,2^5,1": {
        "text": "74b9336af73412dc957436733a79e30d1ba94677b9251b17fd964aabeb837f4a",
        "structured": "9a29b2f8db926d5a787ae68e00c5081a68f7bfa74a14a7d5db1b0e5f2da5cb8a",
        "dot": "a21e274ecbfb52ad06ea84b82c820dd2dadd102d7ae6256f21eb547a21219d7b",
        "edges": "7b370f16a3b8402a3bd2a8c5bf1f9e058997480fdfc7ae71bd16155f4e871991",
    },
}


def test_realize_output_is_pinned_byte_for_byte(capsys):
    started = time.perf_counter()
    for text, digests in REALIZE_DIGESTS.items():
        for output, digest in digests.items():
            code, out, err = run_cli(capsys, "realize", text, "--output", output)
            assert code == 0 and err == ""
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (text[:20], output)
    assert time.perf_counter() - started < 2


# ---------------------------------------------------------------------- verify


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
