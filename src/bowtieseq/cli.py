"""Command-line interface for the bowtie degree-sequence toolkit.

Subcommands:

* ``check SEQ`` — decide whether SEQ admits a realization containing a
  bowtie (two triangles sharing one vertex).
* ``realize SEQ`` — build such a realization explicitly.
* ``verify N`` — compare the decision procedure against the rules-free
  placement-search oracle on every graphic sequence of length N (5..12).
* ``sigma N`` — recompute the extremal degree-sum threshold empirically
  for length N (5..12) and compare it with the closed form 4N - 4.

Sequences use run-length text, e.g. ``4,3^2,2^2``.  ``--output structured``
switches reports to stable ``key=value`` lines that are byte-identical
between runs; ``realize`` additionally offers ``--output dot`` and
``--output edges``.

Exit codes: 0 success (accepted / realized / verified / thresholds agree);
1 rejected sequence; 2 usage or input error; 3 falsification alarm,
meaning the decision rules and the exhaustive ground truth disagreed or an
internal construction failed validation — a bug in the library, never a
property of the input; 141 (128 + SIGPIPE) when the reader of stdout went
away before the output was written, as in ``bowtieseq verify 8 | true``.
A reader of stderr that went away loses the message but not the exit code:
``bowtieseq check 4,x 2>&1 | true`` still exits 2.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .characterize import CheckReport, Failure, check_potentially, sigma_closed_form
from .graphs import contains_bowtie, dot_text, edge_list_text
from .realizer import InternalExhaustion, NotPotentially, realize_with_bowtie
from .sequences import ParseError, format_sequence, parse_sequence, sigma
from .verify import SWEEP_LIMIT, CharacterizationMismatch, sigma_empirical, verify_characterization

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_FALSIFIED = 3


def _warn(line: str) -> None:
    """Write one line to stderr; if nobody reads it, drop it and carry on."""
    try:
        print(line, file=sys.stderr, flush=True)
    except BrokenPipeError:
        # as main does for stdout: leave the exit-time flush nothing to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


_PLAIN_CONDITIONS = {
    Failure.COND1: "condition 1",
    Failure.COND2: "condition 2",
    Failure.COND3: "condition 3",
    Failure.COND5: "condition 5",
    Failure.COND6: "condition 6",
}


def _reason_text(report: CheckReport, n: int) -> str:
    failure = report.failure
    if failure is Failure.NOT_GRAPHIC:
        return "not graphic"
    if failure is Failure.TOO_SHORT:
        return f"too short: n={n} < 5"
    if failure is Failure.COND4:
        return f"condition 4, k={report.cond4_k}, i={report.cond4_i}"
    return _PLAIN_CONDITIONS[failure]


def _cmd_check(args: argparse.Namespace) -> int:
    seq = parse_sequence(args.sequence)
    report = check_potentially(seq)
    lines: list[str]
    if args.output == "structured":
        lines = [
            f"sequence={format_sequence(seq)}",
            f"n={len(seq)}",
            f"sum={sigma(seq)}",
            f"graphic={_yn(report.graphic)}",
            f"potentially={_yn(report.potentially)}",
        ]
        if report.failure is not None:
            lines.append(f"reason={report.failure.value}")
            if report.failure is Failure.COND4:
                lines.append(f"k={report.cond4_k}")
                lines.append(f"i={report.cond4_i}")
    else:
        verdict = (
            "potentially: yes"
            if report.potentially
            else f"potentially: no ({_reason_text(report, len(seq))})"
        )
        lines = [
            f"sequence: {format_sequence(seq)}",
            f"n: {len(seq)}",
            f"sum: {sigma(seq)}",
            f"graphic: {_yn(report.graphic)}",
            verdict,
        ]
    print("\n".join(lines))
    return EXIT_OK if report.potentially else EXIT_REJECTED


def _cmd_realize(args: argparse.Namespace) -> int:
    seq = parse_sequence(args.sequence)
    try:
        graph = realize_with_bowtie(seq)
    except NotPotentially as exc:
        _warn(f"cannot realize: {exc}")
        return EXIT_REJECTED
    witness = contains_bowtie(graph)
    assert witness is not None  # realize_with_bowtie validates this
    if args.output == "dot":
        sys.stdout.write(dot_text(graph, witness))
        return EXIT_OK
    if args.output == "edges":
        sys.stdout.write(edge_list_text(graph, witness))
        return EXIT_OK
    if args.output == "structured":
        lines = [
            f"sequence={format_sequence(seq)}",
            f"n={graph.vertex_count}",
            f"edge_count={graph.edge_count}",
            f"bowtie_center={witness.center}",
            f"bowtie_wing1={witness.wing1[0]},{witness.wing1[1]}",
            f"bowtie_wing2={witness.wing2[0]},{witness.wing2[1]}",
        ]
        lines.extend(f"edge={u},{v}" for u, v in graph.sorted_edges())
    else:
        adjacency = graph.adjacency()
        lines = [
            f"sequence: {format_sequence(seq)}",
            f"n: {graph.vertex_count}",
            f"edges: {graph.edge_count}",
            (
                f"bowtie: center {witness.center},"
                f" wings ({witness.wing1[0]},{witness.wing1[1]})"
                f" and ({witness.wing2[0]},{witness.wing2[1]})"
            ),
            "adjacency:",
        ]
        lines.extend(
            f"  {v}: " + " ".join(str(u) for u in sorted(adjacency[v]))
            for v in range(graph.vertex_count)
        )
    print("\n".join(lines))
    return EXIT_OK


def _check_cli_n(n: int) -> None:
    if not 5 <= n <= SWEEP_LIMIT:
        raise ParseError(f"N must be between 5 and {SWEEP_LIMIT}, got {n}")


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_cli_n(args.n)
    summary = verify_characterization(args.n)
    result = "ok" if summary.ok else "falsified"
    if args.output == "structured":
        lines = [
            f"n={summary.n}",
            f"sequences_tested={summary.sequences_tested}",
            f"potentially={summary.potentially_count}",
            f"rejected={summary.rejected_count}",
            f"mismatches={len(summary.mismatches)}",
            f"result={result}",
        ]
    else:
        lines = [
            f"n: {summary.n}",
            f"sequences tested: {summary.sequences_tested}",
            f"potentially: {summary.potentially_count}",
            f"rejected: {summary.rejected_count}",
            f"mismatches: {len(summary.mismatches)}",
            f"result: {result}",
        ]
    print("\n".join(lines))
    if not summary.ok:
        for mismatch in summary.mismatches:
            _warn(
                f"mismatch: {format_sequence(mismatch.sequence)}"
                f" checker={_yn(mismatch.checker_verdict)}"
                f" oracle={_yn(mismatch.oracle_verdict)}"
            )
        return EXIT_FALSIFIED
    return EXIT_OK


def _cmd_sigma(args: argparse.Namespace) -> int:
    _check_cli_n(args.n)
    report = sigma_empirical(args.n)
    closed = sigma_closed_form(args.n)
    agree = report.bound == closed
    if args.output == "structured":
        lines = [
            f"n={report.n}",
            f"empirical={report.bound}",
            f"closed_form={closed}",
            f"agree={_yn(agree)}",
            f"witness={format_sequence(report.witness)}",
            f"witness_sum={sigma(report.witness)}",
        ]
    else:
        lines = [
            f"n: {report.n}",
            f"empirical: {report.bound}, closed-form: {closed}, agree: {_yn(agree)}",
            (
                f"witness: {format_sequence(report.witness)}"
                f" (sum {sigma(report.witness)}, rejected)"
            ),
        ]
    print("\n".join(lines))
    return EXIT_OK if agree else EXIT_FALSIFIED


@functools.cache  # one parser per process: main may run many times in one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bowtieseq",
        description=(
            "Decide and realize degree sequences that admit a realization "
            "containing a bowtie (two triangles sharing one vertex)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide one degree sequence")
    check.add_argument("sequence", help="run-length degree sequence, e.g. 4,3^2,2^2")
    check.add_argument("--output", choices=("text", "structured"), default="text")
    check.set_defaults(handler=_cmd_check)

    realize = sub.add_parser(
        "realize", help="build a realization containing a bowtie"
    )
    realize.add_argument("sequence", help="run-length degree sequence, e.g. 4,3^2,2^2")
    realize.add_argument(
        "--output", choices=("text", "structured", "dot", "edges"), default="text"
    )
    realize.set_defaults(handler=_cmd_realize)

    verify = sub.add_parser(
        "verify", help="exhaustively cross-check the rules against the oracle"
    )
    verify.add_argument("n", type=int, help=f"sequence length, 5..{SWEEP_LIMIT}")
    verify.add_argument("--output", choices=("text", "structured"), default="text")
    verify.set_defaults(handler=_cmd_verify)

    sigma_cmd = sub.add_parser(
        "sigma", help="recompute the extremal threshold empirically"
    )
    sigma_cmd.add_argument("n", type=int, help=f"sequence length, 5..{SWEEP_LIMIT}")
    sigma_cmd.add_argument("--output", choices=("text", "structured"), default="text")
    sigma_cmd.set_defaults(handler=_cmd_sigma)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # nobody reads stdout any more: point it at devnull so the flush at
        # interpreter exit has nowhere to fail (the signal module docs' recipe),
        # and exit as a shell reports a process that SIGPIPE ended (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ParseError as exc:
        _warn(f"error: {exc}")
        return EXIT_USAGE
    except (CharacterizationMismatch, InternalExhaustion) as exc:
        _warn(f"falsification alarm: {exc}")
        return EXIT_FALSIFIED


if __name__ == "__main__":
    raise SystemExit(main())
