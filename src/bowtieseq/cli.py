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
prints a command's fields as stable ``key=value`` lines, byte-identical
between runs; ``--output text``, the default, prints them as ``key: value``
(``_`` in a key shown as a space) except for lines that word several fields:
``check``'s verdict, ``sigma``'s threshold and witness, ``realize``'s edge
count, bowtie and adjacency.  ``realize`` also offers ``dot`` and ``edges``.

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
from collections.abc import Iterable
from itertools import chain, islice

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


def _write(
    output: str,
    fields: Iterable[tuple[str, object]],
    shared: int | None = None,
    text: Iterable[str] = (),
) -> None:
    """Print a report: ``structured`` as one ``key=value`` line per field;
    ``text`` as ``key: value`` lines, an underscore in the key shown as a
    space, for the first ``shared`` fields (all by default), then the
    command's own ``text`` lines in place of the rest."""
    if output == "structured":
        lines = [f"{key}={value}" for key, value in fields]
    else:
        lines = [f"{key.replace('_', ' ')}: {value}" for key, value in islice(fields, shared)]
        lines.extend(text)
    print("\n".join(lines))


def _reason_text(report: CheckReport, n: int) -> str:
    """The failure's value in words ("cond4" is "condition 4"), with its details."""
    failure = report.failure
    reason = failure.value.replace("_", " ").replace("cond", "condition ")
    if failure is Failure.TOO_SHORT:
        return f"{reason}: n={n} < 5"
    if failure is Failure.COND4:
        return f"{reason}, k={report.cond4_k}, i={report.cond4_i}"
    return reason


def _cmd_check(args: argparse.Namespace) -> int:
    seq = parse_sequence(args.sequence)
    report = check_potentially(seq)
    fields = [
        ("sequence", format_sequence(seq)),
        ("n", len(seq)),
        ("sum", sigma(seq)),
        ("graphic", _yn(report.graphic)),
        ("potentially", _yn(report.potentially)),
    ]
    verdict = "potentially: yes"
    if report.failure is not None:
        verdict = f"potentially: no ({_reason_text(report, len(seq))})"
        fields.append(("reason", report.failure.value))
        if report.failure is Failure.COND4:
            fields += [("k", report.cond4_k), ("i", report.cond4_i)]
    _write(args.output, fields, shared=4, text=[verdict])
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
    if args.output in ("dot", "edges"):
        render = dot_text if args.output == "dot" else edge_list_text
        sys.stdout.write(render(graph, witness))
        return EXIT_OK
    wing1 = "{},{}".format(*witness.wing1)
    wing2 = "{},{}".format(*witness.wing2)
    fields: Iterable[tuple[str, object]] = [
        ("sequence", format_sequence(seq)),
        ("n", graph.vertex_count),
        ("edge_count", graph.edge_count),
        ("bowtie_center", witness.center),
        ("bowtie_wing1", wing1),
        ("bowtie_wing2", wing2),
    ]
    text = [
        f"edges: {graph.edge_count}",
        f"bowtie: center {witness.center}, wings ({wing1}) and ({wing2})",
        "adjacency:",
    ]
    # the graph itself: an edge per line, or an adjacency row per vertex
    if args.output == "structured":
        fields = chain(fields, (("edge", f"{u},{v}") for u, v in graph.sorted_edges()))
    else:
        rows = enumerate(graph.adjacency())
        text += (f"  {v}: " + " ".join(map(str, sorted(row))) for v, row in rows)
    _write(args.output, fields, shared=2, text=text)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    summary = verify_characterization(args.n)
    fields = [
        ("n", summary.n),
        ("sequences_tested", summary.sequences_tested),
        ("potentially", summary.potentially_count),
        ("rejected", summary.rejected_count),
        ("mismatches", len(summary.mismatches)),
        ("result", "ok" if summary.ok else "falsified"),
    ]
    _write(args.output, fields)
    for mismatch in summary.mismatches:
        _warn(
            f"mismatch: {format_sequence(mismatch.sequence)}"
            f" checker={_yn(mismatch.checker_verdict)}"
            f" oracle={_yn(mismatch.oracle_verdict)}"
        )
    return EXIT_OK if summary.ok else EXIT_FALSIFIED


def _cmd_sigma(args: argparse.Namespace) -> int:
    report = sigma_empirical(args.n)
    closed = sigma_closed_form(args.n)
    agree = report.bound == closed
    witness, witness_sum = format_sequence(report.witness), sigma(report.witness)
    fields = [
        ("n", report.n),
        ("empirical", report.bound),
        ("closed_form", closed),
        ("agree", _yn(agree)),
        ("witness", witness),
        ("witness_sum", witness_sum),
    ]
    text = [
        f"empirical: {report.bound}, closed-form: {closed}, agree: {_yn(agree)}",
        f"witness: {witness} (sum {witness_sum}, rejected)",
    ]
    _write(args.output, fields, shared=1, text=text)
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
    sequence = ("sequence", str, "run-length degree sequence, e.g. 4,3^2,2^2")
    n = ("n", int, f"sequence length, 5..{SWEEP_LIMIT}")
    lines = ("text", "structured")
    graph = (*lines, "dot", "edges")
    # name, help, positional argument (name, type, help), --output choices, handler
    for name, summary, (positional, kind, about), outputs, handler in (
        ("check", "decide one degree sequence", sequence, lines, _cmd_check),
        ("realize", "build a realization containing a bowtie", sequence, graph, _cmd_realize),
        ("verify", "exhaustively cross-check the rules against the oracle", n, lines, _cmd_verify),
        ("sigma", "recompute the extremal threshold empirically", n, lines, _cmd_sigma),
    ):
        command = sub.add_parser(name, help=summary)
        command.add_argument(positional, type=kind, help=about)
        command.add_argument("--output", choices=outputs, default="text")
        command.set_defaults(handler=handler)
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
