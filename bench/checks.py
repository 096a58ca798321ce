"""Output checks that do not trust the library.

Each check returns None when the output is right and a one-line problem
otherwise.  None of them calls back into bowtieseq: the decide check
compares the report with the generator's label, the realize check parses
the edge-list text itself, and the verify check reads the structured
``key=value`` lines against the paper's known counts.
"""

from __future__ import annotations

# Graphic sequences of length N with positive terms (1202 in all), and the
# threshold 4N - 4 the paper proves.
SEQUENCES_TESTED = {5: 20, 6: 71, 7: 240, 8: 871}


def decide_problem(report, label) -> str | None:
    """Verdict, failure reason and cond-4 (k, i) must equal the label."""
    failure = report.failure.value if report.failure is not None else None
    got = (report.potentially, failure, report.cond4_k, report.cond4_i)
    return None if got == tuple(label) else f"expected {tuple(label)}, got {got}"


def realize_problem(edge_text: str, degrees: tuple[int, ...]) -> str | None:
    """The edge list must realize ``degrees`` and hold its ``# bowtie``.

    Checks: a witness header naming five distinct vertices, one ``u v``
    line per edge with no loops, duplicates or out-of-range vertices, a
    degree multiset equal to the input, and all six bowtie edges present.
    """
    lines = edge_text.splitlines()
    if not lines:
        return "empty edge list"
    words = lines[0].split()
    try:
        if words[:3] != ["#", "bowtie", "center"] or words[4] != "wings" or len(words) != 7:
            return f"bad witness line {lines[0]!r}"
        c = int(words[3])
        a, b = (int(x) for x in words[5].split(","))
        d, e = (int(x) for x in words[6].split(","))
    except (IndexError, ValueError):
        return f"bad witness line {lines[0]!r}"
    n = len(degrees)
    deg = [0] * n
    seen: set[tuple[int, int]] = set()
    for line in lines[1:]:
        try:
            u, v = (int(x) for x in line.split())
        except ValueError:
            return f"bad edge line {line!r}"
        if u == v:
            return f"loop at {u}"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge {u} {v} outside 0..{n - 1}"
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return f"duplicate edge {u} {v}"
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
    if sorted(deg, reverse=True) != list(degrees):
        return "degree multiset differs from the input"
    if len({c, a, b, d, e}) != 5:
        return "bowtie vertices are not distinct"
    for u, v in ((c, a), (c, b), (c, d), (c, e), (a, b), (d, e)):
        if (min(u, v), max(u, v)) not in seen:
            return f"bowtie edge {u} {v} missing"
    return None


def verify_problem(argv: list[str], exit_code: int, out: str) -> str | None:
    """``verify N`` must report result=ok over the known sequence count with
    no mismatches; ``sigma N`` must agree with the closed form 4N - 4."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    fields = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    command, n = argv[0], int(argv[1])
    if fields.get("n") != str(n):
        return f"n={fields.get('n')}, expected {n}"
    if command == "verify":
        expected = {
            "result": "ok",
            "sequences_tested": str(SEQUENCES_TESTED[n]),
            "mismatches": "0",
        }
    else:
        bound = str(4 * n - 4)
        expected = {"agree": "yes", "empirical": bound, "closed_form": bound}
    for key, want in expected.items():
        if fields.get(key) != want:
            return f"{command} {n}: {key}={fields.get(key)}, expected {want}"
    return None
