#!/usr/bin/env python3
"""Benchmark for bowtieseq: the decide, realize and verify workloads.

Run from the repository root (standard library only, nothing to build):

    python3 bench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.  Inputs are generated
from ``--seed`` before timing, in a separate ``gen.py`` process that hands
over only their text and labels, and the library only ever sees the text.
Every output is checked by ``checks.py``, which never calls the library.

* ``decide``: ``parse_sequence`` then ``check_potentially`` on sequences of
  100..3000 terms, half accepted and half rejected for a known reason.
* ``realize``: ``parse_sequence``, ``realize_with_bowtie``,
  ``contains_bowtie`` and ``edge_list_text`` (the work of
  ``realize --output edges``) on accepted sequences of 11..200 terms.
* ``verify``: one operation is a full pass of ``bowtieseq verify N`` and
  ``bowtieseq sigma N`` for N = 5..8 through ``cli.main`` in-process;
  exhaustive, so the seed is unused.

Operations cycle through the input pool until ``--seconds`` have elapsed.
The pool is ordered so that any prefix holds the same mix of sizes and
strata.  With ``--trace 0`` the last stdout line reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics from
``spans.py``: the run alternates short blocks of operations untraced and
the same operations traced, and the ratio of the two summed times is
``trace.overhead_frac``.  Spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import checks
import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODULES = ("sequences", "characterize", "graphs", "realizer", "verify", "cli")

# Fresh-interpreter launches timed for setup_s, spread evenly over the run;
# one more, before measuring, warms the bytecode cache.
SETUP_LAUNCHES = 21
SETUP_ARGV = ["-m", "bowtieseq.cli", "check", "4,2^4"]
VERIFY_N = range(5, 9)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class LibraryMissing(RuntimeError):
    """The checkout has no importable bowtieseq under src/."""


def load_library() -> dict:
    """Import the six bowtieseq modules from this checkout's ``src/``."""
    package = SRC / "bowtieseq"
    if not (package / "__init__.py").is_file():
        raise LibraryMissing(f"no bowtieseq package under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"bowtieseq.{name}") for name in MODULES}
    for module in modules.values():
        if Path(module.__file__).resolve().parent != package.resolve():
            raise LibraryMissing(f"bowtieseq was imported from {module.__file__}")
    return modules


@dataclass
class Workload:
    """A pool of inputs and the timed operation on one input.

    ``op`` returns (seconds spent in library calls, problem or None).  The
    first ``warmup`` inputs run once, untimed, before measuring.
    """

    items: list
    op: Callable
    warmup: int


def generated_pool(workload: str, seed: int, count: int) -> list[gen.Case]:
    """Build a pool in a ``gen.py`` child process; keep only text and labels.

    The generator's graphs never exist in this process, so its peak RSS
    is the library's and the loop's, not the generator's.
    """
    argv = [sys.executable, str(BENCH / "gen.py"), workload, str(seed), str(count)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        rows = map(json.loads, proc.stdout)
        pool = [gen.Case(text, tuple(label), stratum) for text, label, stratum in rows]
    if proc.returncode != 0 or len(pool) != count:
        raise RuntimeError(f"gen.py {workload} {seed} {count} exited {proc.returncode} after {len(pool)} cases")
    return pool


def decide_workload(lib: dict, seed: int) -> Workload:
    sequences, characterize = lib["sequences"], lib["characterize"]

    def op(case):
        t0 = perf_counter()
        report = characterize.check_potentially(sequences.parse_sequence(case.text))
        elapsed = perf_counter() - t0
        return elapsed, checks.decide_problem(report, case.label)

    return Workload(generated_pool("decide", seed, 512), op, warmup=4)


def realize_workload(lib: dict, seed: int) -> Workload:
    sequences, realizer, graphs = lib["sequences"], lib["realizer"], lib["graphs"]

    def op(case):
        t0 = perf_counter()
        graph = realizer.realize_with_bowtie(sequences.parse_sequence(case.text))
        text = graphs.edge_list_text(graph, graphs.contains_bowtie(graph))
        elapsed = perf_counter() - t0
        return elapsed, checks.realize_problem(text, case.degrees)

    return Workload(generated_pool("realize", seed, 1024), op, warmup=8)


def verify_workload(lib: dict, seed: int) -> Workload:
    cli = lib["cli"]
    argvs = [[command, str(n)] for n in VERIFY_N for command in ("verify", "sigma")]

    def op(pass_argvs):
        elapsed, problem = 0.0, None
        for argv in pass_argvs:
            out = io.StringIO()
            t0 = perf_counter()
            with redirect_stdout(out):
                code = cli.main([*argv, "--output", "structured"])
            elapsed += perf_counter() - t0
            problem = problem or checks.verify_problem(argv, code, out.getvalue())
        return elapsed, problem

    return Workload([argvs], op, warmup=1)


WORKLOADS = {"decide": decide_workload, "realize": realize_workload, "verify": verify_workload}


@dataclass
class Measurement:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def extend(self, other: Measurement) -> None:
        self.latencies += other.latencies
        self.failed += other.failed
        self.problems += other.problems


def measure(
    work: Workload,
    items: Iterator,
    seconds: float = 0.0,
    ops: int | None = None,
    between: Callable[[], float] | None = None,
) -> Measurement:
    """Run ``items`` until ``seconds`` elapse, or for exactly ``ops`` items.

    ``between`` runs after each operation; the seconds it returns are
    added to the deadline, so they do not shorten the measurement.
    """
    result = Measurement()
    deadline = perf_counter() + seconds
    done = 0
    while (perf_counter() < deadline) if ops is None else (done < ops):
        item = next(items)
        t0 = perf_counter()
        try:
            elapsed, problem = work.op(item)
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed, problem = perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        result.latencies.append(elapsed)
        if problem is not None:
            result.failed += 1
            if len(result.problems) < 5:
                result.problems.append(f"{item!r:.120}: {problem}")
        done += 1
        if between is not None:
            deadline += between()
    return result


class SetupTimer:
    """Times fresh ``bowtieseq check`` interpreters, from launch to exit.

    Each launch is timed by the CPU time it adds to this process's reaped
    children (user plus system), so time the machine spends on other work
    is not counted.  Bytecode caching is left on, as for an installed
    package: the first, untimed launch compiles the library and the timed
    ones import it from cache.
    """

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.times: list[float] = []
        self.problem: str | None = None

    def launch(self) -> float:
        """Run one interpreter; return its child CPU seconds."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(
            [sys.executable, *SETUP_ARGV],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120,
        )
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0 or "potentially: yes" not in proc.stdout:
            self.problem = f"setup launch exited {proc.returncode}: {proc.stderr.strip()[:200]}"
        return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)

    def spread_over(self, seconds: float) -> Callable[[], float]:
        """A ``measure`` hook that makes the timed launches one at a time,
        each after another ``seconds / SETUP_LAUNCHES`` of measuring (time
        spent launching not counted), and returns the wall seconds they
        took.  Drift in machine speed during the run thus reaches setup_s
        as it reaches the operations."""
        self.launch()
        start, spent = perf_counter(), 0.0
        step = seconds / SETUP_LAUNCHES

        def between() -> float:
            nonlocal spent
            t0 = perf_counter()
            due = min(SETUP_LAUNCHES, int((t0 - start - spent) / step) + 1)
            while len(self.times) < due:
                self.times.append(self.launch())
            took = perf_counter() - t0
            spent += took
            return took

        return between

    def median(self) -> float:
        while len(self.times) < SETUP_LAUNCHES:  # runs with few, long operations
            self.times.append(self.launch())
        return statistics.median(self.times)


def end_to_end(work: Workload, seconds: float) -> tuple[dict, Measurement, list[str]]:
    setup = SetupTimer()
    pool_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run = measure(work, itertools.cycle(work.items), seconds, between=setup.spread_over(seconds))
    lat = sorted(run.latencies)
    rank = math.ceil(0.99 * len(lat))
    values = {
        "ops_per_s": len(lat) / run.busy,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p99_ms": lat[rank - 1] * 1e3,
        "setup_s": setup.median(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"op_p99_ms from {len(lat)} samples, {len(lat) - rank} beyond it",
        f"failed_frac = {run.failed}/{len(lat)} = {run.failed / len(lat):.6f} ratio",
        f"peak RSS before measuring (library, pool, warmup) = {pool_rss_mib:.6g} MiB",
    ]
    if setup.problem:
        run.problems.insert(0, setup.problem)
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    return metrics, run, notes


# Target length of one block of a traced run, in untraced seconds.
TRACE_BLOCK_S = 0.25


def recorded(items: Iterator, into: list) -> Iterator:
    for item in items:
        into.append(item)
        yield item


def traced(lib: dict, work: Workload, seconds: float, stem: str) -> tuple[dict, Measurement, list[str]]:
    """Alternate short blocks of operations, each run untraced and traced.

    A block runs new items for TRACE_BLOCK_S, then the same items again
    with the other setting; the first setting swaps each block.  Drift in
    machine speed thus falls equally on both sides of
    ``trace.overhead_frac``.
    """
    tracer = spans.Tracer(lib)
    plain, run = Measurement(), Measurement()
    items = itertools.cycle(work.items)
    deadline = perf_counter() + seconds
    blocks = 0
    while perf_counter() < deadline:
        taken: list = []
        sides = [(False, plain), (True, run)]
        if blocks % 2:
            sides.reverse()
        for side, (tracing, total) in enumerate(sides):
            if tracing:
                tracer.install()
            try:
                if side == 0:
                    part = measure(work, recorded(items, taken), seconds=TRACE_BLOCK_S)
                else:
                    part = measure(work, iter(taken), ops=len(taken))
            finally:
                if tracing:
                    tracer.uninstall()
            total.extend(part)
        blocks += 1
    ops = len(run.latencies)
    values = tracer.metrics(ops, overhead_frac=run.busy / plain.busy - 1)
    tracer.write(BENCH / "out", stem)
    run.extend(plain)
    notes = [f"{ops} ops traced in {blocks} blocks, {len(tracer.key)} spans"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.metric_units().items()}
    return metrics, run, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lib = load_library()
    except (LibraryMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = WORKLOADS[args.workload](lib, args.seed)
    for item in work.items[: work.warmup]:
        try:
            work.op(item)
        except Exception:  # the timed loop runs this item again and counts it
            pass
    if args.trace:
        metrics, run, notes = traced(lib, work, args.seconds, args.workload)
    else:
        metrics, run, notes = end_to_end(work, args.seconds)

    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for note in notes:
        print(f"{args.workload} {note}")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": len(run.latencies),
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
