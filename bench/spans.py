"""Span tracer that wraps bowtieseq's public functions from outside.

Nothing under ``src/`` changes.  ``install`` rebinds every module-global
name that refers to a traced function, in each of the six library modules,
to a timing wrapper.  Calls between modules and calls inside one module
(oracle -> ``enumerate_realizations``) both resolve through those globals,
so both are caught, and the module whose globals served the call names the
caller: that is how ``is_graphic`` and ``check_potentially`` calls are
attributed.  A call through the defining module's own globals comes from
the benchmark itself or from inside that module.  ``SimpleGraph`` is a
class that the library also uses in ``isinstance`` checks, so its
``__init__`` is wrapped instead of its name.

Each call is one span (key, parent, start, end) appended to in-memory
arrays.  A generator gets one span per resumption, so its time is summed
across resumptions and work done by its consumer between resumptions is
not charged to it.  Self time is a span's duration minus the durations of
its child spans.  Spans are written out once, after measuring.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter

TRACED = {
    "sequences": ("parse_sequence", "format_sequence", "lay_off", "is_graphic"),
    "characterize": ("check_potentially",),
    "graphs": (
        "SimpleGraph",
        "contains_bowtie",
        "attach_by_degrees",
        "enumerate_realizations",
        "oracle_has_bowtie_realization",
        "edge_list_text",
    ),
    "realizer": ("realize_with_bowtie", "reattach", "match_family", "construct_family"),
    "verify": ("verify_characterization", "sigma_empirical", "enumerate_graphic_sequences"),
    "cli": ("main",),
}

# Functions whose calls are also reported per calling module.
ATTRIBUTED = {
    "sequences.is_graphic": ("characterize", "graphs", "verify"),
    "characterize.check_potentially": ("characterize", "realizer", "verify", "cli"),
}

RATIOS = (
    "graphs.oracle.realizations_per_call",
    "graphs.contains_bowtie.hit_frac",
    "realizer.child_accept_frac",
    "realizer.family_frac",
    "verify.graphic_frac",
    "trace.overhead_frac",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    timed = [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]
    timed += [f"{fn}.via_{host}" for fn, hosts in ATTRIBUTED.items() for host in hosts]
    for name in timed:
        units[f"{name}.calls_per_op"] = "count"
        units[f"{name}.self_ms_per_op"] = "ms"
    for name in RATIOS:
        units[name] = "count" if name.endswith("_per_call") else "ratio"
    return units


class Tracer:
    """Installs the wrappers, records spans, and turns them into metrics."""

    def __init__(self, modules: dict) -> None:
        self._modules = modules
        self._keys: list[tuple[str, str]] = []  # (function, host module)
        self._key_ids: dict[tuple[str, str], int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self.key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.calls: list[int] = []
        self.non_none: list[int] = []
        self.yields: list[int] = []

    def _key(self, function: str, host: str) -> int:
        pair = (function, host)
        if pair not in self._key_ids:
            self._key_ids[pair] = len(self._keys)
            self._keys.append(pair)
            self.calls.append(0)
            self.non_none.append(0)
            self.yields.append(0)
        return self._key_ids[pair]

    def _open(self, k: int) -> int:
        idx = len(self.key)
        self.key.append(k)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, k: int):
        open_, close = self._open, self._close
        calls, non_none = self.calls, self.non_none

        if inspect.isgeneratorfunction(fn):
            yields = self.yields

            def resume(gen):
                try:
                    while True:
                        idx = open_(k)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            close(idx)
                        yields[k] += 1
                        yield item
                finally:
                    gen.close()

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                calls[k] += 1
                return resume(fn(*args, **kwargs))

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[k] += 1
            idx = open_(k)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if result is not None:
                non_none[k] += 1
            return result

        return wrapper

    def install(self) -> None:
        originals = {}
        for module, functions in TRACED.items():
            for name in functions:
                originals[getattr(self._modules[module], name)] = f"{module}.{name}"
        for host, module in self._modules.items():
            for name, value in list(vars(module).items()):
                full = originals.get(value) if callable(value) else None
                if full is None:
                    continue
                if inspect.isclass(value):
                    if full == f"{host}.{name}":
                        k = self._key(full, host)
                        self._undo.append((value, "__init__", value.__dict__["__init__"]))
                        setattr(value, "__init__", self._wrap(value.__init__, k))
                else:
                    k = self._key(full, host)
                    self._undo.append((module, name, value))
                    setattr(module, name, self._wrap(value, k))

    def uninstall(self) -> None:
        while self._undo:
            target, name, value = self._undo.pop()
            setattr(target, name, value)

    def self_seconds(self) -> list[float]:
        """Summed self time per key: span durations minus child spans."""
        own = [0.0] * len(self._keys)
        start, end, key, parent = self.start, self.end, self.key, self.parent
        for idx in range(len(key)):
            duration = end[idx] - start[idx]
            own[key[idx]] += duration
            p = parent[idx]
            if p >= 0:
                own[key[p]] -= duration
        return own

    def metrics(self, ops: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics, normalised per operation over ``ops``."""
        own = self.self_seconds()
        # Totals per function and per (function, host): calls, self seconds,
        # non-None results, generator yields.
        CALLS, SELF, NON_NONE, YIELDS = range(4)
        by_fn: dict[str, list[float]] = {}
        by_pair: dict[str, list[float]] = {}
        for k, (fn, host) in enumerate(self._keys):
            row = (self.calls[k], own[k], self.non_none[k], self.yields[k])
            for table, name in ((by_fn, fn), (by_pair, f"{fn}.via_{host}")):
                acc = table.setdefault(name, [0, 0.0, 0, 0])
                for j, value in enumerate(row):
                    acc[j] += value

        def get(table, name, field):
            return table.get(name, [0, 0.0, 0, 0])[field]

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for module, functions in TRACED.items():
            for fn in functions:
                name = f"{module}.{fn}"
                out[f"{name}.calls_per_op"] = get(by_fn, name, CALLS) / ops
                out[f"{name}.self_ms_per_op"] = get(by_fn, name, SELF) * 1e3 / ops
        for fn, hosts in ATTRIBUTED.items():
            for host in hosts:
                name = f"{fn}.via_{host}"
                out[f"{name}.calls_per_op"] = get(by_pair, name, CALLS) / ops
                out[f"{name}.self_ms_per_op"] = get(by_pair, name, SELF) * 1e3 / ops
        out["graphs.oracle.realizations_per_call"] = ratio(
            get(by_pair, "graphs.enumerate_realizations.via_graphs", YIELDS),
            get(by_fn, "graphs.oracle_has_bowtie_realization", CALLS),
        )
        out["graphs.contains_bowtie.hit_frac"] = ratio(
            get(by_fn, "graphs.contains_bowtie", NON_NONE),
            get(by_fn, "graphs.contains_bowtie", CALLS),
        )
        out["realizer.child_accept_frac"] = ratio(
            get(by_pair, "realizer.reattach.via_realizer", CALLS),
            get(by_pair, "sequences.lay_off.via_realizer", CALLS),
        )
        out["realizer.family_frac"] = ratio(
            get(by_pair, "realizer.construct_family.via_realizer", CALLS),
            get(by_fn, "realizer.realize_with_bowtie", CALLS),
        )
        out["verify.graphic_frac"] = ratio(
            get(by_fn, "verify.enumerate_graphic_sequences", YIELDS),
            get(by_pair, "sequences.is_graphic.via_verify", CALLS),
        )
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write(self, directory: Path, stem: str) -> None:
        """Write the spans: a JSON header plus the four raw arrays."""
        directory.mkdir(parents=True, exist_ok=True)
        header = {
            "keys": [f"{fn}@{host}" for fn, host in self._keys],
            "spans": len(self.key),
            "arrays": [["key", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }
        (directory / f"{stem}.json").write_text(json.dumps(header) + "\n")
        with open(directory / f"{stem}.spans", "wb") as fh:
            for arr in (self.key, self.parent, self.start, self.end):
                arr.tofile(fh)
