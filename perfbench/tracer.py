"""Run one cayleymaps command in-process with its layers wrapped, and write
per-layer calls, times and counts as JSON.

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json census --group dihedral --p 3 --n-max 20

The program itself is not changed. Before `cayleymaps.cli.main(argv)` runs,
the public functions of each layer are replaced by timing wrappers at the
names their callers look up (classify reaches the closure kernel as
`_kernels.closure_table`, maps imports it by name, and so on). stdout and the
exit code are the command's own, so the caller can check them as usual.

Process-pool workers (`--jobs > 1`) run `_survivor_worker`, which is replaced
by `traced_survivor_worker`: each call writes its own calls, times and counts
to a file that the parent merges after the command returns. Times summed over
processes can therefore exceed wall time.

`perms` is not wrapped on its own: none of the benchmark's workloads spends a
measurable share of its time there. Its one call into the closure kernel is
still counted under `kernels.closure_table`.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

WORKER_DIR_ENV = "PERFBENCH_WORKER_DIR"

# Bytes the closure kernel reads and writes per row operation, per arc: one
# int64 of the frontier row and one of the generator row read, one written.
BYTES_PER_ROW_OP_ARC = 3 * 8


class Tracer:
    """Per-layer call counts, inclusive and self time, and extra counters."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._open: list[list] = []  # [layer, seconds spent in child spans]

    def inside(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._open)

    def span(self, layer: str, fn, after=None):
        """Wrap fn so each call is timed as one span of the given layer.
        after(counts, args, result) runs on the result, outside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][1] += elapsed
                self.calls[layer] += 1
                self.seconds[layer] += elapsed
                self.self_seconds[layer] += elapsed - frame[1]
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "s": dict(self.seconds),
            "self_s": dict(self.self_seconds),
            "counts": dict(self.counts),
        }

    def merge(self, other: dict) -> None:
        for key, table in (
            ("calls", self.calls),
            ("s", self.seconds),
            ("self_s", self.self_seconds),
            ("counts", self.counts),
        ):
            for name, value in other[key].items():
                table[name] += value


def _count_row_ops(counts, args, result) -> None:
    # closure size x number of generators rows are composed; when the cutoff
    # is passed the kernel reports size = cutoff + 1
    n_gens, n_arcs = (len(args[0]), len(args[0][0]))
    ops = result[0] * n_gens
    counts["kernels.closure_table.row_ops"] += ops
    counts["kernels.closure_table.bytes_computed"] += ops * n_arcs * BYTES_PER_ROW_OP_ARC


def _count_survivor(counts, args, result) -> None:
    # classify closes each candidate ordering and keeps it exactly when the
    # closure has |D| elements (see _survivors_for_sets)
    _count_row_ops(counts, args, result)
    size, exceeded, _ = result
    if not exceeded and size == len(args[0][0]):
        counts["classify.survivors"] += 1


def _count_true(counts, args, result) -> None:
    counts["kernels.arc_bijection_exists.true"] += bool(result)


def _count_sets(counts, args, result) -> None:
    # the search tries every ordering of a set with its first element pinned
    counts["classify.sets"] += len(result)
    counts["classify.candidates"] += sum(math.factorial(len(s) - 1) for s in result)


def _count_classes(counts, args, result) -> None:
    counts["classify.classes"] += len(result)


_tracer: Tracer | None = None
_original_worker = None


def install() -> Tracer:
    """Wrap every layer once per process and return the process's tracer."""
    global _tracer, _original_worker
    if _tracer is not None:
        return _tracer
    from cayleymaps import _kernels, classify, cli, groups, maps, perms

    tracer = Tracer()
    closure = _kernels.closure_table
    _kernels.closure_table = tracer.span(
        "kernels.closure_table", closure, _count_survivor
    )
    maps.closure_table = perms.closure_table = tracer.span(
        "kernels.closure_table", closure, _count_row_ops
    )
    maps.arc_bijection_exists = tracer.span(
        "kernels.arc_bijection_exists", maps.arc_bijection_exists, _count_true
    )
    classify.maps_isomorphic = tracer.span(
        "maps.maps_isomorphic", classify.maps_isomorphic
    )
    classify.build_map = cli.build_map = tracer.span("maps.build_map", maps.build_map)
    maps.CayleyMap.faces_and_genus = tracer.span(
        "maps.faces_and_genus", maps.CayleyMap.faces_and_genus
    )
    groups.FiniteGroup.generates = tracer.span(
        "groups.generates", groups.FiniteGroup.generates
    )
    classify.inverse_closed_sets = tracer.span(
        "classify.inverse_closed_sets", classify.inverse_closed_sets, _count_sets
    )
    classify.exhaustive_regular_maps = tracer.span(
        "classify.exhaustive_regular_maps",
        classify.exhaustive_regular_maps,
        _count_classes,
    )
    for name in ("triples_for", "crt_lift_solutions", "count_regular_dihedral_maps"):
        wrapped = tracer.span(f"classify.{name}", getattr(classify, name))
        setattr(classify, name, wrapped)
        setattr(cli, name, wrapped)
    cli._emit_json = tracer.span("cli.emit", cli._emit_json)
    cli._emit_csv = tracer.span("cli.emit", cli._emit_csv)
    _original_worker = classify._survivor_worker
    classify._survivor_worker = traced_survivor_worker
    _tracer = tracer
    return tracer


def traced_survivor_worker(args: tuple):
    """Pool-worker stand-in: run the real worker, then write this call's
    trace to a file of its own for the parent to merge."""
    tracer = install()
    tracer.reset()  # a forked worker starts with a copy of the parent's state
    result = _original_worker(args)
    fd, _ = tempfile.mkstemp(
        dir=os.environ[WORKER_DIR_ENV], prefix="worker-", suffix=".json"
    )
    with os.fdopen(fd, "w") as out:
        json.dump(tracer.to_dict(), out)
    return result


class TimedStdout:
    """stdout stand-in that counts bytes and times writes outside emit spans
    (triples prints its table line by line) as cli.emit."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self._timed_write = tracer.span("cli.emit", inner.write)

    def write(self, text: str) -> int:
        self._tracer.counts["cli.stdout_bytes"] += len(text.encode("utf-8"))
        if self._tracer.inside("cli.emit"):
            return self._inner.write(text)
        return self._timed_write(text)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def main(argv: list[str]) -> int:
    out_path = Path(argv[0])
    tracer = install()
    from cayleymaps import cli

    with tempfile.TemporaryDirectory(dir=out_path.parent) as worker_dir:
        os.environ[WORKER_DIR_ENV] = worker_dir
        sys.stdout = TimedStdout(sys.stdout, tracer)
        try:
            code = tracer.span("cli.main", cli.main)(argv[1:])
            sys.stdout.flush()
        finally:
            sys.stdout = sys.__stdout__
        for path in sorted(Path(worker_dir).glob("worker-*.json")):
            tracer.merge(json.loads(path.read_text()))
    out_path.write_text(json.dumps(tracer.to_dict(), indent=1, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
