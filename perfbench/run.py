"""The cayleymaps benchmark: one client runs the CLI back to back.

    python3 perfbench/run.py --workload census_dihedral_p3 --seed 1 --seconds 50 --trace 0

Run it from anywhere; it works on the checkout that holds it, with the
program imported from its `src` directory. Each CLI run is one process,
timed from spawn to exit; the next starts when it has ended (a closed loop
with one client). With `--trace 0` it reports the end-to-end metrics, and
with `--trace 1` the per-layer metrics of one traced run (see tracer.py)
next to one untraced run. The last line of stdout is the result as JSON.
Every run is checked against the exit code and stdout sha256 recorded at
the seed commit in expected.json. The workloads are fixed enumerations: the
seed only sets the order in which CLI runs and set-up probes interleave.
See README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cayleymaps"
WORK = ROOT / ".perfbench"  # stdout files, traces and result records

WORKLOADS = {
    "census_elem2_p5": [
        "census", "--group", "elem2", "--p", "5", "--n-max", "4", "--format", "csv",
    ],
    "verify_dihedral_p5_jobs2": [
        "verify", "--theorem", "1.2", "--p", "5", "--n-max", "11", "--jobs", "2",
    ],
    "census_dihedral_p3": [
        "census", "--group", "dihedral", "--p", "3", "--n-max", "20", "--format", "csv",
    ],
    "triples_p3": ["triples", "--p", "3", "--n-max", "3000"],
}
# The CLI promises byte-identical output for every --jobs value, so these
# workloads are checked once per checkout against another --jobs, untimed.
JOBS_CHECK = {
    "verify_dihedral_p5_jobs2": WORKLOADS["verify_dihedral_p5_jobs2"][:-1] + ["1"],
    "census_dihedral_p3": WORKLOADS["census_dihedral_p3"] + ["--jobs", "2"],
}

SETUP_PROBES = 7
SETUP_CODE = "import cayleymaps.cli"
RUN_TIMEOUT_S = 100.0

# layers whose calls and inclusive seconds are reported
SPAN_LAYERS = (
    "kernels.closure_table",
    "kernels.arc_bijection_exists",
    "maps.maps_isomorphic",
    "maps.build_map",
    "maps.faces_and_genus",
    "groups.generates",
    "classify.inverse_closed_sets",
    "classify.exhaustive_regular_maps",
    "classify.triples_for",
    "classify.crt_lift_solutions",
    "classify.count_regular_dihedral_maps",
    "cli.emit",
    "cli.main",
)
SELF_TIME_LAYERS = ("classify.exhaustive_regular_maps", "cli.main")
COUNTS = {  # counter name -> unit
    "kernels.closure_table.row_ops": "count",
    "kernels.closure_table.bytes_computed": "B",
    "classify.sets": "count",
    "classify.candidates": "count",
    "classify.survivors": "count",
    "classify.classes": "count",
    "cli.stdout_bytes": "B",
}
RATIOS = {  # ratio name -> (numerator counter, denominator calls or counter)
    "kernels.arc_bijection_exists.true_ratio": (
        "kernels.arc_bijection_exists.true",
        "kernels.arc_bijection_exists",
    ),
    "classify.survivor_ratio": ("classify.survivors", "classify.candidates"),
}

ENV_PROBE = """
import json, platform, numpy, cayleymaps.cli
from cayleymaps import _kernels
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "backend": _kernels.default_backend(),
                  "package_file": cayleymaps.__file__}))
"""
# environment fields that must match before two results are compared
COMPARABLE_ENV = ("nproc", "cpu_model", "python", "numpy", "backend")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    """One process, timed from spawn to exit."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout_sha256: str
    stdout_bytes: int


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], name: str) -> Sample:
    """Spawn argv in the checkout with the program on PYTHONPATH, wait for it,
    and return its times, memory, exit code and stdout digest.

    cpu_s and peak_rss_mb come from wait4, so they cover the process and the
    children it waited for (pool workers): CPU time summed, peak RSS as the
    largest of any single process in the tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    WORK.mkdir(exist_ok=True)
    out_path = WORK / f"{name}.stdout"
    err_path = WORK / f"{name}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *argv],
            env,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ],
            setsid=True,
        )
        watchdog = threading.Timer(RUN_TIMEOUT_S, _kill_group, (pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # interrupted: stop and reap the CLI, then re-raise
            _kill_group(pid)
            os.waitpid(pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        _kill_group(pid)  # anything the process left behind
    data = out_path.read_bytes()
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=os.waitstatus_to_exitcode(status),
        stdout_sha256=hashlib.sha256(data).hexdigest(),
        stdout_bytes=len(data),
    )


def cli_argv(args: list[str]) -> list[str]:
    return ["-m", "cayleymaps.cli", *args]


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def matches(sample: Sample, expected: dict) -> bool:
    return (
        sample.exit_code == expected["exit_code"]
        and sample.stdout_sha256 == expected["stdout_sha256"]
    )


# -- environment -----------------------------------------------------------------


def source_sha256() -> str:
    """Digest of the program's source files, which stands in for the commit
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return found.stdout.strip() if found.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """Machine, interpreter and program identity; this import also compiles
    the program's bytecode, so the set-up probes that follow are warm."""
    probe = run_process(["-c", ENV_PROBE], "environment")
    if probe.exit_code != 0:
        raise BenchError(
            "cannot import cayleymaps: "
            + (WORK / "environment.stderr").read_text(errors="replace")
        )
    found = json.loads((WORK / "environment.stdout").read_text())
    if Path(found.pop("package_file")).resolve().parent != PACKAGE:
        raise BenchError(f"cayleymaps was not imported from {PACKAGE}")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **found,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


# -- measurement -------------------------------------------------------------------


def check_jobs_once(workload: str, expected: dict) -> bool:
    """Once per checkout, untimed: the other --jobs form prints the same bytes."""
    if workload not in JOBS_CHECK:
        return True
    marker = WORK / f"{workload}.jobs-check.json"
    if not marker.is_file():
        sample = run_process(cli_argv(JOBS_CHECK[workload]), f"{workload}.jobs")
        marker.write_text(json.dumps({"ok": matches(sample, expected), **asdict(sample)}))
    return json.loads(marker.read_text())["ok"]


def measure_plain(workload: str, seconds: float, rng: random.Random) -> dict:
    """Back-to-back CLI runs for about `seconds`, with set-up probes between."""
    cli_runs: list[Sample] = []
    setup_runs: list[Sample] = []

    def setup_probe() -> None:
        sample = run_process(["-c", SETUP_CODE], "setup")
        if sample.exit_code != 0:
            raise BenchError("importing cayleymaps.cli failed")
        setup_runs.append(sample)

    start = time.perf_counter()
    while True:
        steps = ["cli", "setup"] if rng.random() < 0.5 else ["setup", "cli"]
        for step in steps:
            if step == "cli":
                cli_runs.append(run_process(cli_argv(WORKLOADS[workload]), workload))
            else:
                setup_probe()
        elapsed = time.perf_counter() - start
        typical = statistics.median(s.wall_s for s in cli_runs)
        if elapsed + typical > seconds:
            break
    while len(setup_runs) < SETUP_PROBES:
        setup_probe()
    return {"cli": cli_runs, "setup": setup_runs}


def traced_run(workload: str) -> tuple[Sample, dict | None]:
    """Run the workload under tracer.py; the trace is None if it wrote none."""
    trace_path = WORK / f"{workload}.trace.json"
    trace_path.unlink(missing_ok=True)
    argv = [str(HERE / "tracer.py"), str(trace_path), *WORKLOADS[workload]]
    sample = run_process(argv, f"{workload}.traced")
    trace = json.loads(trace_path.read_text()) if trace_path.is_file() else None
    return sample, trace


def measure_traced(workload: str, rng: random.Random) -> dict:
    """One untraced and one traced run of the workload, in seeded order."""
    trace = None
    runs = {}
    for kind in rng.sample(["plain", "traced"], 2):
        if kind == "plain":
            runs[kind] = run_process(cli_argv(WORKLOADS[workload]), workload)
        else:
            runs[kind], trace = traced_run(workload)
    return {"cli": [runs["plain"], runs["traced"]], "trace": trace}


def end_to_end_metrics(cli_runs: list[Sample], setup_runs: list[Sample], failed: int) -> dict:
    median = statistics.median
    return {
        "wall_s": (median(s.wall_s for s in cli_runs), "s"),
        "cpu_s": (median(s.cpu_s for s in cli_runs), "s"),
        "peak_rss_mb": (median(s.peak_rss_mb for s in cli_runs), "MB"),
        "setup_s": (median(s.wall_s for s in setup_runs), "s"),
        "match_frac": (1.0 - failed / len(cli_runs), "ratio"),
    }


def exact_counts(trace: dict) -> dict:
    """The counts of a trace that repeat exactly from run to run."""
    out = {f"{layer}.calls": trace["calls"].get(layer, 0) for layer in SPAN_LAYERS}
    for name in [*COUNTS, *(num for num, _ in RATIOS.values())]:
        out[name] = trace["counts"].get(name, 0)
    return out


def layer_metrics(trace: dict | None, plain: Sample, traced: Sample) -> dict:
    """Per-layer metrics from a trace; a missing layer or counter reads 0."""
    trace = trace or {"calls": {}, "s": {}, "self_s": {}, "counts": {}}
    calls, counts = trace["calls"], trace["counts"]
    out = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        out[f"{layer}.s"] = (trace["s"].get(layer, 0.0), "s")
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = (trace["self_s"].get(layer, 0.0), "s")
    for name, unit in COUNTS.items():
        out[name] = (counts.get(name, 0), unit)
    for name, (num, den) in RATIOS.items():
        base = calls.get(den, counts.get(den, 0))
        out[name] = (counts.get(num, 0) / base if base else 0.0, "ratio")
    out["trace.wall_s"] = (traced.wall_s, "s")
    out["trace.untraced_wall_s"] = (plain.wall_s, "s")
    out["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return the result line and the environment."""
    if not (PACKAGE / "cli.py").is_file():
        raise BenchError(f"no program source at {PACKAGE}")
    expected = load_expected()["workloads"][workload]
    env = environment()
    jobs_ok = check_jobs_once(workload, expected)
    rng = random.Random(seed)
    if trace:
        measured = measure_traced(workload, rng)
    else:
        measured = measure_plain(workload, seconds, rng)
    cli_runs = measured["cli"]
    failed = sum(not matches(s, expected) for s in cli_runs)
    if trace:
        metrics = layer_metrics(measured["trace"], *cli_runs)
    else:
        metrics = end_to_end_metrics(cli_runs, measured["setup"], failed)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "jobs_check_ok": jobs_ok,
        "samples": {k: [asdict(s) for s in v] for k, v in measured.items() if k != "trace"},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    return {
        "correct": failed == 0 and jobs_ok,
        "attempted": len(cli_runs),
        "failed": failed,
        "metrics": record["metrics"],
    }, env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a plain exit unwinds run_process, which kills the running CLI's group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result, env = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
