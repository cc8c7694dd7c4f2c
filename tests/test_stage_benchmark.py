"""The stage benchmark's checks on its two smallest cases, its counting
sweeps and its large-valence row, with one timing repeat, and the end-to-end
benchmark's tracer and environment probe on one small census, so that a
change to what either calls fails here rather than in its next full run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from cayleymaps import _kernels
from reference import checkout_env

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "closure_benchmark.py"


def test_stage_benchmark_checks_pass(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends to it
    spec = importlib.util.spec_from_file_location("closure_benchmark", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    cases = {label: (group, valence) for label, group, valence in bench.CASES}
    # (sets, orders, classes, full-search maps) of each row
    expected = {"D12 valence 3": (7, 14, 0, 432), "Dic6 valence 5": (2, 48, 0, 432)}
    for label, counts in expected.items():
        fields = bench.check_case(label, *cases[label], repeat=1)[len(label) :].split()
        assert tuple(int(fields[i]) for i in (0, 1, 5, 6)) == counts, label
    ends = {
        3: "(both checked for n <= 500 and at the primes n = 1 mod p above it, 162)",
        211: "(both checked for n <= 300 and at the primes n = 1 mod p above it, 1)",
    }
    for p, check_n_max in bench.COUNT_CASES:
        line = bench.check_counting(1, p, check_n_max)
        assert line.startswith(f"\ncounting n=1..3000 at p={p}: triples_for ")
        assert line.endswith(ends[p]), line
    line = bench.check_large_valence(1)
    assert line.startswith("\ncounting n=30011 at p=3001: triples_for ")
    assert line.endswith("(3000 answers, checked against pow)"), line


def test_benchmark_tracer_and_probe_still_resolve(tmp_path):
    # perfbench/tracer.py wraps the package's functions by name and
    # perfbench/run.py reads the kernels' backend label; a deletion in the
    # package that breaks either shows here
    args = ["census", "--group", "dihedral", "--p", "3", "--n-max", "6", "--format", "csv"]
    out = tmp_path / "trace.json"

    def run(*argv):
        return subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=checkout_env(),
            capture_output=True, text=True, timeout=120,
        )

    traced = run("perfbench/tracer.py", str(out), *args)
    plain = run("-m", "cayleymaps.cli", *args)
    assert (traced.returncode, plain.returncode) == (0, 0), traced.stderr
    assert traced.stdout == plain.stdout
    calls = json.loads(out.read_text())["calls"]
    assert calls["classify.exhaustive_regular_maps"] > 0
    assert calls["maps.build_map"] > 0
    # the label perfbench/compare.py matches results on
    assert _kernels.default_backend() == "numpy"
