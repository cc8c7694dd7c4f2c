"""The stage benchmark's rows with one timing repeat, its refusal of fewer,
and the end-to-end benchmark's tracer and environment probe on one small
census, so that a change to what either calls fails here rather than in its
next full run. The stage benchmark only times; its stages and scans are
checked against their slow routes in the other test modules."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cayleymaps import _kernels
from reference import checkout_env

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "closure_benchmark.py"


def load_script(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends to it
    spec = importlib.util.spec_from_file_location("closure_benchmark", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_stage_benchmark_prints_every_row(monkeypatch, capsys):
    load_script(monkeypatch).main(["--repeat", "1"])
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    rows = {line[:16].strip(): line[16:].split() for line in lines[1:6]}
    # (sets, orders, classes) of two rows
    expected = {"D12 valence 3": (7, 14, 0), "Dic6 valence 5": (2, 48, 0)}
    for label, counts in expected.items():
        assert tuple(int(rows[label][i]) for i in (0, 1, 5)) == counts, label
    assert lines[6].startswith("counting n=1..3000 at p=3: triples_for ")
    assert lines[7].startswith("counting n=1..3000 at p=211: triples_for ")
    assert lines[8].startswith("counting n=30011 at p=3001: triples_for ")
    assert lines[8].endswith("s (3000 answers)")
    assert len(lines) == 9


def test_stage_benchmark_refuses_a_repeat_below_one(monkeypatch, capsys):
    # refused by the parser, before any stage runs
    with pytest.raises(SystemExit) as refusal:
        load_script(monkeypatch).main(["--repeat", "0"])
    out, err = capsys.readouterr()
    assert (refusal.value.code, out) == (2, "")
    assert "--repeat must be at least 1, got 0" in err


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
