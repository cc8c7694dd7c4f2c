"""End-to-end command-line contract: exit codes, report formats, byte
determinism, and the documented example invocations."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cayleymaps
from cayleymaps import classify, cli, counting, groups, maps
from cayleymaps.cli import main, parse_generator_list, parse_group_spec
from cayleymaps.groups import (
    CyclicGroup,
    DicyclicGroup,
    DihedralGroup,
    ElemAbelian2Group,
)
from cayleymaps.groups import AbelianProductGroup
from test_classify import pow_roots, reference_factorize, scalar_triples_for


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(cli.__file__).resolve().parents[1])


def checkout_env() -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH, so
    a fresh interpreter imports it even when it is not installed."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's package."""
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )


# -- group-spec and generator-list parsing ----------------------------------------


class TestGroupSpecParsing:
    def test_known_forms(self):
        group, n = parse_group_spec("D7")
        assert isinstance(group, DihedralGroup) and n == 7
        group, n = parse_group_spec("Dic3")
        assert isinstance(group, DicyclicGroup) and n == 3
        group, n = parse_group_spec("Z12")
        assert isinstance(group, CyclicGroup) and n == 12
        group, n = parse_group_spec("E4")
        assert isinstance(group, ElemAbelian2Group) and n == 4
        group, n = parse_group_spec("Z2xZ2xZ4")
        assert isinstance(group, AbelianProductGroup)
        assert group.mods == (2, 2, 4) and n == 16

    @pytest.mark.parametrize("bad", ["Q8", "D", "Z", "Zx", "Dic", "Z6x", "d7"])
    def test_rejects_unknown_forms(self, bad):
        with pytest.raises(ValueError):
            parse_group_spec(bad)

    def test_generator_list_parsing(self):
        group, _ = parse_group_spec("D7")
        xs = parse_generator_list(group, "b,a^1*b,a^3*b")
        assert [group.format_element(x) for x in xs] == ["b", "a*b", "a^3*b"]
        with pytest.raises(ValueError):
            parse_generator_list(group, "b,,a*b")
        with pytest.raises(ValueError):
            parse_generator_list(group, "b,c")


# -- exit-code contract ------------------------------------------------------------


class TestExitCodes:
    def test_zero_on_success(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--group", "dicyclic", "--p", "3", "--n-max", "6"
        )
        assert code == 0
        assert json.loads(out)["entries"] == []

    def test_one_on_verification_failure(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "1.2", "--p", "3", "--n-max", "12"
        )
        assert code == 1
        assert out.startswith("claim 1.2: FAIL\n")
        assert "counterexample: D4,4,3,a a^3 b,true,anti-balanced,(1 2),24,0" in out

    def test_two_on_usage_errors(self, capsys):
        cases = [
            ("census", "--group", "dihedral", "--p", "4", "--n-max", "5"),
            ("verify", "--theorem", "9.9"),
            ("verify", "--theorem", "1.2", "--n-max", "5"),
            ("checkmap", "--group", "Z6", "--xs", "1,2,3"),
            ("checkmap", "--group", "Q8", "--xs", "1,2,3"),
            ("triples", "--p", "3", "--n-max", "0"),
            ("count", "--p", "9", "--n", "5"),
            # after a valid prime was validated (and memoised) above
            ("triples", "--p", "9", "--n-max", "5"),
        ]
        for case in cases:
            code, out, err = run_cli(capsys, *case)
            assert code == 2, case
            assert out == "", case
            assert err.startswith("error: "), case

    def test_two_on_argparse_errors(self, capsys):
        assert run_cli(capsys, "census", "--p", "3", "--n-max", "5")[0] == 2
        assert run_cli(capsys, "nonsense")[0] == 2
        assert run_cli(capsys, "count", "--p", "x", "--n", "5")[0] == 2

    def test_two_on_jobs_below_one(self, capsys):
        for command in (
            ("census", "--group", "dihedral", "--p", "3", "--n-max", "5"),
            ("verify", "--theorem", "1.2", "--p", "3", "--n-max", "5"),
        ):
            for jobs in ("0", "-1"):
                assert run_cli(capsys, *command, "--jobs", jobs)[0] == 2

    def test_four_on_internal_error(self, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("census crashed")

        monkeypatch.setattr(classify, "census_entries", crash)
        code, out, err = run_cli(
            capsys, "census", "--group", "dihedral", "--p", "3", "--n-max", "5"
        )
        assert code == 4
        assert out == ""
        assert err.startswith("internal error:")
        assert "RuntimeError: census crashed" in err

    def test_four_on_internal_value_error(self, capsys, monkeypatch):
        # only a UsageError is a usage error; any other ValueError is a bug
        def slip(*args, **kwargs):
            raise ValueError("internal slip")

        monkeypatch.setattr(classify, "census_entries", slip)
        code, out, err = run_cli(
            capsys, "census", "--group", "dihedral", "--p", "3", "--n-max", "5"
        )
        assert code == 4
        assert out == ""
        assert err.startswith("internal error:")
        assert "Traceback" in err and "ValueError: internal slip" in err

    def test_three_on_size_guard(self, capsys):
        code, _, err = run_cli(
            capsys, "census", "--group", "dihedral", "--p", "3", "--n-max", "67"
        )
        assert code == 3
        assert err.startswith("size guard: ")

    def test_verify_size_guard_refuses_before_any_search(self, capsys, monkeypatch):
        searched = []

        def no_search(group, valence, jobs=1):
            searched.append(group.name)
            raise AssertionError("searched a group of a refused request")

        monkeypatch.setattr(classify, "exhaustive_regular_maps", no_search)
        for case in (
            ("verify", "--theorem", "1.1", "--p", "29", "--n-max", "16"),
            ("verify", "--theorem", "1.2", "--p", "3", "--n-max", "67"),
            ("verify", "--theorem", "1.3", "--p", "3", "--n-max", "67"),
            ("verify", "--theorem", "2.6", "--p", "7", "--n-max", "40"),
            ("verify", "--theorem", "L3.2", "--p", "3", "--n-max", "67"),
            ("census", "--group", "dihedral", "--p", "3", "--n-max", "67"),
        ):
            code, out, err = run_cli(capsys, *case)
            assert (code, out) == (3, ""), case
            assert err.startswith("size guard: census guard: "), case
        assert searched == []

    def test_three_on_the_abelian_order_bound(self, capsys, monkeypatch):
        def no_search(group, valence, jobs=1):
            raise AssertionError("searched a group of a refused request")

        monkeypatch.setattr(classify, "exhaustive_regular_maps", no_search)
        code, out, err = run_cli(
            capsys, "verify", "--theorem", "1.1", "--p", "3", "--n-max", "17"
        )
        assert (code, out) == (3, "")
        assert err == (
            "size guard: abelian verification is bounded at order 16, "
            "got n_max=17\n"
        )

    def test_size_guard_refuses_before_any_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--group", "abelian", "--p", "7", "--n-max", "64"
        )
        assert code == 3
        assert out == ""

    def test_checkmap_guard_refuses_before_building_the_map(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(maps, "build_map", lambda *args: built.append(args))
        code, out, err = run_cli(
            capsys, "checkmap", "--group", "Z1200", "--xs", "1,600,1199"
        )
        assert (code, out) == (3, "")
        assert err.startswith("size guard: checkmap guard: ")
        assert built == []

    def test_checkmap_at_the_guard_still_reports(self, capsys):
        code, out, _ = run_cli(capsys, "checkmap", "--group", "Z600", "--xs", "1,300,599")
        assert code == 0
        entry = json.loads(out)["entries"][0]
        assert (entry["group"], entry["p"], entry["regular"]) == ("Z600", 3, False)

    def test_checkmap_refuses_too_many_graph_automorphisms(self, capsys):
        # the underlying graph of Z12 on every non-zero residue is K12, with
        # 12! automorphisms; listing stops at the bound
        xs = ",".join(str(x) for x in range(1, 12))
        code, out, err = run_cli(capsys, "checkmap", "--group", "Z12", "--xs", xs)
        assert (code, out) == (3, "")
        assert err.startswith("size guard: over ")

    def test_count_guard_refuses_before_any_scan(self, capsys, monkeypatch):
        scanned = []
        monkeypatch.setattr(
            counting, "triples_for", lambda n, p: scanned.append(n) or []
        )
        beyond = str(counting.MAX_COUNT_N + 1)
        for case in (
            ("count", "--p", "3", "--n", beyond),
            ("triples", "--p", "3", "--n-max", beyond),
            ("verify", "--theorem", "3.4", "--p", "3", "--n-max", beyond),
            # an odd prime above the guard, refused before its trial division
            ("count", "--p", "2147483659", "--n", "7"),
        ):
            code, out, err = run_cli(capsys, *case)
            assert (code, out) == (3, ""), case
            assert err.startswith("size guard: count guard: "), case
        assert scanned == []
        # the stand-in is the scan the commands run
        assert run_cli(capsys, "count", "--p", "3", "--n", "7")[0] == 1
        assert scanned == [7]


# -- census reports ---------------------------------------------------------------


class TestCensusCommand:
    def test_dihedral_json_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--group", "dihedral", "--p", "3", "--n-max", "7"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["params"] == {
            "command": "census", "group": "dihedral", "p": 3, "n_max": 7,
        }
        # the balanced classes for n = 3 and n = 7, plus the genus-0
        # anti-balanced sphere map on the order-8 dihedral group
        assert [e["class_id"] for e in doc["entries"]] == [
            "D3-p3-0", "D4-p3-0", "D7-p3-0", "D7-p3-1",
        ]
        sphere = doc["entries"][1]
        assert sphere["xs"] == ["a", "a^3", "b"]
        assert sphere["balance"] == "anti-balanced"
        assert sphere["genus"] == 0

    def test_json_round_trips_byte_for_byte(self, capsys):
        _, out, _ = run_cli(
            capsys, "census", "--group", "dihedral", "--p", "3", "--n-max", "7"
        )
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_csv_fixed_header_and_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--group", "dihedral", "--p", "3", "--n-max", "7",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "group,n,p,xs,regular,balance,kappa,mon_order,genus,class_id",
            "D3,3,3,b a*b a^2*b,true,balanced,id,18,1,D3-p3-0",
            "D4,4,3,a a^3 b,true,anti-balanced,(1 2),24,0,D4-p3-0",
            "D7,7,3,b a*b a^3*b,true,balanced,id,42,1,D7-p3-0",
            "D7,7,3,b a*b a^5*b,true,balanced,id,42,1,D7-p3-1",
        ]

    def test_abelian_census_lists_the_three_small_classes(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--group", "abelian", "--p", "3", "--n-max", "16",
            "--format", "csv",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["E2", "Z6", "E3"]

    def test_elem2_census(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--group", "elem2", "--p", "3", "--n-max", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert [(e["group"], e["n"]) for e in doc["entries"]] == [
            ("E2", 2), ("E3", 3),
        ]

    def test_byte_identical_across_runs_and_jobs(self, capsys):
        for family, n_max in (("dihedral", "7"), ("dicyclic", "6"), ("abelian", "12")):
            outs = []
            for jobs in ("1", "1", "2"):
                code, out, _ = run_cli(
                    capsys, "census", "--group", family, "--p", "3",
                    "--n-max", n_max, "--jobs", jobs,
                )
                assert code == 0
                outs.append(out)
            assert outs[0] == outs[1] == outs[2], family


# -- verify, count, triples ---------------------------------------------------------


class TestVerifyCommand:
    def test_pass_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "3.4", "--p", "5", "--n-max", "50"
        )
        assert code == 0
        assert out == "claim 3.4: PASS\nchecked: 50\n"

    def test_kappa_claim_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "L3.2", "--p", "3", "--n-max", "8"
        )
        assert code == 0
        assert out.startswith("claim L3.2: PASS\n")

    def test_dicyclic_claim_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "1.3", "--p", "3", "--n-max", "6"
        )
        assert code == 0

    def test_byte_identical_across_runs(self, capsys):
        runs = [
            run_cli(
                capsys, "verify", "--theorem", "1.2", "--p", "3", "--n-max", "7",
                "--jobs", jobs,
            )
            for jobs in ("1", "2")
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == 1  # the sphere-map exception is inside this range


    def test_completed_runs_report_coverage_on_stderr(self, capsys):
        # one covered: line per completed run, PASS or FAIL, off stdout
        for case, code, covered in (
            (
                ("1.2", "--p", "5", "--n-max", "11"),
                0,
                "dihedral D3..D11 valence 5 (9 groups)",
            ),
            (
                ("1.2", "--p", "3", "--n-max", "12"),
                1,
                "dihedral D3..D12 valence 3 (10 groups)",
            ),
            (
                ("2.7-consequence", "--n-max", "21"),
                0,
                "dicyclic Dic2..Dic21 valence 3 (20 groups); "
                "dicyclic Dic2..Dic21 valence 4 (20 groups); "
                "dicyclic Dic2..Dic20 valence 5 (19 groups)",
            ),
            (
                ("L3.2", "--p", "3", "--n-max", "3"),
                0,
                "dihedral D3 valence 3 (1 group); affine involutions of degree 3",
            ),
            (("1.3", "--p", "3", "--n-max", "1"), 0, "dicyclic none (0 groups)"),
            (
                ("3.4", "--p", "5", "--n-max", "50"),
                0,
                "counting n=1..50 at p=5 (50 values)",
            ),
        ):
            got, out, err = run_cli(capsys, "verify", "--theorem", *case)
            assert (got, err) == (code, f"covered: {covered}\n"), case
            assert "covered" not in out, case

    def test_refusals_report_no_coverage(self, capsys):
        for case in (
            ("1.2", "--p", "3", "--n-max", "67"),
            ("3.4", "--p", "3", "--n-max", str(counting.MAX_COUNT_N + 1)),
            ("1.1", "--p", "3", "--n-max", "17"),
            ("9.9", "--p", "3", "--n-max", "5"),
        ):
            code, out, err = run_cli(capsys, "verify", "--theorem", *case)
            assert code in (2, 3) and out == "", case
            assert "covered" not in err, case


def reference_lift(n: int, p: int) -> list[int]:
    """The x in [1, n) that crt_lift_solutions lifts, by their definition:
    1 mod p when p divides n once, and a root from pow_roots modulo every
    other prime power of n; none when n is 1 or even or p^2 divides n."""
    if n == 1 or n % 2 == 0 or n % (p * p) == 0:
        return []
    allowed = {
        q**e: {1} if q == p else set(pow_roots(q, e, p))
        for q, e in reference_factorize(n)
    }
    return [x for x in range(1, n) if all(x % m in r for m, r in allowed.items())]


def reference_count_line(n: int, p: int) -> tuple[str, bool, str]:
    """The count and triples line, whether the routes agree, and the verify
    3.4 counterexample row, from the scalar and pow reference routes."""
    formula = counting.count_regular_dihedral_maps(n, p)
    enumerated = scalar_triples_for(n, p)
    lifted = reference_lift(n, p)
    agree = formula == len(enumerated) == len(lifted) and enumerated == lifted
    shown = ",".join(str(l) for l in enumerated)
    flag = "AGREE" if agree else "DISAGREE"
    line = f"n={n} p={p} count={formula} l=[{shown}] {flag}\n"
    row = f"n={n} p={p}: formula={formula} enumerated={enumerated} crt={lifted}"
    return line, agree, row


class TestCountAndTriples:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_counting_commands_match_the_reference_routes(self, capsys, p):
        n_max = 400
        lines, rows = [], []
        for n in range(1, n_max + 1):
            line, agree, row = reference_count_line(n, p)
            lines.append(line)
            if not agree:
                rows.append(f"counterexample: {row}\n")
        expected = (0 if not rows else 1, "".join(lines))
        args = ("--p", str(p), "--n-max", str(n_max))
        assert run_cli(capsys, "triples", *args)[:2] == expected
        report = f"claim 3.4: {'FAIL' if rows else 'PASS'}\nchecked: {n_max}\n"
        expected = (0 if not rows else 1, report + "".join(rows))
        assert run_cli(capsys, "verify", "--theorem", "3.4", *args)[:2] == expected
        for n in (1, 3, p, 3 * p, 7 * 13 * 19, n_max):
            line, agree, _ = reference_count_line(n, p)
            expected = (0 if agree else 1, line)
            assert run_cli(capsys, "count", "--p", str(p), "--n", str(n))[:2] == expected

    def test_count_above_one_block_matches_the_reference_routes(self, capsys):
        n, p = 7**6, 7  # 117649 residues: two blocks of the scan
        assert n > counting.COUNT_BLOCK
        line, agree, _ = reference_count_line(n, p)
        assert (line, agree) == (f"n={n} p={p} count=0 l=[] AGREE\n", True)
        assert run_cli(capsys, "count", "--p", "7", "--n", str(n))[:2] == (0, line)

    def test_count_examples(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--p", "3", "--n", "21")
        assert code == 0
        assert out == "n=21 p=3 count=2 l=[4,16] AGREE\n"
        code, out, _ = run_cli(capsys, "count", "--p", "3", "--n", "9")
        assert code == 0
        assert out == "n=9 p=3 count=0 l=[] AGREE\n"
        code, out, _ = run_cli(capsys, "count", "--p", "5", "--n", "11")
        assert code == 0
        assert out == "n=11 p=5 count=4 l=[3,4,5,9] AGREE\n"
        # the largest prime the guard admits: no geometric-sum order mod n
        # exceeds n, so nothing is scanned
        code, out, _ = run_cli(capsys, "count", "--p", "2147483647", "--n", "7")
        assert code == 0
        assert out == "n=7 p=2147483647 count=0 l=[] AGREE\n"

    def test_triples_table(self, capsys):
        code, out, _ = run_cli(capsys, "triples", "--p", "3", "--n-max", "9")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9
        assert lines[6] == "n=7 p=3 count=2 l=[2,4] AGREE"
        assert all(line.endswith("AGREE") for line in lines)


# -- checkmap ---------------------------------------------------------------------


class TestCheckmapCommand:
    def _entry(self, capsys, *args):
        code, out, _ = run_cli(capsys, "checkmap", *args)
        assert code == 0
        return json.loads(out)["entries"][0]

    def test_dihedral_example(self, capsys):
        entry = self._entry(capsys, "--group", "D7", "--xs", "b,a^1*b,a^3*b")
        assert entry["regular"] is True
        assert entry["balance"] == "balanced"
        assert entry["genus"] == 1
        assert entry["graph_aut_order"] == 336
        assert entry["class_id"] == "checkmap"

    def test_cyclic_antibalanced_example(self, capsys):
        entry = self._entry(capsys, "--group", "Z6", "--xs", "1,3,5")
        assert entry["regular"] is True
        assert entry["balance"] == "anti-balanced"

    def test_inverse_closure_violation_named(self, capsys):
        code, out, err = run_cli(capsys, "checkmap", "--group", "Z6", "--xs", "1,2,3")
        assert code == 2
        assert out == ""
        assert "inverse-closed" in err

    def test_irregular_map_still_reports(self, capsys):
        entry = self._entry(capsys, "--group", "D4", "--xs", "b,a*b,a^2*b")
        assert entry["regular"] is False
        assert entry["mon_order"] == ">25"

    def test_bitstring_and_product_syntax(self, capsys):
        entry = self._entry(capsys, "--group", "E3", "--xs", "100,010,001")
        assert entry["regular"] is True and entry["balance"] == "balanced"
        entry = self._entry(capsys, "--group", "Z2xZ4", "--xs", "0:1,1:0,0:3")
        assert entry["regular"] is False

    def test_dicyclic_valence_4(self, capsys):
        entry = self._entry(capsys, "--group", "Dic2", "--xs", "a,b,a^3,a^2*b")
        assert entry["regular"] is True
        assert entry["balance"] == "balanced"
        assert entry["kappa"] == "(1 3)(2 4)"


# -- installed console script -------------------------------------------------------


class TestConsoleScript:
    def test_end_to_end_determinism(self):
        cmd = [
            sys.executable, "-m", "cayleymaps.cli",
            "census", "--group", "dihedral", "--p", "3", "--n-max", "7",
        ]
        env = checkout_env()
        first = subprocess.run(cmd, capture_output=True, text=True, env=env)
        second = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["schema_version"] == 1

    def test_import_loads_no_process_pool(self):
        # only a run that forks a pool imports one, so starting the command
        # line does not pay for loading multiprocessing
        code = "import sys, cayleymaps.cli; print('multiprocessing' in sys.modules)"
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


# -- what each command loads at start-up ---------------------------------------------

SEARCH_MODULES = {
    "cayleymaps.maps",
    "cayleymaps.groups",
    "cayleymaps.perms",
    "cayleymaps._kernels",
}


def load_time_imports(body: list[ast.stmt]):
    """The import statements that run when a module with this body loads:
    every one outside a function body and an `if TYPE_CHECKING:` block."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from load_time_imports(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from load_time_imports(getattr(node, field, []))


def imported_roots(nodes) -> set[str]:
    """The top-level package names that the absolute imports among nodes
    name."""
    roots = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
    return roots


class TestStartup:
    def test_importing_the_package_loads_no_numpy(self):
        code = "import sys, cayleymaps, cayleymaps.cli; print('numpy' in sys.modules)"
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_the_package_still_exports_the_group_classes(self):
        for name in ("CyclicGroup", "DicyclicGroup", "DihedralGroup"):
            assert getattr(cayleymaps, name) is getattr(groups, name)
        assert cayleymaps.ElemAbelian2Group is groups.ElemAbelian2Group
        assert cayleymaps.FiniteGroup is groups.FiniteGroup
        with pytest.raises(AttributeError):
            cayleymaps.AbelianProductGroup  # not exported at the top level

    @pytest.mark.parametrize(
        "args, searches",
        [
            (["count", "--p", "3", "--n", "91"], False),
            (["triples", "--p", "3", "--n-max", "30"], False),
            (["census", "--group", "dihedral", "--p", "3", "--n-max", "5"], True),
            (["checkmap", "--group", "D7", "--xs", "b,a*b,a^3*b"], True),
            (["verify", "--theorem", "1.3", "--p", "3", "--n-max", "4"], True),
        ],
    )
    def test_counting_commands_load_no_search_module(self, args, searches):
        code = (
            "import json, sys\n"
            "from cayleymaps.cli import main\n"
            f"code = main({args!r})\n"
            "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)\n"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        code, loaded = json.loads(done.stderr.splitlines()[-1])
        assert code == 0
        assert "cayleymaps.counting" in loaded
        assert bool(SEARCH_MODULES & set(loaded)) == searches, loaded
        assert ("cayleymaps.classify" in loaded) == searches, loaded
        # the oracle runs without the claims it checks
        assert ("cayleymaps.claims" in loaded) == (args[0] == "verify"), loaded
        # the counting scans build numpy blocks; the search builds none
        assert ("numpy" in loaded) != searches, loaded

    def test_counting_imports_only_the_standard_library_and_numpy(self):
        tree = ast.parse(Path(counting.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"relative import from {node.module!r}"
        roots = imported_roots(ast.walk(tree))
        assert "numpy" in roots
        assert roots - {"numpy"} <= set(sys.stdlib_module_names), roots

    def test_no_module_imports_numpy_at_load_time(self):
        # numpy is imported inside the functions that build arrays (the
        # counting scans' block helpers and the reference kernels) and by
        # `triples` before it prints a line
        anywhere = set()
        for path in sorted(Path(SRC, "cayleymaps").glob("*.py")):
            tree = ast.parse(path.read_text())
            assert "numpy" not in imported_roots(load_time_imports(tree.body)), path
            if "numpy" in imported_roots(ast.walk(tree)):
                anywhere.add(path.stem)
        assert anywhere == {"cli", "counting", "_kernels"}

    @pytest.mark.parametrize(
        "args",
        [
            ["census", "--group", "dihedral", "--p", "3", "--n-max", "20"]
            + ["--format", "csv"],
            ["checkmap", "--group", "D7", "--xs", "b,a*b,a^3*b"],
        ],
    )
    def test_the_search_runs_without_numpy(self, args):
        runs = []
        for block in ("", "sys.modules['numpy'] = None\n"):
            code = (
                f"import sys\n{block}"
                "from cayleymaps.cli import main\n"
                f"sys.exit(main({args!r}))\n"
            )
            runs.append(run_python(code))
        free, blocked = runs
        assert blocked.returncode == free.returncode == 0, blocked.stderr
        assert free.stdout.count("\n") > 1
        assert (blocked.stdout, blocked.stderr) == (free.stdout, free.stderr)

    def test_openblas_defaults_to_one_thread(self, capsys, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert run_cli(capsys, "count", "--p", "3", "--n", "7")[0] == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_openblas_keeps_the_callers_setting(self, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert run_cli(capsys, "count", "--p", "3", "--n", "7")[0] == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="counts threads in /proc"
    )
    def test_a_command_runs_on_one_thread(self):
        # the default is set before numpy's first import, so OpenBLAS starts
        # no thread pool
        code = (
            "import os, sys\n"
            "from cayleymaps.cli import main\n"
            "main(['census', '--group', 'dihedral', '--p', '3', '--n-max', '5'])\n"
            "print(len(os.listdir('/proc/self/task')), file=sys.stderr)\n"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stderr == "1\n"

    @pytest.mark.parametrize(
        "blocked, args",
        [
            ("numpy", ["count", "--p", "3", "--n", "7"]),
            ("numpy", ["triples", "--p", "3", "--n-max", "7"]),
            # count never imports the groups, census fails inside its body
            (
                "cayleymaps.groups",
                ["census", "--group", "dihedral", "--p", "3", "--n-max", "5"],
            ),
        ],
    )
    def test_a_failed_import_exits_four(self, blocked, args):
        # exit 1 means a claim failed; a missing module must not read as one
        code = (
            "import sys\n"
            f"sys.modules[{blocked!r}] = None\n"
            "from cayleymaps.cli import main\n"
            f"sys.exit(main({args!r}))\n"
        )
        done = run_python(code)
        assert done.returncode == 4, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("internal error:\nTraceback")
        assert f"import of {blocked} halted" in done.stderr
