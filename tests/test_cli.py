import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permutoria
from permutoria import cli, verify
from permutoria.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_child(*argv, **env):
    """Run ``python -m <argv>`` on this checkout's package, with env added."""
    src = str(Path(permutoria.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", *argv],
        env={**os.environ, "PYTHONPATH": path, **env}, capture_output=True, text=True,
        timeout=300,
    )


class TestCount:
    def test_da_catalan(self, capsys):
        code, out = run(capsys, "count", "--da", "--patterns", "2413", "--n", "10")
        assert code == 0 and out.strip() == "10\t42"

    def test_upto_json(self, capsys):
        code, out = run(
            capsys, "count", "--patterns", "123", "--n", "5", "--upto", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"0": 1, "1": 1, "2": 2, "3": 5, "4": 14, "5": 42}

    def test_extended_cell(self, capsys):
        code, out = run(capsys, "count", "--patterns", "123", "--dcr", "1,1,0")
        assert code == 0 and out.strip() == "1,1,0\t2"

    def test_bad_patterns_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--patterns", "12a", "--n", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error: argument --patterns" in err

    def test_limit_exceeded_is_one_line(self, capsys):
        code = main(["count", "--patterns", "123", "--n", "30"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "exceeds enumeration limit" in captured.err
        assert "PERMUTORIA_LIMITS=enumeration=30" in captured.err

    def test_sequence_limit_is_one_line(self, capsys):
        code = main(["count", "--sequence", "catalan", "--n", "100000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "exceeds series_order limit" in captured.err
        assert "PERMUTORIA_LIMITS=series_order=100000" in captured.err


class TestSeries:
    def test_formula_equals_brute(self, capsys):
        args = ["--orders", "5,3,3", "--total", "6"]
        _, formula = run(
            capsys, "series", "--formula", "c(x)/((1-y*c(x))*(1-z*c(x)))", *args
        )
        _, brute = run(capsys, "series", "--brute", "--patterns", "132", *args)
        assert formula == brute

    def test_deterministic(self, capsys):
        _, a = run(capsys, "series", "--formula", "1/(1-x)", "--orders", "4,0,0")
        _, b = run(capsys, "series", "--formula", "1/(1-x)", "--orders", "4,0,0")
        assert a == b


class TestDiscover:
    def test_json_output(self, capsys):
        code, out = run(
            capsys, "discover", "--patterns", "213,4123", "--rule", "standard",
            "--depth", "7",
        )
        assert code == 0
        graph = json.loads(out)
        assert len(graph["classes"]) == 3 and graph["root"] == 0

    def test_dot_output(self, capsys):
        code, out = run(
            capsys, "discover", "--patterns", "132", "--depth", "5", "--format", "dot"
        )
        assert code == 0 and out.startswith("digraph") and "style=dashed" in out


class TestBiject:
    def test_theta_rows(self, capsys):
        code, out = run(capsys, "biject", "--name", "theta", "--n", "4")
        lines = [l for l in out.splitlines() if l]
        assert code == 0 and len(lines) == 2
        assert lines[0].split("\t")[1] in ("UDUD", "UUDD")

    def test_phi(self, capsys):
        code, out = run(capsys, "biject", "--name", "phi", "--n", "2")
        assert code == 0
        assert dict(l.split("\t") for l in out.splitlines() if l) == {
            "1,2": "1,3,2,4",
            "2,1": "3,4,1,2",
        } or len(out.splitlines()) == 2


class TestTableau:
    BLOB = json.dumps(
        {
            "outer": [2, 2],
            "inner": [1],
            "boxShape": [2, 2],
            "boxCompanion": [3, 2],
            "rows": [[2], [1, 3]],
        }
    )

    def test_jdt(self, capsys):
        code, out = run(capsys, "tableau", "--op", "jdt", "--input", self.BLOB)
        assert code == 0
        assert json.loads(out)["rows"] == [[1, 2], [3]]

    def test_recording_matrix(self, capsys):
        code, out = run(capsys, "tableau", "--op", "rec", "--input", self.BLOB)
        assert code == 0
        assert json.loads(out) == [[0, 1, 0], [1, 0, 1]]

    def test_rsk_weight_not_a_partition_is_one_line(self, capsys):
        blob = json.dumps(
            {
                "outer": [3, 1],
                "inner": [1],
                "boxShape": [2, 3],
                "boxCompanion": [2, 3],
                "rows": [[1, 2], [2]],
            }
        )
        code = main(["tableau", "--op", "rsk", "--input", blob])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "(1, 2) is not a partition" in captured.err


class TestVerify:
    def test_pass_suite_exits_zero(self, capsys):
        code, out = run(capsys, "verify", "P1-prop7.2")
        assert code == 0 and "failed" in out

    def test_json_format(self, capsys):
        code, out = run(capsys, "verify", "P1-prop7.2", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == "P1-prop7.2" and report["failed"] == 0

    def test_conjecture_suite_never_fails_exit(self, capsys):
        code, out = run(capsys, "verify", "P1-8.3")
        assert code == 0

    def test_unknown_suite(self, capsys):
        code = main(["verify", "no-such-suite"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert "unknown suite 'no-such-suite'" in captured.err and "P1-7.1" in captured.err

    def test_seed_is_refused(self, capsys):
        # every suite runs on whole universes, so there is no sample to seed
        with pytest.raises(SystemExit) as exc:
            main(["verify", "P3-sec4", "--seed", "0"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err == "permutoria: error: unrecognized arguments: --seed 0\n"

    def test_all_runs_each_suite_once(self, capsys, monkeypatch):
        ran = []

        def fake_run_suite(name, scale):
            ran.append(name)
            return verify.SuiteReport(name, "stub", passed=1)

        monkeypatch.setattr(cli, "run_suite", fake_run_suite)
        assert main(["verify", "all"]) == 0
        suites = [verify.SUITES[name] for name in ran]
        assert len(set(suites)) == len(suites) == len(set(verify.SUITES.values()))
        assert "P2-appendixA" not in ran and "P2-formulas" in ran

    def test_alias_runs_its_suite(self, monkeypatch):
        stub = verify.SuiteReport("P2-formulas", "stub", passed=1)
        monkeypatch.setitem(verify.SUITES, "P2-formulas", lambda scale: stub)
        assert verify.run_suite("P2-appendixA") is stub

    def test_suites_ignore_the_environment_cap(self):
        def verify_in_child(*argv):
            return run_child("permutoria.cli", "verify", *argv, PERMUTORIA_LIMITS="da=10")

        prop81 = verify_in_child("P1-prop8.1", "--format", "json")
        report = json.loads(prop81.stdout)
        assert prop81.returncode == 0 and report["universe"] == "n<=14"
        assert report["passed"] == 14 and report["failed"] == 0
        assert verify_in_child("P1-sec4").returncode == 0


FLOAT_ENTRY = (
    '{"outer":[1],"inner":[],"boxShape":[1,1],"boxCompanion":[1,1],"rows":[[1.0]]}'
)
FLOAT_BOX = '{"outer":[1],"inner":[],"boxShape":[1.5,1],"boxCompanion":[1,1],"rows":[[1]]}'


@pytest.mark.parametrize(
    "argv",
    [
        ["biject", "--name", "psi", "--n", "4", "--tau", "3a"],
        ["verify", "P1-prop7.2", "--box", "4y4"],
        ["tableau", "--op", "jdt", "--input", "{"],
        ["tableau", "--op", "jdt", "--input", '{"outer":[1]}'],
        ["count", "--patterns", "123", "--dcr", "1,a"],
        ["series", "--formula", "1/(1-x)", "--orders", "1,2,3,4"],
        ["discover", "--patterns", "123", "--depth", "2", "--fingerprint-depth", "-1"],
        ["discover", "--patterns", "123", "--depth", "2", "--fingerprint-depth", "0"],
        ["discover", "--patterns", "123", "--depth", "-1"],
        ["series", "--formula", "x+"],
        ["series", "--formula", "1/(1-x"],
        ["count", "--patterns", "123", "--n", "-1"],
        ["biject", "--name", "phi", "--n", "-1"],
        ["discover", "--patterns", "123", "--depth", "2", "--validate", "-1"],
        ["verify", "P3-figure21", "--letters", "0"],
        ["verify", "P3-figure21", "--box", "0x0"],
        ["series", "--formula", "1/(1-x)", "--orders", "3,0,0", "--total", "-1"],
        ["count", "--patterns", "123", "--dcr=-1,0,0"],
        ["series", "--formula", "1/(1-x)", "--orders=-3,0,0"],
        ["series", "--formula", "1/(1-x)", "--orders", "100000,0,0", "--total", "5"],
        ["biject", "--name", "psi", "--n", "4", "--tau", "5"],
        ["biject", "--name", "psi", "--n", "4", "--tau", "99"],
        ["verify", "P3-figure21", "--box", "9x9", "--letters", "9"],
        ["verify", "P3-figure21", "--box", "5x5"],
        ["verify", "P3-figure21", "--letters", "6"],
        *(
            ["tableau", "--op", op, "--input", FLOAT_ENTRY]
            for op in ("rec", "omega", "rsk")
        ),
        *(
            ["tableau", "--op", op, "--input", FLOAT_BOX]
            for op in ("rotate", "omega", "rsk", "rec")
        ),
        ["tableau", "--op", "rec", "--input", FLOAT_ENTRY.replace("1.0", "true")],
    ],
    ids=[
        "tau", "box", "json", "json-key", "dcr", "orders",
        "fp-depth-negative", "fp-depth-zero", "depth-negative",
        "formula-dangling", "formula-unbalanced",
        "n-negative", "biject-n-negative", "validate-negative",
        "letters-zero", "box-zero",
        "total-negative", "dcr-negative", "orders-negative",
        "orders-above-limit", "tau-not-from-3", "tau-repeated",
        "scale-above-cap", "box-above-cap", "letters-above-cap",
        "float-entry-rec", "float-entry-omega", "float-entry-rsk",
        "float-box-rotate", "float-box-omega", "float-box-rsk", "float-box-rec",
        "bool-entry",
    ],
)
def test_malformed_input_is_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "error: argument --" in captured.err


@pytest.mark.parametrize(
    "formula",
    ["(" * 300 + "x" + ")" * 300, "+".join(["x"] * 1500), "-" * 1500 + "x"],
    ids=["parentheses", "long-sum", "unary-minus"],
)
def test_deep_formula_is_one_line(capsys, formula):
    with pytest.raises(SystemExit) as exc:
        main(["series", f"--formula={formula}", "--orders", "3,0,0"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "formula nested deeper than 100 levels" in captured.err


def test_module_entry_point():
    proc = run_child("permutoria", "verify", "P3-sec2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("== P3-sec2 ")


def test_version(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0 and "permutoria" in out
