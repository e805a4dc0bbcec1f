"""The acceptance criteria, one test per criterion, exact arithmetic only.

Every criterion runs the ``permutoria verify`` suites that state its laws,
at the sizes fixed in ``verify.py``, and passes when every check in them
passes; a failure names the suite and its first counterexample.  No test
here states a law: c10 is one call like the rest, and its Bender-Knuth,
word, rotation and switching laws on 4x4 boxes are checks of ``P3-sec3``.
``test_suite_passes`` runs the suites that no criterion names, so tier-1
runs every suite, and c10's suites, so each has a test id of its own (the
report is shared, so they run once).  The last tests read those same
reports: P3-sec3's 4x4 labels and the ``verify all --format json`` lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion with its runtime, and under it each suite's first-run time.
"""

import functools
import json
import time

import pytest

from permutoria import cli, verify


# each suite's wall time on its first run, which the criterion lines print
SUITE_SECONDS: dict[str, float] = {}


@functools.cache
def suite_report(name: str) -> verify.SuiteReport:
    """Each suite runs once per session; c1 and c2 share ``intro-wilf``."""
    start = time.perf_counter()
    report = verify.run_suite(name)
    SUITE_SECONDS[name] = time.perf_counter() - start
    return report


def check_suite(name: str):
    report = suite_report(name)
    assert report.ok, f"{name}: {report.first_counterexample}"


CRITERION_SUITES: dict[int, tuple[str, ...]] = {}


def criterion(number: int, label: str, budget: float, *suites: str):
    """The test of a criterion that holds when all its suites pass within its
    budget; it prints its time and, under it, each suite's first-run time."""
    CRITERION_SUITES[number] = suites

    def test():
        start = time.perf_counter()
        status = "FAIL"
        try:
            for name in suites:
                check_suite(name)
            status = "pass"
        finally:
            elapsed = time.perf_counter() - start
            print(f"criterion {number:2d} [{status}] {label} ({elapsed:.1f}s)")
            for name in suites:
                if name in SUITE_SECONDS:
                    print(f"    {name} ({SUITE_SECONDS[name]:.1f}s on its first run)")
        assert elapsed <= budget, (
            f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"
        )

    return test


test_criterion_01_length3_catalan = criterion(
    1, "length-3 families are Catalan, n<=10", 10.0, "intro-wilf"
)
test_criterion_02_length4_classes = criterion(
    2, "length-4 class tables through n=10", 120.0, "intro-wilf"
)
test_criterion_03_fibonacci_family = criterion(
    3, "|S_n(213,4123)| by brute force and by graph walks, n<=12", 60.0, "P2-trees"
)
test_criterion_04_doubly_alternating = criterion(
    4,
    "doubly alternating families and the Dyck bijection",
    60.0,
    "P1-prop3.1",
    "P1-sec4",
    "P1-prop7.2",
    "P1-prop8.1",
)
test_criterion_05_phi = criterion(
    5, "explicit bijection onto doubly alternating avoiders, n<=5", 30.0, "P1-sec5"
)
test_criterion_06_psi = criterion(
    6, "active-region rewiring bijection, n<=10", 60.0, "P1-sec6"
)
test_criterion_07_extended_formulas = criterion(
    7, "closed formulas for extended avoidance, d+c+r<=8", 120.0, "intro-thm2.7"
)
test_criterion_08_formula_audit = criterion(
    8,
    "every displayed generating function vs brute force",
    300.0,
    "P2-formulas",
    "P2-graph-equivalences",
)
test_criterion_09_ladder_gadgets = criterion(
    9, "ladder gadget closed forms, k<=4 order 10", 30.0, "P2-lemmas2.8-2.10"
)
test_criterion_10_involution_laws = criterion(
    10,
    "involution laws over 4x4 boxes with 4 letters",
    120.0,
    "P3-sec2",
    "P3-sec3",
    "P3-sec4",
    "P3-sec5",
    "P3-figure21",
)
test_criterion_11_lr_coefficients = criterion(
    11,
    "coefficient symmetry with its witnessing bijection",
    300.0,
    "P3-lr",
    "intro-schur",
)
test_criterion_12_conjecture_reports = criterion(
    12,
    "consistency reports for the conjectured families",
    120.0,
    "P1-7.1",
    "P1-8.2",
    "P1-8.3",
)


# the suites no criterion names
UNNAMED_SUITES = ["P1-da-basics", "P2-sec3", "P2-pair-table"]


@pytest.mark.parametrize("name", UNNAMED_SUITES + list(CRITERION_SUITES[10]))
def test_suite_passes(name):
    check_suite(name)


def test_p3_sec3_states_the_4x4_laws():
    """c10's 4x4 laws are P3-sec3's: six tableau laws over the 137,861
    tableaux of ssyt_universe(4, 4, 4), and switching over the 137,861
    stacked 2+2-letter pairs in a 4x4 box."""
    rows = suite_report("P3-sec3").rows
    tableaux = [r for r in rows if r.endswith("(4x4 box, 4 letters, 137861 tableaux)")]
    pairs = [r for r in rows if r.endswith("(4x4 box, 2+2 letters, 137861 stacked pairs)")]
    assert len(tableaux) == 6 and len(pairs) == 1
    assert all(r.startswith("pass") for r in tableaux + pairs)


def test_every_suite_runs_in_tier1():
    named = {name for suites in CRITERION_SUITES.values() for name in suites}
    assert named | set(UNNAMED_SUITES) == set(verify.SUITES)


def test_verify_all_names_round_trip(monkeypatch, capsys):
    """Each ``verify all --format json`` line names the suite it ran, so the
    name works as ``verify <name>``."""

    def cached_run_suite(name, scale):
        assert scale == verify.Scale()
        return suite_report(name)

    monkeypatch.setattr(cli, "run_suite", cached_run_suite)
    assert cli.main(["verify", "all", "--format", "json"]) == 0
    names = [json.loads(line)["suite"] for line in capsys.readouterr().out.splitlines()]
    assert names == sorted(verify.SUITES)
