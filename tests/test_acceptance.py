"""The acceptance criteria, one test per criterion, exact arithmetic only.

Every criterion runs the ``permutoria verify`` suites that state its laws,
at the sizes fixed in ``verify.py``, and passes when every check in them
passes; a failure names the suite and its first counterexample.  c10 runs
four suites, then states the involution laws that no suite checks on 4x4
boxes.  ``test_suite_passes`` runs the suites that no criterion names, so
tier-1 runs every suite, and c10's suites, so each has a test id of its own
(the report is shared, so they run once).  The last test reads the
``verify all --format json`` lines of those same reports.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion with its runtime.
"""

import functools
import json
import time

import pytest

from permutoria import cli
from permutoria import involutions as iv
from permutoria import tableau as tb
from permutoria import verify
from permutoria.verify import ssyt_universe

ck = iv.content_key


class Criterion:
    def __init__(self, number: int, label: str, budget: float):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb_):
        elapsed = time.perf_counter() - self.start
        status = "pass" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} [{status}] {self.label} ({elapsed:.1f}s)")
        if exc_type is None and elapsed > self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget:.0f}s budget: {elapsed:.1f}s"
            )
        return False


@pytest.fixture(scope="module")
def ssyt_box_universe():
    return list(ssyt_universe(4, 4, 4))


@functools.cache
def suite_report(name: str) -> verify.SuiteReport:
    """Each suite runs once per session; c1 and c2 share ``intro-wilf``."""
    return verify.run_suite(name)


def check_suite(name: str):
    report = suite_report(name)
    assert report.ok, f"{name}: {report.first_counterexample}"


CRITERION_SUITES: dict[int, tuple[str, ...]] = {}


def criterion(number: int, label: str, budget: float, *suites: str):
    """The test of a criterion that holds when all its suites pass."""
    CRITERION_SUITES[number] = suites

    def test():
        with Criterion(number, label, budget):
            for name in suites:
                check_suite(name)

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


# c10 runs the suites that state its laws on 3x3 boxes and P3-figure21's
# commutation and involution checks on 4x4 boxes, then the Bender-Knuth, word
# and rotation laws and the switching squares, which no suite states on 4x4
# boxes
CRITERION_SUITES[10] = ("P3-sec2", "P3-sec4", "P3-sec5", "P3-figure21")


def test_criterion_10_involution_laws(ssyt_box_universe):
    with Criterion(10, "involution laws over 4x4 boxes with 4 letters", 120.0):
        for name in CRITERION_SUITES[10]:
            check_suite(name)
        # unary laws, exhaustive over all skew fillings; on partition shapes
        # the zm_word square is the evacuation square
        for t in ssyt_box_universe:
            for i in range(1, t.letters):
                assert iv.bender_knuth(iv.bender_knuth(t, i), i).rows == t.rows
            assert ck(tb.rotate(tb.rotate(t))) == ck(t)
            zw = iv.zm_word(t.letters)
            left = iv.apply_bk_word(t, zw)
            assert iv.apply_bk_word(left, zw).rows == t.rows
            out = iv.apply_bk_word(iv.apply_bk_word(t, iv.t_word(1, 3)), iv.t_word(3, 1))
            assert out.rows == t.rows
            right = iv.apply_bk_word(
                iv.apply_bk_word(iv.apply_bk_word(t, iv.zm_word(3)), iv.t_word(3, 1)),
                iv.zm_word(1),
            )
            assert left.rows == right.rows
            lhs = iv.apply_bk_word(t, iv.t_word(2, 2))
            rhs = iv.apply_bk_word(
                iv.apply_bk_word(t, iv.t_word(1, 2, d=1)), iv.t_word(1, 2)
            )
            assert lhs.rows == rhs.rows
        # switching squares, exhaustive stacked pairs with 2+2 letters
        shapes = tb.partitions_in_box(4, 4)
        for nu in shapes:
            for mu in shapes:
                if not tb.contains(nu, mu):
                    continue
                for lam in shapes:
                    if not tb.contains(lam, nu):
                        continue
                    ss = list(
                        tb.enumerate_ssyt(nu, mu, max_letter=2, box1=(4, 4), box2=(2, 4))
                    )
                    ts = list(
                        tb.enumerate_ssyt(lam, nu, max_letter=2, box1=(4, 4), box2=(2, 4))
                    )
                    for s in ss:
                        for t in ts:
                            if s.size() == 0 and t.size() == 0:
                                continue
                            a = iv.tableau_switch(s, t)
                            back = iv.tableau_switch(*a)
                            assert ck(back[0]) == ck(s) and ck(back[1]) == ck(t)


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
UNNAMED_SUITES = ["P1-da-basics", "P2-sec3", "P2-pair-table", "P3-sec3"]


@pytest.mark.parametrize("name", UNNAMED_SUITES + list(CRITERION_SUITES[10]))
def test_suite_passes(name):
    check_suite(name)


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
