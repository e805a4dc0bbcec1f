import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permutoria import counting as ct
from permutoria import formulas as fm
from permutoria.errors import LimitExceeded
from permutoria.limits import Limits
from permutoria.permcore import (
    PartialPermutation,
    PatternSet,
    contains_pattern_bruteforce,
    extendably_avoids,
    is_doubly_alternating,
)

L = Limits(enumeration=11, da=14, extended=10)


def brute_avoids(w, ps):
    """Avoidance by the exhaustive oracle, independent of the kernels' matcher."""
    return not any(contains_pattern_bruteforce(w, p) for p in ps)


class TestEnumerate:
    def test_matches_filtering_oracle(self):
        for pat in ("123", "2413", "213,4123"):
            ps = PatternSet.parse(pat)
            for n in range(7):
                got = list(ct.enumerate_avoiders(n, ps, L))
                expect = [
                    w
                    for w in itertools.permutations(range(1, n + 1))
                    if brute_avoids(w, ps)
                ]
                assert got == expect  # same set, lexicographic order

    def test_size_zero(self):
        assert list(ct.enumerate_avoiders(0, PatternSet.parse("123"), L)) == [()]

    def test_known_counts(self):
        assert len(list(ct.enumerate_avoiders(4, PatternSet.parse("123"), L))) == 14
        assert len(list(ct.enumerate_avoiders(5, PatternSet.parse("1234"), L))) == 103

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            ct.count_avoiders(12, PatternSet.parse("123"), L)


class TestCounts:
    def test_length4_values(self):
        # the published tables list values from n = 0
        assert ct.count_avoiders(7, PatternSet.parse("1234"), L) == 2761
        assert ct.count_avoiders(7, PatternSet.parse("1324"), L) == 2762
        assert ct.count_avoiders(7, PatternSet.parse("1342"), L) == 2740
        assert ct.count_avoiders(8, PatternSet.parse("1234"), L) == 15767
        assert ct.count_avoiders(8, PatternSet.parse("1324"), L) == 15793
        assert ct.count_avoiders(8, PatternSet.parse("1342"), L) == 15485

    def test_wilf_pair(self):
        for n in range(8):
            assert ct.count_avoiders(n, PatternSet.parse("1342"), L) == ct.count_avoiders(
                n, PatternSet.parse("2413"), L
            )

    def test_fibonacci_family(self):
        # the family's own generating function gives the odd-indexed values
        for n in range(9):
            assert ct.count_avoiders(n, PatternSet.parse("213,4123"), L) == (
                ct.fibonacci(2 * n - 1) if n else 1
            )


class TestDoublyAlternating:
    def test_da_matches_filter(self):
        for n in range(8):
            got = list(ct.enumerate_da(n, None, L))
            expect = [
                w
                for w in itertools.permutations(range(1, n + 1))
                if is_doubly_alternating(w)
            ]
            assert got == expect

    def test_da_sequence(self):
        assert [ct.count_da(n, None, L) for n in range(1, 9)] == [1, 1, 1, 2, 3, 8, 19, 64]

    def test_da_sequence_continues(self):
        # the printed source sequence omits the n=9 value
        assert [ct.count_da(n, None, L) for n in range(9, 13)] == [213, 880, 3717, 18288]

    def test_da_pattern_examples(self):
        assert ct.count_da(4, PatternSet.parse("321"), L) == 2
        assert ct.count_da(5, PatternSet.parse("321"), L) == 1
        assert ct.count_da(10, PatternSet.parse("2413"), L) == ct.catalan(5)


class TestExtended:
    def test_cells(self):
        assert ct.count_extended(1, 1, 0, PatternSet.parse("123"), L) == 2
        assert ct.count_extended(1, 1, 0, PatternSet.parse("132"), L) == 2

    def test_dotless_cells(self):
        for pat in ("123", "321", "2413"):
            for c in range(3):
                for r in range(3):
                    assert ct.count_extended(0, c, r, PatternSet.parse(pat), L) == 1

    def test_table_agrees_with_single_cells(self):
        ps = PatternSet.parse("132")
        table = ct.extended_table(ps, 5, L)
        for (d, c, r), value in table.items():
            assert value == ct.count_extended(d, c, r, ps, L)

    @pytest.mark.parametrize("pat", ["123", "2413,3142"])
    def test_objects_sorted_by_dots(self, pat):
        ps = PatternSet.parse(pat)
        for d, c, r in [(1, 2, 2), (2, 2, 1), (2, 1, 3), (3, 2, 2)]:
            dots = [pp.dots for pp in ct.enumerate_extended(d, c, r, ps, L)]
            assert dots == sorted(set(dots)), (pat, (d, c, r))

    def test_extended_objects_are_extendable(self):
        from permutoria.permcore import extendably_avoids

        ps = PatternSet.parse("123")
        for pp in ct.enumerate_extended(2, 1, 1, ps, L):
            assert (pp.d, pp.c, pp.r) == (2, 1, 1)
            assert extendably_avoids(pp, ps)

    def test_transpose_symmetry(self):
        ps = PatternSet.parse("213,4123")
        table = ct.extended_table(ps, 6, L)
        inv = ct.extended_table(ps.inverse(), 6, L)
        for (d, c, r), value in table.items():
            assert inv.get((d, r, c), 0) == value


ORACLE_TOTAL = 5
ORACLE_SETS = list(
    dict.fromkeys([*fm.FORMULAS, *(ps for group in fm.PAIR_TABLE_GROUPS.values() for ps in group)])
)


def extendable_objects(d, c, r, ps):
    """Every (d+r) x (d+c) partial permutation with d dots that
    ``extendably_avoids`` keeps, sorted by dots: no avoider is enumerated."""
    rows, cols = d + r, d + c
    kept = []
    for dot_rows in itertools.combinations(range(1, rows + 1), d):
        for dot_cols in itertools.permutations(range(1, cols + 1), d):
            pp = PartialPermutation(rows, cols, tuple(zip(dot_rows, dot_cols)))
            if extendably_avoids(pp, ps):
                kept.append(pp)
    return sorted(kept, key=lambda pp: pp.dots)


def check_against_oracle(ps):
    table = ct.extended_table(ps, ORACLE_TOTAL, L)
    for total in range(ORACLE_TOTAL + 1):
        for d in range(total + 1):
            for c in range(total - d + 1):
                r = total - d - c
                want = extendable_objects(d, c, r, ps)
                got = ct.enumerate_extended(d, c, r, ps, L)
                assert got == want, (str(ps), (d, c, r))
                assert table.get((d, c, r), 0) == len(want), (str(ps), (d, c, r))
                assert ct.count_extended(d, c, r, ps, L) == len(want), (str(ps), (d, c, r))


class TestExtendedOracle:
    """Extended counts and objects against ``extendably_avoids`` on every
    partial permutation of each cell with d+c+r <= ORACLE_TOTAL, the cell
    (0, 0, 0) of n = 0 included."""

    @pytest.mark.parametrize("ps", ORACLE_SETS, ids=str)
    def test_catalog_and_pair_table_sets(self, ps):
        check_against_oracle(ps)

    @pytest.mark.parametrize("text", ["1", "12,21"])
    def test_sets_whose_avoiders_run_out(self, text):
        # S_n(1) is empty from n = 1 on, and S_n(12, 21) from n = 2 on
        check_against_oracle(PatternSet.parse(text))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.integers(1, 4).flatmap(lambda k: st.permutations(range(1, k + 1))),
            min_size=1,
            max_size=3,
        )
    )
    @example([(1,), (2, 1, 3)])
    def test_sampled_sets(self, patterns):
        check_against_oracle(PatternSet(patterns))


class TestSequences:
    def test_catalan(self):
        assert [ct.catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_fibonacci(self):
        assert [ct.fibonacci(n) for n in range(1, 13)] == [
            1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144,
        ]
        assert ct.fibonacci(0) == 0 and ct.fibonacci(-2) == 0

    def test_euler_matches_bruteforce(self):
        for n in range(1, 9):
            assert ct.euler_zigzag(n) == ct.alternating_count_bruteforce(n)

    def test_catalan_fourth_difference_forms_agree(self):
        for n in range(12):
            assert ct.catalan_fourth_difference(n) == ct.catalan_fourth_difference_product(n)

    def test_sequence_dispatch(self):
        assert ct.sequence("catalan", 5) == 42
        assert ct.sequence("fibonacci", 12) == 144
        assert ct.sequence("euler", 6) == 61
        assert ct.sequence("catalan-diff-4", 0) == 3


class TestLimitsEnv:
    def test_env_override(self, monkeypatch):
        from permutoria import limits as lm

        monkeypatch.setenv("PERMUTORIA_LIMITS", "enumeration=13, da=16")
        parsed = lm._from_env()
        assert parsed.enumeration == 13 and parsed.da == 16
        assert parsed.extended == lm.Limits().extended

    def test_env_ignores_unknown_keys(self, monkeypatch):
        from permutoria import limits as lm

        monkeypatch.setenv("PERMUTORIA_LIMITS", "bogus=1,enumeration=9")
        with pytest.warns(UserWarning, match="ignoring 'bogus=1': unknown key"):
            assert lm._from_env().enumeration == 9

    def test_env_skips_non_integer(self, monkeypatch):
        from permutoria import limits as lm

        monkeypatch.setenv("PERMUTORIA_LIMITS", "enumeration=abc,da=9")
        with pytest.warns(UserWarning) as caught:
            parsed = lm._from_env()
        assert parsed.enumeration == lm.Limits().enumeration and parsed.da == 9
        assert len(caught) == 1 and "enumeration=abc" in str(caught[0].message)

    def test_env_skips_negative(self, monkeypatch):
        from permutoria import limits as lm

        monkeypatch.setenv("PERMUTORIA_LIMITS", "extended=-5,da=9")
        with pytest.warns(UserWarning) as caught:
            parsed = lm._from_env()
        assert parsed.extended == lm.Limits().extended and parsed.da == 9
        assert len(caught) == 1
        assert str(caught[0].message) == "PERMUTORIA_LIMITS: ignoring 'extended=-5': negative"


class TestConjectures:
    def test_reports_have_rows_and_never_raise(self):
        for name in ("P1-7.1", "P1-8.2", "P1-8.3"):
            report = ct.conjecture_report(name, 8, L)
            assert report.rows
            assert all(isinstance(r.match, bool) for r in report.rows)

    def test_small_values_match(self):
        report = ct.conjecture_report("P1-8.2", 8, L)
        assert report.all_match
        report = ct.conjecture_report("P1-8.3", 8, L)
        assert report.all_match

    @pytest.mark.parametrize(
        "name, tail",
        [
            ("P1-8.2", (136, 233, 356, 610)),  # F_{n-1} - F_{n-7} at odd n, F_{n-1} at even n
            ("P1-8.3", (352, 429, 1230, 1430)),  # fourth differences of Catalan, C_{n/2}
        ],
    )
    def test_closed_forms_to_sixteen(self, name, tail):
        report = ct.conjecture_report(name, 16, Limits(da=16))
        rows = report.rows[12:]
        assert [row.n for row in rows] == [13, 14, 15, 16]
        assert [row.observed for row in rows] == [row.predicted for row in rows] == list(tail)
        assert report.all_match
