import doctest
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutoria import formulas as fm
from permutoria import permcore as pc
from permutoria.errors import ZeroObject


def perms(n):
    return itertools.permutations(range(1, n + 1))


small_perm = st.integers(1, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)
sized_perm = st.integers(1, 9).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)
short_pattern = st.integers(1, 4).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)
word_with_repeats = st.lists(st.integers(1, 5), max_size=7).map(tuple)


class TestContainment:
    def test_figure_example(self):
        sigma = (7, 9, 3, 8, 1, 10, 5, 6, 2, 4)
        assert pc.contains_pattern(sigma, (3, 2, 1, 4))
        assert not pc.contains_pattern(sigma, (1, 2, 3, 4))

    def test_self_containment(self):
        for n in range(1, 5):
            for w in perms(n):
                assert pc.contains_pattern(w, w)

    def test_identity_avoids_descent_pattern(self):
        assert not pc.contains_pattern((1, 2, 3, 4, 5), (3, 2, 1))

    def test_matches_bruteforce_oracle(self):
        patterns = [(1, 2, 3), (2, 1, 3), (2, 4, 1, 3), (1, 3, 2, 4)]
        for n in range(7):
            for w in perms(n):
                for p in patterns:
                    assert pc.contains_pattern(w, p) == pc.contains_pattern_bruteforce(w, p)

    @settings(max_examples=150, deadline=None)
    @given(small_perm, small_perm)
    def test_matches_bruteforce_random(self, w, p):
        assert pc.contains_pattern(w, p) == pc.contains_pattern_bruteforce(w, p)

    @settings(max_examples=200, deadline=None)
    @given(sized_perm, short_pattern)
    def test_matches_bruteforce_up_to_nine(self, w, p):
        assert pc.contains_pattern(w, p) == pc.contains_pattern_bruteforce(w, p)

    def test_tied_values_form_no_occurrence(self):
        for p in ((1, 2), (2, 1)):
            assert not pc.contains_pattern((1, 1), p)
            assert not pc.contains_pattern_bruteforce((1, 1), p)

    @settings(max_examples=300, deadline=None)
    @given(word_with_repeats, short_pattern)
    def test_matches_bruteforce_with_repeats(self, w, p):
        assert pc.contains_pattern(w, p) == pc.contains_pattern_bruteforce(w, p)

    def test_avoids_all(self):
        ps = pc.PatternSet.parse("2413,3142")
        assert not pc.avoids_all((2, 4, 1, 3), ps)
        assert pc.avoids_all((1, 3, 2, 4), pc.PatternSet.parse("1234,2134"))
        assert pc.avoids_all((), ps)


class TestPatternSet:
    def test_normalization_drops_containing_patterns(self):
        ps = pc.PatternSet.parse("123,1243")
        assert ps.patterns == ((1, 2, 3),)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pc.PatternSet([])

    def test_str_round_trip(self):
        ps = pc.PatternSet.parse("2413,3142")
        assert pc.PatternSet.parse(str(ps)) == ps


class TestSymmetries:
    def test_examples(self):
        assert pc.symmetry((1, 3, 4, 2), "reverse") == (2, 4, 3, 1)
        assert pc.symmetry((1, 3, 4, 2), "complement") == (4, 2, 1, 3)
        assert pc.symmetry((1, 3, 4, 2), "rotate180") == (3, 1, 2, 4)
        assert pc.inverse((3, 4, 1, 2)) == (3, 4, 1, 2)

    def test_identity_fixed_points(self):
        ident = (1, 2, 3, 4)
        assert pc.symmetry(ident, "inverse") == ident
        assert pc.symmetry(ident, "rotate180") == ident
        assert pc.symmetry(ident, "reverse") == (4, 3, 2, 1)

    @settings(max_examples=100, deadline=None)
    @given(small_perm)
    def test_involutions(self, w):
        for op in ("reverse", "complement", "inverse", "rotate180"):
            assert pc.symmetry(pc.symmetry(w, op), op) == w
        assert pc.symmetry(w, "rotate180") == pc.symmetry(
            pc.symmetry(w, "reverse"), "complement"
        )
        assert pc.symmetry(w, "rotate180") == pc.symmetry(
            pc.symmetry(w, "complement"), "reverse"
        )


class TestAlternating:
    def test_known_word(self):
        assert pc.is_alternating((2, 7, 4, 8, 3, 6, 1, 5))

    def test_tiny(self):
        assert pc.is_alternating((1, 2))
        assert not pc.is_alternating((2, 1))
        assert pc.is_alternating((2, 1), "down-up")

    def test_signature_example(self):
        assert "".join(pc.signature((4, 1, 5, 5, 6, 2, 2))) == "-+-+--"

    def test_gaps_remove_comparisons(self):
        # (3, _, _, 2, 6, 5): only the 2<6 and 6>5 comparisons exist
        word = (3, None, None, 2, 6, 5)
        assert pc.is_alternating(word, "down-up")

    def test_doubly_alternating(self):
        assert pc.is_doubly_alternating((7, 9, 3, 8, 1, 10, 5, 6, 2, 4))
        assert pc.is_doubly_alternating((1, 2))
        assert pc.is_doubly_alternating((1, 3, 2))
        assert not pc.is_doubly_alternating((2, 7, 4, 8, 3, 6, 1, 5))
        assert pc.is_doubly_alternating(())

    def test_unique_small_da(self):
        assert [w for w in perms(2) if pc.is_doubly_alternating(w)] == [(1, 2)]
        assert [w for w in perms(3) if pc.is_doubly_alternating(w)] == [(1, 3, 2)]


class TestBaxter:
    def test_examples(self):
        assert pc.is_baxter((1, 2, 3, 4, 5))
        assert not pc.is_baxter((2, 4, 1, 3))
        assert not pc.is_baxter((3, 1, 4, 2))

    def test_da6_baxter_equals_2413_avoiders(self):
        da6 = [w for w in perms(6) if pc.is_doubly_alternating(w)]
        baxter = {w for w in da6 if pc.is_baxter(w)}
        avoiders = {w for w in da6 if not pc.contains_pattern(w, (2, 4, 1, 3))}
        assert baxter == avoiders and len(baxter) == 5


class TestPartialPermutation:
    def test_text_round_trip(self):
        pp = pc.PartialPermutation.from_text("3,_,_,2,6,5|6")
        assert (pp.d, pp.c, pp.r) == (4, 2, 2)
        assert pp.to_text() == "3,_,_,2,6,5|6"
        full = pc.PartialPermutation.from_permutation((4, 1, 5, 2, 3))
        assert full.to_text() == "4,1,5,2,3"
        assert pc.PartialPermutation.from_text(full.to_text()) == full

    def test_json_round_trip(self):
        pp = pc.PartialPermutation.from_text("3,_,_,2,6,5|6")
        assert pc.PartialPermutation.from_json(pp.to_json()) == pp

    def test_distinct_empty_shapes(self):
        row = pc.PartialPermutation(1, 0)
        col = pc.PartialPermutation(0, 1)
        assert row != col

    def test_rejects_shared_lines(self):
        with pytest.raises(ValueError):
            pc.PartialPermutation(2, 2, ((1, 1), (1, 2)))


def partial_permutations(max_size):
    """Every partial permutation with d + c + r <= max_size."""
    for rows in range(max_size + 1):
        for cols in range(max_size + 1):
            for d in range(max(0, rows + cols - max_size), min(rows, cols) + 1):
                for dot_rows in itertools.combinations(range(1, rows + 1), d):
                    for dot_cols in itertools.permutations(range(1, cols + 1), d):
                        yield pc.PartialPermutation(rows, cols, tuple(zip(dot_rows, dot_cols)))


class TestExtendability:
    def test_worked_example(self):
        pp = pc.PartialPermutation.from_text("3,_,_,2,6,5|6")
        assert pc.extendably_avoids(pp, pc.PatternSet.parse("123"))

    def test_dotless_always_extendable(self):
        ps = pc.PatternSet.parse("321")
        for rows in range(3):
            for cols in range(3):
                assert pc.extendably_avoids(pc.PartialPermutation(rows, cols), ps)

    def test_containment_blocks_extension(self):
        pp = pc.PartialPermutation.from_permutation((1, 2, 3))
        assert not pc.extendably_avoids(pp, pc.PatternSet.parse("123"))

    def test_extension_witness_is_avoider(self):
        ps = pc.PatternSet.parse("123")
        pp = pc.PartialPermutation.from_text("3,_,_,2,6,5|6")
        witness = next(pc.extensions(pp, ps))
        assert pc.avoids_all(witness, ps)
        assert witness[:1] == (3,) and witness[3:6] == (2, 6, 5)

    @staticmethod
    def has_nw_corner(w, pp):
        by_row = dict(pp.dots)
        return all(
            w[i - 1] == by_row[i] if i in by_row else w[i - 1] > pp.cols
            for i in range(1, pp.rows + 1)
        ) and all(w.index(c) >= pp.rows for c in pp.empty_cols())

    def test_extensions_match_bruteforce(self):
        objects = list(partial_permutations(4))
        assert len(objects) == len(set(objects)) == 184
        for text in ("123", "2413", "213,4123"):
            ps = pc.PatternSet.parse(text)
            for pp in objects:
                expect = {
                    w
                    for w in perms(pp.size)
                    if self.has_nw_corner(w, pp)
                    and not any(pc.contains_pattern_bruteforce(w, p) for p in ps)
                }
                got = list(pc.extensions(pp, ps))
                assert len(got) == len(expect) and set(got) == expect, (pp, text)

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.lists(short_pattern, min_size=1, max_size=3))
    def test_extensions_match_bruteforce_list_random(self, data, patterns):
        ps = pc.PatternSet(patterns)
        rows = data.draw(st.integers(0, 6))
        cols = data.draw(st.integers(0, 7 - rows))
        d = data.draw(st.integers(0, min(rows, cols)))
        dot_rows = data.draw(st.permutations(range(1, rows + 1)))[:d]
        dot_cols = data.draw(st.permutations(range(1, cols + 1)))[:d]
        pp = pc.PartialPermutation(rows, cols, tuple(zip(dot_rows, dot_cols)))
        expect = [
            w
            for w in perms(pp.size)
            if self.has_nw_corner(w, pp)
            and not any(pc.contains_pattern_bruteforce(w, p) for p in ps)
        ]
        assert list(pc.extensions(pp, ps)) == expect, (pp, ps)


class TestParentChildren:
    def test_standard_parent(self):
        pp = pc.PartialPermutation.from_permutation((4, 1, 5, 2, 3))
        parent = pc.parent(pp, "standard")
        assert parent == pc.PartialPermutation.from_permutation((4, 1, 2, 3))

    def test_zero_has_no_parent(self):
        with pytest.raises(ZeroObject):
            pc.parent(pc.ZERO, "standard-extended")

    def test_single_row_parent(self):
        pp = pc.PartialPermutation(1, 0)
        assert pc.parent(pp, "standard-extended") == pc.ZERO

    def test_empty_column_parent(self):
        pp = pc.PartialPermutation(1, 2, ((1, 1),))
        parent = pc.parent(pp, "standard-extended")
        assert parent == pc.PartialPermutation(1, 1, ((1, 1),))

    def test_zero_children_standard(self):
        ps = pc.PatternSet.parse("123")
        kids = pc.children(pc.ZERO, "standard", ps)
        assert kids == [pc.PartialPermutation.from_permutation((1,))]

    @pytest.mark.parametrize("rule", ["standard-extended", "alt-extended"])
    def test_parent_child_inverse(self, rule):
        ps = pc.PatternSet.parse("132")
        frontier = [pc.ZERO]
        for _ in range(3):
            nxt = []
            for pp in frontier:
                kids = pc.children(pp, rule, ps)
                assert len(set(kids)) == len(kids)
                for child in kids:
                    assert pc.parent(child, rule) == pp
                    assert pc.extendably_avoids(child, ps)
                nxt.extend(kids)
            frontier = nxt

    def test_child_order_is_canonical(self):
        ps = pc.PatternSet.parse("321")
        pp = pc.PartialPermutation.from_permutation((1, 2))
        kinds = [k for k, _ in pc.children_with_kinds(pp, "standard-extended", ps)]
        assert kinds == sorted(kinds, key=["dot", "column", "row"].index)


def _children_by_search(pp, rule, patterns):
    """The children under an extended rule, one extendability search each,
    built through the validating constructor."""

    def shifted(site):
        return tuple((r + (r >= site), c) for r, c in pp.dots)

    out = []
    empties = pp.empty_rows()
    if not empties:
        for site in range(1, pp.rows + 2):
            child = pc.PartialPermutation(
                pp.rows + 1, pp.cols + 1, shifted(site) + ((site, pp.cols + 1),)
            )
            if pc.extendably_avoids(child, patterns):
                out.append(("dot", child))
        child = pc.PartialPermutation(pp.rows, pp.cols + 1, pp.dots)
        if pc.extendably_avoids(child, patterns):
            out.append(("column", child))
    if rule == "standard-extended":
        low = max(empties) + 1 if empties else 1
        sites = range(low, pp.rows + 2)
    else:
        high = min(empties) if empties else pp.rows + 1
        sites = range(1, high + 1)
    for site in sites:
        child = pc.PartialPermutation(pp.rows + 1, pp.cols, shifted(site))
        if pc.extendably_avoids(child, patterns):
            out.append(("row", child))
    return tuple(out)


ORACLE_SETS = sorted(
    {*fm.FORMULAS}
    | {ps for a, _, b, _ in fm.GRAPH_EQUIVALENT for ps in (a, b)}
    | {pc.PatternSet.parse(text) for text in ("1", "12", "1324", "2413,3142")},
    key=str,
)
EXTENDED_RULES = ("standard-extended", "alt-extended")


def assert_children_match_search(pp, rule, patterns):
    got = pc.children_with_kinds(pp, rule, patterns)
    assert got == _children_by_search(pp, rule, patterns), (pp, rule, str(patterns))
    for _, child in got:
        # the trusted constructor builds exactly what validation accepts
        checked = pc.PartialPermutation(child.rows, child.cols, child.dots)
        assert checked == child and hash(checked) == hash(child)


class TestChildrenFromExtensions:
    """children_with_kinds decides children on the parent's extensions;
    the search per child is its oracle."""

    def test_matches_search_up_to_five(self):
        objects = list(partial_permutations(5))
        compared = 0
        for ps in ORACLE_SETS:
            for pp in objects:
                if not pc.extendably_avoids(pp, ps):
                    continue
                for rule in EXTENDED_RULES:
                    assert_children_match_search(pp, rule, ps)
                    compared += 1
        assert len(ORACLE_SETS) >= 59 and compared > 30000

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(ORACLE_SETS), st.sampled_from(EXTENDED_RULES))
    def test_matches_search_at_six_and_seven(self, data, ps, rule):
        size = data.draw(st.integers(6, 7))
        d = data.draw(st.integers(0, size))
        c = data.draw(st.integers(0, size - d))
        rows, cols = size - c, d + c
        dot_rows = sorted(data.draw(st.permutations(range(1, rows + 1)))[:d])
        dot_cols = data.draw(st.permutations(range(1, cols + 1)))[:d]
        pp = pc.PartialPermutation(rows, cols, tuple(zip(dot_rows, dot_cols)))
        assert_children_match_search(pp, rule, ps)


def test_docstring_examples():
    result = doctest.testmod(pc)
    assert result.attempted > 0 and result.failed == 0
