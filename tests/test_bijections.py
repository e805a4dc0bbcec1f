import itertools

import pytest

from permutoria import bijections as bj
from permutoria import counting as ct
from permutoria.errors import NotAvoider, NotInDomain, NotYamanouchi
from permutoria.limits import Limits
from permutoria.permcore import PatternSet, avoids_all, is_doubly_alternating, standardize

L = Limits(enumeration=11, da=14)


class TestColpair:
    def test_single_pair(self):
        t = bj.colpair_inverse((1,))
        assert t.rows == ((1, 2),)
        assert bj.colpair(t) == (1,)

    def test_worked_example(self):
        t = bj.colpair_inverse((1, 2, 1))
        assert t.rows == ((1, 2, 4), (3, 6), (5,))

    def test_round_trip_all_words(self):
        words = [
            w
            for k in range(7)
            for w in itertools.product((1, 2, 3), repeat=k)
            if bj.is_yamanouchi(w)
        ]
        assert len(words) == 89  # Motzkin-like count of three-letter ballot words
        for w in words:
            assert bj.colpair(bj.colpair_inverse(w)) == w

    def test_rejects_bad_word(self):
        with pytest.raises(NotYamanouchi):
            bj.colpair_inverse((2, 1))

    def test_bijection_onto_alternating_tableaux(self):
        # every alternating standard tableau with at most three columns and
        # 2n entries arises from exactly one fused column word of length n
        from permutoria import tableau as tb

        for n in range(1, 5):
            words = [
                w
                for w in itertools.product((1, 2, 3), repeat=n)
                if bj.is_yamanouchi(w)
            ]
            images = {bj.colpair_inverse(w).rows for w in words}
            standard = set()
            for shape in tb.partitions_of(2 * n, max_part=3):
                for t in tb.enumerate_ssyt(shape, weight=(1,) * (2 * n)):
                    if bj.is_alternating_tableau(t):
                        standard.add(t.rows)
            assert images == standard and len(images) == len(words)

    def test_column_and_row_characterizations_agree(self):
        from permutoria import tableau as tb
        from permutoria.permcore import is_alternating

        for shape in tb.partitions_of(6, max_part=3):
            for t in tb.enumerate_ssyt(shape, weight=(1,) * 6):
                by_col = bj.is_alternating_tableau(t)
                by_row = is_alternating(bj.row_word(t), "down-up")
                assert by_col == by_row


class TestPhi:
    def test_singleton(self):
        assert bj.phi((1,)) == (1, 2)

    def test_avoidance_matches_column_bound(self):
        # the insertion tableau has at most three columns exactly when the
        # permutation avoids the increasing pattern of length four
        for n in range(1, 7):
            for w in itertools.permutations(range(1, n + 1)):
                p, _ = bj.rs_pair(w)
                narrow = (p.outer[0] if p.outer else 0) <= 3
                assert narrow == avoids_all(w, PatternSet.parse("1234"))

    def test_rejects_nonavoider(self):
        with pytest.raises(NotAvoider):
            bj.phi((1, 2, 3, 4))

    def test_bijection_counts(self):
        p = PatternSet.parse("1234")
        sizes = []
        for n in range(1, 6):
            dom = list(ct.enumerate_avoiders(n, p, L))
            images = {bj.phi(w) for w in dom}
            assert images == set(ct.enumerate_da(2 * n, p, L))
            for w in dom:
                img = bj.phi(w)
                assert is_doubly_alternating(img) and avoids_all(img, p)
                assert bj.phi_inverse(img) == w
            sizes.append(len(dom))
        assert sizes == [1, 2, 6, 23, 103]


class TestTheta:
    def test_base_cases(self):
        assert bj.theta(()) == ""
        assert bj.theta((1, 2)) == "UD"
        assert bj.theta((3, 4, 1, 2)) == "UDUD"
        assert bj.theta((1, 3, 2, 4)) == "UUDD"

    def test_domain_errors(self):
        with pytest.raises(NotInDomain):
            bj.theta((2, 1))  # not doubly alternating
        with pytest.raises(NotInDomain):
            bj.theta_inverse("UDD")

    def test_bijection_onto_dyck_paths(self):
        p = PatternSet.parse("2413")
        for m in range(7):
            dom = list(ct.enumerate_da(2 * m, p, L))
            paths = set()
            for w in dom:
                path = bj.theta(w)
                assert bj.is_dyck_path(path) and len(path) == 2 * m
                assert bj.theta_inverse(path) == w
                paths.add(path)
            assert len(paths) == len(dom) == ct.catalan(m)


class TestActiveRegion:
    def test_figure_example(self):
        sigma = (1, 11, 7, 9, 5, 12, 8, 10, 3, 4, 2, 6)
        region = bj.active_region(sigma, (3, 4))
        assert region.diagram
        assert all(r % 2 == 1 and c % 2 == 1 for r, c in region.active_dots)

    def test_empty_region(self):
        region = bj.active_region((1, 3, 2, 4), (3, 4))
        assert region.diagram == () and region.placement == ()

    def test_region_depends_on_inactive_dots_only(self):
        groups = {}
        for w in ct.enumerate_da(8, PatternSet.parse("1234"), L):
            region = bj.active_region(w, (3, 4))
            inside = set(region.placement)
            key = tuple(
                sorted((i + 1, v) for i, v in enumerate(w) if (i + 1, v) not in inside)
            )
            groups.setdefault(key, set()).add(region.diagram)
        assert all(len(v) == 1 for v in groups.values())

    @staticmethod
    def region_oracle(w, tail):
        """The region read off every occurrence of 12tau and 21tau, found by
        trying every subsequence."""
        pairs = set()
        for prefix in ((1, 2), (2, 1)):
            pat = prefix + tail
            for idx in itertools.combinations(range(len(w)), len(pat)):
                if standardize([w[i] for i in idx]) == pat:
                    pairs.add(idx[:2])
        dots = {(i + 1, w[i]) for pair in pairs for i in pair}
        depth = max((i2 + 1 for _, i2 in pairs), default=0)
        diagram = tuple(
            max(max(w[i1], w[i2]) for i1, i2 in pairs if i2 >= r) for r in range(depth)
        )
        placement = tuple((r + 1, w[r]) for r in range(depth) if w[r] <= diagram[r])
        return bj.ActiveRegion(diagram, tuple(sorted(dots)), placement)

    @pytest.mark.parametrize(
        "tail, total", [((3, 4), 161), ((4, 3), 86), ((3,), 13), ((5, 3, 4), 257)]
    )
    def test_matches_occurrence_oracle(self, tail, total):
        checked = 0
        for n in range(10):
            words = set()
            for prefix in ((1, 2), (2, 1)):
                words.update(ct.enumerate_da(n, PatternSet([prefix + tail]), L))
            for w in sorted(words):
                assert bj.active_region(w, tail) == self.region_oracle(w, tail), w
            checked += len(words)
        assert checked == total


class TestPlacements:
    def test_square(self):
        assert bj.unique_monotone_placement((2, 2), (1, 2), (1, 2), "decreasing") == (
            (1, 2),
            (2, 1),
        )
        assert bj.unique_monotone_placement((2, 2), (1, 2), (1, 2), "increasing") == (
            (1, 1),
            (2, 2),
        )

    def test_empty(self):
        assert bj.unique_monotone_placement((3, 2, 1), (), (), "increasing") == ()

    def test_staircase(self):
        for direction in ("increasing", "decreasing"):
            got = bj.unique_monotone_placement((3, 2, 1), (1, 2), (1, 2), direction)
            sols = bj.placements_bruteforce((3, 2, 1), (1, 2), (1, 2), direction)
            assert sols == [got]

    def test_uniqueness_on_random_young_grids(self):
        import random

        rng = random.Random(0)
        for _ in range(60):
            length = rng.randint(1, 6)
            diagram = tuple(
                sorted((rng.randint(1, 7) for _ in range(length)), reverse=True)
            )
            k = rng.randint(1, min(3, length))
            rows = tuple(sorted(rng.sample(range(1, length + 1), k)))
            cols = tuple(sorted(rng.sample(range(1, diagram[0] + 1), k)))
            for direction in ("increasing", "decreasing"):
                sols = bj.placements_bruteforce(diagram, rows, cols, direction)
                assert len(sols) <= 1
                try:
                    got = bj.unique_monotone_placement(diagram, rows, cols, direction)
                except Exception:
                    got = None
                if sols:
                    assert got == sols[0]
                else:
                    assert got is None


class TestPsi:
    def test_fixed_point(self):
        assert bj.psi((1, 3, 2, 4), (3, 4)) == (1, 3, 2, 4)

    def test_domain(self):
        with pytest.raises(NotInDomain):
            bj.psi((1, 2, 3, 4), (3, 4))  # contains the forbidden pattern

    def test_bijection_and_fixing(self):
        p12, p21 = PatternSet.parse("1234"), PatternSet.parse("2134")
        for n in range(11):
            dom = list(ct.enumerate_da(n, p12, L))
            cod = set(ct.enumerate_da(n, p21, L))
            images = set()
            for w in dom:
                img = bj.psi(w, (3, 4))
                assert bj.psi_inverse(img, (3, 4)) == w
                region = bj.active_region(w, (3, 4))
                inside = set(region.placement)
                for i, v in enumerate(w):
                    if (i + 1, v) not in inside:
                        assert img[i] == v
                images.add(img)
            assert images == cod

    def test_other_tail(self):
        p12, p21 = PatternSet.parse("1243"), PatternSet.parse("2143")
        for n in range(9):
            dom = list(ct.enumerate_da(n, p12, L))
            images = {bj.psi(w, (4, 3)) for w in dom}
            assert images == set(ct.enumerate_da(n, p21, L))
