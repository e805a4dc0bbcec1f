import itertools

import pytest

from permutoria import tableau as tb
from permutoria.errors import NotATableau, NotDominant
from permutoria.verify import lr_universe, ssyt_universe


class TestPartitions:
    def test_complement(self):
        assert tb.complement_in_box((2, 1), 3, 3) == (3, 2, 1)
        assert tb.complement_in_box((), 2, 2) == (2, 2)
        with pytest.raises(ValueError):
            tb.complement_in_box((4,), 2, 3)

    def test_partitions_in_box(self):
        assert len(tb.partitions_in_box(2, 2)) == 6  # (), 1, 11, 2, 21, 22

    def test_partitions_of(self):
        assert len(tb.partitions_of(5)) == 7
        assert tb.partitions_of(3, max_len=2) == [(3,), (2, 1)]


class TestTableauBasics:
    def test_validation(self):
        with pytest.raises(NotATableau):
            tb.make_tableau([[2, 1]])  # row decreasing
        with pytest.raises(NotATableau):
            tb.make_tableau([[1, 1], [1]])  # column not strict

    def test_reading_word(self):
        t = tb.make_tableau([[1], [1, 2], [1, 2, 3], [2, 4]], inner=(2, 1))
        assert "".join(map(str, tb.reading_word(t))) == "12132142"
        assert tb.reading_word(tb.EMPTY) == ()
        assert tb.reading_word(tb.make_tableau([[1, 1, 2]])) == (2, 1, 1)

    def test_yamanouchi(self):
        assert tb.is_yamanouchi((1, 2, 1, 3, 2, 1, 4, 2))
        assert not tb.is_yamanouchi((2, 1))

    def test_lr_figure_shape_and_weight(self):
        t = tb.make_tableau(
            [[1, 1], [1, 1, 1, 2], [2, 3], [2, 4]], inner=(4, 1, 1), box2=(4, 5)
        )
        assert (t.outer, t.inner) == ((6, 5, 3, 2), (4, 1, 1))
        assert t.weight() == (5, 3, 1, 1)
        assert tb.is_lr(t)
        # every filling of this shape and weight is found by the enumerator
        fillings = list(tb.enumerate_lr((6, 5, 3, 2), (4, 1, 1), (5, 3, 1, 1)))
        assert t.rows in {f.rows for f in fillings}

    def test_first_row_of_lr_is_ones(self):
        for t in tb.enumerate_lr((4, 3, 1), (2, 1), (3, 2)):
            assert set(t.rows[0]) <= {1}

    def test_weight_of_word_equals_weight(self):
        for t in tb.enumerate_ssyt((3, 2), (1,), max_letter=3, box2=(3, 4)):
            assert tb.word_weight(tb.reading_word(t), 3) == t.weight()


class TestRecording:
    def test_round_trip(self):
        for t in tb.enumerate_ssyt((3, 2, 1), (1,), max_letter=3, box2=(3, 5)):
            m = tb.recording_matrix(t)
            back = tb.tableau_from_recording(t.outer, t.inner, m, t.box1, t.box2)
            assert back == t

    def test_lr_recording_lower_triangular(self):
        for t in tb.enumerate_lr((3, 2, 1), (1, 1), (2, 1, 1)):
            m = tb.recording_matrix(t)
            for i in range(len(m)):
                for j in range(i + 1, len(m[i])):
                    assert m[i][j] == 0

    def test_partition_recording_upper_triangular(self):
        for t in tb.enumerate_ssyt((3, 2), max_letter=3, box2=(3, 4)):
            m = tb.recording_matrix(t)
            for i in range(len(m)):
                for j in range(min(i, len(m[i]))):
                    assert m[i][j] == 0

    def test_invalid_fill_raises(self):
        with pytest.raises(NotATableau):
            tb.tableau_from_recording((2, 2), (), ((0, 2), (2, 0)), (2, 2), (2, 2))


class TestCompanion:
    def test_companion_figure(self):
        t1 = tb.make_tableau([[1, 2], [1, 2, 3], [3, 3], [2, 4, 4]], inner=(2, 1, 1), box2=(4, 4))
        assert tb.recording_matrix(t1)[0] == (1, 1, 0, 0)
        nu, kap = (4, 4, 3, 2), (2, 1)
        assert tb.is_dominant(t1, nu, kap)
        t2 = tb.companion(t1, nu, kap)
        assert tb.recording_matrix(t2) == tb.transpose_matrix(tb.recording_matrix(t1))
        back = tb.companion(t2, t1.outer, t1.inner)
        assert (back.outer, back.inner, back.rows) == (t1.outer, t1.inner, t1.rows)

    def test_not_dominant(self):
        t = tb.make_tableau([[1, 2]], box2=(2, 2))
        with pytest.raises(NotDominant):
            tb.companion(t, (2,))  # weight (1,1) incompatible with (2)/()

    def test_canonical_self_companion(self):
        can = tb.canonical((3, 2))
        twin = tb.companion(can, (3, 2))
        assert (twin.outer, twin.rows) == (can.outer, can.rows)


class TestRotation:
    def test_rotation_figure(self):
        t = tb.make_tableau([[1, 2], [1, 2, 3], [3, 3], [2, 4, 4]], inner=(2, 1, 1), box2=(4, 4))
        rot = tb.rotate(t)
        assert tb.recording_matrix(rot)[0] == (2, 0, 1, 0)
        assert tb.rotate(rot) == t

    def test_matches_recording_route(self):
        # the recording-matrix route is the oracle: complement the shapes,
        # rotate the matrix and refill through the validating constructor
        universe = [*ssyt_universe(3, 3, 3), *lr_universe(3, 3, 3)]
        for t in [*universe, *map(tb.rotate, universe), tb.EMPTY]:
            r1, c1 = t.box1
            m = tb.recording_matrix(t)
            expected = tb.tableau_from_recording(
                tb.complement_in_box(t.inner, r1, c1),
                tb.complement_in_box(t.outer, r1, c1),
                tuple(tuple(reversed(row)) for row in reversed(m)),
                t.box1,
                t.box2,
                tb.FLIP_ORIENTATION[t.orientation],
            )
            assert tb.rotate(t) == expected

    def test_fixed_boxes_make_rotation_involutive(self):
        t = tb.make_tableau([[], [2], [2, 3]], inner=(3, 2, 1), box1=(3, 3), box2=(3, 2))
        assert tb.rotate(tb.rotate(t)) == t

    def test_reboxing_after_rotation_loses_the_shape(self):
        # dropping the fixed box between the two rotations changes the shape,
        # which is exactly why both boxes are pinned at construction
        t = tb.make_tableau([[], [2], [2, 3]], inner=(3, 2, 1), box1=(3, 3), box2=(3, 2))
        r = tb.rotate(t)
        reboxed = tb.make_tableau(r.rows, r.inner, box2=r.box2)
        again = tb.rotate(reboxed)
        assert (again.outer, again.inner) != (t.outer, t.inner)


class TestCanonical:
    def test_small(self):
        assert tb.canonical((2, 1)).rows == ((1, 1), (2,))

    def test_family_distinct(self):
        from permutoria.involutions import schuetzenberger

        lam = (5, 4, 3, 1)
        can = tb.canonical(lam, box1=(4, 5), box2=(4, 5))
        members = {
            can.rows,
            tb.rotate(can).rows,
            schuetzenberger(can).rows,
            tb.rotate(schuetzenberger(can)).rows,
        }
        assert len(members) == 4

    def test_rectangle_fixed(self):
        from permutoria.involutions import schuetzenberger

        rect = tb.canonical((2, 2))
        assert schuetzenberger(rect).rows == rect.rows
        assert tb.rotate(rect).rows == rect.rows


class TestEnumeration:
    def test_lr_counts(self):
        assert sum(1 for _ in tb.enumerate_lr((2, 1), (1,), (1, 1))) == 1
        assert sum(1 for _ in tb.enumerate_lr((3, 2, 1), (2, 1), (2, 1))) == 2
        assert sum(1 for _ in tb.enumerate_lr((2, 2), (2, 2), ())) == 1

    def test_lr_enumeration_is_lr(self):
        for t in tb.enumerate_lr((4, 2, 1), (2,), (3, 1, 1)):
            assert tb.is_lr(t) and t.weight() == (3, 1, 1)

    def test_ssyt_count_matches_schur_dimension(self):
        # number of fillings with at most 3 letters of the staircase (2,1)
        assert sum(1 for _ in tb.enumerate_ssyt((2, 1), max_letter=3)) == 8

    def test_fixed_weight(self):
        fillings = list(tb.enumerate_ssyt((2, 2), weight=(2, 2)))
        assert len(fillings) == 1 and fillings[0].rows == ((1, 1), (2, 2))

    def test_universe_sizes(self):
        assert sum(1 for _ in ssyt_universe(4, 4, 4)) == 137861
        assert sum(1 for _ in lr_universe(4, 4, 4)) == 3593

    def test_outputs_pass_the_validating_constructor(self):
        for t in [*ssyt_universe(3, 3, 3), *lr_universe(3, 3, 3)]:
            again = tb.SkewTableau(t.outer, t.inner, t.rows, t.box1, t.box2, t.orientation)
            assert again == t

    @staticmethod
    def brute_force(outer, inner, letters, cap=None):
        """Every filling by letters 1..letters in lexicographic order, kept
        when the validating constructor accepts it and no letter occurs more
        often than cap allows."""
        pad = inner + (0,) * (len(outer) - len(inner))
        lengths = [o - p for o, p in zip(outer, pad)]
        out = []
        for flat in itertools.product(range(1, letters + 1), repeat=sum(lengths)):
            it = iter(flat)
            rows = tuple(tuple(itertools.islice(it, n)) for n in lengths)
            try:
                t = tb.SkewTableau(outer, inner, rows, (3, 3), (letters, 9))
            except NotATableau:
                continue
            if cap is None or all(a <= b for a, b in zip(t.weight(), cap)):
                out.append(t)
        return out

    def test_matches_brute_force(self):
        shapes = tb.partitions_in_box(3, 3)
        pairs = [
            (lam, mu)
            for lam in shapes
            for mu in shapes
            if tb.contains(lam, mu) and sum(lam) - sum(mu) <= 5
        ]
        for lam, mu in pairs:
            for letters in (1, 2, 3):
                got = list(tb.enumerate_ssyt(lam, mu, letters, box1=(3, 3), box2=(letters, 9)))
                assert got == self.brute_force(lam, mu, letters), (lam, mu, letters)
            n = sum(lam) - sum(mu)
            # exact weights, and weights that only cap each letter
            for cap in {(n,), (n - n // 2, n // 2), (1,) * n, (0, n, 0), (2, 2, 2), (3, 1)}:
                got = list(tb.enumerate_ssyt(lam, mu, weight=cap, box1=(3, 3), box2=(len(cap), 9)))
                assert got == self.brute_force(lam, mu, len(cap), cap), (lam, mu, cap)

    def test_boxes_too_small_still_raise(self):
        with pytest.raises(NotATableau):
            list(tb.enumerate_ssyt((2, 1), max_letter=3, box1=(1, 2)))
        with pytest.raises(NotATableau):
            list(tb.enumerate_ssyt((2, 1), max_letter=3, box2=(2, 4)))
        with pytest.raises(NotATableau):
            list(tb.enumerate_lr((2, 1), (1,), (1, 1), box2=(1, 2)))
        with pytest.raises(NotATableau):
            tb.canonical((2, 1, 1), box2=(2, 2))


class TestSerialization:
    def test_json_round_trip(self):
        t = tb.make_tableau([[1, 2], [2]], inner=(1,), box1=(3, 3), box2=(2, 3))
        back = tb.SkewTableau.from_json(t.to_json())
        assert (back.outer, back.inner, back.rows, back.box1, back.box2) == (
            t.outer,
            t.inner,
            t.rows,
            t.box1,
            t.box2,
        )

    def test_pretty(self):
        t = tb.make_tableau([[1], [1, 2]], inner=(1,))
        assert t.pretty().splitlines() == [" .  1", " 1  2"]
