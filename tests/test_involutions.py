import itertools
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutoria import involutions as iv
from permutoria import tableau as tb
from permutoria.errors import (
    NotInnerCorner,
    NotLR,
    NotPartitionShaped,
    ShapeMismatch,
)
from permutoria.verify import dominant_universe, lr_universe, ssyt_universe

ck = iv.content_key


def small_universe():
    return list(ssyt_universe(3, 3, 3))


LR_SMALL = list(lr_universe(3, 3, 3))


class TestJdt:
    def test_two_slides(self):
        t = tb.make_tableau([[2], [1, 3]], inner=(1,))
        assert iv.jdt(t).rows == ((1, 2), (3,))

    def test_partition_fixed(self):
        t = tb.make_tableau([[1, 1, 3], [2, 2]], box2=(3, 3))
        assert iv.jdt(t) == t

    def test_bad_corner(self):
        t = tb.make_tableau([[2], [1, 3]], inner=(1,))
        with pytest.raises(NotInnerCorner):
            iv.jdt_slide(t, (1, 0))

    def test_order_independence(self):
        import random

        rng = random.Random(7)
        skew = [t for t in small_universe() if t.inner]
        for t in rng.sample(skew, 200):
            base = iv.jdt(t)
            for seed in range(3):
                assert ck(iv.jdt_random_order(t, seed)) == ck(base)

    def test_weight_preserved(self):
        for t in small_universe():
            assert iv.jdt(t).weight() == t.weight()

    @pytest.mark.parametrize("corner_order", [None, lambda cs: cs[0]])
    def test_jdt_is_slide_fold(self, corner_order):
        pick = corner_order or (lambda cs: cs[-1])
        for t in small_universe():
            if not t.inner:
                continue
            s = t
            while s.inner:
                s = iv.jdt_slide(s, pick(iv._removable_corners(s.padded_inner())))
            assert iv.jdt(t, corner_order) == s  # every field, boxes and orientation too


class TestBenderKnuth:
    def test_rule_example(self):
        t = tb.make_tableau([[1, 1], [2]], box2=(2, 2))
        assert iv.bender_knuth(t, 1).rows == ((1, 2), (2,))

    def test_weight_action(self):
        for t in small_universe():
            for i in range(1, t.letters):
                w, ws = t.weight(), iv.bender_knuth(t, i).weight()
                assert (ws[i - 1], ws[i]) == (w[i], w[i - 1])

    def test_results_stay_valid(self):
        # the fast constructor skips validation; re-validate explicitly here
        for t in small_universe():
            for i in range(1, t.letters):
                s = iv.bender_knuth(t, i)
                tb.SkewTableau(s.outer, s.inner, s.rows, s.box1, s.box2)


class TestWords:
    def test_word_shapes(self):
        assert iv.zm_word(2) == (1,)
        assert iv.zm_word(3) == (1, 2, 1)
        assert iv.t_word(1, 1) == (1,)
        assert iv.t_word(2, 1) == (2, 1)
        assert iv.t_word(1, 2, d=1) == (2, 3)

    def test_word_is_generator_fold(self):
        # apply_bk_word runs a whole word in one pass; folding the single
        # generators is its oracle, also on the tableau with no rows
        for t in small_universe() + [tb.SkewTableau((), (), (), (3, 3), (3, 3))]:
            m = t.letters
            words = [iv.zm_word(m), iv.t_word(1, m - 2, d=1)]
            words += [iv.t_word(k, m - k) for k in range(1, m)]
            for w in words:
                fold = t
                for g in w:
                    fold = iv.bender_knuth(fold, g)
                out = iv.apply_bk_word(t, w)
                assert out == fold
                tb.SkewTableau(out.outer, out.inner, out.rows, out.box1, out.box2)

    def test_word_generator_bound(self):
        t = tb.make_tableau([[1, 2], [2]], box2=(2, 2))
        with pytest.raises(ValueError):
            iv.apply_bk_word(t, (1, 2))


class TestSchuetzenberger:
    def test_requires_partition_shape(self):
        t = tb.make_tableau([[2], [1, 3]], inner=(1,))
        with pytest.raises(NotPartitionShaped):
            iv.schuetzenberger(t)

    def test_small_value(self):
        assert iv.schuetzenberger(tb.canonical((2, 1))).rows == ((1, 2), (2,))

    def test_matches_evacuation(self):
        for shape in ((3, 2), (2, 2, 1), (4,), (3, 3)):
            for t in tb.enumerate_ssyt(shape, max_letter=3, box2=(3, 6)):
                assert ck(iv.schuetzenberger(t)) == ck(iv.evacuation(t))

    def test_involution_and_weight(self):
        for shape in ((3, 2, 1), (2, 2)):
            for t in tb.enumerate_ssyt(shape, max_letter=3, box2=(3, 6)):
                x = iv.schuetzenberger(t)
                assert x.weight() == tuple(reversed(t.weight()))
                assert ck(iv.schuetzenberger(x)) == ck(t)

    def test_canonical_identity(self):
        # evacuating a canonical, or rectifying its rotation, agree
        for lam in ((3, 1), (2, 2, 1), (4, 3, 1)):
            tight = tb.canonical(lam)
            assert ck(iv.jdt(tb.rotate(tight))) == ck(iv.schuetzenberger(tight))


class TestSwitching:
    def test_shape_mismatch(self):
        s = tb.make_tableau([[1]], box2=(1, 1))
        t = tb.make_tableau([[1]], inner=(2,), box1=(1, 3), box2=(1, 1))
        with pytest.raises(ShapeMismatch):
            iv.tableau_switch(s, t)

    def test_empty_inner(self):
        t = tb.make_tableau([[1, 2], [2]], box2=(2, 2))
        moved_t, moved_s = iv.tableau_switch(tb.EMPTY, t)
        assert ck(moved_t) == ck(t)
        assert moved_s.size() == 0

    def test_routes_agree_and_involutive(self):
        shapes = tb.partitions_in_box(3, 3)
        for nu in shapes:
            for mu in shapes:
                if not tb.contains(nu, mu):
                    continue
                for lam in shapes:
                    if not tb.contains(lam, nu):
                        continue
                    ss = list(tb.enumerate_ssyt(nu, mu, max_letter=2, box1=(3, 3), box2=(2, 3)))
                    ts = list(tb.enumerate_ssyt(lam, nu, max_letter=2, box1=(3, 3), box2=(2, 3)))
                    for s in ss:
                        for t in ts:
                            if s.size() == 0 and t.size() == 0:
                                continue
                            a = iv.tableau_switch(s, t)
                            b = iv.tableau_switch_sliding(s, t)
                            assert (ck(a[0]), ck(a[1])) == (ck(b[0]), ck(b[1]))
                            # the sliding route validates what it builds, so
                            # this re-checks the unvalidated word-route output
                            assert a == b
                            back = iv.tableau_switch(*a)
                            assert ck(back[0]) == ck(s) and ck(back[1]) == ck(t)
                            if not s.inner and s.size():
                                assert ck(a[0]) == ck(iv.jdt(t))


class TestMatrixRSK:
    def test_intro_example(self):
        p, q = iv.rsk_matrix(iv.permutation_matrix((5, 3, 4, 1, 2)))
        assert p.rows == ((1, 2), (3, 4), (5,))
        assert q.rows == ((1, 3), (2, 5), (4,))

    def test_zero_matrix(self):
        p, q = iv.rsk_matrix(((0, 0), (0, 0)))
        assert p.size() == q.size() == 0

    def test_inverse_on_general_matrices(self):
        for entries in itertools.product(range(3), repeat=4):
            m = (entries[0:2], entries[2:4])
            p, q = iv.rsk_matrix(m)
            assert iv.rsk_matrix_inverse(p, q) == m


class TestTableauRSK:
    def test_partition_input(self):
        t = tb.canonical((3, 1))
        p, q = iv.rsk_tableau(t)
        assert ck(p) == ck(t)

    def test_injectivity(self):
        seen = {}
        for t, nu, kap in dominant_universe(3, 3, 2, 3):
            if (nu, kap) != ((2, 1), ()):
                continue
            p, q = iv.rsk_tableau(t, nu, kap)
            key = ((t.outer, t.inner), ck(p), ck(q))
            assert key not in seen or ck(seen[key]) == ck(t)
            seen[key] = t


class TestReversal:
    def test_partition_case_is_evacuation(self):
        for t in small_universe():
            if not t.inner:
                assert ck(iv.reversal(t)) == ck(iv.schuetzenberger(t))

    def test_helper_independence(self):
        import random

        rng = random.Random(3)
        skew = [t for t in small_universe() if t.inner]
        for t in rng.sample(skew, 100):
            helpers = list(tb.enumerate_ssyt(t.inner, max_letter=2, box1=(3, 3), box2=(2, 3)))
            base = iv.reversal(t)
            for s in helpers[:2]:
                assert ck(iv.reversal_with(t, s)) == ck(base)


class TestOrientationFlips:
    """The maps that only change a tableau's branch build it unvalidated."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([*ssyt_universe(2, 2, 2), *LR_SMALL]),
        st.sampled_from([None, "lr", "anti"]),
    )
    def test_trusted_flip_equals_replace(self, t, orientation):
        flipped = iv._with_orientation(t, orientation)
        expected = replace(t, orientation=orientation)  # runs the validation
        for f in fields(tb.SkewTableau):
            assert getattr(flipped, f.name) == getattr(expected, f.name)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(LR_SMALL))
    def test_flipped_outputs_pass_validation(self, t):
        for out in (iv.reversal(t), iv.rho_dual(t), iv.reversal(iv.rho_dual(t))):
            assert replace(out) == out


class TestEquivalences:
    def test_companions_of_jdt_equivalent_are_dual_equivalent(self):
        for t, nu, kap in dominant_universe(3, 3, 2, 3):
            others = [
                u
                for u in tb.enumerate_ssyt(t.outer, t.inner, max_letter=2, box1=t.box1, box2=t.box2)
                if iv.jdt_equivalent(t, u)
            ]
            for u in others:
                assert tb.is_dominant(u, nu, kap)
                assert iv.dual_equivalent(
                    tb.companion(t, nu, kap), tb.companion(u, nu, kap)
                )


class TestRhoOmega:
    def test_rho_requires_flag(self):
        t = tb.make_tableau([[1]], box2=(1, 1))
        with pytest.raises(NotLR):
            iv.rho(t)

    def test_rho_flag_content_mismatch(self):
        t = tb.make_tableau([[2], [1, 3]], inner=(1,), box2=(3, 1), orientation="lr")
        with pytest.raises(NotLR):
            iv.rho(t)  # word is not Yamanouchi

    def test_anti_branch(self):
        for t in lr_universe(3, 3, 3):
            x = tb.rotate(t)
            assert iv.rho(iv.rho(x)) == x
            assert iv.rho_dual(iv.rho(x)) == iv.reversal(x)
            assert iv.rho_dual(x).orientation == "lr"

    def test_anti_flag_content_mismatch(self):
        t = tb.make_tableau([[1], [1, 2]], inner=(1,), box2=(2, 2), orientation="anti")
        assert not tb.is_anti_lr(t)
        with pytest.raises(NotLR):
            iv.rho(t)
        with pytest.raises(NotLR):
            iv.rho_dual(t)

    def test_omega_routes_and_involution(self):
        for t in ssyt_universe(3, 3, 2):
            a, b = iv.omega(t), iv.omega_bk(t)
            c = iv.reversal(tb.rotate(t))
            assert ck(a) == ck(b) == ck(c)
            assert ck(iv.omega(a)) == ck(t)

    def test_diagram_negative(self):
        # a flagged but corrupted tableau surfaces as failures, silently
        t = tb.make_tableau([[2], [1, 3]], inner=(1,), box2=(3, 2), orientation="lr")
        report = iv.verify_diagram(t)
        assert not report.passed

    def test_diagram_applies_each_map_once_per_input(self, monkeypatch):
        # only calls made by verify_diagram count, not omega's own rotations
        inputs = {"rho": [], "reversal": [], "omega": [], "rotate": []}
        depth = [0]

        def counted(name, fn):
            def wrapper(x):
                if not depth[0]:
                    inputs[name].append(x)
                depth[0] += 1
                try:
                    return fn(x)
                finally:
                    depth[0] -= 1

            return wrapper

        for name in inputs:
            monkeypatch.setattr(iv, name, counted(name, getattr(iv, name)))
        t = tb.make_tableau([[1], [1, 2]], inner=(1,), box1=(3, 3), box2=(2, 2), orientation="lr")
        report = iv.verify_diagram(t)
        assert report.passed and len(report.checks) == 9
        assert {name: len(xs) for name, xs in inputs.items()} == {
            "rho": 4, "reversal": 7, "omega": 2, "rotate": 6,
        }
        for xs in inputs.values():
            assert len(set(xs)) == len(xs)


class TestCoefficients:
    def test_values(self):
        assert iv.lr_coefficient((2, 1), (1,), (1, 1)) == 1
        assert iv.lr_coefficient((2, 1), (1,), (2,)) == 1
        assert iv.lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2

    def test_empty_side(self):
        assert iv.lr_coefficient((2, 2), (2, 2), ()) == 1
        assert iv.lr_coefficient((3, 1), (2, 1), ()) == 0

    @staticmethod
    def triples(max_size):
        """(lam, mu, nu) with |lam| <= max_size, mu inside lam and
        |nu| = |lam| - |mu|: the triples the P3-lr suite reads."""
        for n in range(max_size + 1):
            for lam in tb.partitions_of(n):
                for mu_size in range(n + 1):
                    for mu in tb.partitions_of(mu_size):
                        if tb.contains(lam, mu):
                            for nu in tb.partitions_of(n - mu_size):
                                yield lam, mu, nu

    def test_matches_ssyt_oracle(self):
        # the oracle shares no search with lr_coefficient: it keeps the
        # semistandard fillings of weight nu whose reading word is Yamanouchi
        for lam, mu, nu in self.triples(6):
            oracle = sum(1 for t in tb.enumerate_ssyt(lam, mu, weight=nu) if tb.is_lr(t))
            assert iv.lr_coefficient(lam, mu, nu) == oracle, (lam, mu, nu)

    def test_count_matches_enumeration(self):
        for lam, mu, nu in self.triples(8):
            fillings = list(tb.enumerate_lr(lam, mu, nu))
            assert iv.lr_coefficient(lam, mu, nu) == len(fillings), (lam, mu, nu)

    def test_schur_product(self):
        assert iv.schur_product_check((1,), (1, 1), 4)
        assert iv.schur_product_check((2, 1), (2,), 4)
        assert iv.schur_product_check((2, 2), (1, 1), 3)
