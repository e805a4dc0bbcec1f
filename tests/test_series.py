import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutoria.errors import NonUnitDivisor
from permutoria.series import (
    MultiSeries,
    RationalExpr,
    catalan_series,
    expand_rational,
    series_from_cells,
)

ORDERS = (6, 3, 3)


def random_series(draw_ints):
    return MultiSeries.from_table(
        {
            (i, j, k): draw_ints[i + 4 * j + 16 * k % len(draw_ints)]
            for i in range(3)
            for j in range(2)
            for k in range(2)
        },
        ORDERS,
    )


small_series = st.lists(st.integers(-5, 5), min_size=16, max_size=16).map(random_series)


class TestArithmetic:
    def test_geometric(self):
        assert expand_rational("1/(1-x)", (5, 0, 0)).univariate() == [1] * 6

    def test_catalan_series(self):
        c = catalan_series((10, 0, 0))
        assert c.univariate() == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]

    def test_catalan_defining_equation(self):
        orders = (8, 0, 0)
        c = catalan_series(orders)
        one = MultiSeries.constant(1, orders)
        x = MultiSeries.variable("x", orders)
        assert one + x * c * c == c

    def test_division_inverts_multiplication(self):
        a = expand_rational("(1+x)*(1+y)^2", ORDERS)
        b = expand_rational("1-x+2*y-z", ORDERS)
        assert (a * b) / b == a

    def test_nonunit_division(self):
        x = MultiSeries.variable("x", ORDERS)
        with pytest.raises(NonUnitDivisor):
            x / x  # valid formally, but the divisor has no constant term

    def test_power(self):
        assert expand_rational("(1+x)^3", (4, 0, 0)).univariate() == [1, 3, 3, 1, 0]
        assert expand_rational("1/(1-x)^2", (4, 0, 0)).univariate() == [1, 2, 3, 4, 5]

    @settings(max_examples=60, deadline=None)
    @given(small_series, small_series)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(small_series, small_series, small_series)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    def test_swap_and_symmetry(self):
        s = expand_rational("1/((1-y)*(1-z)) + y", ORDERS)
        assert not s.is_yz_symmetric()
        t = expand_rational("1/((1-y)*(1-z))", ORDERS)
        assert t.is_yz_symmetric()
        assert t.swap_yz()[(0, 1, 2)] == t[(0, 2, 1)]


def sparse_series(orders):
    """A sparse series in the box of orders, some terms outside it."""
    kx, ky, kz = orders
    monomial = st.tuples(st.integers(0, kx + 1), st.integers(0, ky + 1), st.integers(0, kz + 1))
    table = st.dictionaries(monomial, st.integers(-4, 4), max_size=12)
    return table.map(lambda t: MultiSeries.from_table(t, orders))


def unit_series(orders, units=(-1, 1)):
    """A sparse series whose constant term is one of units."""
    return st.tuples(sparse_series(orders), st.sampled_from(units)).map(
        lambda pair: pair[0] - MultiSeries.constant(pair[0][(0, 0, 0)] - pair[1], orders)
    )


def all_pairs_product(a, b):
    """Every pair of terms, then truncation to the box."""
    kx, ky, kz = a.orders
    out = {}
    for (a1, b1, c1), u in a.coeffs.items():
        for (a2, b2, c2), v in b.coeffs.items():
            m = (a1 + a2, b1 + b2, c1 + c2)
            out[m] = out.get(m, 0) + u * v
    return {m: v for m, v in out.items() if v and m[0] <= kx and m[1] <= ky and m[2] <= kz}


def first_non_integral(a, b):
    """The first monomial in graded order (total degree, then lexicographic)
    at which the quotient a / b over the rationals is not an integer."""
    kx, ky, kz = a.orders
    box = sorted(
        ((i, j, k) for i in range(kx + 1) for j in range(ky + 1) for k in range(kz + 1)),
        key=lambda m: (sum(m), m),
    )
    q = {}
    for m in box:
        acc = Fraction(a[m])
        for n, value in q.items():
            rest = tuple(x - y for x, y in zip(m, n))
            if min(rest) >= 0 and rest != (0, 0, 0):
                acc -= value * b[rest]
        q[m] = acc / b[(0, 0, 0)]
        if q[m].denominator != 1:
            return m
    return None


UNEVEN = [(3, 5, 2), (0, 4, 1)]


class TestSparseArithmetic:
    @pytest.mark.parametrize("orders", UNEVEN)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_product_equals_all_pairs(self, orders, data):
        a = data.draw(sparse_series(orders))
        b = data.draw(sparse_series(orders))
        assert (a * b).coeffs == all_pairs_product(a, b)

    @pytest.mark.parametrize("orders", UNEVEN)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_quotient_times_divisor(self, orders, data):
        a = data.draw(sparse_series(orders))
        b = data.draw(unit_series(orders))
        assert (a / b) * b == a

    @pytest.mark.parametrize("orders", UNEVEN)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_zero_constant_term(self, orders, data):
        a = data.draw(sparse_series(orders))
        b = data.draw(unit_series(orders, units=(0,)))
        with pytest.raises(NonUnitDivisor) as exc:
            a / b
        assert str(exc.value) == "division by a series with zero constant term"

    @pytest.mark.parametrize("orders", UNEVEN)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_first_non_integral_monomial(self, orders, data):
        a = data.draw(sparse_series(orders))
        b = data.draw(unit_series(orders, units=(2, -3)))
        at = first_non_integral(a, b)
        if at is None:
            assert (a / b) * b == a
        else:
            with pytest.raises(NonUnitDivisor) as exc:
                a / b
            assert str(exc.value) == f"non-integral quotient at {at}"


class TestParser:
    def test_parse_round_trip_values(self):
        expr = RationalExpr.parse("c(x)/((1-y*c(x))*(1-z*c(x)))")
        series = expr.evaluate((6, 2, 2))
        assert series[(3, 0, 0)] == 5  # pure x-row gives the Catalan numbers
        assert series.is_yz_symmetric()

    def test_unary_minus_and_precedence(self):
        assert expand_rational("-x+2", (2, 0, 0)).univariate() == [2, -1, 0]
        assert expand_rational("1-2*x^2", (3, 0, 0)).univariate() == [1, 0, -2, 0]

    def test_errors(self):
        with pytest.raises(ValueError):
            RationalExpr.parse("1 + ")
        with pytest.raises(ValueError):
            RationalExpr.parse("(1+x")
        with pytest.raises(ValueError):
            RationalExpr.parse("q + 1")

    def test_depth_cap(self):
        # a parenthesised group is one level, so 99 groups around x reach
        # the cap of 100 and one more group passes it
        at_cap = {"(" * 99 + "x" + ")" * 99: 1, "-" * 99 + "x": -1, "+".join(["x"] * 100): 100}
        for text, coefficient in at_cap.items():
            assert expand_rational(text, (2, 0, 0)).univariate() == [0, coefficient, 0]
        for text in ["(" * 100 + "x" + ")" * 100, "-" * 100 + "x", "+".join(["x"] * 101)]:
            with pytest.raises(ValueError, match="formula nested deeper than 100 levels"):
                RationalExpr.parse(text)

    def test_long_formula_parses_in_linear_time(self):
        # a balanced sum of 2^14 x's in 65,533 characters, 29 levels high
        text = "x"
        for _ in range(14):
            text = f"({text}+{text})"
        assert len(text) == 65533
        start = time.perf_counter()
        RationalExpr.parse(text)
        assert time.perf_counter() - start < 2.0

    def test_dump_deterministic(self):
        s = expand_rational("1/((1-x)*(1-y))", (2, 2, 0))
        assert s.dump() == expand_rational("1/((1-y)*(1-x))", (2, 2, 0)).dump()


def test_series_from_cells_truncates():
    cells = {(0, 0, 0): 1, (9, 0, 0): 5, (1, 1, 1): 3}
    s = series_from_cells(cells, (2, 2, 2))
    assert s[(0, 0, 0)] == 1 and s[(1, 1, 1)] == 3 and s[(9, 0, 0)] == 0
