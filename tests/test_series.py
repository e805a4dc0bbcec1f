import time

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
