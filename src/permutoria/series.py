"""Exact truncated power series in x, y, z and a small formula language.

Coefficients are Python integers; all arithmetic is exact within the
truncation orders.  Generating functions are compared coefficient by
coefficient instead of symbolically, which is all the verification suites
need.  The Catalan series c(x) is expanded through its defining recurrence
c = 1 + x*c^2 rather than the closed radical form, keeping everything in
integer arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .errors import NonUnitDivisor

Orders = tuple[int, int, int]
Monomial = tuple[int, int, int]


@dataclass(frozen=True)
class MultiSeries:
    """Truncated series with exact integer coefficients indexed by (i,j,k)."""

    orders: Orders
    coeffs: Mapping[Monomial, int]

    def __post_init__(self):
        kx, ky, kz = self.orders
        clean = {
            m: c
            for m, c in self.coeffs.items()
            if c != 0 and m[0] <= kx and m[1] <= ky and m[2] <= kz
        }
        object.__setattr__(self, "coeffs", clean)

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, orders: Orders) -> "MultiSeries":
        return cls(orders, {})

    @classmethod
    def constant(cls, value: int, orders: Orders) -> "MultiSeries":
        return cls(orders, {(0, 0, 0): value} if value else {})

    @classmethod
    def variable(cls, name: str, orders: Orders) -> "MultiSeries":
        index = "xyz".index(name)
        mono = tuple(1 if i == index else 0 for i in range(3))
        return cls(orders, {mono: 1})

    @classmethod
    def from_table(cls, table: Mapping[tuple[int, int, int], int], orders: Orders) -> "MultiSeries":
        return cls(orders, dict(table))

    # -- access --------------------------------------------------------------
    def __getitem__(self, mono: Monomial | int) -> int:
        if isinstance(mono, int):
            mono = (mono, 0, 0)
        return self.coeffs.get(mono, 0)

    def univariate(self) -> list[int]:
        """Coefficients of x^0..x^Kx when y and z are absent."""
        if any(m[1] or m[2] for m in self.coeffs):
            raise ValueError("series involves y or z")
        return [self[(i, 0, 0)] for i in range(self.orders[0] + 1)]

    def items(self):
        return sorted(self.coeffs.items())

    # -- ring operations -------------------------------------------------------
    def _check(self, other: "MultiSeries"):
        if self.orders != other.orders:
            raise ValueError("mixed truncation orders")

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return MultiSeries(self.orders, out)

    def __neg__(self) -> "MultiSeries":
        return MultiSeries(self.orders, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self + (-other)

    def __mul__(self, other: "MultiSeries") -> "MultiSeries":
        self._check(other)
        kx, ky, kz = self.orders
        out: dict[Monomial, int] = {}
        for (a1, b1, c1), u in self.coeffs.items():
            for (a2, b2, c2), v in other.coeffs.items():
                a, b, c = a1 + a2, b1 + b2, c1 + c2
                if a > kx or b > ky or c > kz:
                    continue
                m = (a, b, c)
                out[m] = out.get(m, 0) + u * v
        return MultiSeries(self.orders, out)

    def __pow__(self, exponent: int) -> "MultiSeries":
        if exponent < 0:
            return MultiSeries.constant(1, self.orders) / (self**-exponent)
        result = MultiSeries.constant(1, self.orders)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __truediv__(self, other: "MultiSeries") -> "MultiSeries":
        """Division by a unit (nonzero constant term), graded elimination."""
        self._check(other)
        unit = other[(0, 0, 0)]
        if unit == 0:
            raise NonUnitDivisor("division by a series with zero constant term")
        kx, ky, kz = self.orders
        quotient: dict[Monomial, int] = {}
        rest = other - MultiSeries.constant(unit, self.orders)
        # q = (self - rest*q) / unit, resolved by increasing total degree
        remaining = dict(self.coeffs)
        for total in range(kx + ky + kz + 1):
            layer = [
                m
                for m in set(remaining)
                if sum(m) == total and remaining.get(m)
            ]
            for m in sorted(layer):
                value = remaining.pop(m)
                q, r = divmod(value, unit)
                if r:
                    # exact integer series only; a fractional quotient means
                    # the division is not defined over the integers
                    raise NonUnitDivisor(f"non-integral quotient at {m}")
                if q == 0:
                    continue
                quotient[m] = q
                for (a2, b2, c2), v in rest.coeffs.items():
                    a, b, c = m[0] + a2, m[1] + b2, m[2] + c2
                    if a > kx or b > ky or c > kz:
                        continue
                    mm = (a, b, c)
                    remaining[mm] = remaining.get(mm, 0) - q * v
        return MultiSeries(self.orders, quotient)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self.orders == other.orders and self.coeffs == other.coeffs

    def swap_yz(self) -> "MultiSeries":
        kx, ky, kz = self.orders
        return MultiSeries((kx, kz, ky), {(a, c, b): v for (a, b, c), v in self.coeffs.items()})

    def is_yz_symmetric(self) -> bool:
        return all(self[(a, c, b)] == v for (a, b, c), v in self.coeffs.items())

    def dump(self) -> str:
        """Deterministic text dump: one 'i,j,k<TAB>coeff' line per monomial."""
        return "\n".join(f"{a},{b},{c}\t{v}" for (a, b, c), v in self.items())


def catalan_series(orders: Orders) -> MultiSeries:
    """c(x) with c = 1 + x*c^2, iterated to the truncation order."""
    one = MultiSeries.constant(1, orders)
    x = MultiSeries.variable("x", orders)
    c = one
    for _ in range(orders[0] + 1):
        c = one + x * c * c
    return c


# ---------------------------------------------------------------------------
# formula language
#
# grammar:  expr   := term (('+'|'-') term)*
#           term   := factor (('*'|'/') factor)*
#           factor := base ('^' integer)?
#           base   := integer | 'x' | 'y' | 'z' | 'c(x)' | '(' expr ')' | '-' base

_TOKEN = re.compile(r"\s*(c\(x\)|\d+|[xyz+*/^()-])")


@dataclass(frozen=True)
class RationalExpr:
    """AST node: ('int', n) | ('var', name) | ('cx',) | (op, left, right) | ('neg', e) | ('pow', e, n)."""

    node: tuple

    @classmethod
    def parse(cls, text: str) -> "RationalExpr":
        tokens = _tokenize(text)
        node, rest = _parse_expr(tokens)
        if rest:
            raise ValueError(f"trailing input: {rest}")
        return cls(node)

    def evaluate(self, orders: Orders) -> MultiSeries:
        return _eval(self.node, orders, catalan_series(orders))


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad token at: {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def _parse_expr(tokens: list[str]):
    node, tokens = _parse_term(tokens)
    while tokens and tokens[0] in "+-":
        op = tokens[0]
        right, tokens = _parse_term(tokens[1:])
        node = ("add" if op == "+" else "sub", node, right)
    return node, tokens


def _parse_term(tokens: list[str]):
    node, tokens = _parse_factor(tokens)
    while tokens and tokens[0] in "*/":
        op = tokens[0]
        right, tokens = _parse_factor(tokens[1:])
        node = ("mul" if op == "*" else "div", node, right)
    return node, tokens


def _parse_factor(tokens: list[str]):
    node, tokens = _parse_base(tokens)
    if tokens and tokens[0] == "^":
        if not tokens[1:] or not tokens[1].isdigit():
            raise ValueError("exponent must be a nonnegative integer")
        node = ("pow", node, int(tokens[1]))
        tokens = tokens[2:]
    return node, tokens


def _parse_base(tokens: list[str]):
    if not tokens:
        raise ValueError("unexpected end of formula")
    tok = tokens[0]
    if tok == "-":
        node, rest = _parse_base(tokens[1:])
        return ("neg", node), rest
    if tok == "(":
        node, rest = _parse_expr(tokens[1:])
        if not rest or rest[0] != ")":
            raise ValueError("unbalanced parentheses")
        return node, rest[1:]
    if tok == "c(x)":
        return ("cx",), tokens[1:]
    if tok.isdigit():
        return ("int", int(tok)), tokens[1:]
    if tok in "xyz":
        return ("var", tok), tokens[1:]
    raise ValueError(f"unexpected token {tok!r}")


def _eval(node: tuple, orders: Orders, cx: MultiSeries) -> MultiSeries:
    kind = node[0]
    if kind == "int":
        return MultiSeries.constant(node[1], orders)
    if kind == "var":
        return MultiSeries.variable(node[1], orders)
    if kind == "cx":
        return cx
    if kind == "neg":
        return -_eval(node[1], orders, cx)
    if kind == "pow":
        return _eval(node[1], orders, cx) ** node[2]
    left = _eval(node[1], orders, cx)
    right = _eval(node[2], orders, cx)
    if kind == "add":
        return left + right
    if kind == "sub":
        return left - right
    if kind == "mul":
        return left * right
    if kind == "div":
        return left / right
    raise ValueError(f"unknown node {kind!r}")


def expand_rational(formula: str | RationalExpr, orders: Orders) -> MultiSeries:
    """Exact truncated expansion of a formula in x, y, z and c(x)."""
    expr = RationalExpr.parse(formula) if isinstance(formula, str) else formula
    return expr.evaluate(orders)


def series_from_cells(cells: Mapping[tuple[int, int, int], int], orders: Orders) -> MultiSeries:
    """Series whose (d,c,r) coefficient is the given count table entry."""
    kx, ky, kz = orders
    table = {
        (d, c, r): v
        for (d, c, r), v in cells.items()
        if d <= kx and c <= ky and r <= kz
    }
    return MultiSeries.from_table(table, orders)
