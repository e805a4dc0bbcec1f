"""Brute-force enumerators and counting oracles.

Everything here is ground truth: the backtracking driver of ``kernels``
with containment pruning, exact integers only.  Formulas, graphs and
bijections elsewhere in the package are validated against these counts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from math import comb
from typing import Iterator

from . import kernels
from .limits import DEFAULT_LIMITS, Limits, enforce
from .permcore import PartialPermutation, PatternSet, Word

# ---------------------------------------------------------------------------
# enumeration


def enumerate_avoiders(
    n: int, patterns: PatternSet, limits: Limits = DEFAULT_LIMITS
) -> Iterator[Word]:
    """Yield S_n(patterns) exactly once each, in lexicographic order."""
    enforce(limits, "enumeration", "n", n)
    return kernels.avoiding_words(n, patterns.plans, kernels.unused_values)


def count_avoiders(n: int, patterns: PatternSet, limits: Limits = DEFAULT_LIMITS) -> int:
    """|S_n(patterns)| without materializing the permutations."""
    enforce(limits, "enumeration", "n", n)
    return kernels.count_avoiders_raw(n, patterns.patterns, patterns.automata)


def enumerate_da(
    n: int, patterns: PatternSet | None = None, limits: Limits = DEFAULT_LIMITS
) -> Iterator[Word]:
    """Yield DA_n(patterns) in lexicographic order (patterns optional)."""
    enforce(limits, "da", "n", n)
    plans = patterns.plans if patterns is not None else ()
    return kernels.avoiding_words(n, plans, kernels.da_values)


def count_da(n: int, patterns: PatternSet | None = None, limits: Limits = DEFAULT_LIMITS) -> int:
    """|DA_n(patterns)|; with patterns=None this is |DA_n|."""
    enforce(limits, "da", "n", n)
    pats = patterns.patterns if patterns is not None else ()
    return kernels.count_da_raw(n, pats)


# ---------------------------------------------------------------------------
# extended avoidance counts via NW corners


def _fresh(words: Iterator[Word]) -> Iterator[tuple[Word, int]]:
    """Pair each word with the length of its shortest prefix that no earlier
    word has.

    The words come in lexicographic order, so every earlier word that shares
    a prefix with a word shares it with the word just before it too: the
    first new prefix is one longer than the common prefix with the previous
    word, and the first word's is the empty prefix.
    """
    prev: Word | None = None
    for word in words:
        if prev is None:
            start = 0
        else:
            start = 1
            for a, b in zip(prev, word):
                if a != b:
                    break
                start += 1
        yield word, start
        prev = word


def _cell_corners(d: int, c: int, r: int, patterns: PatternSet, limits: Limits) -> set[Word]:
    """The distinct NW corners with d dots, d+c columns and d+r rows of the
    avoiders of size d+c+r, in ``extended_table``'s encoding.

    This is that sweep's rule at i = d+r rows and j = d+c columns: a prefix
    that ``_fresh`` marks as new yields a corner in the cell when every
    value after it is at most j, and the corner is the prefix with the
    entries above j blanked to 0.
    """
    n = d + c + r
    enforce(limits, "extended", "d+c+r", n)
    rows, cols = d + r, d + c
    wide = replace(limits, enumeration=max(limits.enumeration, n))
    return {
        tuple(v if v <= cols else 0 for v in word[:rows])
        for word, start in _fresh(enumerate_avoiders(n, patterns, wide))
        if start <= rows and max(word[rows:], default=0) <= cols
    }


def count_extended(
    d: int, c: int, r: int, patterns: PatternSet, limits: Limits = DEFAULT_LIMITS
) -> int:
    """|S_{d,c,r}(patterns)| by collecting distinct NW corners of avoiders."""
    return len(_cell_corners(d, c, r, patterns, limits))


def extended_table(
    patterns: PatternSet, max_total: int, limits: Limits = DEFAULT_LIMITS
) -> dict[tuple[int, int, int], int]:
    """All |S_{d,c,r}(patterns)| with d+c+r <= max_total in one sweep.

    For each n the extendably avoiding objects of total size n are the NW
    corners of the size-n avoiders whose rows + cols - dots is n.  A corner
    with i rows reads only the prefix of its first i entries, and the
    values after that prefix are the values 1..n it lacks; with m the
    largest of them (0 for the whole word), the corners with i rows are
    those with m..n columns.  Each step from m uncovers one more entry of
    the prefix, so the corner with j columns has i + j - n dots and lies in
    the cell (i + j - n, n - i, n - j).  A prefix that an earlier avoider
    has already passed here yields the same corners again, so only the
    prefixes ``_fresh`` marks as new are read.  A corner is kept as the
    prefix with the entries above j blanked to 0, which encodes its dots
    given its rows and cells.
    """
    enforce(limits, "extended", "max_total", max_total)
    cells: defaultdict[tuple[int, int, int], set] = defaultdict(set)
    for n in range(max_total + 1):
        wide = replace(limits, enumeration=max(limits.enumeration, n))
        where = [0] * (n + 1)  # where[v]: the index of the value v
        for word, start in _fresh(enumerate_avoiders(n, patterns, wide)):
            for k, v in enumerate(word):
                where[v] = k
            # tail[i]: the largest value after the prefix of length i
            tail = [0] * (n + 1)
            for i in range(n - 1, start - 1, -1):
                tail[i] = max(tail[i + 1], word[i])
            for i in range(start, n + 1):
                m = tail[i]
                corner = [v if v <= m else 0 for v in word[:i]]
                for j in range(m, n + 1):
                    if j > m:
                        corner[where[j]] = j
                    cells[i + j - n, n - i, n - j].add(tuple(corner))
    return {key: len(group) for key, group in cells.items()}


def enumerate_extended(
    d: int, c: int, r: int, patterns: PatternSet, limits: Limits = DEFAULT_LIMITS
) -> list[PartialPermutation]:
    """The elements of S_{d,c,r}(patterns), sorted by their dots."""
    dots = sorted(
        tuple((k, v) for k, v in enumerate(corner, 1) if v)
        for corner in _cell_corners(d, c, r, patterns, limits)
    )
    return [PartialPermutation(d + r, d + c, each) for each in dots]


# ---------------------------------------------------------------------------
# named integer sequences


def catalan(n: int) -> int:
    """1, 1, 2, 5, 14, 42, 132, ..."""
    return comb(2 * n, n) // (n + 1)


def fibonacci(n: int) -> int:
    """F_1 = F_2 = 1; F_n = 0 for n <= 0."""
    if n <= 0:
        return 0
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def euler_zigzag(n: int) -> int:
    """Tangent+secant numbers: the count of up-down alternating permutations.

    Computed by the boustrophedon recurrence on exact integers.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    for k in range(1, n + 1):
        new = [0]
        for i in range(k):
            new.append(new[-1] + row[k - 1 - i])
        row = new
    return row[-1]


def catalan_fourth_difference(n: int) -> int:
    """Fourth difference of the Catalan numbers, by the telescoped form."""
    return (
        catalan(n + 4)
        - 4 * catalan(n + 3)
        + 6 * catalan(n + 2)
        - 4 * catalan(n + 1)
        + catalan(n)
    )


def catalan_fourth_difference_product(n: int) -> int:
    """Same value via the closed product form; exact integer division."""
    numerator = 9 * catalan(n) * (9 * n**4 + 54 * n**3 + 135 * n**2 + 122 * n + 40)
    denominator = (n + 2) * (n + 3) * (n + 4) * (n + 5)
    q, rem = divmod(numerator, denominator)
    if rem:
        raise ArithmeticError(f"product form is not integral at n={n}")
    return q


SEQUENCES = {
    "catalan": catalan,
    "fibonacci": fibonacci,
    "euler": euler_zigzag,
    "catalan-diff-4": catalan_fourth_difference,
}


def sequence(name: str, n: int) -> int:
    return SEQUENCES[name](n)


# ---------------------------------------------------------------------------
# conjecture reports


@dataclass(frozen=True)
class ConjectureRow:
    n: int
    observed: int | tuple[int, ...]
    predicted: int | None
    match: bool


@dataclass(frozen=True)
class ConjectureReport:
    name: str
    rows: tuple[ConjectureRow, ...]

    @property
    def all_match(self) -> bool:
        return all(row.match for row in self.rows)


def _report_equal_family(name: str, n_max: int, limits: Limits) -> ConjectureReport:
    """Six DA counting sequences conjectured to all equal |DA_{2n}(1234)|."""
    rows = []
    for m in range(1, n_max // 2 + 1):
        reference = count_da(2 * m, PatternSet.parse("1234"), limits)
        observed = (
            reference,
            count_da(2 * m + 1, PatternSet.parse("1243"), limits),
            count_da(2 * m, PatternSet.parse("1432"), limits),
            count_da(2 * m + 1, PatternSet.parse("1432"), limits),
            count_da(2 * m, PatternSet.parse("2341"), limits),
            count_da(2 * m, PatternSet.parse("3421"), limits),
        )
        rows.append(
            ConjectureRow(2 * m, observed, reference, all(x == reference for x in observed))
        )
    return ConjectureReport(name, tuple(rows))


def _report_1234_3214(name: str, n_max: int, limits: Limits) -> ConjectureReport:
    rows = []
    for n in range(1, n_max + 1):
        observed = count_da(n, PatternSet.parse("1234,3214"), limits)
        if n % 2 == 0:
            predicted = fibonacci(n - 1)
        elif n in (1, 3):
            predicted = 1
        else:
            predicted = fibonacci(n - 1) - fibonacci(n - 7)
        rows.append(ConjectureRow(n, observed, predicted, observed == predicted))
    return ConjectureReport(name, tuple(rows))


def _report_1234_2134(name: str, n_max: int, limits: Limits) -> ConjectureReport:
    rows = []
    for n in range(1, n_max + 1):
        observed = count_da(n, PatternSet.parse("1234,2134"), limits)
        if n % 2 == 0:
            predicted = catalan(n // 2)
        elif n in (1, 3):
            predicted = 1
        else:
            predicted = catalan_fourth_difference((n - 5) // 2)
        rows.append(ConjectureRow(n, observed, predicted, observed == predicted))
    return ConjectureReport(name, tuple(rows))


CONJECTURES = {
    "P1-7.1": _report_equal_family,
    "P1-8.2": _report_1234_3214,
    "P1-8.3": _report_1234_2134,
}


def conjecture_report(name: str, n_max: int, limits: Limits = DEFAULT_LIMITS) -> ConjectureReport:
    """Tabulate a conjecture; mismatches are reported, never raised."""
    enforce(limits, "da", "n_max", n_max)
    return CONJECTURES[name](name, n_max, limits)


# ---------------------------------------------------------------------------
# independent oracles for the test-suite


def alternating_count_bruteforce(n: int) -> int:
    """Count up-down alternating permutations by filtering all of S_n."""
    from itertools import permutations

    from .permcore import is_alternating

    return sum(1 for w in permutations(range(1, n + 1)) if is_alternating(w))
