"""Permutations, partial permutations and pattern containment.

Permutations of {1..n} are plain tuples in one-line notation.  The matrix
convention used throughout puts a dot in row i, column sigma(i): rows are
positions, columns are values.

A partial permutation is a rectangular 0-1 matrix with at most one dot per
row and per column.  Empty rows and columns are meaningful: two partial
permutations with the same dots but different row/column counts are
different objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Literal, Sequence

from .errors import ZeroObject
from .kernels import Plan, _ends_at_last, avoiding_words, compile_pattern, occurs

Word = tuple[int, ...]
GappedWord = tuple  # entries int or None

# ---------------------------------------------------------------------------
# plain permutation helpers


def is_permutation(word: Sequence[int]) -> bool:
    """True iff word is a bijection of {1..n}.

    >>> is_permutation((2, 1, 3)), is_permutation((2, 2)), is_permutation(())
    (True, False, True)
    """
    return sorted(word) == list(range(1, len(word) + 1))


def inverse(word: Sequence[int]) -> Word:
    """Functional inverse in one-line notation.

    >>> inverse((3, 4, 1, 2))
    (3, 4, 1, 2)
    """
    inv = [0] * len(word)
    for pos, value in enumerate(word):
        inv[value - 1] = pos + 1
    return tuple(inv)


def reverse(word: Sequence[int]) -> Word:
    return tuple(word[len(word) - 1 - i] for i in range(len(word)))


def complement(word: Sequence[int]) -> Word:
    n = len(word)
    return tuple(n + 1 - v for v in word)


def rotate180(word: Sequence[int]) -> Word:
    return complement(reverse(word))


SYMMETRIES = {
    "reverse": reverse,
    "complement": complement,
    "inverse": inverse,
    "rotate180": rotate180,
}


def symmetry(word: Sequence[int], op: str) -> Word:
    """Apply one of reverse / complement / inverse / rotate180."""
    return SYMMETRIES[op](tuple(word))


def standardize(values: Sequence[int]) -> Word:
    """Relabel distinct values to 1..k preserving relative order.

    >>> standardize((7, 9, 3))
    (2, 3, 1)
    """
    order = sorted(values)
    rank = {v: i + 1 for i, v in enumerate(order)}
    return tuple(rank[v] for v in values)


def contains_pattern(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff some subsequence of word is order-isomorphic to pattern.

    >>> contains_pattern((7, 9, 3, 8, 1, 10, 5, 6, 2, 4), (3, 2, 1, 4))
    True
    >>> contains_pattern((7, 9, 3, 8, 1, 10, 5, 6, 2, 4), (1, 2, 3, 4))
    False
    """
    return occurs(word, compile_pattern(pattern))


def contains_pattern_bruteforce(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """Independent oracle: exhaustive scan over all subsequences."""
    word = tuple(word)
    pattern = tuple(pattern)
    if len(pattern) > len(word):
        return False
    return any(
        standardize([word[i] for i in idx]) == standardize(pattern)
        for idx in combinations(range(len(word)), len(pattern))
    )


# ---------------------------------------------------------------------------
# pattern sets


@dataclass(frozen=True)
class PatternSet:
    """A normalized, nonempty set of patterns.

    Patterns containing another pattern of the set are redundant for
    avoidance and are dropped at construction.  ``plans`` holds the
    matcher's compiled plan of each pattern, in the same order; it takes no
    part in equality or hashing.
    """

    patterns: tuple[Word, ...]
    plans: tuple[Plan, ...] = field(compare=False, repr=False)

    def __init__(self, patterns):
        pats = {tuple(p) for p in patterns}
        if not pats:
            raise ValueError("a pattern set must be nonempty")
        for p in pats:
            if len(p) < 1 or not is_permutation(p):
                raise ValueError(f"not a valid pattern: {p}")
        minimal = {
            p
            for p in pats
            if not any(q != p and contains_pattern(p, q) for q in pats)
        }
        patterns = tuple(sorted(minimal, key=lambda p: (len(p), p)))
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "plans", tuple(compile_pattern(p) for p in patterns))

    @classmethod
    def parse(cls, text: str) -> "PatternSet":
        """Parse e.g. '123' or '2413,3142' (digits only, sizes < 10)."""
        return cls([tuple(int(ch) for ch in tok.strip()) for tok in text.split(",") if tok.strip()])

    def inverse(self) -> "PatternSet":
        return PatternSet([inverse(p) for p in self.patterns])

    def __iter__(self):
        return iter(self.patterns)

    def __str__(self) -> str:
        return ",".join("".join(str(v) for v in p) for p in self.patterns)


def avoids_all(word: Sequence[int], patterns: PatternSet) -> bool:
    """True iff word avoids every pattern of the set."""
    return not any(occurs(word, plan) for plan in patterns.plans)


# ---------------------------------------------------------------------------
# alternating / doubly alternating / Baxter


def signature(word: Sequence) -> tuple[str, ...]:
    """'+' at i iff w_i < w_{i+1}; ties and descents are '-'.

    Entries may be None (gaps); a comparison touching a gap yields '.'.

    >>> "".join(signature((4, 1, 5, 5, 6, 2, 2)))
    '-+-+--'
    """
    out = []
    for a, b in zip(word, word[1:]):
        if a is None or b is None:
            out.append(".")
        elif a < b:
            out.append("+")
        else:
            out.append("-")
    return tuple(out)


def is_alternating(word: Sequence, mode: Literal["up-down", "down-up"] = "up-down") -> bool:
    """Strict rise at odd positions and weak descent at even (up-down mode).

    Gap entries (None) remove both comparisons touching them; only the
    comparisons that exist are required to hold.

    >>> is_alternating((2, 7, 4, 8, 3, 6, 1, 5))
    True
    >>> is_alternating((2, 1)), is_alternating((2, 1), "down-up")
    (False, True)
    """
    sig = signature(word)
    for i, s in enumerate(sig):  # i is 0-based; position i+1 in math terms
        if s == ".":
            continue
        want_rise = (i % 2 == 0) if mode == "up-down" else (i % 2 == 1)
        if want_rise and s != "+":
            return False
        if not want_rise and s != "-":
            return False
    return True


def is_doubly_alternating(word: Sequence[int]) -> bool:
    """True iff the permutation and its inverse are both up-down alternating.

    The empty permutation counts as doubly alternating.

    >>> is_doubly_alternating((7, 9, 3, 8, 1, 10, 5, 6, 2, 4))
    True
    >>> is_doubly_alternating((2, 7, 4, 8, 3, 6, 1, 5))
    False
    """
    word = tuple(word)
    return is_alternating(word) and is_alternating(inverse(word))


def is_baxter(word: Sequence[int]) -> bool:
    """Check the two four-index implications defining Baxter permutations."""
    w = tuple(word)
    n = len(w)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    if w[i] + 1 == w[l] and w[j] > w[l] and not w[k] > w[l]:
                        return False
                    if w[l] + 1 == w[i] and w[k] > w[i] and not w[j] > w[i]:
                        return False
    return True


# ---------------------------------------------------------------------------
# partial permutations


@dataclass(frozen=True, order=True)
class PartialPermutation:
    """Rectangular dot matrix with at most one dot per row and column.

    Rows, columns and dot coordinates are 1-based.
    """

    rows: int
    cols: int
    dots: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        dots = tuple(sorted(self.dots))
        object.__setattr__(self, "dots", dots)
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        seen_r, seen_c = set(), set()
        for r, c in dots:
            if not (1 <= r <= self.rows and 1 <= c <= self.cols):
                raise ValueError(f"dot {(r, c)} outside {self.rows}x{self.cols}")
            if r in seen_r or c in seen_c:
                raise ValueError("two dots share a row or column")
            seen_r.add(r)
            seen_c.add(c)

    # -- derived quantities -------------------------------------------------
    @property
    def d(self) -> int:
        return len(self.dots)

    @property
    def r(self) -> int:
        return self.rows - self.d

    @property
    def c(self) -> int:
        return self.cols - self.d

    @property
    def size(self) -> int:
        """Size of the permutations extending this object (d + c + r)."""
        return self.rows + self.cols - self.d

    def empty_rows(self) -> tuple[int, ...]:
        used = {r for r, _ in self.dots}
        return tuple(i for i in range(1, self.rows + 1) if i not in used)

    def empty_cols(self) -> tuple[int, ...]:
        used = {c for _, c in self.dots}
        return tuple(j for j in range(1, self.cols + 1) if j not in used)

    def word(self) -> GappedWord:
        """One entry per row: the dot column, or None for an empty row."""
        by_row = dict(self.dots)
        return tuple(by_row.get(i) for i in range(1, self.rows + 1))

    def is_zero(self) -> bool:
        return self.rows == 0 and self.cols == 0

    # -- constructors ---------------------------------------------------------
    @classmethod
    def _trusted(cls, rows: int, cols: int, dots: tuple[tuple[int, int], ...]) -> "PartialPermutation":
        """Build without validation, for objects derived from a valid one.

        ``dots`` must already be sorted, as ``__post_init__`` would leave it.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "rows", rows)
        object.__setattr__(obj, "cols", cols)
        object.__setattr__(obj, "dots", dots)
        return obj

    @classmethod
    def from_word(cls, word: Sequence, cols: int | None = None) -> "PartialPermutation":
        dots = tuple((i + 1, v) for i, v in enumerate(word) if v is not None)
        if cols is None:
            cols = len(dots)
        return cls(len(word), cols, dots)

    @classmethod
    def from_permutation(cls, word: Sequence[int]) -> "PartialPermutation":
        if not is_permutation(word):
            raise ValueError(f"not a permutation: {word}")
        return cls.from_word(tuple(word))

    # -- text / JSON forms ----------------------------------------------------
    def to_text(self) -> str:
        """One-line form, '_' for empty rows, '|cols' suffix if empty columns exist.

        >>> PartialPermutation.from_word((3, None, None, 2, 6, 5), cols=6).to_text()
        '3,_,_,2,6,5|6'
        """
        body = ",".join("_" if v is None else str(v) for v in self.word())
        if self.c > 0 or (self.rows == 0 and self.cols > 0):
            return f"{body}|{self.cols}"
        return body

    @classmethod
    def from_text(cls, text: str) -> "PartialPermutation":
        text = text.strip()
        body, _, suffix = text.partition("|")
        entries: list[int | None] = []
        if body:
            for tok in body.split(","):
                tok = tok.strip()
                entries.append(None if tok == "_" else int(tok))
        cols = int(suffix) if suffix else None
        return cls.from_word(tuple(entries), cols=cols)

    def to_json(self) -> str:
        return json.dumps(
            {"rows": self.rows, "cols": self.cols, "dots": [list(d) for d in self.dots]}
        )

    @classmethod
    def from_json(cls, text: str) -> "PartialPermutation":
        obj = json.loads(text)
        return cls(obj["rows"], obj["cols"], tuple((r, c) for r, c in obj["dots"]))


ZERO = PartialPermutation(0, 0)

ParentRule = Literal["standard", "standard-extended", "alt-extended"]


# ---------------------------------------------------------------------------
# extendable avoidance


def extensions(pp: PartialPermutation, patterns: PatternSet) -> Iterator[Word]:
    """All permutations in S_{d+c+r}(patterns) having pp as their NW corner.

    Empty rows of pp receive their dots strictly right of pp's columns and
    empty columns strictly below pp's rows.  The permutations come lazily
    from the driver of ``kernels``, so the first one costs only the search
    that finds it.
    """
    n = pp.size
    by_row = dict(pp.dots)
    fixed = [by_row.get(i) for i in range(1, pp.rows + 1)] + [None] * (n - pp.rows)
    rows, cols = pp.rows, pp.cols

    def candidates(word: list[int], used: list[bool], pos: int) -> Iterable[int]:
        forced = fixed[pos]
        if forced is not None:
            return (forced,)
        # empty rows of pp only accept values beyond pp's columns; rows below
        # pp come after every dot row, so the dot columns are already used
        low = cols + 1 if pos < rows else 1
        return (v for v in range(low, n + 1) if not used[v])

    return avoiding_words(n, patterns.plans, candidates)


@lru_cache(maxsize=1 << 18)
def extendably_avoids(pp: PartialPermutation, patterns: PatternSet) -> bool:
    """True iff pp is the NW corner of some avoider of size d+c+r.

    One search per object; the tests check ``children_with_kinds``, which
    decides children without it, against this.
    """
    if pp.is_zero():
        return True
    return next(extensions(pp, patterns), None) is not None


# ---------------------------------------------------------------------------
# parent rules and children


def parent(pp: PartialPermutation, rule: ParentRule = "standard-extended") -> PartialPermutation:
    """The parent of pp under the given rule; raises ZeroObject on the root."""
    if pp.is_zero():
        raise ZeroObject("the zero object has no parent")
    if rule == "standard":
        if pp.r or pp.c:
            raise ValueError("the standard rule applies to full permutations only")
        return _remove_rightmost_dot(pp)
    empties = pp.empty_rows()
    if empties:
        target = max(empties) if rule == "standard-extended" else min(empties)
        return _remove_row(pp, target)
    if pp.cols and not any(c == pp.cols for _, c in pp.dots):
        return PartialPermutation(pp.rows, pp.cols - 1, pp.dots)
    if not pp.dots:
        raise ZeroObject("no rows, columns or dots to remove")
    return _remove_rightmost_dot(pp)


def _remove_rightmost_dot(pp: PartialPermutation) -> PartialPermutation:
    row, col = max(pp.dots, key=lambda rc: rc[1])
    dots = tuple(
        (r - (r > row), c - (c > col)) for r, c in pp.dots if (r, c) != (row, col)
    )
    return PartialPermutation(pp.rows - 1, pp.cols - 1, dots)


def _remove_row(pp: PartialPermutation, row: int) -> PartialPermutation:
    dots = tuple((r - (r > row), c) for r, c in pp.dots)
    return PartialPermutation(pp.rows - 1, pp.cols, dots)


def _insert_dot(pp: PartialPermutation, site: int) -> PartialPermutation:
    dots = (
        tuple((r, c) for r, c in pp.dots if r < site)
        + ((site, pp.cols + 1),)
        + tuple((r + 1, c) for r, c in pp.dots if r >= site)
    )
    return PartialPermutation._trusted(pp.rows + 1, pp.cols + 1, dots)


def _insert_row(pp: PartialPermutation, site: int) -> PartialPermutation:
    dots = tuple((r + (r >= site), c) for r, c in pp.dots)
    return PartialPermutation._trusted(pp.rows + 1, pp.cols, dots)


def _admits(words: list[Word], inserts: Sequence[tuple[int, int]], plans: Sequence[Plan]) -> bool:
    """Does inserting value b at index i into some extension keep it an avoider?

    Entries >= b are raised by one first.  Each word avoids the compiled
    patterns, so a new occurrence must end at or after index i.
    """
    for word in words:
        for i, b in inserts:
            new = [v + (v >= b) for v in word]
            new.insert(i, b)
            if not any(
                _ends_at_last(new, k, plan)
                for k in range(i + 1, len(new) + 1)
                for plan in plans
            ):
                return True
    return False


EdgeKind = Literal["dot", "column", "row"]


@lru_cache(maxsize=1 << 16)
def children_with_kinds(
    pp: PartialPermutation, rule: ParentRule, patterns: PatternSet
) -> tuple[tuple[EdgeKind, PartialPermutation], ...]:
    """All extendably avoiding objects whose parent is pp, in canonical order.

    Order: dot insertions by site top to bottom, then the column addition,
    then row insertions by site top to bottom.

    Under the extended rules a child is decided on the extensions of pp,
    not by a search of its own: deleting the child's new entry from an
    extension of the child and standardizing gives an extension of pp, so
    the child is extendable iff its new entry can be inserted into some
    extension of pp without creating an occurrence.  ``extendably_avoids``
    is the oracle of this shortcut.
    """
    out: list[tuple[EdgeKind, PartialPermutation]] = []
    empties = pp.empty_rows()
    if rule == "standard":
        if pp.r or pp.c:
            raise ValueError("the standard rule applies to full permutations only")
        for site in range(1, pp.rows + 2):
            child = _insert_dot(pp, site)
            if avoids_all(child.word(), patterns):
                out.append(("dot", child))
        return tuple(out)
    exts = list(extensions(pp, patterns))
    n, top = pp.size, pp.cols + 1
    dot_ok: dict[int, bool] = {}
    if not empties:
        for site in range(1, pp.rows + 2):
            dot_ok[site] = _admits(exts, ((site - 1, top),), patterns.plans)
            if dot_ok[site]:
                out.append(("dot", _insert_dot(pp, site)))
        # the bottom dot child is the column child with its new column
        # entry in the first row below pp
        if dot_ok[pp.rows + 1] or _admits(
            exts, [(i, top) for i in range(pp.rows + 1, n + 1)], patterns.plans
        ):
            out.append(("column", PartialPermutation._trusted(pp.rows, pp.cols + 1, pp.dots)))
    if rule == "standard-extended":
        low = max(empties) + 1 if empties else 1
        sites = range(low, pp.rows + 2)
    else:
        high = min(empties) if empties else pp.rows + 1
        sites = range(1, high + 1)
    for site in sites:
        # without empty rows the child has size cols + 1, so its new row
        # can only take the value cols + 1: the dot child's insertion
        ok = dot_ok.get(site)
        if ok is None:
            ok = _admits(exts, [(site - 1, b) for b in range(top, n + 2)], patterns.plans)
        if ok:
            out.append(("row", _insert_row(pp, site)))
    return tuple(out)


def children(
    pp: PartialPermutation, rule: ParentRule, patterns: PatternSet
) -> list[PartialPermutation]:
    return [child for _, child in children_with_kinds(pp, rule, patterns)]
