"""Partitions, bounded skew shapes and semistandard Young tableaux.

Every tableau carries two bounding boxes fixed at construction: one for its
own shape and one for the companion side, whose height is the letter bound.
All 180-degree rotations are taken with respect to these boxes, which is
what makes rotation an involution.  Weight vectors have fixed length equal
to the companion box height.

The Littlewood-Richardson filling rule is stated once, in ``lr_search``:
``enumerate_lr`` builds a tableau at each filling it reaches, and
``involutions.lr_coefficient`` counts the fillings without building them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import ge, le, lt, sub
from typing import Callable, Iterator, Sequence

from .errors import NotATableau, NotDominant

Partition = tuple[int, ...]
Grid = dict[tuple[int, int], int]

# The orientation of a tableau's image under a branch-exchanging map.
FLIP_ORIENTATION = {"lr": "anti", "anti": "lr", None: None}

# ---------------------------------------------------------------------------
# partitions


def is_partition(parts: Sequence[int]) -> bool:
    """Weakly decreasing and positive: a weakly decreasing sequence is
    positive exactly when its last part is."""
    return all(map(ge, parts, parts[1:])) and (not parts or parts[-1] > 0)


def normalize(parts: Sequence[int]) -> Partition:
    """Drop trailing zeros; keep weak decrease."""
    out = tuple(parts)
    end = len(out)
    while end and out[end - 1] == 0:
        end -= 1
    out = out[:end]
    if not is_partition(out):
        raise ValueError(f"not a partition: {parts}")
    return out


def contains(outer: Partition, inner: Partition) -> bool:
    """Whether the partition inner fits inside the partition outer."""
    return len(inner) <= len(outer) and all(map(le, inner, outer))


def complement_in_box(parts: Partition, rows: int, cols: int) -> Partition:
    """The 180-degree complement of a partition inside a rows x cols box."""
    if len(parts) > rows or (parts and parts[0] > cols):
        raise ValueError(f"{parts} does not fit in a {rows}x{cols} box")
    padded = list(parts) + [0] * (rows - len(parts))
    return normalize(tuple(cols - p for p in reversed(padded)))


def partitions_in_box(rows: int, cols: int) -> list[Partition]:
    """All partitions fitting in a rows x cols box, lexicographic."""
    out: list[Partition] = []

    def rec(prefix: list[int], maximum: int):
        out.append(normalize(tuple(prefix)))
        if len(prefix) == rows:
            return
        for part in range(1, maximum + 1):
            prefix.append(part)
            rec(prefix, part)
            prefix.pop()

    rec([], cols)
    return sorted(set(out))


def partitions_of(n: int, max_part: int | None = None, max_len: int | None = None) -> list[Partition]:
    """All partitions of n, optionally bounded."""
    max_part = n if max_part is None else min(max_part, n)
    max_len = n if max_len is None else max_len
    out: list[Partition] = []

    def rec(remaining: int, maximum: int, prefix: list[int]):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_len:
            return
        for part in range(min(maximum, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, max_part, [])
    return out


# ---------------------------------------------------------------------------
# the tableau value


@dataclass(frozen=True)
class SkewTableau:
    """Semistandard filling of outer/inner with two fixed bounding boxes.

    ``rows[i]`` holds the entries of row i left to right; ``box1`` bounds
    the shape side, ``box2`` the companion side (its height is the letter
    bound).  ``orientation`` distinguishes the two branches of the disjoint
    union on which the fundamental symmetry map acts.
    """

    outer: Partition
    inner: Partition
    rows: tuple[tuple[int, ...], ...]
    box1: tuple[int, int]
    box2: tuple[int, int]
    orientation: str | None = None

    def __post_init__(self):
        outer, inner, rows = self.outer, self.inner, self.rows
        for side, parts in (("outer", outer), ("inner", inner)):
            if not is_partition(parts):
                raise NotATableau(f"{side} {parts} is not a partition")
        if not contains(outer, inner):
            raise NotATableau(f"inner {inner} not contained in outer {outer}")
        if len(rows) != len(outer):
            raise NotATableau("row count does not match the shape")
        pad_inner = inner + (0,) * (len(outer) - len(inner))
        r1, c1 = self.box1
        if len(outer) > r1 or (outer and outer[0] > c1):
            raise NotATableau(f"shape {outer} does not fit its box {self.box1}")
        # the checks below only decide; _name_fault names the fault
        top = self.box2[0]
        if list(map(len, rows)) != list(map(sub, outer, pad_inner)):
            self._name_fault(pad_inner)
        for row in rows:
            # a weakly increasing row is within the letter bound exactly
            # when its two end entries are
            if row and not (1 <= row[0] and row[-1] <= top and all(map(le, row, row[1:]))):
                self._name_fault(pad_inner)
        for i in range(1, len(outer)):
            # the columns rows i - 1 and i share, as slices of the two rows
            p, q = pad_inner[i - 1], pad_inner[i]
            lo = p if p > q else q
            hi = outer[i] if outer[i] < outer[i - 1] else outer[i - 1]
            if lo < hi and not all(map(lt, rows[i - 1][lo - p : hi - p], rows[i][lo - q : hi - q])):
                self._name_fault(pad_inner)

    def _name_fault(self, pad_inner: Partition) -> None:
        """Raise for the first faulty row, entry or column, in the order
        rows (length, order, letters) and then columns, left to right."""
        r2 = self.box2[0]
        for i, row in enumerate(self.rows):
            if len(row) != self.outer[i] - pad_inner[i]:
                raise NotATableau(f"row {i} has the wrong length")
            for a, b in zip(row, row[1:]):
                if a > b:
                    raise NotATableau(f"row {i} not weakly increasing")
            for v in row:
                if not 1 <= v <= r2:
                    raise NotATableau(f"entry {v} outside letter bound {r2}")
        for i in range(len(self.outer) - 1):
            lo = max(pad_inner[i], pad_inner[i + 1])
            hi = min(self.outer[i], self.outer[i + 1])
            for col in range(lo, hi):
                above = self.rows[i][col - pad_inner[i]]
                below = self.rows[i + 1][col - pad_inner[i + 1]]
                if above >= below:
                    raise NotATableau(f"column {col} not strictly increasing")
        raise AssertionError("a tableau check failed but named no fault")

    @classmethod
    def _trusted(
        cls,
        outer: Partition,
        inner: Partition,
        rows: tuple[tuple[int, ...], ...],
        box1: tuple[int, int],
        box2: tuple[int, int],
        orientation: str | None,
    ) -> "SkewTableau":
        """Build without validation, for output that is valid by
        construction: the word-route maps, rotation, orientation changes,
        canonical tableaux and the enumerators.  The tests check those
        outputs against the sliding routes, the recording-matrix route, brute
        force and the validating constructor."""
        obj = object.__new__(cls)
        set_ = object.__setattr__
        set_(obj, "outer", outer)
        set_(obj, "inner", inner)
        set_(obj, "rows", rows)
        set_(obj, "box1", box1)
        set_(obj, "box2", box2)
        set_(obj, "orientation", orientation)
        return obj

    # -- basics ---------------------------------------------------------------
    @property
    def letters(self) -> int:
        return self.box2[0]

    def padded_inner(self) -> Partition:
        return self.inner + (0,) * (len(self.outer) - len(self.inner))

    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def weight(self) -> tuple[int, ...]:
        counts = [0] * self.letters
        for row in self.rows:
            for v in row:
                counts[v - 1] += 1
        return tuple(counts)

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """(row, col, value), 0-based coordinates."""
        pad = self.padded_inner()
        for i, row in enumerate(self.rows):
            for k, v in enumerate(row):
                yield (i, pad[i] + k, v)

    def pretty(self) -> str:
        if not self.outer:
            return "(empty)"
        pad = self.padded_inner()
        lines = []
        for i, row in enumerate(self.rows):
            cells = [" ."] * pad[i] + [f"{v:2d}" for v in row]
            lines.append(" ".join(cells))
        return "\n".join(lines)

    # -- serialization ---------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "outer": list(self.outer),
                "inner": list(self.inner),
                "boxShape": list(self.box1),
                "boxCompanion": list(self.box2),
                "rows": [list(r) for r in self.rows],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SkewTableau":
        obj = json.loads(text)

        def ints(key: str, values) -> tuple[int, ...]:
            values = tuple(values)
            if any(type(v) is not int for v in values):  # also refuses bools
                raise NotATableau(f"{key} must hold integers, got {list(values)}")
            return values

        return cls(
            normalize(ints("outer", obj["outer"])),
            normalize(ints("inner", obj["inner"])),
            tuple(ints("rows", r) for r in obj["rows"]),
            ints("boxShape", obj["boxShape"]),
            ints("boxCompanion", obj["boxCompanion"]),
        )


def make_tableau(
    rows: Sequence[Sequence[int]],
    inner: Sequence[int] = (),
    box1: tuple[int, int] | None = None,
    box2: tuple[int, int] | None = None,
    orientation: str | None = None,
) -> SkewTableau:
    """Build a tableau with minimal default bounding boxes."""
    inner_n = normalize(inner)
    pad_inner = tuple(inner_n) + (0,) * max(0, len(rows) - len(inner_n))
    outer = normalize(tuple(pad_inner[i] + len(rows[i]) for i in range(len(rows))))
    rows_t = tuple(tuple(r) for r in rows[: len(outer)])
    if box1 is None:
        box1 = (len(outer), outer[0] if outer else 0)
    maxval = max((v for r in rows_t for v in r), default=0)
    if box2 is None:
        weight = [0] * max(maxval, 1)
        for r in rows_t:
            for v in r:
                weight[v - 1] += 1
        box2 = (maxval, max(weight) if any(weight) else 0)
    return SkewTableau(outer, inner_n, rows_t, box1, box2, orientation)


EMPTY = make_tableau([])


def grid_rows(grid: Grid, outer: Partition, inner: Partition = ()) -> tuple[tuple[int, ...], ...]:
    """The rows of outer/inner read off a {(row, col): entry} grid."""
    pad = inner + (0,) * (len(outer) - len(inner))
    return tuple(tuple(grid[(r, c)] for c in range(pad[r], outer[r])) for r in range(len(outer)))


# ---------------------------------------------------------------------------
# words and the Littlewood-Richardson condition


def reading_word(t: SkewTableau) -> tuple[int, ...]:
    """Rows top to bottom, each row right to left."""
    out: list[int] = []
    for row in t.rows:
        out.extend(reversed(row))
    return tuple(out)


def word_weight(word: Sequence[int], letters: int | None = None) -> tuple[int, ...]:
    letters = max(word, default=0) if letters is None else letters
    counts = [0] * letters
    for v in word:
        counts[v - 1] += 1
    return tuple(counts)


def is_yamanouchi(word: Sequence[int]) -> bool:
    """Every prefix weight is weakly decreasing."""
    counts: dict[int, int] = {}
    for v in word:
        counts[v] = counts.get(v, 0) + 1
        if v > 1 and counts[v] > counts.get(v - 1, 0):
            return False
    return True


def is_lr(t: SkewTableau) -> bool:
    return is_yamanouchi(reading_word(t))


def is_anti_lr(t: SkewTableau) -> bool:
    return is_lr(rotate(t))


# ---------------------------------------------------------------------------
# recording matrices and companions


def recording_matrix(t: SkewTableau) -> tuple[tuple[int, ...], ...]:
    """m[i][j] = number of (j+1)'s in row i, padded to box1 rows x letters."""
    r1 = t.box1[0]
    letters = t.letters
    m = [[0] * letters for _ in range(r1)]
    for i, row in enumerate(t.rows):
        for v in row:
            m[i][v - 1] += 1
    return tuple(tuple(r) for r in m)


def tableau_from_recording(
    outer: Partition,
    inner: Partition,
    matrix: Sequence[Sequence[int]],
    box1: tuple[int, int],
    box2: tuple[int, int],
    orientation: str | None = None,
) -> SkewTableau:
    """Fill row i with m[i][0] ones then m[i][1] twos and so on.

    Raises NotATableau when column-strictness fails, which is exactly the
    failure mode of the dominance test.
    """
    outer = normalize(outer)
    inner = normalize(inner)
    pad_inner = inner + (0,) * (len(outer) - len(inner))
    rows = []
    for i in range(len(outer)):
        row: list[int] = []
        counts = matrix[i] if i < len(matrix) else ()
        for j, c in enumerate(counts):
            row.extend([j + 1] * c)
        if len(row) != outer[i] - pad_inner[i]:
            raise NotATableau(f"row {i} sums do not match the shape")
        rows.append(tuple(row))
    return SkewTableau(outer, inner, tuple(rows), box1, box2, orientation)


def transpose_matrix(m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def is_dominant(t: SkewTableau, comp_outer: Partition, comp_inner: Partition = ()) -> bool:
    try:
        companion(t, comp_outer, comp_inner)
        return True
    except NotDominant:
        return False


def companion(
    t: SkewTableau, comp_outer: Partition, comp_inner: Partition = ()
) -> SkewTableau:
    """The unique companion of the given shape: transposed recording matrix.

    Requires weight(t) = comp_outer - comp_inner componentwise.
    """
    comp_outer = normalize(comp_outer)
    comp_inner = normalize(comp_inner)
    if not contains(comp_outer, comp_inner):
        raise NotDominant("companion shape is not a skew shape")
    letters = t.letters
    if len(comp_outer) > letters:
        raise NotDominant("companion shape taller than the letter bound")
    pad_outer = comp_outer + (0,) * (letters - len(comp_outer))
    pad_inner = comp_inner + (0,) * (letters - len(comp_inner))
    diff = tuple(a - b for a, b in zip(pad_outer, pad_inner))
    if diff != t.weight():
        raise NotDominant(
            f"weight {t.weight()} does not match companion shape difference {diff}"
        )
    if comp_outer and comp_outer[0] > t.box2[1]:
        raise NotDominant(f"companion shape {comp_outer} exceeds its box {t.box2}")
    mt = transpose_matrix(recording_matrix(t))
    try:
        return tableau_from_recording(
            comp_outer, comp_inner, mt, box1=t.box2, box2=t.box1,
            orientation=t.orientation,
        )
    except NotATableau as exc:
        raise NotDominant(str(exc)) from exc


# ---------------------------------------------------------------------------
# rotation


def rotate(t: SkewTableau) -> SkewTableau:
    """180-degree rotation with respect to the two fixed bounding boxes."""
    r1, c1 = t.box1
    new_outer = complement_in_box(t.inner, r1, c1)
    new_inner = complement_in_box(t.outer, r1, c1)
    top = t.letters + 1
    padded = t.rows + ((),) * (r1 - len(t.rows))
    rows = tuple(tuple(top - v for v in reversed(row)) for row in reversed(padded))
    return SkewTableau._trusted(
        new_outer, new_inner, rows[: len(new_outer)], t.box1, t.box2,
        FLIP_ORIENTATION[t.orientation],
    )


# ---------------------------------------------------------------------------
# canonical tableaux


def _fits(
    outer: Partition, inner: Partition, box1: tuple[int, int], box2: tuple[int, int], top: int
) -> bool:
    """Whether every filling of outer/inner with letters 1..top passes the
    shape, box and letter-bound checks of the constructor; its callers
    build rows and columns that pass the rest by construction."""
    return (
        contains(outer, inner)
        and len(outer) <= box1[0]
        and (not outer or outer[0] <= box1[1])
        and top <= box2[0]
    )


def canonical(
    shape: Partition,
    box1: tuple[int, int] | None = None,
    box2: tuple[int, int] | None = None,
    orientation: str | None = "lr",
) -> SkewTableau:
    """Row i filled with the letter i; the unique LR tableau of its shape
    that is also partition shaped."""
    shape = normalize(shape)
    rows = tuple(tuple([i + 1] * p) for i, p in enumerate(shape))
    if box1 is None:
        box1 = (len(shape), shape[0] if shape else 0)
    if box2 is None:
        box2 = (len(shape), shape[0] if shape else 0)
    build = SkewTableau._trusted if _fits(shape, (), box1, box2, len(shape)) else SkewTableau
    return build(shape, (), rows, box1, box2, orientation)


# ---------------------------------------------------------------------------
# enumeration


def _rows_over(
    bounds: Sequence[int], top: int, left: list[int] | None
) -> Iterator[tuple[int, ...]]:
    """Weakly increasing rows with entry k at least bounds[k] and at most
    top, lexicographic.  With ``left``, a row holds at most left[v-1] copies
    of v, and ``left`` is reduced by the row while it is yielded."""
    row: list[int] = []
    last = len(bounds)

    def fill(k: int, lo: int) -> Iterator[tuple[int, ...]]:
        if k == last:
            yield tuple(row)
            return
        for v in range(max(lo, bounds[k]), top + 1):
            if left is not None:
                if not left[v - 1]:
                    continue
                left[v - 1] -= 1
            row.append(v)
            yield from fill(k + 1, v)
            row.pop()
            if left is not None:
                left[v - 1] += 1

    return fill(0, 1)


def enumerate_ssyt(
    outer: Partition,
    inner: Partition = (),
    max_letter: int = 0,
    weight: Partition | None = None,
    box1: tuple[int, int] | None = None,
    box2: tuple[int, int] | None = None,
) -> Iterator[SkewTableau]:
    """All semistandard fillings of outer/inner, deterministic order.

    Either a letter bound or a weight vector must be given; the weight caps
    the number of copies of each letter.  The filling is chosen a row at a
    time, top to bottom: a row is weakly increasing, and each entry exceeds
    the one above it, so the fillings come out lexicographic in the rows.
    The fillings of the rows below a given row (with given letters left) are
    listed once and shared by every filling above it, and the candidates for
    a row under given lower bounds once per call.
    """
    outer = normalize(outer)
    inner = normalize(inner)
    if weight is not None and max_letter == 0:
        max_letter = len(weight)
    if max_letter <= 0 and sum(outer) > sum(inner):
        raise ValueError("a letter bound or weight is required")
    pad = inner + (0,) * (len(outer) - len(inner))
    b1 = box1 or (len(outer), outer[0] if outer else 0)
    b2 = box2 or (max_letter, max(sum(outer) - sum(inner), 1))
    start = tuple(weight) if weight is not None else None
    top = max_letter if start is None else min(max_letter, len(start))
    build = SkewTableau._trusted if _fits(outer, inner, b1, b2, top) else SkewTableau
    last = len(outer) - 1
    by_bounds: dict[tuple[int, ...], list] = {}  # options without a weight
    memo: dict[tuple, list[tuple]] = {}

    def options(i: int, above: tuple[int, ...], left: tuple[int, ...] | None) -> list:
        """(row i, letters left after it) for each row i can hold under above."""
        off = pad[i - 1] if i else outer[0]  # the first row has nothing above
        bounds = tuple(above[c - off] + 1 if c >= off else 1 for c in range(pad[i], outer[i]))
        if left is not None:
            counts = list(left)
            return [(row, tuple(counts)) for row in _rows_over(bounds, top, counts)]
        if bounds not in by_bounds:
            by_bounds[bounds] = [(row, None) for row in _rows_over(bounds, top, None)]
        return by_bounds[bounds]

    def below(i: int, above: tuple[int, ...], left: tuple[int, ...] | None) -> list[tuple]:
        """Every filling of rows i..last under above, as a tuple of rows."""
        key = (i, above, left)
        if key not in memo:
            if i > last:
                memo[key] = [()]
            else:
                memo[key] = [
                    (row,) + rest
                    for row, rest_left in options(i, above, left)
                    for rest in below(i + 1, row, rest_left)
                ]
        return memo[key]

    def fillings() -> Iterator[SkewTableau]:
        for rows in below(0, (), start):
            yield build(outer, inner, rows, b1, b2, None)

    return fillings()


def lr_search(
    outer: Partition,
    inner: Partition,
    weight: Partition,
    leaf: Callable[[list[int]], None] | None = None,
) -> int:
    """The number of Littlewood-Richardson fillings of outer/inner with the
    given weight, all three normalized; the one search behind both
    ``enumerate_lr`` and ``involutions.lr_coefficient``.

    Cells are filled in reading order (rows top to bottom, each right to
    left), so a cell's right neighbour and the cell above it are filled
    before it, and the Yamanouchi condition prunes a prefix of the reading
    word as soon as some letter v outnumbers v - 1 in it.  With ``leaf``,
    each filling's reading word is passed to it, in lexicographic order of
    the reading words; the list is reused, so copy what is kept.
    """
    if sum(outer) - sum(inner) != sum(weight):
        return 0
    pad = inner + (0,) * (len(outer) - len(inner))
    letters = len(weight)
    right: list[int] = []  # reading index of the right neighbour
    above: list[int] = []  # reading index of the cell above
    starts: list[int] = []
    for i, (o, p) in enumerate(zip(outer, pad)):
        starts.append(len(right))
        for c in range(o - 1, p - 1, -1):
            right.append(len(right) - 1 if c < o - 1 else -2)
            above.append(starts[i - 1] + outer[i - 1] - 1 - c if i and c >= pad[i - 1] else -1)
    size = len(right)
    # word[-1] = 0 stands for "nothing above", word[-2] = letters for
    # "nothing to the right"
    word = [0] * size + [letters, 0]
    cap = (0,) + weight
    used = [size + 1] + [0] * letters  # used[0] never binds the Yamanouchi test

    def fill(idx: int) -> int:
        if idx == size:
            if leaf is not None:
                leaf(word)
            return 1
        found = 0
        for v in range(word[above[idx]] + 1, word[right[idx]] + 1):
            k = used[v]
            # k < used[v - 1]: the reading word stays Yamanouchi
            if k < cap[v] and k < used[v - 1]:
                used[v] = k + 1
                word[idx] = v
                found += fill(idx + 1)
                used[v] = k
        return found

    return fill(0)


def enumerate_lr(
    outer: Partition,
    inner: Partition,
    weight: Partition,
    box1: tuple[int, int] | None = None,
    box2: tuple[int, int] | None = None,
) -> Iterator[SkewTableau]:
    """All Littlewood-Richardson fillings of outer/inner with the given
    weight, found by ``lr_search`` and built as it reaches them."""
    outer = normalize(outer)
    inner = normalize(inner)
    weight = normalize(weight)
    pad_inner = inner + (0,) * (len(outer) - len(inner))
    spans = []  # where each row's cells sit in the reading word
    start = 0
    for o, p in zip(outer, pad_inner):
        spans.append((start, start + o - p))
        start += o - p
    b1 = box1 or (len(outer), outer[0] if outer else 0)
    b2 = box2 or (len(weight), weight[0] if weight else 0)
    build = SkewTableau._trusted if _fits(outer, inner, b1, b2, len(weight)) else SkewTableau
    out: list[SkewTableau] = []

    def leaf(word: list[int]) -> None:
        rows = tuple(tuple(word[a:b][::-1]) for a, b in spans)
        out.append(build(outer, inner, rows, b1, b2, "lr"))

    lr_search(outer, inner, weight, leaf)
    return iter(out)
