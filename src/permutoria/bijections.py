"""Explicit bijections between pattern-avoiding permutation families.

Three maps live here: the insertion-tableau bijection between avoiders of
an increasing length-4 pattern and doubly alternating avoiders of twice the
size; the block decomposition onto Dyck paths; and the active-region
rewiring between the 12-prefixed and 21-prefixed avoiding families.
Active regions are read with the one pattern matcher, on plans compiled
once per tail (``kernels.occurs``); this module runs no search of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Sequence

from .errors import (
    NoPlacement,
    NotAlternating,
    NotAvoider,
    NotInDomain,
    NotYamanouchi,
    TooManyColumns,
)
from .involutions import (
    matrix_to_permutation,
    permutation_matrix,
    rsk_matrix,
    rsk_matrix_inverse,
)
from .kernels import Plan, compile_pattern, occurs
from .permcore import (
    PatternSet,
    Word,
    avoids_all,
    is_alternating,
    is_doubly_alternating,
    standardize,
)
from .tableau import SkewTableau, is_yamanouchi

DyckPath = str  # 'U'/'D' letters, balanced, prefixes nonnegative


def is_dyck_path(path: str) -> bool:
    height = 0
    for step in path:
        if step == "U":
            height += 1
        elif step == "D":
            height -= 1
        else:
            return False
        if height < 0:
            return False
    return height == 0


# ---------------------------------------------------------------------------
# column words of standard tableaux


def column_word(t: SkewTableau) -> tuple[int, ...]:
    """column_word(t)[k-1] = 1-based column of the entry k."""
    pos = {}
    for r, c, v in t.cells():
        pos[v] = c + 1
    return tuple(pos[k] for k in range(1, t.size() + 1))


def row_word(t: SkewTableau) -> tuple[int, ...]:
    pos = {}
    for r, c, v in t.cells():
        pos[v] = r + 1
    return tuple(pos[k] for k in range(1, t.size() + 1))


def syt_from_column_word(word: Sequence[int]) -> SkewTableau:
    """Rebuild the standard tableau whose k-th entry sits in column word[k-1]."""
    if not is_yamanouchi(word):
        raise NotYamanouchi(f"column word {word} is not Yamanouchi")
    heights: dict[int, int] = {}
    rows: list[list[int]] = []
    for k, col in enumerate(word, start=1):
        r = heights.get(col, 0)
        heights[col] = r + 1
        if r == len(rows):
            rows.append([])
        rows[r].append(k)
    from .tableau import make_tableau

    n = len(word)
    return make_tableau([tuple(r) for r in rows], box2=(n, max(1, n)))


def is_alternating_tableau(t: SkewTableau) -> bool:
    """Membership test via the column reading."""
    return is_alternating(column_word(t), "up-down")


# ---------------------------------------------------------------------------
# the pair column reading


_PAIR_OF = {1: (1, 2), 2: (1, 3), 3: (2, 3)}


def colpair(t: SkewTableau) -> tuple[int, ...]:
    """Fuse the column word pairwise: (1,2)->1, (1,3)->2, (2,3)->3."""
    word = column_word(t)
    if len(word) % 2:
        raise NotAlternating("the tableau must have an even number of entries")
    if any(c > 3 for c in word):
        raise TooManyColumns("at most three columns allowed")
    if not is_alternating_tableau(t):
        raise NotAlternating("the column reading must be up-down alternating")
    out = []
    for i in range(0, len(word), 2):
        pair = (word[i], word[i + 1])
        letter = word[i] + word[i + 1] - 2
        if _PAIR_OF.get(letter) != pair:
            raise NotAlternating(f"forbidden column pair {pair}")
        out.append(letter)
    return tuple(out)


def colpair_inverse(word: Sequence[int]) -> SkewTableau:
    """The alternating standard tableau whose fused column word is given."""
    if any(not 1 <= w <= 3 for w in word):
        raise TooManyColumns("letters must be 1, 2 or 3")
    if not is_yamanouchi(word):
        raise NotYamanouchi(f"{word} is not a Yamanouchi word")
    cols: list[int] = []
    for w in word:
        a, b = _PAIR_OF[w]
        cols.extend((a, b))
    return syt_from_column_word(cols)


# ---------------------------------------------------------------------------
# avoiders of the increasing pattern vs doubly alternating avoiders


_INCREASING4 = PatternSet.parse("1234")


def rs_pair(word: Word) -> tuple[SkewTableau, SkewTableau]:
    """Insertion and recording tableaux of a permutation."""
    return rsk_matrix(permutation_matrix(word))


def phi(word: Word) -> Word:
    """Avoider of 1234 to a doubly alternating 1234-avoider of twice the size."""
    if not avoids_all(word, _INCREASING4):
        raise NotAvoider(f"{word} contains the increasing pattern of length 4")
    p, q = rs_pair(word)
    big_p = colpair_inverse(column_word(p))
    big_q = colpair_inverse(column_word(q))
    matrix = rsk_matrix_inverse(big_p, big_q)
    return matrix_to_permutation(matrix)


def phi_inverse(word: Word) -> Word:
    """Inverse map: fuse the column readings back down."""
    if not (is_doubly_alternating(word) and avoids_all(word, _INCREASING4)):
        raise NotInDomain(f"{word} is not a doubly alternating avoider")
    big_p, big_q = rs_pair(word)
    p = syt_from_column_word(colpair(big_p))
    q = syt_from_column_word(colpair(big_q))
    return matrix_to_permutation(rsk_matrix_inverse(p, q))


# ---------------------------------------------------------------------------
# the Dyck path bijection


_P2413 = PatternSet.parse("2413")


def _in_theta_domain(word: Word) -> bool:
    return len(word) % 2 == 0 and is_doubly_alternating(word) and avoids_all(word, _P2413)


def _blocks_top_down(word: Word) -> list[Word]:
    """Anti-diagonal block factorization, top block (rightmost columns) first."""
    n = len(word)
    blocks = []
    start = 0
    top = n  # columns strictly above start-block are already used
    while start < n:
        seen = set()
        for end in range(start, n):
            seen.add(word[end])
            size = end - start + 1
            if seen == set(range(top - size + 1, top + 1)):
                blocks.append(standardize(word[start : end + 1]))
                top -= size
                start = end + 1
                break
        else:
            raise NotInDomain(f"{word} has no anti-diagonal block structure")
    return blocks


def theta(word: Word) -> DyckPath:
    """Doubly alternating avoider of 2413 to a Dyck path, by block recursion."""
    if not _in_theta_domain(word):
        raise NotInDomain(f"{word} is not a doubly alternating 2413-avoider of even size")
    blocks = _blocks_top_down(word)
    out = []
    for block in reversed(blocks):  # leftmost block first
        middle = standardize(tuple(reversed(block[1:-1])))
        out.append("U" + theta(middle) + "D")
    return "".join(out)


def theta_inverse(path: DyckPath) -> Word:
    """Rebuild the permutation from the Dyck path factorization."""
    if not is_dyck_path(path):
        raise NotInDomain(f"{path!r} is not a Dyck path")
    factors = []
    height = 0
    start = 0
    for i, step in enumerate(path):
        height += 1 if step == "U" else -1
        if height == 0:
            factors.append(path[start : i + 1])
            start = i + 1
    block_perms = []
    for factor in factors:  # leftmost block first
        middle = theta_inverse(factor[1:-1])
        k = len(middle) + 2
        inner = tuple(reversed(tuple(v + 1 for v in middle)))
        block_perms.append((1,) + inner + (k,))
    word: list[int] = []
    total = sum(len(b) for b in block_perms)
    used = total
    for block in reversed(block_perms):  # top rows get the rightmost values
        word.extend(v + used - len(block) for v in block)
        used -= len(block)
    return tuple(word)


# ---------------------------------------------------------------------------
# active regions and the 12tau/21tau rewiring


@dataclass(frozen=True)
class ActiveRegion:
    diagram: tuple[int, ...]  # row lengths of the union of rectangles
    active_dots: tuple[tuple[int, int], ...]
    placement: tuple[tuple[int, int], ...]  # all dots inside the diagram

    def rows(self) -> tuple[int, ...]:
        return tuple(sorted(r for r, _ in self.placement))

    def cols(self) -> tuple[int, ...]:
        return tuple(sorted(c for _, c in self.placement))


def active_region(word: Word, tail: Word) -> ActiveRegion:
    """Active dots, pairs and their rectangle union for one of the two
    one-sided families.

    Positions i1 < i2 form an active pair when they start an occurrence of
    12tau or 21tau, that is when tau occurs as a pattern among the entries
    after i2 that exceed both of their values.  The rectangle of the pair
    reaches down to row i2 and across to column max(w[i1], w[i2]).
    """
    if not is_doubly_alternating(word):
        raise NotInDomain(f"{word} is not doubly alternating")
    return _active_region(word, _tail_plans(tuple(tail))[2])


def _active_region(word: Word, tail: Plan) -> ActiveRegion:
    """``active_region`` of a word already known to be doubly alternating,
    with the tail compiled."""
    n = len(word)
    active = set()
    widths = [0] * n  # widths[i2]: the widest rectangle of a pair ending at i2
    rising = falling = False
    for i2 in range(1, n):
        v2 = word[i2]
        rest = word[i2 + 1 :]
        # fewer entries clear a higher bar, so once a bar fails every higher
        # one fails too: try the bars in increasing order, stop at a failure
        for bar, i1 in sorted((max(word[i1], v2), i1) for i1 in range(i2)):
            if bar > widths[i2] and not occurs([v for v in rest if v > bar], tail):
                break
            widths[i2] = bar
            active.update(((i1 + 1, word[i1]), (i2 + 1, v2)))
            rising |= word[i1] < v2
            falling |= word[i1] > v2
    if not (rising and falling):
        # inside one of the one-sided families every active dot sits on odd
        # coordinates; outside them the claim is not guaranteed
        for (r, c) in active:
            if r % 2 == 0 or c % 2 == 0:
                raise AssertionError(f"active dot {(r, c)} with an even coordinate")
    depth = max((i + 1 for i, width in enumerate(widths) if width), default=0)
    diagram = tuple(max(widths[r:]) for r in range(depth))
    placement = tuple((r + 1, word[r]) for r in range(depth) if word[r] <= diagram[r])
    if not rising and placement_contains(diagram, placement, rising=True):
        raise AssertionError("induced placement not 12-avoiding on the 12-avoiding side")
    if not falling and placement_contains(diagram, placement, rising=False):
        raise AssertionError("induced placement not 21-avoiding on the 21-avoiding side")
    return ActiveRegion(diagram, tuple(sorted(active)), placement)


def placement_contains(
    diagram: Sequence[int], dots: Sequence[tuple[int, int]], rising: bool
) -> bool:
    """Whether a rook placement on a Young diagram contains 12 (rising) or 21.

    A pair of dots only counts when the whole grid it spans lies inside the
    diagram, i.e. its bounding corner cell (lower row, larger column) does.
    """
    dots = sorted(dots)
    return any(
        (c1 < c2) == rising and r2 <= len(diagram) and max(c1, c2) <= diagram[r2 - 1]
        for k, (_, c1) in enumerate(dots)
        for r2, c2 in dots[k + 1 :]
    )


def unique_monotone_placement(
    diagram: Sequence[int],
    rows: Sequence[int],
    cols: Sequence[int],
    direction: Literal["increasing", "decreasing"],
) -> tuple[tuple[int, int], ...]:
    """The unique monotone partial rook placement on the given rows/columns.

    Avoidance is diagram-relative: an inversion whose bounding corner falls
    outside the diagram does not count.  The decreasing (12-avoiding)
    placement is built top-down, the increasing (21-avoiding) one bottom-up;
    both take the largest free column that fits, which is forced.
    """
    if len(rows) != len(set(rows)) or len(cols) != len(set(cols)):
        raise ValueError("rows and columns must be distinct")
    if len(rows) != len(cols):
        raise NoPlacement("row and column counts differ")
    free = sorted(cols)
    order = sorted(rows) if direction == "decreasing" else sorted(rows, reverse=True)
    out = []
    for r in order:
        if r > len(diagram):
            raise NoPlacement(f"row {r} outside the diagram")
        legal = [c for c in free if c <= diagram[r - 1]]
        if not legal:
            raise NoPlacement(f"no free column fits in row {r}")
        pick = legal[-1]
        free.remove(pick)
        out.append((r, pick))
    result = tuple(sorted(out))
    if placement_contains(diagram, result, rising=direction == "decreasing"):
        raise NoPlacement(f"greedy placement is not {direction}")
    return result


def placements_bruteforce(
    diagram: Sequence[int],
    rows: Sequence[int],
    cols: Sequence[int],
    direction: Literal["increasing", "decreasing"],
) -> list[tuple[tuple[int, int], ...]]:
    """Exhaustive oracle for the uniqueness claim."""
    from itertools import permutations as iperm

    rows = sorted(rows)
    out = []
    for assignment in iperm(sorted(cols)):
        if not all(c <= diagram[r - 1] for r, c in zip(rows, assignment)):
            continue
        dots = tuple(zip(rows, assignment))
        if not placement_contains(diagram, dots, rising=direction == "decreasing"):
            out.append(dots)
    return out


@lru_cache(maxsize=64)
def _tail_plans(tail: Word) -> tuple[Plan, Plan, Plan]:
    """The compiled patterns 12tau, 21tau and tau of one tail."""
    return compile_pattern((1, 2) + tail), compile_pattern((2, 1) + tail), compile_pattern(tail)


def _rewire(word: Word, tail: Plan, direction: Literal["increasing", "decreasing"]) -> Word:
    """Replace the active region's placement; word is doubly alternating and
    tail is compiled."""
    region = _active_region(word, tail)
    replacement = unique_monotone_placement(
        region.diagram, region.rows(), region.cols(), direction
    )
    new_word = list(word)
    for r, c in replacement:
        new_word[r - 1] = c
    return tuple(new_word)


def psi(word: Word, tail: Word) -> Word:
    """12tau-avoiding doubly alternating to 21tau-avoiding, fixing every dot
    outside the active region."""
    tail = tuple(tail)
    plan12, plan21, plan_tail = _tail_plans(tail)
    if not is_doubly_alternating(word) or occurs(word, plan12):
        raise NotInDomain(f"{word} is not a doubly alternating {(1, 2) + tail}-avoider")
    image = _rewire(word, plan_tail, "increasing")
    if occurs(image, plan21) or not is_doubly_alternating(image):
        raise AssertionError(f"image {image} left the target family")
    return image


def psi_inverse(word: Word, tail: Word) -> Word:
    tail = tuple(tail)
    plan12, plan21, plan_tail = _tail_plans(tail)
    if not is_doubly_alternating(word) or occurs(word, plan21):
        raise NotInDomain(f"{word} is not a doubly alternating {(2, 1) + tail}-avoider")
    image = _rewire(word, plan_tail, "decreasing")
    if occurs(image, plan12) or not is_doubly_alternating(image):
        raise AssertionError(f"image {image} left the target family")
    return image
