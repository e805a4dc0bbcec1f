"""Sliding maps, Bender-Knuth words, switching, RSK and the symmetry maps.

The maps come in pairs on purpose: the Schuetzenberger involution is a
Bender-Knuth word but also an evacuation-by-sliding procedure; tableau
switching is a Bender-Knuth block word but also an outward-sliding
procedure; the matrix RSK inverse is reverse bumping but also a switching
identity.  Each pair is kept as two independent code paths so the test
suites can play them against each other.

Every sliding route (``jdt``, ``jdt_slide``, ``evacuation`` and
``tableau_switch_sliding``) moves its holes with the one jeu-de-taquin slide
``_slide`` on a ``{(row, col): entry}`` grid.  The Bender-Knuth routes
(``bender_knuth``, ``apply_bk_word``, ``tableau_switch``, ``omega_bk``) work
on the rows or on their cut form and share no code with it.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cache
from itertools import accumulate
from typing import Callable, Sequence

from .errors import (
    CanonicalAssertFailed,
    NotInnerCorner,
    NotLR,
    NotPartitionShaped,
    ShapeMismatch,
)
from .tableau import (
    FLIP_ORIENTATION,
    Grid,
    Partition,
    SkewTableau,
    canonical,
    companion,
    complement_in_box,
    contains,
    enumerate_lr,
    enumerate_ssyt,
    grid_rows,
    is_anti_lr,
    is_lr,
    normalize,
    partitions_of,
    recording_matrix,
    rotate,
    tableau_from_recording,
    transpose_matrix,
)


def _grid(t: SkewTableau) -> Grid:
    return {(r, c): v for r, c, v in t.cells()}


def content_key(t: SkewTableau) -> tuple:
    """Shape and filling, ignoring boxes and orientation."""
    return (t.outer, t.inner, t.rows)


# ---------------------------------------------------------------------------
# jeu de taquin


def _removable_corners(inner: Sequence[int]) -> list[tuple[int, int]]:
    """Cells (r, inner[r]-1) that are SE corners of the inner shape."""
    out = []
    for r in range(len(inner)):
        if inner[r] == 0:
            continue
        below = inner[r + 1] if r + 1 < len(inner) else 0
        if inner[r] > below:
            out.append((r, inner[r] - 1))
    return out


def _slide(grid: Grid, r: int, c: int) -> tuple[int, int]:
    """Move the hole at (r, c) right or down until neither neighbour is in
    the grid; the smaller neighbour fills it, the lower one on a tie.
    Returns the cell where the hole stops."""
    while True:
        right = grid.get((r, c + 1))
        below = grid.get((r + 1, c))
        if below is not None and (right is None or below <= right):
            grid[(r, c)] = grid.pop((r + 1, c))
            r += 1
        elif right is not None:
            grid[(r, c)] = grid.pop((r, c + 1))
            c += 1
        else:
            return r, c


def _slide_inward(
    t: SkewTableau, pick: Callable[[list], tuple[int, int] | None]
) -> SkewTableau:
    """Slide into the inner corners that pick chooses, all on one grid,
    until it chooses None; the tableau is built once, at the end."""
    inner, outer, grid = list(t.padded_inner()), list(t.outer), _grid(t)
    while (corner := pick(_removable_corners(inner))) is not None:
        r, c = corner
        inner[r] -= 1
        r, _ = _slide(grid, r, c)
        outer[r] -= 1
    new_outer, new_inner = normalize(outer), normalize(inner)
    rows = grid_rows(grid, new_outer, new_inner)
    return SkewTableau(new_outer, new_inner, rows, t.box1, t.box2, t.orientation)


def jdt_slide(t: SkewTableau, corner: tuple[int, int]) -> SkewTableau:
    """One inward slide starting from a removable inner corner."""
    if corner not in _removable_corners(t.padded_inner()):
        raise NotInnerCorner(f"{corner} is not a removable corner of {t.inner}")
    once = iter([corner])
    return _slide_inward(t, lambda corners: next(once, None))


def jdt(t: SkewTableau, corner_order: Callable[[list], tuple[int, int]] | None = None) -> SkewTableau:
    """Slide to partition shape; the result is order-independent."""
    pick = corner_order or (lambda corners: corners[-1])
    return _slide_inward(t, lambda corners: pick(corners) if corners else None)


def jdt_random_order(t: SkewTableau, seed: int) -> SkewTableau:
    rng = random.Random(seed)
    return jdt(t, corner_order=lambda corners: rng.choice(corners))


# ---------------------------------------------------------------------------
# Bender-Knuth transformations and words


def bender_knuth(t: SkewTableau, i: int) -> SkewTableau:
    """Swap the multiplicities of i and i+1 by the local rules.

    A copy of i with an i+1 in its column (necessarily directly below) is
    fixed, and likewise an i+1 with an i directly above; the remaining
    occurrences in each row form a block that is relabeled.
    """
    if not 1 <= i < t.letters:
        raise ValueError(f"generator {i} outside letter bound {t.letters}")
    pad = t.padded_inner()
    rows = t.rows

    def entry(r: int, c: int) -> int:
        if 0 <= r < len(rows):
            k = c - pad[r]
            if 0 <= k < len(rows[r]):
                return rows[r][k]
        return 0

    new_rows = []
    for r, row in enumerate(rows):
        free_positions = []
        twos = 0
        for k, v in enumerate(row):
            col = pad[r] + k
            if v == i:
                if entry(r + 1, col) != i + 1:
                    free_positions.append(k)
            elif v == i + 1:
                if entry(r - 1, col) != i:
                    free_positions.append(k)
                    twos += 1
        if not free_positions:
            new_rows.append(row)
            continue
        new_row = list(row)
        for idx, k in enumerate(free_positions):
            new_row[k] = i if idx < twos else i + 1
        new_rows.append(tuple(new_row))
    return _with_rows(t, tuple(new_rows))


def _with_rows(t: SkewTableau, rows: tuple) -> SkewTableau:
    """Same tableau data with new rows, skipping re-validation."""
    return SkewTableau._trusted(t.outer, t.inner, rows, t.box1, t.box2, t.orientation)


def _with_orientation(t: SkewTableau, orientation: str | None) -> SkewTableau:
    """Same tableau on another branch; validation reads no orientation, so
    it is not run again."""
    return SkewTableau._trusted(t.outer, t.inner, t.rows, t.box1, t.box2, orientation)


BKWord = tuple[int, ...]


@cache
def zm_word(m: int) -> BKWord:
    """Weight-reversing word; generators in application order."""
    out: list[int] = []
    for length in range(1, m):
        out.extend(range(length, 0, -1))
    return tuple(out)


@cache
def t_word(k: int, l: int, d: int = 0) -> BKWord:
    """Block-exchange word moving k letters past l letters, offset by d."""
    out: list[int] = []
    for j in range(1, l + 1):
        out.extend(range(j + k - 1, j - 1, -1))
    return tuple(g + d for g in out)


# Cut form of a filling: cuts[v][r] is the column where the entries larger
# than v begin in row r, for v = 0..letters (cuts[0] is the padded inner
# shape, cuts[letters] the outer one).  The v's of row r fill the columns
# cuts[v-1][r] .. cuts[v][r]-1, and generator i moves only cuts[i].


def _cuts(rows: Sequence[Sequence[int]], pad: Sequence[int], letters: int) -> list[list[int]]:
    """One scan per row counts its letters; their running sums from its pad are its cuts."""
    per_row = []
    for row, p in zip(rows, pad):
        counts = [p] + [0] * letters
        for v in row:
            counts[v] += 1
        per_row.append(accumulate(counts))
    return [list(col) for col in zip(*per_row)] or [[] for _ in range(letters + 1)]


def _rows_from_cuts(cuts: list[list[int]], first: int, last: int) -> tuple:
    """The rows of the letters first..last, relabeled to start at 1."""
    out = []
    for r in range(len(cuts[0])):
        row: tuple[int, ...] = ()
        for v in range(first, last + 1):
            row += (v - first + 1,) * (cuts[v][r] - cuts[v - 1][r])
        out.append(row)
    return tuple(out)


def _stacked_cuts(parts: Sequence[SkewTableau], nrows: int) -> list[list[int]]:
    """Cut form of the union of tableaux stacked outward (each one's outer
    shape is the next one's inner shape), each one's letters shifted past
    the letters of those inside it."""
    cuts: list[list[int]] = []
    for part in parts:
        extra = nrows - len(part.outer)
        pad = part.padded_inner() + (0,) * extra
        cuts = cuts[:-1] + _cuts(part.rows + ((),) * extra, pad, part.letters)
    return cuts


def _bk_cuts(cuts: list[list[int]], word: BKWord) -> None:
    """Apply the generators of word in place, one pass over the rows each.

    The i's of a row with an i+1 directly below stay, as do the i+1's with
    an i directly above (column-interval overlaps with the neighbour rows,
    which are empty intervals past either end); the free i's and i+1's form
    one block whose counts are exchanged.
    """
    for i in word:
        lo, mid, hi = cuts[i - 1], cuts[i], cuts[i + 1]
        new = []
        for a, b, c, x, y, u, w in zip(
            lo, mid, hi, mid[1:] + [0], hi[1:] + [0], [0] + lo[:-1], [0] + mid[:-1]
        ):
            fixed_i = (b if b < y else y) - (a if a > x else x)  # [a, b) meets [x, y)
            fixed_j = (c if c < w else w) - (b if b > u else u)  # [b, c) meets [u, w)
            stay_i = a + (fixed_i if fixed_i > 0 else 0)
            new.append(stay_i + c - b - (fixed_j if fixed_j > 0 else 0))
        cuts[i] = new


def apply_bk_word(t: SkewTableau, word: BKWord) -> SkewTableau:
    """Apply generators left to right (the leftmost entry acts first).

    Runs the whole word on the cut form of the rows; equal to folding
    ``bender_knuth`` over the word.
    """
    letters = t.letters
    for g in word:
        if not 1 <= g < letters:
            raise ValueError(f"generator {g} outside letter bound {letters}")
    if not word:
        return t
    cuts = _cuts(t.rows, t.padded_inner(), letters)
    _bk_cuts(cuts, word)
    return _with_rows(t, _rows_from_cuts(cuts, 1, letters))


# ---------------------------------------------------------------------------
# Schuetzenberger involution


def schuetzenberger(t: SkewTableau) -> SkewTableau:
    """Weight-reversing involution on partition shapes, as a BK word."""
    if t.inner:
        raise NotPartitionShaped("defined on partition shapes only")
    return apply_bk_word(t, zm_word(t.letters))


def evacuation(t: SkewTableau) -> SkewTableau:
    """Independent sliding route to the same involution."""
    if t.inner:
        raise NotPartitionShaped("defined on partition shapes only")
    m = t.letters
    grid = _grid(t)
    result: Grid = {}
    while grid:
        v = min(grid.values())
        r, c = max((rc for rc, val in grid.items() if val == v), key=lambda rc: rc[1])
        del grid[(r, c)]
        result[_slide(grid, r, c)] = m + 1 - v
    return SkewTableau(t.outer, (), grid_rows(result, t.outer), t.box1, t.box2, t.orientation)


def anti_canonical(shape: Partition, box2: tuple[int, int] | None = None) -> SkewTableau:
    """The partition-shaped anti-LR tableau of the given shape."""
    shape = normalize(shape)
    can = canonical(shape, box2=box2, orientation="anti")
    return schuetzenberger(can)


# ---------------------------------------------------------------------------
# tableau switching


def _check_stacked(s: SkewTableau, t: SkewTableau):
    if s.outer != t.inner:
        raise ShapeMismatch(f"outer {s.outer} of the inner tableau must equal inner {t.inner}")


def _union_box(s: SkewTableau, t: SkewTableau) -> tuple[int, int]:
    return (max(s.box1[0], t.box1[0]), max(s.box1[1], t.box1[1]))


def _split_stacked(
    inner: Partition,
    outer: Partition,
    low: Grid,
    high: Grid,
    box1: tuple[int, int],
    low_box2: tuple[int, int],
    high_box2: tuple[int, int],
    low_orient: str | None,
    high_orient: str | None,
) -> tuple[SkewTableau, SkewTableau]:
    """Cut a union along the boundary between small and large values.

    The small values form a prefix of every row, so the cut shape is
    inner_r + (number of small cells in row r).
    """
    counts = [0] * len(outer)
    for (r, _c) in low:
        counts[r] += 1
    pad_inner = inner + (0,) * (len(outer) - len(inner))
    cut = normalize(tuple(p + k for p, k in zip(pad_inner, counts)))
    inner_t = SkewTableau(cut, inner, grid_rows(low, cut, inner), box1, low_box2, low_orient)
    outer_t = SkewTableau(outer, cut, grid_rows(high, outer, cut), box1, high_box2, high_orient)
    return inner_t, outer_t


def tableau_switch(s: SkewTableau, t: SkewTableau) -> tuple[SkewTableau, SkewTableau]:
    """Exchange an inner tableau with the one outside it (block BK word).

    Row r of the union is s's row followed by t's row shifted by k; the
    word t_word(k, l) runs on its cut form, and the result is cut at the
    first entry larger than l in each row.
    """
    _check_stacked(s, t)
    k, l = s.letters, t.letters
    box1 = _union_box(s, t)
    cuts = _stacked_cuts((s, t), len(t.outer))
    _bk_cuts(cuts, t_word(k, l))
    cut = normalize(tuple(cuts[l]))
    inner_t = SkewTableau._trusted(
        cut, s.inner, _rows_from_cuts(cuts, 1, l)[: len(cut)], box1, t.box2, t.orientation
    )
    outer_t = SkewTableau._trusted(
        t.outer, cut, _rows_from_cuts(cuts, l + 1, k + l), box1, s.box2, s.orientation
    )
    return inner_t, outer_t


def tableau_switch_sliding(s: SkewTableau, t: SkewTableau) -> tuple[SkewTableau, SkewTableau]:
    """Oracle route: slide the inner squares outward, largest value first,
    rightmost first among equals; settled squares act as walls."""
    _check_stacked(s, t)
    t_grid = _grid(t)
    settled: Grid = {}
    order = sorted(_grid(s).items(), key=lambda item: (-item[1], -item[0][1], -item[0][0]))
    for (r, c), v in order:
        settled[_slide(t_grid, r, c)] = v
    box1 = _union_box(s, t)
    return _split_stacked(
        s.inner, t.outer, t_grid, settled, box1, t.box2, s.box2, t.orientation, s.orientation
    )


# ---------------------------------------------------------------------------
# matrix RSK


def _row_insert(rows: list[list[int]], v: int) -> tuple[int, int]:
    r = 0
    while True:
        if r == len(rows):
            rows.append([v])
            return r, 0
        row = rows[r]
        idx = bisect_right(row, v)  # leftmost entry strictly greater than v
        if idx == len(row):
            row.append(v)
            return r, idx
        row[idx], v = v, row[idx]
        r += 1


def rsk_matrix(matrix: Sequence[Sequence[int]]) -> tuple[SkewTableau, SkewTableau]:
    """Classic correspondence from a nonnegative integer matrix to a tableau
    pair of equal partition shape."""
    nrows = len(matrix)
    ncols = max((len(r) for r in matrix), default=0)
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for i, row in enumerate(matrix):
        for j, mult in enumerate(row):
            for _ in range(mult):
                r, _c = _row_insert(p_rows, j + 1)
                if r == len(q_rows):
                    q_rows.append([])
                q_rows[r].append(i + 1)
    shape = normalize(tuple(len(r) for r in p_rows))
    maxdim = max(sum(sum(r) for r in matrix), 1)
    box1 = (max(len(shape), 1), max(shape[0] if shape else 0, 1))
    p = SkewTableau(shape, (), tuple(tuple(r) for r in p_rows), box1, (ncols, maxdim))
    q = SkewTableau(shape, (), tuple(tuple(r) for r in q_rows), box1, (nrows, maxdim))
    return p, q


def rsk_matrix_inverse(p: SkewTableau, q: SkewTableau) -> tuple[tuple[int, ...], ...]:
    """Reverse bumping in recording order; returns the matrix."""
    if p.outer != q.outer or p.inner or q.inner:
        raise ShapeMismatch("need two partition tableaux of equal shape")
    nrows, ncols = q.letters, p.letters
    matrix = [[0] * ncols for _ in range(nrows)]
    p_rows = [list(r) for r in p.rows]
    cells = sorted(
        ((v, pos[1], pos[0]) for pos, v in _grid(q).items()),
        key=lambda t: (-t[0], -t[1]),
    )
    for i_val, c0, r0 in cells:
        x = p_rows[r0].pop()
        if not p_rows[r0]:
            p_rows.pop()
        for r in range(r0 - 1, -1, -1):
            row = p_rows[r]
            idx = bisect_left(row, x) - 1  # rightmost entry strictly less than x
            row[idx], x = x, row[idx]
        matrix[i_val - 1][x - 1] += 1
    return tuple(tuple(r) for r in matrix)


def permutation_matrix(word: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    n = len(word)
    return tuple(
        tuple(1 if word[i] == j + 1 else 0 for j in range(n)) for i in range(n)
    )


def matrix_to_permutation(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    word = []
    for row in matrix:
        (j,) = [idx for idx, v in enumerate(row) if v]
        word.append(j + 1)
    return tuple(word)


# ---------------------------------------------------------------------------
# rsk on tableaux, reversal, symmetry maps


def spread_companion(t: SkewTableau) -> SkewTableau:
    """Some companion of t: rows shifted far apart so no column interacts."""
    m = transpose_matrix(recording_matrix(t))
    letters = t.letters
    width = t.size() + 1
    kappa = [(letters - 1 - j) * width for j in range(letters)]
    nu = [kappa[j] + sum(m[j]) for j in range(letters)]
    return tableau_from_recording(
        normalize(tuple(nu)), normalize(tuple(kappa)), m,
        box1=(letters, max(nu, default=0)), box2=t.box1,
    )


def rsk_tableau(
    t: SkewTableau, comp_outer: Partition | None = None, comp_inner: Partition = ()
) -> tuple[SkewTableau, SkewTableau]:
    """(jdt of t, jdt of its companion); needs a companion shape.

    For Littlewood-Richardson input the companion shape defaults to the
    weight with empty inner shape.
    """
    if comp_outer is None:
        comp_outer = normalize(t.weight())
    tau = companion(t, comp_outer, comp_inner)
    return jdt(t), jdt(tau)


def rsk_q(t: SkewTableau) -> SkewTableau:
    """The recording tableau through any companion (they all rectify alike)."""
    return jdt(spread_companion(t))


def jdt_equivalent(t1: SkewTableau, t2: SkewTableau) -> bool:
    return content_key(jdt(t1)) == content_key(jdt(t2))


def dual_equivalent(t1: SkewTableau, t2: SkewTableau) -> bool:
    if (t1.outer, t1.inner) != (t2.outer, t2.inner):
        raise ShapeMismatch("dual equivalence needs equal shapes")
    return content_key(rsk_q(t1)) == content_key(rsk_q(t2))


def reversal_with(t: SkewTableau, s: SkewTableau) -> SkewTableau:
    """Conjugate the Schuetzenberger involution by switching against s."""
    if s.outer != t.inner:
        raise ShapeMismatch("the helper tableau must fill the inner shape")
    t1, s1 = tableau_switch(s, t)
    u = schuetzenberger(t1)
    s2, t2 = tableau_switch(u, s1)
    if content_key(s2) != content_key(s):
        raise CanonicalAssertFailed("switching did not return the helper tableau")
    return _with_orientation(t2, FLIP_ORIENTATION[t.orientation])


def reversal(t: SkewTableau) -> SkewTableau:
    """Weight-reversing involution on arbitrary skew tableaux."""
    if not t.inner:
        return _with_orientation(schuetzenberger(t), FLIP_ORIENTATION[t.orientation])
    return reversal_with(t, canonical(t.inner))


def _orientation_of(t: SkewTableau) -> str:
    if t.orientation in ("lr", "anti"):
        return t.orientation
    raise NotLR("orientation flag not set")


def _assert_canonical(t: SkewTableau):
    expect = canonical(t.outer)
    if (t.outer, t.inner, t.rows) != (expect.outer, expect.inner, expect.rows):
        raise CanonicalAssertFailed(f"expected the canonical tableau, got\n{t.pretty()}")


def _assert_anti_canonical(t: SkewTableau):
    expect = anti_canonical(t.outer, box2=(t.letters, t.box2[1]))
    if (t.outer, t.inner, t.rows) != (expect.outer, expect.inner, expect.rows):
        raise CanonicalAssertFailed(f"expected the anti-canonical tableau, got\n{t.pretty()}")


def _symmetry_map(t: SkewTableau, dual: bool) -> SkewTableau:
    """Switch t against a helper filling its inner shape and check that the
    helper comes out as the canonical tableau of its branch.

    The helper is canonical on the LR branch and anti-canonical on the anti
    branch, and the other way round for the dual map, which flips the
    branch.
    """
    lr = _orientation_of(t) == "lr"
    if lr and not is_lr(t):
        raise NotLR("flag says Littlewood-Richardson but the word is not Yamanouchi")
    if not lr and not is_anti_lr(t):
        raise NotLR("flag says anti-Littlewood-Richardson but the rotation is not")
    helper = anti_canonical if lr == dual else canonical
    first, second = tableau_switch(helper(t.inner), t)
    (_assert_canonical if lr else _assert_anti_canonical)(first)
    return _with_orientation(second, FLIP_ORIENTATION[t.orientation]) if dual else second


def rho(t: SkewTableau) -> SkewTableau:
    """Fundamental symmetry map on the two-branch union.

    On the LR branch it switches against the canonical tableau of the inner
    shape and must reveal the canonical tableau of the weight; the anti
    branch uses the anti-canonical tableaux instead.
    """
    return _symmetry_map(t, dual=False)


def rho_dual(t: SkewTableau) -> SkewTableau:
    """The dual symmetry map: canonical and anti-canonical roles exchanged;
    flips the branch."""
    return _symmetry_map(t, dual=True)


def rsk_tableau_inverse(p: SkewTableau, q: SkewTableau, shape_outer: Partition, shape_inner: Partition) -> SkewTableau:
    """Invert (P, Q) back to the dominant tableau of the given shape."""
    if p.outer != q.outer or p.inner or q.inner:
        raise ShapeMismatch("need partition tableaux of equal shape")
    tau_q = companion(q, shape_outer, shape_inner)
    moved = rho(_with_orientation(tau_q, "lr"))
    first, second = tableau_switch(p, moved)
    _assert_canonical(first)
    return _with_orientation(second, None)


# ---------------------------------------------------------------------------
# the Omega involution


def omega(t: SkewTableau) -> SkewTableau:
    """Three consecutive switchings taking the shape to its rotation."""
    r1, c1 = t.box1
    lam, mu = t.outer, t.inner
    lam_c = complement_in_box(lam, r1, c1)
    inner_can = canonical(mu)
    outer_can = rotate(canonical(lam_c, box1=(r1, c1), orientation=None))
    t1, s1 = tableau_switch(inner_can, t)
    u, s2 = tableau_switch(s1, outer_can)
    v, t2 = tableau_switch(t1, u)
    expect_outer = complement_in_box(mu, r1, c1)
    expect_inner = lam_c
    if (t2.outer, t2.inner) != (expect_outer, expect_inner):
        raise CanonicalAssertFailed(
            f"rotated shape mismatch: got {t2.outer}/{t2.inner}, "
            f"expected {expect_outer}/{expect_inner}"
        )
    return replace(t2, box1=t.box1, box2=t.box2, orientation=t.orientation)


def omega_bk(t: SkewTableau) -> SkewTableau:
    """The same map as one flat Bender-Knuth word on the boxed union."""
    r1, c1 = t.box1
    lam, mu = t.outer, t.inner
    lam_c = complement_in_box(lam, r1, c1)
    inner_can = canonical(mu)
    outer_can = rotate(canonical(lam_c, box1=(r1, c1), orientation=None))
    k, l, m = inner_can.letters, t.letters, outer_can.letters
    if not (inner_can.size() or t.size() or outer_can.size()):
        return t
    cuts = _stacked_cuts((inner_can, t, outer_can), r1)
    _bk_cuts(cuts, t_word(k, l) + t_word(k, m, d=l) + t_word(l, m))
    out_outer = complement_in_box(mu, r1, c1)
    out_inner = complement_in_box(lam, r1, c1)
    rows = _rows_from_cuts(cuts, m + 1, m + l)[: len(out_outer)]
    return SkewTableau(out_outer, out_inner, rows, t.box1, t.box2, t.orientation)


# ---------------------------------------------------------------------------
# coefficients and the product rule


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Number of Littlewood-Richardson fillings of lam/mu with weight nu."""
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    if not contains(lam, mu) or sum(lam) - sum(mu) != sum(nu):
        return 0
    return sum(1 for _ in enumerate_lr(lam, mu, nu))


def schur_polynomial(shape: Partition, nvars: int) -> dict[tuple[int, ...], int]:
    """Weight-sum expansion over semistandard fillings in nvars variables."""
    out: dict[tuple[int, ...], int] = {}
    if sum(shape) == 0:
        return {(0,) * nvars: 1}
    for t in enumerate_ssyt(shape, max_letter=nvars, box2=(nvars, sum(shape))):
        w = t.weight()
        out[w] = out.get(w, 0) + 1
    return out


def schur_product_check(mu: Partition, nu: Partition, nvars: int) -> bool:
    """Coefficient-exact check of the product rule in nvars variables."""
    mu, nu = normalize(mu), normalize(nu)
    left: dict[tuple[int, ...], int] = {}
    smu = schur_polynomial(mu, nvars)
    snu = schur_polynomial(nu, nvars)
    for wa, ca in smu.items():
        for wb, cb in snu.items():
            key = tuple(a + b for a, b in zip(wa, wb))
            left[key] = left.get(key, 0) + ca * cb
    right: dict[tuple[int, ...], int] = {}
    for lam in partitions_of(sum(mu) + sum(nu), max_len=nvars):
        coeff = lr_coefficient(lam, mu, nu)
        if coeff == 0:
            continue
        for w, c in schur_polynomial(lam, nvars).items():
            right[w] = right.get(w, 0) + coeff * c
    left = {k: v for k, v in left.items() if v}
    right = {k: v for k, v in right.items() if v}
    return left == right


# ---------------------------------------------------------------------------
# the commutation report


@dataclass(frozen=True)
class DiagramReport:
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failures(self) -> list[str]:
        return [name for name, ok in self.checks if not ok]


def _oriented_companion_shape(t: SkewTableau) -> tuple[Partition, Partition]:
    """The canonical companion shape of an LR / anti-LR tableau.

    LR: the weight partition.  Anti-LR: the rotation of that partition
    shape inside the companion box.
    """
    branch = _orientation_of(t)
    if branch == "lr":
        return normalize(t.weight()), ()
    rotated_weight = normalize(tuple(reversed(t.weight())))
    kappa = complement_in_box(rotated_weight, t.letters, t.box2[1])
    outer = normalize((t.box2[1],) * t.letters)
    return outer, kappa


def _companion_of_oriented(t: SkewTableau) -> SkewTableau:
    return companion(t, *_oriented_companion_shape(t))


def verify_diagram(t: SkewTableau) -> DiagramReport:
    """Run the commutation and involution checks on one oriented tableau.

    Every map goes through ``apply``, which computes it at most once per
    input, so the checks share the values they have in common.  A map that
    raises yields None, which fails only the checks that use its value.
    """
    memo: dict[tuple, SkewTableau | None] = {}

    def apply(fn: Callable[[SkewTableau], SkewTableau], x: SkewTableau | None) -> SkewTableau | None:
        if x is None:
            return None
        key = (fn, x)
        if key not in memo:
            try:
                memo[key] = fn(x)
            except Exception:
                memo[key] = None
        return memo[key]

    def same(x: SkewTableau | None, y: SkewTableau | None) -> bool:
        return x is not None and y is not None and content_key(x) == content_key(y)

    def triple(x: SkewTableau | None) -> SkewTableau | None:
        return apply(reversal, apply(rotate, apply(rho, x)))

    r1, c1 = t.box1

    def companion_of_rotated_shape(x: SkewTableau) -> SkewTableau:
        return companion(x, complement_in_box(t.inner, r1, c1), complement_in_box(t.outer, r1, c1))

    rot, rev, om = apply(rotate, t), apply(reversal, t), apply(omega, t)
    comp = apply(_companion_of_oriented, t)
    square = apply(reversal, apply(companion_of_rotated_shape, apply(reversal, comp)))
    return DiagramReport(
        (
            ("threefold-composite", same(triple(triple(triple(t))), t)),
            ("reversal-commutes-rotation", same(apply(reversal, rot), apply(rotate, rev))),
            (
                "companion-commutes-rotation",
                same(apply(_companion_of_oriented, rot), apply(rotate, comp)),
            ),
            ("reversal-companion-square", same(square, rot)),
            ("omega-is-rotation-then-reversal", same(om, apply(reversal, rot))),
            ("omega-is-reversal-then-rotation", same(om, apply(rotate, rev))),
            ("rho-involution", same(apply(rho, apply(rho, t)), t)),
            ("reversal-involution", same(apply(reversal, rev), t)),
            ("omega-involution", same(apply(omega, om), t)),
        )
    )
