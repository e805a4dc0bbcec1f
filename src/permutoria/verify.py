"""Named verification suites: every counting theorem, generating function,
bijection and tableau identity in scope, checked against brute force.

Each suite returns a :class:`SuiteReport`; conjecture suites are marked so
the CLI never fails the process on them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from . import bijections as bj
from . import counting as ct
from . import formulas as fm
from . import gengraph as gg
from . import involutions as iv
from . import tableau as tb
from .errors import PermutoriaError, UnknownSuite
from .limits import Limits
from .permcore import (
    PartialPermutation,
    PatternSet,
    avoids_all,
    extendably_avoids,
    inverse,
    is_baxter,
    is_doubly_alternating,
    signature,
    symmetry,
)
from .series import MultiSeries, expand_rational, series_from_cells


@dataclass
class SuiteReport:
    suite: str
    universe: str
    passed: int = 0
    failed: int = 0
    first_counterexample: str | None = None
    rows: list[str] = field(default_factory=list)

    def check(self, ok: bool, label: str):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_counterexample is None:
                self.first_counterexample = label
        self.rows.append(f"{'pass' if ok else 'FAIL'}  {label}")

    def note(self, label: str):
        self.rows.append(f"note  {label}")

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "universe": self.universe,
            "passed": self.passed,
            "failed": self.failed,
            "firstCounterexample": self.first_counterexample,
        }


# every suite runs under these caps whatever ``PERMUTORIA_LIMITS`` says, so
# a suite's sizes, its universe label and its checks are the same in every run
LIMITS = Limits(enumeration=12, da=14, extended=10, tree_depth=14)


@dataclass(frozen=True)
class Scale:
    """What ``permutoria verify`` lets a caller choose: the box and alphabet
    of the ``P3-figure21`` universe.  Every other suite states its own sizes."""

    box: tuple[int, int] = (4, 4)
    letters: int = 4


# the largest P3-figure21 universe ``verify`` accepts: on 2 cores the suite
# takes about 15 s at 4x4 with 4 letters, 70 s at 5x4 or 4x5, 90 s at 5x4
# with 5 letters, and more than 90 s at 5x5
MAX_BOX_CELLS = 20
MAX_LETTERS = 5


# ---------------------------------------------------------------------------
# universes


def lr_universe(R: int, C: int, N: int) -> Iterator[tb.SkewTableau]:
    shapes = tb.partitions_in_box(R, C)
    for lam in shapes:
        for mu in shapes:
            if not tb.contains(lam, mu):
                continue
            total = sum(lam) - sum(mu)
            if total == 0:
                continue
            for nu in tb.partitions_of(total, max_len=N):
                if tb.contains(lam, nu):  # c^lam_{mu,nu} = 0 unless nu fits in lam
                    yield from tb.enumerate_lr(lam, mu, nu, box1=(R, C))


def ssyt_universe(R: int, C: int, N: int) -> Iterator[tb.SkewTableau]:
    shapes = tb.partitions_in_box(R, C)
    for lam in shapes:
        for mu in shapes:
            if tb.contains(lam, mu) and sum(lam) > sum(mu):
                yield from tb.enumerate_ssyt(
                    lam, mu, max_letter=N, box1=(R, C), box2=(N, max(C, N))
                )


def dominant_universe(R: int, C: int, N: int, W: int):
    """(tableau, companion outer, companion inner) triples."""
    shapes2 = tb.partitions_in_box(N, W)
    for t in ssyt_universe(R, C, N):
        w = t.weight()
        for nu in shapes2:
            padn = nu + (0,) * (N - len(nu))
            for kap in shapes2:
                if not tb.contains(nu, kap):
                    continue
                padk = kap + (0,) * (N - len(kap))
                if tuple(a - b for a, b in zip(padn, padk)) != w:
                    continue
                if tb.is_dominant(t, nu, kap):
                    yield t, nu, kap


def _cube_series(cells: dict[tuple[int, int, int], int], total: int) -> MultiSeries:
    """A table with d+c+r <= total as a series that truncates none of it."""
    return series_from_cells(cells, (total, total, total))


# ---------------------------------------------------------------------------
# laws
#
# Each law, in every suite, is a predicate on one case, stated once; a case
# carries the values several laws read, and a failing law names its first case.


def _holds(law: Callable, case) -> bool:
    """Whether the law holds on the case; a map that refuses the case fails it."""
    try:
        return law(case)
    except PermutoriaError:
        return False


def _check_laws(rep: SuiteReport, cases: Iterable, what: str, laws: dict[str, Callable]):
    """One check per law, that it holds on every case, in one pass over the
    cases; ``what`` names the universe and takes the number of cases."""
    seen = 0
    first: dict[str, object] = {}
    for case in cases:
        seen += 1
        for label, law in laws.items():
            if label not in first and not _holds(law, case):
                first[label] = case
    for label in laws:
        witness = f"; fails at {first[label]!r}" if label in first else ""
        rep.check(label not in first, f"{label} ({what.format(seen)}){witness}")


ck = iv.content_key


# ---------------------------------------------------------------------------
# introduction


def suite_intro_wilf(scale: Scale) -> SuiteReport:
    rep = SuiteReport("intro-wilf", "n<=10")
    for pat in ("123", "132", "213", "231", "312", "321"):
        ps = PatternSet.parse(pat)
        ok = all(ct.count_avoiders(n, ps, LIMITS) == ct.catalan(n) for n in range(11))
        rep.check(ok, f"|S_n({pat})| = catalan(n), n<=10")
    seqs = {
        "1234": [1, 1, 2, 6, 23, 103, 513, 2761, 15767, 94359, 586590],
        "1324": [1, 1, 2, 6, 23, 103, 513, 2762, 15793, 94776, 591950],
        "1342": [1, 1, 2, 6, 23, 103, 512, 2740, 15485, 91245, 555662],
    }
    for pat, expected in seqs.items():
        ps = PatternSet.parse(pat)
        got = [ct.count_avoiders(n, ps, LIMITS) for n in range(11)]
        rep.check(got == expected, f"|S_n({pat})| table")
    ok = all(
        ct.count_avoiders(n, PatternSet.parse("1342"), LIMITS)
        == ct.count_avoiders(n, PatternSet.parse("2413"), LIMITS)
        for n in range(10)
    )
    rep.check(ok, "1342 and 2413 agree, n<=9")
    # symmetry classes of pattern sets share counts
    for pat in ("132", "1342", "213,4123"):
        ps = PatternSet.parse(pat)
        for op in ("reverse", "complement", "inverse"):
            other = PatternSet([symmetry(p, op) for p in ps])
            ok = all(
                ct.count_avoiders(n, ps, LIMITS) == ct.count_avoiders(n, other, LIMITS)
                for n in range(9)
            )
            rep.check(ok, f"{pat} vs {op} counts agree")
    return rep


def suite_intro_thm27(scale: Scale) -> SuiteReport:
    rep = SuiteReport("intro-thm2.7", "d+c+r<=8")
    from math import comb

    def binom(a: int, b: int) -> int:
        return comb(a, b) if 0 <= b <= a else 0

    def binomial(d: int, c: int, r: int) -> int:
        n = d + c + r
        return binom(n + d, d) - binom(n + d, d - 1)

    def summed(d: int, c: int, r: int) -> int:
        n = d + c + r
        return sum(binom(n - c, i) * binom(n - r, i) for i in range(d + 1)) - binom(n + d, d - 1)

    tables = {
        pat: ct.extended_table(PatternSet.parse(pat), 8, LIMITS)
        for pat in ("132", "231", "312", "321", "123", "213")
    }
    laws = {}
    for pat, table in tables.items():
        name, f = ("sum", summed) if pat in ("123", "213") else ("binomial", binomial)
        laws[f"{name} formula for {pat}"] = lambda cell, t=table, f=f: t.get(cell, 0) == f(*cell)
    # the six classes are closed under inverse, so each table's inverse
    # table is one of the six
    for pat, table in tables.items():
        inv = tables[str(PatternSet.parse(pat).inverse())]
        laws[f"inverse-transpose law for {pat}"] = (
            lambda cell, t=table, inv=inv: inv.get((cell[0], cell[2], cell[1]), 0) == t.get(cell, 0)
        )
    _check_laws(rep, sorted(set().union(*tables.values())), "d+c+r<=8, {} cells", laws)
    return rep


def suite_intro_schur(scale: Scale) -> SuiteReport:
    rep = SuiteReport("intro-schur", "|mu|,|nu|<=4, 4 variables")
    sizes = range(1, 5)
    for a in sizes:
        for b in sizes:
            for mu in tb.partitions_of(a):
                for nu in tb.partitions_of(b):
                    ok = iv.schur_product_check(mu, nu, 4)
                    rep.check(ok, f"s_{mu} * s_{nu}")
    return rep


# ---------------------------------------------------------------------------
# P1 suites: doubly alternating families


def suite_p1_basics(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P1-da-basics", "n<=10")
    for n in range(1, 11):
        das = list(ct.enumerate_da(n, None, LIMITS))
        ok_inv = all(is_doubly_alternating(inverse(w)) for w in das)
        rep.check(ok_inv, f"inverses stay doubly alternating, n={n}")
        if n % 2 == 0:
            ok_rot = all(is_doubly_alternating(symmetry(w, "rotate180")) for w in das)
            rep.check(ok_rot, f"rotations stay doubly alternating, n={n}")
            ok_border = all(
                w[0] % 2 == 1
                and w[-1] % 2 == 0
                and ((w[1] == n) == (w[0] == n - 1))
                for w in das
            )
            rep.check(ok_border, f"border constraints, n={n}")
    return rep


def suite_p1_prop31(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P1-prop3.1", "n<=12")
    for n in range(1, 13):
        for pat in ("123", "213", "231", "312"):
            rep.check(
                ct.count_da(n, PatternSet.parse(pat), LIMITS) == 1, f"|DA_{n}({pat})| = 1"
            )
        expect132 = 1 if (n % 2 == 0 or n == 1) else 0
        rep.check(
            ct.count_da(n, PatternSet.parse("132"), LIMITS) == expect132,
            f"|DA_{n}(132)| = {expect132}",
        )
        expect321 = 1 + (1 if (n % 2 == 0 and n >= 4) else 0)
        rep.check(
            ct.count_da(n, PatternSet.parse("321"), LIMITS) == expect321,
            f"|DA_{n}(321)| = {expect321}",
        )
    return rep


def suite_p1_sec4(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P1-sec4", "2n<=12")
    p2413 = PatternSet.parse("2413")
    p3142 = PatternSet.parse("3142")
    for n in range(1, 13):
        rep.check(
            ct.count_da(n, p2413, LIMITS) == ct.catalan(n // 2),
            f"|DA_{n}(2413)| = catalan({n // 2})",
        )
    for n in range(1, 11):
        sets = {
            "2413": set(ct.enumerate_da(n, p2413, LIMITS)),
            "3142": set(ct.enumerate_da(n, p3142, LIMITS)),
            "both": set(ct.enumerate_da(n, PatternSet.parse("2413,3142"), LIMITS)),
        }
        baxter = {w for w in ct.enumerate_da(n, None, LIMITS) if is_baxter(w)}
        rep.check(
            sets["2413"] == sets["3142"] == sets["both"] == baxter,
            f"set equality with the Baxter family, n={n}",
        )
    for m in range(0, 7):
        dom = list(ct.enumerate_da(2 * m, p2413, LIMITS))
        paths = set()
        ok = True
        for w in dom:
            path = bj.theta(w)
            if not bj.is_dyck_path(path) or bj.theta_inverse(path) != w:
                ok = False
                break
            paths.add(path)
        rep.check(
            ok and len(paths) == len(dom) == ct.catalan(m),
            f"Dyck bijection onto all catalan({m}) paths, 2n={2 * m}",
        )
    return rep


def _neighbour_order(case: tuple) -> bool:
    w, p, _ = case
    roww = bj.row_word(p)
    return all((w.index(k) < w.index(k + 1)) == (roww[k - 1] >= roww[k]) for k in range(1, len(w)))


def _signatures(case: tuple) -> bool:
    w, p, q = case
    flipped = tuple("-" if s == "+" else "+" for s in signature(bj.row_word(q)))
    same = signature(w) == signature(bj.column_word(q)) == flipped
    return same and signature(inverse(w)) == signature(bj.column_word(p))


def suite_p1_sec5(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P1-sec5", "n<=7 tableaux laws; n<=5 bijection")
    p1234 = PatternSet.parse("1234")
    for n in range(1, 8):
        cases = ((w, *bj.rs_pair(w)) for w in itertools.permutations(range(1, n + 1)))
        _check_laws(rep, cases, f"n={n}, {{}} permutations", {
            "neighbour order vs insertion rows": _neighbour_order,
            "signature identities": _signatures,
            "doubly alternating iff both tableaux alternate": lambda c: (
                is_doubly_alternating(c[0]) == all(map(bj.is_alternating_tableau, c[1:]))
            ),
        })
    # colpair round trip on all Yamanouchi words of length <= 6
    words = [
        w
        for k in range(0, 7)
        for w in itertools.product((1, 2, 3), repeat=k)
        if tb.is_yamanouchi(w)
    ]
    ok = all(bj.colpair(bj.colpair_inverse(w)) == w for w in words)
    rep.check(ok, f"colpair round trip on {len(words)} Yamanouchi words")
    sizes = []
    for n in range(0, 6):
        dom = list(ct.enumerate_avoiders(n, p1234, LIMITS))
        sizes.append(len(dom))
        images = set()
        ok = True
        for w in dom:
            img = bj.phi(w)
            if len(img) != 2 * n or not is_doubly_alternating(img) or not avoids_all(img, p1234):
                ok = False
                break
            if bj.phi_inverse(img) != w:
                ok = False
                break
            images.add(img)
        cod = set(ct.enumerate_da(2 * n, p1234, LIMITS))
        rep.check(ok and images == cod, f"phi bijection at n={n} ({len(dom)} elements)")
    rep.check(sizes == [1, 1, 2, 6, 23, 103], f"phi domain sizes {sizes}, n<=5")
    return rep


def suite_p1_sec6(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P1-sec6", "n<=10")
    fig_sigma = (1, 11, 7, 9, 5, 12, 8, 10, 3, 4, 2, 6)
    region = bj.active_region(fig_sigma, (3, 4))
    rep.check(
        bool(region.diagram)
        and all(r % 2 == 1 and c % 2 == 1 for r, c in region.active_dots),
        "figure example: nonempty region, active dots on odd coordinates",
    )
    p12, p21 = PatternSet.parse("1234"), PatternSet.parse("2134")
    for n in range(0, 11):
        dom = list(ct.enumerate_da(n, p12, LIMITS))
        cod = set(ct.enumerate_da(n, p21, LIMITS))
        ok = True
        images = set()
        for w in dom:
            img = bj.psi(w, (3, 4))
            if bj.psi_inverse(img, (3, 4)) != w:
                ok = False
                break
            reg = bj.active_region(w, (3, 4))
            inside = set(reg.placement)
            for i, v in enumerate(w):
                if (i + 1, v) not in inside and img[i] != v:
                    ok = False
            images.add(img)
        rep.check(ok and images == cod, f"psi bijection with fixed inactive dots, n={n}")
    # region depends only on the inactive dots
    groups: dict[tuple, set] = {}
    regions = [(w, bj.active_region(w, (3, 4))) for w in ct.enumerate_da(8, p12, LIMITS)]
    for w, reg in regions:
        inside = set(reg.placement)
        key = tuple(sorted((i + 1, v) for i, v in enumerate(w) if (i + 1, v) not in inside))
        groups.setdefault(key, set()).add(reg.diagram)
    rep.check(
        all(len(v) == 1 for v in groups.values()),
        "equal inactive dots give equal diagrams",
    )
    # uniqueness of the monotone replacements against brute force
    nonempty = [reg for _, reg in regions if reg.placement]
    _check_laws(rep, nonempty, "DA_8(1234), {} nonempty regions", {
        "replacement uniqueness vs exhaustive search": _unique_replacement,
    })
    return rep


def _unique_replacement(reg: bj.ActiveRegion) -> bool:
    args = (reg.diagram, reg.rows(), reg.cols(), "increasing")
    sols = bj.placements_bruteforce(*args)
    return len(sols) == 1 and sols[0] == bj.unique_monotone_placement(*args)


def suite_p1_prop72(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P1-prop7.2", "2n<=10")
    for m in range(1, 6):
        a = ct.count_da(2 * m, PatternSet.parse("2143"), LIMITS)
        b = ct.count_da(2 * m + 1, PatternSet.parse("3412"), LIMITS)
        c = ct.count_da(2 * m + 2, PatternSet.parse("3412"), LIMITS)
        rep.check(a == b == c, f"2n={2 * m}: {a} = {b} = {c}")
    return rep


def suite_p1_prop81(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P1-prop8.1", "n<=14")
    ps = PatternSet.parse("1234,2413")
    for n in range(1, 15):
        got = ct.count_da(n, ps, LIMITS)
        if n % 2 == 0:
            expect = ct.fibonacci(n // 2 + 1)
        elif n == 5:
            expect = 2
        else:
            expect = 1
        rep.check(got == expect, f"|DA_{n}(1234,2413)| = {expect}")
    return rep


def _conjecture_suite(name: str) -> Callable[[Scale], SuiteReport]:
    def run(scale: Scale) -> SuiteReport:
        rep = SuiteReport(name, "n<=12")
        report = ct.conjecture_report(name, 12, LIMITS)
        for row in report.rows:
            status = "agree" if row.match else "DISAGREE"
            rep.note(f"n={row.n}: observed={row.observed} predicted={row.predicted} {status}")
        rep.check(bool(report.rows), f"report generated; all_match={report.all_match}")
        return rep

    return run


# ---------------------------------------------------------------------------
# P2 suites: extended avoidance and generating graphs


def suite_p2_trees(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P2-trees", "depths 6-8")
    t = gg.build_tree(PatternSet.parse("123"), "standard", 5, LIMITS)
    rep.check(gg.level_sizes(t) == [1, 1, 2, 5, 14, 42], "level sizes for the Catalan family")
    fib = PatternSet.parse("213,4123")
    t = gg.build_tree(fib, "standard", 4, LIMITS)
    rep.check(gg.level_sizes(t) == [1, 1, 2, 5, 13], "level sizes for the Fibonacci family")
    g, _ = gg.discover_graph(PatternSet.parse("123"), "standard", 8, 4, LIMITS)
    ok, _ = gg.validate_graph(g, PatternSet.parse("123"), "standard", 8, LIMITS)
    rep.check(ok, "discovered Catalan graph validates to depth 8")
    g2, _ = gg.discover_graph(fib, "standard", 8, 4, LIMITS)
    rep.check(len(g2.classes) == 3, "Fibonacci family graph has three classes")
    ok, _ = gg.validate_graph(g2, fib, "standard", 8, LIMITS)
    rep.check(ok, "Fibonacci graph validates to depth 8")
    # the family's generating function (1-2x)/(1-3x+x^2) gives the
    # odd-indexed Fibonacci numbers in the F_1=F_2=1 convention
    odd_fib = [1] + [ct.fibonacci(2 * n - 1) for n in range(1, 13)]
    series = gg.walk_series(gg.even_fibonacci_graph(), (12, 0, 0))
    rep.check(
        series.univariate() == odd_fib,
        "three-class graph walks give the odd-indexed Fibonacci numbers",
    )
    brute = [ct.count_avoiders(n, fib, LIMITS) for n in range(13)]
    rep.check(brute == odd_fib, "|S_n(213,4123)| by brute force, n<=12")
    walks = gg.walk_series(g2, (12, 0, 0)).univariate()
    rep.check(walks == brute, "discovered Fibonacci graph walks equal brute force, n<=12")
    series = gg.walk_series(gg.catalan_graph(12), (10, 0, 0))
    rep.check(
        series.univariate() == [ct.catalan(n) for n in range(11)],
        "Catalan graph walks to order 10",
    )
    rep.check(
        not gg.graph_isomorphic(gg.catalan_graph(3), gg.even_fibonacci_graph())[0],
        "Catalan and Fibonacci graphs are not isomorphic",
    )
    rep.check(
        gg.discovery_is_stable(fib, "standard", 6, 4, LIMITS),
        "fingerprint depth is stable for the Fibonacci family",
    )
    return rep


def suite_p2_gadgets(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P2-lemmas2.8-2.10", "k<=4, order 10, impulse and geometric feeders")
    order = 10
    orders = (order, 0, 0)
    one = MultiSeries.constant(1, orders)
    zero = MultiSeries.zero(orders)
    x = MultiSeries.variable("x", orders)
    for k in range(1, 5):
        impulse = [zero] * k + [one] + [zero] * 3
        geometric = [x**j for j in range(8)]
        allzero = [zero] * 8
        for gadget in ("descent-all", "descent-own", "catalan-ladder"):
            for name, feeders in (("impulse", impulse), ("geometric", geometric), ("zero", allzero)):
                ok, dp, closed = gg.lemma_walk_check(gadget, k, feeders, order)
                rep.check(ok, f"{gadget}, k={k}, {name} feeders")
    return rep


def suite_p2_sec3(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P2-sec3", "cells to 6")
    total = 6
    for pat in ("123", "132", "213,4123"):
        ps = PatternSet.parse(pat)
        table = ct.extended_table(ps, total, LIMITS)
        inv_table = ct.extended_table(ps.inverse(), total, LIMITS)
        ok = _cube_series(table, total).swap_yz() == _cube_series(inv_table, total)
        rep.check(ok, f"transpose symmetry for {pat}")
    # active sites are r-active, and without empty rows r-active sites are
    # active (children_with_kinds relies on it); bottom-site activity implies
    # c-activity
    from .permcore import _insert_dot, _insert_row

    ps = PatternSet.parse("123")

    def with_sites(pp: PartialPermutation):
        """The object with (active, r-active) at each site, top to bottom."""
        sites = [(_insert_dot(pp, s), _insert_row(pp, s)) for s in range(1, pp.rows + 2)]
        return pp, [(extendably_avoids(a, ps), extendably_avoids(b, ps)) for a, b in sites]

    def c_active(pp: PartialPermutation) -> bool:
        return extendably_avoids(PartialPermutation(pp.rows, pp.cols + 1, pp.dots), ps)

    objects = (
        pp for d in range(3) for c in range(2) for r in range(2)
        for pp in ct.enumerate_extended(d, c, r, ps, LIMITS)
    )
    _check_laws(rep, map(with_sites, objects), "d<=2, c,r<=1, {} objects", {
        "active sites are r-active": lambda c: all(r_act for act, r_act in c[1] if act),
        "without empty rows, r-active sites are active": lambda c: (
            c[0].rows > len(c[0].dots) or all(act for act, r_act in c[1] if r_act)
        ),
        "bottom-site activity implies c-activity": lambda c: not c[1][-1][0] or c_active(c[0]),
    })
    # the dotted ladder: row-classes only reach row-classes
    g, _ = gg.discover_graph(PatternSet.parse("123"), "standard-extended", 5, 4, LIMITS)
    names = g.classes
    row_classes = {
        i
        for i, nm in enumerate(names)
        if "_" in nm.split("[", 1)[1]
    }
    ok = all(e.dst in row_classes for e in g.edges if e.src in row_classes)
    rep.check(ok, "row classes have only row successors")
    ok = all(e.kind == "row" for e in g.edges if e.src in row_classes)
    rep.check(ok, "edges out of row classes are dotted")
    # ladder shape: a row class with k successors reaches the classes with
    # 1..k successors once each (a new lowest empty row can go at or below
    # the current one)
    degree = {
        i: sum(e.weight for e in g.edges if e.src == i)
        for i in row_classes
        if g.complete[i]
    }

    def on_ladder(item: tuple[int, int]) -> bool:
        i, k = item
        edges = [e for e in g.edges if e.src == i]
        ladder = sorted(degree[e.dst] for e in edges) == list(range(1, k + 1))
        complete = all(g.complete[e.dst] for e in edges)
        return all(e.weight == 1 for e in edges) and (ladder or not complete)

    _check_laws(rep, degree.items(), "depth 5, {} complete row classes", {
        "row classes form the complete-descent ladder": on_ladder,
    })
    return rep


def suite_p2_formulas(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P2-formulas", "d<=8, c,r<=6, total<=8")
    orders = (8, 6, 6)
    for ps, formulas_list in fm.FORMULAS.items():
        cells = ct.extended_table(ps, 8, LIMITS)
        brute = series_from_cells(cells, orders)
        for idx, formula in enumerate(formulas_list):
            series = expand_rational(formula, orders)
            ok = all(
                series[m] == brute[m]
                for m in set(series.coeffs) | set(brute.coeffs)
                if sum(m) <= 8
            )
            rep.check(ok, f"Ext formula {idx + 1} for {{{ps}}}")
    for ps in fm.EXTENDABLY_SYMMETRIC:
        ok = _cube_series(ct.extended_table(ps, 7, LIMITS), 7).is_yz_symmetric()
        rep.check(ok, f"{{{ps}}} extendably symmetric")
    return rep


def suite_p2_graph_equivalences(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P2-graph-equivalences", "discovery depth 6, fingerprints 4")
    for ps_a, rule_a, ps_b, rule_b in fm.GRAPH_EQUIVALENT:
        ga, ca = gg.discover_graph(ps_a, rule_a, 6, 4, LIMITS)
        gb, cb = gg.discover_graph(ps_b, rule_b, 6, 4, LIMITS)
        iso, _ = gg.graph_isomorphic(ga, gb)
        rep.check(iso, f"{{{ps_a}}} ({rule_a}) ~ {{{ps_b}}} ({rule_b})")
        ok_a, _ = gg.validate_graph(ga, ps_a, rule_a, 6, LIMITS)
        ok_b, _ = gg.validate_graph(gb, ps_b, rule_b, 6, LIMITS)
        rep.check(ok_a and ok_b, f"both graphs validate to horizon 6")
    # graph-induced bijection between the two increasing-family graphs
    ga, ca = gg.discover_graph(PatternSet.parse("123"), "standard-extended", 6, 4, LIMITS)
    gb, cb = gg.discover_graph(PatternSet.parse("213"), "standard-extended", 6, 4, LIMITS)
    iso, mapping = gg.graph_isomorphic(ga, gb)
    ok = bool(iso)
    objects = 0
    if iso:
        for total in range(7):
            for d in range(total + 1):
                for c in range(total - d + 1):
                    r = total - d - c
                    dom = ct.enumerate_extended(d, c, r, PatternSet.parse("123"), LIMITS)
                    cod = set(ct.enumerate_extended(d, c, r, PatternSet.parse("213"), LIMITS))
                    images = {
                        gg.walk_decode(gg.walk_encode(o, ca, iso=mapping), cb)
                        for o in dom
                    }
                    if images != cod or len(images) != len(dom):
                        ok = False
                    objects += len(dom)
    rep.check(ok, f"walk-transport bijection on every cell to total 6 ({objects} objects)")
    return rep


def suite_p2_pair_table(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P2-pair-table", "cells with d+c+r<=6")
    tables: dict[str, dict] = {}
    for name, group in fm.PAIR_TABLE_GROUPS.items():
        for ps in group:
            tables[str(ps)] = ct.extended_table(ps, 6, LIMITS)
    for name, group in fm.PAIR_TABLE_GROUPS.items():
        base = tables[str(group[0])]
        for ps in group[1:]:
            rep.check(tables[str(ps)] == base, f"group {name}: {{{ps}}} matches")
        if name.endswith("-inv"):
            partner = fm.PAIR_TABLE_GROUPS[name[:-4]]
            ok = _cube_series(base, 6) == _cube_series(tables[str(partner[0])], 6).swap_yz()
            rep.check(ok, f"group {name} is the transpose of group {name[:-4]}")
    for name, group in fm.PAIR_TABLE_ORDINARY.items():
        base, other = group
        ok = all(
            ct.count_avoiders(n, base, LIMITS) == ct.count_avoiders(n, other, LIMITS)
            for n in range(9)
        )
        rep.check(ok, f"group {name}: plain counts agree")
    return rep


# ---------------------------------------------------------------------------
# P3 suites: tableau involutions

Pair = tuple[tb.SkewTableau, tb.SkewTableau]


def _words(t: tb.SkewTableau, *words: iv.BKWord) -> tb.SkewTableau:
    """Apply the words one after another, one ``apply_bk_word`` call each."""
    for word in words:
        t = iv.apply_bk_word(t, word)
    return t


def _recording_round_trip(t: tb.SkewTableau) -> bool:
    back = tb.tableau_from_recording(t.outer, t.inner, tb.recording_matrix(t), t.box1, t.box2)
    return ck(back) == ck(t)


def _lr_iff_dominant(t: tb.SkewTableau) -> bool:
    """LR iff 0-dominant; a weight that is not a partition rules out both."""
    w = t.weight()
    if all(a >= b for a, b in zip(w, w[1:])):
        return tb.is_lr(t) == tb.is_dominant(t, tb.normalize(w))
    return not tb.is_lr(t)


def _slide_order_free(t: tb.SkewTableau) -> bool:
    base = ck(iv.jdt(t))
    return all(ck(iv.jdt_random_order(t, seed)) == base for seed in (1, 2, 3))


def _rotation_involutive(t: tb.SkewTableau) -> bool:
    return ck(tb.rotate(tb.rotate(t))) == ck(t)


def _bk_involutive(t: tb.SkewTableau) -> bool:
    return all(ck(iv.bender_knuth(iv.bender_knuth(t, i), i)) == ck(t) for i in range(1, t.letters))


def _bk_distant_commute(t: tb.SkewTableau) -> bool:
    a = iv.bender_knuth(iv.bender_knuth(t, 1), 3)
    return ck(a) == ck(iv.bender_knuth(iv.bender_knuth(t, 3), 1))


Reversed = tuple[tb.SkewTableau, tb.SkewTableau]


def _with_reversal(universe: Iterable[tb.SkewTableau]) -> Iterator[Reversed]:
    """Each tableau with its weight reversal zm(letters), which the laws
    below read instead of applying the word again."""
    for t in universe:
        yield t, _words(t, iv.zm_word(t.letters))


def _on_tableau(law: Callable[[tb.SkewTableau], bool]) -> Callable[[Reversed], bool]:
    return lambda case: law(case[0])


def _zm_square(case: Reversed) -> bool:
    """On partition shapes this is the evacuation square."""
    t, z = case
    return ck(_words(z, iv.zm_word(t.letters))) == ck(t)


def _t_cancel(t: tb.SkewTableau, k: int) -> bool:
    l = t.letters - k
    return ck(_words(t, iv.t_word(k, l), iv.t_word(l, k))) == ck(t)


def _z_split(case: Reversed, k: int) -> bool:
    t, z = case
    l = t.letters - k
    right = _words(t, iv.zm_word(l), iv.t_word(l, k), iv.zm_word(k))
    return ck(z) == ck(right)


def _t_split(t: tb.SkewTableau, l: int, k: int) -> bool:
    m = t.letters - l - k
    right = _words(t, iv.t_word(k, m, d=l), iv.t_word(l, m))
    return ck(_words(t, iv.t_word(l + k, m))) == ck(right)


def _stacked_pairs(box: int) -> Iterator[Pair]:
    """Every pair (s, t) in a box x box square with t stacked on s, each
    with two letters, except the pair of empty tableaux."""
    shapes = tb.partitions_in_box(box, box)
    fill = dict(max_letter=2, box1=(box, box), box2=(2, box))
    for nu in shapes:
        for mu in (mu for mu in shapes if tb.contains(nu, mu)):
            ss = list(tb.enumerate_ssyt(nu, mu, **fill))
            for lam in (lam for lam in shapes if tb.contains(lam, nu)):
                ts = list(tb.enumerate_ssyt(lam, nu, **fill))
                yield from ((s, t) for s in ss for t in ts if s.size() or t.size())


def _switch_involutive(pair: Pair) -> bool:
    back = iv.tableau_switch(*iv.tableau_switch(*pair))
    return (ck(back[0]), ck(back[1])) == (ck(pair[0]), ck(pair[1]))


def _switch_routes_agree(pair: Pair) -> bool:
    a, b = iv.tableau_switch(*pair), iv.tableau_switch_sliding(*pair)
    return (ck(a[0]), ck(a[1])) == (ck(b[0]), ck(b[1]))


def _switch_rectifies(pair: Pair) -> bool:
    """Switching past a nonempty straight s moves t to its rectification."""
    s, t = pair
    return bool(s.inner) or not s.size() or ck(iv.tableau_switch(s, t)[0]) == ck(iv.jdt(t))


Dominant = tuple[tb.SkewTableau, tb.Partition, tb.Partition, tb.SkewTableau, tb.SkewTableau]


def _dominant_with_rsk(R: int, C: int, N: int, W: int) -> Iterator[Dominant]:
    """Each (t, nu, kap) of the dominant universe with rsk_tableau(t, nu, kap)."""
    for t, nu, kap in dominant_universe(R, C, N, W):
        yield (t, nu, kap, *iv.rsk_tableau(t, nu, kap))


def _complements(t: tb.SkewTableau, nu: tb.Partition, kap: tb.Partition) -> list[tb.Partition]:
    """The companion shapes of rotate(t): the box complements of kap and nu."""
    return [tb.complement_in_box(x, t.letters, t.box2[1]) for x in (kap, nu)]


def _companion_rotation(case: tuple) -> bool:
    t, nu, kap, tau = case
    return ck(tb.companion(tb.rotate(t), *_complements(t, nu, kap))) == ck(tb.rotate(tau))


def suite_p3_companion(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P3-sec2", "boxes <= 3x3, letters <= 3")
    _check_laws(rep, ssyt_universe(3, 3, 3), "3x3 box, 3 letters, {} tableaux", {
        "recording round trip": _recording_round_trip,
        "rotation is an involution": _rotation_involutive,
        "Yamanouchi word iff partition-shaped companion": _lr_iff_dominant,
    })
    dominant = (
        (t, nu, kap, tb.companion(t, nu, kap))
        for letters in (2, 3) for t, nu, kap in dominant_universe(3, 3, letters, 3)
    )
    _check_laws(rep, dominant, "3x3 box, letters <= 3, {} dominant tableaux", {
        "companion involution": lambda c: (
            ck(tb.companion(c[3], c[0].outer, c[0].inner)) == ck(c[0])
        ),
        "companion commutes with rotation": _companion_rotation,
    })
    # canonical family of a staircase-like shape
    lam = (5, 4, 3, 1)
    box = (4, 5)
    can = tb.canonical(lam, box1=box, box2=(4, 5))
    anti = iv.schuetzenberger(can)
    family = {ck(can), ck(anti), ck(tb.rotate(can)), ck(tb.rotate(anti))}
    rep.check(len(family) == 4, "four distinct canonical-family tableaux")
    # rotating a canonical in its minimal box and rectifying gives the
    # weight-reversed canonical
    tight = tb.canonical(lam)
    rep.check(
        ck(iv.jdt(tb.rotate(tight))) == ck(iv.schuetzenberger(tight)),
        "rectified rotation of a canonical equals its weight reversal",
    )
    # rectangular shapes are fixed by all four constructions
    rect = tb.canonical((3, 3, 3))
    anti_rect = iv.schuetzenberger(rect)
    family_rect = {ck(rect), ck(anti_rect), ck(tb.rotate(rect)), ck(tb.rotate(anti_rect))}
    rep.check(len(family_rect) == 1, "rectangular canonical is fixed by the family")
    return rep


def suite_p3_sliding(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P3-sec3", "boxes <= 3x4 and 4x4, letters <= 4")
    skew = (t for t in ssyt_universe(3, 3, 3) if t.inner)
    _check_laws(rep, skew, "3x3 box, 3 letters, {} skew tableaux, 3 orders each", {
        "sliding order does not matter": _slide_order_free,
    })
    _check_laws(rep, _with_reversal(ssyt_universe(3, 3, 3)), "3x3 box, 3 letters, {} tableaux", {
        "local moves are involutions": _on_tableau(_bk_involutive),
        "weight reversal word squares to the identity": _zm_square,
    })
    _check_laws(rep, ssyt_universe(3, 4, 4), "3x4 box, 4 letters, {} tableaux", {
        "distant local moves commute": _bk_distant_commute,
    })
    _check_laws(rep, _with_reversal(ssyt_universe(2, 3, 4)), "2x3 box, 4 letters, {} tableaux", {
        "opposite block exchanges cancel": _on_tableau(
            lambda t: all(_t_cancel(t, k) for k in range(4))
        ),
        "reversal splits through block exchanges": lambda c: all(_z_split(c, k) for k in (1, 2, 3)),
        "block exchanges split additively": _on_tableau(lambda t: all(
            _t_split(t, l, k) for l in (1, 2) for k in (1, 2) if l + k < t.letters
        )),
    })
    _check_laws(rep, _stacked_pairs(3), "3x3 box, 2+2 letters, {} stacked pairs", {
        "switching routes agree": _switch_routes_agree,
        "switching is an involution": _switch_involutive,
        "switching past a straight tableau rectifies": _switch_rectifies,
    })
    # the same laws on 4x4 boxes, one block split each
    _check_laws(rep, _with_reversal(ssyt_universe(4, 4, 4)), "4x4 box, 4 letters, {} tableaux", {
        "local moves are involutions": _on_tableau(_bk_involutive),
        "rotation is an involution": _on_tableau(_rotation_involutive),
        "weight reversal word squares to the identity": _zm_square,
        "opposite block exchanges cancel": _on_tableau(lambda t: _t_cancel(t, 1)),
        "reversal splits through block exchanges": lambda c: _z_split(c, 1),
        "block exchanges split additively": _on_tableau(lambda t: _t_split(t, 1, 1)),
    })
    _check_laws(rep, _stacked_pairs(4), "4x4 box, 2+2 letters, {} stacked pairs", {
        "switching is an involution": _switch_involutive,
    })
    return rep


def _matrices() -> Iterator[tuple[tuple[tuple[int, ...], ...], tb.SkewTableau, tb.SkewTableau]]:
    """Every 3x3 matrix with entries <= 2, with its rsk_matrix pair."""
    for entries in itertools.product(range(3), repeat=9):
        m = (entries[0:3], entries[3:6], entries[6:9])
        yield (m, *iv.rsk_matrix(m))


def _transpose_swaps(case) -> bool:
    m, p, q = case
    pt, qt = iv.rsk_matrix(tuple(zip(*m)))
    return ck(pt) == ck(q) and ck(qt) == ck(p)


def _rotation_reverses(case) -> bool:
    m, p, q = case
    pr, qr = iv.rsk_matrix(tuple(tuple(reversed(r)) for r in reversed(m)))
    return ck(pr) == ck(iv.schuetzenberger(p)) and ck(qr) == ck(iv.schuetzenberger(q))


def _rsk_identities(case: Dominant) -> bool:
    """rsk_tableau against the matrix route, rectification and rotation."""
    t, nu, kap, p, q = case
    p_, q_ = iv.rsk_matrix(tuple(reversed(tb.recording_matrix(t))))
    q2 = iv.jdt(tb.companion(tb.rotate(t), *_complements(t, nu, kap)))
    return (
        ck(p) == ck(p_) == ck(iv.jdt(t))
        and ck(q_) == ck(iv.schuetzenberger(q)) == ck(q2)
        and ck(iv.jdt(tb.rotate(t))) == ck(iv.schuetzenberger(p))
    )


def _companion_swaps(case: Dominant) -> bool:
    t, nu, kap, p, q = case
    pt, qt = iv.rsk_tableau(tb.companion(t, nu, kap), t.outer, t.inner)
    return ck(pt) == ck(q) and ck(qt) == ck(p)


def _slides_keep_companion_shapes(case: Dominant) -> bool:
    t, nu, kap = case[:3]
    return all(
        tb.is_dominant(u, nu, kap) or not iv.jdt_equivalent(t, u)
        for u in tb.enumerate_ssyt(t.outer, t.inner, max_letter=2, box1=t.box1, box2=t.box2)
    )


def _reversal_involutive(case: Reversed) -> bool:
    t, r = case
    same_shape = (r.outer, r.inner) == (t.outer, t.inner)
    return same_shape and r.weight() == t.weight()[::-1] and ck(iv.reversal(r)) == ck(t)


def _helper_free(case: Reversed) -> bool:
    t, r = case
    helpers = tb.enumerate_ssyt(t.inner, max_letter=2, box1=(3, 3), box2=(2, 3))
    return all(ck(iv.reversal_with(t, s)) == ck(r) for s in itertools.islice(helpers, 3))


def suite_p3_rsk(scale: Scale) -> SuiteReport:
    rep = SuiteReport(
        "P3-sec4", "matrices 3x3 entries<=2; dominant universe 3x3/2; ssyt universe 3x3/3"
    )
    _check_laws(rep, _matrices(), "3x3, entries <= 2, {} matrices", {
        "transposition swaps the output pair": _transpose_swaps,
        "rotation conjugates by weight reversal": _rotation_reverses,
        "reverse bumping inverts the correspondence": lambda c: (
            iv.rsk_matrix_inverse(c[1], c[2]) == c[0]
        ),
    })
    _check_laws(rep, _dominant_with_rsk(3, 3, 2, 3), "3x3 box, 2 letters, {} dominant tableaux", {
        "sliding/rotation/companion identity suite": _rsk_identities,
        "switching-based inverse recovers the tableau": lambda c: (
            ck(iv.rsk_tableau_inverse(c[3], c[4], c[0].outer, c[0].inner)) == ck(c[0])
        ),
        "companion swaps the insertion and recording tableaux": _companion_swaps,
        "jdt-equivalent tableaux share their companion shapes": _slides_keep_companion_shapes,
    })
    universe = [(t, iv.reversal(t)) for t in ssyt_universe(3, 3, 3)]
    _check_laws(rep, universe, "3x3 box, 3 letters, {} tableaux", {
        "reversal involution": _reversal_involutive,
    })
    _check_laws(rep, (c for c in universe if c[0].inner), "3x3 box, 3 letters, {} skew tableaux", {
        "reversal independent of the helper tableau": _helper_free,
    })
    # dual equivalence
    by_shape: dict[tuple, list] = {}
    for t, _ in universe:
        by_shape.setdefault((t.outer, t.inner), []).append(t)
    straight = [group for group in by_shape.values() if not group[0].inner]
    neighbours = [pair for group in straight for pair in zip(group, group[1:])]
    _check_laws(rep, neighbours, "3x3 box, 3 letters, {} neighbouring pairs", {
        "partition tableaux of equal shape are dual equivalent": lambda c: iv.dual_equivalent(*c),
    })
    pairs = [(a, b) for group in by_shape.values() for a in group[:6] for b in group[:6]]
    _check_laws(rep, pairs, "3x3 box, 3 letters, {} pairs of equal shape", {
        "jdt-equivalent and dual-equivalent forces equality": lambda c: (
            ck(c[0]) == ck(c[1]) or not (iv.jdt_equivalent(*c) and iv.dual_equivalent(*c))
        ),
    })
    return rep


def _rho_involutive(case: tuple) -> bool:
    t, r = case[:2]
    return ck(iv.rho(r)) == ck(t) and (r.outer, r.inner) == (t.outer, tb.normalize(t.weight()))


def _rsk_tracks_equivalences(case: Dominant) -> bool:
    t, nu, kap, p, q = case
    for u in tb.enumerate_ssyt(t.outer, t.inner, max_letter=2, box1=t.box1, box2=t.box2):
        if not tb.is_dominant(u, nu, kap):
            continue
        pu, qu = iv.rsk_tableau(u, nu, kap)
        same_p, same_q = ck(pu) == ck(p), ck(qu) == ck(q)
        if same_p != iv.jdt_equivalent(t, u) or same_q != iv.dual_equivalent(t, u):
            return False
        if same_p and same_q and ck(u) != ck(t):
            return False
    return True


def _switching_computes_rsk(case: Dominant) -> bool:
    t, nu, kap, p, q = case
    first, second = iv.tableau_switch(tb.canonical(t.inner), t)
    tau_q = tb.companion(q, t.outer, t.inner)
    expect = iv.rho(tb.SkewTableau(
        tau_q.outer, tau_q.inner, tau_q.rows, tau_q.box1, tau_q.box2, "lr"
    ))
    return ck(first) == ck(p) and ck(second) == ck(expect)


def _reversal_flips_insertion(case: Dominant) -> bool:
    t, nu, kap, p, q = case
    pc, qc = iv.rsk_tableau(iv.reversal(t), *_complements(t, nu, kap))
    return ck(pc) == ck(iv.schuetzenberger(p)) and ck(qc) == ck(q)


def suite_p3_rho(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P3-sec5", "LR universe 3x3, letters <= 3; recording matrices 4x4/2")
    # each case is (t, rho(t), reversal(t), omega(t))
    lr = ((t, iv.rho(t), iv.reversal(t), iv.omega(t)) for t in lr_universe(3, 3, 3))
    _check_laws(rep, lr, "3x3 box, 3 letters, {} LR tableaux", {
        "symmetry map involution": _rho_involutive,
        "dual and plain symmetry maps compose to the reversal": lambda c: (
            ck(iv.rho_dual(c[1])) == ck(c[2]) == ck(iv.rho(iv.rho_dual(c[0])))
        ),
        "triple composition with rotations equals the big involution": lambda c: (
            ck(c[3]) == ck(iv.rho(tb.rotate(iv.rho(tb.rotate(c[1])))))
        ),
        "big involution equals reversal of the rotation, squares to one": lambda c: (
            ck(c[3]) == ck(iv.reversal(tb.rotate(c[0]))) and ck(iv.omega(c[3])) == ck(c[0])
        ),
    })
    # equal recording matrices rectify together; rsk separates points
    first: dict[tuple, tb.SkewTableau] = {}
    by_matrix = (
        (first.setdefault((t.outer, tb.recording_matrix(t)), t), t) for t in ssyt_universe(4, 4, 2)
    )
    _check_laws(rep, by_matrix, "4x4 box, 2 letters, {} tableaux", {
        "equal recording matrices rectify to the same tableau": lambda c: (
            c[0] is c[1] or iv.jdt_equivalent(*c)
        ),
    })
    _check_laws(rep, _dominant_with_rsk(3, 3, 2, 3), "3x3 box, 2 letters, {} dominant tableaux", {
        "insertion side tracks rectification, recording side duality": _rsk_tracks_equivalences,
        "switching against the canonical tableau computes rsk": _switching_computes_rsk,
        "reversal flips the insertion side only": _reversal_flips_insertion,
    })
    return rep


def suite_p3_diagram(scale: Scale) -> SuiteReport:
    R, C = scale.box
    rep = SuiteReport("P3-figure21", f"boxes <= {R}x{C}, letters <= {scale.letters}")
    failures = 0
    count = 0
    first = None
    for t in lr_universe(R, C, scale.letters):
        for x in (t, tb.rotate(t)):
            report = iv.verify_diagram(x)
            count += 1
            if not report.passed:
                failures += 1
                if first is None:
                    first = f"{x.pretty()} -> {report.failures()}"
    rep.check(failures == 0, f"all commutation and involution checks on {count} oriented tableaux")
    if first:
        rep.note(first)
    return rep


def _lr_triples(top: int) -> Iterator[tuple[tb.Partition, tb.Partition, tb.Partition, int]]:
    """Each (lambda, mu, nu) with mu in lambda, |nu| = |lambda/mu| and |lambda| <= top."""
    for n in range(1, top + 1):
        for lam in tb.partitions_of(n):
            for mu_size in range(n + 1):
                for mu in (mu for mu in tb.partitions_of(mu_size) if tb.contains(lam, mu)):
                    for nu in tb.partitions_of(n - mu_size):
                        yield lam, mu, nu, iv.lr_coefficient(lam, mu, nu)


def _rho_witnesses(case: tuple[tb.Partition, tb.Partition, tb.Partition, int]) -> bool:
    lam, mu, nu, a = case
    if not (a and sum(mu)):
        return True
    images = {ck(iv.rho(t)) for t in tb.enumerate_lr(lam, mu, nu)}
    return images == {ck(t) for t in tb.enumerate_lr(lam, nu, mu)}


def suite_p3_lr(scale: Scale) -> SuiteReport:
    rep = SuiteReport("P3-lr", "|lambda|<=8")
    _check_laws(rep, _lr_triples(8), "|lambda|<=8, {} triples", {
        "coefficient symmetry in the two lower partitions": lambda c: (
            iv.lr_coefficient(c[0], c[2], c[1]) == c[3]
        ),
        "the symmetry map witnesses every coefficient equality": _rho_witnesses,
    })
    return rep


SUITES: dict[str, Callable[[Scale], SuiteReport]] = {
    "intro-wilf": suite_intro_wilf,
    "intro-thm2.7": suite_intro_thm27,
    "intro-schur": suite_intro_schur,
    "P1-da-basics": suite_p1_basics,
    "P1-prop3.1": suite_p1_prop31,
    "P1-sec4": suite_p1_sec4,
    "P1-sec5": suite_p1_sec5,
    "P1-sec6": suite_p1_sec6,
    "P1-prop7.2": suite_p1_prop72,
    "P1-prop8.1": suite_p1_prop81,
    "P1-7.1": _conjecture_suite("P1-7.1"),
    "P1-8.2": _conjecture_suite("P1-8.2"),
    "P1-8.3": _conjecture_suite("P1-8.3"),
    "P2-trees": suite_p2_trees,
    "P2-lemmas2.8-2.10": suite_p2_gadgets,
    "P2-sec3": suite_p2_sec3,
    "P2-formulas": suite_p2_formulas,
    "P2-graph-equivalences": suite_p2_graph_equivalences,
    "P2-pair-table": suite_p2_pair_table,
    "P3-sec2": suite_p3_companion,
    "P3-sec3": suite_p3_sliding,
    "P3-sec4": suite_p3_rsk,
    "P3-sec5": suite_p3_rho,
    "P3-figure21": suite_p3_diagram,
    "P3-lr": suite_p3_lr,
}

# the appendix audit is the formula audit under its catalog name; an alias
# is not a suite of its own, so ``verify all`` runs it once
ALIASES = {"P2-appendixA": "P2-formulas"}

CONJECTURE_SUITES = {"P1-7.1", "P1-8.2", "P1-8.3"}


def run_suite(name: str, scale: Scale | None = None) -> SuiteReport:
    name = ALIASES.get(name, name)
    if name not in SUITES:
        known = ", ".join(sorted([*SUITES, *ALIASES]))
        raise UnknownSuite(f"unknown suite {name!r}; known: {known}")
    return SUITES[name](scale or Scale())
